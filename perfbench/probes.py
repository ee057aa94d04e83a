"""Outside-in instrumentation of the routing program.

Nothing here edits the program: every measurement comes from replacing a
public function or method of ``repro`` with a wrapper, at **class or module
level**, for the duration of one benchmark phase.  Instance-level wrappers
would not survive ``dynamics.repair.full_rebuild``, which replaces the
repaired scheme's ``__dict__`` wholesale.

Two layers of wrappers exist:

* :class:`Clock` is always on.  It timestamps the few coarse calls the
  end-to-end metrics are derived from (traffic batches, ``run_traffic``,
  ``maintain()``, ``compile_forwarding()``) and costs a handful of clock
  reads per batch.
* :class:`Tracer` is on only in the traced phase of ``--trace 1``.  It
  records a span (name, start, end, parent) around every wrapped call and
  keeps per-name call counts, total time and self time (a span's time minus
  the time of its wrapped children).  Calls made hundreds of thousands of
  times (``DigitHash.digits``) are aggregated without a span record.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_now = time.perf_counter


class Patches:
    """Replacements of module functions and class methods, undone in reverse."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def method(self, cls: type, attr: str, make: Callable) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def function(self, module_name: str, attr: str, make: Callable) -> None:
        """Replace ``module.attr`` in every loaded ``repro`` module bound to it.

        ``from x import f`` copies the function object into the importing
        module, so the replacement is made wherever that object is bound.
        """
        original = getattr(importlib.import_module(module_name), attr)
        replacement = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _resolve(path: str):
    """``"pkg.module:Class"`` -> class, ``"pkg.module"`` -> module."""
    module_name, _, cls_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


# --------------------------------------------------------------------- #
# always-on clock
# --------------------------------------------------------------------- #
class Clock:
    """Timestamps of traffic batches, traffic runs, repairs and recompiles.

    ``armed`` gates recording: set-up and warm-up traffic are not measured.
    ``tag`` labels what is recorded (the live workload tags each timeline
    with its scheme name).
    """

    def __init__(self) -> None:
        self.armed = False
        self.tag = ""
        self._batch_times: Optional[List[float]] = None
        #: tag -> per-batch latencies (seconds)
        self.batches: Dict[str, List[float]] = defaultdict(list)
        #: tag -> [(start, end, packets)] of each run_traffic call
        self.traffic: Dict[str, List[tuple]] = defaultdict(list)
        #: tag -> [(seconds, RepairReport)] of each maintain() call
        self.repairs: Dict[str, List[tuple]] = defaultdict(list)
        #: tag -> [seconds] of each compile_forwarding() call
        self.compiles: Dict[str, List[float]] = defaultdict(list)
        self._patches = Patches()

    def reset(self) -> None:
        for store in (self.batches, self.traffic, self.repairs, self.compiles):
            store.clear()

    def install(self, scheme_classes) -> None:
        from repro.traffic.models import TrafficModel

        clock = self

        def wrap_batch(original):
            @functools.wraps(original)
            def batch(model, *args, **kwargs):
                if clock._batch_times is not None:
                    clock._batch_times.append(_now())
                return original(model, *args, **kwargs)
            return batch

        def wrap_run_traffic(original):
            @functools.wraps(original)
            def run_traffic(scheme, model, packets, *args, **kwargs):
                if not clock.armed:
                    return original(scheme, model, packets, *args, **kwargs)
                times: List[float] = []
                clock._batch_times = times
                start = _now()
                try:
                    report = original(scheme, model, packets, *args, **kwargs)
                finally:
                    end = _now()
                    clock._batch_times = None
                times.append(end)
                clock.batches[clock.tag].extend(
                    later - earlier for earlier, later in zip(times, times[1:]))
                clock.traffic[clock.tag].append((start, end, int(packets)))
                return report
            return run_traffic

        def wrap_maintain(original):
            @functools.wraps(original)
            def maintain(scheme, *args, **kwargs):
                start = _now()
                report = original(scheme, *args, **kwargs)
                if clock.armed:
                    clock.repairs[clock.tag].append((_now() - start, report))
                return report
            return maintain

        def wrap_compile(original):
            @functools.wraps(original)
            def compile_forwarding(scheme, *args, **kwargs):
                start = _now()
                program = original(scheme, *args, **kwargs)
                if clock.armed:
                    clock.compiles[clock.tag].append(_now() - start)
                return program
            return compile_forwarding

        # every concrete model inherits ``batch`` unless it overrides it
        for cls in _subclasses(TrafficModel):
            if "batch" in cls.__dict__:
                self._patches.method(cls, "batch", wrap_batch)
        self._patches.function("repro.traffic.engine", "run_traffic",
                               wrap_run_traffic)
        for cls in scheme_classes:
            if "maintain" in cls.__dict__:
                self._patches.method(cls, "maintain", wrap_maintain)
            self._patches.method(cls, "compile_forwarding", wrap_compile)

    def uninstall(self) -> None:
        self._patches.undo()


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #
#: (target, attribute, span name, recorded) — ``target`` is
#: ``"module:Class"`` for a method or ``"module"`` for a function.  Spans
#: whose ``recorded`` flag is False are aggregated only (hot calls).
SPANS = [
    # graphs
    ("repro.graphs.shortest_paths:DistanceOracle", "pair_distances",
     "graphs.pair_distances", True),
    ("repro.graphs.shortest_paths:DistanceOracle", "prefetch",
     "graphs.prefetch", True),
    # construction
    ("repro.construction.context:BuildContext", "ball_csr",
     "construction.ball_csr", True),
    ("repro.construction.context", "tree_from_predecessors",
     "construction.tree_from_predecessors", True),
    # hashing (hot: one call per name per tree)
    ("repro.hashing.universal:DigitHash", "digits", "hashing.digits", False),
    # trees
    ("repro.trees.name_independent:NameIndependentTreeRouting", "__init__",
     "trees.name_independent", True),
    ("repro.trees.error_reporting:DictionaryTreeRouting", "__init__",
     "trees.dictionary", True),
    # covers
    ("repro.covers.sparse_cover", "build_sparse_cover", "covers.sparse_cover",
     True),
    ("repro.covers.tree_cover", "build_tree_cover", "covers.tree_cover", True),
    # core
    ("repro.core.decomposition:NeighborhoodDecomposition", "__init__",
     "core.decomposition", True),
    ("repro.core.landmarks:LandmarkHierarchy", "__init__", "core.landmarks",
     True),
    ("repro.core.sparse_strategy:SparseStrategy", "__init__",
     "core.sparse_strategy", True),
    ("repro.core.dense_strategy:DenseStrategy", "__init__",
     "core.dense_strategy", True),
    # baselines
    ("repro.baselines.cowen:CowenRouting", "__init__", "baselines.build", True),
    ("repro.baselines.thorup_zwick:ThorupZwickRouting", "__init__",
     "baselines.build", True),
    ("repro.baselines.shortest_path:ShortestPathRouting", "__init__",
     "baselines.build", True),
    # routing
    ("repro.core.scheme:AGMRoutingScheme", "compile_forwarding",
     "routing.compile", True),
    ("repro.baselines.cowen:CowenRouting", "compile_forwarding",
     "routing.compile", True),
    ("repro.baselines.thorup_zwick:ThorupZwickRouting", "compile_forwarding",
     "routing.compile", True),
    ("repro.baselines.shortest_path:ShortestPathRouting", "compile_forwarding",
     "routing.compile", True),
    ("repro.routing.kernels", "flatten_plans", "routing.plan", True),
    ("repro.routing.forwarding", "run_lockstep", "routing.step", True),
    ("repro.routing.simulator", "verify_lockstep_walks", "routing.verify",
     True),
    # traffic
    ("repro.traffic.models:TrafficModel", "batch", "traffic.batch_gen", True),
    ("repro.traffic.engine", "stream_shard", "traffic.stream", True),
    ("repro.traffic.stats:TrafficStats", "update_batch", "traffic.reduce",
     True),
    ("repro.traffic.engine", "hot_row_cache_for", "traffic.hot_rows", True),
    ("repro.traffic.engine", "run_traffic", "traffic.run", True),
    # dynamics
    ("repro.dynamics.events", "apply_events", "dynamics.apply_events", True),
    ("repro.baselines.thorup_zwick:ThorupZwickRouting", "maintain",
     "dynamics.maintain", True),
    ("repro.baselines.shortest_path:ShortestPathRouting", "maintain",
     "dynamics.maintain", True),
    ("repro.dynamics.repair", "full_rebuild", "dynamics.full_rebuild", True),
    # live
    ("repro.live.simulator:LiveSimulator", "run", "live.run", True),
    ("repro.live.simulator:LiveSimulator", "_stale_window", "live.stale_probe",
     True),
]


class Tracer:
    """In-memory spans and per-name totals around the wrapped calls."""

    def __init__(self) -> None:
        #: [name, start, end, parent span index or -1]
        self.spans: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        #: counters made at the wrapped seams (jobs, per-packet plans)
        self.counts: Dict[str, int] = defaultdict(int)
        # open frames: [name, start, child seconds, span index for
        # children, recorded]
        self._stack: List[list] = []
        self._patches = Patches()

    # -- spans ------------------------------------------------------------ #
    def _enter(self, name: str, recorded: bool) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        index = parent
        if recorded:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, _now(), 0.0, index, recorded]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = _now()
        self._stack.pop()
        name, start, child, index, recorded = frame
        elapsed = end - start
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        if recorded:
            self.spans[index][1] = start
            self.spans[index][2] = end

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span (set-up, rounds, timelines)."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    def _timed(self, name: str, recorded: bool) -> Callable:
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                frame = tracer._enter(name, recorded)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._exit(frame)
            return wrapper
        return make

    # -- install ---------------------------------------------------------- #
    def install(self) -> None:
        for target, attr, name, recorded in SPANS:
            owner = _resolve(target)
            if isinstance(owner, type):
                self._patches.method(owner, attr, self._timed(name, recorded))
            else:
                self._patches.function(owner.__name__, attr,
                                       self._timed(name, recorded))
        self._install_counted_seams()

    def _install_counted_seams(self) -> None:
        from repro.construction.context import BuildContext
        from repro.routing.forwarding import ForwardingProgram

        tracer = self
        timed_spt = self._timed("construction.spt_trees", True)
        timed_plan = self._timed("routing.plan", True)

        def wrap_spt_trees(original):
            inner = timed_spt(original)

            @functools.wraps(original)
            def spt_trees(context, jobs, *args, **kwargs):
                jobs = list(jobs)
                tracer.counts["construction.spt_jobs"] += len(jobs)
                return inner(context, jobs, *args, **kwargs)
            return spt_trees

        def wrap_plan(original):
            @functools.wraps(original)
            def plan(program, *args, **kwargs):
                tracer.counts["routing.scalar_plans"] += 1
                return original(program, *args, **kwargs)
            return plan

        def wrap_program_init(original):
            # batch planners are closures made inside compile_forwarding, so
            # they are wrapped where every program receives them
            @functools.wraps(original)
            def __init__(program, *args, **kwargs):
                if kwargs.get("batch_planner") is not None:
                    kwargs["batch_planner"] = timed_plan(kwargs["batch_planner"])
                elif len(args) > 6 and args[6] is not None:
                    args = args[:6] + (timed_plan(args[6]),) + args[7:]
                return original(program, *args, **kwargs)
            return __init__

        self._patches.method(BuildContext, "spt_trees", wrap_spt_trees)
        self._patches.method(ForwardingProgram, "plan", wrap_plan)
        self._patches.method(ForwardingProgram, "__init__", wrap_program_init)

    def uninstall(self) -> None:
        self._patches.undo()

    # -- queries ---------------------------------------------------------- #
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Copies of the running totals, for per-phase deltas."""
        return {"self": dict(self.self_time), "total": dict(self.total),
                "counts": dict(self.counts)}

    def total_under(self, name: str, ancestor: str) -> float:
        """Total time of recorded ``name`` spans nested inside ``ancestor``."""
        out = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    out += span[2] - span[1]
                    break
                parent = self.spans[parent][3]
        return out

    def dump(self) -> Dict[str, object]:
        """JSON-ready record: spans plus per-name totals."""
        return {
            "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                      for s in self.spans],
            "totals": {name: {"calls": self.calls[name],
                              "total_s": self.total[name],
                              "self_s": self.self_time[name]}
                       for name in sorted(self.calls)},
            "counts": dict(self.counts),
        }
