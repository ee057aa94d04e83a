"""Batched hop-by-hop evaluation of routing schemes.

The simulator takes a scheme instance, samples (or receives) source /
destination pairs, asks the scheme to route each one, **independently
verifies** the returned walks (consecutive nodes must be graph-adjacent; the
cost is recomputed from edge weights), and aggregates stretch statistics
against exact shortest-path distances.

Two evaluation engines are available (``engine=`` on :meth:`evaluate` /
:meth:`evaluate_batch` / :meth:`route_batch`):

* ``"scalar"`` — per-pair ``scheme.route()`` calls, the reference engine;
* ``"lockstep"`` — the scheme's :meth:`compile_forwarding` program executed
  by :func:`repro.routing.forwarding.run_lockstep`: the fused cohort
  kernels advance all pending packets through array gathers over compiled
  forwarding tables, producing walks identical to the scalar engine;
* ``"auto"`` (default) — lockstep when the scheme compiles, scalar otherwise.

Either way the data plane is vectorized: pair sampling rejects disconnected
candidates with one component-id array comparison, walk verification checks
every hop of every walk through one CSR gather, shortest distances for the
round are prefetched into the backend in one batched call, and stretch
statistics are computed with NumPy over the whole batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle
from repro.routing.forwarding import run_lockstep
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.utils.rng import make_rng
from repro.utils.validation import require

#: engine names accepted by evaluate / evaluate_batch / route_batch
ENGINE_NAMES = ("auto", "scalar", "lockstep")


class InvalidRouteError(RuntimeError):
    """Raised when a scheme returns a walk that does not exist in the graph."""


class PairSamplingError(ValueError):
    """Raised when the requested number of connected pairs cannot be sampled."""


def gather_hop_costs(graph: WeightedGraph, packet_idx: np.ndarray,
                     heads: np.ndarray, tails: np.ndarray,
                     num_packets: int) -> np.ndarray:
    """Validate flattened hop arrays and accumulate per-packet walk costs.

    Shared by :meth:`RoutingSimulator.verify_walks` (which flattens Python
    paths), the lockstep engine (whose hop arrays come out of the run
    directly, in the same packet-major chronological order — so the
    accumulated sums are bit-identical between engines) and the traffic
    engine's batch streaming.  Self-hops (``head == tail``) are ignored,
    everything else must be a graph edge or :class:`InvalidRouteError` is
    raised.
    """
    costs = np.zeros(num_packets)
    if packet_idx.size == 0:
        return costs
    real = heads != tails
    heads, tails, packet_idx = heads[real], tails[real], packet_idx[real]
    if packet_idx.size == 0:
        return costs
    # bounds-check before the gather: CSR fancy indexing would wrap
    # negative ids onto real nodes and certify a non-existent walk
    out_of_range = ((heads < 0) | (heads >= graph.n)
                    | (tails < 0) | (tails >= graph.n))
    if out_of_range.any():
        bad = int(np.where(out_of_range)[0][0])
        raise InvalidRouteError(
            f"walk step ({heads[bad]}, {tails[bad]}) is outside the graph")
    csr = graph.to_scipy_csr()
    weights = np.asarray(csr[heads, tails]).ravel()
    missing = np.where(weights <= 0.0)[0]
    if missing.size:
        bad = int(missing[0])
        raise InvalidRouteError(
            f"walk uses non-existent edge ({heads[bad]}, {tails[bad]})")
    np.add.at(costs, packet_idx, weights)
    return costs


def verify_lockstep_walks(graph: WeightedGraph, outcome, num_packets: int,
                          destinations: np.ndarray) -> np.ndarray:
    """Validate a lockstep run's hop arrays and endpoint claims; return costs.

    The walk-certification half of lockstep evaluation, shared by the
    simulator and the traffic engine: every hop must be a graph edge
    (:func:`gather_hop_costs`) and every packet claiming ``found`` must have
    ended at its destination.
    """
    costs = gather_hop_costs(graph, outcome.hop_index, outcome.hop_heads,
                             outcome.hop_tails, num_packets)
    bad = outcome.found & (outcome.final_nodes != destinations)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise InvalidRouteError(
            f"scheme reports 'found' but walk ends at "
            f"{int(outcome.final_nodes[i])}, destination is "
            f"{int(destinations[i])}")
    return costs


def resolve_engine_spec(scheme: RoutingSchemeInstance, engine: str) -> str:
    """Turn an engine spec into ``"scalar"`` or ``"lockstep"``.

    ``"auto"`` picks the lockstep engine when the scheme has a compiled
    program and the scalar engine otherwise; ``"lockstep"`` on a scheme
    without one is an error.  Shared by the simulator and the traffic engine
    so both layers resolve a spec the same way.
    """
    require(engine in ENGINE_NAMES,
            f"engine must be one of {ENGINE_NAMES}, got {engine!r}")
    if engine == "scalar":
        return engine
    compiled = scheme.compiled_forwarding() is not None
    if engine == "auto":
        return "lockstep" if compiled else "scalar"
    require(compiled,
            f"scheme {scheme.scheme_name!r} has no compiled forwarding "
            "program; use engine='scalar' or 'auto'")
    return engine


@dataclass
class PairOutcome:
    """Evaluation of one routed pair."""

    source: int
    destination: int
    shortest: float
    cost: float
    stretch: float
    hops: int
    found: bool
    strategy: str
    phases_used: int
    max_header_bits: int


@dataclass
class EvaluationReport:
    """Aggregated routing quality over a set of pairs."""

    scheme: str
    n: int
    num_pairs: int
    max_stretch: float
    avg_stretch: float
    median_stretch: float
    p95_stretch: float
    max_header_bits: int
    failures: int
    max_table_bits: int
    avg_table_bits: float
    max_label_bits: int
    engine: str = "scalar"
    outcomes: List[PairOutcome] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        """Flat dict for tabular reporting (outcomes omitted)."""
        return {
            "scheme": self.scheme,
            "n": self.n,
            "num_pairs": self.num_pairs,
            "max_stretch": self.max_stretch,
            "avg_stretch": self.avg_stretch,
            "median_stretch": self.median_stretch,
            "p95_stretch": self.p95_stretch,
            "max_header_bits": self.max_header_bits,
            "failures": self.failures,
            "max_table_bits": self.max_table_bits,
            "avg_table_bits": self.avg_table_bits,
            "max_label_bits": self.max_label_bits,
            "engine": self.engine,
        }


class RoutingSimulator:
    """Evaluates scheme instances on a fixed graph."""

    def __init__(self, graph: WeightedGraph, oracle: Optional[DistanceOracle] = None) -> None:
        self.graph = graph
        self.oracle = oracle or DistanceOracle(graph)

    # ------------------------------------------------------------------ #
    # pair sampling
    # ------------------------------------------------------------------ #
    def sample_pairs(self, num_pairs: int, seed=None, distinct: bool = True,
                     on_shortfall: str = "raise",
                     max_batches: int = 200) -> List[Tuple[int, int]]:
        """Sample source/destination pairs uniformly among connected pairs.

        Candidates are drawn in vectorized batches and rejected with one
        component-id comparison (two nodes are connected iff their component
        ids agree) — no per-candidate distance query.  If the graph admits no
        valid pair at all, or the defensive attempt cap trips, the shortfall
        is reported instead of silently returning fewer pairs:
        ``on_shortfall="raise"`` (default) raises :class:`PairSamplingError`,
        ``"warn"`` emits a warning and returns the partial list.

        ``max_batches`` caps the rejection rounds (each round's draw is
        itself capped at one million candidates, so a near-zero acceptance
        probability cannot demand an unbounded allocation).  The default is
        generous enough that a shortfall on a sane graph means something is
        wrong; lower it when a *partial* sample is acceptable and the caller
        handles the ``"warn"`` outcome.
        """
        require(on_shortfall in ("raise", "warn"),
                f"on_shortfall must be 'raise' or 'warn', got {on_shortfall!r}")
        require(max_batches >= 1, "need at least one sampling batch")
        n = self.graph.n
        require(n >= 2, "need at least two nodes to sample pairs")
        if num_pairs <= 0:
            return []
        comp = self.graph.component_ids()
        counts = np.bincount(comp)
        # a valid pair needs a component with >= 2 nodes (distinct) or any
        # node at all (self-pairs allowed)
        if distinct and not np.any(counts >= 2):
            message = (f"graph has no connected pair of distinct nodes "
                       f"({num_pairs} requested)")
            if on_shortfall == "raise":
                raise PairSamplingError(message)
            warnings.warn(message, stacklevel=2)
            return []

        rng = make_rng(seed)
        # acceptance probability of one uniform candidate pair, used to size
        # the rejection batches
        counts = counts.astype(float)
        if distinct:
            acceptance = float(np.sum(counts * (counts - 1.0))) / (n * n)
        else:
            acceptance = float(np.sum(counts ** 2)) / (n * n)
        acceptance = max(acceptance, 1e-9)

        pairs: List[Tuple[int, int]] = []
        for _ in range(max_batches):
            need = num_pairs - len(pairs)
            if need <= 0:
                break
            # cap the draw so near-zero acceptance cannot demand a huge
            # allocation; the outer loop keeps drawing batches as needed
            batch = min(max(int(need / acceptance * 1.2) + 8, need), 1_000_000)
            us = rng.integers(0, n, size=batch)
            vs = rng.integers(0, n, size=batch)
            keep = comp[us] == comp[vs]
            if distinct:
                keep &= us != vs
            us, vs = us[keep][:need], vs[keep][:need]
            pairs.extend(zip(us.tolist(), vs.tolist()))
        if len(pairs) < num_pairs:
            message = (f"sampled only {len(pairs)} of {num_pairs} requested "
                       f"connected pairs after {max_batches} batches")
            if on_shortfall == "raise":
                raise PairSamplingError(message)
            warnings.warn(message, stacklevel=2)
        return pairs

    def all_pairs(self) -> List[Tuple[int, int]]:
        """Every ordered connected pair (use only for small graphs)."""
        comp = self.graph.component_ids()
        out = []
        for u in range(self.graph.n):
            for v in range(self.graph.n):
                if u != v and comp[u] == comp[v]:
                    out.append((u, v))
        return out

    # ------------------------------------------------------------------ #
    # verification
    # ------------------------------------------------------------------ #
    def verify_walk(self, result: RouteResult, source: int, destination: int) -> float:
        """Check the walk is feasible and return its true weighted cost."""
        path = result.path
        require(len(path) >= 1, "route result has an empty path")
        if path[0] != source:
            raise InvalidRouteError(
                f"walk starts at {path[0]}, expected source {source}")
        cost = 0.0
        for a, b in zip(path, path[1:]):
            if a == b:
                continue
            if not self.graph.has_edge(a, b):
                raise InvalidRouteError(f"walk uses non-existent edge ({a}, {b})")
            cost += self.graph.edge_weight(a, b)
        if result.found and path[-1] != destination:
            raise InvalidRouteError(
                f"scheme reports 'found' but walk ends at {path[-1]}, "
                f"destination is {destination}")
        return cost

    def verify_walks(self, results: Sequence[RouteResult], sources: Sequence[int],
                     destinations: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`verify_walk` over a batch; returns true walk costs.

        All hops of all walks are validated through one CSR weight gather:
        a gathered weight of zero means the edge does not exist (edge weights
        are strictly positive), so a single comparison flags every infeasible
        step in the batch.
        """
        require(len(results) == len(sources) == len(destinations),
                "results, sources and destinations must have equal length")
        if not results:
            return np.zeros(0)
        heads: List[int] = []
        tails: List[int] = []
        segments: List[int] = []
        for index, (result, source) in enumerate(zip(results, sources)):
            path = result.path
            require(len(path) >= 1, "route result has an empty path")
            if path[0] != source:
                raise InvalidRouteError(
                    f"walk starts at {path[0]}, expected source {source}")
            for a, b in zip(path, path[1:]):
                if a == b:
                    continue
                heads.append(a)
                tails.append(b)
                segments.append(index)
        costs = self._gather_hop_costs(
            np.asarray(segments, dtype=np.int64),
            np.asarray(heads, dtype=np.int64),
            np.asarray(tails, dtype=np.int64),
            len(results))
        for result, destination in zip(results, destinations):
            if result.found and result.path[-1] != destination:
                raise InvalidRouteError(
                    f"scheme reports 'found' but walk ends at {result.path[-1]}, "
                    f"destination is {destination}")
        return costs

    def _gather_hop_costs(self, packet_idx: np.ndarray, heads: np.ndarray,
                          tails: np.ndarray, num_packets: int) -> np.ndarray:
        """Bound method façade over the module-level :func:`gather_hop_costs`."""
        return gather_hop_costs(self.graph, packet_idx, heads, tails, num_packets)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def resolve_engine(self, scheme: RoutingSchemeInstance, engine: str) -> str:
        """Bound method façade over the module-level :func:`resolve_engine_spec`."""
        return resolve_engine_spec(scheme, engine)

    def route_batch(self, scheme: RoutingSchemeInstance,
                    pairs: Sequence[Tuple[int, int]],
                    engine: str = "auto") -> List[RouteResult]:
        """Route every pair and return the verified :class:`RouteResult` list."""
        pairs = [(int(u), int(v)) for u, v in pairs]
        sources = np.asarray([u for u, _ in pairs], dtype=np.int64)
        destinations = np.asarray([v for _, v in pairs], dtype=np.int64)
        engine = self.resolve_engine(scheme, engine)
        results, _ = self._route_and_verify(scheme, pairs, sources,
                                            destinations, engine)
        return results

    def _verify_lockstep(self, outcome, num_pairs: int,
                         destinations: np.ndarray) -> np.ndarray:
        """Bound method façade over the module-level :func:`verify_lockstep_walks`."""
        return verify_lockstep_walks(self.graph, outcome, num_pairs, destinations)

    @staticmethod
    def _apply_costs(results: List[RouteResult], costs: np.ndarray) -> None:
        """Fill verified costs into materialized results."""
        for result, cost in zip(results, costs.tolist()):
            result.cost = cost

    def _route_and_verify(self, scheme, pairs, sources, destinations,
                          engine) -> Tuple[List[RouteResult], np.ndarray]:
        """Produce verified results + true walk costs under the given engine."""
        if engine == "lockstep":
            program = scheme.compiled_forwarding()
            outcome = run_lockstep(program, sources, destinations, materialize=True)
            costs = self._verify_lockstep(outcome, len(pairs), destinations)
            self._apply_costs(outcome.results, costs)
            return outcome.results, costs
        names = self.graph.names_view()
        results = [scheme.route(u, names[v]) for u, v in pairs]
        costs = self.verify_walks(results, sources, destinations)
        return results, costs

    def evaluate_batch(
        self,
        scheme: RoutingSchemeInstance,
        pairs: Sequence[Tuple[int, int]],
        keep_outcomes: bool = False,
        engine: str = "auto",
    ) -> EvaluationReport:
        """Route every pair through ``scheme``; verify and score with NumPy.

        Shortest distances for the whole batch come from one vectorized
        ``pair_distances`` call after a single round-level ``prefetch`` of
        every source (one multi-source Dijkstra under the lazy backend), walk
        verification is one CSR gather, and the stretch statistics are array
        reductions.  Under ``engine="lockstep"`` even the per-hop routing is
        array work; under ``"scalar"`` the scheme's own ``route`` remains the
        only per-pair Python.
        """
        pairs = [(int(u), int(v)) for u, v in pairs]
        sources = np.asarray([u for u, _ in pairs], dtype=np.int64)
        destinations = np.asarray([v for _, v in pairs], dtype=np.int64)
        engine = self.resolve_engine(scheme, engine)
        if pairs:
            # one batched fill of the backend's row cache for the whole round
            self.oracle.prefetch(np.unique(sources))
        shortest = self.oracle.pair_distances(sources, destinations)

        if engine == "lockstep":
            # array fast path: RouteResult objects are only materialized when
            # the caller wants per-pair outcomes
            program = scheme.compiled_forwarding()
            outcome = run_lockstep(program, sources, destinations,
                                   materialize=keep_outcomes)
            costs = self._verify_lockstep(outcome, len(pairs), destinations)
            found = outcome.found
            max_header = int(outcome.header_bits.max()) if pairs else 0
            results = outcome.results
            if results is not None:
                self._apply_costs(results, costs)
        else:
            results, costs = self._route_and_verify(scheme, pairs, sources,
                                                    destinations, engine)
            found = np.asarray([r.found for r in results], dtype=bool)
            max_header = max((r.max_header_bits for r in results), default=0)

        stretches = np.full(len(pairs), np.inf)
        trivial = found & (shortest <= 0)
        proper = found & (shortest > 0)
        stretches[trivial] = 1.0
        stretches[proper] = costs[proper] / shortest[proper]
        failures = int(np.count_nonzero(~found))

        outcomes: List[PairOutcome] = []
        if keep_outcomes and results is not None:
            for i, ((u, v), result) in enumerate(zip(pairs, results)):
                outcomes.append(PairOutcome(
                    source=u, destination=v, shortest=float(shortest[i]),
                    cost=float(costs[i]), stretch=float(stretches[i]),
                    hops=result.hops, found=result.found,
                    strategy=result.strategy, phases_used=result.phases_used,
                    max_header_bits=result.max_header_bits,
                ))

        finite = stretches[np.isfinite(stretches)]
        if finite.size == 0:
            finite = np.asarray([np.inf])
        return EvaluationReport(
            scheme=scheme.scheme_name,
            n=self.graph.n,
            num_pairs=len(pairs),
            max_stretch=float(stretches.max()) if len(pairs) else 0.0,
            avg_stretch=float(np.mean(finite)),
            median_stretch=float(np.median(finite)),
            p95_stretch=float(np.percentile(finite, 95)),
            max_header_bits=max_header,
            failures=failures,
            max_table_bits=scheme.max_table_bits(),
            avg_table_bits=scheme.avg_table_bits(),
            max_label_bits=scheme.max_label_bits(),
            engine=engine,
            outcomes=outcomes,
        )

    def evaluate(
        self,
        scheme: RoutingSchemeInstance,
        pairs: Optional[Sequence[Tuple[int, int]]] = None,
        num_pairs: int = 200,
        seed=None,
        keep_outcomes: bool = False,
        engine: str = "auto",
    ) -> EvaluationReport:
        """Route every pair through ``scheme`` and aggregate stretch statistics."""
        if pairs is None:
            pairs = self.sample_pairs(num_pairs, seed=seed)
        return self.evaluate_batch(scheme, pairs, keep_outcomes=keep_outcomes,
                                   engine=engine)
