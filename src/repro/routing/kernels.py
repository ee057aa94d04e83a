"""Fused per-program hop kernels for the lockstep forwarding engine.

A one-hop-per-iteration loop would advance *all* packets one generic "leg
step" per Python iteration, re-classifying every live packet by mode and
paying the full dispatch overhead even when a packet has dozens of
identical table hops ahead of it.  This module organises the hot path
around **cohorts** instead: packets are grouped by the *kind* of leg they
are about to execute (tree walk / table phase) and each cohort is driven to
**leg completion** in one fused kernel call —

* tree cohorts walk DFS-interval slots with batched ``searchsorted`` until
  every member reaches its leg target (members leave the cohort as they
  arrive, so later iterations shrink);
* table cohorts resolve whole multi-hop runs against a per-batch
  :class:`~repro.routing.forwarding.NextHopTable` /
  :class:`~repro.routing.forwarding.DenseNextHopTable` **batch view** (the
  composite search keys / row views are materialized once per batch, not
  once per step).

Leg transitions happen by re-bucketing the advancing packets into the next
round's cohorts instead of per-packet mode branching.  The walks produced
are **identical** to the scalar ``route()``'s, hop for hop: hop caps
(``2m + 1`` per tree leg, ``n + 1`` per table phase) and miss/skip
semantics follow the scalar loops, and the hop records come out
packet-major and chronological within each packet (each packet's legs
execute in strictly increasing rounds, so the closing stable argsort
yields the walk order).

``REPRO_JIT=1`` additionally routes the two innermost kernels (tree-slot
walks and dense-table runs) through numba when it is importable; the numpy
cohort path is the always-available fallback and the import is guarded, so
environments without numba (CI containers) silently keep the numpy kernels.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

from repro.routing.messages import RouteResult

_EMPTY_I64 = np.zeros(0, dtype=np.int64)

#: max distinct target root-paths memoized per frozen TreeBank.  Skewed
#: traffic descends toward a few hundred hot destinations every batch, so
#: the cache is tiny in steady state; the cap only bounds adversarial
#: all-unique workloads (~10 MB at typical path depths).
PATH_CACHE_CAP = 1 << 16


# --------------------------------------------------------------------- #
# optional numba JIT (REPRO_JIT=1; import-guarded, silent fallback)
# --------------------------------------------------------------------- #
def jit_requested() -> bool:
    """Whether the environment asked for the numba kernels."""
    return os.environ.get("REPRO_JIT", "") == "1"


_JIT_STATE: Dict[str, object] = {"loaded": False, "tree": None, "table": None}


def _jit_kernels():
    """(tree_kernel, table_kernel) or (None, None) when numba is unusable.

    Compiled lazily on first use so merely importing this module never pays
    numba's import cost; any failure (missing package, compile error) simply
    disables the JIT path for the process.
    """
    if not _JIT_STATE["loaded"]:
        _JIT_STATE["loaded"] = True
        try:  # pragma: no cover - numba is absent in CI containers
            import numba

            _JIT_STATE["tree"] = numba.njit(cache=False, nogil=True)(_tree_runs_py)
            _JIT_STATE["table"] = numba.njit(cache=False, nogil=True)(_table_runs_py)
        except Exception:
            _JIT_STATE["tree"] = None
            _JIT_STATE["table"] = None
    return _JIT_STATE["tree"], _JIT_STATE["table"]


def _tree_runs_py(cur, tgt, off, budget, node_of_slot, dfs_out, parent_slot,
                  child_keys, child_slots, stride):  # pragma: no cover - JIT only
    """Per-packet tree walks to leg completion (numba source).

    Two passes: count the steps of every walk, then fill the flat hop
    arrays.  Returns ``(counts, heads, tails)``; a budget overrun is
    reported as ``counts[p] = -1`` (the caller raises, matching the numpy
    kernel's RuntimeError).
    """
    m = cur.shape[0]
    counts = np.zeros(m, dtype=np.int64)
    for p in range(m):
        c = cur[p]
        t = tgt[p]
        o = off[p]
        b = budget[p]
        steps = np.int64(0)
        while c != t:
            t_local = t - o
            if (c - o) <= t_local and t_local <= dfs_out[c]:
                key = c * stride + t_local
                lo = np.int64(0)
                hi = np.int64(child_keys.shape[0])
                while lo < hi:  # rightmost child key <= key
                    mid = (lo + hi) // 2
                    if child_keys[mid] <= key:
                        lo = mid + 1
                    else:
                        hi = mid
                c = child_slots[lo - 1]
            else:
                c = parent_slot[c]
            steps += 1
            if steps > b:
                steps = np.int64(-1)
                break
        counts[p] = steps
        if steps < 0:
            break
    total = np.int64(0)
    for p in range(m):
        if counts[p] < 0:
            return counts, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        total += counts[p]
    heads = np.empty(total, dtype=np.int64)
    tails = np.empty(total, dtype=np.int64)
    pos = np.int64(0)
    for p in range(m):
        c = cur[p]
        t = tgt[p]
        o = off[p]
        for _ in range(counts[p]):
            t_local = t - o
            if (c - o) <= t_local and t_local <= dfs_out[c]:
                key = c * stride + t_local
                lo = np.int64(0)
                hi = np.int64(child_keys.shape[0])
                while lo < hi:
                    mid = (lo + hi) // 2
                    if child_keys[mid] <= key:
                        lo = mid + 1
                    else:
                        hi = mid
                nxt = child_slots[lo - 1]
            else:
                nxt = parent_slot[c]
            heads[pos] = node_of_slot[c]
            tails[pos] = node_of_slot[nxt]
            pos += 1
            c = nxt
    return counts, heads, tails


def _table_runs_py(flat, n, start_nodes, dests, budget0):  # pragma: no cover - JIT only
    """Per-packet dense-table runs to leg completion (numba source).

    ``flat`` is the raveled ``(n, n)`` next-hop matrix.  Returns
    ``(counts, status, finals, heads, tails)`` with ``status = 1`` when the
    packet reached its destination (finalize with the leg's metadata) and
    ``0`` when it missed or exhausted the ``n + 1`` hop cap (advance to the
    next leg).
    """
    m = start_nodes.shape[0]
    counts = np.zeros(m, dtype=np.int64)
    status = np.zeros(m, dtype=np.int8)
    finals = np.empty(m, dtype=np.int64)
    for p in range(m):
        node = start_nodes[p]
        d = dests[p]
        b = budget0
        steps = np.int64(0)
        st = np.int8(0)
        while True:
            if b <= 0:
                break
            nxt = flat[node * n + d]
            if nxt < 0:
                break
            node = np.int64(nxt)
            steps += 1
            b -= 1
            if node == d:
                st = np.int8(1)
                break
        counts[p] = steps
        status[p] = st
        finals[p] = node
    total = np.int64(0)
    for p in range(m):
        total += counts[p]
    heads = np.empty(total, dtype=np.int64)
    tails = np.empty(total, dtype=np.int64)
    pos = np.int64(0)
    for p in range(m):
        node = start_nodes[p]
        d = dests[p]
        for _ in range(counts[p]):
            nxt = np.int64(flat[node * n + d])
            heads[pos] = node
            tails[pos] = nxt
            pos += 1
            node = nxt
    return counts, status, finals, heads, tails


# --------------------------------------------------------------------- #
# batch plans (SoA)
# --------------------------------------------------------------------- #
class BatchPlans:
    """The flattened plans of one packet batch in structure-of-arrays form.

    Every compiled scheme has a vectorized ``batch_planner`` that builds
    these arrays directly: shortest-path and Cowen emit table and tree legs,
    while AGM, Thorup–Zwick, Awerbuch–Peleg and the exponential stand-in
    emit tree legs through :class:`TreeLegs`.  The executor takes ownership
    of the arrays (it mutates ``out_strategy`` / ``out_phases`` in place),
    so planners must build fresh arrays per batch.
    """

    __slots__ = ("num", "leg_kind", "leg_a", "leg_b", "leg_strategy",
                 "leg_phases", "leg_terminal", "leg_lo", "leg_hi",
                 "out_strategy", "out_phases", "header_bits",
                 "notes_of", "strategy_names")

    def __init__(self, num: int, leg_kind: np.ndarray, leg_a: np.ndarray,
                 leg_b: np.ndarray, leg_strategy: np.ndarray,
                 leg_phases: np.ndarray, leg_terminal: np.ndarray,
                 leg_lo: np.ndarray, leg_hi: np.ndarray,
                 out_strategy: np.ndarray, out_phases: np.ndarray,
                 strategy_names: List[str],
                 header_bits: Optional[np.ndarray] = None,
                 notes_of: Optional[List[Optional[dict]]] = None) -> None:
        self.num = int(num)
        self.leg_kind = leg_kind
        self.leg_a = leg_a
        self.leg_b = leg_b
        self.leg_strategy = leg_strategy
        self.leg_phases = leg_phases
        self.leg_terminal = leg_terminal
        self.leg_lo = leg_lo
        self.leg_hi = leg_hi
        self.out_strategy = out_strategy
        self.out_phases = out_phases
        self.header_bits = header_bits if header_bits is not None \
            else np.zeros(self.num, dtype=np.int64)
        self.notes_of = notes_of if notes_of is not None else [None] * self.num
        self.strategy_names = strategy_names


class TreeLegs:
    """Tree legs of one batch, gathered pass by pass into :class:`BatchPlans`.

    A planner calls :meth:`add` once per search pass (a level, a pivot side,
    a fallback) with the packets that pass reaches, in walk order: a packet
    may appear in many passes, and its legs keep the order of the calls.
    """

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        none = _EMPTY_I64
        self._parts: List[tuple] = [(none, none, none, none.astype(bool),
                                     none, none)]

    def add(self, packets: np.ndarray, trees: np.ndarray, targets: np.ndarray,
            found: np.ndarray, code: int, phases: int) -> None:
        """Row ``r`` walks tree ``trees[r]`` to its slots ``targets[r] >= 0``.

        ``targets`` is ``(R, c)``; each row's non-negative slots become legs
        in column order.  A ``found`` row's last leg is terminal: the packet
        finalizes there with strategy ``code`` and ``phases``.
        """
        rows, cols = np.nonzero(targets >= 0)
        ends = np.cumsum(np.bincount(rows, minlength=packets.size)) - 1
        terminal = np.zeros(rows.size, dtype=bool)
        terminal[ends[found]] = True
        self._parts.append((packets[rows], trees[rows], targets[rows, cols],
                            terminal, np.where(terminal, code, -1),
                            np.where(terminal, phases, 0)))

    def plans(self, num: int, out_strategy: np.ndarray, out_phases: np.ndarray,
              strategy_names: List[str], header_bits: np.ndarray,
              notes_of: Optional[List[Optional[dict]]] = None) -> BatchPlans:
        """The gathered legs, grouped per packet by one stable sort."""
        from repro.routing.forwarding import LEG_TREE

        packet, tree, slot, terminal, strategy, phases = (
            np.concatenate(column) for column in zip(*self._parts))
        order = np.argsort(packet, kind="stable")
        counts = np.bincount(packet, minlength=num)
        leg_lo = np.zeros(num, dtype=np.int64)
        np.cumsum(counts[:-1], out=leg_lo[1:])
        return BatchPlans(num=num,
                          leg_kind=np.full(order.size, LEG_TREE, dtype=np.int8),
                          leg_a=tree[order], leg_b=slot[order],
                          leg_strategy=strategy[order],
                          leg_phases=phases[order],
                          leg_terminal=terminal[order],
                          leg_lo=leg_lo, leg_hi=leg_lo + counts,
                          out_strategy=out_strategy, out_phases=out_phases,
                          strategy_names=strategy_names,
                          header_bits=header_bits, notes_of=notes_of)


def level_lookup_program(graph, routings, home: np.ndarray, strategy: str,
                         header_bits: int):
    """Compiled program of a level-by-level Lemma 7 dictionary search.

    The search of Awerbuch–Peleg (one level per distance scale) and of the
    exponential stand-in (one level per landmark level): at level ``i`` the
    source looks the destination up in the dictionary tree
    ``routings[home[i, source]]`` (``-1``: no tree, the level is skipped,
    as is a tree that does not hold the source).  The first hit ends the
    walk with phases ``i + 1``; a miss walks back to the source, and a
    packet no level finds ends with phases ``levels``.
    """
    from repro.routing.forwarding import ForwardingProgram, TreeBank
    from repro.trees.error_reporting import DictionaryLookupBank

    levels, n = home.shape
    bank = TreeBank(n)
    lookup_tree = np.asarray([bank.add(r.tree) for r in routings],
                             dtype=np.int64)
    bank.freeze()
    dictionaries = DictionaryLookupBank(routings, bank.offsets[lookup_tree])
    folds = graph.name_folds()
    home = home.copy()
    for i in range(levels):
        held = np.flatnonzero(home[i] >= 0)
        trees = lookup_tree[home[i, held]]
        home[i, held[bank.slots_of(trees, held) < 0]] = -1

    def plan_batch(src: np.ndarray, dst: np.ndarray) -> BatchPlans:
        num = int(src.size)
        legs = TreeLegs()
        searching = np.flatnonzero(src != dst)
        for i in range(levels):
            if searching.size == 0:
                break
            index = home[i, src[searching]]
            rows = np.flatnonzero(index >= 0)
            if rows.size == 0:
                continue
            index, packets = index[rows], searching[rows]
            trees = lookup_tree[index]
            targets, hit = dictionaries.waypoints(
                index, folds[dst[packets]], bank.slots_of(trees, src[packets]),
                bank.slots_of(trees, dst[packets]))
            legs.add(packets, trees, targets, hit, 0, i + 1)
            found = np.zeros(searching.size, dtype=bool)
            found[rows] = hit
            searching = searching[~found]
        out_phases = np.where(src == dst, 0, levels).astype(np.int64)
        return legs.plans(num, np.zeros(num, dtype=np.int64), out_phases,
                          [strategy], np.full(num, header_bits, dtype=np.int64))

    return ForwardingProgram(graph, bank=bank, header_bits=header_bits,
                             label=strategy, batch_planner=plan_batch)


def flatten_plans(program, src: np.ndarray, dst: np.ndarray) -> BatchPlans:
    """Plan one batch: the executor's single planning call.

    Runs ``program.batch_planner`` and checks, as one vectorized test over
    every tree leg, that each leg's target slot lies inside the tree it
    walks.
    """
    from repro.routing.forwarding import LEG_TREE

    plans = program.batch_planner(src, dst)
    walks = plans.leg_kind == LEG_TREE
    trees, slots = plans.leg_a[walks], plans.leg_b[walks]
    offset = program.bank.offsets[trees]
    if ((slots < offset) | (slots >= offset + program.bank.sizes[trees])).any():
        raise RuntimeError(
            "compiled plan targets a node outside its tree (planner bug)")
    return plans


# --------------------------------------------------------------------- #
# cohort kernels
# --------------------------------------------------------------------- #
def _run_tree_cohort(bank, idx, cur, tgt, off, budget, node, record) -> np.ndarray:
    """Walk a tree cohort to leg completion; returns the completed packets.

    Every member is strictly *between* its entry slot and its target (entry
    hits and misses were peeled off during entry resolution).  The unique
    tree path climbs from the entry slot to the LCA with the target and
    then descends the target's root path, and the two phases have very
    different costs: ascending is a parent-pointer gather, while resolving a
    descent hop one step at a time costs a ``searchsorted`` over the
    bank-wide child-key array.  The kernel therefore splits them.  Ascents
    run as vectorized parent gathers until each packet's slot interval
    first contains its target.  Descents are served from per-target
    **root-path caches** (the slot path root→target, memoized on the frozen
    bank — hot destinations replay theirs every batch): slots strictly
    increase along a root path, so one ``searchsorted`` over the
    cache-resident concatenated paths locates every packet's ancestor
    position at once, and the remaining hops are a flat suffix gather.
    The bank's arrays are only ever written by ``freeze()`` and repairs
    recompile the whole program, so a cached path can never go stale.  Hop
    caps mirror the scalar tree walk: a walk longer than its ``2m + 1``
    budget raises.
    """
    if idx.size == 0:
        return idx
    if jit_requested():
        tree_kernel, _ = _jit_kernels()
        if tree_kernel is not None:
            counts, heads, tails = tree_kernel(
                cur, tgt, off, budget, bank.node_of_slot, bank.dfs_out,
                bank.parent_slot, bank._child_keys, bank._child_slots,
                np.int64(bank._stride))
            if (counts < 0).any():
                raise RuntimeError("lockstep tree walk did not terminate")
            record(np.repeat(idx, counts), heads, tails)
            node[idx] = bank.node_of_slot[tgt]
            return idx
    node_of_slot = bank.node_of_slot
    done_parts: List[np.ndarray] = [idx[:0]]
    down_parts: List[tuple] = []
    a_idx, a_cur, a_tgt, a_off, a_budget = idx, cur, tgt, off, budget
    # ascent phase: parent gathers until each packet's interval contains
    # its target (it then sits on the target's root path and descends)
    while a_idx.size:
        descending = (a_cur <= a_tgt) \
            & (a_tgt - a_off <= bank.dfs_out[a_cur])
        if descending.any():
            down_parts.append((a_idx[descending], a_cur[descending],
                               a_tgt[descending], a_budget[descending]))
            keep = ~descending
            a_idx, a_cur, a_tgt = a_idx[keep], a_cur[keep], a_tgt[keep]
            a_off, a_budget = a_off[keep], a_budget[keep]
            if a_idx.size == 0:
                break
        parents = bank.parent_slot[a_cur]
        if (parents < 0).any():
            raise RuntimeError(
                "lockstep tree walk stepped above a root: target label is "
                "outside the packet's current tree")
        record(a_idx, node_of_slot[a_cur], node_of_slot[parents])
        a_budget -= 1
        if (a_budget < 0).any():
            raise RuntimeError("lockstep tree walk did not terminate")
        arrived = parents == a_tgt
        if arrived.any():
            node[a_idx[arrived]] = node_of_slot[a_tgt[arrived]]
            done_parts.append(a_idx[arrived])
            keep = ~arrived
            a_idx, a_tgt, a_off = a_idx[keep], a_tgt[keep], a_off[keep]
            a_budget, parents = a_budget[keep], parents[keep]
        a_cur = parents
    # descent phase: replay the suffix of each target's cached root path
    if down_parts:
        d_idx, d_cur, d_tgt, d_budget = \
            (np.concatenate(p) for p in zip(*down_parts))
        # memoized per-target root paths; lives on the bank so churn repair
        # can drop it through TreeBank.invalidate_caches() — replaying a
        # pre-repair path after a re-slot would silently corrupt descents
        cache = getattr(bank, "_path_cache", None)
        if cache is None:
            cache = bank._path_cache = {}
        uniq_t, t_inv = np.unique(d_tgt, return_inverse=True)
        parent = bank.parent_slot
        paths = []
        for t in uniq_t.tolist():
            path = cache.get(t)
            if path is None:
                chain = [t]
                s = int(parent[t])
                while s >= 0:
                    chain.append(s)
                    s = int(parent[s])
                path = np.asarray(chain[::-1], dtype=np.int64)
                if len(cache) < PATH_CACHE_CAP:
                    cache[t] = path
            paths.append(path)
        lens = np.fromiter((p.size for p in paths), dtype=np.int64,
                           count=len(paths))
        seg_hi = np.cumsum(lens)
        flat = np.concatenate(paths)
        # per-path slots strictly increase, so segment-offset keys are
        # globally sorted and one searchsorted finds every packet's
        # position on its own target's root path
        span = np.int64(node_of_slot.size)
        seg_of = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        pos = np.searchsorted(seg_of * span + flat,
                              t_inv * span + d_cur, side="right")
        counts = seg_hi[t_inv] - pos
        if (counts > d_budget).any():
            raise RuntimeError("lockstep tree walk did not terminate")
        flat_nodes = node_of_slot[flat]
        total = int(counts.sum())
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        tails = flat_nodes[np.repeat(pos, counts) + within]
        heads = np.empty(total, dtype=np.int64)
        heads[1:] = tails[:-1]
        heads[starts] = node_of_slot[d_cur]
        record(np.repeat(d_idx, counts), heads, tails)
        node[d_idx] = node_of_slot[d_tgt]
        done_parts.append(d_idx)
    return np.concatenate(done_parts)


def _run_table_cohort(view, idx, node, dst, n, record):
    """Resolve a table cohort's multi-hop runs to leg completion.

    Returns ``(finalized, advanced)``: packets that reached their
    destination (finalize with the current leg's metadata) and packets that
    missed or hit the ``n + 1`` hop cap (advance to their next leg).  The
    per-step order of operations — cap check first, then lookup, then the
    reached check — matches the scalar table walk exactly.
    """
    budget = np.full(idx.size, n + 1, dtype=np.int64)
    nodes = node[idx]
    dests = dst[idx]
    finalized = [idx[:0]]
    advanced = [idx[:0]]
    if jit_requested():
        _, table_kernel = _jit_kernels()
        flat = getattr(view, "jit_flat", None)
        if table_kernel is not None and flat is not None and idx.size:
            counts, status, finals, heads, tails = table_kernel(
                flat, np.int64(n), nodes, dests, np.int64(n + 1))
            record(np.repeat(idx, counts), heads, tails)
            node[idx] = finals
            reached = status == 1
            return idx[reached], idx[~reached]
    while idx.size:
        capped = budget <= 0
        if capped.any():
            advanced.append(idx[capped])
            keep = ~capped
            idx, nodes = idx[keep], nodes[keep]
            dests, budget = dests[keep], budget[keep]
            if idx.size == 0:
                break
        nxt = view.lookup(nodes, dests)
        miss = nxt < 0
        if miss.any():
            advanced.append(idx[miss])
            keep = ~miss
            idx, nodes, nxt = idx[keep], nodes[keep], nxt[keep]
            dests, budget = dests[keep], budget[keep]
            if idx.size == 0:
                break
        record(idx, nodes, nxt)
        node[idx] = nxt
        nodes = nxt
        budget -= 1
        reached = nodes == dests
        if reached.any():
            finalized.append(idx[reached])
            keep = ~reached
            idx, nodes = idx[keep], nodes[keep]
            dests, budget = dests[keep], budget[keep]
    return np.concatenate(finalized), np.concatenate(advanced)


# --------------------------------------------------------------------- #
# the fused executor
# --------------------------------------------------------------------- #
def run_fused(program, src: np.ndarray, dst: np.ndarray,
              materialize: bool = True, timings: Optional[Dict[str, float]] = None):
    """Execute a batch through the fused cohort kernels.

    The execution loop behind
    :func:`~repro.routing.forwarding.run_lockstep`: walks, hop records and
    metadata equal the scalar ``route()``'s, returned as a
    :class:`~repro.routing.forwarding.LockstepOutcome`.  ``timings``,
    when given, accumulates wall seconds under ``"plan"`` (batch planning
    and its check) and ``"step"`` (kernel execution + assembly).
    """
    import time

    from repro.routing.forwarding import LEG_TABLE, LEG_TREE, LockstepOutcome

    t0 = time.perf_counter() if timings is not None else 0.0
    bp = flatten_plans(program, src, dst)
    if timings is not None:
        t1 = time.perf_counter()
        timings["plan"] = timings.get("plan", 0.0) + (t1 - t0)

    bank = program.bank
    n = program.graph.n
    num = bp.num
    node = src.copy()
    leg_ptr = bp.leg_lo.copy()
    out_strategy = bp.out_strategy
    out_phases = bp.out_phases
    views = [table.batch_view(dst) for table in program.tables]

    hop_idx_parts: List[np.ndarray] = []
    hop_head_parts: List[np.ndarray] = []
    hop_tail_parts: List[np.ndarray] = []

    def record(idx: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> None:
        hop_idx_parts.append(idx)
        hop_head_parts.append(heads)
        hop_tail_parts.append(tails)

    def complete_leg(idx: np.ndarray) -> np.ndarray:
        """Finalize terminal legs; advance the rest, returning them."""
        if idx.size == 0:
            return idx
        legs = leg_ptr[idx]
        terminal = bp.leg_terminal[legs]
        fin = idx[terminal]
        out_strategy[fin] = bp.leg_strategy[legs[terminal]]
        out_phases[fin] = bp.leg_phases[legs[terminal]]
        advancing = idx[~terminal]
        leg_ptr[advancing] += 1
        return advancing

    pending = np.arange(num, dtype=np.int64)
    while pending.size:
        # -- entry resolution: bucket pending packets into this round's
        #    cohorts (skips, instant completions and exhaustion loop here) --
        tree_parts: List[tuple] = []
        table_parts: Dict[int, List[np.ndarray]] = {}
        while pending.size:
            live = pending[leg_ptr[pending] < bp.leg_hi[pending]]
            if live.size == 0:
                pending = live
                break
            legs = leg_ptr[live]
            kinds = bp.leg_kind[legs]
            next_pending: List[np.ndarray] = []

            tree_sel = kinds == LEG_TREE
            if tree_sel.any():
                t_idx, t_leg = live[tree_sel], legs[tree_sel]
                slots = bank.slots_of(bp.leg_a[t_leg], node[t_idx])
                miss = slots < 0
                if miss.any():
                    skipped = t_idx[miss]   # current node outside tree: skip leg
                    leg_ptr[skipped] += 1
                    next_pending.append(skipped)
                    t_idx, t_leg, slots = t_idx[~miss], t_leg[~miss], slots[~miss]
                targets = bp.leg_b[t_leg]
                arrived = slots == targets
                if arrived.any():
                    next_pending.append(complete_leg(t_idx[arrived]))
                going = ~arrived
                g_idx, g_leg = t_idx[going], t_leg[going]
                if g_idx.size:
                    trees = bp.leg_a[g_leg]
                    tree_parts.append((g_idx, slots[going], targets[going],
                                       bank.offsets[trees],
                                       2 * bank.sizes[trees] + 1))

            table_sel = kinds == LEG_TABLE
            if table_sel.any():
                b_idx = live[table_sel]
                tids = bp.leg_a[legs[table_sel]]
                for tid in np.unique(tids):
                    table_parts.setdefault(int(tid), []).append(b_idx[tids == tid])

            pending = np.concatenate(next_pending) if next_pending else _EMPTY_I64

        # -- run each cohort to leg completion, re-bucket the advancers --
        advancing: List[np.ndarray] = []
        if tree_parts:
            idx, cur, tgt, off, budget = (np.concatenate(parts)
                                          for parts in zip(*tree_parts))
            completed = _run_tree_cohort(bank, idx, cur, tgt, off, budget,
                                         node, record)
            advancing.append(complete_leg(completed))
        for tid, parts in table_parts.items():
            idx = np.concatenate(parts)
            finalized, advanced = _run_table_cohort(views[tid], idx, node,
                                                    dst, n, record)
            if finalized.size:   # table success: finalize with the leg's metadata
                legs = leg_ptr[finalized]
                out_strategy[finalized] = bp.leg_strategy[legs]
                out_phases[finalized] = bp.leg_phases[legs]
            leg_ptr[advanced] += 1
            advancing.append(advanced)
        pending = np.concatenate(advancing) if advancing else _EMPTY_I64

    # -- assemble (packet-major, chronological hop order) -- #
    if hop_idx_parts:
        all_idx = np.concatenate(hop_idx_parts)
        all_heads = np.concatenate(hop_head_parts)
        all_tails = np.concatenate(hop_tail_parts)
        order = np.argsort(all_idx, kind="stable")
        hop_index = all_idx[order]
        hop_heads = all_heads[order]
        hop_tails = all_tails[order]
    else:
        hop_index = _EMPTY_I64
        hop_heads = _EMPTY_I64
        hop_tails = _EMPTY_I64

    found = node == dst

    results: Optional[List[RouteResult]] = None
    if materialize:
        counts = np.bincount(hop_index, minlength=num) if num \
            else np.zeros(0, dtype=np.int64)
        groups = np.split(hop_tails, np.cumsum(counts)[:-1]) if num else []
        results = []
        strategy_names = bp.strategy_names
        for p in range(num):
            path = [int(src[p])] + groups[p].tolist()
            result = RouteResult(
                found=bool(found[p]),
                path=path,
                cost=0.0,
                phases_used=int(out_phases[p]),
                strategy=strategy_names[out_strategy[p]] if out_strategy[p] >= 0 else "",
                max_header_bits=int(bp.header_bits[p]),
            )
            if bp.notes_of[p]:
                result.notes = dict(bp.notes_of[p])
            results.append(result)
    outcome = LockstepOutcome(
        results=results, hop_index=hop_index, hop_heads=hop_heads,
        hop_tails=hop_tails, found=found,
        final_nodes=node, phases=out_phases, strategy_codes=out_strategy,
        strategy_names=bp.strategy_names, header_bits=bp.header_bits,
        notes=bp.notes_of)
    if timings is not None:
        timings["step"] = timings.get("step", 0.0) + (time.perf_counter() - t1)
    return outcome
