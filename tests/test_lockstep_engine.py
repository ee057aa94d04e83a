"""Parity and unit tests for compiled forwarding + the lockstep engine.

The headline guarantee of the compiled-forwarding layer is *exact* parity:
for every scheme in the library the lockstep engine must return the same
walks (node for node), the same found/strategy/phase metadata, and the same
stretch statistics as the scalar ``route()`` engine, on every graph family.
"""

import numpy as np
import pytest

from repro.core.params import AGMParams
from repro.dynamics.events import ChurnEvent, apply_events
from repro.factory import SCHEME_NAMES, build_scheme
from repro.graphs.generators import make_graph, random_geometric_graph
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, shortest_path_tree
from repro.routing.forwarding import (LEG_TABLE, LEG_TREE, ForwardingProgram,
                                      NextHopTable, TreeBank, run_lockstep)
from repro.routing.kernels import BatchPlans
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.routing.simulator import RoutingSimulator


FAMILIES = ("small_geometric", "small_grid", "small_cliques")


def _assert_results_match(scalar, lockstep, pairs):
    assert len(scalar) == len(lockstep) == len(pairs)
    for (u, v), s, l in zip(pairs, scalar, lockstep):
        assert l.path == s.path, f"paths differ for pair ({u}, {v})"
        assert l.found == s.found
        assert l.hops == s.hops
        assert l.strategy == s.strategy
        assert l.phases_used == s.phases_used
        assert l.max_header_bits == s.max_header_bits
        assert l.notes == s.notes
        assert l.cost == pytest.approx(s.cost)


def _pairs_for(sim, graph, seed):
    pairs = sim.sample_pairs(120, seed=seed)
    pairs += [(u, u) for u in range(0, graph.n, max(graph.n // 5, 1))]
    return pairs


class TestSchemeParity:
    """Lockstep == scalar for every scheme on >= 3 graph families."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("scheme_name",
                             [s for s in SCHEME_NAMES if s != "agm"])
    def test_baseline_parity(self, request, family, scheme_name):
        graph = request.getfixturevalue(family)
        oracle = DistanceOracle(graph)
        sim = RoutingSimulator(graph, oracle=oracle)
        scheme = build_scheme(scheme_name, graph, k=2, seed=5, oracle=oracle)
        pairs = _pairs_for(sim, graph, seed=3)
        scalar = sim.route_batch(scheme, pairs, engine="scalar")
        lockstep = sim.route_batch(scheme, pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, pairs)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_agm_parity(self, request, family):
        graph = request.getfixturevalue(family)
        oracle = DistanceOracle(graph)
        sim = RoutingSimulator(graph, oracle=oracle)
        scheme = build_scheme("agm", graph, k=2, seed=5, oracle=oracle,
                              params=AGMParams.experiment())
        pairs = _pairs_for(sim, graph, seed=4)
        scalar = sim.route_batch(scheme, pairs, engine="scalar")
        lockstep = sim.route_batch(scheme, pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, pairs)

    def test_agm_k3_parity(self, small_er, er_oracle, agm_k3):
        sim = RoutingSimulator(small_er, oracle=er_oracle)
        pairs = _pairs_for(sim, small_er, seed=6)
        scalar = sim.route_batch(agm_k3, pairs, engine="scalar")
        lockstep = sim.route_batch(agm_k3, pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, pairs)

    @pytest.mark.parametrize("scheme_name", ["agm", "thorup-zwick"])
    def test_report_parity(self, small_geometric, geometric_oracle, scheme_name):
        """Aggregate reports agree field for field (modulo the engine tag)."""
        sim = RoutingSimulator(small_geometric, oracle=geometric_oracle)
        kwargs = {"params": AGMParams.experiment()} if scheme_name == "agm" else {}
        scheme = build_scheme(scheme_name, small_geometric, k=2, seed=9,
                              oracle=geometric_oracle, **kwargs)
        pairs = sim.sample_pairs(150, seed=11)
        scalar = sim.evaluate(scheme, pairs=pairs, engine="scalar").as_dict()
        lockstep = sim.evaluate(scheme, pairs=pairs, engine="lockstep").as_dict()
        assert scalar.pop("engine") == "scalar"
        assert lockstep.pop("engine") == "lockstep"
        assert lockstep == scalar

    def test_disconnected_graph_parity(self):
        graph = WeightedGraph(9, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0),
                                  (4, 5, 1.5), (6, 7, 1.0), (7, 8, 3.0)])
        oracle = DistanceOracle(graph)
        sim = RoutingSimulator(graph, oracle=oracle)
        scheme = build_scheme("agm", graph, k=2, seed=2, oracle=oracle,
                              params=AGMParams.experiment())
        pairs = [(u, v) for u in range(graph.n) for v in range(graph.n)]
        scalar = sim.route_batch(scheme, pairs, engine="scalar")
        lockstep = sim.route_batch(scheme, pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, pairs)


class _UncompiledScheme(RoutingSchemeInstance):
    """A scheme without a compiled form: it routes through the scalar engine only."""

    scheme_name = "uncompiled"

    def __init__(self, graph, inner):
        super().__init__(graph)
        self._inner = inner

    def route(self, source, destination_name):
        return self._inner.route(source, destination_name)

    def header_bits(self):
        return self._inner.header_bits()


class TestEngineSelection:
    def test_auto_prefers_scalar_without_program(self, small_grid):
        oracle = DistanceOracle(small_grid)
        sim = RoutingSimulator(small_grid, oracle=oracle)
        inner = build_scheme("shortest-path", small_grid, oracle=oracle)
        scheme = _UncompiledScheme(small_grid, inner)
        assert scheme.compiled_forwarding() is None
        assert sim.resolve_engine(scheme, "auto") == "scalar"
        assert sim.resolve_engine(inner, "auto") == "lockstep"
        report = sim.evaluate(inner, num_pairs=20, seed=2)
        assert report.engine == "lockstep"
        report = sim.evaluate(scheme, num_pairs=20, seed=2)
        assert report.engine == "scalar" and report.failures == 0

    def test_lockstep_without_program_rejected(self, small_grid):
        oracle = DistanceOracle(small_grid)
        sim = RoutingSimulator(small_grid, oracle=oracle)
        inner = build_scheme("shortest-path", small_grid, oracle=oracle)
        scheme = _UncompiledScheme(small_grid, inner)
        with pytest.raises(Exception, match="no compiled forwarding program"):
            sim.evaluate(scheme, num_pairs=5, seed=1, engine="lockstep")

    def test_unknown_engine_rejected(self, small_grid):
        oracle = DistanceOracle(small_grid)
        sim = RoutingSimulator(small_grid, oracle=oracle)
        inner = build_scheme("shortest-path", small_grid, oracle=oracle)
        with pytest.raises(Exception):
            sim.evaluate(inner, num_pairs=5, seed=1, engine="warp-drive")


class TestTreeBank:
    def test_walks_follow_unique_tree_paths(self, small_geometric, geometric_spt):
        tree = geometric_spt
        bank = TreeBank(small_geometric.n)
        tree_id = bank.add(tree)

        def planner(src: np.ndarray, dst: np.ndarray) -> BatchPlans:
            # one non-terminal leg per packet: the tree path to dst
            num = src.size
            trees = np.full(num, tree_id, dtype=np.int64)
            return BatchPlans(
                num=num, leg_kind=np.full(num, LEG_TREE, dtype=np.int8),
                leg_a=trees, leg_b=bank.slots_of(trees, dst),
                leg_strategy=np.full(num, -1, dtype=np.int64),
                leg_phases=np.zeros(num, dtype=np.int64),
                leg_terminal=np.zeros(num, dtype=bool),
                leg_lo=np.arange(num), leg_hi=np.arange(num) + 1,
                out_strategy=np.zeros(num, dtype=np.int64),
                out_phases=np.zeros(num, dtype=np.int64),
                strategy_names=["tree"])

        program = ForwardingProgram(small_geometric, bank=bank,
                                    label="one-tree", batch_planner=planner)
        rng = np.random.default_rng(5)
        pairs = [tuple(int(x) for x in rng.choice(list(tree.nodes), size=2))
                 for _ in range(40)]
        outcome = run_lockstep(program, [u for u, _ in pairs],
                               [v for _, v in pairs])
        for (u, v), result in zip(pairs, outcome.results):
            assert result.path == tree.path(u, v)

    def test_membership_lookup(self, small_geometric, geometric_spt):
        bank = TreeBank(small_geometric.n)
        tree_id = bank.add(geometric_spt)
        assert bank.add(geometric_spt) == tree_id  # idempotent registration
        bank.freeze()
        inside = next(iter(geometric_spt.nodes))
        assert bank.slots_of(np.asarray([tree_id]), np.asarray([inside]))[0] >= 0
        assert bank.slots_of(np.asarray([tree_id + 7]),
                             np.asarray([inside]))[0] == -1

    def test_empty_bank(self):
        bank = TreeBank(5).freeze()
        assert bank.num_trees == 0 and bank.num_slots == 0
        assert (bank.slots_of(np.asarray([0, 1]), np.asarray([2, 3])) == -1).all()


class TestNextHopTable:
    def test_lookup_hits_and_misses(self, tiny_path):
        table = NextHopTable.from_arrays(
            tiny_path.n, np.asarray([0, 1]), np.asarray([1, 2]),
            np.asarray([1, 2]))
        hits = table.lookup(np.asarray([0, 1, 2]), np.asarray([1, 2, 3]))
        assert hits.tolist() == [1, 2, -1]
        assert table.lookup(np.asarray([0]), np.asarray([3]))[0] == -1

    def _random_table(self, n=40, entries=300, seed=0):
        rng = np.random.default_rng(seed)
        nodes = rng.integers(0, n, size=entries)
        dests = rng.integers(0, n, size=entries)
        keys, keep = np.unique(nodes * n + dests, return_index=True)
        return NextHopTable.from_arrays(
            n, nodes[keep], dests[keep],
            rng.integers(0, n, size=keep.size)), n

    def test_batch_view_lookup_identical_to_table(self):
        """The regression contract of the per-batch views: every lookup
        through a view — dense column cache hits and sorted fallbacks
        alike — equals ``table.lookup`` on the same pairs."""
        table, n = self._random_table(seed=3)
        rng = np.random.default_rng(4)
        queries_nodes = rng.integers(0, n, size=500)
        queries_dests = rng.integers(0, n, size=500)
        # view over a destination subset: those dests hit the column cache,
        # the rest exercise the searchsorted fallback inside one lookup
        view = table.batch_view(np.unique(queries_dests)[: n // 3])
        expected = table.lookup(queries_nodes, queries_dests)
        got = view.lookup(queries_nodes.astype(np.int64),
                          queries_dests.astype(np.int64))
        assert np.array_equal(got, expected)
        assert got.dtype == np.int64
        # growing the cache with a second view keeps lookups identical
        view2 = table.batch_view(queries_dests)
        assert np.array_equal(
            view2.lookup(queries_nodes.astype(np.int64),
                         queries_dests.astype(np.int64)), expected)

    def test_batch_view_of_empty_table(self):
        table = NextHopTable(6, np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64))
        view = table.batch_view(np.asarray([0, 1], dtype=np.int64))
        out = view.lookup(np.asarray([0, 5], dtype=np.int64),
                          np.asarray([1, 2], dtype=np.int64))
        assert out.tolist() == [-1, -1]

    def test_dense_batch_view_matches_table(self, tiny_path):
        from repro.routing.forwarding import DenseNextHopTable

        n = 5
        matrix = np.full((n, n), -1, dtype=np.int32)
        matrix[0, 2] = 1
        matrix[1, 2] = 2
        dense = DenseNextHopTable(matrix)
        view = dense.batch_view(np.asarray([2], dtype=np.int64))
        nodes = np.asarray([0, 1, 3], dtype=np.int64)
        dests = np.asarray([2, 2, 2], dtype=np.int64)
        assert np.array_equal(view.lookup(nodes, dests),
                              dense.lookup(nodes, dests))

    def test_replace_destinations_invalidates_column_cache(self):
        """The churn-repair patch primitive must drop cached columns, or a
        repaired table would keep serving pre-repair next hops."""
        table, n = self._random_table(seed=7)
        dests = np.arange(n, dtype=np.int64)
        table.batch_view(dests)      # build columns for every destination
        victim = int(table.keys[0] % n)
        nodes = np.arange(n, dtype=np.int64)
        new_keys = nodes * n + victim
        table.replace_destinations([victim], new_keys,
                                   np.full(n, (victim + 1) % n, dtype=np.int64))
        view = table.batch_view(dests)
        got = view.lookup(nodes, np.full(n, victim, dtype=np.int64))
        assert (got == (victim + 1) % n).all()
        assert np.array_equal(got, table.lookup(nodes,
                                                np.full(n, victim)))


class TestCompiledProgramShape:
    def test_program_describe(self, agm_k2):
        program = agm_k2.compiled_forwarding()
        info = program.describe()
        assert info["label"] == "agm"
        assert info["trees"] == program.bank.num_trees > 0
        assert program.bank.num_slots > 0

    def test_program_is_cached(self, agm_k2):
        assert agm_k2.compiled_forwarding() is agm_k2.compiled_forwarding()

    def test_agm_batch_plan_walks_trees_only(self, small_geometric, agm_k2):
        program = agm_k2.compiled_forwarding()
        sim = RoutingSimulator(small_geometric)
        pairs = sim.sample_pairs(40, seed=13)
        src = np.asarray([u for u, _ in pairs], dtype=np.int64)
        dst = np.asarray([v for _, v in pairs], dtype=np.int64)
        plans = program.batch_planner(src, dst)
        assert plans.leg_kind.size and (plans.leg_kind == LEG_TREE).all()
        assert (plans.leg_b >= 0).all()
        assert ((plans.leg_hi > plans.leg_lo) == (src != dst)).all()

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_plan_is_one_row_of_the_batch_planner(self, small_grid,
                                                  scheme_name):
        kwargs = {"params": AGMParams.experiment()} if scheme_name == "agm" \
            else {}
        scheme = build_scheme(scheme_name, small_grid, k=2, seed=5,
                              oracle=DistanceOracle(small_grid), **kwargs)
        program = scheme.compiled_forwarding()
        src = np.asarray([0, 3, 7], dtype=np.int64)
        dst = np.asarray([5, 3, 1], dtype=np.int64)
        batch = program.batch_planner(src, dst)
        for p in range(src.size):
            one = program.plan(int(src[p]), int(dst[p]))
            assert one.num == 1
            legs = slice(batch.leg_lo[p], batch.leg_hi[p])
            for field in ("leg_kind", "leg_a", "leg_b", "leg_phases",
                          "leg_terminal"):
                assert getattr(one, field).tolist() == \
                    getattr(batch, field)[legs].tolist()
            assert one.out_phases[0] == batch.out_phases[p]

    def test_leg_outside_its_tree_is_a_planner_bug(self, small_geometric,
                                                   geometric_spt):
        bank = TreeBank(small_geometric.n)
        tree_id = bank.add(geometric_spt)

        def planner(src: np.ndarray, dst: np.ndarray) -> BatchPlans:
            # one leg to the slot just past the tree's last slot
            num = src.size
            return BatchPlans(
                num=num, leg_kind=np.full(num, LEG_TREE, dtype=np.int8),
                leg_a=np.full(num, tree_id, dtype=np.int64),
                leg_b=np.full(num, bank.num_slots, dtype=np.int64),
                leg_strategy=np.full(num, -1, dtype=np.int64),
                leg_phases=np.zeros(num, dtype=np.int64),
                leg_terminal=np.zeros(num, dtype=bool),
                leg_lo=np.arange(num), leg_hi=np.arange(num) + 1,
                out_strategy=np.zeros(num, dtype=np.int64),
                out_phases=np.zeros(num, dtype=np.int64),
                strategy_names=["tree"])

        program = ForwardingProgram(small_geometric, bank=bank,
                                    batch_planner=planner)
        with pytest.raises(RuntimeError, match="planner bug"):
            run_lockstep(program, [0], [1])

    def test_run_lockstep_without_materialize(self, small_geometric, agm_k2):
        program = agm_k2.compiled_forwarding()
        sim = RoutingSimulator(small_geometric)
        pairs = sim.sample_pairs(30, seed=17)
        sources = [u for u, _ in pairs]
        destinations = [v for _, v in pairs]
        fast = run_lockstep(program, sources, destinations, materialize=False)
        assert fast.results is None
        full = run_lockstep(program, sources, destinations, materialize=True)
        assert fast.found.tolist() == [r.found for r in full.results]
        assert np.array_equal(fast.hop_tails, full.hop_tails)


class TestLockstepEdgeCases:
    """Previously-untested ``run_lockstep`` paths: empty batches, hop-cap
    exhaustion on a broken table, and destinations detached by churn."""

    def test_empty_batch_returns_empty_outcome(self, small_grid):
        oracle = DistanceOracle(small_grid)
        sim = RoutingSimulator(small_grid, oracle=oracle)
        scheme = build_scheme("cowen", small_grid, seed=3, oracle=oracle)
        outcome = run_lockstep(scheme.compiled_forwarding(), [], [])
        assert outcome.found.size == 0
        assert outcome.hop_index.size == 0
        assert outcome.results == []
        report = sim.evaluate_batch(scheme, [], engine="lockstep")
        assert report.num_pairs == 0 and report.failures == 0

    def test_array_inputs_match_list_inputs(self, small_grid):
        oracle = DistanceOracle(small_grid)
        sim = RoutingSimulator(small_grid, oracle=oracle)
        scheme = build_scheme("cowen", small_grid, seed=3, oracle=oracle)
        program = scheme.compiled_forwarding()
        pairs = sim.sample_pairs(40, seed=9)
        sources = [u for u, _ in pairs]
        destinations = [v for _, v in pairs]
        from_lists = run_lockstep(program, sources, destinations,
                                  materialize=False)
        from_arrays = run_lockstep(program, np.asarray(sources),
                                   np.asarray(destinations), materialize=False)
        assert np.array_equal(from_lists.found, from_arrays.found)
        assert np.array_equal(from_lists.hop_tails, from_arrays.hop_tails)
        assert np.array_equal(from_lists.final_nodes, from_arrays.final_nodes)

    def test_table_hop_cap_exhaustion_advances_to_final_metadata(self):
        # a deliberately broken table: 0 <-> 1 loop toward destination 3
        graph = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        table = NextHopTable.from_arrays(
            graph.n, np.asarray([0, 1]), np.asarray([3, 3]), np.asarray([1, 0]))

        def planner(src: np.ndarray, dst: np.ndarray) -> BatchPlans:
            # one table-0 phase per packet ("loop"); on giving up the packet
            # ends with the final metadata ("gave-up", phases 2)
            num = src.size
            return BatchPlans(
                num=num, leg_kind=np.full(num, LEG_TABLE, dtype=np.int8),
                leg_a=np.zeros(num, dtype=np.int64),
                leg_b=np.full(num, -1, dtype=np.int64),
                leg_strategy=np.zeros(num, dtype=np.int64),
                leg_phases=np.zeros(num, dtype=np.int64),
                leg_terminal=np.zeros(num, dtype=bool),
                leg_lo=np.arange(num), leg_hi=np.arange(num) + 1,
                out_strategy=np.ones(num, dtype=np.int64),
                out_phases=np.full(num, 2, dtype=np.int64),
                strategy_names=["loop", "gave-up"])

        program = ForwardingProgram(graph, tables=[table], label="broken-loop",
                                    batch_planner=planner)
        outcome = run_lockstep(program, [0], [3])
        # the n + 1 hop cap trips, the leg is abandoned, and the packet
        # finalizes with the plan's final metadata instead of spinning
        assert not outcome.found[0]
        assert outcome.hop_index.size == graph.n + 1
        assert outcome.hop_tails[:4].tolist() == [1, 0, 1, 0]
        assert outcome.strategy_names[outcome.strategy_codes[0]] == "gave-up"
        assert outcome.phases[0] == 2
        # a reachable pair through the same program still misses (entry
        # absent) and falls through with found=False rather than looping
        missing = run_lockstep(program, [2], [3])
        assert not missing.found[0] and missing.hop_index.size == 0

    @pytest.mark.parametrize("scheme_name",
                             [s for s in SCHEME_NAMES if s != "agm"])
    def test_detached_destination_after_churn_matches_scalar(self, scheme_name):
        graph = random_geometric_graph(36, seed=771)
        oracle = DistanceOracle(graph, backend="lazy")
        scheme = build_scheme(scheme_name, graph, k=2, seed=5, oracle=oracle)
        victim = max(range(graph.n), key=graph.degree) // 2 + 1
        delta = apply_events(graph, [ChurnEvent("detach", victim)])
        scheme.maintain(delta)
        sim = RoutingSimulator(graph, oracle=DistanceOracle(graph,
                                                            backend="dense"))
        sources = [u for u in range(graph.n) if u != victim][:10]
        pairs = [(u, victim) for u in sources] + [(victim, sources[0])]
        scalar = sim.route_batch(scheme, pairs, engine="scalar")
        lockstep = sim.route_batch(scheme, pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, pairs)
        assert not any(r.found for r in lockstep)
        # reachable traffic still routes under both engines after the repair
        ok_pairs = sim.sample_pairs(30, seed=6)
        ok_pairs = [(u, v) for u, v in ok_pairs if victim not in (u, v)]
        scalar = sim.route_batch(scheme, ok_pairs, engine="scalar")
        lockstep = sim.route_batch(scheme, ok_pairs, engine="lockstep")
        _assert_results_match(scalar, lockstep, ok_pairs)
        assert all(r.found for r in lockstep)


def _assert_outcome_matches_scalar(outcome, scheme, src, dst):
    """Array outcome (``materialize=False``, the traffic path) ≡ scalar walks.

    Every per-packet field the traffic engine reads — hop records, final
    node, found, phases, strategy, header bits, notes — must equal what the
    scalar ``route()`` reports for the same request.
    """
    names = scheme.graph.names_view()
    counts = np.bincount(outcome.hop_index, minlength=len(src))
    bounds = np.concatenate(([0], np.cumsum(counts)))
    for p, (u, v) in enumerate(zip(src, dst)):
        expected = scheme.route(u, names[v])
        lo, hi = bounds[p], bounds[p + 1]
        assert [u] + outcome.hop_tails[lo:hi].tolist() == expected.path
        assert outcome.hop_heads[lo:hi].tolist() == expected.path[:-1]
        assert outcome.final_nodes[p] == expected.path[-1]
        assert bool(outcome.found[p]) == expected.found
        assert outcome.phases[p] == expected.phases_used
        code = outcome.strategy_codes[p]
        assert (outcome.strategy_names[code] if code >= 0 else "") == \
            expected.strategy
        assert outcome.header_bits[p] == expected.max_header_bits
        assert (outcome.notes[p] or {}) == (expected.notes or {})


class TestFusedKernelParity:
    """The fused kernels' array outcomes equal the scalar ``route()``, packet
    for packet, on every scheme and graph family."""

    def _check(self, scheme, graph, seed):
        sim = RoutingSimulator(graph, oracle=DistanceOracle(graph))
        pairs = _pairs_for(sim, graph, seed=seed)
        src = [u for u, _ in pairs]
        dst = [v for _, v in pairs]
        outcome = run_lockstep(scheme.compiled_forwarding(), src, dst,
                               materialize=False)
        _assert_outcome_matches_scalar(outcome, scheme, src, dst)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("scheme_name",
                             [s for s in SCHEME_NAMES if s != "agm"])
    def test_kernel_vs_scalar_walks(self, request, family, scheme_name):
        graph = request.getfixturevalue(family)
        oracle = DistanceOracle(graph)
        scheme = build_scheme(scheme_name, graph, k=2, seed=5, oracle=oracle)
        self._check(scheme, graph, seed=21)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_kernel_vs_scalar_walks_agm(self, request, family):
        graph = request.getfixturevalue(family)
        oracle = DistanceOracle(graph)
        scheme = build_scheme("agm", graph, k=2, seed=5, oracle=oracle,
                              params=AGMParams.experiment())
        self._check(scheme, graph, seed=22)

    @pytest.mark.parametrize("scheme_name",
                             [s for s in SCHEME_NAMES if s != "agm"])
    def test_detached_destination_parity(self, scheme_name):
        graph = random_geometric_graph(36, seed=771)
        oracle = DistanceOracle(graph, backend="lazy")
        scheme = build_scheme(scheme_name, graph, k=2, seed=5, oracle=oracle)
        victim = max(range(graph.n), key=graph.degree) // 2 + 1
        delta = apply_events(graph, [ChurnEvent("detach", victim)])
        scheme.maintain(delta)
        sources = [u for u in range(graph.n) if u != victim][:10]
        src = sources + [victim]
        dst = [victim] * len(sources) + [sources[0]]
        outcome = run_lockstep(scheme.compiled_forwarding(), src, dst,
                               materialize=False)
        _assert_outcome_matches_scalar(outcome, scheme, src, dst)
        assert not outcome.found.any()


#: the schemes whose batch planners emit tree legs only
TREE_PLANNED = ("agm", "thorup-zwick", "awerbuch-peleg", "exponential")


class TestBatchPlannerAllPairs:
    """Every tree-leg batch planner ≡ scalar ``route()`` on every ordered pair.

    Exhaustive, not sampled: every (source, destination) pair of fixed small
    graphs, self pairs included, through the array outcome the traffic
    engine reads, plus AGM's fallback counter both engines advance.
    """

    @staticmethod
    def _check_all_pairs(scheme) -> int:
        """Assert all-pairs parity; return the scalar fallback count."""
        n = scheme.graph.n
        src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
        before = getattr(scheme, "fallback_uses", 0)
        outcome = run_lockstep(scheme.compiled_forwarding(), src, dst,
                               materialize=False)
        lockstep_uses = getattr(scheme, "fallback_uses", 0) - before
        _assert_outcome_matches_scalar(outcome, scheme, src.tolist(),
                                       dst.tolist())
        scalar_uses = getattr(scheme, "fallback_uses", 0) - before \
            - lockstep_uses
        assert lockstep_uses == scalar_uses
        return scalar_uses

    @staticmethod
    def _build(scheme_name, graph, k=2, seed=1, params=None):
        kwargs = {}
        if scheme_name == "agm":
            kwargs["params"] = params or AGMParams.experiment()
        return build_scheme(scheme_name, graph, k=k, seed=seed,
                            oracle=DistanceOracle(graph), **kwargs)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("family", ["grid", "geometric", "barabasi-albert",
                                        "ring-of-cliques"])
    @pytest.mark.parametrize("scheme_name", TREE_PLANNED)
    def test_all_pairs_k2(self, scheme_name, family, seed):
        graph = make_graph(family, 50, seed=seed)
        assert 40 <= graph.n <= 60
        self._check_all_pairs(self._build(scheme_name, graph, seed=seed))

    @pytest.mark.parametrize("scheme_name", TREE_PLANNED)
    def test_all_pairs_k3(self, scheme_name):
        graph = make_graph("geometric", 48, seed=3)
        self._check_all_pairs(self._build(scheme_name, graph, k=3, seed=3))

    @pytest.mark.parametrize("scheme_name", TREE_PLANNED)
    def test_all_pairs_mixed_names(self, scheme_name):
        # strings, tuples and negative ints, as in the golden-digest builds
        base = make_graph("barabasi-albert", 48, seed=11)
        names = [f"host-{v}" if v % 3 == 0 else ("as", v) if v % 3 == 1
                 else -v - 1 for v in range(base.n)]
        graph = WeightedGraph(base.n, list(base.edges()), names=names)
        self._check_all_pairs(self._build(scheme_name, graph, seed=11))

    def test_fallback_count_matches_scalar(self):
        # a scaled-down landmark constant breaks the w.h.p. lemmas on this
        # pinned build, so the last-resort fallback fires (found by search)
        graph = make_graph("barabasi-albert", 48, seed=4)
        scheme = self._build("agm", graph, seed=4,
                             params=AGMParams.experiment(landmark_count_factor=0.05))
        assert self._check_all_pairs(scheme) > 0

    @pytest.mark.parametrize("scheme_name", TREE_PLANNED)
    def test_all_pairs_after_maintain(self, scheme_name):
        # Thorup–Zwick's incremental repair is the path live-flap takes
        # every epoch; the others rebuild
        graph = make_graph("geometric", 48, seed=5)
        scheme = self._build(scheme_name, graph, seed=5)
        stale = scheme.compiled_forwarding()
        run_lockstep(stale, [0, 1], [2, 3], materialize=False)
        edges = list(graph.edges())
        events = [ChurnEvent("fail", *edges[3][:2]),
                  ChurnEvent("fail", *edges[17][:2]),
                  ChurnEvent("perturb", *edges[29][:2], weight=edges[29][2] * 3)]
        scheme.maintain(apply_events(graph, events))
        assert scheme.compiled_forwarding() is not stale
        self._check_all_pairs(scheme)


class TestReportEngineField:
    def test_as_dict_contains_engine(self, small_grid):
        oracle = DistanceOracle(small_grid)
        sim = RoutingSimulator(small_grid, oracle=oracle)
        scheme = build_scheme("cowen", small_grid, seed=3, oracle=oracle)
        report = sim.evaluate(scheme, num_pairs=25, seed=5, engine="lockstep")
        assert report.as_dict()["engine"] == "lockstep"
        assert report.engine == "lockstep"
