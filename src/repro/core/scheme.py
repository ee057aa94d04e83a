"""The scale-free name-independent routing scheme of Theorem 1.

Routing from ``u`` to the node named ``t`` is the simple iterative protocol
of Section 3: for levels ``i = 0, 1, ..., k``, search the neighborhood
``A(u, i)`` — with the *sparse* strategy (center + Lemma 4 bounded tree
search) if level ``i`` is sparse for ``u``, and with the *dense* strategy
(cover tree of ``G_{a(u,i)}`` + Lemma 7 dictionary lookup) if it is dense.
Every unsuccessful level reports the miss back to ``u`` and the next level
takes over; the guarantee balls grow with the level, the level at which the
destination must be found has radius ``O(d(u, t))``, and each level's cost is
proportional to its radius times ``O(k)`` — which is where the ``O(k)``
stretch comes from.

A last-resort fallback (one shortest-path tree per connected component,
rooted at the component's highest-rank landmark, carrying a Lemma 7
dictionary) guarantees that routing always terminates even when a
scaled-down experimental constant violates one of the w.h.p. lemmas; the
number of times the fallback fires is reported and is expected to be zero
(see the README section "Deviations from the paper", item 5).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.construction.context import BuildContext, SPTJob
from repro.core.decomposition import NeighborhoodDecomposition
from repro.core.dense_strategy import DenseStrategy
from repro.core.landmarks import LandmarkHierarchy
from repro.core.params import AGMParams
from repro.core.sparse_strategy import SparseStrategy
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, exact_distance_oracle
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.trees.error_reporting import DictionaryTreeRouting
from repro.utils.bitsize import bits_for_count, bits_for_id
from repro.utils.rng import derive_rng
from repro.utils.validation import require


class AGMRoutingScheme(RoutingSchemeInstance):
    """Abraham–Gavoille–Malkhi (SPAA 2006) scheme instance for one graph."""

    scheme_name = "agm"
    labeled = False

    def __init__(
        self,
        graph: WeightedGraph,
        k: int = 2,
        params: Optional[AGMParams] = None,
        oracle: Optional[DistanceOracle] = None,
        seed=None,
        context: Optional[BuildContext] = None,
    ) -> None:
        super().__init__(graph)
        require(k >= 1, f"k must be >= 1, got {k}")
        self.k = int(k)
        self.params = params or AGMParams.paper()
        self.oracle = exact_distance_oracle(graph, oracle)
        self._build_seed = seed  # kept for rebuild_spec / churn repair
        context = context or BuildContext(graph, oracle=self.oracle, seed=seed)

        self.decomposition = NeighborhoodDecomposition(
            graph, self.k, oracle=self.oracle, params=self.params)
        self.landmarks = LandmarkHierarchy(
            graph, self.k, oracle=self.oracle, decomposition=self.decomposition,
            params=self.params, seed=derive_rng(seed, 1))
        self.sparse = SparseStrategy(
            graph, self.k, self.oracle, self.decomposition, self.landmarks,
            self.params, self.tables, seed=derive_rng(seed, 2), context=context)
        self.dense = DenseStrategy(
            graph, self.k, self.oracle, self.decomposition,
            self.params, self.tables, seed=derive_rng(seed, 3), context=context)
        self._build_fallback(seed, context)
        self._charge_base_tables()

        #: diagnostic counters (per-instance, reset-able)
        self.fallback_uses = 0

    @classmethod
    def build(cls, graph: WeightedGraph, k: int = 2,
              params: Optional[AGMParams] = None,
              oracle: Optional[DistanceOracle] = None,
              seed=None,
              context: Optional[BuildContext] = None) -> "AGMRoutingScheme":
        """Construct the scheme for ``graph`` (alias of the constructor)."""
        return cls(graph, k=k, params=params, oracle=oracle, seed=seed,
                   context=context)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _build_fallback(self, seed, context: BuildContext) -> None:
        names, folds = self.graph.names_view(), self.graph.name_folds()
        self._fallback: Dict[int, DictionaryTreeRouting] = {}
        self._fallback_of_node: Dict[int, int] = {}
        jobs: List[Tuple[int, List[int], int]] = []
        for index, component in enumerate(self.graph.connected_components()):
            root = max(component, key=lambda v: (self.landmarks.rank_of(v), -v))
            if len(component) == 1:
                continue
            jobs.append((index, component, root))
        trees = context.spt_trees(
            [SPTJob(root, component) for _, component, root in jobs])
        for (index, component, _), tree in zip(jobs, trees):
            routing = DictionaryTreeRouting(tree, names,
                                            name_bits=self.params.name_bits,
                                            seed=derive_rng(seed, 7, index),
                                            folds=folds[tree.nodes_array])
            self._fallback[index] = routing
            for v in component:
                self._fallback_of_node[v] = index
            for v, bits in zip(tree.nodes, routing.table_bits_list()):
                self.tables[v].charge("fallback_tables", bits)

    def _charge_base_tables(self) -> None:
        exponent_bits = bits_for_count(self.decomposition.top_exp + 1)
        for u in range(self.graph.n):
            # the node's own range list a(u, 0..k+1) and dense/sparse flags
            self.tables[u].charge("decomposition_ranges", exponent_bits, count=self.k + 2)
            self.tables[u].charge("level_flags", 1, count=self.k + 1)
            # the node's own rank in the landmark hierarchy
            self.tables[u].charge("landmark_rank", bits_for_count(self.k))

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, source: int, destination_name: Hashable) -> RouteResult:
        """Route from ``source`` to the node carrying ``destination_name``."""
        require(0 <= source < self.graph.n, f"source {source} out of range")
        result = RouteResult(found=False, path=[source], cost=0.0,
                             max_header_bits=self.header_bits())
        if self.graph.name_at(source) == destination_name:
            result.found = True
            result.strategy = "local"
            return result

        fold = self.graph.name_fold(destination_name)
        for i in range(self.k + 1):
            result.phases_used = i + 1
            if self.decomposition.is_dense(source, i):
                walk, cost, found, _ = self.dense.route(source, i, destination_name,
                                                        fold)
                strategy = "dense"
            else:
                walk, cost, found, _ = self.sparse.route(source, i, destination_name,
                                                         fold)
                strategy = "sparse"
            result.extend(walk)
            result.cost += cost
            if found:
                result.found = True
                result.strategy = strategy
                return result

        # last-resort fallback (expected never to fire; counted when it does)
        component = self._fallback_of_node.get(source)
        if component is not None:
            self.fallback_uses += 1
            routing = self._fallback[component]
            lookup = routing.lookup(source, destination_name, fold)
            result.extend(lookup.path)
            result.cost += lookup.cost
            result.notes["fallback_used"] = 1.0
            if lookup.found:
                result.found = True
                result.strategy = "fallback"
                return result
        result.found = False
        result.strategy = "not-found"
        return result

    # ------------------------------------------------------------------ #
    # compiled forwarding
    # ------------------------------------------------------------------ #
    def compile_forwarding(self):
        """Compile the full AGM walk structure for the lockstep engine.

        Every tree routing can touch — sparse-center Lemma 4 trees, dense
        cover trees with their Lemma 7 dictionaries, the per-component
        fallback trees — is registered in one :class:`TreeBank`.  The batch
        planner replays the level-by-level control flow of :meth:`route`
        (which strategy, which search or dictionary hit or missed) for a
        whole batch without walking: one array pass per level over the
        packets still searching, then one for the fallback.  The engine
        supplies the identical hops.  The per-``(u, i)`` tables below are
        built once here; destinations are hashed per batch.
        """
        from repro.routing.forwarding import ForwardingProgram, TreeBank
        from repro.routing.kernels import BatchPlans, TreeLegs
        from repro.trees.error_reporting import DictionaryLookupBank
        from repro.trees.name_independent import BoundedSearchBank

        n, k = self.graph.n, self.k
        bank = TreeBank(n)
        centers = list(self.sparse.trees)
        lookups = [routing for routings in self.dense.covers.values()
                   for routing in routings] + list(self._fallback.values())
        search_tree = np.asarray([bank.add(self.sparse.trees[c].tree)
                                  for c in centers], dtype=np.int64)
        lookup_tree = np.asarray([bank.add(routing.tree) for routing in lookups],
                                 dtype=np.int64)
        bank.freeze()
        searches = BoundedSearchBank([self.sparse.trees[c] for c in centers],
                                     bank.offsets[search_tree])
        dictionaries = DictionaryLookupBank(lookups, bank.offsets[lookup_tree])

        # (n, k+1) level tables: center search / home lookup / bound b(u, i)
        sparse_index, bound = self.sparse.level_tables(
            {c: s for s, c in enumerate(centers)})
        lookup_index = {id(routing): d for d, routing in enumerate(lookups)}
        dense_index = self.dense.home_table(lookup_index)
        fallback_index = np.full(n, -1, dtype=np.int64)
        for v, component in self._fallback_of_node.items():
            fallback_index[v] = lookup_index[id(self._fallback[component])]
        is_dense = self.decomposition.dense_table()
        folds = self.graph.name_folds()
        header = self.header_bits()
        sparse_code, dense_code, fallback_code, not_found_code, local_code = range(5)
        strategy_names = ["sparse", "dense", "fallback", "not-found", "local"]

        def plan_batch(src: np.ndarray, dst: np.ndarray) -> BatchPlans:
            num = int(src.size)
            legs = TreeLegs()

            searching = np.flatnonzero(src != dst)
            for i in range(k + 1):
                if searching.size == 0:
                    break
                u, t = src[searching], dst[searching]
                found = np.zeros(searching.size, dtype=bool)
                # dense levels: Lemma 7 lookup in the home tree W(u, i)
                rows = np.flatnonzero(is_dense[u, i])
                index = dense_index[u[rows], i]
                rows, index = rows[index >= 0], index[index >= 0]
                if rows.size:
                    trees = lookup_tree[index]
                    targets, hit = dictionaries.waypoints(
                        index, folds[t[rows]], bank.slots_of(trees, u[rows]),
                        bank.slots_of(trees, t[rows]))
                    legs.add(searching[rows], trees, targets, hit, dense_code,
                             i + 1)
                    found[rows] = hit
                # sparse levels: climb to c(u, i), b(u, i)-bounded Lemma 4
                # search, and back to u on a miss; a level whose tree does
                # not hold u is skipped, as in SparseStrategy.route
                rows = np.flatnonzero(~is_dense[u, i])
                index = sparse_index[u[rows], i]
                trees = search_tree[index]
                u_slot = bank.slots_of(trees, u[rows])
                member = u_slot >= 0
                rows, index = rows[member], index[member]
                trees, u_slot = trees[member], u_slot[member]
                if rows.size:
                    path, hit = searches.waypoints(
                        index, folds[t[rows]], bank.slots_of(trees, t[rows]),
                        bound[u[rows], i])
                    targets = np.column_stack(
                        (bank.offsets[trees], path, np.where(hit, -1, u_slot)))
                    legs.add(searching[rows], trees, targets, hit, sparse_code,
                             i + 1)
                    found[rows] = hit
                searching = searching[~found]

            # last-resort fallback of every packet no level found
            index = fallback_index[src[searching]]
            fell, index = searching[index >= 0], index[index >= 0]
            self.fallback_uses += int(fell.size)
            if fell.size:
                trees = lookup_tree[index]
                targets, hit = dictionaries.waypoints(
                    index, folds[dst[fell]], bank.slots_of(trees, src[fell]),
                    bank.slots_of(trees, dst[fell]))
                legs.add(fell, trees, targets, hit, fallback_code, k + 1)

            out_strategy = np.full(num, not_found_code, dtype=np.int64)
            out_phases = np.full(num, k + 1, dtype=np.int64)
            local = src == dst
            out_strategy[local] = local_code
            out_phases[local] = 0
            notes_of: List[Optional[dict]] = [None] * num
            for p in fell.tolist():
                notes_of[p] = {"fallback_used": 1.0}
            return legs.plans(num, out_strategy, out_phases, strategy_names,
                              np.full(num, header, dtype=np.int64), notes_of)

        return ForwardingProgram(self.graph, bank=bank, header_bits=header,
                                 label="agm", batch_planner=plan_batch)

    # ------------------------------------------------------------------ #
    # header accounting
    # ------------------------------------------------------------------ #
    def header_bits(self) -> int:
        """Destination name + phase counter + the largest sub-strategy header."""
        sub = max(self.sparse.max_header_bits(), self.dense.max_header_bits(),
                  max((r.header_bits() for r in self._fallback.values()), default=0))
        return self.params.name_bits + bits_for_count(self.k + 1) + sub

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Headline facts, including AGM-specific counters."""
        base = super().describe()
        base.update({
            "k": self.k,
            "num_sparse_trees": len(self.sparse.trees),
            "num_dense_exponents": len(self.dense.covers),
            "fallback_uses": self.fallback_uses,
        })
        return base
