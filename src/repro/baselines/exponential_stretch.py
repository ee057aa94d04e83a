"""A prior-generation scale-free name-independent scheme (after [7, 8, 6]).

Before this paper, the only *scale-free* name-independent schemes were based
on pure random sampling and paid an exponential price in stretch: with
``Õ(n^{1/k})``-bit tables the best known stretch was ``O(2^k)``
(Awerbuch–Bar-Noy–Linial–Peleg [7, 8], improved to ``O(k^2 2^k)`` by Arias et
al. [6]).  This module implements a representative member of that family so
that experiment E4 can contrast its stretch growth with the linear growth of
the AGM scheme.  It is a stand-in for the family, not a line-by-line
reimplementation of [7] (README, "Deviations from the paper", item 7).

Construction: ``k+1`` landmark levels ``L_0 = V ⊇ L_1 ⊇ ... ⊇ L_k``
(level ``i`` sampled with probability ``n^{-i/k}``; the top level is forced
to a single landmark per component).  A level-``i`` landmark is responsible
for its ``c · n^{(i+1)/k}`` closest nodes: its shortest-path tree over that
responsibility ball carries a Lemma 7 name-independent dictionary.  A search
from ``u`` asks ``u``'s nearest level-1 landmark, then its nearest level-2
landmark, and so on; each failed level costs a round trip proportional to the
responsibility radius of that level's landmark, radii that are *not*
calibrated to ``d(u, v)`` — which is exactly why the stretch degrades quickly
as ``k`` grows while the table size shrinks.
"""

from __future__ import annotations

import math

import numpy as np
from typing import Dict, Hashable, List, Optional

from repro.construction.context import BuildContext, SPTJob
from repro.graphs.graph import WeightedGraph
from repro.graphs.shortest_paths import DistanceOracle, exact_distance_oracle
from repro.routing.messages import RouteResult
from repro.routing.scheme_api import RoutingSchemeInstance
from repro.trees.error_reporting import DictionaryTreeRouting
from repro.utils.bitsize import bits_for_count, bits_for_id
from repro.utils.rng import derive_rng, make_rng
from repro.utils.validation import require


class ExponentialStretchRouting(RoutingSchemeInstance):
    """Random-sampling name-independent routing with super-linear stretch in k."""

    scheme_name = "exponential"
    labeled = False

    def __init__(self, graph: WeightedGraph, k: int = 2,
                 oracle: Optional[DistanceOracle] = None,
                 seed=None, name_bits: int = 64,
                 responsibility_factor: float = 4.0,
                 context: Optional[BuildContext] = None) -> None:
        super().__init__(graph)
        require(k >= 1, f"k must be >= 1, got {k}")
        self.k = int(k)
        self.oracle = exact_distance_oracle(graph, oracle)
        self.name_bits = int(name_bits)
        self.responsibility_factor = float(responsibility_factor)
        self._build_seed = seed  # kept for rebuild_spec / churn repair
        self._build(seed, context or BuildContext(graph, oracle=self.oracle,
                                                  seed=seed))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, seed, context: BuildContext) -> None:
        graph, oracle = self.graph, self.oracle
        rng = make_rng(seed)
        n = graph.n
        names = graph.names_view()

        # landmark levels L_1 .. L_k (L_0 = V is implicit and unused for trees)
        self.levels: List[List[int]] = []
        current = list(range(n))
        for i in range(1, self.k + 1):
            probability = max(n, 2) ** (-(1.0) / self.k)
            kept = [v for v in current if rng.random() < probability]
            if not kept:
                kept = [current[0]]
            current = kept
            self.levels.append(sorted(current))
        # force the top level to one landmark per component so searches terminate
        components = graph.connected_components()
        top: List[int] = []
        for component in components:
            in_top = [v for v in self.levels[-1] if v in set(component)]
            top.append(min(in_top) if in_top else min(component))
        self.levels[-1] = sorted(set(top))

        # nearest landmark of each level for every node, vectorized (the
        # oracle helper handles the (distance, node-index) tie-break)
        self.nearest: List[List[int]] = []
        for i in range(self.k):
            ids, _ = oracle.nearest_member(self.levels[i])
            self.nearest.append(ids.tolist())

        # responsibility trees with Lemma 7 dictionaries, grown as one batched
        # forest — each (level, landmark) job carries its responsibility ball
        # radius as the kernel limit, so low-level trees stay local searches
        self._tree_key: Dict[tuple, DictionaryTreeRouting] = {}
        jobs: List[SPTJob] = []
        job_keys: List[tuple] = []
        for i in range(self.k):
            count = int(math.ceil(self.responsibility_factor * (max(n, 2) ** ((i + 1) / self.k))))
            if i == self.k - 1:
                count = n  # the top level is responsible for everything
            for chunk in oracle.iter_prefetched_chunks(self.levels[i]):
                for w in chunk:
                    responsibility = oracle.nearest(w, count)
                    limit = float(oracle.row(w)[responsibility].max()) \
                        if responsibility else 0.0
                    jobs.append(SPTJob(w, responsibility, limit))
                    job_keys.append((i, w))
        for (i, w), tree in zip(job_keys, context.spt_trees(jobs)):
            self._tree_key[(i, w)] = DictionaryTreeRouting(
                tree, names, name_bits=self.name_bits,
                seed=derive_rng(seed, 11, i, w))
        self.tables.charge_structures(
            "responsibility_tables",
            ((r.tree.nodes, r.table_bits_list())
             for r in self._tree_key.values()))
        landmark_bits = bits_for_id(max(n, 2))
        for v in range(n):
            self.tables[v].charge("nearest_landmarks", landmark_bits, count=self.k)

    # ------------------------------------------------------------------ #
    # compiled forwarding
    # ------------------------------------------------------------------ #
    def compile_forwarding(self):
        """Compile the responsibility trees; plan the level-by-level search."""
        from repro.routing.kernels import level_lookup_program

        # home[i, u]: the tree of u's nearest level-i landmark, or -1
        index_of = np.full((self.k, self.graph.n), -1, dtype=np.int64)
        for d, (i, w) in enumerate(self._tree_key):
            index_of[i, w] = d
        nearest = np.asarray(self.nearest, dtype=np.int64)
        home = np.take_along_axis(index_of, nearest, axis=1)
        return level_lookup_program(
            self.graph, list(self._tree_key.values()), home, "exponential",
            self.header_bits())

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, source: int, destination_name: Hashable) -> RouteResult:
        """Ask the nearest landmark of each level in turn."""
        result = RouteResult(found=False, path=[source], cost=0.0,
                             max_header_bits=self.header_bits(), strategy="exponential")
        if self.graph.name_of(source) == destination_name:
            result.found = True
            return result
        for i in range(self.k):
            result.phases_used = i + 1
            landmark = self.nearest[i][source]
            routing = self._tree_key.get((i, landmark))
            if routing is None or not routing.tree.contains(source):
                continue
            lookup = routing.lookup(source, destination_name)
            result.extend(lookup.path)
            result.cost += lookup.cost
            if lookup.found:
                result.found = True
                return result
        return result

    def header_bits(self) -> int:
        """Destination name + level counter + the Lemma 7 sub-header."""
        sub = max((r.header_bits() for r in self._tree_key.values()), default=0)
        return self.name_bits + bits_for_count(self.k + 1) + sub
