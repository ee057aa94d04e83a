"""Tests for Lemma 6: sparse covers and tree covers."""

import hashlib
import math

import pytest

from repro.covers.sparse_cover import build_sparse_cover
from repro.covers.tree_cover import build_tree_cover
from repro.graphs.generators import erdos_renyi_graph, grid_graph, path_graph
from repro.graphs.shortest_paths import DistanceOracle


@pytest.fixture(scope="module")
def grid_and_oracle():
    g = grid_graph(6, 6, weights="unit", seed=1)
    return g, DistanceOracle(g)


@pytest.fixture(scope="module", params=[1.0, 2.0, 4.0])
def rho(request):
    return request.param


K = 2


class TestSparseCover:
    def test_every_ball_is_covered(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_sparse_cover(g, K, rho, oracle=oracle)
        for v in range(g.n):
            cluster = cover.cluster_of_home(v)
            ball = set(oracle.ball(v, rho))
            assert ball <= cluster.nodes, f"ball of {v} not covered"

    def test_home_map_complete(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_sparse_cover(g, K, rho, oracle=oracle)
        assert set(cover.home) == set(range(g.n))

    def test_membership_sparsity(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_sparse_cover(g, K, rho, oracle=oracle)
        bound = 4 * K * math.ceil(g.n ** (1.0 / K)) + 4
        assert cover.max_membership(g.n) <= bound

    def test_kernel_centers_partition_home_assignments(self, grid_and_oracle):
        g, oracle = grid_and_oracle
        cover = build_sparse_cover(g, K, 2.0, oracle=oracle)
        seen = set()
        for cluster in cover.clusters:
            assert cluster.kernel_centers, "cluster with empty kernel"
            assert cluster.kernel_centers <= cluster.nodes
            assert not (cluster.kernel_centers & seen)
            seen |= cluster.kernel_centers
        assert seen == set(range(g.n))

    def test_node_subset_restriction(self, grid_and_oracle):
        g, oracle = grid_and_oracle
        subset = list(range(0, g.n, 2))
        cover = build_sparse_cover(g, K, 2.0, oracle=oracle, nodes=subset)
        assert set(cover.home) == set(subset)
        for cluster in cover.clusters:
            assert cluster.nodes <= set(subset)

    def test_invalid_arguments(self, grid_and_oracle):
        g, oracle = grid_and_oracle
        with pytest.raises(Exception):
            build_sparse_cover(g, 0, 1.0, oracle=oracle)
        with pytest.raises(Exception):
            build_sparse_cover(g, 2, 0.0, oracle=oracle)

    def test_unknown_cover_mode_rejected(self, grid_and_oracle, monkeypatch):
        g, oracle = grid_and_oracle
        monkeypatch.setenv("REPRO_COVER_MODE", "bogus")
        with pytest.raises(Exception, match="REPRO_COVER_MODE"):
            build_sparse_cover(g, K, 1.0, oracle=oracle)


class TestCoverModeParity:
    """csr ≡ regions ≡ the scalar reference, decision for decision.

    The region-growing coarsening replaces per-node ball rows with
    multi-source limited Dijkstra layers; it must reproduce the CSR
    (row-streaming) mode's clusters, homes and phases exactly, and both
    must hash to the committed digest of the original set-based coarsening
    loop's cover — across families, k, radii and node subsets.  ``auto``
    must resolve to one of the two.
    """

    #: (graph, k, radius) -> sha256 of the canonical cover (:meth:`_digest`)
    #: built by the original set-based coarsening loop
    GOLDEN_SCALAR = {
        ('er-60', 1, 0.5):
            '04e594ab5de64139fc7d2dd2e55df617780f4842e5cba034155e31882bbcb722',
        ('er-60', 1, 1.0):
            '04e594ab5de64139fc7d2dd2e55df617780f4842e5cba034155e31882bbcb722',
        ('er-60', 1, 2.5):
            '4010adcfb9aab8ebcb02e09974386f6456c89c009cd3b38c5fdac2bc42771322',
        ('er-60', 1, 6.0):
            'fc9c96a7c7a4230f22591fa4b6d84ce9a40f440debaf2f0dfb97b67c931b0bef',
        ('er-60', 2, 0.5):
            '04e594ab5de64139fc7d2dd2e55df617780f4842e5cba034155e31882bbcb722',
        ('er-60', 2, 1.0):
            '04e594ab5de64139fc7d2dd2e55df617780f4842e5cba034155e31882bbcb722',
        ('er-60', 2, 2.5):
            '04913c990bda7d6012b7866cb337863f4c4243f87cd550bfd8314f014afc2f5b',
        ('er-60', 2, 6.0):
            '0167d3abaf3d7b05027c922ec808b4a874ffa8a36b134f2a1718d0f190a85e1c',
        ('er-60', 3, 0.5):
            '04e594ab5de64139fc7d2dd2e55df617780f4842e5cba034155e31882bbcb722',
        ('er-60', 3, 1.0):
            '04e594ab5de64139fc7d2dd2e55df617780f4842e5cba034155e31882bbcb722',
        ('er-60', 3, 2.5):
            '95e6ebd1c857427c067064f53640d6210dff8f37db93b2ce9ec032f3e1fa1d7f',
        ('er-60', 3, 6.0):
            '0167d3abaf3d7b05027c922ec808b4a874ffa8a36b134f2a1718d0f190a85e1c',
        ('grid-6x6', 1, 0.5):
            '5c29b4324a3fcea5f79839993405a11d6addd2fe65aebe017d84aee79d130df9',
        ('grid-6x6', 1, 1.0):
            '0e8b66e951e593a76da53f9fd116ac36b6eeea8d10001a50174ec0a0e2cbb81e',
        ('grid-6x6', 1, 2.5):
            '68c08842a38d554c0186d78dab3df756c6348192654c310243a065d41df21209',
        ('grid-6x6', 1, 6.0):
            '31721944755c7d92ac285eb6dd89491b2181a02088a2a09fb601c69cdbe4d799',
        ('grid-6x6', 2, 0.5):
            '5c29b4324a3fcea5f79839993405a11d6addd2fe65aebe017d84aee79d130df9',
        ('grid-6x6', 2, 1.0):
            '072238e1e83e1b4e06cd2d2489a56413ba12024b06f7d40179a29bf01dfea6b0',
        ('grid-6x6', 2, 2.5):
            '5f935a00a413f7aad2c45020fcc4d01c1a8ff21e2ed0897a866970dd9c31a16c',
        ('grid-6x6', 2, 6.0):
            '31721944755c7d92ac285eb6dd89491b2181a02088a2a09fb601c69cdbe4d799',
        ('grid-6x6', 3, 0.5):
            '5c29b4324a3fcea5f79839993405a11d6addd2fe65aebe017d84aee79d130df9',
        ('grid-6x6', 3, 1.0):
            'e407ae7dedc9605276eef36a23b0edbde28efbe0a94ee6f3704f6aab6e3b9c01',
        ('grid-6x6', 3, 2.5):
            '5f935a00a413f7aad2c45020fcc4d01c1a8ff21e2ed0897a866970dd9c31a16c',
        ('grid-6x6', 3, 6.0):
            '31721944755c7d92ac285eb6dd89491b2181a02088a2a09fb601c69cdbe4d799',
        ('path-40', 1, 0.5):
            'ce7b7c85c7f3aec2110498d6ee48aeb43daff398c92d94feb95167b756cb43d7',
        ('path-40', 1, 1.0):
            '63ee83d14c84f5a5af598d61f88f977c3506126aa77b427e025371ba287f5845',
        ('path-40', 1, 2.5):
            '0b8160e986b46dd09276a69cdc3ed54f129331ce37ddbc80713f39930b83d2be',
        ('path-40', 1, 6.0):
            'd6bdcb699b783b9532faa1a7d658625322404a7e4921ed5ae5e3edffc7bbcc97',
        ('path-40', 2, 0.5):
            'ce7b7c85c7f3aec2110498d6ee48aeb43daff398c92d94feb95167b756cb43d7',
        ('path-40', 2, 1.0):
            '63ee83d14c84f5a5af598d61f88f977c3506126aa77b427e025371ba287f5845',
        ('path-40', 2, 2.5):
            '0b8160e986b46dd09276a69cdc3ed54f129331ce37ddbc80713f39930b83d2be',
        ('path-40', 2, 6.0):
            'b4c269b4febd631167aaac874f1708fde0d263b0636d338963ccb308150f58dd',
        ('path-40', 3, 0.5):
            'ce7b7c85c7f3aec2110498d6ee48aeb43daff398c92d94feb95167b756cb43d7',
        ('path-40', 3, 1.0):
            '63ee83d14c84f5a5af598d61f88f977c3506126aa77b427e025371ba287f5845',
        ('path-40', 3, 2.5):
            'a775b2e3489d4be28ec26e001ea520d0bf4a44ecaa76aab719fa45aa5a46e2d0',
        ('path-40', 3, 6.0):
            'b4c269b4febd631167aaac874f1708fde0d263b0636d338963ccb308150f58dd',
    }

    GRAPHS = {"grid-6x6": lambda: grid_graph(6, 6, weights="unit", seed=1),
              "er-60": lambda: erdos_renyi_graph(60, seed=9),
              "path-40": lambda: path_graph(40, seed=4)}

    def _canonical(self, cover):
        clusters = sorted((sorted(c.nodes), c.center,
                           sorted(c.kernel_centers)) for c in cover.clusters)
        return clusters, dict(cover.home)

    @staticmethod
    def _digest(canonical):
        clusters, home = canonical
        return hashlib.sha256(
            repr((clusters, sorted(home.items()))).encode()).hexdigest()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.5, 6.0])
    def test_modes_bit_identical(self, monkeypatch, k, radius):
        for label, make in self.GRAPHS.items():
            graph = make()
            oracle = DistanceOracle(graph)
            outs = {}
            for mode in ("csr", "regions"):
                monkeypatch.setenv("REPRO_COVER_MODE", mode)
                outs[mode] = self._canonical(
                    build_sparse_cover(graph, k, radius, oracle=oracle))
            assert outs["csr"] == outs["regions"]
            assert self._digest(outs["csr"]) == \
                self.GOLDEN_SCALAR[(label, k, radius)]

    def test_subset_universe_parity(self, monkeypatch):
        graph = erdos_renyi_graph(70, seed=12)
        oracle = DistanceOracle(graph)
        subset = list(range(0, graph.n, 3))
        outs = {}
        for mode in ("csr", "regions"):
            monkeypatch.setenv("REPRO_COVER_MODE", mode)
            outs[mode] = self._canonical(
                build_sparse_cover(graph, 2, 2.0, oracle=oracle, nodes=subset))
        assert outs["csr"] == outs["regions"]


class TestTreeCover:
    def test_cover_property_for_home_trees(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, rho, oracle=oracle)
        for v in range(g.n):
            assert cover.covers_ball(v, oracle), f"home tree of {v} misses its ball"

    def test_radius_bound(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, rho, oracle=oracle)
        assert cover.max_radius() <= (2 * K + 3) * rho + 1e-9

    def test_max_edge_bound(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, rho, oracle=oracle)
        assert cover.max_edge() <= 2 * rho + 1e-9

    def test_membership_bound(self, grid_and_oracle, rho):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, rho, oracle=oracle)
        bound = 4 * K * math.ceil(g.n ** (1.0 / K)) + 4
        assert cover.max_membership() <= bound

    def test_trees_containing_consistent_with_home(self, grid_and_oracle):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, 2.0, oracle=oracle)
        for v in range(0, g.n, 5):
            containing = cover.trees_containing(v)
            assert cover.home[v] in containing

    def test_k3_on_weighted_er_graph(self):
        g = erdos_renyi_graph(40, seed=8)
        oracle = DistanceOracle(g)
        rho = oracle.diameter() / 4
        cover = build_tree_cover(g, 3, rho, oracle=oracle)
        for v in range(g.n):
            assert cover.covers_ball(v, oracle)
        assert cover.max_edge() <= 2 * rho + 1e-9

    def test_large_rho_gives_single_tree_per_component(self, grid_and_oracle):
        g, oracle = grid_and_oracle
        cover = build_tree_cover(g, K, oracle.diameter() * 2, oracle=oracle)
        assert len(cover.trees) == 1
        assert cover.trees[0].size == g.n

    def test_tiny_rho_gives_small_trees(self):
        g = path_graph(12, weights="unit", seed=0)
        oracle = DistanceOracle(g)
        cover = build_tree_cover(g, 2, 1.0, oracle=oracle)
        assert cover.max_radius() <= (2 * 2 + 3) * 1.0
        for v in range(g.n):
            assert cover.covers_ball(v, oracle)

    def test_disconnected_graph_handled_per_component(self):
        from repro.graphs.graph import WeightedGraph

        g = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        oracle = DistanceOracle(g)
        cover = build_tree_cover(g, 2, 1.0, oracle=oracle)
        for v in range(g.n):
            assert cover.covers_ball(v, oracle)
        for tree in cover.trees:
            nodes = set(tree.nodes)
            assert nodes <= {0, 1, 2} or nodes <= {3, 4, 5}
