"""Unit tests for the rooted Tree structure."""

import pytest

from repro.graphs.trees import Tree
from repro.utils.validation import ValidationError


@pytest.fixture()
def sample_tree() -> Tree:
    #        0
    #      /   \
    #     1     2
    #    / \     \
    #   3   4     5
    parent = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2}
    weights = {1: 1.0, 2: 2.0, 3: 1.5, 4: 0.5, 5: 3.0}
    return Tree(root=0, parent=parent, edge_weight=weights)


class TestConstruction:
    def test_size_and_nodes(self, sample_tree):
        assert sample_tree.size == 6
        assert sample_tree.nodes == [0, 1, 2, 3, 4, 5]
        assert len(sample_tree) == 6

    def test_single_node(self):
        t = Tree.single_node(7)
        assert t.size == 1 and t.root == 7 and t.radius() == 0.0 and t.max_edge() == 0.0

    def test_root_cannot_have_parent(self):
        with pytest.raises(ValidationError):
            Tree(root=0, parent={0: 1, 1: 0}, edge_weight={0: 1.0, 1: 1.0})

    def test_missing_weight_rejected(self):
        with pytest.raises(ValidationError):
            Tree(root=0, parent={1: 0}, edge_weight={})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            Tree(root=0, parent={1: 0}, edge_weight={1: 0.0})

    def test_disconnected_parent_rejected(self):
        with pytest.raises(ValidationError):
            Tree(root=0, parent={2: 9}, edge_weight={2: 1.0})

    def test_from_parent_list(self):
        t = Tree.from_parent_list(0, parents=[-1, 0, 1], weights=[0, 2.0, 3.0])
        assert t.size == 3 and t.depth[2] == pytest.approx(5.0)


class TestStructure:
    def test_depths(self, sample_tree):
        assert sample_tree.depth[0] == 0.0
        assert sample_tree.depth[3] == pytest.approx(2.5)
        assert sample_tree.depth[5] == pytest.approx(5.0)
        assert sample_tree.hop_depth[5] == 2

    def test_dfs_intervals_nested(self, sample_tree):
        t = sample_tree
        for v in t.nodes:
            assert t.dfs_in[v] <= t.dfs_out[v]
            for c in t.children[v]:
                assert t.dfs_in[v] < t.dfs_in[c] <= t.dfs_out[c] <= t.dfs_out[v]
        assert sorted(t.dfs_in.values()) == list(range(6))

    def test_subtree_sizes(self, sample_tree):
        assert sample_tree.subtree_size[0] == 6
        assert sample_tree.subtree_size[1] == 3
        assert sample_tree.subtree_size[5] == 1

    def test_radius_and_max_edge(self, sample_tree):
        assert sample_tree.radius() == pytest.approx(5.0)
        assert sample_tree.max_edge() == pytest.approx(3.0)
        assert sample_tree.total_weight() == pytest.approx(8.0)

    def test_orderings(self, sample_tree):
        by_depth = sample_tree.nodes_by_depth()
        assert by_depth[0] == 0
        depths = [sample_tree.depth[v] for v in by_depth]
        assert depths == sorted(depths)
        by_dfs = sample_tree.nodes_by_dfs()
        assert by_dfs[0] == 0

    def test_ancestry(self, sample_tree):
        t = sample_tree
        assert t.is_ancestor(0, 5) and t.is_ancestor(1, 4) and t.is_ancestor(3, 3)
        assert not t.is_ancestor(1, 5)
        assert t.child_toward(0, 4) == 1
        assert t.child_toward(1, 1) is None
        assert t.child_toward(2, 3) is None

    def test_contains(self, sample_tree):
        assert sample_tree.contains(3) and not sample_tree.contains(42)


class TestPaths:
    def test_path_to_root(self, sample_tree):
        assert sample_tree.path_to_root(3) == [3, 1, 0]
        assert sample_tree.path_to_root(0) == [0]

    def test_lca(self, sample_tree):
        assert sample_tree.lca(3, 4) == 1
        assert sample_tree.lca(3, 5) == 0
        assert sample_tree.lca(2, 5) == 2

    def test_path_between_nodes(self, sample_tree):
        assert sample_tree.path(3, 4) == [3, 1, 4]
        assert sample_tree.path(4, 5) == [4, 1, 0, 2, 5]
        assert sample_tree.path(3, 3) == [3]

    def test_tree_distance(self, sample_tree):
        assert sample_tree.tree_distance(3, 4) == pytest.approx(2.0)
        assert sample_tree.tree_distance(4, 5) == pytest.approx(6.5)
        assert sample_tree.tree_distance(0, 0) == 0.0

    def test_next_hop(self, sample_tree):
        assert sample_tree.next_hop(0, 5) == 2
        assert sample_tree.next_hop(3, 5) == 1
        assert sample_tree.next_hop(1, 4) == 4
        with pytest.raises(ValidationError):
            sample_tree.next_hop(3, 3)

    def test_tree_neighbors(self, sample_tree):
        assert sample_tree.tree_neighbors(1) == [(0, 1.0), (3, 1.5), (4, 0.5)]
        assert sample_tree.tree_neighbors(0) == [(1, 1.0), (2, 2.0)]


def _reference_structure(root, parent, weight):
    """Node-by-node depths, hop depths, preorder intervals and subtree sizes.

    The iterative DFS visits children in ascending id order and sums depths
    from the root down; the array-built :class:`Tree` must agree exactly.
    """
    children = {}
    for child, par in parent.items():
        children.setdefault(par, []).append(child)
    depth, hops = {root: 0.0}, {root: 0}
    dfs_in, dfs_out, size = {}, {}, {}
    counter = 0
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        kids = sorted(children.get(node, []))
        if done:
            size[node] = 1 + sum(size[c] for c in kids)
            dfs_out[node] = dfs_in[node] + size[node] - 1
            continue
        dfs_in[node] = counter
        counter += 1
        stack.append((node, True))
        for c in reversed(kids):
            depth[c] = depth[node] + weight[c]
            hops[c] = hops[node] + 1
            stack.append((c, False))
    return depth, hops, dfs_in, dfs_out, size


class TestArrayBuildMatchesReference:
    """The per-level array build ≡ a node-by-node DFS (exact, floats included)."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shape", ["random", "path", "star", "broom"])
    def test_structure_matches_node_by_node_dfs(self, seed, shape):
        import numpy as np

        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 120))
        ids = rng.permutation(10 * m)[:m].tolist()   # sparse, unsorted ids
        root = ids[0]
        parent = {}
        for pos in range(1, m):
            if shape == "path":
                up = pos - 1
            elif shape == "star":
                up = 0
            elif shape == "broom":
                up = pos - 1 if pos < m // 2 else int(rng.integers(0, pos))
            else:
                up = int(rng.integers(0, pos))
            parent[ids[pos]] = ids[up]
        weight = {c: float(rng.uniform(0.1, 3.0)) for c in parent}
        tree = Tree(root=root, parent=parent, edge_weight=weight)
        depth, hops, dfs_in, dfs_out, size = _reference_structure(root, parent, weight)
        assert tree.nodes == sorted(ids)
        assert tree.depth == depth          # exact: same float summation order
        assert tree.hop_depth == hops
        assert tree.dfs_in == dfs_in
        assert tree.dfs_out == dfs_out
        assert tree.subtree_size == size
        assert tree.children == {v: sorted(c for c, p in parent.items() if p == v)
                                 for v in ids}
        slots = tree._forwarding_slots
        assert slots.node_of_slot.tolist() == sorted(ids, key=dfs_in.__getitem__)
        assert slots.parent_local.tolist() == [
            dfs_in[parent[v]] if v in parent else -1
            for v in slots.node_of_slot.tolist()]
        again = Tree.from_arrays(root, list(parent), [parent[c] for c in parent],
                                 [weight[c] for c in parent])
        assert again.dfs_in == dfs_in and again.depth == depth
        assert again.parent == parent and again.edge_weight == weight

    def test_from_arrays_rejects_a_child_listed_twice(self):
        with pytest.raises(ValidationError):
            Tree.from_arrays(0, [1, 1], [0, 0], [1.0, 2.0])

    def test_from_arrays_rejects_the_root_as_a_child(self):
        with pytest.raises(ValidationError):
            Tree.from_arrays(0, [0, 1], [1, 0], [1.0, 1.0])

    def test_cycle_away_from_the_root_rejected(self):
        with pytest.raises(ValidationError):
            Tree(root=0, parent={1: 2, 2: 1}, edge_weight={1: 1.0, 2: 1.0})
