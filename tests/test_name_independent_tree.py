"""Tests for Lemma 4: name-independent error-reporting tree routing."""

import math

import pytest

from repro.core.analysis import lemma4_table_bits
from repro.graphs.generators import random_tree_graph
from repro.graphs.shortest_paths import shortest_path_tree
from repro.graphs.trees import Tree
from repro.trees.name_independent import NameIndependentTreeRouting


def build(m=50, k=2, seed=3):
    graph = random_tree_graph(m, seed=seed)
    tree = shortest_path_tree(graph, 0)
    names = {v: graph.name_of(v) for v in tree.nodes}
    return graph, tree, NameIndependentTreeRouting(tree, names, k=k, seed=seed)


@pytest.fixture(scope="module")
def setup_k2():
    return build(m=50, k=2, seed=3)


@pytest.fixture(scope="module")
def setup_k3():
    return build(m=60, k=3, seed=4)


class TestPrimaryNames:
    def test_root_has_empty_name(self, setup_k2):
        _, tree, routing = setup_k2
        assert routing.primary_name[tree.root] == ()

    def test_names_unique_and_lengths_bounded(self, setup_k2):
        _, tree, routing = setup_k2
        names = list(routing.primary_name.values())
        assert len(set(names)) == tree.size
        assert all(len(name) <= routing.max_digits for name in names)

    def test_closer_nodes_get_shorter_names(self, setup_k2):
        _, tree, routing = setup_k2
        ordered = tree.nodes_by_depth()
        lengths = [len(routing.primary_name[v]) for v in ordered]
        assert lengths == sorted(lengths)

    def test_level_capacity_respected(self, setup_k2):
        _, _, routing = setup_k2
        from collections import Counter
        by_len = Counter(len(p) for p in routing.primary_name.values())
        for length, count in by_len.items():
            if length > 0:
                assert count <= routing.sigma ** length

    def test_digits_of_and_required_bound(self, setup_k2):
        _, tree, routing = setup_k2
        assert routing.digits_of(tree.root) == 0
        deepest = max(tree.nodes, key=lambda v: routing.digits_of(v))
        assert routing.required_bound([deepest]) == routing.digits_of(deepest)
        assert routing.required_bound([]) == 1


class TestSearch:
    def test_unbounded_search_finds_every_node(self, setup_k2):
        graph, tree, routing = setup_k2
        for v in tree.nodes:
            result = routing.search_from_root(graph.name_of(v))
            assert result.found, f"node {v} not found"
            assert result.path[-1] == v
            assert result.destination == v

    def test_search_respects_stretch_bound(self, setup_k2):
        graph, tree, routing = setup_k2
        bound_factor = 2 * routing.max_digits - 1
        for v in tree.nodes:
            if v == tree.root:
                continue
            result = routing.search_from_root(graph.name_of(v))
            assert result.cost <= bound_factor * tree.depth[v] + 1e-9

    def test_search_for_missing_name_reports_error_to_root(self, setup_k2):
        _, tree, routing = setup_k2
        result = routing.search_from_root("definitely-not-a-node")
        assert not result.found
        assert result.path[0] == tree.root and result.path[-1] == tree.root

    def test_bounded_search_finds_shallow_nodes(self, setup_k3):
        graph, tree, routing = setup_k3
        shallow = [v for v in tree.nodes if routing.digits_of(v) <= 1]
        for v in shallow:
            result = routing.search_from_root(graph.name_of(v), j_bound=1)
            assert result.found

    def test_bounded_search_misses_deep_nodes_and_returns(self, setup_k3):
        graph, tree, routing = setup_k3
        deep = [v for v in tree.nodes if routing.digits_of(v) >= 2]
        if not deep:
            pytest.skip("tree too small to have deep nodes")
        missed = 0
        for v in deep:
            result = routing.search_from_root(graph.name_of(v), j_bound=1)
            if not result.found:
                missed += 1
                assert result.path[-1] == tree.root
        assert missed == len(deep)

    def test_bounded_search_error_cost_bound(self, setup_k3):
        # Lemma 4 (b): a failed j-bounded search costs at most
        # (2j-2) * max depth of the nodes with < j digits.
        graph, tree, routing = setup_k3
        j = 2
        eligible = [v for v in tree.nodes if routing.digits_of(v) <= j - 1]
        max_depth = max(tree.depth[v] for v in eligible)
        deep = [v for v in tree.nodes if routing.digits_of(v) > j]
        for v in deep[:20]:
            result = routing.search_from_root(graph.name_of(v), j_bound=j)
            if not result.found:
                assert result.cost <= (2 * j) * max_depth + 1e-9

    def test_search_walk_uses_tree_edges(self, setup_k2):
        graph, tree, routing = setup_k2
        v = tree.nodes[-1]
        result = routing.search_from_root(graph.name_of(v))
        for a, b in zip(result.path, result.path[1:]):
            if a != b:
                assert tree.parent.get(a) == b or tree.parent.get(b) == a


class TestStorage:
    def test_table_bits_within_lemma4_shape(self, setup_k2):
        _, tree, routing = setup_k2
        bound = lemma4_table_bits(tree.size, routing.k, constant=200.0)
        assert routing.max_table_bits() <= bound

    def test_dictionary_load_reasonable(self, setup_k2):
        _, tree, routing = setup_k2
        limit = routing.sigma * (math.log2(tree.size) + 1) * 4
        assert routing.max_dictionary_entries() <= limit

    def test_budget_contains_expected_fields(self, setup_k2):
        _, tree, routing = setup_k2
        breakdown = routing.table_budget(tree.root).breakdown()
        assert "hash_function" in breakdown
        assert "dictionary" in breakdown
        assert any(key.startswith("mu_") for key in breakdown)

    def test_header_bits_polylogarithmic(self, setup_k2):
        _, tree, routing = setup_k2
        assert routing.header_bits() <= 64 + 20 * (math.log2(tree.size) + 1) ** 2


class TestEdgeCases:
    def test_single_node_tree(self):
        tree = Tree.single_node(0)
        routing = NameIndependentTreeRouting(tree, {0: "only"}, k=2, seed=0)
        result = routing.search_from_root("only")
        assert result.found and result.cost == 0.0
        missing = routing.search_from_root("other")
        assert not missing.found

    def test_duplicate_names_rejected(self):
        graph = random_tree_graph(10, seed=1)
        tree = shortest_path_tree(graph, 0)
        names = {v: "same" for v in tree.nodes}
        with pytest.raises(Exception):
            NameIndependentTreeRouting(tree, names, k=2)

    def test_missing_name_rejected(self):
        graph = random_tree_graph(10, seed=1)
        tree = shortest_path_tree(graph, 0)
        names = {v: graph.name_of(v) for v in tree.nodes if v != tree.nodes[-1]}
        with pytest.raises(Exception):
            NameIndependentTreeRouting(tree, names, k=2)

    def test_contains_name(self, setup_k2):
        graph, tree, routing = setup_k2
        assert routing.contains_name(graph.name_of(tree.root))
        assert not routing.contains_name("nope")


def _reference_tables(routing):
    """Lemma 4 names, trie and dictionaries built node by node (§3.1).

    Primary names go out in depth order level by level; the trie links a
    name to its one-digit extensions; a node with a ``j``-digit name stores
    every node of ``V_{j+1}`` whose hash prefix equals that name.
    """
    sigma, tree = routing.sigma, routing.tree
    primary, node_of = {}, {}
    level, capacity, index = 0, 1, 0
    for node in tree.nodes_by_depth():
        if index >= capacity:
            level += 1
            capacity = sigma ** level if sigma > 1 else 1
            index = 0
        digits, value = [0] * level, index
        for pos in range(level - 1, -1, -1):
            digits[pos] = value % sigma if sigma > 1 else 0
            value //= sigma
        primary[node] = tuple(digits)
        node_of[tuple(digits)] = node
        index += 1
    depth = max(len(p) for p in primary.values())
    trie = {v: {} for v in tree.nodes}
    for node, name in primary.items():
        if name:
            trie[node_of[name[:-1]]][name[-1]] = node
    hashes = {v: routing.digit_hash.digits(routing.names[v]) for v in tree.nodes}
    dictionary = {v: {} for v in tree.nodes}
    for target in tree.nodes:
        for j in range(max(len(primary[target]) - 1, 0), depth + 1):
            holder = node_of.get(hashes[target][:j])
            if holder is not None:
                dictionary[holder][routing.names[target]] = target
    return primary, hashes, trie, dictionary


class TestArrayTablesMatchReference:
    """The rank-arithmetic array build ≡ the node-by-node construction."""

    @pytest.mark.parametrize("m,k,sigma,seed", [
        (50, 2, None, 3), (60, 3, None, 4), (90, 3, 3, 5), (40, 4, 2, 6),
        (17, 2, 1, 7), (1, 2, None, 8), (2, 2, None, 9), (130, 2, 11, 10)])
    def test_tables_match_node_by_node_build(self, m, k, sigma, seed):
        graph = random_tree_graph(m, seed=seed) if m > 1 else None
        tree = shortest_path_tree(graph, 0) if graph else Tree.single_node(0)
        names = {v: (graph.name_of(v) if graph else "solo") for v in tree.nodes}
        routing = NameIndependentTreeRouting(tree, names, k=k, sigma=sigma,
                                             seed=seed)
        primary, hashes, trie, dictionary = _reference_tables(routing)
        assert list(routing.primary_name.items()) == list(primary.items())
        assert routing.hash_digits == hashes
        assert [list(d.items()) for d in routing.trie_children.values()] == \
            [list(d.items()) for d in trie.values()]
        assert [list(d.items()) for d in routing.dictionary.values()] == \
            [list(d.items()) for d in dictionary.values()]
        assert routing.max_digits == max(len(p) for p in primary.values())
        assert [routing.digits_of(v) for v in tree.nodes] == \
            [len(primary[v]) for v in tree.nodes]
        assert routing.table_bits_list() == [routing.table_bits(v)
                                             for v in tree.nodes]
        assert routing.max_dictionary_entries() == \
            max(len(d) for d in dictionary.values())
