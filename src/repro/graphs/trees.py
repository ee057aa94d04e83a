"""Rooted weighted trees.

All tree-routing schemes (Lemmas 4, 5 and 7, plus the cover trees of
Lemma 6) operate on a :class:`Tree`: a rooted, weighted tree whose node set
is a subset of a host graph's nodes.  The class exposes the structural
queries those schemes need — DFS intervals, subtree sizes, depths (weighted
distance from the root along tree edges), distance-from-root orderings,
radius, and heaviest edge — plus tree-path queries used by the simulator to
verify that a routing walk actually followed tree edges.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import ValidationError, require


class TreeSlotArrays:
    """Per-tree compiled slot arrays (``slot = DFS-in number``).

    Assembled when the :class:`Tree` is built so that
    :meth:`repro.routing.forwarding.TreeBank.freeze` finds every tree's local
    compilation ready — the bank's global assembly is then pure vectorized
    offset arithmetic with no intermediate dict pass.
    """

    __slots__ = ("size", "node_of_slot", "dfs_out", "parent_local")

    def __init__(self, node_of_slot: np.ndarray, dfs_out: np.ndarray,
                 parent_local: np.ndarray) -> None:
        self.size = int(node_of_slot.size)
        self.node_of_slot = node_of_slot
        self.dfs_out = dfs_out
        self.parent_local = parent_local


class Tree:
    """A rooted weighted tree over (a subset of) graph node indices.

    Parameters
    ----------
    root:
        Graph index of the root.
    parent:
        Mapping ``child -> parent`` over graph indices (the root must not
        appear as a key).
    edge_weight:
        Mapping ``child -> weight of (child, parent(child))``.

    The structure is computed on arrays indexed by *local* position (the
    rank of a node in the sorted :attr:`nodes` list): one top-down pass per
    hop level gives depths and hop depths, one bottom-up pass per level
    subtree sizes, and one more top-down pass DFS-in numbers, so no Python
    code runs per node.  The dict views (``depth``, ``dfs_in``,
    ``children``, ...) are built from the arrays on first access; only
    :attr:`index` is built eagerly.
    :meth:`from_arrays` builds a tree straight from edge arrays.
    """

    def __init__(
        self,
        root: int,
        parent: Dict[int, int],
        edge_weight: Dict[int, float],
    ) -> None:
        require(root not in parent, "the root cannot have a parent")
        require(parent.keys() == edge_weight.keys(),
                "every child needs exactly one edge weight")
        count = len(parent)
        self._build(root,
                    np.fromiter(parent.keys(), dtype=np.int64, count=count),
                    np.fromiter(parent.values(), dtype=np.int64, count=count),
                    np.fromiter(map(edge_weight.__getitem__, parent),
                                dtype=np.float64, count=count))

    @classmethod
    def from_arrays(cls, root: int, children: np.ndarray, parents: np.ndarray,
                    weights: np.ndarray) -> "Tree":
        """Build from parallel edge arrays ``parents[i] -> children[i]``.

        ``weights[i]`` is the weight of that edge.  Children must be
        distinct and must not include the root.
        """
        tree = cls.__new__(cls)
        tree._build(root, np.asarray(children, dtype=np.int64),
                    np.asarray(parents, dtype=np.int64),
                    np.asarray(weights, dtype=np.float64))
        return tree

    # ------------------------------------------------------------------ #
    # construction-time computations
    # ------------------------------------------------------------------ #
    def _build(self, root: int, children: np.ndarray, parents: np.ndarray,
               weights: np.ndarray) -> None:
        require(weights.size == 0 or bool(weights.min() > 0),
                "tree edge weights must be positive")
        self.root = int(root)
        #: the edges in the caller's order, for the ``parent`` and
        #: ``edge_weight`` dict views
        self._edges = (children, parents, weights)
        nodes = np.sort(np.concatenate(
            (np.array([self.root], dtype=np.int64), children)))
        m = nodes.size
        require(not bool((nodes[1:] == nodes[:-1]).any()),
                "every non-root node needs exactly one parent")
        # a parent outside {root} + children has no parent edge of its own,
        # so it cannot be connected to the root
        parent_pos = np.minimum(np.searchsorted(nodes, parents), m - 1)
        require(bool((nodes[parent_pos] == parents).all()),
                "tree is not connected to its root")
        self.nodes_array = nodes
        self.nodes: List[int] = nodes.tolist()
        self.size = m
        #: graph index -> local position; eager because :meth:`contains` is
        #: a per-packet query of every scheme's scalar ``route()``
        self.index: Dict[int, int] = dict(zip(self.nodes, range(m)))

        child_local = np.searchsorted(nodes, children)
        parent_local = np.full(m, -1, dtype=np.int64)
        parent_local[child_local] = parent_pos
        weight = np.zeros(m, dtype=np.float64)
        weight[child_local] = weights
        root_local = int(np.searchsorted(nodes, self.root))

        # children grouped by parent, ascending node id inside a group
        nonroot = np.flatnonzero(parent_local >= 0)
        by_parent = nonroot[np.argsort(parent_local[nonroot], kind="stable")]
        child_count = np.bincount(parent_local[nonroot], minlength=m)
        child_start = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(child_count, out=child_start[1:])
        self._by_parent = by_parent
        self._child_start = child_start

        # top-down, one hop level at a time: depth[c] = depth[p] + w(c) in
        # the same float order as a walk down from the root
        depth = np.zeros(m, dtype=np.float64)
        hop = np.zeros(m, dtype=np.int64)
        levels = [np.array([root_local], dtype=np.int64)]
        reached = 1
        while True:
            frontier = levels[-1]
            counts = child_count[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            first = child_start[frontier]
            gather = np.repeat(first - (np.cumsum(counts) - counts), counts) \
                + np.arange(total)
            level = by_parent[gather]
            depth[level] = depth[parent_local[level]] + weight[level]
            hop[level] = len(levels)
            levels.append(level)
            reached += total
        # every non-root node has exactly one parent edge, so reaching all
        # ``size`` nodes from the root rules out both cycles and disconnection
        require(reached == m, "tree is not connected to its root")
        self._depth = depth
        self._hop = hop

        # bottom-up subtree sizes, then DFS-in numbers top-down: a child's
        # preorder slot follows its parent's and every earlier sibling's
        # subtree (children are visited in ascending node id)
        size = np.ones(m, dtype=np.int64)
        for level in reversed(levels[1:]):
            np.add.at(size, parent_local[level], size[level])
        sizes = size[by_parent]
        before = np.cumsum(sizes) - sizes
        offset = np.zeros(m, dtype=np.int64)
        offset[by_parent] = before - before[child_start[parent_local[by_parent]]]
        dfs_in = np.zeros(m, dtype=np.int64)
        for level in levels[1:]:
            dfs_in[level] = dfs_in[parent_local[level]] + 1 + offset[level]
        self._size = size
        self._dfs_in = dfs_in

        node_of_slot = np.empty(m, dtype=np.int64)
        node_of_slot[dfs_in] = nodes
        slot_dfs_out = np.empty(m, dtype=np.int64)
        slot_dfs_out[dfs_in] = dfs_in + size - 1
        slot_parent = np.full(m, -1, dtype=np.int64)
        slot_parent[dfs_in[nonroot]] = dfs_in[parent_local[nonroot]]
        self._forwarding_slots = TreeSlotArrays(node_of_slot, slot_dfs_out,
                                                slot_parent)

    # ------------------------------------------------------------------ #
    # dict views (built on first access)
    # ------------------------------------------------------------------ #
    @cached_property
    def parent(self) -> Dict[int, int]:
        """``child -> parent`` over graph indices."""
        children, parents, _ = self._edges
        return dict(zip(children.tolist(), parents.tolist()))

    @cached_property
    def edge_weight(self) -> Dict[int, float]:
        """``child -> weight of (child, parent(child))``."""
        children, _, weights = self._edges
        return dict(zip(children.tolist(), weights.tolist()))

    @cached_property
    def children(self) -> Dict[int, List[int]]:
        """Node -> its children in ascending id order."""
        kids = self.nodes_array[self._by_parent].tolist()
        bounds = self._child_start.tolist()
        return {v: kids[bounds[i]:bounds[i + 1]] for i, v in enumerate(self.nodes)}

    @cached_property
    def depth(self) -> Dict[int, float]:
        """Node -> weighted distance from the root along tree edges."""
        return dict(zip(self.nodes, self._depth.tolist()))

    @cached_property
    def hop_depth(self) -> Dict[int, int]:
        """Node -> number of tree edges to the root."""
        return dict(zip(self.nodes, self._hop.tolist()))

    @cached_property
    def dfs_in(self) -> Dict[int, int]:
        """Node -> DFS preorder number (children in ascending id order)."""
        return dict(zip(self.nodes, self._dfs_in.tolist()))

    @cached_property
    def dfs_out(self) -> Dict[int, int]:
        """Node -> largest DFS-in number inside its subtree."""
        return dict(zip(self.nodes, (self._dfs_in + self._size - 1).tolist()))

    @cached_property
    def subtree_size(self) -> Dict[int, int]:
        """Node -> number of nodes in its subtree."""
        return dict(zip(self.nodes, self._size.tolist()))

    def member_names(self, names: Mapping[int, Hashable]) -> List[Hashable]:
        """``names[v]`` of every tree node, in :attr:`nodes` order.

        ``names`` is a dict or any sequence indexed by graph node, such as
        ``graph.names_view()``.
        """
        try:
            return list(map(names.__getitem__, self.nodes))
        except KeyError as missing:
            raise ValidationError(
                f"missing name for tree node {missing.args[0]}") from None

    # ------------------------------------------------------------------ #
    # array views (tree-node order)
    # ------------------------------------------------------------------ #
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(children, parents, weights)`` of every edge, in construction order."""
        return self._edges

    def depth_array(self) -> np.ndarray:
        """Depths in :attr:`nodes` order."""
        return self._depth

    def dfs_in_array(self) -> np.ndarray:
        """DFS-in numbers in :attr:`nodes` order."""
        return self._dfs_in

    def nodes_by_dfs_array(self) -> np.ndarray:
        """Node of every DFS-in number (slot order)."""
        return self._forwarding_slots.node_of_slot

    def child_count_array(self) -> np.ndarray:
        """Number of children of every node, in :attr:`nodes` order."""
        return np.diff(self._child_start)

    def depth_order(self) -> np.ndarray:
        """Local positions sorted by (depth, node index); see :meth:`nodes_by_depth`."""
        return np.lexsort((self.nodes_array, self._depth))

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    def contains(self, v: int) -> bool:
        """Whether graph node ``v`` belongs to the tree."""
        return v in self.index

    def radius(self) -> float:
        """Weighted eccentricity of the root: ``max_v depth(v)``."""
        return float(self._depth.max())

    def max_edge(self) -> float:
        """Heaviest tree edge weight (0 for a single-node tree)."""
        return float(self._edges[2].max(initial=0.0))

    def total_weight(self) -> float:
        """Sum of tree edge weights."""
        return float(sum(self.edge_weight.values()))

    def nodes_by_depth(self) -> List[int]:
        """Nodes sorted by (weighted distance from root, node index).

        This is the ordering Lemma 4 uses to assign primary names.
        """
        return self.nodes_array[self.depth_order()].tolist()

    def nodes_by_dfs(self) -> List[int]:
        """Nodes sorted by DFS-in number."""
        return self.nodes_by_dfs_array().tolist()

    def is_ancestor(self, a: int, b: int) -> bool:
        """Whether ``a`` is an ancestor of ``b`` (every node is its own ancestor)."""
        return self.dfs_in[a] <= self.dfs_in[b] <= self.dfs_out[a]

    def child_toward(self, a: int, b: int) -> Optional[int]:
        """The child of ``a`` whose subtree contains ``b`` (None if ``a==b`` or unrelated)."""
        if a == b or not self.is_ancestor(a, b):
            return None
        for c in self.children[a]:
            if self.is_ancestor(c, b):
                return c
        return None

    def path_to_root(self, v: int) -> List[int]:
        """The node sequence from ``v`` up to the root (inclusive)."""
        out = [v]
        while out[-1] != self.root:
            out.append(self.parent[out[-1]])
        return out

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v``."""
        ancestors = set(self.path_to_root(u))
        x = v
        while x not in ancestors:
            x = self.parent[x]
        return x

    def path(self, u: int, v: int) -> List[int]:
        """The unique tree path from ``u`` to ``v`` (inclusive)."""
        a = self.lca(u, v)
        up = []
        x = u
        while x != a:
            up.append(x)
            x = self.parent[x]
        down = []
        x = v
        while x != a:
            down.append(x)
            x = self.parent[x]
        return up + [a] + list(reversed(down))

    def tree_distance(self, u: int, v: int) -> float:
        """Weighted length of the tree path between ``u`` and ``v``."""
        a = self.lca(u, v)
        return self.depth[u] + self.depth[v] - 2.0 * self.depth[a]

    def next_hop(self, u: int, v: int) -> int:
        """The tree neighbor of ``u`` on the tree path toward ``v``."""
        require(u != v, "next_hop requires distinct endpoints")
        if self.is_ancestor(u, v):
            child = self.child_toward(u, v)
            assert child is not None
            return child
        return self.parent[u]

    def tree_neighbors(self, u: int) -> List[Tuple[int, float]]:
        """Tree-adjacent nodes of ``u`` with edge weights (parent first)."""
        out: List[Tuple[int, float]] = []
        if u != self.root:
            out.append((self.parent[u], self.edge_weight[u]))
        for c in self.children[u]:
            out.append((c, self.edge_weight[c]))
        return out

    # ------------------------------------------------------------------ #
    # builders
    # ------------------------------------------------------------------ #
    @classmethod
    def single_node(cls, v: int) -> "Tree":
        """A tree containing only node ``v``."""
        return cls(root=v, parent={}, edge_weight={})

    @classmethod
    def from_parent_list(
        cls, root: int, parents: Sequence[int], weights: Sequence[float]
    ) -> "Tree":
        """Build from dense arrays ``parents[v]``/``weights[v]`` (-1 for non-members)."""
        parents = np.asarray(parents, dtype=np.int64)
        members = np.flatnonzero(parents >= 0)
        members = members[members != root]
        return cls.from_arrays(root, members, parents[members],
                               np.asarray(weights, dtype=np.float64)[members])

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree(root={self.root}, size={self.size}, radius={self.radius():.3g})"
