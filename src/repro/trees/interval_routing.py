"""DFS-interval tree routing (stretch 1).

The oldest labeled tree-routing idea: label every node with its DFS-in
number; every node stores, for each child, the DFS interval of that child's
subtree together with the local port leading to it, plus the port to its
parent.  Routing toward a destination label ``t``:

* if ``t`` equals the current node's DFS-in number — arrived;
* if ``t`` falls inside some child's interval — forward on that child's port;
* otherwise — forward to the parent.

The route follows the unique tree path, so the stretch is exactly 1.  The
per-node space is ``O(deg(v) log m)`` bits, which is *not* compact for
high-degree nodes — that is exactly the weakness Lemma 5 removes — but the
scheme is a convenient addressing layer ("route to the node whose DFS index
is p") used by the Lemma 7 dictionary construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.trees import Tree
from repro.utils.bitsize import (BitBudget, bits_for_count, bits_for_id,
                                 bits_for_id_array)
from repro.utils.validation import require


class IntervalTreeRouting:
    """Interval routing tables for one rooted tree."""

    def __init__(self, tree: Tree) -> None:
        self.tree = tree
        self.m = tree.size
        # dfs_index -> graph node (the inverse of the label map)
        self._by_dfs: Dict[int, int] = dict(enumerate(tree.nodes_by_dfs()))

    # -- labels ---------------------------------------------------------- #
    def label_of(self, v: int) -> int:
        """The routing label of tree node ``v`` (its DFS-in number)."""
        require(self.tree.contains(v), f"node {v} is not in the tree")
        return self.tree.dfs_in[v]

    def node_with_label(self, label: int) -> int:
        """The tree node whose DFS-in number is ``label``."""
        require(label in self._by_dfs, f"no tree node has DFS index {label}")
        return self._by_dfs[label]

    def label_bits(self) -> int:
        """Bits per label."""
        return bits_for_count(max(self.m - 1, 1))

    # -- per-node storage -------------------------------------------------- #
    def table_bits(self, v: int) -> int:
        """Declared table size of tree node ``v``."""
        require(self.tree.contains(v), f"node {v} is not in the tree")
        budget = self.table_budget(v)
        return budget.total()

    def table_budget(self, v: int) -> BitBudget:
        """Detailed bit budget of node ``v``'s interval table."""
        b = BitBudget()
        idbits = bits_for_count(max(self.m - 1, 1))
        degree = len(self.tree.children[v]) + (0 if v == self.tree.root else 1)
        portbits = bits_for_id(max(degree, 1))
        b.add("own_interval", 2 * idbits)
        if v != self.tree.root:
            b.add("parent_port", portbits)
        b.add("child_intervals", (2 * idbits + portbits), count=len(self.tree.children[v]))
        return b

    def table_bits_list(self) -> List[int]:
        """``table_bits`` of every node (tree-node order) in one lean pass.

        Same integers as :meth:`table_bits`, but computed as plain arithmetic
        without a :class:`BitBudget` per node — construction-time accounting
        charges whole trees at once.
        """
        idbits = bits_for_count(max(self.m - 1, 1))
        tree = self.tree
        num_children = tree.child_count_array()
        not_root = (tree.nodes_array != tree.root).astype(np.int64)
        portbits = bits_for_id_array(np.maximum(num_children + not_root, 1))
        return (2 * idbits + num_children * (2 * idbits + portbits)
                + not_root * portbits).tolist()

    # -- routing ----------------------------------------------------------- #
    def next_hop(self, current: int, target_label: int) -> Optional[int]:
        """Next tree node on the way to the node labeled ``target_label``.

        Returns ``None`` when ``current`` already is the destination.
        """
        require(self.tree.contains(current), f"node {current} is not in the tree")
        t_in = target_label
        c_in = self.tree.dfs_in[current]
        c_out = self.tree.dfs_out[current]
        if t_in == c_in:
            return None
        if c_in <= t_in <= c_out:
            for child in self.tree.children[current]:
                if self.tree.dfs_in[child] <= t_in <= self.tree.dfs_out[child]:
                    return child
            raise RuntimeError(
                f"inconsistent intervals: {t_in} inside node {current} but no child matches")
        require(current != self.tree.root,
                f"target label {t_in} is outside the tree rooted at {self.tree.root}")
        return self.tree.parent[current]

    def walk(self, source: int, target_label: int) -> Tuple[List[int], float]:
        """Full walk (node sequence, weighted cost) from ``source`` to the label."""
        path = [source]
        cost = 0.0
        current = source
        for _ in range(2 * self.m + 1):
            nxt = self.next_hop(current, target_label)
            if nxt is None:
                return path, cost
            cost += self._edge_weight(current, nxt)
            path.append(nxt)
            current = nxt
        raise RuntimeError("interval routing walk did not terminate")

    def _edge_weight(self, a: int, b: int) -> float:
        if self.tree.parent.get(a) == b:
            return self.tree.edge_weight[a]
        if self.tree.parent.get(b) == a:
            return self.tree.edge_weight[b]
        raise RuntimeError(f"({a}, {b}) is not a tree edge")
