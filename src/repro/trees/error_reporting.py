"""Name-independent error-reporting tree routing with O(rad) lookups (Lemma 7).

Lemma 7 of the paper (inherited from Abraham–Gavoille–Malkhi, DISC 2004 [3]):
for every tree ``T`` with ``m`` nodes taken from an ``n``-node graph there is
a name-independent tree routing scheme that routes on paths of length at most
``4 rad(T) + 2k maxE(T)``, uses ``O(k n^{1/k} log n)`` bits per node and
``O(log^2 n)``-bit headers; looking up a name that is *not* in the tree also
costs at most one such closed path before a negative answer returns to the
source.

The cited construction is not spelled out in this paper, so the reproduction
implements a hash-distributed dictionary with the same interface and the same
cost shape (README, "Deviations from the paper", item 4):

* every global name hashes to a *responsible* tree node — the node whose DFS
  index equals ``hash(name) mod m``;
* the responsible node stores, for every tree node ``v`` in its bucket, the
  pair (name of ``v``, DFS index of ``v``);
* each node keeps a DFS-interval routing table so that "walk to the node with
  DFS index p" needs no extra information;
* a lookup starting at any tree node walks: source → root → responsible node
  → destination, i.e. at most ``4 rad(T)`` in tree distance (each leg is a
  tree path of length ≤ 2 rad, and the first two legs are root-bound so ≤ rad
  each); a miss walks back to the source, again within the same bound.

The per-node space is ``O(deg(v) log m)`` (interval table) plus the expected
``O(1)`` (w.h.p. ``O(log n)``) dictionary bucket — the degree term is the
substitution's deviation from the paper's bound and is reported separately in
the bit budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.trees import Tree
from repro.hashing.universal import BucketHash, fold_names, horner_mod_p_rows
from repro.trees.interval_routing import IntervalTreeRouting
from repro.utils.bitsize import BitBudget, bits_for_count
from repro.utils.validation import require


@dataclass
class DictionaryLookupResult:
    """Outcome of one lookup through the distributed dictionary."""

    found: bool
    path: List[int] = field(default_factory=list)
    cost: float = 0.0
    destination: Optional[int] = None


class DictionaryTreeRouting:
    """Lemma 7 structure for one (cover) tree."""

    def __init__(
        self,
        tree: Tree,
        names: Mapping[int, Hashable],
        name_bits: int = 64,
        seed=None,
        folds: Optional[np.ndarray] = None,
    ) -> None:
        member_names = tree.member_names(names)
        self.tree = tree
        self.m = tree.size
        self.names = dict(zip(tree.nodes, member_names))
        self.name_to_node = dict(zip(member_names, tree.nodes))
        require(len(self.name_to_node) == self.m, "tree node names must be unique")
        self.name_bits = int(name_bits)

        self.interval = IntervalTreeRouting(tree)
        self.bucket_hash = BucketHash(self.m, seed=seed)
        self._dfs_order = tree.nodes_by_dfs()

        # responsible node (by DFS index) -> {name: dfs label of the named node}
        if folds is None:
            folds = fold_names(member_names)
        responsible = tree.nodes_by_dfs_array()[self.bucket_hash.buckets(folds)]
        self.buckets: Dict[int, Dict[Hashable, int]] = {v: {} for v in tree.nodes}
        for holder, name, label in zip(responsible.tolist(), member_names,
                                       tree.dfs_in_array().tolist()):
            self.buckets[holder][name] = label

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    def responsible_node(self, name: Hashable, fold: Optional[int] = None) -> int:
        """The tree node responsible for storing ``name``'s dictionary entry.

        ``fold`` is ``fold_name(name)`` when the caller has it already.
        """
        return self._dfs_order[self.bucket_hash.bucket(name, fold)]

    def max_bucket_entries(self) -> int:
        """Largest dictionary bucket (w.h.p. ``O(log n / log log n)``)."""
        return max((len(b) for b in self.buckets.values()), default=0)

    def contains_name(self, name: Hashable) -> bool:
        """Whether the tree contains a node with this global name."""
        return name in self.name_to_node

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #
    def table_budget(self, v: int) -> BitBudget:
        """Bit budget of node ``v``: interval table + hash function + bucket entries."""
        require(self.tree.contains(v), f"node {v} is not in the tree")
        b = BitBudget()
        b.merge(self.interval.table_budget(v), prefix="interval_")
        b.add("bucket_hash", self.bucket_hash.storage_bits())
        entry_bits = self.name_bits + bits_for_count(max(self.m - 1, 1))
        b.add("bucket_entries", entry_bits, count=len(self.buckets[v]))
        return b

    def table_bits(self, v: int) -> int:
        """Total bits stored at node ``v``."""
        return self.table_budget(v).total()

    def table_bits_list(self) -> List[int]:
        """``table_bits`` of every node (tree-node order) in one lean pass."""
        hash_bits = self.bucket_hash.storage_bits()
        entry_bits = self.name_bits + bits_for_count(max(self.m - 1, 1))
        interval_bits = self.interval.table_bits_list()
        return [ib + hash_bits + entry_bits * len(self.buckets[v])
                for v, ib in zip(self.tree.nodes, interval_bits)]

    def max_table_bits(self) -> int:
        """Largest per-node table in the tree."""
        return max((self.table_bits(v) for v in self.tree.nodes), default=0)

    def header_bits(self) -> int:
        """Header: destination name + a DFS label + a small state tag."""
        return self.name_bits + bits_for_count(max(self.m - 1, 1)) + 8

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def lookup(self, source: int, target_name: Hashable,
               fold: Optional[int] = None) -> DictionaryLookupResult:
        """Route from tree node ``source`` to the node named ``target_name``.

        The walk is source → root → responsible node → destination.  If the
        name is not stored (the destination is not in this tree) the walk
        returns to ``source`` and ``found`` is ``False`` — the error report.
        ``fold`` is ``fold_name(target_name)`` when the caller has it already.
        """
        require(self.tree.contains(source), f"source {source} is not in the tree")
        result = DictionaryLookupResult(found=False, path=[source], cost=0.0)

        # leg 1: climb to the root (the paper's dense strategy also starts at the root)
        self._walk_to_label(result, self.interval.label_of(self.tree.root))
        # leg 2: descend to the responsible node
        responsible = self.responsible_node(target_name, fold)
        self._walk_to_label(result, self.interval.label_of(responsible))
        # leg 3: the responsible node either knows the destination or reports a miss
        entry = self.buckets[responsible].get(target_name)
        if entry is None:
            # negative response: travel back to the source
            self._walk_to_label(result, self.interval.label_of(source))
            result.found = False
            return result
        self._walk_to_label(result, entry)
        result.found = True
        result.destination = self.interval.node_with_label(entry)
        return result

    def lookup_from_root(self, target_name: Hashable) -> DictionaryLookupResult:
        """Lookup starting at the root (used when the caller already routed there)."""
        return self.lookup(self.tree.root, target_name)

    def _walk_to_label(self, result: DictionaryLookupResult, label: int) -> None:
        current = result.path[-1]
        seg, cost = self.interval.walk(current, label)
        if seg and seg[0] == current:
            result.path.extend(seg[1:])
        else:
            result.path.extend(seg)
        result.cost += cost


class DictionaryLookupBank:
    """The Lemma 7 lookups of many dictionary trees, planned as arrays.

    Entry ``d`` stands for ``routings[d]``, whose tree occupies the slots
    from ``offsets[d]`` of a compiled
    :class:`~repro.routing.forwarding.TreeBank` (slot = offset + DFS-in
    number).  :meth:`waypoints` gives, for a whole batch, the nodes the
    walk of :meth:`DictionaryTreeRouting.lookup` heads for: each row
    hashes its destination with its own tree's bucket hash, and the
    responsible node's slot is the offset plus the bucket, because buckets
    are DFS-in numbers.  Only the hash coefficients and tree sizes are
    kept, so memory does not grow with the number of packets or names.
    """

    def __init__(self, routings: Sequence[DictionaryTreeRouting],
                 offsets: np.ndarray) -> None:
        self._offset = np.asarray(offsets, dtype=np.int64)
        self._m = np.asarray([r.m for r in routings], dtype=np.uint64)
        width = max((len(r.bucket_hash.coefficients) for r in routings),
                    default=1)
        self._coefficients = np.zeros((len(routings), width), dtype=np.uint64)
        for d, routing in enumerate(routings):
            coefficients = routing.bucket_hash.coefficients
            self._coefficients[d, :len(coefficients)] = coefficients

    def waypoints(self, index: np.ndarray, folds: np.ndarray,
                  source_slots: np.ndarray, target_slots: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, found)`` of one lookup per row.

        Row ``r`` looks up, in tree ``index[r]``, the destination whose name
        folds to ``folds[r]`` and which sits at ``target_slots[r]`` (``-1``
        when it is not a member) from the source at ``source_slots[r]``.
        ``targets`` is ``(R, 3)``: the root, the responsible node, then the
        destination on a hit or the source on a miss, all as bank slots.
        A member's name is always in its own bucket, so the lookup hits
        exactly when the destination is a member.
        """
        offset = self._offset[index]
        bucket = horner_mod_p_rows(self._coefficients[index], folds) \
            % self._m[index]
        found = target_slots >= 0
        targets = np.stack([offset, offset + bucket.astype(np.int64),
                            np.where(found, target_slots, source_slots)],
                           axis=1)
        return targets, found
