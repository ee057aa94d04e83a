"""Name-independent error-reporting tree routing (Lemma 4).

Lemma 4 of the paper (an enhancement of Laing's scheme [21]): for any
``k >= 1`` and any weighted rooted tree ``T`` there is a *name-independent*
tree routing scheme such that

1. each node stores ``O(k n^{1/k} log^2 n)`` bits;
2. the root can perform a ``j``-bounded search for a destination ``v``:
   (a) if ``v`` is among the ``n^{j/k}`` closest tree nodes to the root, the
   search reaches ``v`` with stretch ``2j - 1``;
   (b) otherwise a negative response returns to the root at cost at most
   ``(2j - 2) * max{ d(root, w) : w among the n^{(j-1)/k} closest }``.

Construction (following §3.1 of the paper):

* nodes are sorted by distance from the root and given **primary names** —
  digit strings over ``Sigma = {0..sigma-1}``: the root gets the empty word,
  the next ``sigma`` nodes one-digit names, the next ``sigma^2`` two-digit
  names, and so on (``V_j`` = nodes whose primary name has at most ``j``
  digits);
* every node also has a **hash name** ``h(name) in Sigma^L`` drawn from a
  ``Theta(log n)``-wise independent family;
* a node with primary name ``(x_1..x_j)`` stores (i) its Lemma 5 table, (ii)
  the Lemma 5 labels of its *trie children* — the nodes named
  ``(x_1..x_j, y)`` for each ``y`` — and (iii) a dictionary mapping the
  global name of every node ``v`` with at most ``j+1`` digits whose hash
  prefix equals ``(x_1..x_j)`` to ``v``'s Lemma 5 label;
* a ``j``-bounded search from the root walks the trie path determined by the
  destination's hash digits; as soon as some visited node's dictionary knows
  the destination's label the search routes to it, and if the budget ``j`` is
  exhausted the search walks back to the root and reports failure.

Deviation from the paper (README, "Deviations from the paper", item 1): the
dictionary is not truncated to the ``n^{1/k} log n`` closest matching nodes —
all matching nodes of ``V_{j+1}`` are stored, which guarantees searches never
miss; the w.h.p. load bound of the paper makes the two choices coincide on
all but pathological hash draws, and the measured dictionary sizes are
reported so the bound can be audited.

The build is array-native, one pass of whole-tree array operations per tree.
Primary names follow arithmetically from the depth rank: level ``l`` starts
at rank ``start[l] = sum_{i<l} sigma^i``, the trie parent of rank ``r`` on
level ``l`` is ``start[l-1] + (r - start[l]) // sigma``, and the dictionary
holder of target ``t`` at prefix length ``j`` is rank
``start[j] + base_sigma(h(t)[:j])`` when that rank exists.  Hash digits of
all members come from one batched polynomial evaluation over their folded
names.  The per-packet tables are an int-keyed trie dict
(``parent * sigma + digit``) and an int-keyed dict of dictionary entries
(``holder * stride + target``; ``name_to_node`` turns a name into its
target); the per-node views (:attr:`primary_name`,
:attr:`hash_digits`, :attr:`trie_children`, :attr:`dictionary`) are built
from the arrays on first access, with the same contents and insertion order
as a node-by-node construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.trees import Tree
from repro.hashing.universal import DigitHash, fold_names, horner_mod_p_rows
from repro.trees.compact_labeled import CompactTreeRouting
from repro.utils.bitsize import BitBudget, bits_for_count
from repro.utils.validation import require


@dataclass
class BoundedSearchResult:
    """Outcome of a ``j``-bounded search started at the tree root."""

    found: bool
    path: List[int] = field(default_factory=list)
    cost: float = 0.0
    rounds_used: int = 0
    destination: Optional[int] = None


class NameIndependentTreeRouting:
    """Lemma 4 structure for one rooted tree.

    Parameters
    ----------
    tree:
        The rooted weighted tree.
    names:
        Tree node (graph index) -> its arbitrary global name: a dict, or any
        sequence indexed by graph node such as ``graph.names_view()``.
    k:
        Trade-off parameter used for the underlying Lemma 5 tables.
    sigma:
        Alphabet size; defaults to ``ceil(m^{1/k})`` so that ``k`` digit
        levels suffice for all ``m`` nodes.
    name_bits:
        Bits charged for storing one global name in a dictionary entry.
    seed:
        Randomness for the hash family.
    folds:
        ``fold_name`` of every member's name in ``tree.nodes`` order (for
        graph names, ``graph.name_folds()[tree.nodes_array]``); folded here
        when omitted.
    """

    def __init__(
        self,
        tree: Tree,
        names: Mapping[int, Hashable],
        k: int = 2,
        sigma: Optional[int] = None,
        name_bits: int = 64,
        seed=None,
        folds: Optional[np.ndarray] = None,
    ) -> None:
        require(k >= 1, f"k must be >= 1, got {k}")
        member_names = tree.member_names(names)
        self.tree = tree
        self.k = int(k)
        self.m = tree.size
        self.names = dict(zip(tree.nodes, member_names))
        self.name_to_node = dict(zip(member_names, tree.nodes))
        require(len(self.name_to_node) == self.m, "tree node names must be unique")
        self.name_bits = int(name_bits)

        if sigma is None:
            sigma = int(math.ceil(self.m ** (1.0 / self.k))) if self.m > 1 else 1
        self.sigma = max(1, int(sigma))

        self.compact = CompactTreeRouting(tree, k=self.k)

        self._assign_primary_names()
        hash_length = max(self.max_digits, 1)
        independence = max(8, int(math.ceil(math.log2(max(self.m, 2)))) + 1)
        self.digit_hash = DigitHash(self.sigma, hash_length, independence=independence, seed=seed)

        if folds is None:
            folds = fold_names(member_names)
        self._build_tables(folds)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _assign_primary_names(self) -> None:
        """Digit-string names by increasing distance from the root, as ranks.

        Rank ``r`` (position in :meth:`Tree.nodes_by_depth`) lands on level
        ``l`` with ``start[l] <= r < start[l+1]``; its primary name is the
        ``l``-digit base-``sigma`` numeral of ``r - start[l]``.
        """
        m, sigma = self.m, self.sigma
        starts = [0]
        while starts[-1] < m:
            level = len(starts) - 1
            starts.append(starts[-1] + (sigma ** level if sigma > 1 else 1))
        self._start = np.asarray(starts, dtype=np.int64)
        ranks = np.arange(m, dtype=np.int64)
        self._rank_level = np.searchsorted(self._start, ranks, side="right") - 1
        self._rank_index = ranks - self._start[self._rank_level]
        #: rank -> local position in ``tree.nodes``
        self._local_of_rank = self.tree.depth_order()
        #: primary-name length (trie depth) in ``tree.nodes`` order
        self._level = np.empty(m, dtype=np.int64)
        self._level[self._local_of_rank] = self._rank_level
        self.max_digits = int(self._rank_level[-1])

    def _int_to_digits(self, value: int, length: int) -> Tuple[int, ...]:
        digits = [0] * length
        for pos in range(length - 1, -1, -1):
            digits[pos] = value % self.sigma if self.sigma > 1 else 0
            value //= max(self.sigma, 1)
        return tuple(digits)

    def _build_tables(self, folds: np.ndarray) -> None:
        m, sigma, depth = self.m, self.sigma, self.max_digits
        nodes = self.tree.nodes_array
        local_of_rank = self._local_of_rank
        node_of_rank = nodes[local_of_rank]

        # trie: rank r >= 1 hangs below start[l-1] + index // sigma under
        # its last digit index % sigma; the table is keyed by
        # parent * sigma + digit
        index = self._rank_index[1:]
        parent_rank = self._start[self._rank_level[1:] - 1] + index // sigma
        self._trie_child: Dict[int, int] = dict(zip(
            (node_of_rank[parent_rank] * sigma + index % sigma).tolist(),
            node_of_rank[1:].tolist()))
        self._trie_count = np.bincount(local_of_rank[parent_rank], minlength=m)

        # hash digits of every member's global name, one row per tree node
        self._hash_digits = self.digit_hash.digit_array(folds)

        # dictionary: target t (with d_t primary digits) is stored at the
        # holder of every prefix length j in [max(d_t - 1, 0), max_digits] —
        # the node whose primary name is h(t)[:j], i.e. rank
        # start[j] + base_sigma(h(t)[:j]) when that rank exists.  Row-major
        # nonzero order (targets in node order, j ascending) is the insertion
        # order of a node-by-node construction.  An entry is keyed by
        # holder * stride + target (both tree nodes): the holder stores the
        # target's name, and ``name_to_node`` turns a name into the target.
        prefix = np.zeros((m, depth + 1), dtype=np.int64)
        for j in range(1, depth + 1):
            prefix[:, j] = prefix[:, j - 1] * sigma + self._hash_digits[:, j - 1]
        holder_rank = self._start[:depth + 1][np.newaxis, :] + prefix
        first_j = np.maximum(self._level - 1, 0)
        valid = (np.arange(depth + 1)[np.newaxis, :] >= first_j[:, np.newaxis]) \
            & (holder_rank < m)
        target, j_of = np.nonzero(valid)
        holder = local_of_rank[holder_rank[target, j_of]]
        self._stride = int(nodes[-1]) + 1
        self._dict_keys = nodes[holder] * self._stride + nodes[target]
        # a dict of ints rather than a set: the cyclic GC never tracks it,
        # so full collections while traffic runs do not scan its entries
        self._dict_entry = dict.fromkeys(self._dict_keys.tolist())
        self._dict_count = np.bincount(holder, minlength=m)

    # ------------------------------------------------------------------ #
    # per-node views (built on first access)
    # ------------------------------------------------------------------ #
    @cached_property
    def primary_name(self) -> Dict[int, Tuple[int, ...]]:
        """Tree node -> its primary name, in depth-rank order."""
        return {node: self._int_to_digits(index, level)
                for node, index, level in zip(
                    self.tree.nodes_array[self._local_of_rank].tolist(),
                    self._rank_index.tolist(), self._rank_level.tolist())}

    @cached_property
    def hash_digits(self) -> Dict[int, Tuple[int, ...]]:
        """Tree node -> the hash digits ``h(name)`` of its global name."""
        return dict(zip(self.tree.nodes,
                        map(tuple, self._hash_digits.tolist())))

    @cached_property
    def trie_children(self) -> Dict[int, Dict[int, int]]:
        """Tree node -> {digit y: the node named (its primary name, y)}."""
        out: Dict[int, Dict[int, int]] = {v: {} for v in self.tree.nodes}
        for key, child in self._trie_child.items():
            out[key // self.sigma][key % self.sigma] = child
        return out

    @cached_property
    def dictionary(self) -> Dict[int, Dict[Hashable, int]]:
        """Tree node -> {global name: tree node} of the names it stores."""
        out: Dict[int, Dict[Hashable, int]] = {v: {} for v in self.tree.nodes}
        for holder, target in zip((self._dict_keys // self._stride).tolist(),
                                  (self._dict_keys % self._stride).tolist()):
            out[holder][self.names[target]] = target
        return out

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #
    def table_budget(self, v: int) -> BitBudget:
        """Bit budget of node ``v``: hash function + Lemma 5 table + labels + dictionary."""
        require(self.tree.contains(v), f"node {v} is not in the tree")
        local = self.tree.index[v]
        b = BitBudget()
        b.add("hash_function", self.digit_hash.storage_bits())
        b.merge(self.compact.table_budget(v), prefix="mu_")
        label_bits = self.compact.max_label_bits()
        digit_bits = bits_for_count(max(self.sigma - 1, 1))
        b.add("trie_child_labels", digit_bits + label_bits,
              count=int(self._trie_count[local]))
        b.add("dictionary", self.name_bits + label_bits,
              count=int(self._dict_count[local]))
        return b

    def table_bits(self, v: int) -> int:
        """Total bits stored at node ``v``."""
        return self.table_budget(v).total()

    def table_bits_list(self) -> List[int]:
        """``table_bits`` of every node (tree-node order) in one lean pass."""
        return self.table_bits_array().tolist()

    def table_bits_array(self) -> np.ndarray:
        """:meth:`table_bits` of every node in tree-node order, as one array."""
        label_bits = self.compact.max_label_bits()
        digit_bits = bits_for_count(max(self.sigma - 1, 1))
        return (self.digit_hash.storage_bits() + self.compact.table_bits_array()
                + self._trie_count * (digit_bits + label_bits)
                + self._dict_count * (self.name_bits + label_bits))

    def max_table_bits(self) -> int:
        """Largest per-node table."""
        return int(self.table_bits_array().max())

    def max_dictionary_entries(self) -> int:
        """Largest dictionary at any node (to audit the w.h.p. load bound)."""
        return int(self._dict_count.max())

    def header_bits(self) -> int:
        """Header: destination name + hash digits + a Lemma 5 label once learned."""
        digit_bits = bits_for_count(max(self.sigma - 1, 1))
        return (self.name_bits + self.max_digits * digit_bits
                + self.compact.max_label_bits() + bits_for_count(max(self.max_digits, 1)))

    # ------------------------------------------------------------------ #
    # searches
    # ------------------------------------------------------------------ #
    def digits_of(self, v: int) -> int:
        """Number of digits of ``v``'s primary name (its trie depth)."""
        require(self.tree.contains(v), f"node {v} is not in the tree")
        return int(self._level[self.tree.index[v]])

    def digits_array(self) -> np.ndarray:
        """:meth:`digits_of` of every tree node, in ``tree.nodes`` order."""
        return self._level

    def required_bound(self, nodes: Sequence[int]) -> int:
        """The minimal ``j`` such that a ``j``-bounded search finds every node in ``nodes``.

        This is the quantity ``b(u, i)`` of §3.2 stores for each sparse level.
        """
        best = 1
        for v in nodes:
            if self.tree.contains(v):
                best = max(best, max(self.digits_of(v), 1))
        return best

    def contains_name(self, name: Hashable) -> bool:
        """Whether some tree node carries this global name."""
        return name in self.name_to_node

    def search_from_root(self, target_name: Hashable,
                         j_bound: Optional[int] = None,
                         fold: Optional[int] = None) -> BoundedSearchResult:
        """Perform a ``j``-bounded search for ``target_name`` starting at the root.

        The returned walk starts at the root; on success it ends at the target
        node, otherwise it ends back at the root (the error report).  ``fold``
        is ``fold_name(target_name)`` when the caller has it already.
        """
        root = self.tree.root
        if j_bound is None:
            j_bound = max(self.max_digits, 1)
        j_bound = max(1, int(j_bound))
        result = BoundedSearchResult(found=False, path=[root], cost=0.0, rounds_used=0)

        target_hash: Optional[Tuple[int, ...]] = None
        target_node = self.name_to_node.get(target_name)
        stride, sigma = self._stride, self.sigma
        current = root
        for round_no in range(1, j_bound + 1):
            result.rounds_used = round_no
            # does the current node know the destination?
            if self.names[current] == target_name:
                result.found = True
                result.destination = current
                return result
            if target_node is not None \
                    and current * stride + target_node in self._dict_entry:
                seg, cost = self.compact.walk(current, target_node)
                self._extend(result, seg, cost)
                result.found = True
                result.destination = target_node
                return result
            if round_no == j_bound:
                break
            # descend the trie along the destination's hash digits
            if target_hash is None:
                target_hash = self._descent_digits(target_name, j_bound, fold)
            digit = target_hash[round_no - 1] if round_no - 1 < len(target_hash) else 0
            child = self._trie_child.get(current * sigma + digit)
            if child is None:
                break  # the trie has no deeper node on this hash path
            seg, cost = self.compact.walk(current, child)
            self._extend(result, seg, cost)
            current = child
        # negative response: report back to the root
        if current != root:
            seg, cost = self.compact.walk(current, root)
            self._extend(result, seg, cost)
        result.found = False
        result.destination = None
        return result

    def _descent_digits(self, target_name: Hashable, j_bound: int,
                        fold: Optional[int]) -> Tuple[int, ...]:
        """The hash digits a ``j_bound``-bounded search can descend along.

        Round ``r`` descends on digit ``r - 1`` and the last round never
        descends, so only the first ``j_bound - 1`` digits are ever read;
        they are hashed on the first descent, not for searches that end at
        the root.
        """
        return self.digit_hash.digits(
            target_name, fold, length=min(j_bound - 1, self.digit_hash.length))

    @staticmethod
    def _extend(result: BoundedSearchResult, segment: List[int], cost: float) -> None:
        if segment and result.path and segment[0] == result.path[-1]:
            result.path.extend(segment[1:])
        else:
            result.path.extend(segment)
        result.cost += cost


class BoundedSearchBank:
    """The ``j``-bounded searches of many Lemma 4 structures, planned as arrays.

    Entry ``s`` stands for ``routings[s]``, whose tree occupies the slots
    from ``offsets[s]`` of a compiled
    :class:`~repro.routing.forwarding.TreeBank` (slot = offset + DFS-in
    number).  :meth:`waypoints` gives the waypoints of
    :meth:`NameIndependentTreeRouting.search_from_root` for a whole batch,
    one trie depth at a time.  It uses the arithmetic the build stores its
    tables by:

    * the search at trie depth ``l`` stands on the node of rank
      ``start[l] + base_sigma(h(t)[:l])`` (if that rank exists), so one
      descent step is one hash digit per row;
    * that node holds the dictionary entry of every member ``t`` with at
      most ``l + 1`` primary digits, so the search finds ``t`` at depth
      ``max(digits(t) - 1, 0)``.

    Each row hashes its destination with its own tree's digit functions
    (:func:`horner_mod_p_rows`), only for the depths it descends through.
    Kept per tree: the hash coefficients and two arrays of the tree's size
    (rank to slot, and primary-name length by DFS-in number).
    """

    def __init__(self, routings: Sequence[NameIndependentTreeRouting],
                 offsets: np.ndarray) -> None:
        count = len(routings)
        self._offset = np.asarray(offsets, dtype=np.int64)
        self._m = np.asarray([r.m for r in routings], dtype=np.int64)
        self._sigma = np.asarray([r.sigma for r in routings], dtype=np.int64)
        #: start of each tree's entries in the two flat per-node arrays
        self._base = np.concatenate(([0], np.cumsum(self._m)[:-1])) if count \
            else np.zeros(0, dtype=np.int64)
        rank_slot: List[np.ndarray] = []
        level_by_dfs: List[np.ndarray] = []
        coefficients = [r.digit_hash.coefficient_matrix() for r in routings]
        length = max((c.shape[0] for c in coefficients), default=1)
        width = max((c.shape[1] for c in coefficients), default=1)
        self._coefficients = np.zeros((count, length, width), dtype=np.uint64)
        for s, (routing, offset) in enumerate(zip(routings, self._offset)):
            dfs_in = routing.tree.dfs_in_array()
            rank_slot.append(offset + dfs_in[routing._local_of_rank])
            levels = np.empty(routing.m, dtype=np.int64)
            levels[dfs_in] = routing.digits_array()
            level_by_dfs.append(levels)
            c = coefficients[s]
            self._coefficients[s, :c.shape[0], :c.shape[1]] = c

        def cat(parts: List[np.ndarray]) -> np.ndarray:
            return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

        self._rank_slot = cat(rank_slot)
        self._level_by_dfs = cat(level_by_dfs)

    def waypoints(self, index: np.ndarray, folds: np.ndarray,
                  target_slots: np.ndarray, bounds: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, found)`` of one bounded search from the root per row.

        Row ``r`` searches tree ``index[r]`` with bound ``bounds[r]`` for the
        destination whose name folds to ``folds[r]`` and which sits at
        ``target_slots[r]`` (``-1`` when it is not a member).  ``targets``
        holds the bank slots the walk heads for, in order along each row,
        with ``-1`` in unused cells: the trie nodes of the descent, then the
        destination on a hit (unless it is the root) or the root on a miss
        that left it.
        """
        rows_total = index.size
        offset = self._offset[index]
        inside = target_slots >= 0
        local = np.where(inside, target_slots - offset, 0)
        digits = np.where(inside, self._level_by_dfs[self._base[index] + local], 0)
        #: trie depth at which the destination's dictionary entry is met
        hit_depth = np.maximum(digits - 1, 0)
        #: deepest trie depth the search may descend to (round j never descends)
        limit = np.maximum(bounds, 1) - 1
        width = int(limit.max(initial=0))
        targets = np.full((rows_total, width + 1), -1, dtype=np.int64)
        depth = np.zeros(rows_total, dtype=np.int64)

        rows = np.flatnonzero(~(inside & (hit_depth == 0)) & (limit > 0))
        start = np.zeros(rows.size, dtype=np.int64)     # start[l] of the level
        power = np.ones(rows.size, dtype=np.int64)      # sigma ** l
        prefix = np.zeros(rows.size, dtype=np.int64)    # base_sigma(h(t)[:l])
        for level in range(width):
            if rows.size == 0:
                break
            trees = index[rows]
            sigma = self._sigma[trees]
            digit = horner_mod_p_rows(self._coefficients[trees, level],
                                      folds[rows]) % sigma.astype(np.uint64)
            start = start + power
            power = power * sigma
            prefix = prefix * sigma + digit.astype(np.int64)
            rank = start + prefix
            exists = rank < self._m[trees]
            rows, start, power = rows[exists], start[exists], power[exists]
            prefix, rank = prefix[exists], rank[exists]
            targets[rows, level] = self._rank_slot[self._base[index[rows]] + rank]
            depth[rows] = level + 1
            more = ~(inside[rows] & (hit_depth[rows] <= level + 1)) \
                & (limit[rows] > level + 1)
            rows, start, power, prefix = \
                rows[more], start[more], power[more], prefix[more]

        found = inside & (hit_depth <= depth)
        last = targets[:, width]
        hit = found & (digits > 0)
        last[hit] = target_slots[hit]
        back = ~found & (depth > 0)
        last[back] = offset[back]
        return targets, found
