"""Universal / k-wise independent hashing.

Lemma 4 of the paper needs a hash function ``h : names -> Sigma^k`` (with
``Sigma = {0 .. n^{1/k}-1}``) that is ``Theta(log n)``-wise independent and
representable in ``Theta(log^2 n)`` bits, citing Carter–Wegman [11].  The
classic construction is a random polynomial of degree ``t-1`` over a prime
field: ``h(x) = (a_{t-1} x^{t-1} + ... + a_1 x + a_0) mod p``, which is
``t``-wise independent and needs ``t`` field elements of storage.

:class:`KWiseHash` implements that polynomial family; :class:`DigitHash`
post-processes its output into a fixed-length digit string over an alphabet
of size ``sigma`` (the "hash name" of Lemma 4); :class:`BucketHash` reduces a
name to a bucket index (used by the Lemma 7 dictionary distribution).
Arbitrary hashable Python names are first folded to integers with a stable
64-bit FNV-1a (:func:`fold_name`), so node names can be ints, strings, or
tuples.

Every family has two evaluations with identical results: a scalar one per
name (the reference, used for single route-time queries) and a batched one
over a ``uint64`` array of folded names (:func:`horner_mod_p`), used to hash
a whole tree's members at once.  A graph folds its names once
(:meth:`repro.graphs.graph.WeightedGraph.name_folds`); the batched path
starts from those folds.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.bitsize import bits_for_count
from repro.utils.rng import make_rng
from repro.utils.validation import require

# A Mersenne prime comfortably above any 61-bit folded name.
_PRIME = (1 << 61) - 1

_P = np.uint64(_PRIME)
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW29 = np.uint64((1 << 29) - 1)
_U3, _U29, _U32, _U61 = (np.uint64(s) for s in (3, 29, 32, 61))


def fold_name(name: Hashable) -> int:
    """Stable 64-bit FNV-1a fold of ``repr(name)``, reduced into ``[0, p)``.

    The fold depends on the exact object: ``repr(np.int64(3))`` is
    ``'np.int64(3)'``, so a numpy scalar folds differently from the equal
    Python ``int``.
    """
    data = repr(name).encode("utf-8")
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h % _PRIME


def fold_names(names: Iterable[Hashable]) -> np.ndarray:
    """:func:`fold_name` of every name, as a ``uint64`` array."""
    return np.fromiter((fold_name(name) for name in names), dtype=np.uint64)


def horner_mod_p(coefficients: np.ndarray, folds: np.ndarray) -> np.ndarray:
    """Evaluate polynomials over ``GF(2^61 - 1)`` at many points at once.

    ``coefficients`` is an ``(F, t)`` array (row ``f`` holds polynomial
    ``f``'s coefficients ``a_0 .. a_{t-1}``, all in ``[0, p)``) and
    ``folds`` a ``uint64`` array of points in ``[0, p)``.  Returns the
    ``(F, len(folds))`` array of values, equal to the scalar Horner loop
    ``acc = (acc * x + a) % p`` of :meth:`KWiseHash.value_of_fold`.
    """
    coefficients = np.asarray(coefficients, dtype=np.uint64)
    x = np.asarray(folds, dtype=np.uint64)[np.newaxis, :]
    acc = np.repeat(coefficients[:, -1:], x.shape[1], axis=1)
    return _horner(acc, x, (a[:, np.newaxis]
                            for a in coefficients[:, -2::-1].T))


def horner_mod_p_rows(coefficients: np.ndarray, folds: np.ndarray) -> np.ndarray:
    """Row-wise :func:`horner_mod_p`: polynomial ``r`` evaluated at ``folds[r]``.

    ``coefficients`` is ``(R, t)`` and ``folds`` has ``R`` entries, so a
    batch of names can each be hashed with its own function (the batch
    planner hashes every packet's destination with its own tree's hash).
    Rows of polynomials with fewer than ``t`` coefficients are padded with
    leading zeros, which leaves their values unchanged.
    """
    coefficients = np.asarray(coefficients, dtype=np.uint64)
    acc = coefficients[:, -1].copy()
    return _horner(acc, np.asarray(folds, dtype=np.uint64),
                   coefficients[:, -2::-1].T)


def _horner(acc: np.ndarray, x: np.ndarray, columns) -> np.ndarray:
    """The Horner steps ``acc = acc * x + a (mod p)``, one per column ``a``.

    Products stay inside ``uint64`` by 32-bit limbs: with
    ``a = a1 2^32 + a0`` and ``x = x1 2^32 + x0``,
    ``a x = a1 x1 2^64 + (a1 x0 + a0 x1) 2^32 + a0 x0``.  Modulo
    ``p = 2^61 - 1`` we have ``2^61 = 1`` and ``2^64 = 8``, so the high term
    is ``8 a1 x1``, the middle term ``m 2^32`` splits at bit 29 into
    ``(m >> 29) + (m mod 2^29) 2^32``, and the low term folds at bit 61.
    The accumulator is only folded to ``[0, p + 7)`` between steps (so
    ``a < 2^62``, ``a1 < 2^30``): every partial sum stays below
    ``2^63.5``, and one conditional subtraction at the end lands in
    ``[0, p)``.
    """
    x_hi, x_lo = x >> _U32, x & _LOW32
    for a in columns:
        a_hi, a_lo = acc >> _U32, acc & _LOW32
        mid = a_hi * x_lo + a_lo * x_hi          # < 2^63
        low = a_lo * x_lo                        # < 2^64
        acc = ((a_hi * x_hi) << _U3) + (mid >> _U29) \
            + ((mid & _LOW29) << _U32) + (low & _P) + (low >> _U61) \
            + a                                  # < 2^62 + 3 * 2^61 + 2^35
        acc = (acc & _P) + (acc >> _U61)          # < p + 7
    acc[acc >= _P] -= _P
    return acc


class KWiseHash:
    """A ``t``-wise independent hash family member over the field ``GF(p)``.

    Parameters
    ----------
    independence:
        The degree of independence ``t`` (the polynomial has ``t`` random
        coefficients).  The paper uses ``t = Theta(log n)``.
    seed:
        Randomness for drawing the coefficients.
    """

    def __init__(self, independence: int, seed=None) -> None:
        require(independence >= 1, "independence must be >= 1")
        rng = make_rng(seed)
        self.independence = int(independence)
        # The leading coefficient may be zero; independence is unaffected.
        self.coefficients: List[int] = rng.integers(
            0, _PRIME, size=self.independence).tolist()

    def value(self, name: Hashable) -> int:
        """Hash ``name`` to an integer in ``[0, p)`` via Horner evaluation."""
        return self.value_of_fold(fold_name(name))

    def value_of_fold(self, x: int) -> int:
        """The hash of a name whose :func:`fold_name` is ``x``."""
        acc = 0
        for c in reversed(self.coefficients):
            acc = (acc * x + c) % _PRIME
        return acc

    def values(self, folds: np.ndarray) -> np.ndarray:
        """Batched :meth:`value_of_fold` over a ``uint64`` fold array."""
        return horner_mod_p(np.asarray([self.coefficients], dtype=np.uint64),
                            folds)[0]

    def storage_bits(self) -> int:
        """Bits needed to store this function (t field elements)."""
        return self.independence * 61

    def __call__(self, name: Hashable) -> int:
        return self.value(name)


class DigitHash:
    """Hash arbitrary names to fixed-length digit strings over ``Sigma = {0..sigma-1}``.

    This is the "hash name" ``h(v) in Sigma^k`` of Lemma 4.  Successive digits
    are extracted from independent :class:`KWiseHash` functions so that the
    prefix-load property the lemma needs (no digit-string prefix is shared by
    too many nodes) holds with high probability.
    """

    def __init__(self, sigma: int, length: int, independence: int = 32, seed=None) -> None:
        require(sigma >= 1, "alphabet size must be >= 1")
        require(length >= 1, "digit-string length must be >= 1")
        self.sigma = int(sigma)
        self.length = int(length)
        rng = make_rng(seed)
        seeds = rng.integers(0, 2**31 - 1, size=self.length)
        self._functions = [KWiseHash(independence, seed=int(s)) for s in seeds]

    def digits(self, name: Hashable, fold: Optional[int] = None,
               length: Optional[int] = None) -> Tuple[int, ...]:
        """The digit string ``h(name)``, or its first ``length`` digits when given.

        ``fold`` is ``fold_name(name)`` when the caller already has it (a
        graph name's entry of ``WeightedGraph.name_folds``); the name is
        folded here otherwise.
        """
        x = fold_name(name) if fold is None else int(fold)
        sigma = self.sigma
        functions = self._functions if length is None else self._functions[:length]
        return tuple(f.value_of_fold(x) % sigma for f in functions)

    def coefficient_matrix(self) -> np.ndarray:
        """``(length, t)`` ``uint64`` array: row ``l`` holds digit ``l``'s coefficients."""
        return np.asarray([f.coefficients for f in self._functions],
                          dtype=np.uint64)

    def digit_array(self, folds: np.ndarray) -> np.ndarray:
        """Batched :meth:`digits`: row ``r`` is the digit string of ``folds[r]``.

        Returns an ``(len(folds), length)`` ``int64`` array.
        """
        values = horner_mod_p(self.coefficient_matrix(), folds) \
            % np.uint64(self.sigma)
        return values.T.astype(np.int64)

    def prefix(self, name: Hashable, j: int) -> Tuple[int, ...]:
        """The first ``j`` digits of ``h(name)``."""
        require(0 <= j <= self.length, f"prefix length {j} out of range")
        return self.digits(name, length=j)

    def storage_bits(self) -> int:
        """Bits to store the function family."""
        return sum(f.storage_bits() for f in self._functions)

    def digit_bits(self) -> int:
        """Bits per stored digit."""
        return bits_for_count(max(self.sigma - 1, 1))

    def max_prefix_load(self, names: Sequence[Hashable], j: int) -> int:
        """Largest number of ``names`` sharing one length-``j`` prefix (diagnostic)."""
        from collections import Counter

        counts = Counter(self.prefix(name, j) for name in names)
        return max(counts.values()) if counts else 0


class BucketHash:
    """Hash names into ``num_buckets`` buckets (Lemma 7 dictionary distribution)."""

    def __init__(self, num_buckets: int, independence: int = 8, seed=None) -> None:
        require(num_buckets >= 1, "need at least one bucket")
        self.num_buckets = int(num_buckets)
        self._f = KWiseHash(independence, seed=seed)

    @property
    def coefficients(self) -> List[int]:
        """The hash polynomial's coefficients ``a_0 .. a_{t-1}``."""
        return self._f.coefficients

    def bucket(self, name: Hashable, fold: Optional[int] = None) -> int:
        """Bucket index of ``name`` in ``[0, num_buckets)``.

        ``fold`` is ``fold_name(name)`` when the caller has it already.
        """
        x = fold_name(name) if fold is None else int(fold)
        return self._f.value_of_fold(x) % self.num_buckets

    def buckets(self, folds: np.ndarray) -> np.ndarray:
        """Batched :meth:`bucket` over a ``uint64`` fold array (``int64`` out)."""
        return (self._f.values(folds)
                % np.uint64(self.num_buckets)).astype(np.int64)

    def storage_bits(self) -> int:
        """Bits to store the function."""
        return self._f.storage_bits() + bits_for_count(self.num_buckets)

    def __call__(self, name: Hashable) -> int:
        return self.bucket(name)
