"""Tests for the hashing substrate (k-wise hash, digit hash, bucket hash)."""

import collections

import numpy as np
import pytest

from repro.graphs.graph import WeightedGraph
from repro.hashing.universal import (BucketHash, DigitHash, KWiseHash,
                                     fold_name, fold_names, horner_mod_p_rows)


class TestKWiseHash:
    def test_deterministic_per_instance(self):
        h = KWiseHash(8, seed=1)
        assert h("node-17") == h("node-17")
        assert h(("a", 3)) == h(("a", 3))

    def test_different_seeds_differ(self):
        a, b = KWiseHash(8, seed=1), KWiseHash(8, seed=2)
        values_a = [a(i) for i in range(50)]
        values_b = [b(i) for i in range(50)]
        assert values_a != values_b

    def test_handles_arbitrary_hashable_names(self):
        h = KWiseHash(4, seed=0)
        for name in [0, "x", (1, "y"), 2**80, -5]:
            assert isinstance(h(name), int)

    def test_storage_bits_scales_with_independence(self):
        assert KWiseHash(16, seed=0).storage_bits() == 2 * KWiseHash(8, seed=0).storage_bits()

    def test_rejects_bad_independence(self):
        with pytest.raises(Exception):
            KWiseHash(0)

    def test_spread_over_range(self):
        h = KWiseHash(8, seed=3)
        values = [h(i) % 97 for i in range(2000)]
        counts = collections.Counter(values)
        # roughly uniform: no residue grabs more than 4x its fair share
        assert max(counts.values()) < 4 * (2000 / 97)


class TestDigitHash:
    def test_digits_shape_and_range(self):
        dh = DigitHash(sigma=5, length=4, seed=2)
        d = dh.digits("some-name")
        assert len(d) == 4
        assert all(0 <= x < 5 for x in d)

    def test_prefix_consistency(self):
        dh = DigitHash(sigma=7, length=5, seed=2)
        assert dh.prefix("n", 3) == dh.digits("n")[:3]
        assert dh.prefix("n", 0) == ()
        with pytest.raises(Exception):
            dh.prefix("n", 6)

    def test_deterministic(self):
        a = DigitHash(sigma=4, length=3, seed=9)
        b = DigitHash(sigma=4, length=3, seed=9)
        assert a.digits("abc") == b.digits("abc")

    def test_sigma_one_degenerate(self):
        dh = DigitHash(sigma=1, length=3, seed=0)
        assert dh.digits("whatever") == (0, 0, 0)

    def test_max_prefix_load_reasonable(self):
        dh = DigitHash(sigma=8, length=3, seed=4)
        names = [f"node-{i}" for i in range(256)]
        # a length-1 prefix splits 256 names over 8 digits: fair share 32
        assert dh.max_prefix_load(names, 1) < 4 * 32
        assert dh.max_prefix_load([], 1) == 0

    def test_storage_and_digit_bits(self):
        dh = DigitHash(sigma=8, length=3, independence=8, seed=0)
        assert dh.digit_bits() == 3
        assert dh.storage_bits() == 3 * 8 * 61


class TestBucketHash:
    def test_bucket_in_range(self):
        bh = BucketHash(17, seed=5)
        assert all(0 <= bh(f"n{i}") < 17 for i in range(200))

    def test_deterministic(self):
        assert BucketHash(10, seed=1)("x") == BucketHash(10, seed=1)("x")

    def test_single_bucket(self):
        bh = BucketHash(1, seed=0)
        assert bh("anything") == 0

    def test_load_balanced(self):
        bh = BucketHash(16, seed=7)
        counts = collections.Counter(bh(f"node-{i}") for i in range(1600))
        assert max(counts.values()) < 3 * 100

    def test_storage_bits_positive(self):
        assert BucketHash(64, seed=0).storage_bits() > 0


#: operands at the edges of the 32-bit limbs and of the field GF(2^61 - 1)
_P = (1 << 61) - 1
EDGE_OPERANDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**60, _P - 2, _P - 1]

#: names of every kind a graph may carry; each folds through its own repr
MIXED_NAMES = ([0, 1, 7, 2**60 - 1, 2**80, -1, -5, -(2**70)]
               + [f"node-{i}" for i in range(40)] + ["", "ü"]
               + [("as", i) for i in range(20)] + [(1, ("nested", -2)), ()])


class TestBatchedHorner:
    """The batched ``uint64`` Horner step ≡ the scalar Python-int one."""

    @pytest.mark.parametrize("seed", range(6))
    def test_values_match_scalar_on_names(self, seed):
        h = KWiseHash(11, seed=seed)
        folds = fold_names(MIXED_NAMES)
        assert h.values(folds).tolist() == [h.value(name) for name in MIXED_NAMES]

    def test_edge_operands_and_edge_coefficients(self):
        points = np.asarray(EDGE_OPERANDS, dtype=np.uint64)
        h = KWiseHash(len(EDGE_OPERANDS), seed=0)
        for coefficients in ([_P - 1] * 8, [0] * 8, [1] * 8, EDGE_OPERANDS,
                             EDGE_OPERANDS[::-1], [2**60] * 40):
            h.coefficients = list(coefficients)
            assert h.values(points).tolist() == \
                [h.value_of_fold(x) for x in EDGE_OPERANDS]

    def test_single_coefficient_is_constant(self):
        h = KWiseHash(1, seed=3)
        points = np.asarray(EDGE_OPERANDS, dtype=np.uint64)
        assert h.values(points).tolist() == [h.coefficients[0]] * len(points)

    def test_fold_depends_on_the_object_not_its_value(self):
        # repr(np.int64(3)) is 'np.int64(3)': folding must see the Python
        # object the graph holds, never a numpy conversion of it
        assert fold_name(3) != fold_name(np.int64(3))
        assert fold_names([3]).tolist() == [fold_name(3)]

    @pytest.mark.parametrize("sigma", [1, 2, 7, 25])
    def test_digit_rows_match_per_name_digits(self, sigma):
        dh = DigitHash(sigma=sigma, length=3, independence=9, seed=sigma)
        rows = dh.digit_array(fold_names(MIXED_NAMES)).tolist()
        assert [tuple(row) for row in rows] == [dh.digits(n) for n in MIXED_NAMES]

    def test_digits_from_a_fold_and_prefix_length(self):
        dh = DigitHash(sigma=5, length=4, seed=2)
        for name in MIXED_NAMES:
            full = dh.digits(name)
            assert dh.digits(name, fold=fold_name(name)) == full
            assert dh.digits(name, length=2) == full[:2]

    def test_buckets_match_per_name_bucket(self):
        bh = BucketHash(13, seed=4)
        assert bh.buckets(fold_names(MIXED_NAMES)).tolist() == \
            [bh.bucket(name) for name in MIXED_NAMES]
        assert [bh.bucket(name, fold_name(name)) for name in MIXED_NAMES] == \
            [bh.bucket(name) for name in MIXED_NAMES]

    def test_row_wise_horner_matches_each_rows_own_function(self):
        # every row its own polynomial, shorter ones zero-padded at the
        # high-degree end, including the limb- and field-edge operands
        functions = [KWiseHash(t, seed=t) for t in (1, 3, 8, 11)]
        functions[2].coefficients = [_P - 1] * 8
        folds = np.concatenate([fold_names(MIXED_NAMES),
                                np.asarray(EDGE_OPERANDS, dtype=np.uint64)])
        rows = np.arange(folds.size) % len(functions)
        coefficients = np.zeros((folds.size, 11), dtype=np.uint64)
        for r, f in enumerate(rows.tolist()):
            coefficients[r, :functions[f].independence] = functions[f].coefficients
        expected = [functions[f].value_of_fold(int(x))
                    for f, x in zip(rows.tolist(), folds.tolist())]
        assert horner_mod_p_rows(coefficients, folds).tolist() == expected


class TestGraphNameFolds:
    def test_fold_array_matches_per_name_fold(self):
        graph = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                              names=["a", ("b", 1), 2**80, -3])
        assert graph.name_folds().dtype == np.uint64
        assert graph.name_folds().tolist() == \
            [fold_name(name) for name in graph.names_view()]

    def test_name_fold_reads_known_names_and_folds_others(self):
        graph = WeightedGraph(2, [(0, 1, 1.0)], names=[3, "x"])
        assert graph.name_fold(3) == fold_name(3)
        assert graph.name_fold("x") == fold_name("x")
        assert graph.name_fold("unknown") == fold_name("unknown")
        # an equal name of another type has another repr, so another fold
        assert graph.name_fold(np.int64(3)) == fold_name(np.int64(3))
