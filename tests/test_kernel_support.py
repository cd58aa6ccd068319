"""Property-based tests on the generated-code helper primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.translator import kernel_support as ks


class TestFlatRanges:
    def test_simple(self):
        lo = np.array([0, 5, 2])
        cnt = np.array([2, 0, 3])
        np.testing.assert_array_equal(ks.flat_ranges(lo, cnt),
                                      [0, 1, 2, 3, 4])

    def test_empty(self):
        out = ks.flat_ranges(np.array([3]), np.array([0]))
        assert out.size == 0

    def test_negative_counts_clamped(self):
        out = ks.flat_ranges(np.array([0, 1]), np.array([-3, 2]))
        np.testing.assert_array_equal(out, [1, 2])

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 6)),
                    min_size=0, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_matches_python_ranges(self, pairs):
        lo = np.array([p[0] for p in pairs], dtype=np.int64)
        cnt = np.array([p[1] for p in pairs], dtype=np.int64)
        expect = [v for l, c in pairs for v in range(l, l + c)]
        np.testing.assert_array_equal(ks.flat_ranges(lo, cnt), expect)


class TestSelectionHelpers:
    def test_msel_none_passthrough(self):
        v = np.arange(4)
        assert ks.msel(v, None) is v
        assert ks.msel(3.5, None) == 3.5

    def test_msel_scalar_passthrough_under_mask(self):
        assert ks.msel(3.5, np.array([True, False])) == 3.5

    def test_msel_vector(self):
        v = np.arange(4)
        np.testing.assert_array_equal(
            ks.msel(v, np.array([True, False, True, False])), [0, 2])

    def test_bcv_scalar(self):
        out = ks.bcv(2.0, 4, np.float32)
        assert out.shape == (4,) and out.dtype == np.float32

    def test_bcv_vector_passthrough(self):
        v = np.arange(4, dtype=np.float32)
        assert ks.bcv(v, 4, None) is v

    def test_bcv_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ks.bcv(np.arange(3), 4, None)

    def test_lanes_of(self):
        assert ks.lanes_of(None, 7) == 7
        assert ks.lanes_of(np.array([True, False, True]), 3) == 2

    def test_ld_clips(self):
        arr = np.arange(4.0)
        out = ks.ld(arr, np.array([-5, 0, 3, 99]))
        np.testing.assert_array_equal(out, [0, 0, 3, 3])
        assert ks.ld(arr, 99) == 3.0

    def test_merge_none_mask(self):
        old = np.zeros(3)
        out = ks.merge(old, np.ones(3), None)
        np.testing.assert_array_equal(out, 1)

    def test_merge_masked(self):
        out = ks.merge(np.zeros(3), np.ones(3),
                       np.array([True, False, True]))
        np.testing.assert_array_equal(out, [1, 0, 1])

    def test_merge_scalar_new_value(self):
        out = ks.merge(np.zeros(3), 5.0, None)
        np.testing.assert_array_equal(out, [5, 5, 5])


class TestStore:
    def test_plain_assign(self):
        a = np.zeros(4)
        ks.store(a, np.array([1, 3]), np.array([10.0, 30.0]))
        np.testing.assert_array_equal(a, [0, 10, 0, 30])

    def test_compound_accumulates_duplicates(self):
        a = np.zeros(3)
        ks.store(a, np.array([1, 1, 1]), np.array([1.0, 2.0, 3.0]), "+")
        assert a[1] == 6.0

    def test_max_store(self):
        a = np.zeros(2)
        ks.store(a, np.array([0, 0]), np.array([3.0, 1.0]), "max")
        assert a[0] == 3.0

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            ks.store(np.zeros(2), np.array([0]), np.array([1.0]), "?")


class TestRedFold:
    def test_sum_vector(self):
        acc = ks.red_fold("+", 0.0, np.arange(5.0), None, 5)
        assert acc == 10.0

    def test_sum_scalar_times_lanes(self):
        acc = ks.red_fold("+", 0.0, 2.0, None, 6)
        assert acc == 12.0

    def test_sum_scalar_under_mask(self):
        mask = np.array([True, False, True])
        assert ks.red_fold("+", 0.0, 1.0, mask, 3) == 2.0

    def test_empty_mask_identity(self):
        mask = np.zeros(3, dtype=bool)
        assert ks.red_fold("+", 7.0, np.arange(3.0), mask, 3) == 7.0

    def test_max_min(self):
        assert ks.red_fold("max", ks.red_identity("max"),
                           np.array([3.0, 9.0]), None, 2) == 9.0
        assert ks.red_fold("min", ks.red_identity("min"),
                           np.array([3.0, 9.0]), None, 2) == 3.0

    def test_logical_or_and(self):
        assert ks.red_fold("||", False, np.array([0, 1, 0]), None, 3) is True
        assert ks.red_fold("&&", True, np.array([1, 0]), None, 2) is False

    def test_product(self):
        assert ks.red_fold("*", 1.0, np.array([2.0, 3.0]), None, 2) == 6.0

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3, width=32),
                    min_size=0, max_size=30),
           st.sampled_from(["+", "max", "min"]))
    @settings(max_examples=80, deadline=None)
    def test_fold_matches_sequential(self, vals, op):
        arr = np.array(vals, dtype=np.float64)
        acc = ks.red_fold(op, ks.red_identity(op), arr, None, len(vals)) \
            if len(vals) else ks.red_identity(op)
        seq = ks.red_identity(op)
        for v in vals:
            seq = {"+": lambda a, b: a + b,
                   "max": max, "min": min}[op](seq, v)
        assert acc == pytest.approx(seq, rel=1e-9) if vals else True

    def test_cast_to(self):
        assert ks.cast_to(3.7, np.int32) == 3
        out = ks.cast_to(np.array([1.9, 2.1]), np.int32)
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, [1, 2])


class TestGuardedGather:
    """``ld`` gathers with ``take(mode="clip")``; the reference is the
    clip-and-index form it replaced."""

    @given(st.integers(1, 40), st.sampled_from([np.int32, np.int64]),
           st.lists(st.integers(-100, 100), max_size=30),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_ld_matches_clip_and_index(self, size, dtype, idx, zero_d):
        arr = np.arange(size, dtype=np.float32) * 1.5 - 7
        if zero_d:
            index = np.array(idx[0] if idx else 0, dtype=dtype)
        else:
            index = np.array(idx, dtype=dtype)
        got = ks.ld(arr, index)
        want = arr[np.clip(index, 0, size - 1)] if index.size else arr[index]
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        np.testing.assert_array_equal(got, want)

    @given(st.integers(1, 30), st.integers(-40, 40), st.integers(-3, 40))
    @settings(max_examples=120, deadline=None)
    def test_ld_span_matches_ld(self, size, lo, n):
        arr = np.arange(size, dtype=np.float64) - 3
        want = ks.ld(arr, np.arange(lo, lo + n, dtype=np.int64))
        np.testing.assert_array_equal(ks.ld_span(arr, lo, n), want)

    def test_scalar_index_clips(self):
        arr = np.array([4.0, 5.0, 6.0])
        assert ks.ld(arr, -9) == 4.0 and ks.ld(arr, 99) == 6.0

    def test_empty_array_nonempty_index_raises(self):
        with pytest.raises(IndexError):
            ks.ld(np.zeros(0, np.float32), np.array([0, 1]))


class TestLaneBlocks:
    def test_jblocks_cover_range_in_order(self, monkeypatch):
        monkeypatch.setattr(ks, "JBLOCK_ELEMS", 10)
        blocks = list(ks.jblocks(3, 12, 4))
        assert [s for _, s in blocks] == [(2, 4)] * 4 + [(1, 4)]
        js = np.concatenate([j[:, 0] for j, _ in blocks])
        np.testing.assert_array_equal(js, np.arange(3, 12))
        assert list(ks.jblocks(5, 5, 4)) == []

    def test_jblocks_at_least_one_row(self, monkeypatch):
        monkeypatch.setattr(ks, "JBLOCK_ELEMS", 2)
        assert [s for _, s in ks.jblocks(0, 3, 100)] == [(1, 100)] * 3

    def test_bcv_block_broadcasts_lanes_and_columns(self):
        lanes = ks.bcv(np.arange(3), (2, 3), np.int64)
        np.testing.assert_array_equal(lanes, [[0, 1, 2], [0, 1, 2]])
        assert lanes.flags.writeable
        col = ks.bcv(np.array([[1.0], [2.0]]), (2, 3), None)
        np.testing.assert_array_equal(col, [[1, 1, 1], [2, 2, 2]])
        np.testing.assert_array_equal(ks.bcv(7, (2, 2)), [[7, 7], [7, 7]])

    @given(st.data(), st.integers(1, 5), st.integers(1, 6),
           st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_block_sites_match_sequential_order(self, data, w, n, k):
        """Compressed sites equal the per-(j, site) masked selections a
        sequential loop issues, concatenated in that order."""
        sites = []
        for _ in range(k):
            idx = np.array(data.draw(st.lists(st.integers(0, 50),
                                              min_size=w * n,
                                              max_size=w * n))).reshape(w, n)
            val = np.arange(w * n, dtype=np.float32).reshape(w, n) + len(sites)
            mask = data.draw(st.one_of(
                st.none(),
                st.lists(st.booleans(), min_size=w * n, max_size=w * n)
                .map(lambda b: np.array(b).reshape(w, n)),
                st.lists(st.booleans(), min_size=n, max_size=n)
                .map(np.array)))
            sites.append((idx, val, mask))
        gi, gv = ks.block_sites((w, n), sites)
        want_i, want_v = [], []
        for j in range(w):
            for idx, val, mask in sites:
                m = np.ones(n, bool) if mask is None else \
                    np.broadcast_to(mask, (w, n))[j]
                want_i.append(idx[j][m])
                want_v.append(val[j][m])
        np.testing.assert_array_equal(gi, np.concatenate(want_i))
        np.testing.assert_array_equal(gv, np.concatenate(want_v))
        assert gi.dtype == np.int64 and gv.dtype == np.float32

    def test_block_sites_broadcast_scalars_and_promote(self):
        gi, gv = ks.block_sites((2, 2), [(np.array([[0], [5]]), 1.5, None),
                                         (np.arange(2), np.float32(2), None)])
        np.testing.assert_array_equal(gi, [0, 0, 0, 1, 5, 5, 0, 1])
        np.testing.assert_array_equal(gv, [1.5, 1.5, 2, 2] * 2)
        assert gv.dtype == np.float64
