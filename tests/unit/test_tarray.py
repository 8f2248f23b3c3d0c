"""Tests for the dual-value TArray container."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.taint.tarray import TArray, arrays_equal, as_tarray, lane_rows_differ

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(max_dims=2, max_side=8),
    elements=st.floats(-1e6, 1e6),
)


class TestConstruction:
    def test_fresh_shares(self):
        t = TArray.fresh([1.0, 2.0])
        assert t.faulty is t.golden
        assert not t.diverged

    def test_diverged_when_different(self):
        t = TArray(np.array([1.0]), np.array([2.0]))
        assert t.diverged

    def test_equal_faulty_collapses_to_shared(self):
        g = np.array([1.0, 2.0])
        t = TArray(g, g.copy())
        assert t.faulty is t.golden

    def test_nan_payloads_compare_equal(self):
        g = np.array([np.nan, 1.0])
        t = TArray(g, np.array([np.nan, 1.0]))
        assert not t.diverged

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TArray(np.zeros(3), np.zeros(4))

    def test_integer_input_coerced_to_float(self):
        t = TArray.fresh([1, 2, 3])
        assert t.dtype == np.float64

    def test_immutability(self):
        t = TArray.fresh([1.0])
        with pytest.raises(ValueError):
            t.golden[0] = 5.0


class TestAccessors:
    def test_value_requires_scalar(self):
        assert TArray.fresh(3.5).value == 3.5
        with pytest.raises(ValueError):
            TArray.fresh([1.0, 2.0]).value

    def test_golden_value_on_diverged(self):
        t = TArray(np.array(1.0), np.array(2.0))
        assert t.golden_value == 1.0
        assert t.value == 2.0

    def test_to_numpy_is_faulty_path(self):
        t = TArray(np.array([1.0]), np.array([9.0]))
        np.testing.assert_array_equal(t.to_numpy(), [9.0])
        np.testing.assert_array_equal(t.golden_numpy(), [1.0])


class TestDataMovement:
    def test_getitem_clean_slice_of_diverged_array_reshares(self):
        g = np.arange(4.0)
        f = g.copy()
        f[3] = 99.0
        t = TArray(g, f)
        assert t.diverged
        assert not t[:3].diverged  # the corrupted lane is outside the slice
        assert t[2:].diverged

    def test_fancy_indexing(self):
        t = TArray.fresh(np.arange(10.0))
        picked = t[np.array([3, 1, 4])]
        np.testing.assert_array_equal(picked.to_numpy(), [3.0, 1.0, 4.0])

    def test_reshape_ravel_transpose(self):
        t = TArray.fresh(np.arange(6.0))
        r = t.reshape(2, 3)
        assert r.shape == (2, 3)
        assert r.ravel().shape == (6,)
        assert r.transpose(1, 0).shape == (3, 2)

    def test_concatenate_tracks_divergence(self):
        clean = TArray.fresh([1.0])
        dirty = TArray(np.array([1.0]), np.array([2.0]))
        assert not TArray.concatenate([clean, clean]).diverged
        assert TArray.concatenate([clean, dirty]).diverged

    def test_stack(self):
        a = TArray.fresh([1.0, 2.0])
        s = TArray.stack([a, a], axis=0)
        assert s.shape == (2, 2)

    def test_scatter(self):
        vals = TArray(np.array([5.0, 6.0]), np.array([5.0, 7.0]))
        out = TArray.scatter(vals, np.array([1, 3]), 5)
        np.testing.assert_array_equal(out.golden_numpy(), [0, 5, 0, 6, 0])
        np.testing.assert_array_equal(out.to_numpy(), [0, 5, 0, 7, 0])

    def test_copy_returns_self(self):
        t = TArray.fresh([1.0])
        assert t.copy() is t


class TestHelpers:
    def test_as_tarray_passthrough(self):
        t = TArray.fresh([1.0])
        assert as_tarray(t) is t
        assert as_tarray(2.0).value == 2.0

    @given(finite_arrays)
    def test_arrays_equal_reflexive(self, arr):
        assert arrays_equal(arr, arr.copy())

    @given(finite_arrays)
    def test_fresh_never_diverged(self, arr):
        assert not TArray.fresh(arr).diverged

    def test_arrays_equal_shape_mismatch(self):
        assert not arrays_equal(np.zeros(2), np.zeros(3))

    def test_negative_zero_equal(self):
        assert arrays_equal(np.array([0.0]), np.array([-0.0]))


# NaNs with different sign, quiet/signalling bit and payload: all of
# them must compare equal to each other under the collapse semantics.
_NAN_BITS = (
    0x7FF8000000000000, 0xFFF8000000000000,
    0x7FF0000000000001, 0x7FF8DEADBEEF0001,
)


def _nan(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


_SPECIALS = [0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 5e-324] + [
    _nan(bits) for bits in _NAN_BITS
]
_elements = st.one_of(
    st.sampled_from(_SPECIALS),
    st.floats(allow_nan=True, allow_infinity=True),
)
_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)


@st.composite
def _array_pairs(draw):
    """``(a, b)``: mostly ``a`` with a few elements redrawn, sometimes a
    pair of different shapes."""
    a = draw(hnp.arrays(np.float64, draw(_shapes), elements=_elements))
    if draw(st.integers(0, 9)) == 0:
        b = draw(hnp.arrays(np.float64, draw(_shapes), elements=_elements))
        return a, b
    b = a.copy()
    flat = b.reshape(-1)
    if a.size:
        for _ in range(draw(st.integers(0, 3))):
            flat[draw(st.integers(0, a.size - 1))] = draw(_elements)
    return a, b


class TestCollapseSemantics:
    """``arrays_equal`` answers exactly like NaN-aware ``array_equal``."""

    @given(_array_pairs())
    def test_matches_numpy_nan_aware_equality(self, pair):
        a, b = pair
        expect = a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
        assert arrays_equal(a, b) is bool(expect)
        assert arrays_equal(b, a) is bool(expect)

    @given(_array_pairs())
    def test_non_contiguous_views_answer_the_same(self, pair):
        a, b = pair
        if a.ndim < 2 or a.shape != b.shape:
            return
        expect = np.array_equal(a.T, b.T, equal_nan=True)
        assert arrays_equal(a.T, b.T) is bool(expect)
        assert arrays_equal(a[::-1], b[::-1]) is arrays_equal(a, b)

    def test_nan_pair_before_a_genuine_difference(self):
        a = np.array([1.0, _nan(_NAN_BITS[0]), 2.0, 3.0])
        b = np.array([1.0, _nan(_NAN_BITS[3]), 2.0, 4.0])
        assert not arrays_equal(a, b)
        b[3] = 3.0
        assert arrays_equal(a, b)

    def test_nan_against_a_number_differs(self):
        assert not arrays_equal(np.array([np.nan, 1.0]), np.array([0.0, 1.0]))
        assert not arrays_equal(np.array([0.0, 1.0]), np.array([np.nan, 1.0]))

    def test_zero_d_and_empty(self):
        assert arrays_equal(np.array(-0.0), np.array(0.0))
        assert arrays_equal(np.array(np.nan), np.array(-np.nan))
        assert not arrays_equal(np.array(np.inf), np.array(-np.inf))
        assert arrays_equal(np.zeros((0, 3)), np.zeros((0, 3)))
        assert not arrays_equal(np.zeros((0, 3)), np.zeros((3, 0)))
        assert not arrays_equal(np.zeros(()), np.zeros((1,)))

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 4)).flatmap(
                lambda k: _shapes.map(lambda s: k + s)
            ),
            elements=_elements,
        ),
        st.data(),
    )
    def test_lane_rows_differ_is_arrays_equal_per_row(self, stack, data):
        k = stack.shape[0]
        ref = stack[data.draw(st.integers(0, k - 1))].copy()
        if ref.size:
            flat = ref.reshape(-1)
            flat[data.draw(st.integers(0, ref.size - 1))] = data.draw(_elements)
        expect = [not arrays_equal(np.asarray(row), ref) for row in stack]
        assert lane_rows_differ(stack, ref).tolist() == expect
        # a full stack as reference: row i against row i
        refs = np.stack([ref] * k)
        assert lane_rows_differ(stack, refs).tolist() == expect
