"""Periodic box: wrapping, minimum image, cutoff validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.box import Box, minimum_image_fold

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestBox:
    def test_cubic(self):
        box = Box.cubic(3.0)
        assert box.lengths == (3.0, 3.0, 3.0)
        assert box.volume == pytest.approx(27.0)
        assert box.min_edge == 3.0

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            Box((1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            Box((1.0, 1.0))

    def test_wrap_into_range(self):
        box = Box.cubic(2.0)
        wrapped = box.wrap(np.array([[2.5, -0.5, 4.0]]))
        np.testing.assert_allclose(wrapped, [[0.5, 1.5, 0.0]])

    def test_minimum_image_halves(self):
        box = Box.cubic(2.0)
        d = box.minimum_image(np.array([1.5, -1.5, 0.4]))
        np.testing.assert_allclose(d, [-0.5, 0.5, 0.4])

    def test_distance_symmetric_across_boundary(self):
        box = Box.cubic(2.0)
        a = np.array([0.1, 0.0, 0.0])
        b = np.array([1.9, 0.0, 0.0])
        assert box.distance(a, b) == pytest.approx(0.2)

    def test_check_cutoff(self):
        box = Box.cubic(2.0)
        box.check_cutoff(0.99)
        with pytest.raises(ValueError):
            box.check_cutoff(1.01)
        with pytest.raises(ValueError):
            box.check_cutoff(-1.0)

    @settings(max_examples=60, deadline=None)
    @given(x=coords, y=coords, z=coords)
    def test_minimum_image_bounds_property(self, x, y, z):
        box = Box((2.0, 3.0, 4.0))
        d = box.minimum_image(np.array([x, y, z]))
        assert np.all(np.abs(d) <= box.array / 2 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(x=coords, y=coords, z=coords, sx=st.integers(-3, 3))
    def test_distance_invariant_under_lattice_shift(self, x, y, z, sx):
        box = Box.cubic(2.5)
        a = np.array([x, y, z])
        b = a + np.array([sx * 2.5, 0.0, 0.0])
        assert box.distance(a, np.zeros(3)) == pytest.approx(
            box.distance(b, np.zeros(3)), abs=1e-8
        )

    def test_wrap_is_idempotent(self):
        box = Box.cubic(1.7)
        pts = np.random.default_rng(0).uniform(-10, 10, (50, 3))
        once = box.wrap(pts)
        np.testing.assert_allclose(box.wrap(once), once)
        assert np.all(once >= 0) and np.all(once < 1.7)


def _row_form(pos, box_arr, ii, jj):
    """The ``(n, 3)`` form the fold must reproduce: minimum image of the
    displacement rows, then ``np.sum`` over the coordinate axis."""
    dr = pos[ii] - pos[jj]
    dr -= box_arr * np.round(dr / box_arr)
    return dr, np.sum(dr * dr, axis=-1)


class TestMinimumImageFold:
    """`minimum_image_fold`, shared by the pair search and the
    short-range kernel, is bitwise the row form: ``dr`` and ``r2``
    compared as integer views.  Enough rows that a reassociated sum
    (``x*x + (y*y + z*z)``) differs on many of them."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("near_half", [False, True])
    def test_bitwise_row_form(self, dtype, near_half):
        rng = np.random.default_rng(19)
        box_arr = np.array([2.3, 3.1, 4.7], dtype=dtype)
        n = 200_000
        if near_half:
            # Partners about half an edge apart: every image rounds at
            # or next to .5.
            a = rng.uniform(0.0, 1.0, (n, 3)) * box_arr
            offset = 0.5 + rng.uniform(-1e-6, 1e-6, (n, 3))
            b = a + np.where(rng.random((n, 3)) < 0.5, -1, 1) * offset * box_arr
            pos = np.concatenate([a, b]).astype(dtype)
            ii, jj = np.arange(n), np.arange(n, 2 * n)
        else:
            pos = (rng.uniform(-0.5, 1.5, (5000, 3)) * box_arr).astype(dtype)
            ii, jj = rng.integers(0, len(pos), (2, n))
        cols = np.ascontiguousarray(pos.T)
        # Scratch longer than the lanes: the fold uses its first n.
        d = np.empty((3, n + 7), dtype=dtype)
        r2 = np.empty(n + 7, dtype=dtype)
        t = np.empty(n + 7, dtype=dtype)
        got = minimum_image_fold(cols, box_arr, ii, jj, d, r2, t)
        want_dr, want_r2 = _row_form(pos, box_arr, ii, jj)
        bits = np.int64 if dtype == np.float64 else np.int32
        assert got.dtype == dtype and len(got) == n
        assert np.array_equal(got.view(bits), want_r2.view(bits))
        assert np.array_equal(d[:, :n].view(bits), want_dr.T.view(bits))

    def test_distance_is_sqrt_of_fold(self):
        # The pair search's bounding-sphere prefilter relies on this.
        rng = np.random.default_rng(23)
        box = Box((2.0, 3.0, 4.0))
        pos = rng.uniform(-1.0, 5.0, (300, 3))
        ii, jj = rng.integers(0, 300, (2, 4096))
        d, r2, t = np.empty((3, 4096)), np.empty(4096), np.empty(4096)
        folded = np.sqrt(
            minimum_image_fold(
                np.ascontiguousarray(pos.T), box.array, ii, jj, d, r2, t
            )
        )
        want = box.distance(pos[ii], pos[jj])
        assert np.array_equal(folded.view(np.int64), want.view(np.int64))
