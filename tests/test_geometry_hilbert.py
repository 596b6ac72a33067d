"""Tests for the Hilbert curve: bijection, locality, query decomposition, bounding boxes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import HilbertCurve, Rect


@pytest.fixture(scope="module")
def curve() -> HilbertCurve:
    return HilbertCurve(order=6, domain=Rect((0.0, 0.0), (1.0, 1.0)))


class TestConstruction:
    def test_rejects_non_2d_domain(self):
        with pytest.raises(ValueError):
            HilbertCurve(order=4, domain=Rect((0.0,), (1.0,)))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            HilbertCurve(order=0, domain=Rect.unit(2))
        with pytest.raises(ValueError):
            HilbertCurve(order=40, domain=Rect.unit(2))

    def test_side_and_max_index(self, curve):
        assert curve.side == 64
        assert curve.max_index == 64 * 64 - 1


class TestEncodeDecode:
    def test_bijection_exhaustive_small_order(self):
        small = HilbertCurve(order=3, domain=Rect.unit(2))
        side = small.side
        gx, gy = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        gx, gy = gx.ravel(), gy.ravel()
        d = small.encode_cells(gx, gy)
        # Every index appears exactly once.
        assert sorted(d.tolist()) == list(range(side * side))
        rx, ry = small.decode_cells(d)
        assert np.array_equal(rx, gx)
        assert np.array_equal(ry, gy)

    def test_adjacent_indices_are_adjacent_cells(self):
        """The defining locality property: consecutive curve cells share an edge."""
        small = HilbertCurve(order=4, domain=Rect.unit(2))
        d = np.arange(small.max_index + 1)
        gx, gy = small.decode_cells(d)
        steps = np.abs(np.diff(gx)) + np.abs(np.diff(gy))
        assert np.all(steps == 1)

    def test_encode_points_respects_domain(self):
        curve = HilbertCurve(order=5, domain=Rect((-10.0, 20.0), (10.0, 40.0)))
        pts = np.array([[-10.0, 20.0], [9.999, 39.999], [0.0, 30.0]])
        idx = curve.encode(pts)
        assert np.all(idx >= 0)
        assert np.all(idx <= curve.max_index)

    def test_encode_out_of_range_cells_raise(self, curve):
        with pytest.raises(ValueError):
            curve.encode_cells(np.array([curve.side]), np.array([0]))
        with pytest.raises(ValueError):
            curve.decode_cells(np.array([curve.max_index + 1]))

    def test_decode_returns_cell_centres_inside_domain(self, curve):
        idx = np.array([0, 17, curve.max_index])
        centers = curve.decode(idx)
        assert np.all(centers >= 0.0)
        assert np.all(centers <= 1.0)

    @given(st.lists(st.tuples(st.floats(0, 0.999999), st.floats(0, 0.999999)), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_stays_in_cell(self, raw):
        curve = HilbertCurve(order=8, domain=Rect.unit(2))
        pts = np.array(raw)
        idx = curve.encode(pts)
        decoded = curve.decode(idx)
        # The decoded centre must lie within one cell width of the original point.
        cell = 1.0 / curve.side
        assert np.all(np.abs(decoded - pts) <= cell)


def _oracle_encode_cells(order: int, gx, gy) -> np.ndarray:
    """The per-bit rotate-and-reflect encoding the table-driven one replaced."""
    x = np.asarray(gx, dtype=np.int64).copy()
    y = np.asarray(gy, dtype=np.int64).copy()
    d = np.zeros_like(x)
    s = (1 << order) >> 1
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        swap = ry == 0
        flip = swap & (rx == 1)
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        s >>= 1
    return d


class TestTableEncodeOracle:
    """The table-driven encoder equals the frozen bit loop for every order."""

    @pytest.mark.parametrize("order", range(1, 32))
    def test_equals_bit_loop(self, order):
        curve = HilbertCurve(order=order, domain=Rect.unit(2))
        gen = np.random.default_rng(order)
        top = curve.side - 1
        last_x, last_y = curve.decode_cells(np.array([curve.max_index]))
        gx = np.concatenate([gen.integers(0, curve.side, 2000), [0, 0, top, top], last_x])
        gy = np.concatenate([gen.integers(0, curve.side, 2000), [0, top, 0, top], last_y])
        d = curve.encode_cells(gx, gy)
        assert d.dtype == np.int64
        assert np.array_equal(d, _oracle_encode_cells(order, gx, gy))
        assert d[-1] == curve.max_index
        assert np.all((d >= 0) & (d <= curve.max_index))
        rx, ry = curve.decode_cells(d)
        assert np.array_equal(rx, gx) and np.array_equal(ry, gy)

    @pytest.mark.parametrize("order", [1, 2, 4, 5])
    def test_every_cell_of_small_orders(self, order):
        curve = HilbertCurve(order=order, domain=Rect.unit(2))
        gx, gy = np.meshgrid(np.arange(curve.side), np.arange(curve.side), indexing="ij")
        assert np.array_equal(curve.encode_cells(gx, gy), _oracle_encode_cells(order, gx, gy))

    def test_scalar_and_empty_inputs(self):
        curve = HilbertCurve(order=9, domain=Rect.unit(2))
        assert int(curve.encode_cells(300, 17)) == int(_oracle_encode_cells(9, 300, 17))
        assert curve.encode_cells(np.empty(0), np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("order", [1, 18, 31])
    def test_out_of_range_cells_still_raise(self, order):
        curve = HilbertCurve(order=order, domain=Rect.unit(2))
        for gx, gy in ((-1, 0), (0, -1), (curve.side, 0), (0, curve.side)):
            with pytest.raises(ValueError):
                curve.encode_cells(np.array([0, gx]), np.array([0, gy]))


def _oracle_range_bboxes(curve: HilbertCurve, lo_indices, hi_indices):
    """The per-quadrant descent ``range_bboxes`` ran before the cover table:
    every covered quadrant of every level widens the boxes on its own."""
    a = np.clip(np.asarray(lo_indices, dtype=np.int64).ravel(), 0, curve.max_index)
    b = np.clip(np.asarray(hi_indices, dtype=np.int64).ravel(), 0, curve.max_index)
    p, m = curve.order, a.size
    dom_lo = np.asarray(curve.domain.lo, dtype=float)
    cell_w = curve.domain.widths / curve.side
    box_lo = np.full((m, 2), np.inf)
    box_hi = np.full((m, 2), -np.inf)

    def emit(mask, cx, cy, size):
        sub = np.column_stack([dom_lo[0] + cx * cell_w[0], dom_lo[1] + cy * cell_w[1]])
        top = np.column_stack([sub[:, 0] + cell_w[0] * size, sub[:, 1] + cell_w[1] * size])
        box_lo[mask] = np.minimum(box_lo[mask], sub[mask])
        box_hi[mask] = np.maximum(box_hi[mask], top[mask])

    diff = a ^ b
    l_div = np.full(m, p + 1, dtype=np.int64)
    for level in range(p, 0, -1):  # the first level whose digits differ
        shift = 2 * (p - level)
        l_div = np.where(((a >> shift) & 3) != ((b >> shift) & 3), level, l_div)
    l_div = np.where(diff > 0, l_div, p + 1)
    for endpoint_is_a in (True, False):
        idx, other = (a, b) if endpoint_is_a else (b, a)
        swap, flip_x, flip_y = (np.zeros(m, dtype=bool) for _ in range(3))
        cx = np.zeros(m, dtype=np.int64)
        cy = np.zeros(m, dtype=np.int64)
        for level in range(1, p + 1):
            half = np.int64(1) << (p - level)
            d = (idx >> (2 * (p - level))) & 3
            d_other = (other >> (2 * (p - level))) & 3
            for j in range(4):
                if endpoint_is_a:
                    mask = ((level > l_div) & (j > d)) | (
                        (level == l_div) & (j > d) & (j < d_other))
                else:
                    mask = (level > l_div) & (j < d)
                ox, oy = HilbertCurve._quadrant_offsets(np.int64(j), swap, flip_x, flip_y)
                emit(mask, cx + ox * half, cy + oy * half, half)
            ox, oy = HilbertCurve._quadrant_offsets(d, swap, flip_x, flip_y)
            cx, cy = cx + ox * half, cy + oy * half
            swap = np.where((d == 0) | (d == 3), ~swap, swap)
            flip_x = np.where(d == 3, ~flip_x, flip_x)
            flip_y = np.where(d == 3, ~flip_y, flip_y)
        emit(np.ones(m, dtype=bool) if endpoint_is_a else (a != b), cx, cy, 1)
    return box_lo, box_hi


class TestRangeBboxesOracle:
    """One widening per level (the cover table) equals one per quadrant."""

    @pytest.mark.parametrize("order", [1, 2, 3, 7, 10, 18, 31])
    @pytest.mark.parametrize("domain", [Rect((0.0, 0.0), (1.0, 1.0)),
                                        Rect((-124.8, 31.3), (-103.0, 49.1))],
                             ids=["unit", "tiger"])
    def test_equals_per_quadrant_descent(self, order, domain):
        curve = HilbertCurve(order=order, domain=domain)
        gen = np.random.default_rng(order)
        lo = gen.integers(0, curve.max_index + 1, 500)
        span = gen.integers(0, max(2, curve.max_index // 5), 500)
        hi = np.minimum(lo + span, curve.max_index)
        hi[:10] = lo[:10]  # single cells
        lo = np.concatenate([lo, [0, 0, curve.max_index]])
        hi = np.concatenate([hi, [curve.max_index, 0, curve.max_index]])
        box_lo, box_hi = curve.range_bboxes(lo, hi)
        ref_lo, ref_hi = _oracle_range_bboxes(curve, lo, hi)
        assert box_lo.tobytes() == ref_lo.tobytes()
        assert box_hi.tobytes() == ref_hi.tobytes()


class TestRectToRanges:
    def test_full_domain_is_one_interval(self, curve):
        ranges = curve.rect_to_ranges(curve.domain)
        assert ranges == [(0, curve.max_index)]

    def test_disjoint_query_gives_no_ranges(self, curve):
        assert curve.rect_to_ranges(Rect((2.0, 2.0), (3.0, 3.0))) == []

    def test_ranges_are_sorted_and_disjoint(self, curve):
        query = Rect((0.1, 0.2), (0.6, 0.9))
        ranges = curve.rect_to_ranges(query)
        assert ranges
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 < lo2 - 0  # disjoint and sorted (merged intervals are non-adjacent)
            assert lo1 <= hi1 and lo2 <= hi2

    def test_ranges_cover_exactly_the_query_cells(self):
        """Cells inside the query are covered; cells far outside are not."""
        curve = HilbertCurve(order=5, domain=Rect.unit(2))
        query = Rect((0.25, 0.25), (0.5, 0.5))
        ranges = curve.rect_to_ranges(query, max_ranges=10_000)
        covered = set()
        for lo, hi in ranges:
            covered.update(range(lo, hi + 1))
        # every cell whose centre is inside the query must be covered
        side = curve.side
        for gx in range(side):
            for gy in range(side):
                cx, cy = (gx + 0.5) / side, (gy + 0.5) / side
                idx = int(curve.encode_cells(np.array([gx]), np.array([gy]))[0])
                if query.contains_point((cx, cy)):
                    assert idx in covered
        # and the covered area should not be wildly larger than the query
        assert len(covered) <= (side // 4 + 2) ** 2

    def test_max_ranges_caps_interval_count(self):
        curve = HilbertCurve(order=8, domain=Rect.unit(2))
        query = Rect((0.11, 0.13), (0.57, 0.83))
        ranges = curve.rect_to_ranges(query, max_ranges=16)
        assert len(ranges) <= 16 + 4  # merging may reduce, cap may slightly overshoot per branch


class TestRangeBbox:
    def test_full_range_is_domain(self, curve):
        bbox = curve.range_bbox(0, curve.max_index)
        assert bbox == curve.domain

    def test_single_cell_bbox(self, curve):
        gx, gy = curve.decode_cells(np.array([5]))
        bbox = curve.range_bbox(5, 5)
        expected = curve.cell_rect(int(gx[0]), int(gy[0]))
        assert bbox == expected

    def test_bbox_contains_all_cells_in_range(self):
        curve = HilbertCurve(order=4, domain=Rect.unit(2))
        lo, hi = 37, 111
        bbox = curve.range_bbox(lo, hi)
        gx, gy = curve.decode_cells(np.arange(lo, hi + 1))
        centers = curve.decode(np.arange(lo, hi + 1))
        assert bool(np.all(bbox.contains_points(centers, closed_hi=True)))

    def test_empty_interval_raises(self, curve):
        with pytest.raises(ValueError):
            curve.range_bbox(10, 5)

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_bbox_contains_endpoints(self, a, b):
        curve = HilbertCurve(order=4, domain=Rect.unit(2))
        lo, hi = min(a, b), max(a, b)
        bbox = curve.range_bbox(lo, hi)
        ends = curve.decode(np.array([lo, hi]))
        assert bool(np.all(bbox.contains_points(ends, closed_hi=True)))
