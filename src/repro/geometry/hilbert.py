"""Hilbert space-filling curve in two dimensions.

The paper's private Hilbert R-tree maps every data point to its index along a
Hilbert curve "of sufficiently large order", builds a private binary tree
(a one-dimensional kd-tree) over those indices, and maps tree nodes back to
the plane via bounding boxes of the Hilbert values they span.

This module provides the three operations that construction and querying
need:

* :class:`HilbertCurve` — vectorised ``encode`` (point → index) and
  ``decode`` (index → cell centre) for a curve of a given ``order`` over an
  arbitrary rectangular domain;
* :meth:`HilbertCurve.rect_to_ranges` — decompose an axis-aligned query
  rectangle into a minimal set of contiguous Hilbert-index intervals, so a
  2-D range query becomes a union of 1-D range queries;
* :meth:`HilbertCurve.range_bbox` — the bounding box (in the plane) of all
  cells whose index lies in a given interval, used for the R-tree node
  rectangles.  This depends only on the interval, never on the data, so
  releasing it is privacy-free.

The curve implementation is the classical iterative rotate-and-reflect
construction (Hamilton's compact algorithm specialised to 2-D), vectorised
with numpy.  Encoding runs it as a 4-state automaton: the accumulated
rotate/flip transform is one of four states, and a lookup table (built once
per process, on first use) advances the state and emits 8 index bits for
each 4-bit chunk of both coordinates — ``ceil(order / 4)`` table steps over
the points instead of ``order`` bit steps.  Decoding keeps the bit loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .rect import Rect

__all__ = ["HilbertCurve"]


#: Bits of each axis one table step of :meth:`HilbertCurve.encode_cells` reads.
_CHUNK_BITS = 4


@lru_cache(maxsize=None)
def _encode_table() -> np.ndarray:
    """Transition table of the Hilbert encoding automaton over 4-bit chunks.

    A state ``swap | complement << 1`` is the rotate/flip transform the bit
    loop has accumulated so far: the loop's current coordinates are the
    original ones swapped and/or with their low bits complemented (the two
    commute).  Entry ``state << 8 | xbits << 4 | ybits`` holds the chunk's
    four base-4 index digits at bit 10 and up and the next state at bits 8-9,
    so a step masks the entry and ORs the next chunk in directly.
    """
    table = np.empty(4 << (2 * _CHUNK_BITS), dtype=np.int64)
    for state in range(4):
        for xbits in range(1 << _CHUNK_BITS):
            for ybits in range(1 << _CHUNK_BITS):
                swap, complement = state & 1, state >> 1
                digits = 0
                for bit in range(_CHUNK_BITS - 1, -1, -1):
                    bx = ((xbits >> bit) & 1) ^ complement
                    by = ((ybits >> bit) & 1) ^ complement
                    rx, ry = (by, bx) if swap else (bx, by)
                    digits = (digits << 2) | ((3 * rx) ^ ry)
                    if ry == 0:  # _rotate: complement when rx == 1, then swap
                        complement ^= rx
                        swap ^= 1
                entry = (state << 8) | (xbits << _CHUNK_BITS) | ybits
                table[entry] = (digits << 10) | ((swap | complement << 1) << 8)
    return table


@lru_cache(maxsize=None)
def _cover_table() -> np.ndarray:
    """Extreme half-offsets of every set of quadrants, per descent state.

    Row ``state << 4 | covered`` — ``state = swap | flip_x << 1 | flip_y << 2``
    and ``covered`` a 4-bit mask over the quadrants in curve order — holds the
    smallest and largest x offset and the smallest and largest y offset
    (each 0 or 1) among the covered quadrants.  Built once, on first use.
    """
    table = np.zeros((8 << 4, 4), dtype=np.int64)
    quadrants = np.arange(4, dtype=np.int64)
    for state in range(8):
        ox, oy = HilbertCurve._quadrant_offsets(
            quadrants, bool(state & 1), bool(state & 2), bool(state & 4))
        for covered in range(1, 16):
            pick = ((covered >> quadrants) & 1).astype(bool)
            table[(state << 4) | covered] = (ox[pick].min(), ox[pick].max(),
                                             oy[pick].min(), oy[pick].max())
    return table


def _rotate(n: int, x: np.ndarray, y: np.ndarray, rx: np.ndarray, ry: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rotate/flip the quadrant-local coordinates, vectorised over points."""
    swap = ry == 0
    flip = swap & (rx == 1)
    x = np.where(flip, n - 1 - x, x)
    y = np.where(flip, n - 1 - y, y)
    x2 = np.where(swap, y, x)
    y2 = np.where(swap, x, y)
    return x2, y2


@dataclass(frozen=True)
class HilbertCurve:
    """A 2-D Hilbert curve of a given order over a rectangular domain.

    Parameters
    ----------
    order:
        The curve order ``p``: the domain is discretised into a
        ``2^p × 2^p`` grid and indices run over ``[0, 4^p)``.  The paper uses
        orders between 16 and 24 and settles on 18.
    domain:
        The rectangle the curve covers.  Points are mapped into the grid by
        an affine transform of this rectangle onto ``[0, 2^p)^2``.
    """

    order: int
    domain: Rect

    def __post_init__(self) -> None:
        if self.domain.dims != 2:
            raise ValueError("HilbertCurve only supports two-dimensional domains")
        if not 1 <= int(self.order) <= 31:
            raise ValueError(f"order must be in [1, 31], got {self.order}")
        object.__setattr__(self, "order", int(self.order))

    # ------------------------------------------------------------------
    @property
    def side(self) -> int:
        """Number of grid cells per axis, ``2^order``."""
        return 1 << self.order

    @property
    def max_index(self) -> int:
        """Largest valid curve index, ``4^order - 1``."""
        return (1 << (2 * self.order)) - 1

    # ------------------------------------------------------------------
    # Grid <-> domain coordinate transforms
    # ------------------------------------------------------------------
    def to_grid(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map points in the domain to integer grid coordinates ``(gx, gy)``."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        lo = np.asarray(self.domain.lo)
        widths = self.domain.widths
        widths = np.where(widths > 0, widths, 1.0)
        unit = (pts - lo) / widths
        scaled = np.clip(unit * self.side, 0, self.side - 1)
        grid = scaled.astype(np.int64)
        return grid[:, 0], grid[:, 1]

    def cell_rect(self, gx: int, gy: int) -> Rect:
        """The planar rectangle of grid cell ``(gx, gy)``."""
        lo = np.asarray(self.domain.lo)
        widths = self.domain.widths / self.side
        cell_lo = lo + np.array([gx, gy]) * widths
        return Rect.from_arrays(cell_lo, cell_lo + widths)

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, points: np.ndarray) -> np.ndarray:
        """Hilbert indices of an ``(n, 2)`` array of points in the domain."""
        gx, gy = self.to_grid(points)
        return self.encode_cells(gx, gy)

    def encode_cells(self, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        """Hilbert indices of integer grid cells (vectorised xy → d).

        Table-driven (see :func:`_encode_table`); the result equals the
        classical per-bit rotate-and-reflect loop exactly.  The order is
        padded with leading zero bits to whole chunks: a zero bit pair emits
        digit 0 and toggles the swap, so starting in the swapped state when
        the padding is odd leaves the automaton where the unpadded loop
        starts.
        """
        x, y = np.broadcast_arrays(np.asarray(gx, dtype=np.int64),
                                   np.asarray(gy, dtype=np.int64))
        if x.size and (min(x.min(), y.min()) < 0 or max(x.max(), y.max()) >= self.side):
            raise ValueError("grid coordinates out of range for this curve order")
        table = _encode_table()
        steps = -(-self.order // _CHUNK_BITS)
        mask = (1 << _CHUNK_BITS) - 1
        state = np.full(x.shape, ((steps * _CHUNK_BITS - self.order) & 1) << 8, dtype=np.int64)
        d = np.zeros(x.shape, dtype=np.int64)
        for step in range(steps - 1, -1, -1):
            shift = step * _CHUNK_BITS
            idx = (x >> shift) & mask
            idx <<= _CHUNK_BITS
            idx |= (y >> shift) & mask
            idx |= state
            entry = table.take(idx)
            d <<= 2 * _CHUNK_BITS
            d |= entry >> 10
            np.bitwise_and(entry, 0x300, out=state)
        return d

    def decode_cells(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Grid coordinates ``(gx, gy)`` of the given Hilbert indices (d → xy)."""
        d = np.asarray(indices, dtype=np.int64)
        if np.any(d < 0) or np.any(d > self.max_index):
            raise ValueError("Hilbert index out of range for this curve order")
        t = d.copy()
        x = np.zeros_like(t)
        y = np.zeros_like(t)
        s = 1
        while s < self.side:
            rx = 1 & (t // 2)
            ry = 1 & (t ^ rx)
            x, y = _rotate(s, x, y, rx, ry)
            x = x + s * rx
            y = y + s * ry
            t //= 4
            s *= 2
        return x, y

    def decode(self, indices: np.ndarray) -> np.ndarray:
        """Planar coordinates of the centres of the cells at the given indices."""
        gx, gy = self.decode_cells(indices)
        lo = np.asarray(self.domain.lo)
        widths = self.domain.widths / self.side
        centers = lo + (np.stack([gx, gy], axis=1) + 0.5) * widths
        return centers

    # ------------------------------------------------------------------
    # Rectangle <-> index-interval conversions
    # ------------------------------------------------------------------
    def rect_to_ranges(self, rect: Rect, max_ranges: int = 256) -> List[Tuple[int, int]]:
        """Decompose ``rect`` into contiguous Hilbert-index intervals.

        Returns a sorted list of inclusive intervals ``(lo, hi)`` whose union
        covers exactly the grid cells intersecting ``rect`` — up to the
        granularity forced by ``max_ranges``: when the exact decomposition
        would exceed ``max_ranges`` intervals the recursion stops early and
        whole sub-squares are reported even if only partially covered, which
        over-approximates the query slightly (the same effect as the finite
        curve order itself).
        """
        query = self.domain.intersection(rect)
        if query is None:
            return []

        # Work in grid coordinates: inclusive cell bounds of the query.
        lo = np.asarray(self.domain.lo)
        widths = self.domain.widths
        widths = np.where(widths > 0, widths, 1.0)
        cell_w = widths / self.side
        qlo = np.floor((np.asarray(query.lo) - lo) / cell_w).astype(np.int64)
        qhi = np.ceil((np.asarray(query.hi) - lo) / cell_w).astype(np.int64) - 1
        qlo = np.clip(qlo, 0, self.side - 1)
        qhi = np.clip(qhi, qlo, self.side - 1)

        intervals: List[Tuple[int, int]] = []

        def covered(cx0: int, cy0: int, size: int) -> str:
            """Classify the sub-square [cx0, cx0+size) x [cy0, cy0+size)."""
            cx1, cy1 = cx0 + size - 1, cy0 + size - 1
            if cx1 < qlo[0] or cx0 > qhi[0] or cy1 < qlo[1] or cy0 > qhi[1]:
                return "outside"
            if cx0 >= qlo[0] and cx1 <= qhi[0] and cy0 >= qlo[1] and cy1 <= qhi[1]:
                return "inside"
            return "partial"

        # Recursive descent over the curve's quadrant structure.  At each
        # square of side `size` starting at Hilbert offset `base`, the curve
        # visits the four child quadrants contiguously in an order determined
        # by encoding their corner cells, so each fully-covered child maps to
        # one contiguous interval of length (size/2)^2.
        def recurse(cx0: int, cy0: int, size: int) -> None:
            state = covered(cx0, cy0, size)
            if state == "outside":
                return
            first = int(self.encode_cells(np.array([cx0]), np.array([cy0]))[0]) if size == 1 else None
            if state == "inside" or size == 1:
                if size == 1:
                    intervals.append((first, first))
                else:
                    start, end = self._square_range(cx0, cy0, size)
                    intervals.append((start, end))
                return
            if len(intervals) >= max_ranges:
                # Budget exhausted: over-approximate with the whole square.
                start, end = self._square_range(cx0, cy0, size)
                intervals.append((start, end))
                return
            half = size // 2
            for dx in (0, half):
                for dy in (0, half):
                    recurse(cx0 + dx, cy0 + dy, half)

        recurse(0, 0, self.side)
        return _merge_intervals(intervals)

    def _square_range(self, cx0: int, cy0: int, size: int) -> Tuple[int, int]:
        """The contiguous Hilbert interval covered by an aligned square."""
        # An aligned square of side `size` (a node of the curve's quadtree)
        # covers exactly size^2 consecutive indices; its start is the minimum
        # index among its corner cells' aligned block.
        corner = int(self.encode_cells(np.array([cx0]), np.array([cy0]))[0])
        block = size * size
        start = (corner // block) * block
        return start, start + block - 1

    @staticmethod
    def _quadrant_offsets(digit: np.ndarray, swap: np.ndarray, flip_x: np.ndarray,
                          flip_y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Spatial half-offsets of curve-order quadrant ``digit`` under a state.

        A descent state is the inverse of the accumulated rotate/flip
        transform of :func:`_rotate`, represented as an axis ``swap`` plus
        per-axis flips.  The curve visits quadrant ``digit`` at transformed
        position ``(rx, ry) = (digit >> 1, gray(digit))``; the state maps it
        back to the square's own frame.
        """
        rx = ((digit >> 1) & 1).astype(bool)
        ry = ((digit ^ (digit >> 1)) & 1).astype(bool)
        u = np.where(swap, ry, rx)
        v = np.where(swap, rx, ry)
        return (u ^ flip_x).astype(np.int64), (v ^ flip_y).astype(np.int64)

    def range_bboxes(self, lo_indices: np.ndarray, hi_indices: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Bounding boxes of many inclusive index intervals, vectorised.

        Returns ``(lo, hi)`` arrays of shape ``(m, 2)``.  Instead of decoding
        a per-interval block decomposition, the curve's quadrant recursion is
        replayed directly: two root-to-leaf descents (one per endpoint)
        maintain each interval's current square corner and orientation state,
        and every level contributes the fully-covered sibling quadrants as
        whole squares — ``O(order)`` vectorised steps over all intervals with
        **no** per-node or per-block decoding.  This is what makes compiling
        a whole released Hilbert R-tree's node boxes one array pass; the
        scalar :meth:`range_bbox` delegates here, so the per-node reference
        path produces bit-identical boxes.
        """
        a = np.clip(np.asarray(lo_indices, dtype=np.int64).ravel(), 0, self.max_index)
        b = np.clip(np.asarray(hi_indices, dtype=np.int64).ravel(), 0, self.max_index)
        if a.shape != b.shape:
            raise ValueError("lo_indices and hi_indices must have the same shape")
        if np.any(b < a):
            raise ValueError("empty Hilbert interval")
        p = self.order
        m = a.size
        dom_lo = np.asarray(self.domain.lo, dtype=float)
        cell_w = self.domain.widths / self.side
        box_lo = np.full((m, 2), np.inf)
        box_hi = np.full((m, 2), -np.inf)
        if m == 0:
            return box_lo, box_hi
        lo_x, lo_y = box_lo[:, 0], box_lo[:, 1]
        hi_x, hi_y = box_hi[:, 0], box_hi[:, 1]

        def emit(mask, lo_x_cells, lo_y_cells, hi_x_cells, hi_y_cells, size):
            """Widen the boxes to squares of side ``size`` at the given cells."""
            np.minimum(lo_x, dom_lo[0] + lo_x_cells * cell_w[0], out=lo_x, where=mask)
            np.minimum(lo_y, dom_lo[1] + lo_y_cells * cell_w[1], out=lo_y, where=mask)
            np.maximum(hi_x, dom_lo[0] + hi_x_cells * cell_w[0] + cell_w[0] * size,
                       out=hi_x, where=mask)
            np.maximum(hi_y, dom_lo[1] + hi_y_cells * cell_w[1] + cell_w[1] * size,
                       out=hi_y, where=mask)

        # Level (1..p) at which the two endpoints' base-4 digits first differ;
        # above it the descents share a path and no quadrant is fully covered.
        diff = a ^ b
        with np.errstate(divide="ignore"):
            high_bit = np.where(
                diff > 0,
                np.floor(np.log2(np.maximum(diff, 1).astype(float))).astype(np.int64), -1)
        high_bit = np.where((high_bit >= 0) & ((np.int64(1) << np.maximum(high_bit, 0)) > diff),
                            high_bit - 1, high_bit)
        l_div = np.where(diff > 0, p - high_bit // 2, np.int64(p + 1))

        # A square's box coordinate, ``dom_lo + cells * cell_w`` (plus its
        # width on the high side), is non-decreasing in its integer corner
        # cell, so one emit of a level's extreme covered corners (looked up in
        # ``_cover_table``) widens the boxes exactly as one emit per covered
        # quadrant would.
        table = _cover_table()
        for endpoint_is_a in (True, False):
            idx = a if endpoint_is_a else b
            other = b if endpoint_is_a else a
            swap = np.zeros(m, dtype=bool)
            flip_x = np.zeros(m, dtype=bool)
            flip_y = np.zeros(m, dtype=bool)
            corner_x = np.zeros(m, dtype=np.int64)
            corner_y = np.zeros(m, dtype=np.int64)
            for level in range(1, p + 1):
                half = np.int64(1) << (p - level)
                d = (idx >> (2 * (p - level))) & 3
                if endpoint_is_a:
                    # quadrants after a's (below the fork) plus, at the fork
                    # level itself, those strictly between the two.
                    d_other = (other >> (2 * (p - level))) & 3
                    after = (0b1110 << d) & 0b1111
                    covered = np.where(level > l_div, after,
                                       np.where(level == l_div, after & ((1 << d_other) - 1), 0))
                else:
                    covered = np.where(level > l_div, (1 << d) - 1, 0)
                hit = covered != 0
                if np.any(hit):
                    state = swap | (flip_x << 1) | (flip_y << 2)
                    ext = table.take((state << 4) | covered, axis=0) * half
                    emit(hit, corner_x + ext[:, 0], corner_y + ext[:, 2],
                         corner_x + ext[:, 1], corner_y + ext[:, 3], half)
                # descend into the endpoint's own quadrant
                ox, oy = self._quadrant_offsets(d, swap, flip_x, flip_y)
                corner_x = corner_x + ox * half
                corner_y = corner_y + oy * half
                turn = (d == 0) | (d == 3)
                reflect = d == 3
                swap = np.where(turn, ~swap, swap)
                flip_x = np.where(reflect, ~flip_x, flip_x)
                flip_y = np.where(reflect, ~flip_y, flip_y)
            # the endpoint's own cell (shared cell emitted once when a == b)
            emit(np.ones(m, dtype=bool) if endpoint_is_a else (a != b),
                 corner_x, corner_y, corner_x, corner_y, 1)
        return box_lo, box_hi

    def range_bbox(self, lo_index: int, hi_index: int) -> Rect:
        """Bounding box in the plane of all cells with index in ``[lo, hi]``.

        Depends only on the interval and the curve, never on the data.
        Delegates to the vectorised :meth:`range_bboxes` (a batch of one), so
        scalar and batched callers produce bit-identical boxes.
        """
        lo_index = int(max(0, lo_index))
        hi_index = int(min(self.max_index, hi_index))
        if hi_index < lo_index:
            raise ValueError("empty Hilbert interval")
        box_lo, box_hi = self.range_bboxes(np.array([lo_index]), np.array([hi_index]))
        return Rect.from_arrays(box_lo[0], box_hi[0])


def _merge_intervals(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sort inclusive intervals and merge the adjacent/overlapping ones."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi + 1:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged
