"""Split rules: how each PSD variant divides a node's region among children.

The paper frames PSDs as a design space in which the only structural choice is
how a node is split:

* **data-independent** splits (quadtree): every axis is halved at its
  midpoint, producing ``2^d`` equal children; the structure is public, so no
  privacy budget is spent on it;
* **data-dependent** splits (kd-tree family): the node is split at a
  *privately chosen* median of the points it contains; every private median
  consumes part of the median budget ``eps_median``;
* **hybrid** splits: data-dependent for the first ``l`` levels below the root
  and data-independent afterwards (Section 3.2, found in Section 8.2 to be the
  most reliably accurate kd variant);
* **cell-based** splits [26]: medians are read off a fixed-resolution noisy
  grid paid for once, so individual splits are free;
* the **noisy-mean** surrogate [12] is a data-dependent split with the mean
  heuristic as its "median" method.

All rules here produce **fanout-4** children in two dimensions.  For the
kd-style rules this implements the paper's *flattening*: each level performs a
private split on the x-axis followed by private splits of the two halves on
the y-axis, which is equivalent to connecting a binary kd-tree's nodes to
their grandchildren.  The two sub-splits happen on the same root-to-leaf path,
so a level's median budget is divided between them (the second stage's two
medians act on disjoint halves and compose in parallel).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geometry.domain import Domain
from ..geometry.rect import Rect, domain_aware_mask
from ..index.grid import NoisyGrid
from ..privacy.median import (
    MedianMethod,
    resolve_median_method,
    true_median,
    true_median_batch,
)
from ..privacy.rng import RngLike, ensure_rng

__all__ = [
    "SplitResult",
    "LevelSplit",
    "SplitRule",
    "QuadSplit",
    "KDSplit",
    "HybridSplit",
    "CellKDSplit",
    "grid_median_along_axis",
    "grid_medians",
]

#: One child produced by a split: its rectangle, the points routed to it, and
#: optionally the (axis, value) of the private split that created it.
SplitResult = Tuple[Rect, np.ndarray]

#: One whole level split in a single vectorized call: ``(child_lo, child_hi,
#: child_of_point, points)`` where the bound arrays have ``n_nodes * fanout``
#: rows (children of node ``j`` at rows ``j*fanout .. (j+1)*fanout - 1``),
#: ``points`` is the level's point array — normally the input, but a point the
#: reference path routes to *two* children (a split landing exactly on it at
#: the domain's closed upper face) appears twice — and ``child_of_point[p]``
#: is the global child index ``points[p]`` routes to.
LevelSplit = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _segment_sorted_order(values: np.ndarray, seg: np.ndarray,
                          offsets: np.ndarray) -> Optional[np.ndarray]:
    """The order sorting ``values`` within the segments of ``seg``.

    ``seg`` must be non-decreasing with segment boundaries at ``offsets``.
    Returns ``None`` when the values are already sorted within every segment —
    the level-batched builders hand each level's points back sorted by
    ``(child, value)``, so after the first data-dependent level this O(n)
    check replaces an O(n log n) sort.
    """
    n = values.shape[0]
    if n > 1:
        diffs = np.diff(values)
        within = np.ones(n - 1, dtype=bool)
        boundary = offsets[1:-1]
        boundary = boundary[(boundary > 0) & (boundary < n)]
        within[boundary - 1] = False
        if not np.any(diffs[within] < 0):
            return None
    elif n <= 1:
        return None
    by_value = np.argsort(values)  # stability irrelevant: equal floats are identical
    return by_value[np.argsort(seg[by_value], kind="stable")]


def _level_epsilons(epsilon_median, k: int) -> Optional[Tuple[np.ndarray, bool]]:
    """Normalise a scalar-or-per-node median budget into a ``(k,)`` vector.

    Returns ``(per_node_epsilons, has_budget)`` where ``has_budget`` is true
    when *every* node has a positive budget, or ``None`` for a mixed
    zero/positive vector — the draw layout of a level must be uniform across
    its nodes, so mixed levels have no vectorized path.  The multi-release
    sweep passes one epsilon per stacked node (releases differ in budget);
    single-release callers keep passing a scalar.
    """
    eps = np.asarray(epsilon_median, dtype=float)
    if eps.ndim == 0:
        eps = np.full(k, float(eps))
    elif eps.shape != (k,):
        raise ValueError("epsilon_median must be a scalar or hold one value per node")
    positive = eps > 0
    if positive.all():
        return eps, True
    if not positive.any():
        return eps, False
    return None


def _method_level_draws(method, n_nodes: int, stages: int, epsilon_median) -> Optional[int]:
    """Uniforms a ``split_level`` with ``stages`` median stages consumes, or ``None``.

    Shared by :meth:`KDSplit.level_random_draws` (three stages: one x-median
    plus two y-medians per node) and the Hilbert binary split (one stage).
    """
    if method is true_median:
        return 0
    eps = np.asarray(epsilon_median, dtype=float)
    if not np.any(eps > 0):
        return 0
    if not np.all(eps > 0):
        return None
    batch = getattr(method, "batch", None)
    draws_per_call = getattr(method, "draws_per_call", None)
    if batch is None or draws_per_call is None:
        return None
    if int(getattr(method, "draws_per_value", 0)) != 0:
        return None  # sampled methods consume one uniform per point: data dependent
    return stages * int(draws_per_call) * n_nodes


def _partition(rect_list: List[Rect], points: np.ndarray, domain: Domain) -> List[SplitResult]:
    """Route points to child rectangles with domain-aware half-open membership."""
    results: List[SplitResult] = []
    for child_rect in rect_list:
        if points.size:
            mask = domain_aware_mask(child_rect, points, domain.rect)
            child_points = points[mask]
        else:
            child_points = points
        results.append((child_rect, child_points))
    return results


def _kd_route_stage(pts: np.ndarray, seg: np.ndarray, sides: List[np.ndarray], axis: int,
                    cuts: np.ndarray, key: np.ndarray, dom_hi: float):
    """Append each point's side (0 low, 1 high) of its cut ``cuts[key]`` along
    ``axis`` to ``sides``.

    A point exactly on a cut that ``domain_aware_mask`` treats as closed (the
    domain's upper face) belongs to *both* children in the reference: it
    keeps the low side and a copy is appended on the high side.  Returns
    ``(pts, seg, sides, duplicated)``.
    """
    values = pts[:, axis]
    cut = cuts[key]
    side = (values >= cut).astype(np.int64)
    dup = np.isclose(cuts, dom_hi)[key] & (values == cut)
    if not np.any(dup):
        return pts, seg, sides + [side], False
    side[dup] = 0
    copies = np.ones(int(np.count_nonzero(dup)), dtype=np.int64)
    return (np.concatenate([pts, pts[dup]], axis=0), np.concatenate([seg, seg[dup]]),
            [np.concatenate([s, s[dup]]) for s in sides] + [np.concatenate([side, copies])],
            True)


def _route_kd_level(lo: np.ndarray, hi: np.ndarray, points: np.ndarray,
                    point_node: np.ndarray, axis_a: int, axis_b: int, domain: Domain,
                    split_a: np.ndarray, stage_b) -> Tuple[np.ndarray, np.ndarray,
                                                           np.ndarray, np.ndarray, bool]:
    """Route a level through a flattened (fanout-4) kd split and build its children.

    Shared by :class:`KDSplit` and :class:`CellKDSplit`, which differ only in
    where the cut values come from.  ``split_a`` holds one stage-A cut per
    node along ``axis_a``; ``stage_b(points, half)`` returns the ``2k``
    stage-B cuts along ``axis_b`` (low half of node ``j`` at ``2j``, high half
    at ``2j + 1``) given the level's points after stage A and each point's
    half index.  Cuts are clamped into their node as ``Rect.split_at`` does,
    and points are routed exactly as the per-node :func:`_partition` routes
    them.

    Returns ``(child_lo, child_hi, child_of_point, points, duplicated)`` with
    the children in the scalar order (lowA, lowB), (lowA, highB), (highA,
    lowB), (highA, highB).
    """
    k, dims = lo.shape
    dom_hi = np.asarray(domain.rect.hi, dtype=float)
    split_a = np.minimum(np.maximum(split_a, lo[:, axis_a]), hi[:, axis_a])
    pts, seg, sides, dup_a = _kd_route_stage(points, point_node, [], axis_a, split_a,
                                             point_node, dom_hi[axis_a])
    half = seg * 2 + sides[0]
    split_b = np.minimum(np.maximum(stage_b(pts, half), np.repeat(lo[:, axis_b], 2)),
                         np.repeat(hi[:, axis_b], 2))
    pts, seg, (side_a, side_b), dup_b = _kd_route_stage(pts, seg, sides, axis_b, split_b,
                                                        half, dom_hi[axis_b])

    child_lo = np.repeat(lo[:, None, :], 4, axis=1).astype(float)
    child_hi = np.repeat(hi[:, None, :], 4, axis=1).astype(float)
    child_hi[:, 0, axis_a] = split_a
    child_hi[:, 1, axis_a] = split_a
    child_lo[:, 2, axis_a] = split_a
    child_lo[:, 3, axis_a] = split_a
    split_b2 = split_b.reshape(k, 2)
    child_hi[:, 0, axis_b] = split_b2[:, 0]
    child_lo[:, 1, axis_b] = split_b2[:, 0]
    child_hi[:, 2, axis_b] = split_b2[:, 1]
    child_lo[:, 3, axis_b] = split_b2[:, 1]
    child_of_point = seg * 4 + side_a * 2 + side_b
    return (child_lo.reshape(k * 4, dims), child_hi.reshape(k * 4, dims),
            child_of_point, pts, dup_a or dup_b)


class SplitRule(ABC):
    """Interface of a node-splitting policy."""

    #: Number of children produced per split.
    fanout: int = 4

    @abstractmethod
    def is_data_dependent(self, level: int, height: int) -> bool:
        """Whether splitting a node at ``level`` consumes median budget."""

    @abstractmethod
    def split(
        self,
        rect: Rect,
        points: np.ndarray,
        level: int,
        height: int,
        domain: Domain,
        epsilon_median: float,
        rng: RngLike = None,
    ) -> List[SplitResult]:
        """Split a node at ``level`` into ``fanout`` children.

        ``epsilon_median`` is the median budget available *for this level*
        (zero for data-independent levels).  Implementations must return
        exactly ``fanout`` children whose rectangles partition ``rect``.
        """

    def data_dependent_levels(self, height: int) -> List[int]:
        """Levels (of the node being split) whose splits consume median budget."""
        return [level for level in range(1, height + 1) if self.is_data_dependent(level, height)]

    def level_random_draws(
        self, level: int, height: int, n_nodes: int, epsilon_median: float
    ) -> Optional[int]:
        """Exact ``Generator.random`` uniforms :meth:`split_level` consumes, or ``None``.

        The multi-release builder pre-draws every release's uniforms in
        sequential (release-major) order and replays them into level-stacked
        calls, which is only possible when the per-level consumption is known
        *before* any data is seen.  Rules whose consumption is data dependent
        (sampled medians draw one uniform per point) or that have no vectorized
        path at all return ``None``, sending the sweep down the sequential
        fallback.
        """
        return None

    def split_level(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        points: np.ndarray,
        point_node: np.ndarray,
        level: int,
        height: int,
        domain: Domain,
        epsilon_median: float,
        rng: RngLike = None,
    ) -> "Optional[LevelSplit]":
        """Split **every** node of a level in one vectorized call, if possible.

        ``lo`` / ``hi`` are the ``(n_nodes, d)`` bounds of the level's nodes,
        ``points`` the concatenated points of the level (sorted so each node's
        points are contiguous) and ``point_node[p]`` the node index of point
        ``p``.  Implementations return a :data:`LevelSplit`, or ``None`` when
        no vectorized path applies — the flat builder then falls back to
        per-node :meth:`split` calls in BFS order, so the privacy semantics
        and RNG consumption are identical either way.
        """
        return None


@dataclass(frozen=True)
class QuadSplit(SplitRule):
    """Data-independent split into ``2^d`` equal orthants (quadtree)."""

    name: str = "quad"

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return 4

    def is_data_dependent(self, level: int, height: int) -> bool:
        return False

    def split(self, rect, points, level, height, domain, epsilon_median, rng=None):
        return _partition(list(rect.quad_children()), points, domain)

    def level_random_draws(self, level, height, n_nodes, epsilon_median):
        return 0  # data independent: midpoint splits never touch the RNG

    def split_level(self, lo, hi, points, point_node, level, height, domain,
                    epsilon_median, rng=None):
        """Vectorized midpoint split of a whole level (no RNG, no budget).

        Child ordering and point routing replicate ``quad_children`` +
        ``domain_aware_mask`` exactly: bit ``k`` of the child code is set when
        the point lies at or above the node's midpoint on axis ``k``.  When a
        midpoint is close enough to the domain's upper face that the low
        child's boundary counts as closed, a point lying exactly on it belongs
        to *both* children (the reference's domain-edge semantics) — such
        points are emitted once per matching child via an axis-doubling
        expansion instead of falling back to the per-node path.
        """
        mid = (lo + hi) / 2.0
        domain_hi = np.asarray(domain.rect.hi, dtype=float)
        n_nodes, dims = lo.shape
        n_child = 1 << dims

        child_lo = np.empty((n_nodes, n_child, dims))
        child_hi = np.empty((n_nodes, n_child, dims))
        for code in range(n_child):
            code_lo = lo.copy()
            code_hi = hi.copy()
            for axis in range(dims):
                if (code >> axis) & 1:
                    code_lo[:, axis] = mid[:, axis]
                else:
                    code_hi[:, axis] = mid[:, axis]
            child_lo[:, code, :] = code_lo
            child_hi[:, code, :] = code_hi

        out_points = points
        if points.shape[0]:
            closed = np.isclose(mid, domain_hi)  # (n_nodes, dims) closed low-child faces
            if np.any(closed):
                idx = np.arange(points.shape[0], dtype=np.int64)
                code = np.zeros(points.shape[0], dtype=np.int64)
                for axis in range(dims):
                    node_of = point_node[idx]
                    x = points[idx, axis]
                    mid_ax = mid[node_of, axis]
                    high_bit = (x >= mid_ax).astype(np.int64) << axis
                    dup = closed[node_of, axis] & (x == mid_ax)
                    if np.any(dup):
                        # a point exactly on a closed midpoint face goes low
                        # *and* high on this axis: keep the original low and
                        # append a high copy
                        code_low = code | np.where(dup, 0, high_bit)
                        idx = np.concatenate([idx, idx[dup]])
                        code = np.concatenate([code_low, code[dup] | (1 << axis)])
                    else:
                        code = code | high_bit
                child_of_point = point_node[idx] * n_child + code
                out_points = points[idx]
            else:
                high = points >= mid[point_node]
                code = np.zeros(points.shape[0], dtype=np.int64)
                for axis in range(dims):
                    code |= high[:, axis].astype(np.int64) << axis
                child_of_point = point_node * n_child + code
        else:
            child_of_point = np.empty(0, dtype=np.int64)
        return (
            child_lo.reshape(n_nodes * n_child, dims),
            child_hi.reshape(n_nodes * n_child, dims),
            child_of_point,
            out_points,
        )


@dataclass(frozen=True)
class KDSplit(SplitRule):
    """Flattened (fanout-4) kd split with a private median method.

    ``median_method`` may be a name from :data:`repro.privacy.MEDIAN_METHODS`
    (``"em"``, ``"ss"``, ``"noisymean"``, ``"cell"``, ``"true"``, ``"ems"``,
    ``"sss"``) or any callable with the shared median signature.
    """

    median_method: "str | MedianMethod" = "em"
    first_axis: int = 0
    name: str = "kd"

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return 4

    def is_data_dependent(self, level: int, height: int) -> bool:
        return True

    def _median(self, values: np.ndarray, epsilon: float, lo: float, hi: float, rng) -> float:
        method = resolve_median_method(self.median_method)
        if method is true_median or epsilon > 0:
            return float(method(values, epsilon if epsilon > 0 else 1.0, lo, hi, rng=rng))
        # No budget left for this split: fall back to the midpoint, which is
        # data independent and therefore free.
        return (lo + hi) / 2.0

    def split(self, rect, points, level, height, domain, epsilon_median, rng=None):
        gen = ensure_rng(rng)
        axis_a = self.first_axis % rect.dims
        axis_b = (self.first_axis + 1) % rect.dims
        method_is_private = resolve_median_method(self.median_method) is not true_median
        # The x-split and the y-splits lie on the same root-to-leaf path, so the
        # level's budget is halved between the two stages; the two y-medians act
        # on disjoint halves and compose in parallel, so each gets the full half.
        eps_stage = epsilon_median / 2.0 if method_is_private else 0.0

        values_a = points[:, axis_a] if points.size else np.empty(0)
        split_a = self._median(values_a, eps_stage, rect.lo[axis_a], rect.hi[axis_a], gen)
        low_rect, high_rect = rect.split_at(axis_a, split_a)

        halves = _partition([low_rect, high_rect], points, domain)
        children: List[SplitResult] = []
        for half_rect, half_points in halves:
            values_b = half_points[:, axis_b] if half_points.size else np.empty(0)
            split_b = self._median(values_b, eps_stage, half_rect.lo[axis_b], half_rect.hi[axis_b], gen)
            lo_rect, hi_rect = half_rect.split_at(axis_b, split_b)
            children.extend(_partition([lo_rect, hi_rect], half_points, domain))
        return children

    def level_random_draws(self, level, height, n_nodes, epsilon_median):
        # Per node: one stage-A median plus two stage-B medians, each drawing
        # ``draws_per_call`` uniforms — the exact layout of ``split_level``.
        return _method_level_draws(
            resolve_median_method(self.median_method), n_nodes, 3, epsilon_median
        )

    def split_level(self, lo, hi, points, point_node, level, height, domain,
                    epsilon_median, rng=None):
        """Split a whole level with one batched private median per stage.

        The level's entire randomness is drawn as **one** ``Generator.random``
        vector laid out node-major — per node: stage-A draws, then the two
        stage-B draws (low half first) — which is exactly the stream the
        per-node reference consumes, so the two paths stay bit-for-bit
        interchangeable (see the draw-order contract in
        :mod:`repro.privacy.median`).  Stage B's budget domain on ``axis_b``
        is the parent's interval (unchanged by the stage-A cut), so the whole
        layout is known before any draw happens.

        Returns ``None`` (per-node fallback) only for a custom median callable
        without a batch form, for degenerate axis setups, or for a sampled
        method when points hug the domain's top face (where a split landing
        exactly on a point would shift the one-draw-per-value layout
        mid-stream).
        """
        method = resolve_median_method(self.median_method)
        batch = getattr(method, "batch", None)
        dims = lo.shape[1]
        axis_a = self.first_axis % dims
        axis_b = (self.first_axis + 1) % dims
        if axis_a == axis_b:
            return None  # stage B's domain would depend on stage A's cut
        k = lo.shape[0]
        method_is_private = method is not true_median
        level_eps = _level_epsilons(epsilon_median, k)
        if level_eps is None:
            return None  # mixed zero/positive budgets: no uniform draw layout
        eps_nodes, has_budget = level_eps
        eps_stage = eps_nodes / 2.0 if method_is_private else np.zeros(k)
        needs_draws = method_is_private and has_budget
        draws_per_call = getattr(method, "draws_per_call", None)
        if needs_draws and (batch is None or draws_per_call is None):
            return None

        pts = np.asarray(points, dtype=float)
        seg = np.asarray(point_node, dtype=np.int64)
        n_pts = pts.shape[0]
        dom_hi = np.asarray(domain.rect.hi, dtype=float)
        draws_per_value = int(getattr(method, "draws_per_value", 0)) if needs_draws else 0
        if draws_per_value not in (0, 1):
            return None  # the level draw layout below assumes one draw per value
        if draws_per_value and n_pts and np.any(
                np.isclose(pts[:, axis_a], dom_hi[axis_a])
                | np.isclose(pts[:, axis_b], dom_hi[axis_b])):
            # A split landing exactly on one of these points would be routed to
            # both children by the reference path, shifting this method's
            # one-draw-per-value layout mid-level; bail out before consuming
            # any randomness so the fallback sees an untouched stream.
            return None

        gen = ensure_rng(rng)
        counts_node = (np.bincount(seg, minlength=k).astype(np.int64)
                       if n_pts else np.zeros(k, dtype=np.int64))
        d = int(draws_per_call) if needs_draws else 0

        u_level = node_base = None
        if needs_draws:
            if draws_per_value == 0:
                u_level = gen.random(3 * d * k).reshape(k, 3, d)
            else:
                per_node = 2 * draws_per_value * counts_node + 3 * d
                node_base = np.concatenate(([0], np.cumsum(per_node)))
                u_level = gen.random(int(node_base[-1]))

        def run_batch(sorted_vals, offs, seg_lo, seg_hi, uniforms, eps_vec):
            if not method_is_private:
                return np.asarray(true_median_batch(sorted_vals, offs, 1.0, seg_lo, seg_hi,
                                                    validate=False))
            if not needs_draws:
                # No budget left for these splits: the data-independent (and
                # therefore free) midpoint, as in the scalar ``_median``.
                return (seg_lo + seg_hi) / 2.0
            return np.asarray(batch(sorted_vals, offs, eps_vec, seg_lo, seg_hi,
                                    uniforms=uniforms, validate=False))

        # ---- stage A: one private median per node along axis_a.  The points
        # usually arrive sorted by (node, axis_a) — this rule hands them back
        # that way — so the sort is an O(n) check after the first level.
        vals_a = pts[:, axis_a] if n_pts else np.empty(0)
        offs_a = np.concatenate(([0], np.cumsum(counts_node)))
        order_a = _segment_sorted_order(vals_a, seg, offs_a)
        lo_a, hi_a = lo[:, axis_a], hi[:, axis_a]
        uni_a = None
        if needs_draws:
            if draws_per_value == 0:
                uni_a = u_level[:, 0, :]
            else:
                seg_sorted = np.repeat(np.arange(k, dtype=np.int64), counts_node)
                rank = np.arange(n_pts, dtype=np.int64) - offs_a[:-1][seg_sorted]
                mask_u = u_level[node_base[seg_sorted] + rank]
                em_u = u_level[(node_base[:-1] + counts_node)[:, None]
                               + np.arange(d)[None, :]]
                uni_a = (mask_u, em_u)
        sorted_a = vals_a if order_a is None else vals_a[order_a]
        split_a = run_batch(sorted_a, offs_a, lo_a, hi_a, uni_a, eps_stage)

        # ---- stage B: one private median per half along axis_b (low, then high)
        lo_b = np.repeat(lo[:, axis_b], 2)
        hi_b = np.repeat(hi[:, axis_b], 2)

        def stage_b(pts_b, half):
            n_b = pts_b.shape[0]
            vals_b = pts_b[:, axis_b] if n_b else np.empty(0)
            if n_b:
                order_b = np.argsort(vals_b)  # equal floats are identical: no stability needed
                order_b = order_b[np.argsort(half[order_b], kind="stable")]
            else:
                order_b = np.empty(0, dtype=np.int64)
            counts_b = (np.bincount(half, minlength=2 * k).astype(np.int64)
                        if n_b else np.zeros(2 * k, dtype=np.int64))
            offs_b = np.concatenate(([0], np.cumsum(counts_b)))
            uni_b = None
            if needs_draws:
                if draws_per_value == 0:
                    uni_b = u_level[:, 1:, :].reshape(2 * k, d)
                else:
                    b_start = np.empty(2 * k, dtype=np.int64)
                    b_start[0::2] = node_base[:-1] + counts_node + d
                    b_start[1::2] = b_start[0::2] + counts_b[0::2] + d
                    seg_sorted = np.repeat(np.arange(2 * k, dtype=np.int64), counts_b)
                    rank = np.arange(n_b, dtype=np.int64) - offs_b[:-1][seg_sorted]
                    mask_u = u_level[b_start[seg_sorted] + rank]
                    em_u = u_level[(b_start + counts_b)[:, None] + np.arange(d)[None, :]]
                    uni_b = (mask_u, em_u)
            return run_batch(vals_b[order_b], offs_b, lo_b, hi_b, uni_b,
                             np.repeat(eps_stage, 2))

        child_lo, child_hi, child_of_point, pts, duplicated = _route_kd_level(
            lo, hi, pts, seg, axis_a, axis_b, domain, split_a, stage_b)
        if n_pts and not duplicated:
            # Hand the level back sorted by (child, axis_a): refining the
            # stage-A order by child is a cheap stable integer sort, and it
            # lets the next level's stage A skip its value sort entirely.
            base = np.arange(n_pts, dtype=np.int64) if order_a is None else order_a
            ret = base[np.argsort(child_of_point[base], kind="stable")]
            child_of_point = child_of_point[ret]
            pts = pts[ret]
        return child_lo, child_hi, child_of_point, pts


@dataclass(frozen=True)
class HybridSplit(SplitRule):
    """Data-dependent (kd) splits for the top ``kd_levels`` levels, then quadtree.

    ``kd_levels`` is the paper's switch level ``l``: nodes at levels
    ``h, h-1, ..., h-l+1`` split via private medians, all deeper nodes split at
    midpoints.  The paper finds ``l`` about half the height works best.
    """

    kd_levels: int = 4
    median_method: "str | MedianMethod" = "em"
    name: str = "hybrid"

    def __post_init__(self) -> None:
        if self.kd_levels < 0:
            raise ValueError("kd_levels must be non-negative")

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return 4

    def is_data_dependent(self, level: int, height: int) -> bool:
        return level > height - self.kd_levels

    def split(self, rect, points, level, height, domain, epsilon_median, rng=None):
        if self.is_data_dependent(level, height):
            return KDSplit(median_method=self.median_method).split(
                rect, points, level, height, domain, epsilon_median, rng=rng
            )
        return QuadSplit().split(rect, points, level, height, domain, 0.0, rng=rng)

    def level_random_draws(self, level, height, n_nodes, epsilon_median):
        if self.is_data_dependent(level, height):
            return KDSplit(median_method=self.median_method).level_random_draws(
                level, height, n_nodes, epsilon_median)
        return 0

    def split_level(self, lo, hi, points, point_node, level, height, domain,
                    epsilon_median, rng=None):
        """Vectorize both regimes: batched kd medians above the switch level,
        midpoint quadtree splits below it."""
        if self.is_data_dependent(level, height):
            return KDSplit(median_method=self.median_method).split_level(
                lo, hi, points, point_node, level, height, domain,
                epsilon_median, rng=rng)
        return QuadSplit().split_level(lo, hi, points, point_node, level, height,
                                       domain, 0.0, rng=rng)


def _cell_coverage(e0, e1, left, right):
    """Covered fraction of the cells ``[e0, e1)`` by the intervals ``[left, right)``
    (broadcasting), the per-axis weighting of ``UniformGrid.range_count``."""
    width = e1 - e0
    covered = np.minimum(e1, right) - np.maximum(e0, left)
    return np.clip(covered, 0.0, None) / np.where(width > 0, width, 1.0)


def _covered_cells(edges: np.ndarray, left: np.ndarray, right: np.ndarray):
    """First and last index of the cells each interval ``[left, right)`` covers
    (clamped into the grid: callers discard intervals that miss it)."""
    last = edges.shape[0] - 2
    first = np.clip(np.searchsorted(edges[1:], left, side="right"), 0, last)
    return first, np.clip(np.searchsorted(edges[:-1], right, side="left") - 1, first, last)


#: Rects per :func:`grid_medians` block (answers never depend on the blocking).
_GRID_MEDIAN_BLOCK = 256


def grid_medians(noisy: NoisyGrid, lo: np.ndarray, hi: np.ndarray, axis: int) -> np.ndarray:
    """Approximate median coordinate along ``axis`` of the noisy grid mass in each rect.

    Used by the cell-based kd-tree [26]: the per-cell noisy counts inside a
    rect, floored at zero, are aggregated into a 1-D profile along ``axis``
    (cells partially covered contribute in proportion to their covered area)
    and the half-mass coordinate is interpolated.  ``lo`` / ``hi`` are the
    ``(k, 2)`` bounds of ``k`` rects, answered in one call; a rect missing
    the domain or holding no mass gets its centre.

    On the other axis only a rect's two edge cells are partly covered — every
    interior cell has coverage exactly 1 — so against a prefix-sum table over
    that axis each profile entry costs three reads, and a call is
    ``O(k * cells per axis)`` rather than ``O(k * cells)``.  Every rect's
    answer is bitwise independent of the rest of the batch, so a batch of one
    (:func:`grid_median_along_axis`) is the per-node reference.
    """
    grid = noisy.grid
    dims = grid.domain.dims
    if not 0 <= axis < dims:
        raise ValueError("axis out of range")
    if dims != 2:
        raise ValueError("grid medians need a 2-D grid")
    lo = np.asarray(lo, dtype=float).reshape(-1, 2)
    hi = np.asarray(hi, dtype=float).reshape(-1, 2)
    if lo.shape[0] > _GRID_MEDIAN_BLOCK:
        # Blocks of rects keep every temporary O(block * cells per axis).
        return np.concatenate([
            grid_medians(noisy, lo[s:s + _GRID_MEDIAN_BLOCK], hi[s:s + _GRID_MEDIAN_BLOCK], axis)
            for s in range(0, lo.shape[0], _GRID_MEDIAN_BLOCK)])
    other = 1 - axis
    ov_lo = np.maximum(lo, np.asarray(grid.domain.rect.lo, dtype=float))
    ov_hi = np.minimum(hi, np.asarray(grid.domain.rect.hi, dtype=float))
    inside = np.all(ov_lo < ov_hi, axis=1)
    edges = grid.edges(axis)
    edges_o = grid.edges(other)
    left, right = ov_lo[:, other], ov_hi[:, other]
    j_lo, j_hi = _covered_cells(edges_o, left, right)
    i_lo, i_hi = _covered_cells(edges, ov_lo[:, axis], ov_hi[:, axis])

    # cells[j, i]: clipped count at index j along ``other`` and a + i along
    # ``axis``, cut to the window the rects cover; prefix[j] sums cells[:j].
    # The prefix starts at row 0 and a rect's profile is zero outside its own
    # cells, so no answer depends on how wide the batch's window is.
    a, b = int(i_lo.min()), int(i_hi.max()) + 1
    counts = noisy.counts.T if axis == 0 else noisy.counts
    cells = np.ascontiguousarray(np.clip(counts[:int(j_hi.max()) + 1, a:b], 0.0, None))
    prefix = np.zeros((cells.shape[0] + 1, cells.shape[1]))
    np.cumsum(cells, axis=0, out=prefix[1:])

    f_lo = _cell_coverage(edges_o[j_lo], edges_o[j_lo + 1], left, right)
    f_hi = np.where(j_hi > j_lo,
                    _cell_coverage(edges_o[j_hi], edges_o[j_hi + 1], left, right), 0.0)
    interior = prefix[np.maximum(j_hi, j_lo + 1)] - prefix[j_lo + 1]
    mass = f_lo[:, None] * cells[j_lo] + interior + f_hi[:, None] * cells[j_hi]

    profile = _cell_coverage(edges[a:b], edges[a + 1:b + 1], ov_lo[:, axis, None],
                             ov_hi[:, axis, None]) * mass
    cum = np.cumsum(profile, axis=1)
    total = cum[:, -1]
    half = total / 2.0
    # cum is non-decreasing, so counting entries below ``half`` is searchsorted
    pos = np.minimum(np.count_nonzero(cum < half[:, None], axis=1), b - a - 1)
    rows = np.arange(profile.shape[0])
    prev = np.where(pos > 0, cum[rows, pos - 1], 0.0)
    in_cell = profile[rows, pos]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(in_cell > 0, (half - prev) / in_cell, 0.5)
    frac = np.minimum(np.maximum(frac, 0.0), 1.0)
    idx = a + pos
    value = edges[idx] + frac * (edges[idx + 1] - edges[idx])
    value = np.minimum(np.maximum(value, lo[:, axis]), hi[:, axis])
    centre = (lo[:, axis] + hi[:, axis]) / 2.0
    return np.where(inside & (total > 0), value, centre)


def grid_median_along_axis(noisy: NoisyGrid, rect: Rect, axis: int) -> float:
    """:func:`grid_medians` for a single rect (the per-node reference path)."""
    return float(grid_medians(noisy, np.asarray([rect.lo]), np.asarray([rect.hi]), axis)[0])


@dataclass(frozen=True)
class CellKDSplit(SplitRule):
    """Cell-based kd split [26]: medians read off a pre-paid noisy grid.

    The grid is materialised once (its privacy cost is charged separately by
    the builder), so the splits themselves consume no additional budget and
    ``is_data_dependent`` returns ``False`` — the structure depends on the
    data only through the already-released noisy grid.
    """

    noisy_grid: NoisyGrid = None  # type: ignore[assignment]
    name: str = "kd-cell"

    def __post_init__(self) -> None:
        if self.noisy_grid is None:
            raise ValueError("CellKDSplit requires a NoisyGrid")

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return 4

    def is_data_dependent(self, level: int, height: int) -> bool:
        return False

    def split(self, rect, points, level, height, domain, epsilon_median, rng=None):
        split_x = grid_median_along_axis(self.noisy_grid, rect, axis=0)
        low_rect, high_rect = rect.split_at(0, split_x)
        halves = _partition([low_rect, high_rect], points, domain)
        children: List[SplitResult] = []
        for half_rect, half_points in halves:
            split_y = grid_median_along_axis(self.noisy_grid, half_rect, axis=1)
            lo_rect, hi_rect = half_rect.split_at(1, split_y)
            children.extend(_partition([lo_rect, hi_rect], half_points, domain))
        return children

    def level_random_draws(self, level, height, n_nodes, epsilon_median):
        return 0  # the cuts are read off the released grid: no RNG, no budget

    def split_level(self, lo, hi, points, point_node, level, height, domain,
                    epsilon_median, rng=None):
        """Split a whole level on grid medians: every node on x, then every
        half on y, each stage one :func:`grid_medians` call."""
        split_x = grid_medians(self.noisy_grid, lo, hi, axis=0)
        half_lo = np.repeat(lo, 2, axis=0)
        half_hi = np.repeat(hi, 2, axis=0)
        half_hi[0::2, 0] = split_x
        half_lo[1::2, 0] = split_x
        split_y = grid_medians(self.noisy_grid, half_lo, half_hi, axis=1)
        child_lo, child_hi, child_of_point, pts, _ = _route_kd_level(
            lo, hi, np.asarray(points, dtype=float), np.asarray(point_node, dtype=np.int64),
            0, 1, domain, split_x, lambda pts_b, half: split_y)
        return child_lo, child_hi, child_of_point, pts
