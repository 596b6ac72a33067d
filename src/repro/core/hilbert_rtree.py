"""Private Hilbert R-tree (Sections 3.2, 3.3 and 8.2).

The paper treats the Hilbert R-tree as a one-dimensional kd-tree in Hilbert
space: every data point is mapped to its index on a Hilbert curve of order
~18, a private binary tree is built over those indices (split points chosen by
a private median mechanism, counts released with Laplace noise under a budget
strategy), and node regions in the plane are the bounding boxes of the Hilbert
cells each node's index interval spans — a quantity that depends only on the
interval, so releasing it is free.

Internally the structure reuses the generic PSD machinery over a
one-dimensional domain of Hilbert indices: budget strategies, OLS
post-processing and pruning all apply unchanged.  Planar range queries are
answered by decomposing the query rectangle into Hilbert-index intervals
(:meth:`~repro.geometry.hilbert.HilbertCurve.rect_to_ranges`) and summing the
1-D canonical-decomposition answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geometry.domain import Domain
from ..geometry.hilbert import HilbertCurve
from ..geometry.rect import Rect, domain_aware_mask
from ..privacy.median import (
    MedianMethod,
    resolve_median_method,
    true_median,
    true_median_batch,
)
from ..privacy.rng import RngLike, ensure_rng
from .builder import BudgetSplit, build_psd
from .splits import SplitResult, SplitRule
from .tree import PrivateSpatialDecomposition

__all__ = ["BinaryMedianSplit", "PrivateHilbertRTree", "HilbertRTreeReleases",
           "build_private_hilbert_rtree", "build_private_hilbert_rtree_releases",
           "hilbert_interval_bounds"]


@dataclass(frozen=True)
class BinaryMedianSplit(SplitRule):
    """A fanout-2 split at a private median along axis 0 (1-D kd split)."""

    median_method: "str | MedianMethod" = "em"
    name: str = "binary-kd"

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return 2

    def is_data_dependent(self, level: int, height: int) -> bool:
        return True

    def split(self, rect, points, level, height, domain, epsilon_median, rng=None):
        gen = ensure_rng(rng)
        method = resolve_median_method(self.median_method)
        lo, hi = rect.lo[0], rect.hi[0]
        values = points[:, 0] if points.size else np.empty(0)
        if method is true_median:
            split_value = float(method(values, 1.0, lo, hi, rng=gen))
        elif epsilon_median > 0:
            split_value = float(method(values, epsilon_median, lo, hi, rng=gen))
        else:
            split_value = (lo + hi) / 2.0
        left_rect, right_rect = rect.split_at(0, split_value)
        results: List[SplitResult] = []
        for child_rect in (left_rect, right_rect):
            if points.size:
                mask = domain_aware_mask(child_rect, points, domain.rect)
                results.append((child_rect, points[mask]))
            else:
                results.append((child_rect, points))
        return results

    def level_random_draws(self, level, height, n_nodes, epsilon_median):
        from .splits import _method_level_draws

        return _method_level_draws(
            resolve_median_method(self.median_method), n_nodes, 1, epsilon_median
        )

    def split_level(self, lo, hi, points, point_node, level, height, domain,
                    epsilon_median, rng=None):
        """One batched private median per level over the Hilbert indices.

        Same node-major draw layout as :meth:`repro.core.splits.KDSplit.split_level`
        (a single stage here), so the flat build consumes the RNG exactly as
        the per-node reference does.
        """
        from .splits import _level_epsilons, _segment_sorted_order

        method = resolve_median_method(self.median_method)
        batch = getattr(method, "batch", None)
        k = lo.shape[0]
        method_is_private = method is not true_median
        level_eps = _level_epsilons(epsilon_median, k)
        if level_eps is None:
            return None  # mixed zero/positive budgets: no uniform draw layout
        eps_nodes, has_budget = level_eps
        needs_draws = method_is_private and has_budget
        draws_per_call = getattr(method, "draws_per_call", None)
        if needs_draws and (batch is None or draws_per_call is None):
            return None

        pts = np.asarray(points, dtype=float)
        seg = np.asarray(point_node, dtype=np.int64)
        n_pts = pts.shape[0]
        dom_hi = float(domain.rect.hi[0])
        draws_per_value = int(getattr(method, "draws_per_value", 0)) if needs_draws else 0
        if draws_per_value not in (0, 1):
            return None  # the level draw layout below assumes one draw per value
        if draws_per_value and n_pts and np.any(np.isclose(pts[:, 0], dom_hi)):
            return None  # see KDSplit.split_level: keep the draw layout static

        gen = ensure_rng(rng)
        counts = (np.bincount(seg, minlength=k).astype(np.int64)
                  if n_pts else np.zeros(k, dtype=np.int64))
        offs = np.concatenate(([0], np.cumsum(counts)))
        vals = pts[:, 0] if n_pts else np.empty(0)
        # This rule hands each level back sorted by (child, value), so after
        # the first level the sort degenerates to an O(n) check.
        order = _segment_sorted_order(vals, seg, offs)
        sorted_vals = vals if order is None else vals.take(order)
        lo0, hi0 = lo[:, 0], hi[:, 0]

        if not method_is_private:
            split = np.asarray(true_median_batch(sorted_vals, offs, 1.0, lo0, hi0,
                                                 validate=False))
        elif not needs_draws:
            split = (lo0 + hi0) / 2.0
        else:
            d = int(draws_per_call)
            if draws_per_value == 0:
                uniforms = gen.random(d * k).reshape(k, d)
            else:
                per_node = draws_per_value * counts + d
                base = np.concatenate(([0], np.cumsum(per_node)))
                u = gen.random(int(base[-1]))
                seg_sorted = np.repeat(np.arange(k, dtype=np.int64), counts)
                rank = np.arange(n_pts, dtype=np.int64) - offs[:-1][seg_sorted]
                uniforms = (u[base[seg_sorted] + rank],
                            u[(base[:-1] + counts)[:, None] + np.arange(d)[None, :]])
            split = np.asarray(batch(sorted_vals, offs, eps_nodes, lo0, hi0,
                                     uniforms=uniforms, validate=False))
        split = np.minimum(np.maximum(split, lo0), hi0)  # Rect.split_at clamp

        duplicated = False
        if n_pts:
            values = pts[:, 0]
            cut = split.take(seg)
            side = (values >= cut).astype(np.int64)
            closed = np.isclose(split, dom_hi)
            dup = closed.take(seg) & (values == cut) if np.any(closed) else None
            if dup is not None and np.any(dup):
                duplicated = True
                side[dup] = 0
                pts = np.concatenate([pts, pts[dup]], axis=0)
                seg = np.concatenate([seg, seg[dup]])
                side = np.concatenate(
                    [side, np.ones(int(np.count_nonzero(dup)), dtype=np.int64)])
        else:
            side = np.empty(0, dtype=np.int64)

        child_lo = np.repeat(lo[:, None, :], 2, axis=1).astype(float)
        child_hi = np.repeat(hi[:, None, :], 2, axis=1).astype(float)
        child_hi[:, 0, 0] = split
        child_lo[:, 1, 0] = split
        child_of_point = seg * 2 + side
        if order is not None and not duplicated:
            # Within a node sorted by value the side is monotone, so in value
            # order the level comes back grouped by child and sorted by value
            # within each child: the next level skips both sorts.
            child_of_point = child_of_point.take(order)
            pts = pts.take(order, axis=0)
        return (child_lo.reshape(2 * k, 1), child_hi.reshape(2 * k, 1),
                child_of_point, pts)


def hilbert_interval_bounds(lo_vals, hi_vals, curve: HilbertCurve):
    """Inclusive integer index intervals of node rects over Hilbert space.

    The single source of the floor/ceil-1 derivation (with clamps into the
    curve's index range) shared by :meth:`PrivateHilbertRTree.node_bbox`,
    :meth:`PrivateHilbertRTree.node_bboxes` and the flat planar engine
    compiler — the planar boxes served, listed and compiled must all come
    from identical intervals.
    """
    lo_idx = np.clip(np.floor(np.asarray(lo_vals, dtype=float)).astype(np.int64),
                     0, curve.max_index)
    hi_idx = np.ceil(np.asarray(hi_vals, dtype=float)).astype(np.int64) - 1
    hi_idx = np.maximum(lo_idx, np.minimum(hi_idx, curve.max_index))
    return lo_idx, hi_idx


@dataclass
class PrivateHilbertRTree:
    """A released private Hilbert R-tree.

    Attributes
    ----------
    psd:
        The underlying one-dimensional PSD over Hilbert indices.
    curve:
        The (public) Hilbert curve used for the mapping.
    domain:
        The planar data domain.
    """

    psd: PrivateSpatialDecomposition
    curve: HilbertCurve
    domain: Domain
    name: str = "hilbert-r"

    def __post_init__(self) -> None:
        # Planar bounding boxes of node intervals are pure functions of the
        # (public) intervals; they are computed lazily per node and cached.
        self._bbox_cache: dict = {}

    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self.psd.height

    def node_count(self) -> int:
        return self.psd.node_count()

    def postprocess(self) -> "PrivateHilbertRTree":
        """Apply the OLS post-processing to the underlying 1-D tree."""
        self.psd.postprocess()
        return self

    def prune(self, threshold: float) -> "PrivateHilbertRTree":
        """Prune low-count subtrees of the underlying 1-D tree."""
        self.psd.prune(threshold)
        return self

    def compile(self):
        """The memoised planar flat engine over the node bounding boxes.

        The compiled engine answers planar queries with the same semantics as
        :meth:`range_query`; it is rebuilt automatically after the 1-D tree is
        post-processed or pruned (through these wrappers or directly).
        """
        from ..engine.flat import compiled_planar_engine

        return compiled_planar_engine(self)

    # ------------------------------------------------------------------
    def node_bbox(self, node) -> Rect:
        """Planar bounding box of a node's Hilbert-index interval (cached).

        The box depends only on the interval and the public curve, never on
        the data, so computing and releasing it is privacy-free.  It is how
        the paper maps the 1-D tree back into an R-tree in the plane.
        """
        key = id(node)
        cached = self._bbox_cache.get(key)
        if cached is not None:
            return cached
        lo_idx, hi_idx = hilbert_interval_bounds(node.rect.lo[:1], node.rect.hi[:1],
                                                 self.curve)
        bbox = self.curve.range_bbox(int(lo_idx[0]), int(hi_idx[0]))
        self._bbox_cache[key] = bbox
        return bbox

    def range_query(self, query: Rect, backend: str = "recursive") -> float:
        """Estimated number of points inside a planar query rectangle.

        R-tree-style canonical decomposition over the node bounding boxes: a
        node whose box lies inside the query contributes its whole released
        count; boxes that merely intersect are descended into; partially
        covered leaves contribute under a uniformity assumption proportional
        to the overlapped fraction of their box.

        ``backend="flat"`` serves the answer from the compiled planar engine
        (see :meth:`compile`).
        """
        from .query import _check_backend, _has_released_count

        if _check_backend(backend) == "flat":
            return self.compile().range_query(query)
        total = 0.0
        stack = [self.psd.root]
        while stack:
            node = stack.pop()
            bbox = self.node_bbox(node)
            if not bbox.intersects(query):
                continue
            has_count = _has_released_count(self.psd, node)
            if query.contains_rect(bbox) and has_count:
                total += node.released_count
                continue
            if node.is_leaf:
                if has_count and bbox.area > 0:
                    total += node.released_count * bbox.intersection_area(query) / bbox.area
                continue
            stack.extend(node.children)
        return float(total)

    def range_query_intervals(self, query: Rect, max_ranges: int = 1024) -> float:
        """Alternative query path: decompose the query into Hilbert intervals.

        Exposed mainly for testing the two formulations against each other;
        when ``max_ranges`` is too small the decomposition over-approximates
        the query region and the estimate is biased upwards.
        """
        intervals = self.curve.rect_to_ranges(query, max_ranges=max_ranges)
        total = 0.0
        for lo, hi in intervals:
            interval_rect = Rect((float(lo),), (float(hi) + 1.0,))
            total += self.psd.range_query(interval_rect)
        return total

    def node_bboxes(self) -> List[Tuple[int, Rect]]:
        """The planar bounding boxes of every node's Hilbert interval.

        These are the R-tree rectangles the paper describes releasing; they
        depend only on the intervals, never on the data.  The boxes come from
        **one** vectorized :meth:`~repro.geometry.hilbert.HilbertCurve.range_bboxes`
        pass over the node interval arrays — a flat-native tree never
        materialises pointer nodes for this.
        """
        flat = self.psd.flat_tree
        if flat is not None:
            levels = flat.level
            lo_vals, hi_vals = flat.lo[:, 0], flat.hi[:, 0]
        else:
            from .flatbuild import bfs_order

            nodes = bfs_order(self.psd.root)  # the canonical (BFS) node order
            levels = np.array([node.level for node in nodes], dtype=np.int64)
            lo_vals = np.array([node.rect.lo[0] for node in nodes])
            hi_vals = np.array([node.rect.hi[0] for node in nodes])
        lo_idx, hi_idx = hilbert_interval_bounds(lo_vals, hi_vals, self.curve)
        box_lo, box_hi = self.curve.range_bboxes(lo_idx, hi_idx)
        return [(int(level), Rect(tuple(b_lo), tuple(b_hi)))
                for level, b_lo, b_hi in zip(levels, box_lo, box_hi)]


def build_private_hilbert_rtree(
    points: np.ndarray,
    domain: Domain,
    height: int,
    epsilon: float,
    order: int = 18,
    median_method: "str | MedianMethod" = "em",
    count_budget: str = "geometric",
    count_fraction: float = 0.7,
    postprocess: bool = True,
    prune_threshold: Optional[float] = None,
    rng: RngLike = None,
    layout: str = "flat",
) -> PrivateHilbertRTree:
    """Build a private Hilbert R-tree.

    Parameters
    ----------
    height:
        Number of binary levels of the index tree (the tree has ``2^height``
        leaves).  To compare against a fanout-4 tree of height ``h`` use
        ``height = 2 * h`` so both have the same number of leaves.
    order:
        Hilbert curve order; the paper finds any order in 16–24 works and uses
        18.
    layout:
        ``"flat"`` (default, level-vectorized) or ``"pointer"`` (per-node
        reference); identical output for the same seed.
    """
    if domain.dims != 2:
        raise ValueError("the private Hilbert R-tree is defined for two-dimensional data")
    gen = ensure_rng(rng)
    pts = domain.validate_points(points)
    curve = HilbertCurve(order=order, domain=domain.rect)

    values = curve.encode(pts).astype(float).reshape(-1, 1) if pts.size else np.empty((0, 1))
    hilbert_domain = Domain.from_bounds((0.0,), (float(curve.max_index) + 1.0,), name="hilbert-index")

    psd = build_psd(
        points=values,
        domain=hilbert_domain,
        height=height,
        split_rule=BinaryMedianSplit(median_method=median_method),
        epsilon=epsilon,
        count_budget=count_budget,
        budget_split=BudgetSplit(count_fraction=count_fraction),
        rng=gen,
        name="hilbert-r",
        postprocess=postprocess,
        prune_threshold=prune_threshold,
        layout=layout,
    )
    return PrivateHilbertRTree(psd=psd, curve=curve, domain=domain)


@dataclass
class HilbertRTreeReleases:
    """``R`` private Hilbert R-tree releases over one (shared) Hilbert encoding.

    Thin planar wrapper over a :class:`~repro.core.builder.PSDReleaseBatch` of
    the underlying 1-D index trees: the curve, the encoded values and the
    planar domain are public and identical across releases, so only the index
    tree carries the release axis.  :meth:`release` wraps one release back
    into a :class:`PrivateHilbertRTree` for planar serving.
    """

    batch: "object"  # PSDReleaseBatch (kept untyped to avoid the import cycle)
    curve: HilbertCurve
    domain: Domain
    name: str = "hilbert-r"

    @property
    def n_releases(self) -> int:
        return self.batch.n_releases

    def release(self, r: int) -> PrivateHilbertRTree:
        return PrivateHilbertRTree(psd=self.batch.release(r), curve=self.curve,
                                   domain=self.domain, name=self.name)

    def releases(self) -> List[PrivateHilbertRTree]:
        return [self.release(r) for r in range(self.n_releases)]


def build_private_hilbert_rtree_releases(
    points: np.ndarray,
    domain: Domain,
    height: int,
    epsilons,
    repetitions: int = 1,
    order: int = 18,
    median_method: "str | MedianMethod" = "em",
    count_budget: str = "geometric",
    count_fraction: float = 0.7,
    postprocess: bool = True,
    prune_threshold: Optional[float] = None,
    rng: RngLike = None,
) -> HilbertRTreeReleases:
    """Build ``len(epsilons) * repetitions`` Hilbert R-tree releases in one pass.

    The (public, deterministic) Hilbert encoding of the points is computed
    once and shared; the private index trees come from
    :func:`~repro.core.builder.build_psd_releases`, so release ``r`` is
    bitwise identical to the ``r``-th sequential
    :func:`build_private_hilbert_rtree` call with the same seeded generator.
    """
    from .builder import build_psd_releases

    if domain.dims != 2:
        raise ValueError("the private Hilbert R-tree is defined for two-dimensional data")
    gen = ensure_rng(rng)
    pts = domain.validate_points(points)
    curve = HilbertCurve(order=order, domain=domain.rect)
    values = curve.encode(pts).astype(float).reshape(-1, 1) if pts.size else np.empty((0, 1))
    hilbert_domain = Domain.from_bounds((0.0,), (float(curve.max_index) + 1.0,),
                                        name="hilbert-index")
    batch = build_psd_releases(
        points=values,
        domain=hilbert_domain,
        height=height,
        split_rule=BinaryMedianSplit(median_method=median_method),
        epsilons=epsilons,
        repetitions=repetitions,
        count_budget=count_budget,
        budget_split=BudgetSplit(count_fraction=count_fraction),
        rng=gen,
        name="hilbert-r",
        postprocess=postprocess,
        prune_threshold=prune_threshold,
    )
    return HilbertRTreeReleases(batch=batch, curve=curve, domain=domain)
