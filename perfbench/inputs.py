"""Benchmark inputs made from the seed: the dataset, query workloads and their true counts.

Queries follow the paper's workload rule (Section 8.1), the same one
:func:`repro.queries.workload.generate_workload` implements: for each of the
four :data:`~repro.queries.workload.PAPER_QUERY_SHAPES`, centres are drawn
uniformly over the TIGER domain, the box is clipped to the domain, and boxes
with zero area or no point inside (closed-box semantics) are rejected.  The
draws are batched and the true counts come from one x-sorted pass per query,
so a 1M-point workload costs about a second instead of a minute; for the same
generator the queries and counts are identical to ``generate_workload``'s,
which :func:`check_against_generate_workload` verifies on a sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass
class Workload:
    """Queries as ``(Q, 4)`` rows ``[lo_x, lo_y, hi_x, hi_y]``, their true counts and shape indices."""

    rows: np.ndarray
    truth: np.ndarray
    shape_index: np.ndarray


class PointIndex:
    """Exact closed-box counting over points sorted by x."""

    def __init__(self, points: np.ndarray) -> None:
        order = np.argsort(points[:, 0], kind="stable")
        self.xs = np.ascontiguousarray(points[order, 0])
        self.ys = np.ascontiguousarray(points[order, 1])

    def count(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Number of points ``p`` with ``lo <= p <= hi`` on both axes, per box."""
        i0 = np.searchsorted(self.xs, lo[:, 0], side="left")
        i1 = np.searchsorted(self.xs, hi[:, 0], side="right")
        out = np.empty(lo.shape[0], dtype=np.int64)
        ys = self.ys
        for k in range(lo.shape[0]):
            strip = ys[i0[k]:i1[k]]
            out[k] = np.count_nonzero((strip >= lo[k, 1]) & (strip <= hi[k, 1]))
        return out


def shape_queries(index: PointIndex, domain, extents: Sequence[float], n_queries: int,
                  gen: np.random.Generator, batch: int = 256) -> tuple:
    """``n_queries`` non-empty boxes of one shape, drawn as ``generate_workload`` draws them."""
    dlo = np.asarray(domain.rect.lo, dtype=float)
    dhi = np.asarray(domain.rect.hi, dtype=float)
    half = np.asarray(extents, dtype=float) / 2.0
    los, his, counts = [], [], []
    found = 0
    while found < n_queries:
        centres = domain.denormalize(gen.random((batch, 2)))
        lo = np.maximum(centres - half, dlo)
        hi = np.maximum(np.minimum(centres + half, dhi), lo)
        keep = np.prod(hi - lo, axis=1) > 0
        lo, hi = lo[keep], hi[keep]
        cnt = index.count(lo, hi)
        nonzero = cnt > 0
        los.append(lo[nonzero])
        his.append(hi[nonzero])
        counts.append(cnt[nonzero])
        found += int(nonzero.sum())
    lo = np.concatenate(los)[:n_queries]
    hi = np.concatenate(his)[:n_queries]
    return lo, hi, np.concatenate(counts)[:n_queries].astype(float)


def make_workload(points: np.ndarray, n_per_shape: int, seed_seq: np.random.SeedSequence,
                  index: "PointIndex | None" = None) -> Workload:
    """``n_per_shape`` queries for each paper shape, one child stream per shape."""
    from repro.geometry.domain import TIGER_DOMAIN
    from repro.queries.workload import PAPER_QUERY_SHAPES

    index = index or PointIndex(points)
    rows, truth, shape_index = [], [], []
    for s, (shape, child) in enumerate(zip(PAPER_QUERY_SHAPES, seed_seq.spawn(len(PAPER_QUERY_SHAPES)))):
        lo, hi, cnt = shape_queries(index, TIGER_DOMAIN, shape.extents, n_per_shape,
                                    np.random.default_rng(child))
        rows.append(np.hstack([lo, hi]))
        truth.append(cnt)
        shape_index.append(np.full(cnt.shape[0], s, dtype=np.int64))
    return Workload(rows=np.vstack(rows), truth=np.concatenate(truth),
                    shape_index=np.concatenate(shape_index))


def make_points(n: int, seed_seq: np.random.SeedSequence) -> np.ndarray:
    """The TIGER-like road-intersection dataset of ``n`` points."""
    from repro.data.tiger import road_intersections

    return road_intersections(n=n, rng=np.random.default_rng(seed_seq))


def check_against_generate_workload(points: np.ndarray, index: PointIndex,
                                    seed_seq: np.random.SeedSequence, n_sample: int = 4) -> List[str]:
    """Compare the batched generator with ``generate_workload`` on a small sample.

    ``generate_workload`` draws one centre per attempt from the same stream,
    so on the same generator both must return the same boxes with the same
    true counts.  Returns a list of mismatch descriptions (empty when equal).
    """
    from repro.geometry.domain import TIGER_DOMAIN
    from repro.queries.workload import PAPER_QUERY_SHAPES, generate_workload

    problems = []
    for shape, child in zip(PAPER_QUERY_SHAPES, seed_seq.spawn(len(PAPER_QUERY_SHAPES))):
        reference = generate_workload(points, TIGER_DOMAIN, shape, n_queries=n_sample,
                                      rng=np.random.default_rng(child))
        lo, hi, cnt = shape_queries(index, TIGER_DOMAIN, shape.extents, n_sample,
                                    np.random.default_rng(child))
        ref_lo = np.array([q.lo for q in reference.queries])
        ref_hi = np.array([q.hi for q in reference.queries])
        if not (np.array_equal(ref_lo, lo) and np.array_equal(ref_hi, hi)):
            problems.append(f"shape {shape.label}: query boxes differ from generate_workload")
        if not np.array_equal(reference.true_answers, cnt):
            problems.append(f"shape {shape.label}: true counts {cnt.tolist()} != "
                            f"generate_workload {reference.true_answers.tolist()}")
    return problems
