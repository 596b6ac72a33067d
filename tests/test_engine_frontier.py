"""Bitwise parity of the batch frontier walk with a frozen reference copy.

:mod:`repro.engine.batch` answers queries (``batch_query``) and compiles
query matrices (``compile_query_matrix``) from one shared frontier walk that
gathers with row ``take`` and reduces over dims column by column.  The
oracles below are frozen copies of the earlier two-loop evaluator (2-D fancy
indexing, ``np.all(..., axis=1)``, boolean-mask compaction).  Both paths
must give the same bits: estimates, ``n(Q)``, variances and every CSR array,
on every tree family, storage precision and dimensionality.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import build_private_hilbert_rtree, build_private_kdtree, build_private_quadtree
from repro.data import uniform_points
from repro.engine import (
    FlatPSD,
    batch_query,
    compile_hilbert_rtree,
    compile_psd,
    compile_query_matrix,
    load_engine,
    save_engine,
)
from repro.engine.batch import _frontier_levels, queries_to_arrays
from repro.engine.flat import expand_ranges
from repro.geometry import Domain


# ----------------------------------------------------------------------
# Frozen oracle: the two-loop evaluator this walk replaced
# ----------------------------------------------------------------------
def _oracle_walk(engine, qlo, qhi, sizes=None):
    """Yield ``(full_q, full_n, partial_q, partial_n, fraction)`` per wavefront;
    append each wavefront's pair count to ``sizes`` when given."""
    n_queries = qlo.shape[0]
    if n_queries == 0 or engine.n_nodes == 0:
        return
    q_idx = np.arange(n_queries, dtype=np.int64)
    n_idx = np.zeros(n_queries, dtype=np.int64)
    while q_idx.size:
        if sizes is not None:
            sizes.append(int(q_idx.size))
        node_lo = engine.lo[n_idx]
        node_hi = engine.hi[n_idx]
        cur_qlo = qlo[q_idx]
        cur_qhi = qhi[q_idx]

        intersects = np.all((node_hi > cur_qlo) & (cur_qhi > node_lo), axis=1)
        if not intersects.all():
            q_idx = q_idx[intersects]
            n_idx = n_idx[intersects]
            node_lo = node_lo[intersects]
            node_hi = node_hi[intersects]
            cur_qlo = cur_qlo[intersects]
            cur_qhi = cur_qhi[intersects]
            if not q_idx.size:
                break

        contained = np.all((node_lo >= cur_qlo) & (node_hi <= cur_qhi), axis=1)
        has_count = engine.has_count[n_idx]
        leaf = engine.is_leaf[n_idx]

        full = contained & has_count
        partial = leaf & has_count & ~contained
        pn = n_idx[partial]
        node_area = engine.area[pn]
        overlap = np.prod(
            np.minimum(node_hi[partial], cur_qhi[partial])
            - np.maximum(node_lo[partial], cur_qlo[partial]),
            axis=1,
        )
        ok = (node_area > 0) & (overlap > 0)
        yield q_idx[full], n_idx[full], q_idx[partial][ok], pn[ok], overlap[ok] / node_area[ok]

        descend = ~full & ~leaf
        starts = engine.child_start[n_idx[descend]]
        ends = engine.child_end[n_idx[descend]]
        q_idx, n_idx = np.repeat(q_idx[descend], ends - starts), expand_ranges(starts, ends)


def _oracle_query(engine, qlo, qhi, use_uniformity):
    n_queries = qlo.shape[0]
    estimates = np.zeros(n_queries)
    touched = np.zeros(n_queries, dtype=np.int64)
    variances = np.zeros(n_queries)
    for fq, fn, pq, pn, fraction in _oracle_walk(engine, qlo, qhi):
        if fq.size:
            released = engine.released[fn].astype(np.float64, copy=False)
            estimates += np.bincount(fq, weights=released, minlength=n_queries)
            touched += np.bincount(fq, minlength=n_queries)
            variances += np.bincount(
                fq, weights=engine.level_variance[engine.level[fn]], minlength=n_queries
            )
        if pq.size:
            if use_uniformity:
                released = engine.released[pn].astype(np.float64, copy=False)
                estimates += np.bincount(pq, weights=released * fraction, minlength=n_queries)
            touched += np.bincount(pq, minlength=n_queries)
            variances += np.bincount(
                pq, weights=fraction * fraction * engine.level_variance[engine.level[pn]],
                minlength=n_queries,
            )
    return estimates, touched, variances


def _oracle_matrix(engine, qlo, qhi):
    q_parts, n_parts, w_parts, p_parts = [], [], [], []
    for fq, fn, pq, pn, fraction in _oracle_walk(engine, qlo, qhi):
        if fq.size:
            q_parts.append(fq)
            n_parts.append(fn)
            w_parts.append(np.ones(fq.size))
            p_parts.append(np.zeros(fq.size, dtype=bool))
        if pq.size:
            q_parts.append(pq)
            n_parts.append(pn)
            w_parts.append(fraction)
            p_parts.append(np.ones(pq.size, dtype=bool))
    if q_parts:
        q_all = np.concatenate(q_parts)
        order = np.argsort(q_all, kind="stable")
        q_all = q_all[order]
        indices = np.concatenate(n_parts)[order]
        weights = np.concatenate(w_parts)[order]
        partial = np.concatenate(p_parts)[order]
    else:
        q_all = np.empty(0, dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)
        weights = np.empty(0)
        partial = np.empty(0, dtype=bool)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(q_all, minlength=qlo.shape[0]))))
    return indptr, indices, weights, partial


# ----------------------------------------------------------------------
# Engines and workloads
# ----------------------------------------------------------------------
def _orthant_engine(dims: int, height: int, seed: int) -> FlatPSD:
    """A complete ``2^dims``-ary midpoint tree on the unit cube, built directly
    in BFS form (the builders only make planar trees), with noisy-looking
    counts and a few count-less nodes."""
    rng = np.random.default_rng(seed)
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=dims)))
    los, his, levels = [np.zeros(dims)], [np.ones(dims)], [height]
    starts, ends = [], []
    i = 0
    while i < len(los):
        starts.append(len(los))
        if levels[i] > 0:
            half = (his[i] - los[i]) / 2.0
            for corner in corners:
                lo = los[i] + corner * half
                los.append(lo)
                his.append(lo + half)
                levels.append(levels[i] - 1)
        ends.append(len(los))
        i += 1
    lo, hi = np.array(los), np.array(his)
    n = lo.shape[0]
    has_count = rng.random(n) > 0.1
    has_count[0] = True
    released = np.where(has_count, rng.normal(40.0, 25.0, n), 0.0)
    count_epsilons = np.linspace(0.2, 0.6, height + 1)
    return FlatPSD(
        lo=lo, hi=hi, level=np.array(levels, dtype=np.int64), released=released,
        has_count=has_count, is_leaf=np.array(starts) == np.array(ends),
        child_start=np.array(starts, dtype=np.int64), child_end=np.array(ends, dtype=np.int64),
        area=np.prod(hi - lo, axis=1), count_epsilons=count_epsilons,
        level_variance=2.0 / count_epsilons ** 2, height=height, fanout=2 ** dims,
        domain_lo=np.zeros(dims), domain_hi=np.ones(dims),
    ).validate()


def _memmap_float32(engine: FlatPSD, path) -> FlatPSD:
    save_engine(engine, str(path), format="mmap", precision="float32")
    loaded = load_engine(str(path))
    assert loaded.mapped_nbytes() > 0
    assert loaded.released.dtype == np.float32
    assert loaded.child_start.dtype == np.int32
    return loaded


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    domain = Domain.unit(2)
    points = uniform_points(3_000, domain, rng=np.random.default_rng(5))
    quad = compile_psd(build_private_quadtree(points, domain, height=5, epsilon=1.0,
                                              variant="quad-opt", rng=1))
    kd = compile_psd(build_private_kdtree(points, domain, height=4, epsilon=1.0,
                                          variant="kd-hybrid", rng=2))
    kd_pruned = compile_psd(build_private_kdtree(points, domain, height=4, epsilon=1.0,
                                                 variant="kd-hybrid", prune_threshold=40.0,
                                                 rng=2))
    assert kd_pruned.n_nodes < kd.n_nodes
    hilbert = build_private_hilbert_rtree(points, domain, height=6, epsilon=1.0, rng=3)
    path = tmp_path_factory.mktemp("frontier") / "quad32.flatpsd"
    return {
        "quad-opt": quad,
        "kd-hybrid": kd,
        "kd-hybrid-pruned": kd_pruned,
        "hilbert-planar": compile_hilbert_rtree(hilbert),
        "hilbert-index-1d": compile_psd(hilbert.psd),
        "quad-opt-float32-mmap": _memmap_float32(quad, path),
        "orthant-1d": _orthant_engine(1, 6, seed=7),
        "orthant-3d": _orthant_engine(3, 3, seed=8),
    }


def _workload(engine: FlatPSD, n: int, seed: int) -> np.ndarray:
    """``(Q, 2d)`` rows: random boxes plus the edge cases the walk must survive."""
    rng = np.random.default_rng(seed)
    dlo = np.asarray(engine.domain_lo, dtype=float)
    dhi = np.asarray(engine.domain_hi, dtype=float)
    width = dhi - dlo
    a = dlo + rng.random((n, dlo.size)) * width
    b = dlo + rng.random((n, dlo.size)) * width
    rows = [np.hstack([np.minimum(a, b), np.maximum(a, b)])]
    mid = dlo + width / 2.0
    slab_hi = dhi.copy()
    slab_hi[0] = dlo[0] + width[0] / 3.0
    rows += [
        np.hstack([dlo, dhi])[None],                       # whole domain: all-full path
        np.hstack([dlo, mid])[None],                       # exactly the first child's box
        np.hstack([mid, mid])[None],                       # zero-area point query
        np.hstack([np.where(np.arange(dlo.size) == 0, slab_hi, dlo), slab_hi])[None],  # flat slab
        np.hstack([dhi + width, dhi + 2 * width])[None],   # wholly outside the domain
        np.hstack([dlo - width, dlo])[None],               # touches the domain's lower face only
        np.hstack([mid, dhi + width])[None],               # straddles the upper faces
    ]
    return np.vstack(rows)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


ENGINE_NAMES = ("quad-opt", "kd-hybrid", "kd-hybrid-pruned", "hilbert-planar",
                "hilbert-index-1d", "quad-opt-float32-mmap", "orthant-1d", "orthant-3d")


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ENGINE_NAMES)
@pytest.mark.parametrize("use_uniformity", [True, False])
@pytest.mark.parametrize("chunk_queries", [None, 1, 7])
def test_batch_query_bitwise_equals_oracle(engines, name, use_uniformity, chunk_queries):
    engine = engines[name]
    rows = _workload(engine, 60, seed=11)
    dims = engine.dims
    want = _oracle_query(engine, rows[:, :dims], rows[:, dims:], use_uniformity)
    got = batch_query(engine, rows, use_uniformity=use_uniformity, chunk_queries=chunk_queries)
    assert _same(got.estimates, want[0])
    assert _same(got.nodes_touched, want[1])
    assert _same(got.variances, want[2])
    # The edge rows really are edge cases: nothing outside, everything for the domain.
    assert got.nodes_touched[-3] == 0 and got.estimates[-3] == 0.0
    assert got.nodes_touched[-2] == 0
    assert got.nodes_touched[-7] >= 1


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_query_matrix_bitwise_equals_oracle(engines, name):
    engine = engines[name]
    rows = _workload(engine, 60, seed=12)
    dims = engine.dims
    indptr, indices, weights, partial = _oracle_matrix(engine, rows[:, :dims], rows[:, dims:])
    matrix = compile_query_matrix(engine, rows)
    assert _same(matrix.indptr, indptr)
    assert _same(matrix.indices, indices)
    assert _same(matrix.weights, weights)
    assert _same(matrix.partial, partial)
    assert _same(matrix.nodes_touched(), batch_query(engine, rows).nodes_touched)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_walk_examines_the_same_pairs(engines, name):
    """Same wavefront sizes as the oracle: no pair is dropped or expanded twice
    (a non-intersecting node expanded anyway would credit nothing, so only
    the sizes can show it)."""
    engine = engines[name]
    qlo, qhi = queries_to_arrays(_workload(engine, 60, seed=13), engine.dims)
    sizes = []
    for _ in _oracle_walk(engine, qlo, qhi, sizes):
        pass
    assert [wave[0] for wave in _frontier_levels(engine, qlo, qhi)] == sizes


@pytest.mark.parametrize("name", ["quad-opt", "orthant-1d", "orthant-3d"])
def test_empty_batch(engines, name):
    engine = engines[name]
    empty = np.empty((0, 2 * engine.dims))
    result = batch_query(engine, empty, chunk_queries=7)
    assert len(result) == 0
    assert result.estimates.dtype == np.float64 and result.nodes_touched.dtype == np.int64
    matrix = compile_query_matrix(engine, empty)
    indptr, indices, weights, partial = _oracle_matrix(engine, empty[:, :engine.dims],
                                                       empty[:, engine.dims:])
    assert _same(matrix.indptr, indptr) and _same(matrix.indices, indices)
    assert _same(matrix.weights, weights) and _same(matrix.partial, partial)


def test_batch_with_only_unanswerable_queries(engines):
    """Zero-area and outside-domain queries alone: empty credits, empty matrix rows."""
    engine = engines["orthant-3d"]
    rows = np.array([[0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
                     [2.0, 2.0, 2.0, 3.0, 3.0, 3.0],
                     [0.2, 0.2, 0.2, 0.2, 0.9, 0.9]])
    result = batch_query(engine, rows)
    assert np.all(result.nodes_touched == 0) and np.all(result.estimates == 0.0)
    matrix = compile_query_matrix(engine, rows)
    assert matrix.nnz == 0 and _same(matrix.indptr, np.zeros(4, dtype=np.int64))
