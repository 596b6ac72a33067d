"""Tests for the ragged-batch private medians and the level-batched builds.

Two contracts are under test:

* **batch == sequential, bitwise** — ``method_batch(sorted_values, offsets,
  epsilons, los, his, rng)`` must equal the per-segment scalar calls bit for
  bit *and* leave the generator in the identical state, for every method
  (EM / SS / cell / NM / true and the sampled variants) over ragged level
  shapes including empty, single-point and all-equal segments;
* **layout parity with zero fallback** — the kd / hybrid / Hilbert builders
  run their data-dependent levels through the batched medians (never the
  per-node fallback) and stay bit-for-bit interchangeable with the pointer
  reference, including the Hilbert R-tree's vectorized planar compile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_psd
from repro.core.hilbert_rtree import build_private_hilbert_rtree
from repro.core.kdtree import build_private_kdtree
from repro.core.splits import HybridSplit, KDSplit
from repro.data import uniform_points
from repro.engine.cache import CachedEngine
from repro.engine.flat import compile_hilbert_rtree, compile_psd
from repro.geometry import Domain, Rect
from repro.geometry.hilbert import HilbertCurve
from repro.privacy import median as median_module
from repro.privacy.median import (
    MEDIAN_METHODS,
    exponential_mechanism_median_batch,
    smooth_sensitivity_median,
    smooth_sensitivity_median_batch,
    smooth_sensitivity_of_median,
)

DOMAIN = Domain.unit(2)
POINTS = uniform_points(1_500, DOMAIN, rng=np.random.default_rng(7))

ALL_METHODS = ["true", "em", "ss", "cell", "noisymean", "ems", "sss"]


def ragged_batch(seed: int):
    """Ragged segments covering empty, singleton, all-equal and generic shapes."""
    gen = np.random.default_rng(seed)
    segments = [
        np.empty(0),
        np.array([3.25]),
        np.full(9, 5.0),
        np.sort(gen.uniform(0.0, 10.0, 40)),
        np.sort(gen.uniform(2.0, 8.0, 137)),
        np.empty(0),
        np.sort(gen.uniform(4.9, 5.1, 11)),
    ]
    los = np.array([0.0, 0.0, 5.0, 0.0, 1.0, 2.0, 4.5])
    his = np.array([10.0, 10.0, 5.0, 10.0, 9.0, 2.0, 5.5])
    eps = np.array([0.5, 1.0, 0.2, 0.7, 0.05, 2.0, 0.9])
    values = np.concatenate(segments)
    offsets = np.concatenate(([0], np.cumsum([len(s) for s in segments])))
    return segments, values, offsets, eps, los, his


class TestBatchBitwiseParity:
    @pytest.mark.parametrize("method_name", ALL_METHODS)
    @pytest.mark.parametrize("data_seed", [0, 42])
    @pytest.mark.parametrize("rng_seed", [7, 1234])
    def test_batch_equals_sequential(self, method_name, data_seed, rng_seed):
        method = MEDIAN_METHODS[method_name]
        segments, values, offsets, eps, los, his = ragged_batch(data_seed)
        g_batch = np.random.default_rng(rng_seed)
        g_seq = np.random.default_rng(rng_seed)
        batch = method.batch(values, offsets, eps, los, his, rng=g_batch)
        sequential = np.array([
            method(segments[i], eps[i], los[i], his[i], rng=g_seq)
            for i in range(len(segments))
        ])
        assert np.array_equal(batch, sequential)
        # The batch must also consume the stream exactly like the loop did.
        assert g_batch.bit_generator.state == g_seq.bit_generator.state

    @pytest.mark.parametrize("kwargs", [
        {"delta": 1e-3}, {"max_k": 4}, {"delta": 1e-2, "max_k": 2},
    ])
    def test_ss_kwargs_forwarded(self, kwargs):
        segments, values, offsets, eps, los, his = ragged_batch(3)
        g1, g2 = np.random.default_rng(5), np.random.default_rng(5)
        batch = smooth_sensitivity_median_batch(values, offsets, eps, los, his,
                                                rng=g1, **kwargs)
        sequential = np.array([
            smooth_sensitivity_median(segments[i], eps[i], los[i], his[i], rng=g2, **kwargs)
            for i in range(len(segments))
        ])
        assert np.array_equal(batch, sequential)

    def test_cell_n_cells_forwarded(self):
        method = MEDIAN_METHODS["cell"]
        segments, values, offsets, eps, los, his = ragged_batch(9)
        g1, g2 = np.random.default_rng(2), np.random.default_rng(2)
        batch = method.batch(values, offsets, eps, los, his, rng=g1, n_cells=64)
        sequential = np.array([
            method(segments[i], eps[i], los[i], his[i], rng=g2, n_cells=64)
            for i in range(len(segments))
        ])
        assert np.array_equal(batch, sequential)
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_scalar_epsilon_broadcasts(self):
        _, values, offsets, _, los, his = ragged_batch(1)
        a = exponential_mechanism_median_batch(values, offsets, 0.5, los, his,
                                               rng=np.random.default_rng(0))
        b = exponential_mechanism_median_batch(values, offsets, np.full(7, 0.5), los, his,
                                               rng=np.random.default_rng(0))
        assert np.array_equal(a, b)

    def test_smooth_sensitivity_of_median_matches_kernel(self, rng):
        values = np.sort(rng.uniform(0.0, 100.0, 301))
        sigma = smooth_sensitivity_of_median(values, 0.4, 1e-4, 0.0, 100.0)
        batchless = smooth_sensitivity_median_batch(
            values, np.array([0, values.size]), 0.4, 0.0, 100.0,
            uniforms=np.array([[0.5]]))  # Lap(0.5 -> 0): pure median + 0 * sigma
        assert 0 < sigma <= 100.0
        assert 0.0 <= batchless[0] <= 100.0

    def test_rejects_bad_offsets_and_unsorted_values(self):
        with pytest.raises(ValueError, match="offsets"):
            exponential_mechanism_median_batch(np.array([1.0, 2.0]), np.array([0, 1]),
                                               1.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="sorted"):
            exponential_mechanism_median_batch(np.array([2.0, 1.0]), np.array([0, 2]),
                                               1.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="epsilon"):
            exponential_mechanism_median_batch(np.array([1.0, 2.0]), np.array([0, 2]),
                                               0.0, 0.0, 10.0)

    def test_rejects_values_outside_domain(self):
        with pytest.raises(ValueError, match="domain"):
            exponential_mechanism_median_batch(np.array([5.0]), np.array([0, 1]),
                                               1.0, 0.0, 1.0)


# ----------------------------------------------------------------------
# Frozen EM oracle: the gather-based kernel the lean one replaced
# ----------------------------------------------------------------------
def _oracle_segment_cumsum(flat, offsets):
    """Padded-bucket per-segment cumsum, as the kernel computed it for every
    segment length before long segments got their own slice."""
    flat = np.asarray(flat, dtype=float)
    out = np.empty(flat.size)
    counts = np.diff(offsets)
    starts = offsets[:-1]
    nz = np.flatnonzero(counts)
    if nz.size == 0:
        return out
    classes = np.frexp(counts[nz].astype(float))[1]
    for c in np.flatnonzero(np.bincount(classes)):
        pick = nz[classes == c]
        width = int(counts[pick].max())
        local = np.arange(width)
        idx = starts[pick][:, None] + local[None, :]
        valid = local[None, :] < counts[pick][:, None]
        rows = np.where(valid, flat[np.minimum(idx, flat.size - 1)], 0.0)
        cs = np.cumsum(rows, axis=1)
        out[idx[valid]] = cs[valid]
    return out


def _oracle_em_batch(sorted_values, offsets, epsilons, los, his, rng=None, *,
                     uniforms=None, validate=True):
    """The EM batch kernel with clamped gathers and ``np.where`` chains."""
    m = median_module
    vals, offs, counts, seg, lo, hi, k = m._prepare_batch(sorted_values, offsets, los, his,
                                                          validate=validate)
    eps = m._check_epsilons(epsilons, k)
    u = m._draw_uniforms(uniforms, rng, k, 2)
    safe, guard = m._safe_values(vals)
    iv_counts = counts + 1
    iv_off = offs + np.arange(k + 1, dtype=np.int64)
    total = int(iv_off[-1])
    iv_seg = np.repeat(np.arange(k, dtype=np.int64), iv_counts)
    t = np.arange(total, dtype=np.int64) - iv_off[:-1][iv_seg]
    left = np.where(t == 0, lo[iv_seg],
                    safe[np.minimum(np.maximum(offs[:-1][iv_seg] + t - 1, 0), guard)])
    right = np.where(t == counts[iv_seg], hi[iv_seg],
                     safe[np.minimum(offs[:-1][iv_seg] + t, guard)])
    lengths = right - left
    log_weights = -(eps[iv_seg] / 2.0) * np.abs(t - counts[iv_seg] / 2.0)
    positive = lengths > 0
    log_w = np.where(positive, log_weights + np.log(np.where(positive, lengths, 1.0)), -np.inf)
    seg_max = m._segment_reduce(np.maximum, log_w, iv_off, -np.inf)
    degenerate = ~np.isfinite(seg_max)
    safe_max = np.where(degenerate, 0.0, seg_max)
    shifted = np.where(degenerate[iv_seg], 0.0, log_w - safe_max[iv_seg])
    weights = np.exp(shifted)
    cdf = _oracle_segment_cumsum(weights, iv_off)
    cdf_last = cdf[iv_off[1:] - 1]
    norm = cdf / cdf_last[iv_seg]
    below = (norm <= u[:, 0][iv_seg]).astype(np.int64)
    chosen = np.minimum(m._segment_reduce(np.add, below, iv_off, 0), counts)
    pos = iv_off[:-1] + chosen
    l_sel, r_sel = left[pos], right[pos]
    width = r_sel - l_sel
    res = np.where(width > 0, l_sel + width * u[:, 1], l_sel)
    mid = np.where(counts > 0, safe[np.minimum(offs[:-1] + counts // 2, guard)], lo)
    res = np.where(degenerate, mid, res)
    return m._clamp_array(res, lo, hi)


def oracle_batch(seed: int):
    """A ragged batch mixing segments on both sides of the contiguous-cumsum
    cut with empty segments, zero-width domains and runs of duplicates."""
    gen = np.random.default_rng(seed)
    cut = median_module._CUMSUM_SLICE_MIN
    # +1 interval per segment: lengths cut - 2 and cut - 1 stay padded, cut
    # and above go contiguous.
    sizes = [0, cut - 2, 1, cut - 1, 0, 7, cut + 3, 3 * cut, 40, 0, 2]
    segments, los, his = [], [], []
    for i, size in enumerate(sizes):
        lo = float(gen.uniform(-50.0, 50.0))
        if i in (2, 9):  # zero-width domains: the degenerate branch
            hi = lo
        else:
            hi = lo + float(gen.uniform(0.5, 20.0))
        values = np.sort(gen.uniform(lo, hi, size))
        if i in (3, 8):  # runs of duplicates: zero-length intervals
            values = np.sort(np.round(values, 0).clip(lo, hi))
        if i == 5:
            values = np.full(size, (lo + hi) / 2.0)
        segments.append(values)
        los.append(lo)
        his.append(hi)
    values = np.concatenate(segments)
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    epsilons = gen.uniform(0.01, 3.0, len(sizes))
    return values, offsets, epsilons, np.array(los), np.array(his)


class TestEMKernelOracle:
    """The lean EM kernel is bitwise the frozen gather-based one."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_oracle_on_ragged_batches(self, seed):
        values, offsets, epsilons, los, his = oracle_batch(seed)
        cut = median_module._CUMSUM_SLICE_MIN
        iv_sizes = np.diff(offsets) + 1
        assert np.any(iv_sizes >= cut) and np.any((iv_sizes > 1) & (iv_sizes < cut))
        g_new, g_old = np.random.default_rng(seed), np.random.default_rng(seed)
        new = exponential_mechanism_median_batch(values, offsets, epsilons, los, his, rng=g_new)
        old = _oracle_em_batch(values, offsets, epsilons, los, his, rng=g_old)
        assert new.tobytes() == old.tobytes()
        assert g_new.bit_generator.state == g_old.bit_generator.state

    def test_uniforms_equal_rng_and_leave_same_state(self):
        values, offsets, epsilons, los, his = oracle_batch(5)
        k = offsets.size - 1
        g_rng, g_pre = np.random.default_rng(77), np.random.default_rng(77)
        via_rng = exponential_mechanism_median_batch(values, offsets, epsilons, los, his,
                                                     rng=g_rng)
        pre = g_pre.random(2 * k).reshape(k, 2)
        via_uniforms = exponential_mechanism_median_batch(values, offsets, epsilons, los, his,
                                                          uniforms=pre, validate=False)
        oracle = _oracle_em_batch(values, offsets, epsilons, los, his, uniforms=pre,
                                  validate=False)
        assert via_rng.tobytes() == via_uniforms.tobytes() == oracle.tobytes()
        assert g_rng.bit_generator.state == g_pre.bit_generator.state

    def test_degenerate_and_empty_segments(self):
        values, offsets, epsilons, los, his = oracle_batch(6)
        res = exponential_mechanism_median_batch(values, offsets, epsilons, los, his, rng=3)
        zero_width = his == los
        assert np.array_equal(res[zero_width], los[zero_width])
        empty = np.diff(offsets) == 0
        assert np.all((res[empty] >= los[empty]) & (res[empty] <= his[empty]))

    @pytest.mark.parametrize("seed", [0, 9])
    def test_segment_cumsum_equals_oracle_and_per_segment_cumsum(self, seed):
        gen = np.random.default_rng(seed)
        cut = median_module._CUMSUM_SLICE_MIN
        sizes = np.array([cut, 0, cut - 1, 1, 2 * cut + 5, 3, 0, cut + 1, 17])
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        flat = gen.exponential(1.0, int(offsets[-1]))
        lean = median_module._segment_cumsum(flat, offsets)
        assert lean.tobytes() == _oracle_segment_cumsum(flat, offsets).tobytes()
        for a, b in zip(offsets[:-1], offsets[1:]):
            assert lean[a:b].tobytes() == np.cumsum(flat[a:b]).tobytes()


def build_pair(rule, height, seed, **kwargs):
    pointer = build_psd(POINTS, DOMAIN, height, rule, epsilon=1.0, rng=seed,
                        layout="pointer", **kwargs)
    flat = build_psd(POINTS, DOMAIN, height, rule, epsilon=1.0, rng=seed,
                     layout="flat", **kwargs)
    return pointer, flat


def assert_engines_equal(a, b, names=("lo", "hi", "level", "released", "has_count",
                                      "is_leaf", "child_start", "child_end", "area")):
    for name in names:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.fixture()
def no_per_node_fallback(monkeypatch):
    """Make any per-node split fallback a hard failure."""
    import repro.core.flatbuild as flatbuild

    def forbidden(*args, **kwargs):
        raise AssertionError("per-node split fallback must not run for this rule")

    monkeypatch.setattr(flatbuild, "_split_level_per_node", forbidden)


class TestLevelBatchedBuilds:
    @pytest.mark.parametrize("method", ["em", "true"])
    @pytest.mark.parametrize("height", [1, 3])
    @pytest.mark.parametrize("seed", [2, 23])
    def test_kd_layout_parity_zero_fallback(self, no_per_node_fallback, method, height, seed):
        pointer, flat = build_pair(KDSplit(median_method=method), height, seed,
                                   postprocess=True)
        assert flat.is_flat_native
        assert_engines_equal(compile_psd(pointer), compile_psd(flat))

    @pytest.mark.slow
    @pytest.mark.parametrize("method", ["ss", "cell", "noisymean", "ems", "sss"])
    @pytest.mark.parametrize("height", [1, 2, 3])
    @pytest.mark.parametrize("seed", [2, 23, 151])
    def test_kd_layout_parity_all_methods(self, method, height, seed):
        pointer, flat = build_pair(KDSplit(median_method=method), height, seed,
                                   postprocess=True)
        assert_engines_equal(compile_psd(pointer), compile_psd(flat))

    def test_hybrid_zero_fallback(self, no_per_node_fallback):
        pointer, flat = build_pair(HybridSplit(kd_levels=2, median_method="em"), 4, 5,
                                   postprocess=True)
        assert_engines_equal(compile_psd(pointer), compile_psd(flat))

    def test_kd_pure_variant_zero_fallback(self, no_per_node_fallback):
        pointer = build_private_kdtree(POINTS, DOMAIN, 3, 1.0, variant="kd-pure",
                                       rng=31, layout="pointer")
        flat = build_private_kdtree(POINTS, DOMAIN, 3, 1.0, variant="kd-pure",
                                    rng=31, layout="flat")
        assert flat.is_flat_native
        assert_engines_equal(compile_psd(pointer), compile_psd(flat))

    def test_median_method_override(self):
        psd = build_private_kdtree(POINTS, DOMAIN, 2, 1.0, variant="kd-standard",
                                   median_method="noisymean", rng=1)
        assert psd.name == "kd-standard"

    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("height", [1, 6])
    def test_hilbert_layout_parity_zero_fallback(self, no_per_node_fallback, seed, height):
        kwargs = dict(height=height, epsilon=1.0, order=10, postprocess=True)
        pointer = build_private_hilbert_rtree(POINTS, DOMAIN, rng=seed,
                                              layout="pointer", **kwargs)
        flat = build_private_hilbert_rtree(POINTS, DOMAIN, rng=seed,
                                           layout="flat", **kwargs)
        assert flat.psd.is_flat_native
        assert_engines_equal(compile_psd(pointer.psd), compile_psd(flat.psd))

    @pytest.mark.slow
    @pytest.mark.parametrize("method", ["ss", "noisymean", "true", "ems"])
    def test_hilbert_all_methods_parity(self, method):
        kwargs = dict(height=5, epsilon=1.0, order=8, median_method=method,
                      postprocess=True)
        pointer = build_private_hilbert_rtree(POINTS, DOMAIN, rng=13,
                                              layout="pointer", **kwargs)
        flat = build_private_hilbert_rtree(POINTS, DOMAIN, rng=13,
                                           layout="flat", **kwargs)
        assert_engines_equal(compile_psd(pointer.psd), compile_psd(flat.psd))

    def test_boundary_points_still_exact(self):
        """Points exactly on the domain's top face keep both layouts identical
        (the reference routes a split landing on them to both children)."""
        gen = np.random.default_rng(0)
        pts = np.concatenate([uniform_points(500, DOMAIN, rng=gen),
                              np.array([[1.0, 1.0], [1.0, 0.4], [0.3, 1.0]])])
        pointer = build_psd(pts, DOMAIN, 3, KDSplit(median_method="em"),
                            epsilon=1.0, rng=5, layout="pointer")
        flat = build_psd(pts, DOMAIN, 3, KDSplit(median_method="em"),
                         epsilon=1.0, rng=5, layout="flat")
        assert_engines_equal(compile_psd(pointer), compile_psd(flat))

    def test_sampled_near_boundary_falls_back_correctly(self):
        """Sampled methods bail to the per-node path when points hug the top
        face — the builds must still match bitwise."""
        gen = np.random.default_rng(1)
        pts = np.concatenate([uniform_points(400, DOMAIN, rng=gen),
                              np.array([[1.0 - 1e-9, 0.5]])])
        pointer = build_psd(pts, DOMAIN, 2, KDSplit(median_method="ems"),
                            epsilon=1.0, rng=9, layout="pointer")
        flat = build_psd(pts, DOMAIN, 2, KDSplit(median_method="ems"),
                         epsilon=1.0, rng=9, layout="flat")
        assert_engines_equal(compile_psd(pointer), compile_psd(flat))


class TestHilbertPlanarCompile:
    def test_flat_compile_matches_pointer_walk(self):
        kwargs = dict(height=6, epsilon=1.0, order=10, postprocess=True)
        pointer = build_private_hilbert_rtree(POINTS, DOMAIN, rng=3,
                                              layout="pointer", **kwargs)
        flat = build_private_hilbert_rtree(POINTS, DOMAIN, rng=3,
                                           layout="flat", **kwargs)
        a = compile_hilbert_rtree(pointer)
        b = compile_hilbert_rtree(flat)
        assert flat.psd.is_flat_native  # the compile never materialised nodes
        assert_engines_equal(a, b)
        b.validate()

    def test_planar_queries_match_recursive(self):
        tree = build_private_hilbert_rtree(POINTS, DOMAIN, height=6, epsilon=1.0,
                                           order=10, rng=4, postprocess=True)
        engine = tree.compile()
        gen = np.random.default_rng(8)
        for _ in range(20):
            lo = gen.uniform(0.0, 0.6, 2)
            q = Rect(tuple(lo), tuple(lo + gen.uniform(0.05, 0.4, 2)))
            assert engine.range_query(q) == pytest.approx(
                tree.range_query(q), rel=1e-9, abs=1e-9)

    def test_node_bboxes_flat_equals_pointer(self):
        kwargs = dict(height=5, epsilon=1.0, order=8, rng=6)
        flat = build_private_hilbert_rtree(POINTS, DOMAIN, layout="flat", **kwargs)
        boxes_flat = flat.node_bboxes()
        assert flat.psd.is_flat_native
        pointer = build_private_hilbert_rtree(POINTS, DOMAIN, layout="pointer", **kwargs)
        boxes_pointer = pointer.node_bboxes()
        assert len(boxes_flat) == len(boxes_pointer)
        for (level_a, rect_a), (level_b, rect_b) in zip(boxes_flat, boxes_pointer):
            assert level_a == level_b
            assert rect_a.lo == rect_b.lo and rect_a.hi == rect_b.hi

    def test_range_bboxes_matches_scalar(self):
        curve = HilbertCurve(order=7, domain=Rect((0.0, 0.0), (4.0, 2.0)))
        gen = np.random.default_rng(11)
        lo = gen.integers(0, curve.max_index, 50)
        hi = np.minimum(lo + gen.integers(0, 5000, 50), curve.max_index)
        blo, bhi = curve.range_bboxes(lo, hi)
        for i in range(lo.size):
            rect = curve.range_bbox(int(lo[i]), int(hi[i]))
            assert tuple(blo[i]) == rect.lo
            assert tuple(bhi[i]) == rect.hi

    def test_range_bboxes_full_and_single(self):
        curve = HilbertCurve(order=5, domain=Rect((0.0, 0.0), (1.0, 1.0)))
        blo, bhi = curve.range_bboxes([0, 17], [curve.max_index, 17])
        rect_full = curve.range_bbox(0, curve.max_index)
        rect_one = curve.range_bbox(17, 17)
        assert tuple(blo[0]) == rect_full.lo and tuple(bhi[0]) == rect_full.hi
        assert tuple(blo[1]) == rect_one.lo and tuple(bhi[1]) == rect_one.hi


class TestCacheCounters:
    def test_hits_misses_properties(self):
        psd = build_psd(POINTS, DOMAIN, 3, KDSplit(), epsilon=1.0, rng=0)
        cached = CachedEngine(psd.compile())
        q = Rect((0.1, 0.1), (0.6, 0.6))
        assert (cached.hits, cached.misses) == (0, 0)
        cached.range_query(q)
        assert (cached.hits, cached.misses) == (0, 1)
        cached.range_query(q)
        cached.query_variance(q)
        assert (cached.hits, cached.misses) == (2, 1)

    def test_cli_query_stats(self, tmp_path, capsys):
        from repro.cli import main

        release = tmp_path / "release.json"
        assert main(["build", "--synthetic", "500", "--height", "3",
                     "--output", str(release)]) == 0
        capsys.readouterr()
        rect = "--rect=-123,46,-121,48"
        assert main(["query", str(release), "--engine", "flat", "--stats",
                     rect, rect]) == 0
        captured = capsys.readouterr()
        assert "cache stats:" in captured.err
        assert "misses" in captured.err
