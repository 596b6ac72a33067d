"""Private median selection (Section 6.1 of the paper).

A data-dependent PSD (kd-tree, Hilbert R-tree) splits every internal node at
the median of the points it contains along some axis.  Releasing that median
exactly would leak information, and the global sensitivity of the median is of
the order of the whole domain, so plain Laplace noise is useless.  The paper
surveys four practical alternatives, all implemented here with a common
signature ``method(values, epsilon, lo, hi, rng) -> float``:

* :func:`exponential_mechanism_median` (**EM**) — samples an output with
  probability proportional to ``exp(-eps/2 * |rank(x) - rank(median)|)``
  (Definition 5), implemented exactly with the interval decomposition the
  paper describes;
* :func:`smooth_sensitivity_median` (**SS**) — Laplace noise calibrated to the
  smooth sensitivity of the median (Definition 4); only (ε, δ)-DP;
* :func:`cell_median` (**cell**) — the heuristic of [26]: noisy counts on a
  fixed grid, median read off the noisy cumulative distribution;
* :func:`noisy_mean_median` (**NM**) — the heuristic of [12]: a noisy mean
  (noisy sum / noisy count) used as a surrogate for the median.

plus the non-private :func:`true_median` baseline ("kd-true" in Section 8.2)
and sampled variants **EMs** / **SSs** built by combining any method with
Bernoulli sampling (Theorem 7, :mod:`repro.privacy.sampling`).

All methods clamp their output to the public domain ``[lo, hi]`` — a value
outside the domain could never be a useful split and the clamp is a
post-processing step, so it costs nothing in privacy.

Batched evaluation and the draw-order contract
----------------------------------------------
Every method also has a **ragged-batch** form ``method_batch(sorted_values,
offsets, epsilons, los, his, rng) -> medians`` that evaluates one private
median per segment — segment ``i`` holds ``sorted_values[offsets[i]:
offsets[i+1]]`` with domain ``[los[i], his[i]]`` and budget ``epsilons[i]``.
The level-vectorized tree builders call these once per level instead of once
per node, which removes the per-node Python cost from the data-dependent
build path.

The batch is **bitwise identical** to the sequential per-node calls (the same
contract the Laplace count batching in :mod:`repro.core.flatbuild` meets),
which requires a fixed draw layout:

* every method consumes a *fixed* number of ``Generator.random()`` uniforms
  per call — ``em`` 2, ``ss`` 1, ``noisymean`` 2, ``cell`` ``n_cells``,
  ``true`` 0 — independent of the data it sees (unused draws are simply
  discarded, which is distribution- and privacy-neutral);
* a Bernoulli-sampled variant additionally consumes one uniform per candidate
  value, *after* sorting, so the sampled subset does not depend on the
  caller's point order;
* Laplace noise inside the methods is derived from those uniforms via
  :func:`repro.privacy.mechanisms.laplace_from_uniform` rather than drawn
  with ``Generator.laplace``, so every draw is a plain uniform;
* a batch over ``k`` segments consumes its uniforms **node-major in segment
  (BFS) order**: segment 0's draws first, then segment 1's, and so on —
  exactly the stream a loop of scalar calls would consume.

The scalar methods are thin wrappers over the batch kernels (a batch of one),
so the two can never drift apart; the property suite additionally asserts the
bitwise equality and the final generator state match on ragged inputs.

Each scalar method carries its draw layout as attributes: ``method.batch``
(the batch form), ``method.draws_per_call`` and ``method.draws_per_value``.
Batched mechanisms written by third parties must honor the same node-major
draw order to stay interchangeable with the per-node reference builder.

The EM kernel
-------------
:func:`exponential_mechanism_median_batch` is the hot loop of every
data-dependent build (one call per level and stage, over all of the level's
points), so it keeps its full-size passes few: the interval bounds come from
one ``np.insert`` of the domain ends into the values each, the log-weights
are built in place in one buffer that becomes the weights, and per-segment
scalars are spread with ``repeat``.  The rank distance ``|t - n/2|`` is a
half-integer, exact in floating point however it is formed, so the in-place
arithmetic rounds exactly as a direct transcription of Definition 5 would.
The per-segment cumulative sum takes one contiguous ``np.cumsum`` for each
long segment and zero-padded bucket rows for the short ones; both accumulate
left to right, so every output is bitwise what a per-segment loop returns.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from .mechanisms import laplace_from_uniform
from .rng import RngLike, ensure_rng

__all__ = [
    "MedianMethod",
    "true_median",
    "true_median_batch",
    "exponential_mechanism_median",
    "exponential_mechanism_median_batch",
    "smooth_sensitivity_median",
    "smooth_sensitivity_median_batch",
    "smooth_sensitivity_of_median",
    "cell_median",
    "cell_median_batch",
    "median_from_noisy_cells",
    "noisy_mean_median",
    "noisy_mean_median_batch",
    "make_sampled_median",
    "MEDIAN_METHODS",
    "resolve_median_method",
    "resolve_median_batch",
]

#: Signature shared by every private-median method.
MedianMethod = Callable[..., float]


def _prepare(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Validate the inputs common to all methods and return sorted values."""
    lo, hi = float(lo), float(hi)
    if hi < lo:
        raise ValueError(f"invalid domain [{lo}, {hi}]")
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size and (vals.min() < lo - 1e-9 or vals.max() > hi + 1e-9):
        raise ValueError("values fall outside the declared domain [lo, hi]")
    return np.sort(np.clip(vals, lo, hi))


def _clamp_array(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(values, lo), hi)


# ----------------------------------------------------------------------
# Ragged-segment plumbing
# ----------------------------------------------------------------------
def _per_segment(x, k: int, name: str) -> np.ndarray:
    """Broadcast a scalar to ``(k,)`` or validate an existing ``(k,)`` array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return np.full(k, float(arr))
    arr = arr.ravel()
    if arr.shape != (k,):
        raise ValueError(f"{name} must be a scalar or have one entry per segment ({k})")
    return arr


def _prepare_batch(sorted_values, offsets, los, his, validate: bool = True):
    """Validate a ragged batch; returns clipped values plus segment geometry.

    Values must be sorted within each segment (the clip preserves that) and
    lie inside their segment's domain up to the same 1e-9 slack the scalar
    path allows.  ``validate=False`` skips the domain / sortedness sweeps and
    the (then identity) clip — for callers like the level-vectorized builders
    whose routing already guarantees both.
    """
    vals = np.asarray(sorted_values, dtype=float).ravel()
    offs = np.asarray(offsets, dtype=np.int64).ravel()
    if offs.size < 2 or offs[0] != 0 or offs[-1] != vals.size or np.any(np.diff(offs) < 0):
        raise ValueError("offsets must be non-decreasing, start at 0 and end at len(values)")
    k = offs.size - 1
    lo = _per_segment(los, k, "los")
    hi = _per_segment(his, k, "his")
    if np.any(hi < lo):
        raise ValueError("invalid domain: hi < lo in some segment")
    counts = np.diff(offs)
    if vals.size:
        seg = np.repeat(np.arange(k, dtype=np.int64), counts)
        if validate:
            lo_v, hi_v = lo[seg], hi[seg]
            if np.any(vals < lo_v - 1e-9) or np.any(vals > hi_v + 1e-9):
                raise ValueError("values fall outside the declared domain [lo, hi]")
            if vals.size > 1:
                diffs = np.diff(vals)
                within = np.ones(vals.size - 1, dtype=bool)
                boundary = offs[1:-1]  # pairs straddling a segment boundary
                boundary = boundary[(boundary > 0) & (boundary < vals.size)]
                within[boundary - 1] = False
                if np.any(diffs[within] < 0):
                    raise ValueError("values must be sorted within each segment")
            vals = np.clip(vals, lo_v, hi_v)
    else:
        seg = np.empty(0, dtype=np.int64)
    return vals, offs, counts, seg, lo, hi, k


def _check_epsilons(epsilons, k: int) -> np.ndarray:
    eps = _per_segment(epsilons, k, "epsilons")
    if np.any(eps <= 0):
        raise ValueError("epsilon must be positive")
    return eps


def _draw_uniforms(uniforms, rng: RngLike, k: int, per_call: int) -> np.ndarray:
    """The ``(k, per_call)`` uniform block of a batch, drawn node-major.

    Pre-drawn uniforms (from a caller that manages a whole level's stream, see
    :meth:`repro.core.splits.KDSplit.split_level`) are validated and reshaped;
    otherwise one ``Generator.random`` call produces the identical stream a
    loop of scalar calls would consume.
    """
    if uniforms is None:
        return ensure_rng(rng).random(k * per_call).reshape(k, per_call)
    u = np.asarray(uniforms, dtype=float).reshape(k, per_call)
    return u


def _segment_reduce(ufunc, flat: np.ndarray, offsets: np.ndarray, empty):
    """Per-segment ``ufunc.reduce``; ``empty`` fills zero-length segments.

    Using ``reduceat`` on the nonempty starts keeps the accumulation order of
    each segment independent of how the surrounding batch is segmented, which
    is what makes a batch of one bitwise-equal to a segment of many.
    """
    counts = np.diff(offsets)
    out = np.full(counts.shape[0], empty, dtype=flat.dtype)
    nz = counts > 0
    if flat.size and np.any(nz):
        out[nz] = ufunc.reduceat(flat, offsets[:-1][nz])
    return out


#: Segments at least this long take a contiguous ``np.cumsum`` of their own
#: slice; shorter ones share the zero-padded bucket rows below.  Both forms
#: accumulate strictly left to right, so the cut never changes a bit.
_CUMSUM_SLICE_MIN = 4096


def _segment_cumsum(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment cumulative sum, bitwise equal to ``np.cumsum`` per segment.

    A segment of at least :data:`_CUMSUM_SLICE_MIN` values is accumulated in
    place on its contiguous slice (one call per long segment, no padding).
    Shorter segments are scattered into zero-padded rows (bucketed by
    power-of-two length so the padding stays linear in the input) and
    accumulated with one row-wise ``cumsum``, whose left-to-right order
    matches the 1-D form exactly.
    """
    flat = np.asarray(flat, dtype=float)
    out = np.empty(flat.size)
    counts = np.diff(offsets)
    starts = offsets[:-1]
    long = np.flatnonzero(counts >= _CUMSUM_SLICE_MIN)
    for i in long.tolist():
        a, b = int(starts[i]), int(offsets[i + 1])
        np.cumsum(flat[a:b], out=out[a:b])
    nz = np.flatnonzero((counts > 0) & (counts < _CUMSUM_SLICE_MIN))
    if nz.size == 0:
        return out
    sizes = counts[nz]
    classes = np.frexp(sizes.astype(float))[1]  # ceil(log2) size buckets
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


def _safe_values(vals: np.ndarray):
    """A gather-safe view: empty input becomes a one-zero array (always masked)."""
    return vals if vals.size else np.zeros(1), max(vals.size - 1, 0)


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def true_median_batch(sorted_values, offsets, epsilons=0.0, los=0.0, his=1.0,
                      rng: RngLike = None, *, validate: bool = True) -> np.ndarray:
    """Exact (non-private) medians of every segment; consumes no randomness."""
    vals, offs, counts, seg, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                        validate=validate)
    safe, guard = _safe_values(vals)
    lo_idx = np.minimum(offs[:-1] + np.maximum(counts - 1, 0) // 2, guard)
    hi_idx = np.minimum(offs[:-1] + counts // 2, guard)
    med = (safe[lo_idx] + safe[hi_idx]) / 2.0  # odd n: (x + x) / 2 == x exactly
    res = np.where(counts > 0, med, (lo + hi) / 2.0)
    return _clamp_array(res, lo, hi)


def true_median(values: np.ndarray, epsilon: float = 0.0, lo: float = 0.0, hi: float = 1.0,
                rng: RngLike = None) -> float:
    """The exact (non-private) median; the paper's ``kd-true`` baseline.

    ``epsilon`` and ``rng`` are accepted (and ignored) so the function is a
    drop-in replacement for the private methods in the tree builders.
    """
    vals = _prepare(values, lo, hi)
    return float(true_median_batch(vals, np.array([0, vals.size]), epsilon, lo, hi)[0])


# ----------------------------------------------------------------------
# Exponential mechanism (Definition 5)
# ----------------------------------------------------------------------
def exponential_mechanism_median_batch(
    sorted_values, offsets, epsilons, los, his,
    rng: RngLike = None, *, uniforms=None, validate: bool = True,
) -> np.ndarray:
    """Batched EM medians: one interval decomposition sweep over all segments.

    Consumes exactly two uniforms per segment, node-major: the first selects
    the inter-value interval (by inverting the normalized weight CDF, the
    same inversion ``Generator.choice`` performs), the second places the
    output uniformly inside it.

    The sweep makes a handful of full-size passes: interval bounds come from
    one ``np.insert`` each, the log-weights are built in one buffer that then
    becomes the weights, and per-segment scalars are spread with ``repeat``
    rather than gathered through an interval-to-segment index.
    """
    vals, offs, counts, seg, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                        validate=validate)
    eps = _check_epsilons(epsilons, k)
    u = _draw_uniforms(uniforms, rng, k, 2)
    safe, guard = _safe_values(vals)

    # Segment i contributes n_i + 1 intervals I_0..I_n delimited by
    # lo, x_1, ..., x_n, hi; a value in I_t has rank t.  The left bounds are
    # the values with each segment's lo inserted at its start, the right
    # bounds the values with its hi inserted at its end.
    iv_counts = counts + 1
    iv_off = offs + np.arange(k + 1, dtype=np.int64)
    total = int(iv_off[-1])
    left = np.insert(vals, offs[:-1], lo)
    lengths = np.insert(vals, offs[1:], hi)
    lengths -= left

    # log w_t = -(eps/2) * |t - n/2| + log(length_t), and -inf for empty
    # intervals.  With t = p - iv_off[s] for interval p, the half-integer
    # |t - n/2| equals |p - (iv_off[s] + n/2)| exactly in floating point.
    log_w = np.full(total, -np.inf)
    positive = lengths > 0
    np.log(lengths, out=log_w, where=positive)
    del positive
    rank_dist = np.arange(total, dtype=float)
    rank_dist -= np.repeat(iv_off[:-1] + counts / 2.0, iv_counts)
    np.abs(rank_dist, out=rank_dist)
    rank_dist *= np.repeat(-(eps / 2.0), iv_counts)
    log_w += rank_dist
    del rank_dist

    seg_max = _segment_reduce(np.maximum, log_w, iv_off, -np.inf)
    degenerate = ~np.isfinite(seg_max)  # zero-width domain: only one possible output
    log_w -= np.repeat(np.where(degenerate, 0.0, seg_max), iv_counts)
    if np.any(degenerate):
        log_w[np.repeat(degenerate, iv_counts)] = 0.0
    weights = np.exp(log_w, out=log_w)

    cdf = _segment_cumsum(weights, iv_off)
    del weights, log_w
    cdf /= np.repeat(cdf[iv_off[1:] - 1], iv_counts)
    below = cdf <= np.repeat(u[:, 0], iv_counts)
    del cdf
    chosen = np.minimum(np.add.reduceat(below, iv_off[:-1], dtype=np.int64), counts)

    pos = iv_off[:-1] + chosen
    l_sel, width = left[pos], lengths[pos]
    res = np.where(width > 0, l_sel + width * u[:, 1], l_sel)
    mid = np.where(counts > 0, safe[np.minimum(offs[:-1] + counts // 2, guard)], lo)
    res = np.where(degenerate, mid, res)
    return _clamp_array(res, lo, hi)


def exponential_mechanism_median(
    values: np.ndarray,
    epsilon: float,
    lo: float,
    hi: float,
    rng: RngLike = None,
) -> float:
    """Private median via the exponential mechanism.

    The output ``x`` is drawn with probability proportional to
    ``exp(-eps/2 * |rank(x) - rank(x_m)|)``.  Because all values between two
    consecutive data points share a rank, the sampler first picks the interval
    ``I_k = [x_k, x_{k+1})`` with probability proportional to
    ``|I_k| * exp(-eps/2 * |k - m|)`` and then returns a uniform value inside
    it, exactly as described after Definition 5.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    vals = _prepare(values, lo, hi)
    return float(exponential_mechanism_median_batch(
        vals, np.array([0, vals.size]), epsilon, lo, hi, rng=rng)[0])


# ----------------------------------------------------------------------
# Smooth sensitivity (Definition 4)
# ----------------------------------------------------------------------
def _smooth_sensitivity_kernel(vals, offs, counts, eps, lo, hi, delta, max_k) -> np.ndarray:
    """ξ-smooth sensitivities of every segment's median, one shared k-scan.

    The loop runs over the scan variable ``k`` only — all segments still in
    play are processed per iteration with one window gather — and each
    segment drops out exactly when the sequential early-termination bound
    (``exp(-k ξ) * |domain|`` can no longer beat its best) fires, so the
    result matches the per-node scan bit for bit.
    """
    n_segs = counts.shape[0]
    domain = hi - lo
    xi = eps / (4.0 * (1.0 + np.log(2.0 / delta)))
    cap = counts if max_k is None else np.minimum(int(max_k), counts)
    best = np.zeros(n_segs)
    active = counts > 0
    safe, guard = _safe_values(vals)
    starts = offs[:-1]

    step = 0
    while True:
        decay = np.exp(-step * xi)
        active = active & (step <= cap) & (decay * domain > best)
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        n_a = counts[idx][:, None]
        off_a = starts[idx][:, None]
        med = ((counts[idx] - 1) // 2)[:, None]
        tgrid = np.arange(step + 2, dtype=np.int64)[None, :]
        uidx = med + tgrid
        lidx = uidx - (step + 1)
        upper = np.where(uidx >= n_a, hi[idx][:, None],
                         safe[np.minimum(off_a + np.minimum(uidx, n_a - 1), guard)])
        lower = np.where(lidx < 0, lo[idx][:, None],
                         safe[np.minimum(off_a + np.maximum(lidx, 0), guard)])
        local = np.max(upper - lower, axis=1)
        best[idx] = np.maximum(best[idx], decay[idx] * local)
        step += 1

    if max_k is not None:
        # Conservative tail bound keeps a capped scan a valid smooth upper bound.
        short = (cap < counts) & (counts > 0)
        best = np.where(short, np.maximum(best, np.exp(-(cap + 1) * xi) * domain), best)
    return np.where(counts > 0, best, domain)


def smooth_sensitivity_of_median(
    values: np.ndarray,
    epsilon: float,
    delta: float,
    lo: float,
    hi: float,
    max_k: Optional[int] = None,
) -> float:
    """The ξ-smooth sensitivity of the median (Definition 4).

    ``sigma_s = max_k exp(-k * xi) * max_t (x_{m+t} - x_{m+t-k-1})`` with
    ``xi = eps / (4 * (1 + ln(2/delta)))`` and values outside ``[1, n]``
    padded with ``lo`` / ``hi``.

    The scan over ``k`` terminates early once ``exp(-k*xi) * (hi - lo)`` can
    no longer beat the best value found (at that point every remaining term is
    dominated), so the result is exact.  ``max_k`` optionally caps the scan;
    when the cap is hit the tail is replaced by its upper bound
    ``exp(-max_k*xi) * (hi - lo)``, which keeps the output a valid ξ-smooth
    upper bound (privacy is preserved, utility can only degrade).
    """
    if epsilon <= 0 or not 0 < delta < 1:
        raise ValueError("need epsilon > 0 and 0 < delta < 1")
    vals = _prepare(values, lo, hi)
    sigma = _smooth_sensitivity_kernel(
        vals, np.array([0, vals.size], dtype=np.int64), np.array([vals.size], dtype=np.int64),
        np.full(1, float(epsilon)), np.full(1, float(lo)), np.full(1, float(hi)), delta, max_k)
    return float(sigma[0])


def smooth_sensitivity_median_batch(
    sorted_values, offsets, epsilons, los, his,
    rng: RngLike = None, *, uniforms=None, validate: bool = True,
    delta: float = 1e-4, max_k: Optional[int] = None,
) -> np.ndarray:
    """Batched SS medians; consumes exactly one uniform per segment.

    Empty segments return the (clamped) domain midpoint; their uniform is
    discarded so the draw layout stays data independent.
    """
    vals, offs, counts, seg, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                        validate=validate)
    eps = _check_epsilons(epsilons, k)
    if not 0 < delta < 1:
        raise ValueError("need 0 < delta < 1")
    u = _draw_uniforms(uniforms, rng, k, 1)
    sigma = _smooth_sensitivity_kernel(vals, offs, counts, eps, lo, hi, delta, max_k)
    safe, guard = _safe_values(vals)
    med = safe[np.minimum(offs[:-1] + np.maximum(counts - 1, 0) // 2, guard)]
    noise = laplace_from_uniform(u[:, 0])
    res = np.where(counts > 0, med + (2.0 * sigma / eps) * noise, (lo + hi) / 2.0)
    return _clamp_array(res, lo, hi)


def smooth_sensitivity_median(
    values: np.ndarray,
    epsilon: float,
    lo: float,
    hi: float,
    rng: RngLike = None,
    delta: float = 1e-4,
    max_k: Optional[int] = None,
) -> float:
    """Private median via smooth sensitivity: ``x_m + (2*sigma_s/eps) * Lap(1)``.

    Satisfies (ε, δ)-differential privacy.  ``delta`` defaults to the paper's
    experimental setting of ``1e-4``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    vals = _prepare(values, lo, hi)
    return float(smooth_sensitivity_median_batch(
        vals, np.array([0, vals.size]), epsilon, lo, hi, rng=rng,
        delta=delta, max_k=max_k)[0])


# ----------------------------------------------------------------------
# Cell-based heuristic [26]
# ----------------------------------------------------------------------
def median_from_noisy_cells(noisy_counts: np.ndarray, edges: np.ndarray) -> float:
    """Read a median off noisy per-cell counts.

    ``edges`` has one more entry than ``noisy_counts``.  Negative noisy counts
    are floored at zero (a standard post-processing step), the half-mass cell
    is located on the cumulative distribution and the position is linearly
    interpolated inside it under a within-cell uniformity assumption.
    """
    counts = np.clip(np.asarray(noisy_counts, dtype=float), 0.0, None)
    edges = np.asarray(edges, dtype=float)
    if edges.size != counts.size + 1:
        raise ValueError("edges must have exactly one more entry than counts")
    total = counts.sum()
    if total <= 0:
        return float((edges[0] + edges[-1]) / 2.0)
    cum = np.cumsum(counts)
    half = total / 2.0
    idx = int(np.searchsorted(cum, half))
    idx = min(idx, counts.size - 1)
    prev = cum[idx - 1] if idx > 0 else 0.0
    in_cell = counts[idx]
    frac = 0.5 if in_cell <= 0 else (half - prev) / in_cell
    frac = min(max(frac, 0.0), 1.0)
    return float(edges[idx] + frac * (edges[idx + 1] - edges[idx]))


def cell_median_batch(
    sorted_values, offsets, epsilons, los, his,
    rng: RngLike = None, *, uniforms=None, validate: bool = True, n_cells: int = 1024,
) -> np.ndarray:
    """Batched cell-heuristic medians; ``n_cells`` uniforms per segment.

    Every segment lays an ``n_cells`` grid over its own domain, one
    ``bincount`` histograms all segments at once and the noisy-CDF inversion
    runs as rectangular row operations.  Zero-width domains return ``lo``
    (their noise draws are discarded, keeping the layout data independent).
    """
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    vals, offs, counts, seg, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                        validate=validate)
    eps = _check_epsilons(epsilons, k)
    u = _draw_uniforms(uniforms, rng, k, n_cells)

    step = (hi - lo) / n_cells
    edges = lo[:, None] + np.arange(n_cells + 1) * step[:, None]
    edges[:, -1] = hi
    degenerate = hi <= lo

    if vals.size:
        safe_step = np.where(step[seg] > 0, step[seg], 1.0)
        b = np.floor((vals - lo[seg]) / safe_step).astype(np.int64)
        b = np.clip(b, 0, n_cells - 1)
        # The formula can be one ulp off the actual edge comparison; nudge
        # until edges[b] <= v < edges[b+1] (last cell closed), as a
        # searchsorted against the edge values would decide.
        for _ in range(2):
            b = np.where((b > 0) & (vals < edges[seg, b]), b - 1, b)
        for _ in range(2):
            b = np.where((b < n_cells - 1) & (vals >= edges[seg, b + 1]), b + 1, b)
        hist = np.bincount(seg * n_cells + b, minlength=k * n_cells).astype(float)
        hist = hist.reshape(k, n_cells)
    else:
        hist = np.zeros((k, n_cells))

    noisy = hist + (1.0 / eps)[:, None] * laplace_from_uniform(u)
    clipped = np.clip(noisy, 0.0, None)
    cum = np.cumsum(clipped, axis=1)
    total = cum[:, -1]
    half = total / 2.0
    rows = np.arange(k)
    idx = np.minimum(np.sum(cum < half[:, None], axis=1), n_cells - 1)
    prev = np.where(idx > 0, cum[rows, np.maximum(idx - 1, 0)], 0.0)
    in_cell = clipped[rows, idx]
    frac = np.where(in_cell > 0, (half - prev) / np.where(in_cell > 0, in_cell, 1.0), 0.5)
    frac = np.clip(frac, 0.0, 1.0)
    res = edges[rows, idx] + frac * (edges[rows, idx + 1] - edges[rows, idx])
    res = np.where(total <= 0, (edges[:, 0] + edges[:, -1]) / 2.0, res)
    res = _clamp_array(res, lo, hi)
    return np.where(degenerate, lo, res)


def cell_median(
    values: np.ndarray,
    epsilon: float,
    lo: float,
    hi: float,
    rng: RngLike = None,
    n_cells: int = 1024,
) -> float:
    """Private median via the cell-based heuristic of [26].

    A fixed-resolution grid of ``n_cells`` equal cells is laid over
    ``[lo, hi]``, Laplace noise with parameter ``epsilon`` is added to every
    cell count (cell counts have sensitivity 1 and the cells are disjoint, so
    this is a single ``epsilon`` charge), and the median is read off the noisy
    cumulative counts.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    vals = _prepare(values, lo, hi)
    return float(cell_median_batch(
        vals, np.array([0, vals.size]), epsilon, lo, hi, rng=rng, n_cells=n_cells)[0])


# ----------------------------------------------------------------------
# Noisy-mean heuristic [12]
# ----------------------------------------------------------------------
def noisy_mean_median_batch(
    sorted_values, offsets, epsilons, los, his,
    rng: RngLike = None, *, uniforms=None, validate: bool = True,
) -> np.ndarray:
    """Batched noisy-mean surrogates; two uniforms per segment (sum, count)."""
    vals, offs, counts, seg, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                        validate=validate)
    eps = _check_epsilons(epsilons, k)
    u = _draw_uniforms(uniforms, rng, k, 2)
    eps_half = eps / 2.0
    sum_scale = np.maximum(np.abs(lo), np.abs(hi)) / eps_half  # sum_sensitivity(lo, hi)
    count_scale = 1.0 / eps_half
    sums = _segment_reduce(np.add, vals, offs, 0.0)
    noisy_sum = sums + sum_scale * laplace_from_uniform(u[:, 0])
    noisy_count = np.maximum(counts + count_scale * laplace_from_uniform(u[:, 1]), 1.0)
    return _clamp_array(noisy_sum / noisy_count, lo, hi)


def noisy_mean_median(
    values: np.ndarray,
    epsilon: float,
    lo: float,
    hi: float,
    rng: RngLike = None,
) -> float:
    """Private "median" via the noisy-mean surrogate of [12].

    Half the budget goes to a noisy sum (sensitivity ``max(|lo|, |hi|)``), half
    to a noisy count (sensitivity 1); the released value is their ratio,
    clamped to the domain.  As the paper notes there is no guarantee this is
    close to the median, which is exactly the weakness Figure 4(a) exhibits.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    vals = _prepare(values, lo, hi)
    return float(noisy_mean_median_batch(
        vals, np.array([0, vals.size]), epsilon, lo, hi, rng=rng)[0])


# ----------------------------------------------------------------------
# Sampling wrappers (Theorem 7)
# ----------------------------------------------------------------------
def _tight_base_epsilon_array(epsilons: np.ndarray, rate: float, cap: float = 5.0) -> np.ndarray:
    """Vector form of :func:`repro.privacy.sampling.tight_base_epsilon`."""
    run = np.log(1.0 + (np.exp(epsilons) - 1.0) / rate)
    return np.minimum(np.maximum(run, epsilons), cap)


def _base_draw_count(base_method: MedianMethod, kwargs: dict) -> int:
    if getattr(base_method, "draws_scale_with_cells", False) and "n_cells" in kwargs:
        return int(kwargs["n_cells"])
    return int(base_method.draws_per_call)


def make_sampled_median(
    base_method: MedianMethod,
    sampling_rate: float,
    amplify_budget: bool = True,
) -> MedianMethod:
    """Wrap a median method so it runs on a Bernoulli sample of the input.

    Sampling amplifies privacy (Section 7 / Theorem 7), so the wrapper may run
    the base method at a *larger* per-run budget while still delivering the
    requested guarantee.  With ``amplify_budget=True`` the per-run budget is
    obtained by inverting the tight amplification bound
    ``eps' = ln(1 + (e^eps - 1) / p)`` (see
    :func:`repro.privacy.sampling.tight_base_epsilon`); this reproduces the
    paper's Figure 4 setting where a 0.01 per-level budget with 1 % sampling
    becomes a per-run budget roughly 50-70x larger.  With
    ``amplify_budget=False`` the base method simply runs at the target budget
    on the sample (strictly more private, less accurate).

    Draw contract: the wrapper first sorts (and clips) the values, then
    consumes **one uniform per value** for the Bernoulli mask, then hands the
    stream to the base method — so the sampled subset is independent of the
    caller's point order and a batch over many segments can slice one flat
    uniform vector node-major.
    """
    if not 0 < sampling_rate <= 1:
        raise ValueError("sampling_rate must lie in (0, 1]")
    base_batch = getattr(base_method, "batch", None)
    if base_batch is None:
        raise TypeError("make_sampled_median requires a base method with a batch form")

    def sampled_batch(sorted_values, offsets, epsilons, los, his,
                      rng: RngLike = None, *, uniforms=None, validate: bool = True,
                      **kwargs) -> np.ndarray:
        vals, offs, counts, seg, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                            validate=validate)
        eps = _check_epsilons(epsilons, k)
        d = _base_draw_count(base_method, kwargs)
        if uniforms is None:
            gen = ensure_rng(rng)
            u = gen.random(int(vals.size + d * k))
            # node-major layout: [mask(n_i), base(d)] per segment; the r-th
            # value of segment i (global index j) sits at j + d*i.
            mask_u = u[np.arange(vals.size) + d * seg] if vals.size else np.empty(0)
            base_u = u[offs[1:, None] + d * np.arange(k)[:, None] + np.arange(d)[None, :]]
        else:
            mask_u, base_u = uniforms
            mask_u = np.asarray(mask_u, dtype=float).ravel()
        keep = mask_u < sampling_rate
        new_vals = vals[keep]
        new_counts = (np.bincount(seg[keep], minlength=k).astype(np.int64)
                      if vals.size else np.zeros(k, dtype=np.int64))
        new_offsets = np.concatenate(([0], np.cumsum(new_counts)))
        eps_run = _tight_base_epsilon_array(eps, sampling_rate) if amplify_budget else eps
        # The sampled subset of a validated batch is itself valid.
        return base_batch(new_vals, new_offsets, eps_run, lo, hi, uniforms=base_u,
                          validate=False, **kwargs)

    def sampled(values: np.ndarray, epsilon: float, lo: float, hi: float,
                rng: RngLike = None, **kwargs) -> float:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        vals = _prepare(values, lo, hi)
        return float(sampled_batch(vals, np.array([0, vals.size]), epsilon, lo, hi,
                                   rng=ensure_rng(rng), **kwargs)[0])

    name = getattr(base_method, "__name__", "median")
    sampled.__name__ = f"sampled_{name}"
    sampled.__doc__ = f"Sampled (p={sampling_rate}) variant of {name}."
    sampled.batch = sampled_batch
    sampled.draws_per_call = _base_draw_count(base_method, {})
    sampled.draws_per_value = 1
    sampled.draws_scale_with_cells = getattr(base_method, "draws_scale_with_cells", False)
    return sampled


# ----------------------------------------------------------------------
# Draw-layout attributes and registries
# ----------------------------------------------------------------------
# ``batch``: the ragged-batch form; ``draws_per_call`` / ``draws_per_value``:
# the fixed draw layout the level-vectorized builders rely on to pre-draw a
# whole level's uniforms in per-node BFS order.
true_median.batch = true_median_batch
true_median.draws_per_call = 0
true_median.draws_per_value = 0

exponential_mechanism_median.batch = exponential_mechanism_median_batch
exponential_mechanism_median.draws_per_call = 2
exponential_mechanism_median.draws_per_value = 0

smooth_sensitivity_median.batch = smooth_sensitivity_median_batch
smooth_sensitivity_median.draws_per_call = 1
smooth_sensitivity_median.draws_per_value = 0

cell_median.batch = cell_median_batch
cell_median.draws_per_call = 1024  # the default n_cells
cell_median.draws_per_value = 0
cell_median.draws_scale_with_cells = True

noisy_mean_median.batch = noisy_mean_median_batch
noisy_mean_median.draws_per_call = 2
noisy_mean_median.draws_per_value = 0

#: Registry of the paper's median methods keyed by the labels used in Figure 4.
MEDIAN_METHODS: Dict[str, MedianMethod] = {
    "true": true_median,
    "em": exponential_mechanism_median,
    "ss": smooth_sensitivity_median,
    "cell": cell_median,
    "noisymean": noisy_mean_median,
    "ems": make_sampled_median(exponential_mechanism_median, sampling_rate=0.01),
    "sss": make_sampled_median(smooth_sensitivity_median, sampling_rate=0.01),
}


def resolve_median_method(method: "str | MedianMethod") -> MedianMethod:
    """Look up a median method by name, or pass a callable straight through."""
    if callable(method):
        return method
    key = str(method).lower()
    if key not in MEDIAN_METHODS:
        raise KeyError(f"unknown median method {method!r}; available: {sorted(MEDIAN_METHODS)}")
    return MEDIAN_METHODS[key]


def resolve_median_batch(method: "str | MedianMethod"):
    """The batch form of a method, or ``None`` for a callable without one."""
    return getattr(resolve_median_method(method), "batch", None)
