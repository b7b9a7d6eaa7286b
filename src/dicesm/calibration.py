"""Kernel-density recalibration of predicted probabilities.

The estimator of the conditional label mean at a confidence f is

    E_hat[y | f] = sum_i k(f, f_i) y_i / sum_i k(f, f_i)

over sampled key points (f_i, y_i), with a Beta kernel in the binary case
and a Dirichlet kernel for C >= 2; the kernel concentration follows
alpha = f_i / h + 1 per class (beta = (1 - f_i) / h + 1 for Beta), so a
smaller bandwidth h concentrates mass around f_i. All kernel evaluation
happens in log space with a per-pixel max subtraction: the densities
overflow float64 already at h = 1e-3.

The log kernel of every pixel against every key is one matrix product.
A pixel row f contributes [log f_1, ..., log f_D, 1] (D = 2 with
(f, 1 - f) for Beta), a key contributes [alpha - 1, log normaliser], so
logs are taken once per pixel and gammaln once per key and bandwidth, not per
pair. Pixel rows with an exact 0 entry, where 0 * log 0 must be 0, take the
elementwise xlogy form instead. gammaln and xlogy come from dicesm._special,
numpy ports of scipy.special's on the domain used here (gammaln at x >= 1:
every alpha and its sum; xlogy at y >= 0) that take each log from the C
library, as scipy does, and return scipy's bits; scipy itself is only the
tests' oracle. Calibration runs over blocks of pixel rows: per block the
log weights are shifted by their row max in place, exponentiated with
those that would be subnormal set to 0, and one product with [labels | 1]
yields numerators and totals together. A block holds at most
_BLOCK_MADDS / 3 (pixel, key) pairs, so working memory is bounded
whatever the number of pixels and keys.

Memory per call is O(rows * (C + 2)) for the rows in scope: their checked
copy, their [log P, 1] rows and edge-row mask, built once per call, and the
output. Memory per block is one (block rows, n_key) float64 workspace,
allocated once per call: each block's log-kernel GEMM writes into it, and
the shift, the exp and the zeroing run in it in place. A block where some
weight is dropped takes one more such array, in _kernel_weights, a float64
0/1 copy of its keep mask. The key coefficients and [labels | 1] depend on
the keys and the bandwidth alone; a KeyPointSet builds them on first use
at each bandwidth and keeps them.

Weights below the smallest normal double, tiny = 2**-1022, are set to 0:
neither the exp nor the GEMM then sees a subnormal, which costs each of them
many times a normal operand. This moves a calibrated value by at most
2 * n * tiny for n keys (5.7e-306 at 128 keys). In a live row the shifted
maximum is exactly 0, so its weight is exactly 1, and every total T of the
row is at least 1 (rounding never lowers a sum of nonnegative terms). Let
N, T be a class's numerator and the total with every weight, and N', T'
without the dropped ones. Each dropped weight is below tiny and each label
lies in [0, 1], so N - N' and T - T' lie in [0, n * tiny], and with
N / T <= 1 and T' >= 1
    |N / T - N' / T'| = |(N - N') - (N / T) (T - T')| / T' <= 2 * n * tiny.
Dead rows (every log weight -inf) and their count do not change, and
kernel_eval_count still grows by one per (pixel, key) pair.

kde_calibrate_batch is the one recalibration pass: it takes the pixel
scope (every row, or the rows that select_scope_pixels picks out, the
misclassified and boundary pixels), recalibrates the rows in scope, keeps
the others and clips the result to [0, 1]. Also here: class-stratified
key-point sampling and an exact verifier for the bound
|bias| <= calibration error on finite distributions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._filters import window_max, window_min
from ._special import gammaln, xlogy
from .core import (
    DicesmError,
    OutOfRangeError,
    SIMPLEX_TOL,
    ShapeMismatchError,
    SimplexViolationError,
    check_finite,
    check_seed,
)
from .metrics import class_map

SCOPE_ALL = "all"
SCOPE_BOUNDARY = "misclassified_and_boundary"

# logical kernel evaluations performed so far; one per (pixel, key) pair.
# The complexity contract is Theta(n_pixels * n_key) and tests pin it.
kernel_eval_count = 0

# Multiply-adds per GEMM of a kde_calibrate_batch block. OpenBLAS, the BLAS
# in numpy's wheels, runs a GEMM of at most 2**18 multiply-adds on the
# calling thread and splits a larger one across its threads; a block within
# this budget never waits on another thread, and each of its (rows, n_key)
# float64 arrays is at most 8 * 2**18 / 3 bytes, 0.7 MB. With 2048-row
# blocks (threaded at n_key = 128) the calibrate-c2 benchmark's throughput
# spread twice as widely over 8 runs on a 2-vCPU Xeon: interquartile range
# 11% of the median, against 5.6% within the budget.
_BLOCK_MADDS = 2 ** 18

# Smallest log weight that is exponentiated: log(tiny). exp gives at least
# tiny = 2**-1022 here, and a subnormal for the next double below, so
# _kernel_weights sets to 0 exactly the weights whose exp would be
# subnormal (and -inf and NaN); the module docstring bounds the change in
# the calibrated rows by 2 * n_key * tiny. On a 2-vCPU Xeon, np.exp took
# 177 ns per subnormal result against 1.6 ns per normal one, and a
# 682 x 128 @ 128 x 3 GEMM with 5% subnormal weights 681 us against 42 us.
# The zeroing multiplies by a 0/1 float copy of the keep mask around one
# plain exp over the block, not a masked np.exp(..., where=), which runs its
# inner loop once per run of kept entries; at h = 1e-3 kept and dropped
# weights interleave at random. On a 682 x 128 calibrate-c2 block (46-48%
# kept) that took 0.19-0.20 ms, against 0.25-0.26 ms through a np.where
# copy and 0.66 ms for the masked exp, with equal bytes; a block that keeps
# every weight takes the exp alone, 0.09 ms. A block holding -inf or NaN,
# which a min pass finds, also pays an fmax pass (0.22-0.23 ms in all).
_EXP_ZERO_BELOW = float(np.log(np.finfo(np.float64).tiny))


def _block_rows(n_key: int, c: int) -> int:
    """Pixel rows per block against n_key keys with c classes: both block
    GEMMs, (rows, D + 1) @ (D + 1, n_key) with D = max(c, 2) and
    (rows, n_key) @ (n_key, c + 1), stay within _BLOCK_MADDS."""
    return max(1, _BLOCK_MADDS // (n_key * (max(c, 2) + 1)))


def _kernel_weights(lw: np.ndarray) -> np.ndarray:
    """exp of a block of shifted log weights, +0.0 where lw < _EXP_ZERO_BELOW,
    -inf or NaN, so no weight is subnormal. Overwrites lw and returns it."""
    keep = lw >= _EXP_ZERO_BELOW
    if keep.all():
        return np.exp(lw, out=lw)
    if not lw.min() > -np.inf:
        # -inf and NaN times 0.0 are NaN; fmax makes both finite, as dropped
        np.fmax(lw, -np.finfo(np.float64).max, out=lw)
    # a finite x times 0.0 is +-0, whose exp is 1, and 1 * 0.0 is +0.0
    k = keep.astype(np.float64)
    np.multiply(lw, k, out=lw)
    np.exp(lw, out=lw)
    return np.multiply(lw, k, out=lw)


def reset_kernel_eval_count() -> None:
    global kernel_eval_count
    kernel_eval_count = 0


class EmptyBatchError(DicesmError):
    pass


class InvalidDistributionError(DicesmError):
    pass


class DegenerateWeightsWarning(UserWarning):
    pass


def _check_bandwidth(h) -> None:
    if not 0.0 < h < np.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {h!r}")


@dataclass(frozen=True)
class KdeSpec:
    """Bandwidth, key-point budget, pixel scope and sampling seed."""

    bandwidth: float = 1e-3
    n_key: int = 128
    pixel_scope: str = SCOPE_ALL
    boundary_radius: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_bandwidth(self.bandwidth)
        if self.n_key <= 0:
            raise ValueError("n_key must be positive")
        if self.pixel_scope not in (SCOPE_ALL, SCOPE_BOUNDARY):
            raise ValueError(f"unknown pixel_scope {self.pixel_scope!r}")
        if self.boundary_radius <= 0:
            raise ValueError("boundary_radius must be positive")
        check_seed(self.seed)


@dataclass(frozen=True)
class KeyPointSet:
    """Sampled (confidence row, label row) pairs plus their flat provenance.

    Labels must be finite and in [0, 1] (NonFiniteError, OutOfRangeError).
    The confidences are checked against the kernel's domain on first use at
    a bandwidth, which also builds the key coefficients and [labels | 1]
    once for every later call at that bandwidth: the set is frozen and its
    arrays are read-only, so they cannot go stale.
    """

    confidences: np.ndarray  # (n, C)
    labels: np.ndarray       # (n, C)
    provenance: np.ndarray   # (n,) flat indices into the source batch
    # bandwidth -> (coef, [labels | 1]), see _fit
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        conf = np.atleast_2d(np.asarray(self.confidences, dtype=np.float64))
        lab = np.atleast_2d(np.asarray(self.labels, dtype=np.float64))
        prov = np.asarray(self.provenance, dtype=np.int64).reshape(-1)
        if conf.shape != lab.shape or conf.shape[0] != prov.size:
            raise ShapeMismatchError("confidences, labels and provenance disagree")
        if conf.shape[0] == 0:
            raise EmptyBatchError("a KeyPointSet needs at least one point")
        _check_unit("labels", lab)
        for a in (conf, lab, prov):
            a.flags.writeable = False
        object.__setattr__(self, "confidences", conf)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "provenance", prov)

    def __len__(self):
        return self.confidences.shape[0]

    @property
    def n_classes(self):
        return self.confidences.shape[1]

    def _fit(self, h: float):
        """(_key_coef of the checked key rows at bandwidth h, [labels | 1]),
        both read-only, built on the first call with this h."""
        fit = self._fits.get(h)
        if fit is None:
            if self.n_classes == 1:
                fi = _check_unit("fi", self.confidences)
                Q = np.hstack([fi, 1.0 - fi])
            else:
                Q = _check_simplex_rows("fi", self.confidences)
            fit = (_key_coef(Q, h), np.hstack([self.labels, np.ones((len(self), 1))]))
            for a in fit:
                a.flags.writeable = False
            self._fits[h] = fit
        return fit


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------

def _check_unit(name, v):
    v = np.asarray(v, dtype=np.float64)
    check_finite(v)
    if v.min(initial=0.0) < 0.0 or v.max(initial=1.0) > 1.0:
        raise OutOfRangeError(f"{name} outside [0, 1]")
    return v


def _key_coef(Q, h: float) -> np.ndarray:
    """(D + 1, n) [alpha - 1; log normaliser] of the Dirichlet keys with
    concentrations alpha = Q / h + 1 from the rows of Q (n, D)."""
    a = Q / h + 1.0
    return np.vstack([(a - 1.0).T, gammaln(a.sum(axis=1)) - np.sum(gammaln(a), axis=1)])


def _pixel_logs(P):
    """The [log P, 1] rows (m, D + 1) of P (m, D), with log 1 = 0 standing
    in for log 0, and the (m,) mask of the edge rows, which hold an exact 0
    and take the xlogy form in _log_kernel_rows."""
    zero = P == 0.0
    logs = np.empty((P.shape[0], P.shape[1] + 1))
    logs[:, -1] = 1.0
    t = np.where(zero, 1.0, P)
    logs[:, :-1] = np.log(t, out=t)
    return logs, zero.any(axis=1)


def _log_kernel_rows(P, logs, edge, coef, out=None) -> np.ndarray:
    """(m, n) log Dirichlet densities at the rows of P (m, D), on the
    simplex, under the keys of coef = _key_coef(Q, h); logs, edge =
    _pixel_logs(P). Written into out (m, n) when given.

    One GEMM: [log P, 1] @ coef. Edge rows take the xlogy form, which keeps
    0 * log 0 = 0 (a key with a 0 in the same class) apart from a vanishing
    density (log -inf)."""
    lk = np.matmul(logs, coef, out=out)
    edge = np.flatnonzero(edge)
    if edge.size:
        # (D, edge, n), so each pass runs along the keys. Summing the classes
        # in order gives the bits of np.sum over a trailing class axis for
        # D < 8; from 8 terms on, numpy's pairwise sum splits them in 8 lanes
        lk[edge] = np.sum(xlogy(coef[:-1, None, :], P[edge].T[:, :, None]), axis=0) + coef[-1]
    return lk


def log_beta_kernel(fj, fi, h: float):
    """Log Beta(alpha_i, beta_i) density at fj, alpha_i = fi/h + 1,
    beta_i = (1 - fi)/h + 1. Broadcasts over arrays; -inf where the density
    vanishes at the endpoints."""
    _check_bandwidth(h)
    fj = _check_unit("fj", fj)
    fi = _check_unit("fi", fi)
    a = fi / h + 1.0
    b = (1.0 - fi) / h + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lk = (xlogy(a - 1.0, fj) + xlogy(b - 1.0, 1.0 - fj)
              + gammaln(a + b) - gammaln(a) - gammaln(b))
    return np.where(np.isnan(lk), -np.inf, lk)


def beta_kernel(fj, fi, h: float):
    """Beta kernel density; nonnegative, integrates to 1 over fj in [0, 1]."""
    return np.exp(log_beta_kernel(fj, fi, h))


def _check_simplex_rows(name, v):
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    check_finite(v)
    if v.min(initial=0.0) < -SIMPLEX_TOL:
        raise SimplexViolationError(f"{name} is not on the simplex")
    sums = v.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > SIMPLEX_TOL):
        raise SimplexViolationError(f"{name} rows do not sum to 1")
    return np.clip(v, 0.0, 1.0)


def log_dirichlet_kernel(fj, fi, h: float):
    """Log Dirichlet density at simplex row(s) fj with concentration
    alpha_k = fi_k / h + 1. fj may be (C,) or (m, C); fi is a single row."""
    _check_bandwidth(h)
    fj = _check_simplex_rows("fj", fj)
    fi = _check_simplex_rows("fi", fi)[:1]
    return _log_kernel_rows(fj, *_pixel_logs(fj), _key_coef(fi, h))[:, 0]


# --------------------------------------------------------------------------
# Key points and calibration
# --------------------------------------------------------------------------

def _as_rows(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ShapeMismatchError(f"expected (n,) or (n, C), got {a.shape}")
    return a


def sample_key_points(confidences, labels, spec: KdeSpec) -> KeyPointSet:
    """Class-stratified sample of n_key points from a batch.

    Each class present in the batch contributes ceil(n_key / n_unique)
    points, capped by availability; n_key >= n returns the whole batch.
    Deterministic given spec.seed.
    """
    conf = _as_rows(confidences)
    lab = _as_rows(labels)
    if conf.shape != lab.shape:
        raise ShapeMismatchError(f"{conf.shape} vs {lab.shape}")
    n = conf.shape[0]
    if n == 0:
        raise EmptyBatchError("empty batch")
    if spec.n_key >= n:
        return KeyPointSet(conf, lab, np.arange(n))
    classes = class_map(lab.T)
    # the sorted class ids; np.unique would import numpy.ma on first use
    uniques = np.flatnonzero(np.bincount(classes))
    quota = -(-spec.n_key // uniques.size)  # ceil
    rng = np.random.default_rng(spec.seed)
    chosen = []
    for c in uniques:
        pool = np.flatnonzero(classes == c)
        take = min(quota, pool.size)
        chosen.append(rng.choice(pool, size=take, replace=False))
    idx = np.sort(np.concatenate(chosen))
    return KeyPointSet(conf[idx], lab[idx], idx)


def kde_calibrate_batch(F, keys: KeyPointSet, h: float, scope=None) -> np.ndarray:
    """Recalibrate rows of confidences against the key set.

    Returns (m, C), clipped to [0, 1]. The rows that scope indexes (every
    row when scope is None) become convex combinations of key labels under
    normalized kernel weights; the other rows are returned unchanged, and
    so are rows whose weights all underflow to zero, which one
    DegenerateWeightsWarning counts. kernel_eval_count grows by one per
    recalibrated row and key.

    Each call holds O(rows * (C + 2)) for the r rows in scope (checked
    rows, [log P, 1] rows, edge mask, output) and one (min(r, block rows),
    n) workspace that every block reuses; the key coefficients come from
    keys, built there once per bandwidth.
    """
    global kernel_eval_count
    _check_bandwidth(h)
    F = _as_rows(F)
    m, c = F.shape
    if c != keys.n_classes:
        raise ShapeMismatchError(f"{c} classes vs keys {keys.n_classes}")
    rows = np.arange(m) if scope is None else np.arange(m)[scope]
    sel = F if scope is None else F[rows]
    n = len(keys)
    kernel_eval_count += rows.size * n
    if c == 1:
        sel = _check_unit("fj", sel)
        pix = np.hstack([sel, 1.0 - sel])
    else:
        pix = _check_simplex_rows("fj", sel)
    coef, labels_and_one = keys._fit(h)
    logs, edge = _pixel_logs(pix)
    out = F.copy()
    n_dead = 0
    step = _block_rows(n, c)
    work = np.empty((min(step, rows.size), n))
    at = np.arange(len(work))
    for lo in range(0, rows.size, step):
        block = slice(lo, lo + step)
        lw = _log_kernel_rows(pix[block], logs[block], edge[block], coef,
                              out=work[:len(rows[block])])
        # lw.max(axis=1) by value, read at each row's argmax: one pass over
        # the block instead of one short reduction per row
        top = lw[at[:len(lw)], lw.argmax(axis=1)]
        live = top > -np.inf
        dead = int(live.size - live.sum())
        if dead:
            top[~live] = 0.0
        lw -= top[:, None]
        sums = _kernel_weights(lw) @ labels_and_one
        # a live row's top weight is exp(0) = 1, so its total is at least 1
        if dead or scope is not None:
            out[rows[block][live]] = sums[live, :c] / sums[live, c:]
            n_dead += dead
        else:
            np.divide(sums[:, :c], sums[:, c:], out=out[block])
    if n_dead:
        warnings.warn(f"{n_dead} pixel(s) matched no key point; "
                      "leaving them uncalibrated", DegenerateWeightsWarning)
    np.clip(out, 0.0, 1.0, out=out)
    return out


# --------------------------------------------------------------------------
# Pixel scope
# --------------------------------------------------------------------------

def select_scope_pixels(pred_classes: np.ndarray, label_classes: np.ndarray,
                        spec: KdeSpec) -> np.ndarray:
    """Flat pixel indices where the prediction's class differs from the
    label's, plus pixels within Chebyshev distance boundary_radius of a
    label class transition.

    Both arguments are (H, W) class maps, as class_map or
    softlabels.majority_map give them; only their shapes are checked here.
    """
    if pred_classes.shape != label_classes.shape:
        raise ShapeMismatchError(f"class maps {pred_classes.shape} vs {label_classes.shape}")
    size = 2 * spec.boundary_radius + 1
    near_edge = window_max(label_classes, size) != window_min(label_classes, size)
    return np.flatnonzero((pred_classes != label_classes) | near_edge)


# --------------------------------------------------------------------------
# Exact bias bound on finite distributions
# --------------------------------------------------------------------------

class BiasBoundResult(NamedTuple):
    bias: float
    calib_error: float
    holds: bool


def verify_bias_bound(weights, confidences, cond_probs,
                      tol: float = 1e-12) -> BiasBoundResult:
    """Check |E[y] - E[f]| <= E[|E[y|f] - f|] on an explicit finite
    distribution over (f, y).

    weights are point masses summing to 1, confidences the f values, and
    cond_probs the conditional P(y=1) at each point; points sharing an f
    value are pooled before the conditional expectation, so both sides are
    exact sums.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    f = np.asarray(confidences, dtype=np.float64).reshape(-1)
    q = np.asarray(cond_probs, dtype=np.float64).reshape(-1)
    if not (w.size == f.size == q.size) or w.size == 0:
        raise InvalidDistributionError("weights, confidences, cond_probs must "
                                       "be equal-length and nonempty")
    # each test is written so that a NaN fails it
    if not (w.min() >= 0 and abs(w.sum() - 1.0) <= 1e-12):
        raise InvalidDistributionError("weights must be nonnegative and sum to 1")
    if not (f.min() >= 0 and f.max() <= 1 and q.min() >= 0 and q.max() <= 1):
        raise InvalidDistributionError("confidences and cond_probs must be in [0, 1]")
    bias = abs(float(np.sum(w * q) - np.sum(w * f)))
    calib = 0.0
    for v in np.unique(f):
        sel = f == v
        mass = float(np.sum(w[sel]))
        if mass == 0.0:
            continue
        cond_mean = float(np.sum(w[sel] * q[sel])) / mass
        calib += mass * abs(cond_mean - v)
    return BiasBoundResult(bias, calib, bias <= calib + tol)
