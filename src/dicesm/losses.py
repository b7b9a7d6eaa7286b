"""Region-overlap losses as pure functions with values and analytic gradients.

Every loss maps a prediction field x and a target field y to a scalar plus
the exact gradient with respect to x. Writing per-class flat vectors and
X = ||x||_1, Y = ||y||_1, S = X + Y, D = ||x - y||_1, P = ||x * y||_1
(elementwise product; P equals <x, y> for values in [0, 1]):

    sdl   1 - 2P/S                 sjl   1 - P/(S - P)
    jml1  2D/(S + D)               jml2  D/(P + D)
    dml1  D/S                      dml2  D/(2P + D)
    stl   1 - P/(a*X + b*Y + (1-a-b)*P)
    ctl   1 - N/(2a*X + 2b*Y + (1-a-b)*N)   with N = S - D
    cftl  ctl**gamma
    ce    pixel-mean cross-entropy (C == 1 uses the implicit background class)
    compound  w_ce*ce + w_dml*dml1 (overlap term swappable)

The D-based losses use the subgradient d|x_i - y_i|/dx_i = sign(x_i - y_i)
with sign(0) = 0, and d||x||_1/dx_i = 1 on the domain [0, 1]. ``pairwise``
takes ``sign_at_zero`` to evaluate them under another convention; the
property suite passes 1.0 to show that its kink check notices. A class whose
denominator vanishes (both maps empty) contributes ReductionSpec.
empty_both_value with zero gradient. Reduction order over pixels is fixed,
so results are deterministic bit for bit.

``LOSSES`` is the one registry. Each name maps to its row kernel, its
parameter type (None, TverskyParams or CompoundParams) and whether it
refuses soft labels (only stl does). LOSS_NAMES, the overlap terms that
compound accepts, ``pairwise`` and ``parse_loss_params``, the one binder
of a loss name and its JSON params, all read it.

``_terms`` evaluates the row kernel per class and reduces over classes on
plain (C, H, W) arrays. Three entries run it:

* ``loss(name, x, y, red, params)`` on one prediction/target pair;
* ``batch_loss(name, xs, ys, red, params)`` on a batch of fields;
* ``_reduce_batch(name, params, xs, ys, red)`` on a batch of arrays that
  the caller has checked itself, as the training loop does.

Fields are checked once, on construction (see core), so the entries check
only what spans two of them: the soft-label guard and the dims, then
``_terms``. The eleven field ops, ``sdl`` to ``compound``, are ``loss``
with the name fixed and the params typed. They and ``batch_loss`` stay
module functions because perfbench's tracer binds them by name. There is
one copy of each kernel's arithmetic: the kernels and the terms work in
place only on temporaries of their own (a pooled batch's copy is one),
and form the same IEEE operations in the same order on every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    DicesmError,
    LabelField,
    ProbField,
    ShapeMismatchError,
    TensorF,
    check_same_dims,
    from_json,
)
# not called here: perfbench's tracer self-test checks that tracing restores
# this binding
from .core import validate  # noqa: F401

CE_CLAMP = 1e-7

MEAN_PRESENT = "mean_present"
MEAN_ALL = "mean_all"
PER_IMAGE_THEN_MEAN = "per_image_then_mean"
POOLED = "pooled"


class SoftLabelIncompatibleError(DicesmError):
    """Raised when a vertex-seeking loss is handed soft labels without an
    explicit override."""


@dataclass(frozen=True)
class ReductionSpec:
    """How per-class losses aggregate over classes and images."""

    class_mode: str = MEAN_PRESENT
    batch_mode: str = PER_IMAGE_THEN_MEAN
    empty_both_value: float = 0.0

    def __post_init__(self):
        if self.class_mode not in (MEAN_PRESENT, MEAN_ALL):
            raise ValueError(f"unknown class_mode {self.class_mode!r}")
        if self.batch_mode not in (PER_IMAGE_THEN_MEAN, POOLED):
            raise ValueError(f"unknown batch_mode {self.batch_mode!r}")
        if not 0.0 <= self.empty_both_value <= 1.0:
            raise ValueError("empty_both_value must be in [0, 1]")


@dataclass(frozen=True)
class TverskyParams:
    """False-positive weight alpha, false-negative weight beta, focal gamma."""

    alpha: float = 0.5
    beta: float = 0.5
    gamma: float = 1.0

    def __post_init__(self):
        # each test is written so that a NaN fails it
        if not (self.alpha >= 0 and self.beta >= 0):
            raise ValueError("alpha and beta must be nonnegative")
        if not 0 < self.alpha + self.beta < np.inf:
            raise ValueError("alpha + beta must be positive and finite")
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")


@dataclass(frozen=True)
class CompoundParams:
    """Weights of the training mixture w_ce * ce + w_dml * overlap and the
    name of its overlap term, one of OVERLAP_NAMES."""

    w_ce: float = 0.25
    w_dml: float = 0.75
    overlap: str = "dml1"

    def __post_init__(self):
        if not (0 <= self.w_ce < np.inf and 0 <= self.w_dml < np.inf):
            raise ValueError("mixture weights must be nonnegative and finite")
        if self.overlap not in OVERLAP_NAMES:
            raise ValueError(f"overlap must be one of {OVERLAP_NAMES}")


@dataclass(frozen=True)
class GradPair:
    """Loss value plus d(loss)/dx of the prediction's shape."""

    value: float
    grad: TensorF


DEFAULT_REDUCTION = ReductionSpec()


# --------------------------------------------------------------------------
# Row kernels, kernel(X, Y, params, s0). X, Y are (N, p) arrays; each row is
# one independent per-class vector pair. s0 is the value taken for sign(0)
# by the D-based kernels. Returns (values (N,), grads (N, p), ok (N,)) where
# ok is False for rows whose denominator vanished; such rows carry value 0
# and zero gradient and the caller substitutes empty_both_value.
# --------------------------------------------------------------------------

def _sign(d: np.ndarray, s0: float, out=None) -> np.ndarray:
    s = np.sign(d, out=out)
    if s0 != 0.0:
        np.copyto(s, s0, where=s == 0.0)  # sign(d) is 0 exactly where d is
    return s


def _safe_div(num, den, out=None):
    """num / den, 0 where den == 0; out may be num."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(num, den, out=out)
    np.copyto(out, 0.0, where=den == 0.0)
    return out


def _finish(vals, grads, ok):
    """Clip vals to [0, 1] and zero the rows that are not ok, in place:
    every kernel hands over arrays of its own."""
    # region losses lie in [0, 1], but rounding can step one ulp outside:
    # D and S summed in different orders put D / S above 1 where x and y
    # have disjoint supports, and ctl's N / T rounds above 1 at x == y
    # when alpha + beta == 1 and alpha != beta
    np.clip(vals, 0.0, 1.0, out=vals)
    vals[~ok] = 0.0
    grads[~ok] = 0.0
    return vals, grads, ok


def _kernel_sdl(X, Y, params, s0):
    P = np.sum(X * Y, axis=1)
    S = np.sum(X, axis=1) + np.sum(Y, axis=1)
    ok = S > 0.0
    vals = 1.0 - _safe_div(2.0 * P, S)
    grads = _safe_div(2.0 * P[:, None] - 2.0 * Y * S[:, None], (S * S)[:, None])
    return _finish(vals, grads, ok)


def _kernel_sjl(X, Y, params, s0):
    P = np.sum(X * Y, axis=1)
    S = np.sum(X, axis=1) + np.sum(Y, axis=1)
    U = S - P
    ok = U > 0.0
    vals = 1.0 - _safe_div(P, U)
    grads = _safe_div(P[:, None] * (1.0 - Y) - Y * U[:, None], (U * U)[:, None])
    return _finish(vals, grads, ok)


def _kernel_jml1(X, Y, params, s0):
    S = np.sum(X, axis=1) + np.sum(Y, axis=1)
    diff = X - Y
    D = np.sum(np.abs(diff), axis=1)
    den = S + D
    ok = den > 0.0
    vals = _safe_div(2.0 * D, den)
    sg = _sign(diff, s0)
    grads = _safe_div(2.0 * (sg * S[:, None] - D[:, None]), (den * den)[:, None])
    return _finish(vals, grads, ok)


def _kernel_jml2(X, Y, params, s0):
    P = np.sum(X * Y, axis=1)
    diff = X - Y
    D = np.sum(np.abs(diff), axis=1)
    den = P + D
    ok = den > 0.0
    vals = _safe_div(D, den)
    sg = _sign(diff, s0)
    grads = _safe_div(sg * P[:, None] - Y * D[:, None], (den * den)[:, None])
    return _finish(vals, grads, ok)


# dml1 and dml2 run the training and distillation losses. Their (N, p)
# arithmetic works in two buffers of their own, with the operations of the
# closed forms in the same order. sign(x - y) is written into the other
# buffer, because numpy's sign runs several times slower in place, and the
# gradient rows become the numerator, then the quotient, in that buffer.

def _kernel_dml1(X, Y, params, s0):
    S = np.sum(X, axis=1) + np.sum(Y, axis=1)
    diff = np.subtract(X, Y)
    g = np.abs(diff)
    D = np.sum(g, axis=1)
    ok = S > 0.0
    vals = _safe_div(D, S)
    _sign(diff, s0, out=g)
    g *= S[:, None]
    g -= D[:, None]
    return _finish(vals, _safe_div(g, (S * S)[:, None], out=g), ok)


def _kernel_dml2(X, Y, params, s0):
    g = np.multiply(X, Y)
    P = np.sum(g, axis=1)
    diff = np.subtract(X, Y)
    D = np.sum(np.abs(diff, out=g), axis=1)
    den = 2.0 * P + D
    ok = den > 0.0
    vals = _safe_div(D, den)
    _sign(diff, s0, out=g)
    g *= P[:, None]
    g -= np.multiply(Y, D[:, None], out=diff)
    g *= 2.0
    # den * den can underflow to 0 where den does not: those rows are 0 too
    return _finish(vals, _safe_div(g, (den * den)[:, None], out=g), ok)


def _kernel_stl(X, Y, params, s0):
    a, b = params.alpha, params.beta
    P = np.sum(X * Y, axis=1)
    SX = np.sum(X, axis=1)
    SY = np.sum(Y, axis=1)
    T = a * SX + b * SY + (1.0 - a - b) * P
    ok = T > 0.0
    vals = 1.0 - _safe_div(P, T)
    dT = a + (1.0 - a - b) * Y
    grads = _safe_div(P[:, None] * dT - Y * T[:, None], (T * T)[:, None])
    return _finish(vals, grads, ok)


def _kernel_ctl(X, Y, params, s0):
    a, b = params.alpha, params.beta
    SX = np.sum(X, axis=1)
    SY = np.sum(Y, axis=1)
    diff = X - Y
    D = np.sum(np.abs(diff), axis=1)
    N = SX + SY - D
    T = 2.0 * a * SX + 2.0 * b * SY + (1.0 - a - b) * N
    ok = T > 0.0
    vals = 1.0 - _safe_div(N, T)
    sg = _sign(diff, s0)
    dN = 1.0 - sg
    dT = 2.0 * a + (1.0 - a - b) * dN
    grads = _safe_div(N[:, None] * dT - dN * T[:, None], (T * T)[:, None])
    return _finish(vals, grads, ok)


def _kernel_cftl(X, Y, params, s0):
    vals, grads, ok = _kernel_ctl(X, Y, params, s0)
    g = params.gamma
    if g == 1.0:
        return vals, grads, ok
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = g * np.power(vals, g - 1.0)
    # at the minimum vals == 0 the focal factor is 0 for gamma > 1 and would
    # be unbounded for gamma < 1; pin it to 0 to keep gradients finite
    factor = np.where(vals == 0.0, 0.0, factor)
    return _finish(np.power(vals, g), factor[:, None] * grads, ok)


def _kernel_ce(X, Y, params, s0):
    p = X.shape[1]
    Xc = np.clip(X, CE_CLAMP, 1.0 - CE_CLAMP)
    vals = -np.sum(Y * np.log(Xc) + (1.0 - Y) * np.log1p(-Xc), axis=1) / p
    grads = -(Y / Xc - (1.0 - Y) / (1.0 - Xc)) / p
    ok = np.ones(X.shape[0], dtype=bool)
    return vals, grads, ok


def _mix(w_ce, ce_grad, w_dml, overlap_grad):
    """w_ce * ce_grad + w_dml * overlap_grad, in place in ce_grad."""
    ce_grad *= w_ce
    overlap_grad *= w_dml
    ce_grad += overlap_grad
    return ce_grad


def _kernel_compound(X, Y, params, s0):
    cv, cg, _ = _kernel_ce(X, Y, None, s0)
    ov, og, ok = LOSSES[params.overlap].kernel(X, Y, None, s0)
    ov[~ok] = 0.0  # empty-both overlap term contributes 0
    vals = params.w_ce * cv + params.w_dml * ov
    grads = _mix(params.w_ce, cg, params.w_dml, og)
    return vals, grads, np.ones(X.shape[0], dtype=bool)


class LossEntry(NamedTuple):
    """Everything the library decides per loss."""

    kernel: Callable
    params: type | None = None  # TverskyParams, CompoundParams or None
    hard_only: bool = False  # refuses soft labels unless allow_soft is set


LOSSES: dict[str, LossEntry] = {
    "sdl": LossEntry(_kernel_sdl),
    "sjl": LossEntry(_kernel_sjl),
    "jml1": LossEntry(_kernel_jml1),
    "jml2": LossEntry(_kernel_jml2),
    "dml1": LossEntry(_kernel_dml1),
    "dml2": LossEntry(_kernel_dml2),
    "stl": LossEntry(_kernel_stl, TverskyParams, hard_only=True),
    "ctl": LossEntry(_kernel_ctl, TverskyParams),
    "cftl": LossEntry(_kernel_cftl, TverskyParams),
    "ce": LossEntry(_kernel_ce),
    "compound": LossEntry(_kernel_compound, CompoundParams),
}

LOSS_NAMES = tuple(LOSSES)

# compound's overlap term: any region loss without parameters
OVERLAP_NAMES = tuple(n for n, e in LOSSES.items() if e.params is None and n != "ce")


def _with_defaults(entry: LossEntry, params):
    return entry.params() if params is None and entry.params is not None else params


def pairwise(name: str, X, Y, params=None, sign_at_zero: float = 0.0):
    """Vectorized row-batched evaluation: row i of X against row i of Y.

    Returns (values, grads, ok). Rows are treated like independent C == 1
    fields (the ce/compound rows take the pixel mean over the row). This is
    the exact kernel the public field ops reduce over; the property suites
    use it to hit their runtime budgets. sign_at_zero is the subgradient the
    D-based losses take where x_i == y_i.
    """
    entry = LOSSES[name]
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if X.shape != Y.shape:
        raise ShapeMismatchError(f"{X.shape} vs {Y.shape}")
    return entry.kernel(X, Y, _with_defaults(entry, params), sign_at_zero)


def pairwise_values(name: str, X, Y, params=None, empty_both_value=0.0):
    vals, _, ok = pairwise(name, X, Y, params)
    return np.where(ok, vals, empty_both_value)


# --------------------------------------------------------------------------
# Field-level ops
# --------------------------------------------------------------------------

# The terms below take (C, H, W) arrays that the caller has checked: equal
# shapes, finite values in [0, 1], and the soft-label guard passed.

def _overlap_terms(name: str, x: np.ndarray, y: np.ndarray, red: ReductionSpec, params):
    """Value and (C, p) gradient of a region loss reduced over classes."""
    C = x.shape[0]
    vals, grads, ok = LOSSES[name].kernel(x.reshape(C, -1), y.reshape(C, -1), params, 0.0)
    # _finish has zeroed the gradient rows that are not ok
    if red.class_mode == MEAN_PRESENT:
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            return red.empty_both_value, grads
        grads /= idx.size
        return float(np.mean(vals[idx])), grads
    vals[~ok] = red.empty_both_value
    grads /= C
    return float(np.mean(vals)), grads


def _ce_terms(x: np.ndarray, y: np.ndarray, own_x: bool = False):
    """Value and (C, p) gradient of the pixel-mean cross-entropy: the binary
    row kernel at C == 1, the categorical -sum_c y log x / p at C >= 2,
    which clips x in place if own_x (x is the caller's scratch copy)."""
    C = x.shape[0]
    if C == 1:
        vals, grads, _ = _kernel_ce(x.reshape(1, -1), y.reshape(1, -1), None, 0.0)
        return float(vals[0]), grads
    p = x.shape[1] * x.shape[2]
    Xc = np.clip(x, CE_CLAMP, 1.0 - CE_CLAMP, out=x if own_x else None)
    t = np.log(Xc)
    t *= y
    value = float(-np.sum(t) / p)
    grad = np.divide(y, Xc, out=t)
    np.negative(grad, out=grad)
    grad /= p
    return value, grad.reshape(C, -1)


def _terms(name: str, x: np.ndarray, y: np.ndarray, red: ReductionSpec, params,
           own_x: bool = False):
    """Value and (C, p) gradient of loss `name` on checked (C, H, W) arrays:
    the arithmetic that every field op, batch_loss and the training loop
    share. params is the loss's params object, defaults filled in."""
    if name == "ce":
        return _ce_terms(x, y, own_x)
    if name == "compound":
        # the overlap term reads x before the ce term may clip it in place
        ov, og = _overlap_terms(params.overlap, x, y, red, None)
        cv, cg = _ce_terms(x, y, own_x)
        return params.w_ce * cv + params.w_dml * ov, _mix(params.w_ce, cg, params.w_dml, og)
    return _overlap_terms(name, x, y, red, params)


def _guard_soft(name: str, hard: bool, allow_soft: bool) -> None:
    """The soft-label guard: a loss that refuses soft labels raises on a
    soft target unless allow_soft is set."""
    if LOSSES[name].hard_only and not hard and not allow_soft:
        raise SoftLabelIncompatibleError(
            f"{name} is minimized at a vertex under soft labels; pass "
            "allow_soft=True only to demonstrate that")


def _field_op(name: str, x: ProbField, y: LabelField, red: ReductionSpec | None,
              params=None, allow_soft: bool = False) -> GradPair:
    """The path of every public field op: the soft-label guard and one dims
    check, then the loss's terms."""
    _guard_soft(name, y.is_hard, allow_soft)
    check_same_dims(x, y)
    red = red if red is not None else DEFAULT_REDUCTION
    value, grad = _terms(name, x.array, y.array, red, _with_defaults(LOSSES[name], params))
    return GradPair(value, TensorF(x.dims, grad.reshape(-1)))


def sdl(x: ProbField, y: LabelField, red: ReductionSpec | None = None) -> GradPair:
    """Classic overlap relaxation 1 - 2P/S. Valid for hard targets; with soft
    targets its minimum sits at a vertex, not at x == y."""
    return _field_op("sdl", x, y, red)


def sjl(x: ProbField, y: LabelField, red: ReductionSpec | None = None) -> GradPair:
    """Intersection-over-union relaxation 1 - P/(S - P); same vertex-seeking
    behavior as sdl under soft targets."""
    return _field_op("sjl", x, y, red)


def jml1(x: ProbField, y: LabelField, red: ReductionSpec | None = None) -> GradPair:
    """Soft-label-compatible IoU loss 2D/(S + D); a metric on [0, 1]^p."""
    return _field_op("jml1", x, y, red)


def jml2(x: ProbField, y: LabelField, red: ReductionSpec | None = None) -> GradPair:
    """Soft-label-compatible IoU loss D/(P + D); a metric on [0, 1]^p."""
    return _field_op("jml2", x, y, red)


def dml1(x: ProbField, y: LabelField, red: ReductionSpec | None = None) -> GradPair:
    """Soft-label-compatible Dice loss D/S; a semimetric on [0, 1]^p that
    collapses to sdl whenever either argument is hard."""
    return _field_op("dml1", x, y, red)


def dml2(x: ProbField, y: LabelField, red: ReductionSpec | None = None) -> GradPair:
    """Soft-label-compatible Dice loss D/(2P + D); dominates dml1."""
    return _field_op("dml2", x, y, red)


def stl(x: ProbField, y: LabelField, params: TverskyParams | None = None,
        red: ReductionSpec | None = None, allow_soft: bool = False) -> GradPair:
    """Tversky relaxation with FP/FN weights; hard targets only.

    Soft targets raise SoftLabelIncompatibleError unless allow_soft is set
    (the loss is vertex-seeking, like sdl); the override exists so the
    incompatibility can be demonstrated, not so it can be ignored.
    """
    return _field_op("stl", x, y, red, params, allow_soft)


def ctl(x: ProbField, y: LabelField, params: TverskyParams | None = None,
        red: ReductionSpec | None = None) -> GradPair:
    """Soft-label-compatible Tversky loss; reflexive and positive for
    alpha, beta > 0, equal to stl on hard targets and to dml1 at
    alpha == beta == 0.5."""
    return _field_op("ctl", x, y, red, params)


def cftl(x: ProbField, y: LabelField, params: TverskyParams | None = None,
         red: ReductionSpec | None = None) -> GradPair:
    """ctl raised to the focal exponent gamma; gamma > 1 flattens the loss
    near its minimum and steepens it far away."""
    return _field_op("cftl", x, y, red, params)


def ce(x: ProbField, y: LabelField, red: ReductionSpec | None = None) -> GradPair:
    """Pixel-mean cross-entropy, soft-label compatible.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the log. C == 1
    fields are scored over the implicit {background, foreground} pair.
    """
    return _field_op("ce", x, y, red)


def compound(x: ProbField, y: LabelField, red: ReductionSpec | None = None,
             w_ce: float = CompoundParams.w_ce, w_dml: float = CompoundParams.w_dml,
             overlap: str = CompoundParams.overlap) -> GradPair:
    """Training mixture w_ce * ce + w_dml * overlap (default dml1)."""
    return _field_op("compound", x, y, red, CompoundParams(w_ce, w_dml, overlap))


# --------------------------------------------------------------------------
# Binding by name and batch reduction
# --------------------------------------------------------------------------

def parse_loss_params(name: str, params: dict | None):
    """Check a loss name and its JSON params against the registry.

    Returns (the loss's params object or None, allow_soft). Unknown names
    and unknown keys raise ValueError; only a loss that refuses soft labels
    takes the allow_soft key.
    """
    if name not in LOSSES:
        raise ValueError(f"unknown loss {name!r}; choose from {LOSS_NAMES}")
    entry = LOSSES[name]
    params = dict(params or {})
    allow_soft = params.pop("allow_soft", False) if entry.hard_only else False
    if not isinstance(allow_soft, bool):
        raise ValueError(f"allow_soft must be true or false, got {allow_soft!r}")
    if entry.params is None:
        if params:
            raise ValueError(f"loss {name!r} takes no params, got {sorted(params)}")
        return None, allow_soft
    return from_json(entry.params, params), allow_soft


@dataclass(frozen=True)
class LossSpec:
    """A loss by registry name with its JSON params, checked by parse_loss_params."""

    name: str = "compound"
    params: dict | None = None

    def __post_init__(self):
        parse_loss_params(self.name, self.params)


def loss(name: str, x: ProbField, y: LabelField, red: ReductionSpec | None = None,
         params: dict | None = None) -> GradPair:
    """Loss `name` with its JSON params, as parse_loss_params reads them,
    on one prediction/target pair: the path of the field ops."""
    bound, allow_soft = parse_loss_params(name, params)
    return _field_op(name, x, y, red, bound, allow_soft)


def _reduce_batch(name: str, params, xs: Sequence[np.ndarray], ys: Sequence[np.ndarray],
                  red: ReductionSpec):
    """Reduce the terms of loss `name` over a batch of checked (C, H, W)
    arrays per red.batch_mode; returns (value, grads) with grads[i] shaped
    as xs[i]. params is parse_loss_params's bound params object.

    per_image_then_mean averages per-image values and divides each
    gradient by the batch size; pooled concatenates every image's pixels,
    class by class, into one (C, 1, sum p) evaluation on copies of its own.
    """
    if len(xs) != len(ys) or not xs:
        raise ShapeMismatchError("batch needs equal, nonzero counts of x and y")
    for x, y in zip(xs, ys):
        if x.shape != y.shape:
            raise ShapeMismatchError(f"dims {x.shape} vs {y.shape}")
    if red.batch_mode == PER_IMAGE_THEN_MEAN:
        pairs = [_terms(name, x, y, red, params) for x, y in zip(xs, ys)]
        for _, g in pairs:
            g /= len(pairs)
        return (float(np.mean([v for v, _ in pairs])),
                [g.reshape(x.shape) for x, (_, g) in zip(xs, pairs)])
    C = xs[0].shape[0]
    if any(x.shape[0] != C for x in xs):
        raise ShapeMismatchError("pooled batch requires a common class count")
    value, g = _terms(name, *(np.concatenate([a.reshape(C, 1, -1) for a in arrays], axis=2)
                              for arrays in (xs, ys)), red, params, own_x=True)
    ends = np.cumsum([x.shape[1] * x.shape[2] for x in xs])[:-1]
    return value, [part.reshape(x.shape)
                   for x, part in zip(xs, np.split(g.reshape(C, -1), ends, axis=1))]


def batch_loss(name: str, xs: Sequence[ProbField], ys: Sequence[LabelField],
               red: ReductionSpec | None = None, params: dict | None = None):
    """Loss `name` with its JSON params over a batch, per
    ReductionSpec.batch_mode.

    Returns (value, grads) where grads[i] is d(value)/d(xs[i]) as a TensorF.
    per_image_then_mean averages per-image losses; pooled concatenates all
    pixels into one evaluation (classes stay aligned). The soft-label guard
    sees the batch as soft if any target is.
    """
    bound, allow_soft = parse_loss_params(name, params)
    _guard_soft(name, all(y.is_hard for y in ys), allow_soft)
    for x, y in zip(xs, ys):
        check_same_dims(x, y)
    red = red if red is not None else DEFAULT_REDUCTION
    value, grads = _reduce_batch(name, bound, [x.array for x in xs], [y.array for y in ys], red)
    return value, [TensorF.from_array(g) for g in grads]
