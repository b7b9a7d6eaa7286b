"""The invariant suite behind `dicesm check-properties`.

Each property draws seeded random trials, counts violations against its
stated tolerance, and reports the worst observed violation. A property
suite that can never fail is worthless, so `mutate="sign"` deliberately
evaluates the gradient checks with sign(0) = 1 to demonstrate that the kink
gradient check notices.
"""

from __future__ import annotations

import numpy as np

from . import losses
from .calibration import (
    KeyPointSet,
    beta_kernel,
    kde_calibrate_batch,
    log_beta_kernel,
    log_dirichlet_kernel,
    reset_kernel_eval_count,
    verify_bias_bound,
)
from . import calibration
from .core import ConfigError
from .losses import TverskyParams, pairwise, pairwise_values

GOLDEN_RATIO = 0.5 * (1.0 + np.sqrt(5.0))
SEMIMETRIC_RHO = {"dml1": GOLDEN_RATIO, "dml2": GOLDEN_RATIO,
                  "jml1": 1.0, "jml2": 1.0}


def _result(trials, failures, max_violation, **extra):
    out = {"trials": int(trials), "failures": int(failures),
           "max_violation": float(max_violation), "pass": bool(failures == 0)}
    out.update(extra)
    return out


def _grouped_pairs(rng, trials, p_max=64, hard_y=False, hard_x=False):
    """Yield (X, Y) batches grouped by vector length p in 1..p_max."""
    ps = rng.integers(1, p_max + 1, size=trials)
    for p in np.unique(ps):
        n = int(np.sum(ps == p))
        x = rng.random((n, p))
        y = rng.random((n, p))
        if hard_y:
            y = (y < 0.5).astype(float)
        if hard_x:
            x = (x < 0.5).astype(float)
        yield x, y


def check_hard_label_identity(rng, trials):
    """sdl == dml1 == dml2 whenever either side is hard (tol 1e-12)."""
    worst = 0.0
    failures = 0
    half = trials // 2
    for hard_x, n in ((False, half), (True, trials - half)):
        for X, Y in _grouped_pairs(rng, n, hard_y=not hard_x, hard_x=hard_x):
            s = pairwise_values("sdl", X, Y)
            d1 = pairwise_values("dml1", X, Y)
            d2 = pairwise_values("dml2", X, Y)
            gap = np.maximum(np.abs(s - d1), np.abs(s - d2))
            worst = max(worst, float(gap.max(initial=0.0)))
            failures += int(np.sum(gap >= 1e-12))
    return _result(trials, failures, worst)


def check_semimetric_axioms(rng, trials):
    """Reflexivity, positivity, symmetry and the rho-relaxed triangle."""
    out = {}
    for name, rho in SEMIMETRIC_RHO.items():
        worst = 0.0
        failures = 0
        done = 0
        ps = rng.integers(1, 33, size=trials)
        for p in np.unique(ps):
            n = int(np.sum(ps == p))
            a = rng.random((n, p))
            b = rng.random((n, p))
            c = rng.random((n, p))
            refl = np.abs(pairwise_values(name, a, a))
            ab = pairwise_values(name, a, b)
            ba = pairwise_values(name, b, a)
            bc = pairwise_values(name, b, c)
            ac = pairwise_values(name, a, c)
            sym = np.abs(ab - ba)
            tri = ac - rho * (ab + bc)
            apart = np.max(np.abs(a - b), axis=1) > 1e-6
            pos_bad = apart & (ab <= 0.0)
            bad = (refl >= 1e-12) | (sym >= 1e-12) | (tri >= 1e-12) | pos_bad
            failures += int(np.sum(bad))
            worst = max(worst, float(np.max([refl.max(initial=0),
                                             sym.max(initial=0),
                                             tri.max(initial=0)])))
            done += n
        out[name] = _result(done, failures, worst, rho=float(rho))
    return out


def check_witness_ratio():
    """The triple a=[0,1], b=[1,1], c=[1,0] pins the relaxation at 3/2."""
    a = np.array([[0.0, 1.0]])
    b = np.array([[1.0, 1.0]])
    c = np.array([[1.0, 0.0]])
    report = {}
    worst = 0.0
    failures = 0
    for name in ("dml1", "dml2"):
        ac = pairwise_values(name, a, c)[0]
        ab = pairwise_values(name, a, b)[0]
        bc = pairwise_values(name, b, c)[0]
        ratio = ac / (ab + bc)
        report[name] = float(ratio)
        worst = max(worst, abs(ratio - 1.5))
        failures += int(abs(ratio - 1.5) >= 1e-12)
    return _result(2, failures, worst, ratios=report)


def check_order_property(rng, trials):
    """dml1 <= dml2 on every soft pair (tol 1e-12)."""
    worst = 0.0
    failures = 0
    for X, Y in _grouped_pairs(rng, trials):
        d1 = pairwise_values("dml1", X, Y)
        d2 = pairwise_values("dml2", X, Y)
        gap = d1 - d2
        worst = max(worst, float(gap.max(initial=-1.0)))
        failures += int(np.sum(gap >= 1e-12))
    return _result(trials, failures, max(worst, 0.0))


def check_dice_iou_bridge(rng, trials):
    """dml == jml / (2 - jml) for matching variants (tol 1e-12)."""
    worst = 0.0
    failures = 0
    for X, Y in _grouped_pairs(rng, trials):
        for dn, jn in (("dml1", "jml1"), ("dml2", "jml2")):
            d = pairwise_values(dn, X, Y)
            j = pairwise_values(jn, X, Y)
            gap = np.abs(d - j / (2.0 - j))
            worst = max(worst, float(gap.max(initial=0.0)))
            failures += int(np.sum(gap >= 1e-12))
    return _result(trials, failures, worst)


def check_minimizers(rng, n_targets=100):
    """Grid scan over scalar predictions: the compatible losses bottom out
    at x == y, the L1 relaxations at a vertex; includes the y=0.5 case
    where sdl prefers x=1 (1/3) over x=y (1/2)."""
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    X = grid[:, None]
    tv = TverskyParams(0.7, 0.3)
    failures = 0
    worst = 0.0
    for _ in range(n_targets):
        yv = float(rng.uniform(0.01, 0.99))
        Y = np.full_like(X, yv)
        for name in ("dml1", "dml2", "ctl"):
            vals = pairwise_values(name, X, Y, tv if name == "ctl" else None)
            gap = abs(grid[int(np.argmin(vals))] - yv)
            worst = max(worst, gap)
            failures += int(gap > 1e-3 + 1e-9)
        for name in ("sdl", "sjl", "stl"):
            vals = pairwise_values(name, X, Y, tv if name == "stl" else None)
            at = grid[int(np.argmin(vals))]
            failures += int(at not in (0.0, 1.0))
    s_half = pairwise_values("sdl", np.array([[1.0], [0.5]]), np.full((2, 1), 0.5))
    ok_case = (abs(s_half[0] - 1.0 / 3.0) < 1e-12 and abs(s_half[1] - 0.5) < 1e-12
               and s_half[0] < s_half[1])
    failures += int(not ok_case)
    return _result(n_targets * 6 + 1, failures, worst)


def check_tversky_suite(rng, trials):
    """stl == ctl on hard labels; ctl(0.5, 0.5) == dml1; ctl reflexivity and
    positivity; focal ordering on the (0.7, 0.3, y=0.8) configuration."""
    failures = 0
    worst = 0.0
    tv = TverskyParams(0.7, 0.3)
    half = TverskyParams(0.5, 0.5)
    n = 0
    for X, Y in _grouped_pairs(rng, trials, hard_y=True):
        gap = np.abs(pairwise_values("stl", X, Y, tv)
                     - pairwise_values("ctl", X, Y, tv))
        worst = max(worst, float(gap.max(initial=0.0)))
        failures += int(np.sum(gap >= 1e-12))
        n += X.shape[0]
    for X, Y in _grouped_pairs(rng, trials):
        gap = np.abs(pairwise_values("ctl", X, Y, half)
                     - pairwise_values("dml1", X, Y))
        worst = max(worst, float(gap.max(initial=0.0)))
        failures += int(np.sum(gap >= 1e-12))
        refl = np.abs(pairwise_values("ctl", X, X, tv))
        worst = max(worst, float(refl.max(initial=0.0)))
        failures += int(np.sum(refl >= 1e-12))
        apart = np.max(np.abs(X - Y), axis=1) > 1e-6
        pos = pairwise_values("ctl", X, Y, tv)
        failures += int(np.sum(apart & (pos <= 0.0)))
        n += 3 * X.shape[0]
    grid = np.linspace(0.0, 1.0, 201)[:, None]
    Y8 = np.full_like(grid, 0.8)
    curves = {g: pairwise_values("cftl", grid, Y8, TverskyParams(0.7, 0.3, g))
              for g in (1.0, 2.0, 4.0)}
    near = np.abs(grid[:, 0] - 0.8) < 0.1
    focal_ok = (np.mean(curves[4.0][near]) < np.mean(curves[2.0][near])
                < np.mean(curves[1.0][near]))
    slopes = {g: np.max(np.abs(np.diff(c))) for g, c in curves.items()}
    focal_ok = focal_ok and slopes[4.0] > slopes[2.0] > slopes[1.0]
    failures += int(not focal_ok)
    return _result(n + 1, failures, worst)


def check_gradients(rng, n_points=1000, sign_at_zero=0.0):
    """Analytic gradients against central differences (step 1e-6, relative
    tolerance 1e-5) at interior points away from the L1 kinks."""
    h = 1e-6
    p = 6
    tv = TverskyParams(0.7, 0.3, 2.0)
    failures = 0
    worst = 0.0
    for name in losses.LOSS_NAMES:
        params = tv if losses.LOSSES[name].params is TverskyParams else None
        X = rng.uniform(0.02, 0.98, (n_points, p))
        Y = rng.uniform(0.02, 0.98, (n_points, p))
        shift = np.abs(X - Y) <= 2e-3
        Y = np.where(shift, np.clip(Y + 0.05, 0.0, 0.98), Y)
        _, grads, _ = pairwise(name, X, Y, params, sign_at_zero)
        for j in range(p):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, j] += h
            Xm[:, j] -= h
            fd = (pairwise_values(name, Xp, Y, params)
                  - pairwise_values(name, Xm, Y, params)) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[:, j])), 1e-8)
            rel = np.abs(fd - grads[:, j]) / denom
            worst = max(worst, float(rel.max(initial=0.0)))
            failures += int(np.sum(rel >= 1e-5))
    return _result(len(losses.LOSS_NAMES) * n_points, failures, worst)


def check_kink_gradients(rng, n_points=200, sign_at_zero=0.0):
    """At x == y the subgradient convention must agree with central
    differences (which vanish there); flipping sign(0) breaks this."""
    h = 1e-6
    p = 4
    failures = 0
    worst = 0.0
    for name in ("jml1", "jml2", "dml1", "dml2", "ctl"):
        params = TverskyParams(0.7, 0.3) if name == "ctl" else None
        X = rng.uniform(0.1, 0.9, (n_points, p))
        _, grads, _ = pairwise(name, X, X, params, sign_at_zero)
        for j in range(p):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, j] += h
            Xm[:, j] -= h
            fd = (pairwise_values(name, Xp, X, params)
                  - pairwise_values(name, Xm, X, params)) / (2 * h)
            gap = np.abs(fd - grads[:, j])
            worst = max(worst, float(gap.max(initial=0.0)))
            failures += int(np.sum(gap >= 1e-4))
    return _result(5 * n_points, failures, worst)


def check_beta_normalization():
    """Quadrature of the Beta kernel over [0, 1] (tol 1e-6): 20-point Gauss-Legendre
    on 64 panels each side of fi, graded as u**3 toward the sqrt ends at 0 and 1."""
    from numpy.polynomial.legendre import leggauss  # only here: off the CLI import path

    x, w = leggauss(20)
    u = np.linspace(0.0, 1.0, 65) ** 3
    failures = 0
    worst = 0.0
    cases = [(0.5, 1.0), (0.3, 0.1), (0.9, 0.01), (0.2, 1e-3), (0.7, 1e-3)]
    for fi, h in cases:
        edges = np.concatenate([fi * u, 1.0 - (1.0 - fi) * u[-2::-1]])
        half = np.diff(edges)[:, None] / 2
        val = np.sum(half * w * beta_kernel(edges[:-1, None] + half * (1.0 + x), fi, h))
        gap = abs(val - 1.0)
        worst = max(worst, gap)
        failures += int(gap >= 1e-6)
    return _result(len(cases), failures, worst)


def check_dirichlet_beta(rng, trials=500):
    """The two-class Dirichlet kernel collapses to the Beta kernel."""
    failures = 0
    worst = 0.0
    for _ in range(trials):
        fi, fj = rng.random(), rng.random()
        h = 10 ** rng.uniform(-3, 0.5)
        lb = log_beta_kernel(fj, fi, h)
        ld = log_dirichlet_kernel(np.array([fj, 1 - fj]), np.array([fi, 1 - fi]), h)[0]
        if np.isinf(lb) and np.isinf(ld):
            continue
        gap = abs(float(lb) - float(ld))
        worst = max(worst, gap)
        failures += int(gap >= 1e-10)
    return _result(trials, failures, worst)


def check_bias_bound(rng, trials=1000):
    """|E[y] - E[f]| <= E[|E[y|f] - f|] on random finite distributions."""
    failures = 0
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 9))
        res = verify_bias_bound(rng.dirichlet(np.ones(m)), rng.random(m), rng.random(m))
        slack = res.bias - res.calib_error
        worst = max(worst, slack)
        failures += int(not res.holds)
    return _result(trials, failures, max(worst, 0.0))


def check_kernel_complexity(rng):
    """Calibrating m pixels against n keys costs exactly m * n evaluations."""
    n, m = 64, 321
    keys = KeyPointSet(rng.random((n, 1)), (rng.random((n, 1)) < 0.5).astype(float),
                       np.arange(n))
    reset_kernel_eval_count()
    kde_calibrate_batch(rng.random((m, 1)), keys, h=1e-3)
    count = calibration.kernel_eval_count
    ok = count == m * n
    return _result(1, int(not ok), abs(count - m * n), observed=int(count),
                   expected=int(m * n))


def run_suite(trials: int = 10_000, seed: int = 42, mutate: str | None = None) -> dict:
    """Run every property; returns the JSON-ready report. A bad argument
    raises ConfigError before any draw."""
    if mutate not in (None, "sign"):
        raise ConfigError(f"unknown mutation {mutate!r}")
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials!r}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed!r}")
    s0 = 1.0 if mutate == "sign" else 0.0
    rng = np.random.default_rng(seed)
    props = {}
    props["hard_label_identity"] = check_hard_label_identity(rng, trials)
    for name, rep in check_semimetric_axioms(rng, trials).items():
        props[f"semimetric_{name}"] = rep
    props["witness_ratio"] = check_witness_ratio()
    props["order_dml1_le_dml2"] = check_order_property(rng, trials)
    props["dice_iou_bridge"] = check_dice_iou_bridge(rng, trials)
    props["minimizers"] = check_minimizers(rng, min(100, max(1, trials // 100)))
    props["tversky"] = check_tversky_suite(rng, trials)
    props["gradients_interior"] = check_gradients(rng, min(1000, max(10, trials // 10)), s0)
    props["gradients_at_kinks"] = check_kink_gradients(rng, min(200, max(10, trials // 50)), s0)
    props["beta_kernel_normalization"] = check_beta_normalization()
    props["dirichlet_equals_beta"] = check_dirichlet_beta(rng, min(500, trials))
    props["bias_bound"] = check_bias_bound(rng, min(1000, trials))
    props["kernel_complexity"] = check_kernel_complexity(rng)
    return {
        "seed": int(seed),
        "trials": int(trials),
        "mutate": mutate,
        "witness_ratio": props["witness_ratio"]["ratios"],
        "all_pass": all(p["pass"] for p in props.values()),
        "properties": props,
    }
