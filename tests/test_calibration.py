import inspect
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import gammaln, xlogy

from dicesm import calibration
from dicesm.calibration import (
    BiasBoundResult,
    DegenerateWeightsWarning,
    EmptyBatchError,
    InvalidDistributionError,
    KdeSpec,
    KeyPointSet,
    beta_kernel,
    kde_calibrate_batch,
    log_beta_kernel,
    log_dirichlet_kernel,
    reset_kernel_eval_count,
    sample_key_points,
    select_scope_pixels,
    verify_bias_bound,
)
from dicesm.core import (NonFiniteError, OutOfRangeError, ShapeMismatchError,
                         SimplexViolationError)


class TestBetaKernel:
    def test_closed_form_value(self):
        # fi=0.5, h=1 -> Beta(1.5, 1.5); density at 0.5 is 4/pi
        assert beta_kernel(0.5, 0.5, 1.0) == pytest.approx(4 / np.pi, rel=1e-12)

    def test_matches_scipy_beta_pdf(self, rng):
        for _ in range(50):
            fi = rng.random()
            h = 10 ** rng.uniform(-3, 0.5)
            fj = rng.random()
            a, b = fi / h + 1, (1 - fi) / h + 1
            assert beta_kernel(fj, fi, h) == pytest.approx(
                stats.beta.pdf(fj, a, b), rel=1e-9)

    @pytest.mark.parametrize("fi,h", [(0.5, 1.0), (0.3, 0.1), (0.9, 0.01),
                                      (0.05, 1e-3), (0.5, 1e-3)])
    def test_integrates_to_one(self, fi, h):
        val, _ = integrate.quad(lambda t: beta_kernel(t, fi, h), 0.0, 1.0,
                                points=[fi], limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_mass_concentrates_at_fi(self):
        # mode of Beta(a, b) is (a-1)/(a+b-2) = fi exactly
        fi = 0.3
        for h in (1.0, 0.1, 1e-2, 1e-3):
            grid = np.linspace(0, 1, 2001)
            dens = beta_kernel(grid, fi, h)
            assert grid[int(np.argmax(dens))] == pytest.approx(fi, abs=1e-3)
        near = integrate.quad(lambda t: beta_kernel(t, fi, 1e-3), 0.25, 0.35)[0]
        assert near > 0.99

    def test_endpoint_zeros(self):
        assert beta_kernel(0.0, 0.5, 0.1) == 0.0
        assert beta_kernel(1.0, 0.5, 0.1) == 0.0

    @pytest.mark.parametrize("fj,fi", [(np.zeros((0, 1)), np.array([[0.5]])),
                                       (np.array([]), 0.5)])
    def test_empty_input(self, fj, fi):
        lk = log_beta_kernel(fj, fi, 0.1)
        assert lk.shape == np.broadcast_shapes(fj.shape, np.shape(fi))

    def test_domain_errors(self):
        with pytest.raises(OutOfRangeError):
            beta_kernel(1.2, 0.5, 0.1)
        with pytest.raises(OutOfRangeError):
            beta_kernel(0.5, -0.1, 0.1)
        with pytest.raises(NonFiniteError):
            beta_kernel(np.nan, 0.5, 0.1)
        with pytest.raises(ValueError):
            beta_kernel(0.5, 0.5, 0.0)


def dirichlet_pdf(fj, fi, h):
    """The Dirichlet density at one simplex row fj."""
    return float(np.exp(log_dirichlet_kernel(fj, fi, h))[0])


class TestDirichletKernel:
    def test_two_class_reduces_to_beta(self, rng):
        for _ in range(100):
            fi = rng.random()
            fj = rng.random()
            h = 10 ** rng.uniform(-3, 0.5)
            d = dirichlet_pdf([fj, 1 - fj], [fi, 1 - fi], h)
            b = beta_kernel(fj, fi, h)
            assert d == pytest.approx(b, rel=1e-12, abs=1e-300)

    def test_symmetric_under_joint_permutation(self, rng):
        fj = rng.dirichlet(np.ones(3))
        fi = rng.dirichlet(np.ones(3))
        ref = dirichlet_pdf(fj, fi, 0.5)
        for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
            assert dirichlet_pdf(fj[perm], fi[perm], 0.5) == pytest.approx(ref, rel=1e-12)

    def test_uniform_center_symmetric_in_fj(self):
        fi = np.full(3, 1 / 3)
        fj = np.array([0.5, 0.3, 0.2])
        for perm in ([1, 0, 2], [2, 0, 1]):
            assert dirichlet_pdf(fj[perm], fi, 1.0) == pytest.approx(
                dirichlet_pdf(fj, fi, 1.0), rel=1e-12)

    def test_integrates_over_simplex(self):
        fi = np.array([0.5, 0.3, 0.2])
        h = 0.5
        val, _ = integrate.dblquad(
            lambda x2, x1: dirichlet_pdf([x1, x2, 1.0 - x1 - x2], fi, h),
            0.0, 1.0, lambda x1: 0.0, lambda x1: 1.0 - x1,
            epsabs=1e-4, epsrel=1e-4)
        assert val == pytest.approx(1.0, abs=1e-2)

    def test_matches_scipy_dirichlet(self, rng):
        fi = rng.dirichlet(np.ones(4))
        fj = rng.dirichlet(np.ones(4))
        h = 0.2
        a = fi / h + 1
        assert dirichlet_pdf(fj, fi, h) == pytest.approx(
            stats.dirichlet.pdf(fj, a), rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(NonFiniteError):
            log_dirichlet_kernel([np.nan, 0.5], [0.5, 0.5], 0.1)
        with pytest.raises(NonFiniteError):
            log_dirichlet_kernel([0.5, 0.5], [np.inf, 0.5], 0.1)
        with pytest.raises(SimplexViolationError):
            log_dirichlet_kernel([0.7, 0.5], [0.5, 0.5], 0.1)


class TestSampleKeyPoints:
    def test_dense_when_budget_covers(self, rng):
        conf = rng.random(10)
        lab = (rng.random(10) < 0.5).astype(float)
        keys = sample_key_points(conf, lab, KdeSpec(n_key=10))
        assert len(keys) == 10
        np.testing.assert_array_equal(keys.provenance, np.arange(10))

    def test_stratification(self, rng):
        conf = rng.random(100)
        lab = np.zeros(100)
        lab[:5] = 1.0  # minority class
        keys = sample_key_points(conf, lab, KdeSpec(n_key=4, seed=1))
        classes = (keys.labels[:, 0] > 0.5).astype(int)
        assert np.sum(classes == 1) >= 2
        assert np.sum(classes == 0) >= 2

    def test_deterministic(self, rng):
        conf = rng.random(64)
        lab = (rng.random(64) < 0.5).astype(float)
        a = sample_key_points(conf, lab, KdeSpec(n_key=8, seed=3))
        b = sample_key_points(conf, lab, KdeSpec(n_key=8, seed=3))
        np.testing.assert_array_equal(a.provenance, b.provenance)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            sample_key_points(np.zeros(0), np.zeros(0), KdeSpec(n_key=4))


class TestKeyPointSet:
    @pytest.mark.parametrize("bad,error", [(np.nan, NonFiniteError), (np.inf, NonFiniteError),
                                           (5.0, OutOfRangeError), (-3.0, OutOfRangeError)])
    @pytest.mark.parametrize("c", [1, 2])
    def test_labels_must_be_finite_and_in_the_unit_interval(self, bad, error, c):
        conf = np.full((3, c), 1.0 / c)
        labels = np.eye(max(c, 2))[[0, 1, 0]][:, :c]
        labels[2, 0] = bad
        with pytest.raises(error):
            KeyPointSet(conf, labels, np.arange(3))


class TestKdeCalibrate:
    def test_single_key_returns_its_label(self):
        keys = KeyPointSet(np.array([[0.7]]), np.array([[1.0]]), np.array([0]))
        out = kde_calibrate_batch(np.array([[0.2]]), keys, h=0.1)[0]
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_identical_confidences_average_labels(self):
        keys = KeyPointSet(np.full((4, 1), 0.6),
                           np.array([[1.0], [0.0], [1.0], [1.0]]),
                           np.arange(4))
        for f in (0.1, 0.5, 0.9):
            out = kde_calibrate_batch(np.array([[f]]), keys, h=0.05)[0]
            assert out[0] == pytest.approx(0.75, abs=1e-12)

    def test_output_on_simplex_multiclass(self, rng):
        n = 50
        conf = rng.dirichlet(np.ones(3), size=n)
        lab = np.eye(3)[rng.integers(0, 3, n)]
        keys = KeyPointSet(conf, lab, np.arange(n))
        out = kde_calibrate_batch(rng.dirichlet(np.ones(3), size=20), keys, h=0.1)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_consistency_against_square_law(self):
        # E[y | f] = f^2 oracle: f ~ U(0,1), y ~ Bernoulli(f^2)
        rng = np.random.default_rng(7)
        n = 10_000
        f = rng.random(n)
        y = (rng.random(n) < f ** 2).astype(float)
        keys = KeyPointSet(f[:, None], y[:, None], np.arange(n))
        grid = np.linspace(0.05, 0.95, 181)
        est = kde_calibrate_batch(grid[:, None], keys, h=1e-3)[:, 0]
        mae = float(np.mean(np.abs(est - grid ** 2)))
        assert mae < 0.05

    def test_degenerate_weights_fall_back(self):
        # the single key sits at an endpoint; a pixel at the other endpoint
        # gets exactly zero density under h small
        keys = KeyPointSet(np.array([[1.0]]), np.array([[1.0]]), np.array([0]))
        with pytest.warns(DegenerateWeightsWarning):
            out = kde_calibrate_batch(np.array([[0.0]]), keys, h=0.5)[0]
        assert out[0] == 0.0  # unchanged input

    def test_rows_off_the_simplex_raise(self, rng):
        conf = rng.dirichlet(np.ones(2), size=5)
        keys = KeyPointSet(conf, np.eye(2)[[0, 1, 0, 1, 0]], np.arange(5))
        rows = rng.dirichlet(np.ones(2), size=3)
        rows[1, 0] += 1e-5
        with pytest.raises(SimplexViolationError):
            kde_calibrate_batch(rows, keys, 0.1)


class TestScopedPass:
    """With a scope, kde_calibrate_batch is the pass that copies F and
    replaces F[scope] by the recalibration of those rows alone, bit for bit,
    at block edges included."""

    @pytest.mark.filterwarnings("ignore::dicesm.calibration.DegenerateWeightsWarning")
    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("size", ["0", "1", "B-1", "B", "B+1", "m"])
    def test_matches_recalibrating_the_scoped_rows(self, size, c):
        n, h = 11, 0.05
        block = calibration._block_rows(n, c)
        m = 2 * block + 7
        k = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "m": m}[size]
        rng = np.random.default_rng(100 * c + k)
        keys = _keys_with_endpoints(rng, n, c)
        F = _rows_with_endpoints(rng, m, c)
        scope = np.sort(rng.choice(m, size=k, replace=False))
        want = F.copy()
        want[scope] = kde_calibrate_batch(F[scope], keys, h)
        reset_kernel_eval_count()
        got = kde_calibrate_batch(F, keys, h, scope)
        assert calibration.kernel_eval_count == k * n
        assert got.tobytes() == want.tobytes()

    def test_empty_scope_returns_the_rows(self, rng):
        F = rng.dirichlet(np.ones(2), size=9)
        keys = KeyPointSet(F[:4], np.eye(2)[[0, 1, 1, 0]], np.arange(4))
        reset_kernel_eval_count()
        out = kde_calibrate_batch(F, keys, 0.1, np.array([], dtype=np.intp))
        assert calibration.kernel_eval_count == 0
        np.testing.assert_array_equal(out, F)
        assert out is not F


BAD_BANDWIDTHS = [0.0, -0.1, np.nan, np.inf, -np.inf]


class TestBandwidth:
    # one check at every entry that takes a bandwidth: positive and finite
    @pytest.mark.parametrize("h", BAD_BANDWIDTHS)
    def test_spec_rejects(self, h):
        with pytest.raises(ValueError, match="positive and finite"):
            KdeSpec(bandwidth=h)

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("h", BAD_BANDWIDTHS)
    def test_calibration_rejects(self, h, c, rng):
        rows = rng.dirichlet(np.ones(2), size=6) if c == 2 else rng.random((6, 1))
        keys = KeyPointSet(rows, np.eye(2)[[0, 1, 0, 1, 0, 1]][:, :c], np.arange(6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive and finite"):
                kde_calibrate_batch(rows, keys, h)

    @pytest.mark.parametrize("h", BAD_BANDWIDTHS)
    def test_kernels_reject(self, h):
        with pytest.raises(ValueError, match="positive and finite"):
            log_beta_kernel(0.5, 0.3, h)
        with pytest.raises(ValueError, match="positive and finite"):
            log_dirichlet_kernel([0.5, 0.5], [0.3, 0.7], h)


class TestSelectScopePixels:
    def test_perfect_prediction_no_boundary(self):
        ones = np.ones((4, 4), np.int64)
        idx = select_scope_pixels(ones, ones, KdeSpec())
        assert idx.size == 0

    def test_one_edge_radius_one(self):
        lab = np.zeros((4, 4), np.int64)
        lab[:, 2:] = 1  # vertical edge between columns 1 and 2
        idx = select_scope_pixels(lab.copy(), lab, KdeSpec(boundary_radius=1))
        rows, cols = np.unravel_index(idx, (4, 4))
        assert set(cols.tolist()) == {1, 2}
        assert rows.size == 8

    def test_all_wrong(self):
        pred, lab = np.ones((3, 3), np.int64), np.zeros((3, 3), np.int64)
        idx = select_scope_pixels(pred, lab, KdeSpec())
        assert idx.size == 9

    def test_maps_of_other_shapes(self):
        with pytest.raises(ShapeMismatchError):
            select_scope_pixels(np.zeros((3, 3), np.int64), np.zeros((3, 4), np.int64),
                                KdeSpec())


class TestBiasBound:
    def test_perfectly_calibrated(self):
        res = verify_bias_bound([0.5, 0.5], [0.2, 0.8], [0.2, 0.8])
        assert res == BiasBoundResult(0.0, 0.0, True)

    def test_two_point_hand_case(self):
        res = verify_bias_bound([0.5, 0.5], [0.2, 0.8], [0.4, 0.6])
        assert res.bias == pytest.approx(0.0, abs=1e-15)
        assert res.calib_error == pytest.approx(0.2, abs=1e-15)
        assert res.holds

    def test_duplicate_f_values_are_pooled(self):
        # two points share f=0.5 with conditionals 0.0 and 1.0: pooled
        # conditional is 0.5, so calibration error vanishes, as does bias
        res = verify_bias_bound([0.5, 0.5], [0.5, 0.5], [0.0, 1.0])
        assert res.calib_error == pytest.approx(0.0, abs=1e-15)
        assert res.bias == pytest.approx(0.0, abs=1e-15)

    def test_invalid_distribution(self):
        with pytest.raises(InvalidDistributionError):
            verify_bias_bound([0.5, 0.4], [0.1, 0.2], [0.1, 0.2])
        with pytest.raises(InvalidDistributionError):
            verify_bias_bound([1.0], [1.4], [0.5])
        with pytest.raises(InvalidDistributionError):
            verify_bias_bound([np.nan, 0.5], [0.2, 0.3], [0.1, 0.2])


# --------------------------------------------------------------------------
# Blocked GEMM kernel against a pair-by-pair oracle
# --------------------------------------------------------------------------

EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).tiny
# below this exp rounds to 0; from it up to log(TINY) it is subnormal or 0
SUBNORMAL_BAND_LO = float(np.log(np.finfo(np.float64).smallest_subnormal)) - 1.0


def assert_same_bytes(got, want):
    """Equal float64 arrays bit for bit: +0.0 and -0.0 differ, NaNs match
    only by payload."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _simplex_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return np.hstack([rows, 1.0 - rows]) if rows.shape[1] == 1 else rows


def _oracle_terms(F, conf, h):
    """(m, n, D) terms (alpha - 1) * log f by xlogy on every (pixel, key,
    class) triple, and the (n,) log normalisers."""
    P, Q = _simplex_rows(F), _simplex_rows(conf)
    a = Q / h + 1.0
    with np.errstate(divide="ignore"):
        terms = xlogy(a[None, :, :] - 1.0, P[:, None, :])
    return terms, gammaln(a.sum(axis=1)) - np.sum(gammaln(a), axis=1)


def _oracle_calibrate(F, keys, h):
    """Calibrated rows and dead-row count, from the full (m, n) weights."""
    terms, norm = _oracle_terms(F, keys.confidences, h)
    lw = terms.sum(axis=2) + norm
    top = lw.max(axis=1, keepdims=True)
    dead = top[:, 0] == -np.inf
    w = np.exp(lw - np.where(dead[:, None], 0.0, top))
    totals = w.sum(axis=1, keepdims=True)
    out = (w @ keys.labels) / np.where(totals > 0.0, totals, 1.0)
    out[dead] = F[dead]
    return out, int(dead.sum())


def _log_tol(F, conf, h):
    """Bound on a log weight's rounding error, fixed from float64: it is a
    sum of D + 1 terms, so it errs by under (D + 3) eps times the largest
    sum of their magnitudes among finite pairs."""
    terms, norm = _oracle_terms(F, conf, h)
    finite = np.isfinite(terms).all(axis=2)
    mag = np.abs(np.where(finite[:, :, None], terms, 0.0)).sum(axis=2) + np.abs(norm)
    return (terms.shape[2] + 3) * EPS * float(mag[finite].max(initial=0.0))


def _output_tol(F, keys, h):
    """A weight errs by the log weight's error, relatively; a ratio of sums
    of n nonnegative weights by twice that plus n + 2 eps."""
    return 2 * _log_tol(F, keys.confidences, h) + (len(keys) + 2) * EPS


def _calibrate_recording(F, keys, h):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = kde_calibrate_batch(F, keys, h)
    return out, [w for w in caught if w.category is DegenerateWeightsWarning]


def _dead_count(caught):
    assert len(caught) <= 1, "one DegenerateWeightsWarning per call at most"
    return int(str(caught[0].message).split()[0]) if caught else 0


def _rows_with_endpoints(rng, m, c):
    """m confidence rows with exact 0 and 1 entries mixed in."""
    if c == 1:
        rows = rng.random((m, 1))
        rows[::5] = 0.0
        rows[1::5] = 1.0
        return rows
    rows = rng.dirichlet(np.ones(c), size=m)
    rows[::5] = np.eye(c)[0]
    rows[1::5] = 0.0
    rows[1::5, :2] = 0.5
    return rows


def _keys_with_endpoints(rng, n, c):
    conf = _rows_with_endpoints(rng, n, c)
    if c == 1:
        lab = (rng.random((n, 1)) < 0.5).astype(float)
    else:
        lab = np.eye(c)[rng.integers(0, c, n)]
    return KeyPointSet(conf, lab, np.arange(n))


def _gammaln_calls(monkeypatch):
    """The shapes calibration.gammaln is called on from here on."""
    calls = []
    gammaln_port = calibration.gammaln
    monkeypatch.setattr(calibration, "gammaln",
                        lambda x: calls.append(np.shape(x)) or gammaln_port(x))
    return calls


class TestBlockedKernel:
    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("blocks,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 7)])
    def test_matches_pairwise_oracle(self, blocks, extra, c):
        n = 11
        m = blocks * calibration._block_rows(n, c) + extra
        rng = np.random.default_rng(1000 * c + m)
        keys = _keys_with_endpoints(rng, n, c)
        F = _rows_with_endpoints(rng, m, c)
        h = 0.05
        reset_kernel_eval_count()
        out, caught = _calibrate_recording(F, keys, h)
        assert calibration.kernel_eval_count == m * len(keys)
        want, n_dead = _oracle_calibrate(F, keys, h)
        np.testing.assert_allclose(out, want, rtol=0, atol=_output_tol(F, keys, h))
        assert _dead_count(caught) == n_dead

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_edge_rows_keep_the_xlogy_oracles_bits(self, c, monkeypatch):
        # about a third of the entries are exactly 0 (at C = 1, confidences
        # exactly 0.0 or 1.0); a row with one takes the xlogy form, whose log
        # weights must equal the oracle's bit for bit, not just within a bound
        n, h = 11, 0.05
        m = calibration._block_rows(n, c) + 7
        rng = np.random.default_rng(20 + c)
        keys = _keys_with_endpoints(rng, n, c)
        if c == 1:
            F = rng.random((m, 1))
            F[rng.random(m) < 1 / 3] = 0.0
            F[rng.random(m) < 1 / 6] = 1.0
        else:
            F = rng.dirichlet(np.ones(c), size=m)
            zero = rng.random((m, c)) < 1 / 3
            zero[zero.all(axis=1), 0] = False
            F[zero] = 0.0
            F /= F.sum(axis=1, keepdims=True)
        blocks = []
        log_kernel_rows = calibration._log_kernel_rows

        def recording(P, logs, edge, coef, out=None):
            lw = log_kernel_rows(P, logs, edge, coef, out)
            blocks.append(lw.copy())
            return lw

        monkeypatch.setattr(calibration, "_log_kernel_rows", recording)
        _calibrate_recording(F, keys, h)
        assert len(blocks) == 2
        terms, norm = _oracle_terms(F, keys.confidences, h)
        edge = (_simplex_rows(F) == 0.0).any(axis=1)
        assert edge.sum() > m // 4
        assert np.vstack(blocks)[edge].tobytes() == (terms.sum(axis=2) + norm)[edge].tobytes()

    @pytest.mark.parametrize("c", [1, 2])
    def test_key_normalisers_once_per_call(self, c, monkeypatch):
        calls = []
        gammaln_port = calibration.gammaln
        monkeypatch.setattr(calibration, "gammaln",
                            lambda x: calls.append(np.shape(x)) or gammaln_port(x))
        n = 11
        rng = np.random.default_rng(c)
        keys = _keys_with_endpoints(rng, n, c)
        F = _rows_with_endpoints(rng, 3 * calibration._block_rows(n, c), c)
        _calibrate_recording(F, keys, 0.05)
        assert sorted(calls) == [(n,), (n, max(c, 2))]

    @pytest.mark.parametrize("c", [1, 2])
    def test_same_keys_and_bandwidth_build_no_coefficients(self, c, monkeypatch):
        n = 11
        rng = np.random.default_rng(c)
        keys = _keys_with_endpoints(rng, n, c)
        F = _rows_with_endpoints(rng, 3 * calibration._block_rows(n, c), c)
        first, _ = _calibrate_recording(F, keys, 0.05)
        calls = _gammaln_calls(monkeypatch)
        again, _ = _calibrate_recording(F[::-1], keys, 0.05)
        assert calls == []
        assert again[::-1].tobytes() == first.tobytes()

    @pytest.mark.parametrize("c", [1, 2])
    def test_a_new_bandwidth_builds_its_coefficients_once(self, c, monkeypatch):
        n = 11
        rng = np.random.default_rng(c)
        keys = _keys_with_endpoints(rng, n, c)
        F = _rows_with_endpoints(rng, 3 * calibration._block_rows(n, c), c)
        _calibrate_recording(F, keys, 0.05)
        calls = _gammaln_calls(monkeypatch)
        got, _ = _calibrate_recording(F, keys, 0.2)
        _calibrate_recording(F, keys, 0.2)
        assert sorted(calls) == [(n,), (n, max(c, 2))]
        fresh = KeyPointSet(keys.confidences, keys.labels, keys.provenance)
        want, _ = _calibrate_recording(F, fresh, 0.2)
        assert got.tobytes() == want.tobytes()

    def test_block_loop_allocates_no_block_sized_array(self, monkeypatch):
        # rows and keys inside (0, 1) at h = 1 keep every weight, so no block
        # takes _kernel_weights' zeroing. Traced memory is read at each
        # block's start and at the end of the call: the only rise by a
        # block's (rows, n) float64 bytes is the call's one workspace, made
        # before the first block, however many blocks follow. Calls of 2 and
        # 8 blocks run on one worker, below the gate, so every block is
        # traced on this thread: reset_peak from two threads would race
        n, c, h = 128, 1, 1.0
        step = calibration._block_rows(n, c)
        rng = np.random.default_rng(9)
        keys = KeyPointSet(rng.uniform(0.3, 0.7, (n, c)),
                           (rng.random((n, c)) < 0.5).astype(float), np.arange(n))
        kde_calibrate_batch(np.full((1, c), 0.5), keys, h)  # builds the coefficients
        rises, last = [], [0]

        def mark():
            current, peak = tracemalloc.get_traced_memory()
            rises.append(peak - last[0])
            last[0] = current
            tracemalloc.reset_peak()

        log_kernel_rows = calibration._log_kernel_rows

        def marking(*args, **kwargs):
            mark()
            return log_kernel_rows(*args, **kwargs)

        monkeypatch.setattr(calibration, "_log_kernel_rows", marking)

        def block_sized_allocations(blocks):
            assert calibration._workers(blocks) == 1
            F = rng.uniform(0.3, 0.7, (blocks * step, c))
            rises.clear()
            tracemalloc.start()
            try:
                last[0] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                kde_calibrate_batch(F, keys, h)
                mark()
            finally:
                tracemalloc.stop()
            assert len(rises) == blocks + 1
            return sum(r >= 8 * step * n for r in rises)

        assert block_sized_allocations(2) == block_sized_allocations(8) == 1

    def test_label_weights_in_the_subnormal_band_drop_within_the_bound(self):
        # each row's only label-1 keys have weights whose exp is subnormal:
        # the oracle keeps them (a subnormal output > 0), the kernel drops
        # them (exactly 0), and the module docstring bounds the difference
        # by 2 * n * TINY
        h = 1e-3
        keys = KeyPointSet(np.array([[0.6], [0.038], [0.04], [0.042], [0.045]]),
                           np.array([[0.0], [1.0], [1.0], [1.0], [1.0]]),
                           np.arange(5))
        F = np.array([[0.6], [0.601], [0.599]])
        P = _simplex_rows(F)
        lw = calibration._log_kernel_rows(
            P, *calibration._pixel_logs(P),
            calibration._key_coef(_simplex_rows(keys.confidences), h))
        shifted = lw - lw.max(axis=1, keepdims=True)
        np.testing.assert_array_equal(shifted[:, 0], 0.0)
        assert np.all((shifted[:, 1:] > SUBNORMAL_BAND_LO)
                      & (shifted[:, 1:] < calibration._EXP_ZERO_BELOW))
        out, caught = _calibrate_recording(F, keys, h)
        want, n_dead = _oracle_calibrate(F, keys, h)
        assert np.all((want > 0.0) & (want < TINY))
        np.testing.assert_array_equal(out, 0.0)
        assert np.all(np.abs(out - want) <= 2 * len(keys) * TINY)
        assert _dead_count(caught) == n_dead == 0

    def test_dead_rows_are_counted_across_blocks(self):
        # a pixel at exactly 0 has zero density under a key at 1
        keys = KeyPointSet(np.array([[1.0]]), np.array([[1.0]]), np.array([0]))
        block = calibration._block_rows(1, 1)
        F = np.full((2 * block + 7, 1), 0.5)
        dead = [0, block - 1, block, 2 * block + 6]
        F[dead] = 0.0
        out, caught = _calibrate_recording(F, keys, 0.5)
        assert _dead_count(caught) == len(dead) and len(caught) == 1
        np.testing.assert_array_equal(out[dead], 0.0)
        live = np.setdiff1d(np.arange(F.shape[0]), dead)
        np.testing.assert_array_equal(out[live], 1.0)

    def test_dead_rows_in_a_scope_are_counted_across_blocks(self):
        # pixels at exactly 0 or 1 have zero density under every key inside
        # (0, 1); dead rows in four blocks of the scoped rows and outside
        # the scope, where they are neither calibrated nor counted
        n, h = 64, 0.05
        block = calibration._block_rows(n, 1)
        rng = np.random.default_rng(31)
        keys = KeyPointSet(rng.uniform(0.2, 0.8, (n, 1)),
                           (rng.random((n, 1)) < 0.5).astype(float), np.arange(n))
        m = 8 * block
        F = rng.uniform(0.01, 0.99, (m, 1))
        scope = np.sort(rng.choice(m, size=3 * block + 5, replace=False))
        outside = np.setdiff1d(np.arange(m), scope)
        dead = scope[[0, block - 1, block, 2 * block + 3, 3 * block + 4]]
        F[dead[::2]] = 0.0
        F[dead[1::2]] = 1.0
        F[outside[:9]] = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = kde_calibrate_batch(F, keys, h, scope)
        assert [str(w.message).split()[0] for w in caught
                if w.category is DegenerateWeightsWarning] == [str(len(dead))]
        want, _ = _calibrate_recording(F[scope], keys, h)
        assert_same_bytes(got[scope], want)
        assert_same_bytes(got[outside], F[outside])
        assert_same_bytes(got[dead], F[dead])

    @pytest.mark.parametrize("c", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [1, 11, 128, 4096, 2 ** 20])
    def test_block_gemms_stay_within_budget(self, n, c):
        rows = calibration._block_rows(n, c)
        assert rows >= 1
        if rows > 1:
            assert rows * n * (max(c, 2) + 1) <= calibration._BLOCK_MADDS
            assert (rows + 1) * n * (max(c, 2) + 1) > calibration._BLOCK_MADDS

    def test_exp_skip_is_exact(self):
        # the threshold is log(tiny): exp keeps every weight from it up
        # normal, and the next double below already gives a subnormal
        thr = calibration._EXP_ZERO_BELOW
        assert np.exp(thr) >= TINY
        assert np.exp(np.nextafter(thr, -np.inf)) < TINY
        # thr < 0, so lowering its bit pattern steps towards 0
        above = (np.array(thr).view(np.int64) - np.arange(1, 10_001)).view(np.float64)
        assert above[0] == np.nextafter(thr, np.inf)
        np.testing.assert_array_equal(np.nextafter(above[:-1], np.inf), above[1:])
        assert np.all(np.exp(above) >= TINY)

    @staticmethod
    def _masked_exp(lw):
        thr = calibration._EXP_ZERO_BELOW
        return np.exp(lw, out=np.zeros_like(lw), where=lw >= thr)

    def test_kernel_weights_match_the_masked_exp(self, rng):
        # -inf and NaN among the weights are made finite before the zeroing;
        # the dropped weights are +0.0 all the same
        thr = calibration._EXP_ZERO_BELOW
        band = rng.uniform(SUBNORMAL_BAND_LO, thr, 400)  # exp is subnormal or 0
        lw = np.concatenate([
            rng.uniform(-700.0, 0.0, 400),               # normal results
            band,
            [SUBNORMAL_BAND_LO, np.nextafter(thr, -np.inf)],
            np.nextafter(thr, np.inf) + np.arange(4) * 1e-13,
            np.nextafter(thr, -np.inf) - np.arange(4) * 1e-13,
            [thr, 0.0, -1.0, -745.0, -746.0, -np.inf, -np.inf, -np.inf,
             np.nan, np.nan, np.nan, -np.nan],
            rng.uniform(-2000.0, SUBNORMAL_BAND_LO, 400),  # exp rounds to 0
        ])
        assert np.count_nonzero((np.exp(band) > 0.0) & (np.exp(band) < TINY)) > 300
        lw = rng.permutation(lw).reshape(47, 26)
        assert np.any(lw >= thr) and not np.all(lw >= thr)
        got = calibration._kernel_weights(lw.copy())
        assert_same_bytes(got, self._masked_exp(lw))
        in_band = (lw >= SUBNORMAL_BAND_LO) & (lw < thr)
        assert np.count_nonzero(in_band) >= 400 + 2 + 4
        assert np.all(got[in_band] == 0.0)
        assert not np.any((got > 0.0) & (got < TINY))
        assert not np.any(np.signbit(got[~(lw >= thr)]))

    def test_kernel_weights_when_every_weight_is_kept(self, rng):
        lw = rng.uniform(-700.0, 0.0, (64, 9))
        lw[:, 0] = 0.0
        want = self._masked_exp(lw)
        assert_same_bytes(calibration._kernel_weights(lw.copy()), want)

    def test_kernel_weights_zero_a_finite_block_in_place(self, rng):
        # every log weight finite (normal and subnormal results, both sides
        # of the threshold, -0.0, the most negative double): the dropped
        # ones are zeroed by a 0/1 factor around the exp, in lw itself,
        # with the masked exp's bytes
        thr = calibration._EXP_ZERO_BELOW
        lw = rng.permutation(np.concatenate([
            rng.uniform(-700.0, 0.0, 500),
            rng.uniform(SUBNORMAL_BAND_LO, thr, 300),
            [thr, np.nextafter(thr, np.inf), np.nextafter(thr, -np.inf),
             SUBNORMAL_BAND_LO, 0.0, -0.0, -1.0, -np.finfo(np.float64).max],
            rng.uniform(-1e300, SUBNORMAL_BAND_LO, 414),
        ])).reshape(47, 26)
        assert np.isfinite(lw).all()
        work = lw.copy()
        got = calibration._kernel_weights(work)
        assert got is work
        assert_same_bytes(got, self._masked_exp(lw))
        dropped = lw < thr
        assert 0.3 < dropped.mean() < 0.7
        assert np.all(got[dropped] == 0.0) and not np.any(np.signbit(got[dropped]))

    def test_dropping_blocks_return_their_weights_in_the_workspace(self, monkeypatch):
        # 128 keys and pixel rows inside (0, 1) at h = 1e-3: every block
        # drops finite weights, and one more block also holds -inf and NaN.
        # A tracemalloc snapshot at each return of _kernel_weights counts
        # the block-sized arrays allocated on its lines that are still
        # alive, which a copy of the weights would be, as the array it
        # returns. The 4 blocks run on one worker, below the gate, so no
        # other thread allocates between a return and its snapshot
        n, c, h = 128, 1, 1e-3
        step = calibration._block_rows(n, c)
        rng = np.random.default_rng(13)
        keys = KeyPointSet(rng.uniform(0.05, 0.95, (n, c)),
                           (rng.random((n, c)) < 0.5).astype(float), np.arange(n))
        F = rng.uniform(0.05, 0.95, (3 * step + 11, c))
        lines, first = inspect.getsourcelines(calibration._kernel_weights)
        own = range(first, first + len(lines))
        kernel_weights = calibration._kernel_weights
        counts = []

        def counting(lw):
            finite = np.isfinite(lw).all()
            assert not (lw >= calibration._EXP_ZERO_BELOW).all()
            w = kernel_weights(lw)
            assert w is lw
            snap = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, calibration.__file__)])
            counts.append((finite, sum(t.size >= 8 * lw.size and t.traceback[0].lineno in own
                                       for t in snap.traces)))
            return w

        monkeypatch.setattr(calibration, "_kernel_weights", counting)
        assert calibration._workers(4) == 1
        tracemalloc.start()
        try:
            kde_calibrate_batch(F, keys, h)
            P = _simplex_rows(F[:step])
            lw = calibration._log_kernel_rows(P, *calibration._pixel_logs(P), keys._fit(h)[0])
            lw -= lw.max(axis=1, keepdims=True)
            lw[0, :7] = -np.inf
            lw[1, 3] = np.nan
            counting(lw)
        finally:
            tracemalloc.stop()
        assert counts == [(True, 0)] * 4 + [(False, 0)]

    def test_memory_is_bounded_by_the_block(self, monkeypatch):
        # 147,456 pixels (a 384 x 384 two-class field read back from float32)
        # against 128 keys. Design bound, fixed before measuring: six (m, C)
        # float64 arrays plus four (block, n) ones. Per call: the clipped
        # copy, the output, the [log P, 1] rows and their log's temporary;
        # per block: the workspace, the exp mask and its float64 0/1 copy.
        # The (m, n) weight matrix alone would be 151 MB. The bound holds on
        # 1 and on 2 workers, and the second worker adds at most four
        # (block, n) arrays: its own workspace, exp mask and 0/1 copy.
        rng = np.random.default_rng(5)
        m, n, c = 147_456, 128, 2
        p = rng.random(m)
        F = np.stack([1.0 - p, p], axis=1).astype(np.float32).astype(np.float64)
        keys = KeyPointSet(F[rng.choice(m, n, replace=False)],
                           np.eye(c)[rng.integers(0, c, n)], np.arange(n))
        per_block = 8 * calibration._block_rows(n, c) * n
        bound = 8 * 6 * m * c + 4 * per_block
        peaks = []
        for workers in (1, 2):
            monkeypatch.setattr(calibration, "_workers", lambda n_blocks: workers)
            tracemalloc.start()
            try:
                kde_calibrate_batch(F, keys, 1e-3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= bound
        assert peaks[1] - peaks[0] <= 4 * per_block

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), c=st.integers(1, 3), m=st.integers(1, 12),
           n=st.integers(1, 8), h=st.sampled_from([1e-3, 0.05, 1.0]))
    def test_arbitrary_rows_match_oracle(self, data, c, m, n, h):
        unit = st.floats(0.0, 1.0)

        def rows(k):
            vals = np.array(data.draw(st.lists(unit, min_size=k * c, max_size=k * c)))
            vals = vals.reshape(k, c)
            if c == 1:
                return vals
            vals[vals.sum(axis=1) == 0.0, 0] = 1.0
            return vals / vals.sum(axis=1, keepdims=True)

        classes = data.draw(st.lists(st.integers(0, max(c, 2) - 1),
                                     min_size=n, max_size=n))
        labels = np.eye(max(c, 2))[classes][:, :c]
        keys = KeyPointSet(rows(n), labels, np.arange(n))
        F = rows(m)
        out, caught = _calibrate_recording(F, keys, h)
        want, n_dead = _oracle_calibrate(F, keys, h)
        np.testing.assert_allclose(out, want, rtol=0, atol=_output_tol(F, keys, h))
        assert _dead_count(caught) == n_dead

    def test_log_beta_kernel_broadcasts_general_shapes(self, rng):
        fj = rng.random((3, 1, 4))
        fj[0, 0, :2] = [0.0, 1.0]
        fi = rng.random((2, 1))
        fi[0, 0] = 0.0
        h = 0.1
        got = log_beta_kernel(fj, fi, h)
        assert got.shape == (3, 2, 4)
        for idx in np.ndindex(got.shape):
            x, k = fj[idx[0], 0, idx[2]], fi[idx[1], 0]
            a, b = k / h + 1.0, (1.0 - k) / h + 1.0
            want = (xlogy(a - 1.0, x) + xlogy(b - 1.0, 1.0 - x)
                    + gammaln(a + b) - gammaln(a) - gammaln(b))
            assert got[idx] == want

    def test_gemm_layout_matches_broadcast_layout(self, rng):
        # the (f, 1 - f) GEMM that kde_calibrate_batch runs at C = 1 against
        # log_beta_kernel's pair-by-pair xlogy form
        col = rng.random((40, 1))
        col[:4, 0] = [0.0, 1.0, 0.0, 1.0]
        row = rng.random((1, 9))
        row[0, :2] = [0.0, 1.0]
        h = 1e-2
        P = np.hstack([col, 1.0 - col])
        gemm = calibration._log_kernel_rows(
            P, *calibration._pixel_logs(P),
            calibration._key_coef(np.hstack([row.T, 1.0 - row.T]), h))
        pairwise = log_beta_kernel(col, row[0], h)
        np.testing.assert_array_equal(np.isneginf(gemm), np.isneginf(pairwise))
        fin = np.isfinite(pairwise)
        np.testing.assert_allclose(gemm[fin], pairwise[fin], rtol=0,
                                   atol=_log_tol(col, row.T, h))


# --------------------------------------------------------------------------
# Worker threads
# --------------------------------------------------------------------------

def _split_case(c, scoped):
    """(F, keys, scope, dead) for 7 blocks of rows in scope at 2048 keys and
    h = 0.05: rows of the first vertex, under the one key at it, are live edge
    rows, and rows of the last vertex, under no key with a 0 there, dead;
    both sit on each side of a block edge where 2 or 3 workers split."""
    n = 2048
    step = calibration._block_rows(n, c)
    rng = np.random.default_rng(60 + 10 * c + scoped)
    first, last = (np.array([1.0]), np.array([0.0])) if c == 1 else np.eye(c)[[0, -1]]

    def interior(k):
        return rng.uniform(0.05, 0.95, (k, 1)) if c == 1 else rng.dirichlet(np.ones(c), k)

    lab = np.eye(max(c, 2))[rng.integers(0, max(c, 2), n)][:, :c]
    keys = KeyPointSet(np.vstack([interior(n - 1), first]), lab, np.arange(n))
    r = 6 * step + 7
    m = r + 40 if scoped else r
    F = interior(m)
    scope = np.sort(rng.choice(m, r, replace=False)) if scoped else None
    at = np.arange(m) if scope is None else scope
    edges = np.array([2, 3, 4]) * step
    F[at[np.concatenate([edges - 2, edges + 1])]] = first
    dead = at[np.concatenate([edges - 1, edges])]
    F[dead] = last
    if scoped:
        F[np.setdiff1d(np.arange(m), scope)[:5]] = last  # dead, not in scope
    return F, keys, scope, dead


def _block_threads(monkeypatch, record=lambda: None):
    """(thread, record()) at each _log_kernel_rows call from here on. The
    Thread objects, not their idents: a finished thread's ident may be
    reused by the next one."""
    calls = []
    log_kernel_rows = calibration._log_kernel_rows

    def recording(*args, **kwargs):
        calls.append((threading.current_thread(), record()))
        return log_kernel_rows(*args, **kwargs)

    monkeypatch.setattr(calibration, "_log_kernel_rows", recording)
    return calls


class TestWorkers:
    @pytest.mark.parametrize("scoped", [False, True])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_output_bytes_do_not_depend_on_the_workers(self, c, scoped, monkeypatch):
        F, keys, scope, dead = _split_case(c, scoped)
        calls = _block_threads(monkeypatch)
        outs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(calibration, "_workers", lambda n_blocks: workers)
            calls.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outs.append(kde_calibrate_batch(F, keys, 0.05, scope))
            assert len(calls) == 7
            assert len({thread for thread, _ in calls}) == workers
            assert [str(w.message).split()[0] for w in caught
                    if w.category is DegenerateWeightsWarning] == [str(dead.size)]
        assert_same_bytes(outs[0][dead], F[dead])
        for out in outs[1:]:
            assert_same_bytes(out, outs[0])

    def test_a_worker_per_block_under_fast_thread_switching(self, monkeypatch):
        # 7 workers on 7 blocks, more than the machine's cores, switching
        # threads every microsecond: the dead rows counted by every worker
        # and the output bytes match one worker's
        F, keys, _, dead = _split_case(2, False)
        want, caught = _calibrate_recording(F, keys, 0.05)
        monkeypatch.setattr(calibration, "_workers", lambda n_blocks: 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, caught_split = _calibrate_recording(F, keys, 0.05)
        finally:
            sys.setswitchinterval(interval)
        assert_same_bytes(got, want)
        assert _dead_count(caught_split) == _dead_count(caught) == dead.size

    @pytest.mark.parametrize("failing", ["helpers", "caller"])
    def test_a_failing_run_raises_after_every_helper_is_joined(self, failing, monkeypatch):
        class Boom(Exception):
            pass

        F, keys, _, _ = _split_case(1, False)
        calibrate_blocks = calibration._calibrate_blocks
        finished = []

        def failing_run(starts, *args):
            if (starts.start > 0) == (failing == "helpers"):
                raise Boom(starts.start)
            finished.append(calibrate_blocks(starts, *args))
            return finished[-1]

        monkeypatch.setattr(calibration, "_calibrate_blocks", failing_run)
        monkeypatch.setattr(calibration, "_workers", lambda n_blocks: 3)
        before = threading.active_count()
        with pytest.raises(Boom) as raised:
            kde_calibrate_batch(F, keys, 0.05)
        assert threading.active_count() == before
        if failing == "helpers":
            # the first helper's run starts at block 2 of 7
            assert raised.value.args == (2 * calibration._block_rows(len(keys), 1),)
        else:
            assert raised.value.args == (0,) and len(finished) == 2

    @pytest.mark.filterwarnings("ignore::dicesm.calibration.DegenerateWeightsWarning")
    def test_helpers_run_under_the_callers_errstate(self, monkeypatch):
        F, keys, _, _ = _split_case(2, False)
        calls = _block_threads(monkeypatch, lambda: np.geterr()["under"])
        monkeypatch.setattr(calibration, "_workers", lambda n_blocks: 3)
        with np.errstate(under="raise"):
            kde_calibrate_batch(F, keys, 0.05)
        assert len({thread for thread, _ in calls}) == 3
        assert {under for _, under in calls} == {"raise"}

    def test_a_call_below_the_gate_starts_no_thread(self, monkeypatch):
        gate = calibration._MIN_BLOCKS
        monkeypatch.setattr(calibration.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        assert [calibration._workers(b) for b in
                (0, 1, gate, 2 * gate - 1, 2 * gate, 3 * gate, 4 * gate, 100 * gate)] == \
            [1, 1, 1, 1, 2, 3, 4, 4]
        n, c = 2048, 1
        step = calibration._block_rows(n, c)
        rng = np.random.default_rng(71)
        keys = KeyPointSet(rng.uniform(0.05, 0.95, (n, c)),
                           (rng.random((n, c)) < 0.5).astype(float), np.arange(n))
        calls = _block_threads(monkeypatch)
        for blocks, workers in ((2 * gate - 1, 1), (2 * gate, 2)):
            calls.clear()
            kde_calibrate_batch(rng.uniform(0.05, 0.95, (blocks * step, c)), keys, 0.05)
            threads = [thread for thread, _ in calls]
            assert len(threads) == blocks and len(set(threads)) == workers
            assert threads.count(threading.current_thread()) == (gate if workers > 1 else blocks)

    def test_workers_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(calibration.os, "sched_getaffinity", raising=False)
        for cpus, workers in ((3, 3), (None, 1)):
            monkeypatch.setattr(calibration.os, "cpu_count", lambda: cpus)
            assert calibration._workers(100 * calibration._MIN_BLOCKS) == workers
