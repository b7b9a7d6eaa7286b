"""dicesm._special against scipy.special, bit for bit."""

import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dicesm._special import gammaln, xlogy

TINY = np.finfo(np.float64).smallest_subnormal


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


GAMMALN_EDGES = np.array([
    1.0, 2.0, 3.0, np.nextafter(13.0, 0.0), 13.0, np.nextafter(1000.0, 0.0),
    1000.0, 1e8, np.nextafter(1e8, np.inf), 2.556348e305,
    np.nextafter(2.556348e305, np.inf), 1.7e308, np.inf,
])


class TestGammaln:
    def test_branch_edges(self):
        assert_same_bits(gammaln(GAMMALN_EDGES), scipy.special.gammaln(GAMMALN_EDGES))

    @pytest.mark.parametrize("lo,hi", [(1.0, 3.0), (1.0, 13.0), (13.0, 1000.0),
                                       (1000.0, 1e8), (1e8, 1e300)])
    def test_each_branch(self, rng, lo, hi):
        x = np.exp(rng.uniform(np.log(lo), np.log(hi), 20_000))
        assert_same_bits(gammaln(x), scipy.special.gammaln(x))

    @pytest.mark.parametrize("h", [1e-3, 0.05, 1.0])
    def test_kde_concentrations(self, rng, h):
        # alpha = f / h + 1 of a key and the sum over its classes
        a = rng.random((4096, 3)) / h + 1.0
        for x in (a, a.sum(axis=1)):
            assert_same_bits(gammaln(x), scipy.special.gammaln(x))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1.0), min_size=1, max_size=64))
    def test_arbitrary_floats(self, xs):
        x = np.array(xs)
        assert_same_bits(gammaln(x), scipy.special.gammaln(x))

    def test_scalar_in_scalar_out(self):
        assert_same_bits(gammaln(7.5), scipy.special.gammaln(7.5))
        assert np.ndim(gammaln(7.5)) == 0

    @pytest.mark.parametrize("x", [0.5, 0.0, -3.0, np.nan, -np.inf])
    def test_rejects_outside_domain(self, x):
        with pytest.raises(ValueError):
            gammaln(np.array([2.0, x]))
        with pytest.raises(ValueError):
            gammaln(x)

    def test_zero_d_inputs(self, rng):
        # scalars take their own path; it must give the array path's bits
        x = np.concatenate([GAMMALN_EDGES, np.exp(rng.uniform(0.0, np.log(1e300), 3000))])
        want = scipy.special.gammaln(x)
        for form in (float, np.float64, np.array):
            got = [gammaln(form(v)) for v in x]
            assert all(type(g) is np.float64 for g in got)
            assert_same_bits(np.array(got), want)

    def test_no_warning_at_huge_x(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                got = gammaln(np.array([1.7e308, np.inf]))
        assert_same_bits(got, scipy.special.gammaln(np.array([1.7e308, np.inf])))


class TestXlogy:
    def test_zero_x_and_zero_y(self):
        x = np.array([0.0, 0.0, 2.5, 0.0, 3.0, 1.0])
        y = np.array([0.0, 1.0, 0.0, TINY, TINY, 1e-310])
        with np.errstate(divide="ignore"):
            want = scipy.special.xlogy(x, y)
        assert_same_bits(xlogy(x, y), want)
        assert_same_bits(xlogy(0.0, 0.0), np.float64(0.0))

    def test_random_with_zeros_and_subnormals(self, rng):
        x = rng.random(30_000) * 1000.0
        x[rng.random(x.size) < 0.3] = 0.0
        y = rng.random(x.size)
        y[rng.random(y.size) < 0.2] = 0.0
        sub = rng.random(y.size) < 0.1
        y[sub] = TINY * rng.integers(1, 2 ** 40, sub.sum())
        with np.errstate(divide="ignore"):
            want = scipy.special.xlogy(x, y)
        assert_same_bits(xlogy(x, y), want)

    def test_edge_row_broadcast(self, rng):
        # (alpha - 1) of n keys against e pixel rows, as (n, D) x (e, 1, D)
        x = rng.random((11, 3)) / 0.05
        x[::4, 1] = 0.0
        y = rng.dirichlet(np.ones(3), size=(9, 1))
        y[::2, 0, 1] = 0.0
        y[1::3, 0, 2] = 0.0
        with np.errstate(divide="ignore"):
            want = scipy.special.xlogy(x, y)
        assert_same_bits(xlogy(x, y), want)

    @pytest.mark.parametrize("y", [-1.0, -TINY, np.nan])
    def test_rejects_negative_or_nan_y(self, y):
        with pytest.raises(ValueError):
            xlogy(np.array([1.0, 1.0]), np.array([0.5, y]))
        with pytest.raises(ValueError):
            xlogy(1.0, y)

    def test_zero_d_inputs(self, rng):
        # every pair of edge values, then random pairs: np.log would differ
        # from the C library's log in the last bit on some of them
        ex = [0.0, -0.0, 1.0, -2.5, TINY, 1e300]
        ey = [0.0, 1.0, TINY, 1e-310, 0.5, 1e300, np.inf]
        x = np.concatenate([np.repeat(ex, len(ey)), rng.uniform(-50.0, 1000.0, 5000)])
        y = np.concatenate([np.tile(ey, len(ex)), rng.random(5000)])
        with np.errstate(divide="ignore", over="ignore"):
            want = scipy.special.xlogy(x, y)
        for form in (float, np.float64, np.array):
            got = [xlogy(form(a), form(b)) for a, b in zip(x, y)]
            assert all(type(g) is np.float64 for g in got)
            assert_same_bits(np.array(got), want)
