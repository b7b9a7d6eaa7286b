"""gammaln and xlogy in numpy, with scipy.special's bits.

dicesm needs numpy alone at run time; scipy is a test dependency, the
oracle for these ports. They return the same float64 as scipy.special.gammaln
and xlogy, bit for bit, on the domain calibration uses;
tests/test_special.py checks this against scipy.

gammaln is cephes' lgam for x >= 1, taken entry by entry in Python floats
(IEEE doubles, as in C) with every operation in cephes' order.
Both functions take each log from the C library's log, through math.log,
as cephes does: np.log rounds differently in the last bit on some inputs.
"""

import math

import numpy as np

# cephes gamma.c: log gamma(x + 2) ~ x * B(x) / C(x) on [0, 1) (C's leading
# coefficient 1 is implied), and the Stirling correction polevl(1/x**2, A)/x
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
      7.93650340457716943945e-4, -2.77777777730099687205e-3,
      8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
      -3.31612992738871184744e5, -1.16237097492762307383e6,
      -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
      -2.20528590553854454839e5, -1.13933444367982507207e6,
      -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # above it log gamma overflows


def _log(v: np.ndarray) -> np.ndarray:
    """The C library's log of each entry of v, all positive."""
    return np.fromiter(map(math.log, v.ravel().tolist()), np.float64,
                       v.size).reshape(v.shape)


def _horner(x, coef, monic=False):
    """cephes polevl(x, coef), or p1evl(x, coef) with its implied leading
    coefficient 1 when monic."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgam(x: float) -> float:
    """cephes lgam at one float x >= 1, in Python floats (IEEE doubles)."""
    if x < 13.0:
        # shift x into [2, 3) with the product or quotient z of the steps
        u, p, z = x, 0.0, 1.0
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        t = x + (p - 2.0)
        return math.log(z) + t * _horner(t, _B) / _horner(t, _C, monic=True)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    r = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * r
                     - 2.7777777777777777777778e-3) * r
                    + 0.0833333333333333333333) / x
    return q + _horner(r, _A) / x


def gammaln(x):
    """log |gamma(x)| for x >= 1 or +inf; ValueError below 1 or at NaN."""
    x = np.asarray(x, dtype=np.float64)
    # scalars skip the array machinery: the property checks make thousands
    # of scalar calls
    if x.ndim == 0:
        if float(x) >= 1.0:
            return np.float64(_lgam(float(x)))
    elif np.all(x >= 1.0):
        return np.fromiter(map(_lgam, x.ravel().tolist()), np.float64,
                           x.size).reshape(x.shape)
    raise ValueError("gammaln is defined here for x >= 1 only")


def xlogy(x, y):
    """x * log(y) for y >= 0, 0 where x == 0; broadcasts like a ufunc.
    ValueError for a negative or NaN y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 0 and y.ndim == 0:  # scalars, as in gammaln
        xv, yv = float(x), float(y)
        if yv >= 0.0:
            log_y = math.log(yv) if yv > 0.0 else -math.inf
            return np.float64(0.0 if xv == 0.0 else xv * log_y)
    elif np.all(y >= 0.0):
        pos = y > 0.0
        logs = np.full(y.shape, -np.inf)
        logs[pos] = _log(y[pos])
        with np.errstate(invalid="ignore"):  # 0 * -inf, replaced by 0
            return np.where(x == 0.0, 0.0, x * logs)
    raise ValueError("xlogy is defined here for y >= 0 only")
