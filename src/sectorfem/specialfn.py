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
benchmark problems (argument w*r below the first zero, under 3.2); there it
agrees with the AMOS routine ``scipy.special.jv`` to about 1e-14 absolute
and is several times faster.  Larger arguments, where the series cancels
badly, are rejected: no caller needs them.

``first_bessel_zero`` brackets the first sign change of ``jv`` on a grid and
polishes it with ``_brent``, a step-for-step port of ``scipy.optimize.brentq``
that returns the same double, so importing this module does not load
``scipy.optimize`` (about 146 modules and 13 MB).  Brent's iterates are
kept rather than a bisection because the zero of J_{1/3} lies 0.498 ulp from
Brent's double and 0.502 ulp from its neighbour: a different polish may
return the neighbour, which shifts every Example 2 answer in its last digits.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import jv

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


def bessel_j(nu: float, x):
    """Bessel function J_nu for orders 0 <= nu <= 2 and arguments 0 <= x <= 6.

    Sums the ascending series ``J_nu(x) = (x/2)**nu * sum_k c_k y**k`` with
    ``y = -x**2/4`` and ``c_k = 1/(k! Gamma(k + nu + 1))`` in Horner form,
    accurate to about 1e-14 absolute; the accumulator and one scratch buffer
    are updated in place.  Larger arguments, where the series cancels
    badly, are rejected.  A scalar argument gives a Python float, an array
    one an array of its shape.
    """
    if not 0 <= nu <= 2:
        raise ValueError(f"order must lie in [0, 2], got {nu}")
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x <= _BESSEL_SERIES_MAX)):  # written so that NaN fails too
        raise ValueError(f"argument must lie in [0, {_BESSEL_SERIES_MAX:g}]")
    flat = x.reshape(-1)
    coef = [1.0 / math.gamma(nu + 1.0)]
    for k in range(1, _BESSEL_SERIES_TERMS):
        coef.append(coef[-1] / (k * (k + nu)))
    y = np.multiply(flat, flat)
    y *= -0.25
    acc = np.full_like(flat, coef[-1])
    for c in reversed(coef[:-1]):
        acc *= y
        acc += c
    np.multiply(flat, 0.5, out=y)
    np.power(y, nu, out=y)
    acc *= y
    return float(acc[0]) if x.ndim == 0 else acc.reshape(x.shape)


def _brent(f: Callable[[float], float], xa: float, xb: float, xtol: float,
           rtol: float) -> float:
    """Root of f in a sign-change bracket [xa, xb] by Brent's method.

    Follows ``scipy.optimize.brentq`` step for step: inverse quadratic or
    secant steps where they shrink the bracket fast enough, bisection
    otherwise, and a stop once the bracket half-width is below
    ``(xtol + rtol*|x|)/2``.  The same f and tolerances give the same double.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):  # brentq's default iteration cap
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("Brent's method did not converge in 100 steps")


def first_bessel_zero(nu: float) -> float:
    """Smallest positive zero of J_nu for 0 < nu <= 2, to 1e-12.

    Brackets the first sign change on a fine grid (the first zero of any
    order <= 2 lies below 6) and polishes it with Brent's method.
    """
    if not 0 < nu <= 2:
        raise ValueError(f"order must lie in (0, 2], got {nu}")
    xs = np.linspace(1e-3, 6.0, 1201)
    vals = jv(nu, xs)
    sign_change = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    if sign_change.size == 0:
        raise RuntimeError(f"no sign change found for J_{nu} on (0, 6]")
    k = sign_change[0]
    return _brent(lambda x: float(jv(nu, x)), float(xs[k]), float(xs[k + 1]),
                  xtol=1e-14, rtol=8.9e-16)
