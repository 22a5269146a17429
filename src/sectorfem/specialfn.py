"""Special functions for exact solutions and test oracles.

Covers the power kernel t**(alpha-1)/Gamma(alpha), the one-parameter
Mittag-Leffler function on the negative real axis, Bessel functions of the
first kind of real order, and their first positive zeros.  All functions
are pure and safe for concurrent use.

``bessel_j`` sums the ascending series of J_nu (DLMF 10.2.2) in Horner
form for arguments up to 6, which covers the initial data of the benchmark
problems (argument w*r below the first zero, under 3.2); there it agrees
with the AMOS routine ``scipy.special.jv`` to about 1e-14 absolute and is
several times faster.  Larger arguments, where the series cancels badly,
go to ``jv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv

from .contour import laplace_invert_scalar


@dataclass(frozen=True)
class MLEvalConfig:
    """Evaluation controls for the Mittag-Leffler backends.

    The Taylor series is used for arguments up to ``series_cutoff`` while it
    is numerically safe, terminating once terms drop below ``series_tol``;
    otherwise the value comes from inverting its Laplace transform on a
    hyperbolic contour with ``contour_M`` quadrature nodes.
    """

    series_cutoff: float = 5.0
    series_tol: float = 1e-15
    contour_M: int = 24

    def __post_init__(self):
        if self.series_cutoff <= 0:
            raise ValueError("series_cutoff must be positive")
        if self.series_tol > 1e-14:
            raise ValueError("series_tol must be <= 1e-14")


_DEFAULT_ML_CONFIG = MLEvalConfig()

# Ascending series of J_nu: used for arguments up to _BESSEL_SERIES_MAX with
# _BESSEL_SERIES_TERMS terms.  At x = 6 the first omitted term is below
# 1e-24; the term magnitudes sum to I_nu(6) <= I_0(6) ~ 67, which bounds the
# cancellation error near 67 * eps = 1.5e-14.
_BESSEL_SERIES_MAX = 6.0
_BESSEL_SERIES_TERMS = 24

# Largest |term| the float64 series may visit before cancellation starts
# eating into the 1e-10 accuracy contract; beyond it we fall back to the
# contour backend even below the cutoff (relevant for small alpha).
_SERIES_PEAK_LIMIT = 1e4


def omega_kernel(alpha: float, t):
    """Power kernel t**(alpha-1)/Gamma(alpha) for t > 0, 0 < alpha <= 2."""
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("omega kernel requires t > 0")
    out = t ** (alpha - 1.0) / math.gamma(alpha)
    return float(out) if out.ndim == 0 else out


def _ml_series(alpha: float, x: float, tol: float):
    """Kahan-summed Taylor series of E_alpha(-x); returns (value, peak |term|)."""
    total = 0.0
    comp = 0.0
    peak = 0.0
    lx = math.log(x)
    prev = math.inf
    for p in range(0, 100000):
        term = math.exp(p * lx - math.lgamma(1.0 + alpha * p))
        if p % 2:
            term = -term
        mag = abs(term)
        peak = max(peak, mag)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if mag < tol and mag <= prev:
            break
        prev = mag
    return total, peak


def _ml_contour(alpha: float, x: float, M: int) -> float:
    # E_alpha(-x) = L^{-1}{ z**(alpha-1)/(z**alpha + x) } evaluated at t = 1
    return laplace_invert_scalar(lambda z: z ** (alpha - 1.0) / (z ** alpha + x), 1.0, M)


def mittag_leffler_neg(alpha: float, x: float, config: MLEvalConfig | None = None) -> float:
    """E_alpha(-x) = sum_p (-x)**p / Gamma(1 + p*alpha) for 0 < alpha <= 1, x >= 0.

    The result lies in [0, 1] and is accurate to about 1e-10 absolute for
    x in [0, 50].
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if x < 0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 1.0
    cfg = config if config is not None else _DEFAULT_ML_CONFIG
    if x <= cfg.series_cutoff:
        value, peak = _ml_series(alpha, x, cfg.series_tol)
        if peak <= _SERIES_PEAK_LIMIT:
            return min(1.0, max(0.0, value))
    return min(1.0, max(0.0, _ml_contour(alpha, x, cfg.contour_M)))


def _bessel_series(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x) for a 1-d float array x with 0 <= x <= 6, by the ascending series.

    ``J_nu(x) = (x/2)**nu * sum_k c_k y**k`` with ``y = -x**2/4`` and
    ``c_k = 1/(k! Gamma(k + nu + 1))``, summed in Horner form.  The
    accumulator and one scratch buffer are updated in place.
    """
    coef = [1.0 / math.gamma(nu + 1.0)]
    for k in range(1, _BESSEL_SERIES_TERMS):
        coef.append(coef[-1] / (k * (k + nu)))
    y = np.multiply(x, x)
    y *= -0.25
    acc = np.full_like(x, coef[-1])
    for c in reversed(coef[:-1]):
        acc *= y
        acc += c
    np.multiply(x, 0.5, out=y)
    np.power(y, nu, out=y)
    acc *= y
    return acc


def bessel_j(nu: float, x):
    """Bessel function J_nu for orders 0 <= nu <= 2 and arguments 0 <= x <= 20.

    Arguments up to 6 use the ascending series, accurate to about 1e-14
    absolute; arguments in (6, 20] use ``scipy.special.jv``.  A scalar
    argument gives a Python float, an array one an array of its shape.
    """
    if not 0 <= nu <= 2:
        raise ValueError(f"order must lie in [0, 2], got {nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 20):
        raise ValueError("argument must lie in [0, 20]")
    flat = x.reshape(-1)
    if flat.size == 0 or flat.max() <= _BESSEL_SERIES_MAX:
        out = _bessel_series(nu, flat)
    else:
        out = np.empty_like(flat)
        small = flat <= _BESSEL_SERIES_MAX
        out[small] = _bessel_series(nu, flat[small])
        out[~small] = jv(nu, flat[~small])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


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
    return brentq(lambda x: jv(nu, x), xs[k], xs[k + 1], xtol=1e-14, rtol=8.9e-16)
