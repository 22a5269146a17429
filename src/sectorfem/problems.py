"""Concrete problem instances on the unit sector.

Two time-dependent benchmark problems and one static elliptic problem, each
bundling exact solution, initial data, Laplace-domain source and the
diffusivity normalization that makes the smallest eigenvalue of -K*Laplace
equal to 1.  All three are posed on the sector with beta = 2/3 (angle 3*pi/2).

A Laplace-domain source may be a :class:`SeparableSource`, a sum of scalar
coefficients of z times z-independent fields.  The contour evolve then
loads each of those fields once per evolve instead of loading the whole
source at every contour node.

All fields are vectorized callables of numpy coordinate arrays and are pure,
so ProblemSpec values can be evaluated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .fem import DIRICHLET, MIXED
from .specialfn import bessel_j, first_bessel_zero, mittag_leffler_neg

_BETA = 2.0 / 3.0  # aperture of every problem: the sector angle is pi/beta = 3*pi/2


@dataclass(frozen=True)
class SeparableSource:
    """Transformed source ``fhat(z) = sum_k c_k(z) f_k(x, y)``.

    ``terms`` holds the pairs ``(c_k, f_k)``: a scalar coefficient of the
    Laplace variable and a field that does not depend on it.  Calling the
    source with z gives the pointwise field, like any other ``fhat``.
    A term that is not a pair of callables raises ValueError naming its
    index.
    """

    terms: tuple

    def __post_init__(self):
        for k, term in enumerate(self.terms):
            if not (isinstance(term, (tuple, list)) and len(term) == 2
                    and all(callable(part) for part in term)):
                raise ValueError(f"SeparableSource term {k} must be a pair "
                                 f"(c_k, f_k) of callables, got {term!r}")

    def __call__(self, z):
        coeffs = [(c(complex(z)), f) for c, f in self.terms]

        def field(x, y):
            return sum(c * f(x, y) for c, f in coeffs)

        return field


@dataclass(frozen=True)
class ProblemSpec:
    """Time-dependent diffusion problem with known exact solution.

    ``u0(x, y)`` is the initial data, ``fhat(z)`` maps a Laplace variable to
    the transformed source as a pointwise (complex) field, or is None for a
    homogeneous problem, and ``exact(x, y, t)`` evaluates the solution.
    The parameters are checked and K, ``normalize_K(beta, bc_kind)``, is
    derived on construction, ``dataclasses.replace`` included, but
    ``replace`` does not rebuild a builder's fields, which close over its
    alpha, beta and K: a replaced one silently decouples the solve from
    ``exact``.  Call the builder again for another alpha.
    """

    label: str
    alpha: float
    beta: float
    bc_kind: str
    K: float = field(init=False)
    u0: Callable
    fhat: Callable | None
    exact: Callable

    def __post_init__(self):
        if not 0 < self.alpha < 1:  # also rejects NaN
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.5 < self.beta < 1:
            raise ValueError(f"beta must lie in (1/2, 1), got {self.beta}")
        if self.fhat is not None and not callable(self.fhat):
            raise ValueError(f"fhat must be None or callable, got {self.fhat!r}")
        # normalize_K also rejects an unknown bc_kind
        object.__setattr__(self, "K", normalize_K(self.beta, self.bc_kind))


@dataclass(frozen=True)
class EllipticSpec:
    """Static problem -K*Laplace(u) = f, homogeneous Dirichlet data, K from ``normalize_K``."""

    bc_kind: ClassVar[str] = DIRICHLET  # not a field: every elliptic spec is Dirichlet

    label: str
    beta: float
    K: float = field(init=False)
    f: Callable
    exact: Callable
    exact_grad: Callable

    def __post_init__(self):
        object.__setattr__(self, "K", normalize_K(self.beta, self.bc_kind))


def _polar(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    theta = np.where(theta < 0, theta + 2 * math.pi, theta)
    return r, theta


def _corner_order(beta: float, bc_kind: str) -> float:
    """Order nu of the corner singularity r**nu sin(nu theta) of the first eigenfunction.

    nu is beta under all-Dirichlet conditions and beta/2 under mixed ones
    (Dirichlet on theta=0 and the arc, Neumann on theta=pi/beta).
    """
    if bc_kind == DIRICHLET:
        return beta
    if bc_kind == MIXED:
        return beta / 2
    raise ValueError(f"unknown bc_kind {bc_kind!r}")


def normalize_K(beta: float, bc_kind: str) -> float:
    """Diffusivity making the smallest eigenvalue of -K*Laplace equal 1.

    The sector eigenfunctions are J_nu(sqrt(lambda/K) r) times an angular
    factor; the first eigenvalue is K*j^2 with j the first positive zero of
    J_nu, nu the corner order of ``bc_kind`` (beta or beta/2).
    """
    return 1.0 / first_bessel_zero(_corner_order(beta, bc_kind)) ** 2


def _singular_part(beta: float):
    """g = r**beta (1-r) sin(beta theta), vanishing on the whole boundary."""

    def g(x, y):
        r, theta = _polar(x, y)
        return r ** beta * (1.0 - r) * np.sin(beta * theta)

    return g


def _singular_part_laplacian(beta: float, K: float):
    """A g = -K*Laplace(g) = K (2 beta + 1) r**(beta-1) sin(beta theta).

    Follows from r**beta sin(beta theta) being harmonic while
    Laplace(r**(beta+1) sin(beta theta)) = (2 beta + 1) r**(beta-1)
    sin(beta theta).
    """

    def Ag(x, y):
        r, theta = _polar(x, y)
        return K * (2 * beta + 1) * r ** (beta - 1.0) * np.sin(beta * theta)

    return Ag


def example1(alpha: float) -> ProblemSpec:
    """Manufactured singular solution with Dirichlet conditions, beta = 2/3.

    The solution is ``(1 + t**alpha/Gamma(1+alpha)) * r**beta (1-r)
    sin(beta theta)``; the matching source has the Laplace transform
    ``fhat(z) = z**-alpha g + (z**-alpha + z**-2alpha) A g``, separable in
    the two fields g and A g; g is also the initial data.
    """
    beta = _BETA
    K = normalize_K(beta, DIRICHLET)
    g = _singular_part(beta)
    Ag = _singular_part_laplacian(beta, K)

    def time_factor(t):
        return 1.0 + t ** alpha / math.gamma(1.0 + alpha)

    def exact(x, y, t):
        return time_factor(t) * g(x, y)

    fhat = SeparableSource(((lambda z: z ** -alpha, g),
                            (lambda z: z ** -alpha + z ** (-2.0 * alpha), Ag)))
    return ProblemSpec("example1", alpha, beta, DIRICHLET, g, fhat, exact)


def example2(alpha: float) -> ProblemSpec:
    """Decay of the first mixed-condition eigenfunction (homogeneous source), beta = 2/3.

    Dirichlet on theta=0 and the arc, Neumann on theta=pi/beta.  The initial
    data is the first eigenfunction ``J_{beta/2}(w r) sin(beta theta / 2)``
    with w its Bessel zero, so the solution decays by the Mittag-Leffler
    factor ``E_alpha(-t**alpha)``.
    """
    beta = _BETA
    nu = _corner_order(beta, MIXED)
    w = first_bessel_zero(nu)

    def u0(x, y):
        r, theta = _polar(x, y)
        return bessel_j(nu, w * r) * np.sin(nu * theta)

    def exact(x, y, t):
        return mittag_leffler_neg(alpha, t ** alpha) * u0(x, y)

    return ProblemSpec("example2", alpha, beta, MIXED, u0, None, exact)


def elliptic_singular() -> EllipticSpec:
    """Static singular benchmark, beta = 2/3: exact u in H1 but not H2.

    ``u = r**beta (1-r) sin(beta theta)`` with source
    ``f = K (2 beta + 1) r**(beta-1) sin(beta theta)``, which is in L2 but
    drives the corner singularity.
    """
    beta = _BETA
    K = normalize_K(beta, DIRICHLET)
    g = _singular_part(beta)
    f = _singular_part_laplacian(beta, K)

    def exact_grad(x, y):
        r, theta = _polar(x, y)
        r = np.maximum(r, 1e-300)
        dur = (beta * r ** (beta - 1.0) - (beta + 1.0) * r ** beta) * np.sin(beta * theta)
        dut_over_r = beta * (r ** (beta - 1.0) - r ** beta) * np.cos(beta * theta)
        ct, st = np.cos(theta), np.sin(theta)
        return dur * ct - dut_over_r * st, dur * st + dut_over_r * ct

    return EllipticSpec("elliptic_singular", beta, f, g, exact_grad)
