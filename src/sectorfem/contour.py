"""Inverse Laplace transform along a hyperbolic contour.

The transform is inverted by trapezoidal quadrature in the contour
parameter: nodes ``z_j = mu*(1 - sin(delta - i*xi_j))`` with
``xi_j = j*dxi`` sample the left branch of a hyperbola that wraps around
the negative real axis.  With the tuned constants below the quadrature
error decays like ``10.1315**-M`` in the node half-count M.  Because the
transformed data are real, ``uhat(conj z) = conj(uhat(z))`` and the sum
over j = -M..M folds onto j = 0..M, costing M+1 solves instead of 2M+1.

Each node z solves ``(z**alpha M + S) uhat = z**(alpha-1) * (b0 + b(z))``,
the paper's node equation, in one ``fem.solve_complex_symmetric`` call;
b0 = M u0h is the load vector of u0 and b(z) that of the transformed
source, both from ``fem.assemble_load``.  The evolve folds each node's
term into one real running sum as soon as the node is solved, in the order
of ``fold_terms``, so no array grows with M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fem

DELTA = 1.17210423       # contour half-angle parameter
MU_COEFF = 4.49207528    # mu = MU_COEFF * M / t
XI_COEFF = 1.08179214    # dxi = XI_COEFF / M
# The largest half-count M: rounding grows like eps * exp(0.35 * M), so 1/(z+1)
# at t=1 misses exp(-1) by 3.6e-11 at M=32 but by 0.52 at M=100.
_M_MAX = 32


@dataclass(frozen=True, eq=False)
class ContourParams:
    """Nodes z_j and derivatives z'_j, j = 0..M, for target time t.

    The j < 0 half of the contour is the complex conjugate and is never
    stored.  z_0 is real and positive; all nodes avoid the negative real
    axis, so the principal branch of z**alpha is well defined on them.
    Contours compare and hash by identity.
    """

    M: int
    t: float
    mu: float
    dxi: float
    nodes: np.ndarray   # z_j, complex (M+1,)
    dnodes: np.ndarray  # z'_j, complex (M+1,)


def make_contour(M: int, t: float) -> ContourParams:
    """Build the quadrature contour for target time t with half-count M in [2, _M_MAX]."""
    if not (2 <= M <= _M_MAX and M == math.floor(M)):  # also rejects NaN
        raise ValueError(f"node half-count M must be an integer in [2, {_M_MAX}], got {M}")
    if not 0 < t < math.inf:  # also rejects NaN
        raise ValueError(f"target time must be positive and finite, got {t}")
    mu = MU_COEFF * M / t
    dxi = XI_COEFF / M
    w = DELTA - 1j * dxi * np.arange(M + 1)
    nodes = mu * (1.0 - np.sin(w))
    dnodes = 1j * mu * np.cos(w)
    return ContourParams(int(M), float(t), mu, dxi, nodes, dnodes)


def fold_terms(params: ContourParams, terms: np.ndarray) -> np.ndarray:
    """Evaluate the folded quadrature sum from the j = 0..M terms.

    ``terms[j] = exp(z_j t) * uhat(z_j) * z'_j``.  Conjugate symmetry makes
    the full sum over j = -M..M equal to
    ``(dxi/pi) * (Im(terms[0])/2 + sum_{j>=1} Im(terms[j]))`` (the j = 0
    term is purely imaginary).  Terms are summed in increasing j so repeated
    runs are bit-identical.
    """
    acc = 0.5 * np.imag(terms[0])
    for j in range(1, terms.shape[0]):
        acc = acc + np.imag(terms[j])
    return (params.dxi / np.pi) * acc


def laplace_invert_scalar(fhat: Callable[[complex], complex], t: float, M: int = 8) -> float:
    """Invert a scalar transform z -> fhat(z) at time t.

    fhat must be analytic to the right of the contour and satisfy
    fhat(conj z) = conj(fhat(z)), i.e. come from a real time-domain
    function.
    """
    params = make_contour(M, t)
    terms = np.array([np.exp(z * t) * fhat(z) * dz
                      for z, dz in zip(params.nodes, params.dnodes)])
    return float(fold_terms(params, terms))


def _node_rhs(problem, mesh, dofmap) -> Callable[[complex], np.ndarray]:
    """The node right-hand side ``z -> z**(alpha-1) * (b0 + b(z))``, on the principal branch.

    b0 is the load vector of u0 and b(z) that of the source, if any.  A
    separable source has each distinct field loaded here, once (a field that
    is u0 reuses b0), so b(z) only sums ``c_k(z) b_k``; a plain ``fhat``
    callable is loaded at each node.
    """
    alpha = problem.alpha
    b0 = fem.assemble_load(mesh, dofmap, problem.u0)
    fhat = problem.fhat
    if fhat is None:
        return lambda z: z ** (alpha - 1.0) * b0
    terms = getattr(fhat, "terms", None)  # a problems.SeparableSource
    if terms is None:
        return lambda z: z ** (alpha - 1.0) * (b0 + fem.assemble_load(mesh, dofmap, fhat(z)))
    loaded = {id(problem.u0): b0}
    for _, f in terms:
        if id(f) not in loaded:
            loaded[id(f)] = fem.assemble_load(mesh, dofmap, f)
    vectors = [(c, loaded[id(f)]) for c, f in terms]
    return lambda z: z ** (alpha - 1.0) * (b0 + sum(c(z) * b for c, b in vectors))


def inverse_laplace_evolve(problem, mesh, dofmap, mass, stiffness, t: float,
                           M: int = 8) -> np.ndarray:
    """Semidiscrete solution at time t via the folded contour quadrature.

    Solves the complex system at the M+1 nodes of the contour for time t
    and reassembles the real nodal vector.  Each evaluation costs exactly
    M+1 complex solves.  Each node's term is added to one real running sum,
    in increasing j as ``fold_terms`` adds them, and released before the
    next node is factored, so the result equals ``fold_terms`` of the
    stacked terms bit for bit and the working set does not grow with M.
    The initial data enter only through ``M u0h``, where u0h is the L2
    projection of u0; that product is the load vector of u0, so it is
    assembled directly and neither the projection nor a mass solve is done.
    A :class:`~sectorfem.problems.SeparableSource` has each of its distinct
    fields loaded once, like u0, before the first node is factored; only a
    plain ``fhat`` callable is loaded at every node.
    ``dofmap`` must be built for ``problem.bc_kind``, and ``mass`` and
    ``stiffness`` must both be ``(n_dofs, n_dofs)``, or ValueError is raised
    before anything is loaded or factored.
    """
    fem._check_bc_kind(problem.bc_kind, dofmap)
    if not mass.shape == stiffness.shape == (dofmap.n_dofs,) * 2:
        raise ValueError(f"mass {mass.shape} and stiffness {stiffness.shape} must both be "
                         f"{(dofmap.n_dofs,) * 2}, the size of the dof map")
    params = make_contour(M, t)
    rhs = _node_rhs(problem, mesh, dofmap)
    acc = None
    for j, (z, dz) in enumerate(zip(params.nodes, params.dnodes)):
        z = complex(z)
        try:
            uhat = fem.solve_complex_symmetric(z ** problem.alpha, mass, stiffness, rhs(z))
        except fem.SolverError as exc:
            raise fem.SolverError(f"contour node j={j} (z={z:.6g}): {exc}",
                                  exc.residual) from exc
        term = np.imag(np.exp(z * t) * uhat * dz)
        acc = 0.5 * term if j == 0 else acc + term
        del uhat, term  # neither may outlive the next node's factorization
    return (params.dxi / np.pi) * acc
