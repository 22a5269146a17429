"""Solves, error measurement, refinement predictors and convergence studies.

:func:`solve_spec` is the one solve path: it assembles and solves any
problem spec on a given mesh and dof map, and both the convergence studies
and the command line call it.  L2 and H1-seminorm errors are integrated
by ``fem.integrate`` with the one quadrature load assembly uses too:
the degree-4 rule, refined on the corner elements.
Convergence studies drive mesh generation and the solve over a sequence of
mesh sizes, then report pairwise rates and least-squares slopes against
both the dof count and the mesh parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import fem
from .contour import inverse_laplace_evolve
from .fem import DofMap, SolverError, build_dofmap
from .mesh import Mesh, generate_sector_mesh
from .problems import EllipticSpec


@dataclass
class ConvergenceRow:
    h_star: float
    n_dofs: int
    error: float
    rate: float | None = None
    failed: bool = False
    reason: str = ""  # the SolverError message of a failed row


@dataclass
class ConvergenceReport:
    """Rows sorted by decreasing h_star plus fitted log-log slopes.

    ``rate`` entries are pairwise, ``log(err_prev/err) / log(h_prev/h)``
    (the usual log2 ratios for successive halvings); ``fitted_slope`` is the
    least-squares slope against the abscissa named by ``fit_abscissa``
    ("N" or "h"), with both variants kept alongside.
    """

    rows: list = field(default_factory=list)
    fit_abscissa: str = "N"
    fitted_slope: float = math.nan
    fitted_slope_vs_N: float = math.nan
    fitted_slope_vs_h: float = math.nan
    predictor: str = ""


def _element_values(mesh: Mesh, dofmap: DofMap | None, uh: np.ndarray) -> np.ndarray:
    """(nt, 3) nodal values of u_h per element; with no ``dofmap``, ``uh`` is per vertex."""
    dofmap = dofmap or fem.unconstrained_dofmap(mesh)
    fem._check_dofmap(mesh, dofmap)
    return dofmap.expand(uh)[mesh.triangles]


def l2_error(mesh: Mesh, dofmap: DofMap | None, uh: np.ndarray, exact: Callable) -> float:
    """L2 norm of (u_h - exact) over the mesh.

    ``uh`` holds free-dof coefficients (or per-vertex values when ``dofmap``
    is None); ``exact(x, y)`` is evaluated at the quadrature points and must
    be finite there.
    """
    nodal = _element_values(mesh, dofmap, uh)

    def squared(ids, pts, x, y):
        return (nodal[ids] @ pts.T - fem.field_values(exact, x, y, "exact field")) ** 2

    return math.sqrt(fem.integrate(mesh, squared))


def h1_seminorm_error(mesh: Mesh, dofmap: DofMap | None, uh: np.ndarray,
                      exact_grad: Callable) -> float:
    """H1 seminorm of (u_h - exact): ||grad u_h - exact_grad||_L2.

    ``exact_grad(x, y)`` returns the pair (du/dx, du/dy), which must be
    finite at the quadrature points; the FE gradient is constant per element.
    """
    _, grads = fem.element_geometry(mesh)
    guh = np.einsum("eb,ebd->ed", _element_values(mesh, dofmap, uh), grads)

    def squared(ids, pts, x, y):
        gx, gy = fem.field_values(exact_grad, x, y, "exact gradient", pair=True)
        return (guh[ids, None, 0] - gx) ** 2 + (guh[ids, None, 1] - gy) ** 2

    return math.sqrt(fem.integrate(mesh, squared))


def _corner_exponent(gamma: float, beta: float, bc_kind: str) -> float | None:
    """The corner exponent (beta/2 for mixed conditions), None when gamma is at 1/exponent."""
    exponent = beta if bc_kind == fem.DIRICHLET else beta / 2.0
    threshold = 1.0 / exponent
    return None if abs(gamma - threshold) <= 1e-12 * threshold else exponent


def _epsilon_cases(h: float, gamma: float, beta: float, bc_kind: str) -> float:
    if not 0.5 < beta < 1:
        raise ValueError(f"beta must lie in (1/2, 1), got {beta}")
    if not 0 < h < 1:
        raise ValueError(f"h must lie in (0, 1), got {h}")
    if not (1.0 <= gamma < math.inf):
        raise ValueError(f"gamma must be finite and >= 1, got {gamma}")
    exponent = _corner_exponent(gamma, beta, bc_kind)
    if exponent is None:
        return h * math.sqrt(math.log1p(1.0 / h))
    if gamma * exponent < 1.0:
        return h ** (gamma * exponent) / math.sqrt(1.0 / gamma - exponent)
    return h / math.sqrt(exponent - 1.0 / gamma)


def epsilon(h: float, gamma: float, beta: float) -> float:
    """Refinement error predictor for all-Dirichlet conditions.

    Three branches in gamma against 1/beta: ``h**(gamma*beta)`` below the
    threshold, ``h*sqrt(log(1+1/h))`` at it, and ``h`` (up to a constant)
    above it.
    """
    return _epsilon_cases(h, gamma, beta, fem.DIRICHLET)


def epsilon_mix(h: float, gamma: float, beta: float) -> float:
    """Refinement error predictor for mixed conditions (beta/2 singularity)."""
    return _epsilon_cases(h, gamma, beta, fem.MIXED)


def fit_rate(points: Sequence) -> float:
    """Least-squares slope of log(error) against log(x) for (x, error) pairs."""
    pts = [(float(x), float(e)) for x, e in points]
    if len(pts) < 3:
        raise ValueError("rate fit needs at least 3 points")
    if not all(0 < x < math.inf and 0 < e < math.inf for x, e in pts):  # NaN fails too
        raise ValueError("rate fit needs positive abscissas and errors")
    lx = np.log([x for x, _ in pts])
    le = np.log([e for _, e in pts])
    if np.ptp(lx) == 0:
        raise ValueError("rate fit needs varying abscissas")
    return float(np.polyfit(lx, le, 1)[0])


def _predictor_label(spec, gamma: float) -> str:
    exponent = _corner_exponent(gamma, spec.beta, spec.bc_kind)
    if exponent is None:
        return "L2~(h*sqrt(log(1+1/h)))^2"
    return f"L2~h^{2.0 * min(gamma * exponent, 1.0):.4g}"


def solve_spec(spec, mesh: Mesh, dofmap: DofMap, t: float = 1.0, M: int = 8):
    """Discrete solution of ``spec`` on ``mesh`` and the exact field it approximates.

    An EllipticSpec gets one real SPD solve of the stiffness system; any
    other spec is integrated to time t by the contour quadrature with
    half-count M, at M+1 complex solves.  ``dofmap`` must be built for
    ``spec.bc_kind``, or ValueError is raised.  Returns the free-dof
    coefficients and the exact solution as a field ``(x, y) -> u`` (at
    time t for a time-dependent spec).  Raises SolverError when a solve
    misses the residual contract.
    """
    fem._check_bc_kind(spec.bc_kind, dofmap)
    stiffness = fem.assemble_stiffness(mesh, dofmap, spec.K)
    if isinstance(spec, EllipticSpec):
        uh = fem.solve_real_spd(stiffness, fem.assemble_load(mesh, dofmap, spec.f))
        return uh, spec.exact
    mass = fem.assemble_mass(mesh, dofmap)
    uh = inverse_laplace_evolve(spec, mesh, dofmap, mass, stiffness, t, M)
    return uh, lambda x, y: spec.exact(x, y, t)


def run_convergence(spec, gamma: float, hstar_list: Sequence[float], t: float = 1.0,
                    M: int = 8, fit_abscissa: str = "N") -> ConvergenceReport:
    """Convergence study over a decreasing sequence of mesh parameters.

    For each h_star a mesh is generated, the problem solved by
    :func:`solve_spec` and the L2 error recorded (at time t for a
    time-dependent spec).  A failed solve marks its row, keeps the
    SolverError message as the row's reason, and the study continues.
    """
    hs = [float(h) for h in hstar_list]
    if not hs:
        raise ValueError("hstar_list must not be empty")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("hstar_list must be strictly decreasing")
    if fit_abscissa not in ("N", "h"):
        raise ValueError("fit_abscissa must be 'N' or 'h'")

    rows = []
    for h_star in hs:
        msh = generate_sector_mesh(spec.beta, h_star, gamma)
        dofmap = build_dofmap(msh, spec.bc_kind)
        try:
            uh, exact = solve_spec(spec, msh, dofmap, t, M)
            err = l2_error(msh, dofmap, uh, exact)
            rows.append(ConvergenceRow(h_star, dofmap.n_dofs, float(err)))
        except SolverError as exc:
            rows.append(ConvergenceRow(h_star, dofmap.n_dofs, math.nan, failed=True,
                                       reason=str(exc)))

    for prev, cur in zip(rows, rows[1:]):
        if not (prev.failed or cur.failed):
            cur.rate = math.log(prev.error / cur.error) / math.log(prev.h_star / cur.h_star)

    ok = [r for r in rows if not r.failed]
    report = ConvergenceReport(rows=rows, fit_abscissa=fit_abscissa,
                               predictor=_predictor_label(spec, gamma))
    if len(ok) >= 3:
        report.fitted_slope_vs_N = fit_rate([(r.n_dofs, r.error) for r in ok])
        report.fitted_slope_vs_h = fit_rate([(r.h_star, r.error) for r in ok])
        report.fitted_slope = (report.fitted_slope_vs_N if fit_abscissa == "N"
                               else report.fitted_slope_vs_h)
    return report


def write_report_csv(report: ConvergenceReport, path) -> None:
    """CSV rows ``hstar,N,l2_error,rate`` plus a fitted-slope comment line."""
    with open(path, "w") as fh:
        fh.write("hstar,N,l2_error,rate\n")
        for row in report.rows:
            rate = "" if row.rate is None else f"{row.rate:.10g}"
            fh.write(f"{row.h_star:.10g},{row.n_dofs},{row.error:.10g},{rate}\n")
        fh.write(f"# fitted_slope={report.fitted_slope:.10g} predictor={report.predictor}\n")
