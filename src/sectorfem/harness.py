"""Error measurement, refinement predictors and convergence studies.

L2 and H1-seminorm errors are integrated with degree-6 symmetric triangle
quadrature; elements touching the corner are split fourfold once before
quadrature so the singular exact fields are resolved.  Convergence studies
drive mesh generation, assembly and the time integrator over a sequence of
mesh sizes, then report pairwise rates and least-squares slopes against both
the dof count and the mesh parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import fem
from .contour import inverse_laplace_evolve
from .fem import DofMap, SolverError, build_dofmap, triangle_rule
from .mesh import Mesh, generate_sector_mesh, triangle_areas
from .problems import EllipticSpec


@dataclass
class ConvergenceRow:
    h_star: float
    n_dofs: int
    error: float
    rate: float | None = None
    failed: bool = False


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


def _quad_batches(mesh: Mesh, quad_degree: int):
    """(element ids, barycentric points, weights) with corner elements 4-split.

    The fourfold split keeps the parent barycentric representation: child
    quadrature points are convex combinations of the parent rule, each with
    a quarter of the weight, so linear FE functions evaluate unchanged.
    """
    pts, w = triangle_rule(quad_degree)
    children = np.array([
        [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
        [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]],
        [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]],
        [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
    ])
    split_pts = np.concatenate([pts @ child for child in children])
    split_w = np.tile(w / 4.0, 4)

    vr = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    touches_corner = (vr[mesh.triangles] < 1e-14).any(axis=1)
    batches = []
    plain = np.flatnonzero(~touches_corner)
    corner = np.flatnonzero(touches_corner)
    if plain.size:
        batches.append((plain, pts, w))
    if corner.size:
        batches.append((corner, split_pts, split_w))
    return batches


def _vertex_values(mesh: Mesh, dofmap: DofMap | None, uh: np.ndarray) -> np.ndarray:
    if dofmap is None:
        uh = np.asarray(uh, dtype=float)
        if uh.shape[0] != mesh.n_vertices:
            raise ValueError("without a dofmap, uh must hold one value per vertex")
        return uh
    return dofmap.expand(uh)


def l2_error(mesh: Mesh, dofmap: DofMap | None, uh: np.ndarray, exact: Callable,
             quad_degree: int = 6) -> float:
    """L2 norm of (u_h - exact) over the mesh.

    ``uh`` holds free-dof coefficients (or per-vertex values when ``dofmap``
    is None); ``exact(x, y)`` is evaluated at the quadrature points and must
    be finite there.
    """
    values = _vertex_values(mesh, dofmap, uh)
    areas = triangle_areas(mesh)
    nodal = values[mesh.triangles]
    total = 0.0
    for ids, pts, w in _quad_batches(mesh, quad_degree):
        x, y = fem.quad_points(mesh, ids, pts)
        uq = nodal[ids] @ pts.T
        eq = np.asarray(exact(x, y))
        if not np.all(np.isfinite(eq)):
            e, q = np.argwhere(~np.isfinite(eq))[0]
            raise ValueError("exact field returned non-finite value at "
                             f"({x[e, q]:.6g}, {y[e, q]:.6g})")
        total += float(areas[ids] @ ((uq - eq) ** 2 @ w))
    return math.sqrt(total)


def h1_seminorm_error(mesh: Mesh, dofmap: DofMap | None, uh: np.ndarray,
                      exact_grad: Callable, quad_degree: int = 6) -> float:
    """H1 seminorm of (u_h - exact): ||grad u_h - exact_grad||_L2.

    ``exact_grad(x, y)`` returns the pair (du/dx, du/dy); the FE gradient is
    constant per element.
    """
    values = _vertex_values(mesh, dofmap, uh)
    areas, grads = fem.element_geometry(mesh)
    guh = np.einsum("eb,ebd->ed", values[mesh.triangles], grads)
    total = 0.0
    for ids, pts, w in _quad_batches(mesh, quad_degree):
        gx, gy = exact_grad(*fem.quad_points(mesh, ids, pts))
        if not (np.all(np.isfinite(gx)) and np.all(np.isfinite(gy))):
            raise ValueError("exact gradient returned non-finite values")
        dx = guh[ids, None, 0] - np.asarray(gx)
        dy = guh[ids, None, 1] - np.asarray(gy)
        total += float(areas[ids] @ ((dx ** 2 + dy ** 2) @ w))
    return math.sqrt(total)


def _epsilon_cases(h: float, gamma: float, threshold: float, exponent: float) -> float:
    if not 0 < h < 1:
        raise ValueError(f"h must lie in (0, 1), got {h}")
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if abs(gamma - threshold) <= 1e-12 * threshold:
        return h * math.sqrt(math.log1p(1.0 / h))
    if gamma < threshold:
        return h ** (gamma * exponent) / math.sqrt(1.0 / gamma - exponent)
    return h / math.sqrt(exponent - 1.0 / gamma)


def epsilon(h: float, gamma: float, beta: float) -> float:
    """Refinement error predictor for all-Dirichlet conditions.

    Three branches in gamma against 1/beta: ``h**(gamma*beta)`` below the
    threshold, ``h*sqrt(log(1+1/h))`` at it, and ``h`` (up to a constant)
    above it.
    """
    if not 0.5 < beta < 1:
        raise ValueError(f"beta must lie in (1/2, 1), got {beta}")
    return _epsilon_cases(h, gamma, 1.0 / beta, beta)


def epsilon_mix(h: float, gamma: float, beta: float) -> float:
    """Refinement error predictor for mixed conditions (beta/2 singularity)."""
    if not 0.5 < beta < 1:
        raise ValueError(f"beta must lie in (1/2, 1), got {beta}")
    return _epsilon_cases(h, gamma, 2.0 / beta, beta / 2.0)


def fit_rate(points: Sequence) -> float:
    """Least-squares slope of log(error) against log(x) for (x, error) pairs."""
    pts = [(float(x), float(e)) for x, e in points]
    if len(pts) < 3:
        raise ValueError("rate fit needs at least 3 points")
    if any(x <= 0 or e <= 0 for x, e in pts):
        raise ValueError("rate fit needs positive abscissas and errors")
    lx = np.log([x for x, _ in pts])
    le = np.log([e for _, e in pts])
    if np.ptp(lx) == 0:
        raise ValueError("rate fit needs varying abscissas")
    return float(np.polyfit(lx, le, 1)[0])


def _predictor_label(spec, gamma: float) -> str:
    if isinstance(spec, EllipticSpec) or spec.bc_kind == fem.DIRICHLET:
        threshold, exponent = 1.0 / spec.beta, spec.beta
    else:
        threshold, exponent = 2.0 / spec.beta, spec.beta / 2.0
    if abs(gamma - threshold) <= 1e-12 * threshold:
        return "L2~(h*sqrt(log(1+1/h)))^2"
    rate = 2.0 * min(gamma * exponent, 1.0)
    return f"L2~h^{rate:.4g}"


def run_convergence(spec, gamma: float, hstar_list: Sequence[float], t: float = 1.0,
                    M: int = 8, fit_abscissa: str = "N",
                    quad_degree: int = 4) -> ConvergenceReport:
    """Convergence study over a decreasing sequence of mesh parameters.

    For each h_star a mesh is generated, the problem solved (a static
    elliptic solve for an EllipticSpec, otherwise the contour time
    integration at time t with half-count M) and the L2 error recorded.
    A failed solve marks its row and the study continues.
    """
    hs = [float(h) for h in hstar_list]
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("hstar_list must be strictly decreasing")
    if fit_abscissa not in ("N", "h"):
        raise ValueError("fit_abscissa must be 'N' or 'h'")

    elliptic = isinstance(spec, EllipticSpec)
    bc = fem.DIRICHLET if elliptic else spec.bc_kind
    rows = []
    for h_star in hs:
        msh = generate_sector_mesh(spec.beta, h_star, gamma)
        dofmap = build_dofmap(msh, bc)
        try:
            if elliptic:
                S = fem.assemble_stiffness(msh, dofmap, spec.K)
                b = fem.assemble_load(msh, dofmap, spec.f, quad_degree)
                uh = fem.solve_real_spd(S, b)
                err = l2_error(msh, dofmap, uh, spec.exact)
            else:
                mass = fem.assemble_mass(msh, dofmap)
                S = fem.assemble_stiffness(msh, dofmap, spec.K)
                uh = inverse_laplace_evolve(spec, msh, dofmap, mass, S, t, M, quad_degree)
                err = l2_error(msh, dofmap, uh,
                               lambda x, y: spec.exact(x, y, t))
            rows.append(ConvergenceRow(h_star, dofmap.n_dofs, float(err)))
        except SolverError:
            rows.append(ConvergenceRow(h_star, dofmap.n_dofs, math.nan, failed=True))

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
