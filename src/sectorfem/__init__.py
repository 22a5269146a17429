"""Finite element solver for time-fractional diffusion on a sector domain.

Piecewise-linear elements on locally graded triangulations of the unit
circular sector with a re-entrant corner, time integration by inverse
Laplace transformation along a hyperbolic contour, and a convergence
harness that measures the empirical error rates.
"""

from .contour import ContourParams, inverse_laplace_evolve, laplace_invert_scalar, make_contour
from .fem import (DIRICHLET, MIXED, DofMap, SolverError, assemble_load, assemble_mass,
                  assemble_stiffness, build_dofmap, l2_project, solve_complex_symmetric,
                  solve_real_spd, unconstrained_dofmap)
from .harness import (ConvergenceReport, ConvergenceRow, epsilon, epsilon_mix, fit_rate,
                      h1_seminorm_error, l2_error, run_convergence, solve_spec,
                      write_report_csv)
from .mesh import (EDGE_ARC, EDGE_THETA0, EDGE_THETA_MAX, GradingReport, Mesh,
                   generate_sector_mesh, mesh_stats, read_mesh, verify_grading, write_mesh)
from .problems import (EllipticSpec, ProblemSpec, SeparableSource, elliptic_singular,
                       example1, example2, normalize_K)
from .specialfn import bessel_j, first_bessel_zero, mittag_leffler_neg

__all__ = [
    "ContourParams", "ConvergenceReport", "ConvergenceRow", "DIRICHLET", "DofMap",
    "EDGE_ARC", "EDGE_THETA0", "EDGE_THETA_MAX", "EllipticSpec", "GradingReport", "MIXED",
    "Mesh", "ProblemSpec", "SeparableSource", "SolverError", "assemble_load",
    "assemble_mass", "assemble_stiffness", "bessel_j", "build_dofmap", "elliptic_singular",
    "epsilon", "epsilon_mix", "example1", "example2", "first_bessel_zero", "fit_rate",
    "generate_sector_mesh", "h1_seminorm_error", "inverse_laplace_evolve", "l2_error",
    "l2_project", "laplace_invert_scalar", "make_contour", "mesh_stats",
    "mittag_leffler_neg", "normalize_K", "read_mesh", "run_convergence",
    "solve_complex_symmetric", "solve_real_spd", "solve_spec", "unconstrained_dofmap",
    "verify_grading", "write_mesh", "write_report_csv",
]

__version__ = "0.1.0"
