"""Command line interface.

Subcommands:
  mesh      generate a graded sector mesh and write it as plain text
  mlf       evaluate the Mittag-Leffler function E_alpha(-x)
  solve     solve a benchmark problem at one time, emitting nodal values
  converge  run a convergence study and write the report CSV
"""

from __future__ import annotations

import argparse
import sys

from . import fem, harness, problems
from .mesh import generate_sector_mesh, mesh_stats, write_mesh
from .specialfn import mittag_leffler_neg


def _parse_hstar(token: str) -> float:
    """Accept '2^-4' style powers as well as plain floats."""
    token = token.strip()
    if "^" in token:
        base, exp = token.split("^")
        return float(base) ** float(exp)
    return float(token)


def _get_problem(name: str, alpha: float, bc: str | None):
    if name == "elliptic":
        spec = problems.elliptic_singular()
    else:
        spec = (problems.example1 if name == "1" else problems.example2)(alpha)
    if bc is not None and bc != spec.bc_kind:
        raise ValueError(f"example {name} is defined for {spec.bc_kind} boundary conditions")
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sectorfem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate a graded sector mesh")
    p_mesh.add_argument("--beta", type=float, default=2 / 3)
    p_mesh.add_argument("--hstar", type=_parse_hstar, required=True)
    p_mesh.add_argument("--gamma", type=float, default=1.0)
    p_mesh.add_argument("--out", required=True)

    p_mlf = sub.add_parser("mlf", help="print E_alpha(-x)")
    p_mlf.add_argument("--alpha", type=float, required=True)
    p_mlf.add_argument("--x", type=float, required=True)

    p_solve = sub.add_parser("solve", help="solve one benchmark problem")
    p_solve.add_argument("--example", choices=("1", "2", "elliptic"), required=True)
    p_solve.add_argument("--alpha", type=float, default=0.5)
    p_solve.add_argument("--bc", choices=(fem.DIRICHLET, fem.MIXED))
    p_solve.add_argument("--hstar", type=_parse_hstar, required=True)
    p_solve.add_argument("--gamma", type=float, default=1.0)
    p_solve.add_argument("--t", type=float, default=1.0)
    p_solve.add_argument("--M", type=int, default=8)
    p_solve.add_argument("--out", required=True)

    p_conv = sub.add_parser("converge", help="run a convergence study")
    p_conv.add_argument("--example", choices=("1", "2", "elliptic"), required=True)
    p_conv.add_argument("--alpha", type=float, default=0.5)
    p_conv.add_argument("--bc", choices=(fem.DIRICHLET, fem.MIXED))
    p_conv.add_argument("--gamma", type=float, default=1.0)
    p_conv.add_argument("--t", type=float, default=1.0)
    p_conv.add_argument("--M", type=int, default=8)
    p_conv.add_argument("--hstar-list", required=True,
                        help="comma separated, e.g. 2^-3,2^-4,2^-5")
    p_conv.add_argument("--fit", choices=("N", "h"), default="N")
    p_conv.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:  # a parameter out of its range: a usage error
        parser.error(str(exc))


def _run(args) -> int:
    if args.command == "mesh":
        msh = generate_sector_mesh(args.beta, args.hstar, args.gamma)
        write_mesh(msh, args.out)
        stats = mesh_stats(msh)
        print(f"wrote {args.out}: {stats['n_vertices']} vertices, "
              f"{stats['n_triangles']} triangles, h_max={stats['h_max']:.6g}, "
              f"min_angle={stats['min_angle']:.2f} deg")
        return 0

    if args.command == "mlf":
        print(f"{mittag_leffler_neg(args.alpha, args.x):.12g}")
        return 0

    spec = _get_problem(args.example, args.alpha, args.bc)
    if args.command == "solve":
        msh = generate_sector_mesh(spec.beta, args.hstar, args.gamma)
        dofmap = fem.build_dofmap(msh, spec.bc_kind)
        uh, _ = harness.solve_spec(spec, msh, dofmap, args.t, args.M)
        values = dofmap.expand(uh)
        with open(args.out, "w") as fh:
            fh.write("x,y,value\n")
            for (x, y), v in zip(msh.vertices, values):
                fh.write(f"{x:.10g},{y:.10g},{v:.10g}\n")
        print(f"wrote {args.out}: {len(values)} nodal values")
        return 0

    hstar_list = [_parse_hstar(tok) for tok in args.hstar_list.split(",")]
    report = harness.run_convergence(spec, args.gamma, hstar_list,
                                     t=args.t, M=args.M, fit_abscissa=args.fit)
    harness.write_report_csv(report, args.out)
    for row in report.rows:
        rate = "-" if row.rate is None else f"{row.rate:.4f}"
        status = "FAILED" if row.failed else f"error={row.error:.6e} rate={rate}"
        print(f"h*={row.h_star:.6g} N={row.n_dofs} {status}")
    print(f"fitted slope vs {report.fit_abscissa}: {report.fitted_slope:.4f} "
          f"({report.predictor})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
