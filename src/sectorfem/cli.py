"""Command line interface.

Subcommands:
  mesh      generate a graded sector mesh and write it as plain text
  mlf       evaluate the Mittag-Leffler function E_alpha(-x)
  solve     solve a benchmark problem at one time, emitting nodal values
  converge  run a convergence study and write the report CSV
"""

from __future__ import annotations

import argparse
import math
import sys

from . import fem, harness, problems
from .mesh import generate_sector_mesh, mesh_stats, write_mesh
from .specialfn import mittag_leffler_neg


def _parse_hstar(token: str) -> float:
    """Accept '2^-4' style powers as well as plain floats."""
    base, power, exp = token.strip().partition("^")
    try:
        return math.pow(float(base), float(exp)) if power else float(base)
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"invalid entry {token!r}: {exc}") from None


def _parse_hstar_list(text: str) -> list:
    """Comma separated h* values, each in the notation of :func:`_parse_hstar`."""
    return [_parse_hstar(token) for token in text.split(",")]


def _get_problem(name: str, alpha: float):
    if name == "elliptic":
        return problems.elliptic_singular()
    return (problems.example1 if name == "1" else problems.example2)(alpha)


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

    shared = argparse.ArgumentParser(add_help=False)  # the options solve and converge share
    shared.add_argument("--example", choices=("1", "2", "elliptic"), required=True)
    shared.add_argument("--alpha", type=float, default=0.5)
    shared.add_argument("--gamma", type=float, default=1.0)
    shared.add_argument("--t", type=float, default=1.0)
    shared.add_argument("--M", type=int, default=8)
    shared.add_argument("--out", required=True)

    p_solve = sub.add_parser("solve", parents=[shared], help="solve one benchmark problem")
    p_solve.add_argument("--hstar", type=_parse_hstar, required=True)

    p_conv = sub.add_parser("converge", parents=[shared], help="run a convergence study")
    p_conv.add_argument("--hstar-list", type=_parse_hstar_list, required=True,
                        help="comma separated, e.g. 2^-3,2^-4,2^-5")
    p_conv.add_argument("--fit", choices=("N", "h"), default="N")

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

    spec = _get_problem(args.example, args.alpha)
    if args.command == "solve":
        msh = generate_sector_mesh(spec.beta, args.hstar, args.gamma)
        dofmap = fem.build_dofmap(msh, spec.bc_kind)
        try:
            uh, _ = harness.solve_spec(spec, msh, dofmap, args.t, args.M)
        except fem.SolverError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        values = dofmap.expand(uh)
        with open(args.out, "w") as fh:
            fh.write("x,y,value\n")
            for (x, y), v in zip(msh.vertices, values):
                fh.write(f"{x:.10g},{y:.10g},{v:.10g}\n")
        print(f"wrote {args.out}: {len(values)} nodal values")
        return 0

    report = harness.run_convergence(spec, args.gamma, args.hstar_list,
                                     t=args.t, M=args.M, fit_abscissa=args.fit)
    harness.write_report_csv(report, args.out)
    for row in report.rows:
        rate = "-" if row.rate is None else f"{row.rate:.4f}"
        status = f"FAILED: {row.reason}" if row.failed else f"error={row.error:.6e} rate={rate}"
        print(f"h*={row.h_star:.6g} N={row.n_dofs} {status}")
    print(f"fitted slope vs {report.fit_abscissa}: {report.fitted_slope:.4f} "
          f"({report.predictor})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
