"""Command line interface round trips on small problems.

The commands run in-process through ``main``; one test runs the module as
a process, to check that its exit status is the one ``main`` returns.
"""

import subprocess
import sys

import numpy as np
import pytest

import sectorfem as sf
from sectorfem.cli import main
from conftest import failing_on_finest_mesh, fresh_interpreter_env


def test_mesh_command(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    assert main(["mesh", "--beta", "0.6667", "--hstar", "0.125",
                 "--gamma", "1.5", "--out", str(out)]) == 0
    assert "vertices" in capsys.readouterr().out
    msh = sf.read_mesh(out)
    assert (msh.gamma, msh.h_star) == (1.5, 0.125)
    assert msh.n_vertices == sf.generate_sector_mesh(0.6667, 0.125, 1.5).n_vertices
    assert sf.verify_grading(msh).passed


def test_mesh_command_accepts_power_notation(tmp_path):
    out = tmp_path / "mesh.txt"
    assert main(["mesh", "--hstar", "2^-3", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.split()[1] == "vertices"


def test_mlf_command(capsys):
    assert main(["mlf", "--alpha", "1.0", "--x", "1.0"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(np.exp(-1.0), abs=1e-10)


def _read_solution(path, beta, h_star, gamma):
    """The ``x,y,value`` rows of a solve output, one per vertex of its mesh."""
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert data.shape == (sf.generate_sector_mesh(beta, h_star, gamma).n_vertices, 3)
    return data


def test_solve_command_example2(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    assert main(["solve", "--example", "2", "--alpha", "0.5", "--hstar", "2^-3",
                 "--gamma", "3", "--t", "1", "--M", "8", "--out", str(out)]) == 0
    spec = sf.example2(0.5)
    data = _read_solution(out, spec.beta, 2 ** -3, 3.0)
    # nodal values approximate the decayed eigenfunction
    interior = np.hypot(data[:, 0], data[:, 1]) < 0.9
    ref = spec.exact(data[interior, 0], data[interior, 1], 1.0)
    assert np.max(np.abs(data[interior, 2] - ref)) < 0.05


def test_solve_command_example1(tmp_path):
    out = tmp_path / "sol.csv"
    assert main(["solve", "--example", "1", "--hstar", "2^-3", "--gamma", "1.5",
                 "--out", str(out)]) == 0
    _read_solution(out, sf.example1(0.5).beta, 2 ** -3, 1.5)


def test_solve_command_elliptic(tmp_path):
    out = tmp_path / "sol.csv"
    assert main(["solve", "--example", "elliptic", "--hstar", "2^-3",
                 "--out", str(out)]) == 0
    _read_solution(out, sf.elliptic_singular().beta, 2 ** -3, 1.0)


def test_solve_command_rejects_wrong_bc(tmp_path, capsys):
    # each example has one boundary condition, so there is no --bc option
    out = tmp_path / "out.csv"
    for command, mesh_option in (("solve", "--hstar"), ("converge", "--hstar-list")):
        for bc in ("dirichlet", "mixed"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--example", "2", "--bc", bc, mesh_option, "2^-3",
                      "--out", str(out)])
            assert exc.value.code == 2
            assert f"unrecognized arguments: --bc {bc}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--example", "2", "--alpha", "1.5", "--hstar", "2^-3"], "alpha must lie in"),
    (["solve", "--example", "2", "--M", "1", "--hstar", "2^-3"], "M must be an integer"),
    (["converge", "--example", "elliptic", "--hstar-list", "2^-3,,2^-4"], "could not convert"),
    (["converge", "--example", "elliptic", "--hstar-list", "2^-3,,2^-4"],
     "argument --hstar-list: invalid entry ''"),
    (["converge", "--example", "elliptic", "--hstar-list", "2^-3^4"],
     "argument --hstar-list: invalid entry '2^-3^4'"),
    (["solve", "--example", "2", "--hstar", "2^x"], "argument --hstar: invalid entry '2^x'"),
    (["mesh", "--hstar", "2^-2", "--gamma", "nan"], "gamma must be finite and >= 1"),
    (["solve", "--example", "2", "--hstar", "2^-2", "--t", "inf"],
     "target time must be positive and finite"),
    (["solve", "--example", "2", "--M", "100", "--hstar", "2^-2"],
     "M must be an integer in [2, 32]"),
])
def test_parameter_errors_exit_with_usage_message(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "sectorfem" in err and "error:" in err and message in err
    assert not out.exists()


def test_converge_command_prints_why_a_row_failed(monkeypatch, tmp_path, capsys):
    failing_on_finest_mesh(monkeypatch, sf.example2(0.5), 1.0, [2 ** -2, 2 ** -3])
    out = tmp_path / "report.csv"
    assert main(["converge", "--example", "2", "--hstar-list", "2^-2,2^-3",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].startswith("h*=0.125 N=")
    assert printed[1].split(" ", 2)[2].startswith(
        "FAILED: contour node j=0 (z=") and printed[1].endswith("exceeds 1e-10")
    # the CSV keeps its format: the failed row reads nan, without the reason
    lines = out.read_text().splitlines()
    assert lines[0] == "hstar,N,l2_error,rate"
    assert lines[2].split(",")[2:] == ["nan", ""]


def test_solve_command_reports_a_failed_solve(monkeypatch, tmp_path, capsys):
    # a SolverError ends the command with exit status 1 and its message, no traceback
    failing_on_finest_mesh(monkeypatch, sf.example2(0.5), 1.0, [2 ** -2])
    out = tmp_path / "sol.csv"
    assert main(["solve", "--example", "2", "--hstar", "2^-2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: contour node j=0 (z=")
    assert captured.err.endswith("exceeds 1e-10\n")
    assert not out.exists()


def test_converge_command(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["converge", "--example", "elliptic", "--gamma", "1",
                 "--hstar-list", "2^-3,2^-4", "--fit", "h", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("hstar,N,l2_error,rate")
    assert "# fitted_slope=" in text
    printed = capsys.readouterr().out
    assert "fitted slope" in printed


@pytest.mark.parametrize("example, gamma", [("2", "3"), ("1", "1.5")])
def test_converge_command_over_three_levels(tmp_path, example, gamma):
    out = tmp_path / "report.csv"
    assert main(["converge", "--example", example, "--gamma", gamma,
                 "--hstar-list", "2^-2,2^-3,2^-4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "hstar,N,l2_error,rate"
    assert len([line for line in lines if not line.startswith("#")]) == 4
    assert lines[-1].startswith("# fitted_slope=")


# Runs sectorfem.cli as ``python -m`` does, with every complex solve failing
_FAILING_SOLVE = """
import runpy
from sectorfem import fem

def solve(*args):
    raise fem.SolverError("relative residual 3.000e-09 exceeds 1e-10", 3e-9)

fem.solve_complex_symmetric = solve
runpy.run_module("sectorfem.cli", run_name="__main__", alter_sys=True)
"""


def test_module_exit_status_is_the_status_main_returns(tmp_path):
    # ``python -m sectorfem.cli`` exits with main()'s status: 0, 1 for a failed
    # solve or 2 for a usage error; neither failure writes the output file
    def run(*argv):
        return subprocess.run([sys.executable, "-W", "error", *argv], env=fresh_interpreter_env(),
                              capture_output=True, text=True, timeout=120)

    mlf = run("-m", "sectorfem.cli", "mlf", "--alpha", "0.5", "--x", "1")
    assert mlf.returncode == 0, mlf.stderr
    assert float(mlf.stdout) == pytest.approx(0.427583576155807, abs=1e-10)  # E_0.5(-1)
    out = tmp_path / "sol.csv"
    solve = ("solve", "--example", "2", "--hstar", "2^-2", "--out", str(out))
    usage = run("-m", "sectorfem.cli", *solve, "--M", "100")
    assert usage.returncode == 2
    assert "M must be an integer in [2, 32]" in usage.stderr
    failed = run("-c", _FAILING_SOLVE, *solve)
    assert failed.returncode == 1, failed.stderr
    assert failed.stderr.startswith("error: contour node j=0 (z=")
    assert not out.exists()
