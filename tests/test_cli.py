"""Command line interface round trips on small problems."""

import numpy as np
import pytest

import sectorfem as sf
from sectorfem.cli import main
from conftest import failing_on_finest_mesh


def test_mesh_command(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    assert main(["mesh", "--beta", "0.6667", "--hstar", "0.125",
                 "--gamma", "1.5", "--out", str(out)]) == 0
    assert "vertices" in capsys.readouterr().out
    msh = sf.read_mesh(out)
    assert (msh.gamma, msh.h_star) == (1.5, 0.125)
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


def test_solve_command_example2(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    assert main(["solve", "--example", "2", "--alpha", "0.5", "--hstar", "2^-3",
                 "--gamma", "3", "--t", "1", "--M", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,value"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    spec = sf.example2(0.5)
    msh = sf.generate_sector_mesh(spec.beta, 2 ** -3, 3.0)
    assert data.shape == (msh.n_vertices, 3)
    # nodal values approximate the decayed eigenfunction
    interior = np.hypot(data[:, 0], data[:, 1]) < 0.9
    ref = spec.exact(data[interior, 0], data[interior, 1], 1.0)
    assert np.max(np.abs(data[interior, 2] - ref)) < 0.05


def test_solve_command_elliptic(tmp_path):
    out = tmp_path / "sol.csv"
    assert main(["solve", "--example", "elliptic", "--hstar", "2^-3",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) > 10


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
