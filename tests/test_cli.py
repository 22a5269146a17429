"""Command line interface round trips on small problems."""

import numpy as np
import pytest

import sectorfem as sf
from sectorfem.cli import main


def test_mesh_command(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    assert main(["mesh", "--beta", "0.6667", "--hstar", "0.125",
                 "--gamma", "1.5", "--out", str(out)]) == 0
    assert "vertices" in capsys.readouterr().out
    msh = sf.read_mesh(out, gamma=1.5, h_star=0.125)
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


def test_solve_command_rejects_wrong_bc():
    with pytest.raises(SystemExit):
        main(["solve", "--example", "2", "--bc", "dirichlet",
              "--hstar", "2^-3", "--out", "x.csv"])


@pytest.mark.parametrize("argv, message", [
    (["solve", "--example", "2", "--alpha", "1.5", "--hstar", "2^-3"], "alpha must lie in"),
    (["solve", "--example", "2", "--M", "1", "--hstar", "2^-3"], "M must be an integer"),
    (["converge", "--example", "elliptic", "--hstar-list", "2^-3,,2^-4"], "could not convert"),
])
def test_parameter_errors_exit_with_usage_message(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "sectorfem" in err and "error:" in err and message in err
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
