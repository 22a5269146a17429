"""Smoke test of the benchmark at the coarsest mesh sizes.

    python -m pytest perfbench/test_smoke.py

Checks that each workload, untraced and traced, passes its gates and emits
exactly the metrics BENCHMARK.json names, with their units; that the
benchmark refuses to run without the package source; and that the closed-form
solution norms used for relative errors match quadrature.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import sectorfem as sf  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    assert lines[0].startswith("env ")
    assert any(line.startswith("metric failed_frac = 0.0 ") for line in lines)
    if trace:
        assert result["metrics"]["contour.solves_per_evolve"]["value"] == workloads.M_NODES + 1
        assert result["metrics"]["fem.residual_max"]["value"] <= 1e-10


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("make_spec, t", [(lambda: sf.example2(0.5), 1.3),
                                          (lambda: sf.example1(0.5), 1.3)])
def test_solution_scale_matches_quadrature(make_spec, t):
    spec = make_spec()
    msh = sf.generate_sector_mesh(spec.beta, 2 ** -5, 1.5)
    field = spec.u0 if spec.label == "example2" else (lambda x, y: spec.exact(x, y, t))
    numeric = sf.l2_error(msh, None, np.zeros(msh.n_vertices), field)
    assert workloads.solution_scale(spec, t) == pytest.approx(numeric, rel=1e-6)
