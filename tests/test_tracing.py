"""The benchmark's tracer still finds every pipeline call it wraps.

``perfbench/tracing.py`` patches module attributes by name, so renaming one
of them in the package breaks only the traced benchmark run.  These tests
load that file and ``perfbench/workloads.py`` read-only, resolve every
entry of the patch table, and run one smoke-sized pass of each workload
under the tracer to check that every traced layer still records spans.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
M_PLUS_ONE = 9  # complex solves per evolve at the benchmark's M = 8


@pytest.fixture
def perfbench_module(monkeypatch):
    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up in sys.modules while being built
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    return load


def test_every_traced_attribute_resolves_to_a_callable(perfbench_module):
    tracing = perfbench_module("tracing")
    table = tracing._patch_table()
    assert table
    for module, attr, name, after in table:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
        assert after is None or callable(after)


@pytest.mark.parametrize("workload", ["mixed_decay", "manufactured_source", "time_curve"])
def test_traced_smoke_pass_records_every_layer(perfbench_module, workload):
    tracing = perfbench_module("tracing")
    workloads = perfbench_module("workloads")
    assert workloads.M_NODES + 1 == M_PLUS_ONE
    wl = workloads.WORKLOADS[workload](random.Random(3), smoke=True)
    tracer = tracing.Tracer()
    specs = [tracer.wrap_spec(spec) for spec in wl.specs]
    with tracer.traced_pass(0):
        result = wl.run_pass(specs)
    ops, _ = wl.check(result)
    assert all(op.ok for op in ops), [op for op in ops if not op.ok]
    metrics = tracing.pass_metrics(dict(enumerate(tracer.spans)))
    assert metrics["contour.evolve_calls"] > 0
    assert metrics["contour.solves_per_evolve"] == M_PLUS_ONE
    assert metrics["fem.complex_solves"] == M_PLUS_ONE * metrics["contour.evolve_calls"]
    residuals = [s.residual for s in tracer.spans if s.name == "fem.complex_solve"]
    assert residuals and max(residuals) <= tracing.RESIDUAL_CONTRACT
    for count in ("mesh.generate_calls", "fem.assemble_calls", "fem.load_calls",
                  "harness.error_calls", "problems.field_points"):
        assert metrics[count] > 0, count
