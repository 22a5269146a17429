"""Spans around calls into sectorfem's modules, recorded from outside.

A traced pass patches the module attributes the pipeline calls through
(``harness.generate_sector_mesh``, ``fem.solve_complex_symmetric``,
``contour.fold_terms``, ...) with wrappers that record a span: name, start,
end, parent span and pass id.  Problem fields are wrapped by replacing them
in a copy of the problem spec.  The patches are removed when the pass ends,
so untraced passes run the unmodified code.

Every wrapped linear solve also has its relative residual recomputed from
its arguments and result.  That work is recorded in its own
``trace.residual`` span, so it counts as tracing overhead, not as solver or
contour time.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

import sectorfem as sf
from sectorfem import contour, fem, harness, problems, specialfn

RESIDUAL_CONTRACT = 1e-10


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at the top
    pass_id: int
    size: int = 0      # dofs, points or triangles, depending on the span
    residual: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; single-threaded, like the pipeline it wraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pass_id = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.pass_id))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, span, arguments, result)`` runs once it closes."""
        signature = inspect.signature(fn) if after else None

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, self.spans[idx], signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def wrap_spec(self, spec):
        """Copy of ``spec`` whose u0, fhat fields and exact solution record spans."""
        def field(fn):
            def traced(x, y, *rest):
                idx = self._open("problems.field")
                try:
                    return fn(x, y, *rest)
                finally:
                    self._close(idx)
                    self.spans[idx].size = int(np.size(x))
            return traced

        fhat = None if spec.fhat is None else (lambda z, fhat=spec.fhat: field(fhat(z)))
        return dataclasses.replace(spec, u0=field(spec.u0), fhat=fhat, exact=field(spec.exact))

    @contextmanager
    def traced_pass(self, pass_id: int):
        """Patch the pipeline's module attributes for the duration of one pass."""
        self.pass_id = pass_id
        saved = []
        try:
            for module, attr, name, after in _patch_table():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, after))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.pass_id = -1

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([dataclasses.asdict(s) for s in self.spans], fh)


def _record_triangles(tracer, span, arguments, mesh):
    span.size = mesh.n_triangles


def _residual(tracer, span, A, x, b):
    idx = tracer._open("trace.residual")
    try:
        norm_b = np.linalg.norm(b)
        span.residual = 0.0 if norm_b == 0.0 else float(np.linalg.norm(A @ x - b) / norm_b)
        span.size = int(np.size(b))
    finally:
        tracer._close(idx)


def _real_residual(tracer, span, arguments, x):
    _residual(tracer, span, arguments["A"], x, np.asarray(arguments["b"], dtype=float))


def _complex_residual(tracer, span, arguments, x):
    A = arguments["zalpha"] * arguments["mass"] + arguments["stiffness"]
    _residual(tracer, span, A, x, np.asarray(arguments["b"], dtype=complex))


def _patch_table():
    """(module, attribute, span name, after-hook) for every call the pipeline makes.

    A function bound in several modules is patched in each, since each
    caller looks it up in its own module.
    """
    return [
        (sf, "run_convergence", "harness.study", None),
        (sf, "generate_sector_mesh", "mesh.generate", _record_triangles),
        (harness, "generate_sector_mesh", "mesh.generate", _record_triangles),
        (sf, "build_dofmap", "fem.dofmap", None),
        (harness, "build_dofmap", "fem.dofmap", None),
        (sf, "assemble_mass", "fem.assemble", None),
        (fem, "assemble_mass", "fem.assemble", None),
        (sf, "assemble_stiffness", "fem.assemble", None),
        (fem, "assemble_stiffness", "fem.assemble", None),
        (fem, "assemble_load", "fem.load", None),
        (fem, "l2_project", "fem.project", None),
        (fem, "solve_real_spd", "fem.real_solve", _real_residual),
        (fem, "solve_complex_symmetric", "fem.complex_solve", _complex_residual),
        (sf, "inverse_laplace_evolve", "contour.evolve", None),
        (harness, "inverse_laplace_evolve", "contour.evolve", None),
        (contour, "fold_terms", "contour.fold", None),
        (problems, "mittag_leffler_neg", "specialfn.ml", None),
        (specialfn, "laplace_invert_scalar", "specialfn.ml_contour", None),
        (sf, "l2_error", "harness.error", None),
        (harness, "l2_error", "harness.error", None),
    ]


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def finest_solve_times(spans) -> list[float]:
    """Durations of the complex solves on the finest mesh of each study.

    Solves are grouped by the ``harness.study`` span they ran under (or by
    pass, outside a study); within a group the finest mesh is the one with
    the most dofs.
    """
    groups: dict = {}
    for span in spans:
        if span.name != "fem.complex_solve":
            continue
        key = ("pass", span.pass_id)
        p = span.parent
        while p >= 0:
            if spans[p].name == "harness.study":
                key = ("study", p)
                break
            p = spans[p].parent
        groups.setdefault(key, []).append(span)
    out = []
    for group in groups.values():
        n_max = max(s.size for s in group)
        out.extend(s.duration for s in group if s.size == n_max)
    return out


def pass_metrics(spans) -> dict:
    """Per-layer totals for the spans of one pass (inclusive unless named self)."""
    children: dict[int, float] = {}
    for span in spans.values():
        if span.parent >= 0:
            children[span.parent] = children.get(span.parent, 0.0) + span.duration

    def by(name, parent_name=None):
        return [(i, s) for i, s in spans.items() if s.name == name
                and (parent_name is None
                     or (s.parent in spans and spans[s.parent].name == parent_name))]

    def total(name, parent_name=None):
        return sum(s.duration for _, s in by(name, parent_name))

    def self_time(name):
        return sum(s.duration - children.get(i, 0.0) for i, s in by(name))

    def count(name, parent_name=None):
        return len(by(name, parent_name))

    evolves = count("contour.evolve")
    ml_calls = count("specialfn.ml")
    ml_contour = count("specialfn.ml_contour", "specialfn.ml")
    return {
        "mesh.generate_s": total("mesh.generate"),
        "mesh.generate_calls": count("mesh.generate"),
        "mesh.triangles": sum(s.size for _, s in by("mesh.generate")),
        "fem.dofmap_s": total("fem.dofmap"),
        "fem.assemble_s": total("fem.assemble"),
        "fem.assemble_calls": count("fem.assemble"),
        "fem.load_s": total("fem.load"),
        "fem.load_calls": count("fem.load"),
        "fem.project_s": total("fem.project"),
        "fem.project_calls": count("fem.project"),
        "fem.real_solve_s": total("fem.real_solve"),
        "fem.real_solves": count("fem.real_solve"),
        "fem.complex_solve_s": total("fem.complex_solve"),
        "fem.complex_solves": count("fem.complex_solve"),
        "contour.evolve_s": total("contour.evolve"),
        "contour.evolve_calls": evolves,
        "contour.self_s": self_time("contour.evolve"),
        "contour.fold_s": total("contour.fold", "contour.evolve"),
        "contour.solves_per_evolve": (count("fem.complex_solve", "contour.evolve") / evolves
                                      if evolves else 0.0),
        "problems.field_s": total("problems.field"),
        "problems.field_points": sum(s.size for _, s in by("problems.field")),
        "specialfn.ml_calls": ml_calls,
        "specialfn.ml_contour_calls": ml_contour,
        "specialfn.ml_contour_ratio": ml_contour / ml_calls if ml_calls else 0.0,
        "specialfn.ml_s": total("specialfn.ml"),
        "harness.error_s": total("harness.error"),
        "harness.error_calls": count("harness.error"),
        "harness.study_self_s": self_time("harness.study"),
    }


def layer_metrics(tracer: Tracer, traced_walls, untraced_walls) -> tuple[dict, int]:
    """Median over traced passes of each per-pass metric, plus run-wide ones.

    Also returns the number of finest-mesh solves the percentiles rest on.
    """
    per_pass: dict[int, dict] = {}
    for i, span in enumerate(tracer.spans):
        per_pass.setdefault(span.pass_id, {})[i] = span
    rows = [pass_metrics(spans) for spans in per_pass.values()]
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    finest = finest_solve_times(tracer.spans)
    out["fem.complex_solve_s.p50"] = _percentile(finest, 50)
    out["fem.complex_solve_s.p75"] = _percentile(finest, 75)
    out["fem.residual_max"] = max((s.residual for s in tracer.spans
                                   if s.name in ("fem.real_solve", "fem.complex_solve")
                                   and not math.isnan(s.residual)), default=0.0)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out, len(finest)
