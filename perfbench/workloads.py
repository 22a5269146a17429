"""Benchmark workloads: inputs drawn from a seed, one timed pass, correctness gates.

Each workload is built in two steps.  The constructor is set-up: it draws the
target times from the seed and builds the problem specs.  ``run_pass`` is the
timed work, driven through the public ``sectorfem`` API exactly as a user
would call it.  ``check`` runs after the pass, untimed: it turns the outputs
into operations (solves and gates) that pass or fail, and returns the
relative L2 error of each answer the workload reports.

The seed draws only the target times, so the amount of work in a pass does
not depend on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import jv

import sectorfem as sf

M_NODES = 8  # contour half-count: every evolve costs M + 1 complex solves


@dataclass
class Operation:
    """One checked outcome of a pass: a reported answer or a gate."""

    name: str
    ok: bool
    detail: str = ""


def solution_scale(spec, t: float) -> float:
    """Largest L2 norm of the exact solution over [0, t], in closed form.

    Example 2 decays from the first mixed eigenfunction J_nu(w r) sin(nu theta)
    with nu = beta/2, so its peak norm is that of u0:
    ``sqrt(pi/(4 beta)) |J_{nu+1}(w)|``.  Example 1 grows like
    ``1 + t**alpha/Gamma(1+alpha)`` times g = r**beta (1-r) sin(beta theta),
    whose norm is ``sqrt(pi/(2 beta) * B(2 beta + 2, 3))``.  Dividing errors
    by the peak norm keeps the relative error from blowing up as a decaying
    solution vanishes.
    """
    beta = spec.beta
    if spec.label == "example2":
        nu = beta / 2
        w = sf.first_bessel_zero(nu)
        return math.sqrt(math.pi / (4 * beta)) * abs(float(jv(nu + 1, w)))
    if spec.label == "example1":
        g_norm = math.sqrt(math.pi / (2 * beta) * beta_fn(2 * beta + 2, 3))
        return (1.0 + t ** spec.alpha / math.gamma(1.0 + spec.alpha)) * g_norm
    raise ValueError(f"no closed-form norm for {spec.label!r}")


class MixedDecay:
    """ROADMAP end-to-end study: example 2 at gamma=3 over three alphas."""

    name = "mixed_decay"
    gamma = 3.0
    alphas = (0.25, 0.5, 0.75)
    rate_target, rate_tol, spread_max = 2.0, 0.15, 0.10

    def __init__(self, rng: random.Random, smoke: bool = False):
        self.hstars = [2 ** -k for k in ((2, 3, 4) if smoke else (4, 5, 6))]
        self.t = rng.uniform(0.5, 2.0)
        self.specs = [sf.example2(a) for a in self.alphas]

    def run_pass(self, specs):
        return [sf.run_convergence(spec, self.gamma, self.hstars, t=self.t, M=M_NODES,
                                   fit_abscissa="h") for spec in specs]

    def check(self, reports):
        ops, rel_errors = [], []
        for alpha, spec, report in zip(self.alphas, self.specs, reports):
            for row in report.rows:
                ops.append(Operation(f"alpha={alpha} h*={row.h_star:g} solve", not row.failed))
            for row in report.rows[1:]:
                ok = row.rate is not None and abs(row.rate - self.rate_target) <= self.rate_tol
                ops.append(Operation(f"alpha={alpha} h*={row.h_star:g} rate", ok,
                                     f"rate {row.rate} vs {self.rate_target}+/-{self.rate_tol}"))
            finest = report.rows[-1]
            if not finest.failed:
                rel_errors.append(finest.error / solution_scale(spec, self.t))
        spread = _cross_alpha_spread(reports)
        ops.append(Operation("cross-alpha spread", spread <= self.spread_max,
                             f"spread {spread:.4f} <= {self.spread_max}"))
        return ops, rel_errors


def _cross_alpha_spread(reports) -> float:
    """Largest deviation of one alpha's error from the cross-alpha mean, per mesh."""
    worst = 0.0
    for rows in zip(*(r.rows for r in reports)):
        if any(row.failed for row in rows):
            return math.inf
        errs = [row.error for row in rows]
        mean = sum(errs) / len(errs)
        worst = max(worst, max(abs(e - mean) / mean for e in errs))
    return worst


class ManufacturedSource:
    """Acceptance-5 study: example 1 with its source, quasiuniform and graded."""

    name = "manufactured_source"
    alpha = 0.5
    slope_windows = {1.0: (-0.80, -0.62), 1.5: (-1.05, -0.88)}

    def __init__(self, rng: random.Random, smoke: bool = False):
        self.hstars = [2 ** -k for k in ((2, 3, 4) if smoke else (3, 4, 5, 6))]
        self.t = rng.uniform(0.5, 2.0)
        self.specs = [sf.example1(self.alpha)]

    def run_pass(self, specs):
        return [sf.run_convergence(specs[0], gamma, self.hstars, t=self.t, M=M_NODES,
                                   fit_abscissa="N") for gamma in self.slope_windows]

    def check(self, reports):
        ops, rel_errors = [], []
        spec = self.specs[0]
        for (gamma, (lo, hi)), report in zip(self.slope_windows.items(), reports):
            for row in report.rows:
                ops.append(Operation(f"gamma={gamma} h*={row.h_star:g} solve", not row.failed))
            slope = report.fitted_slope_vs_N
            ops.append(Operation(f"gamma={gamma} slope", lo <= slope <= hi,
                                 f"slope {slope:.4f} in [{lo}, {hi}]"))
            finest = report.rows[-1]
            if not finest.failed:
                rel_errors.append(finest.error / solution_scale(spec, self.t))
        return ops, rel_errors


class TimeCurve:
    """Example 2 on one mesh at twelve log-uniform times in [0.01, 100]."""

    name = "time_curve"
    alpha, gamma, n_times = 0.5, 3.0, 12
    # Stability (acceptance 7) and an error bound fixed from the baseline:
    # sampled at 33 log-spaced times over the window, the relative error
    # peaks at 3.12e-4 for h*=2^-5 (4.73e-3 at the smoke size h*=2^-3, both
    # near t=0.42); the gate allows 1.5 times that peak.
    stability_slack = 1e-5

    def __init__(self, rng: random.Random, smoke: bool = False):
        self.hstar = 2 ** -3 if smoke else 2 ** -5
        self.rel_error_max = 7.1e-3 if smoke else 4.7e-4
        self.times = sorted(10 ** rng.uniform(-2.0, 2.0) for _ in range(self.n_times))
        self.specs = [sf.example2(self.alpha)]
        self._u0h_norm = None

    def run_pass(self, specs):
        spec = specs[0]
        msh = sf.generate_sector_mesh(spec.beta, self.hstar, self.gamma)
        dofmap = sf.build_dofmap(msh, spec.bc_kind)
        mass = sf.assemble_mass(msh, dofmap)
        stiffness = sf.assemble_stiffness(msh, dofmap, spec.K)
        curve = []
        for t in self.times:
            try:
                U = sf.inverse_laplace_evolve(spec, msh, dofmap, mass, stiffness, t, M_NODES)
            except sf.SolverError as exc:
                curve.append((t, None, str(exc)))
                continue
            err = sf.l2_error(msh, dofmap, U, lambda x, y, t=t: spec.exact(x, y, t))
            curve.append((t, U, err))
        return msh, dofmap, mass, curve

    def check(self, result):
        msh, dofmap, mass, curve = result
        spec = self.specs[0]
        if self._u0h_norm is None:
            u0h = sf.l2_project(msh, dofmap, spec.u0)
            self._u0h_norm = _mass_norm(mass, u0h)
        ops, rel_errors = [], []
        for t, U, err in curve:
            if U is None:
                ops.append(Operation(f"t={t:.4g} solve", False, err))
                continue
            norm = _mass_norm(mass, U)
            stable = norm <= self._u0h_norm + self.stability_slack
            ops.append(Operation(f"t={t:.4g} stability", stable,
                                 f"||U||={norm:.6f} <= ||u0h||={self._u0h_norm:.6f}+1e-5"))
            rel = err / solution_scale(spec, t)
            ops.append(Operation(f"t={t:.4g} error", rel <= self.rel_error_max,
                                 f"relative error {rel:.3e} <= {self.rel_error_max:.1e}"))
            rel_errors.append(rel)
        return ops, rel_errors


def _mass_norm(mass, v) -> float:
    return float(np.sqrt(v @ (mass @ v)))


WORKLOADS = {cls.name: cls for cls in (MixedDecay, ManufacturedSource, TimeCurve)}


def make(name: str, seed: int, smoke: bool = False):
    """Build workload ``name`` with its target times drawn from ``seed``."""
    return WORKLOADS[name](random.Random(seed), smoke)
