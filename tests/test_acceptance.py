"""Acceptance suite: one test per numbered criterion, printing a PASS line.

Criteria:
  1. Mittag-Leffler identities against exp and erfc closed forms.
  2. Scalar inverse-Laplace transform pairs.
  3. Contour quadrature decay rate in the node half-count M.
  4. Elliptic convergence rates (quasiuniform and threshold-graded).
  5. Time-dependent manufactured-solution slopes versus dof count.
  6. Mixed-condition eigenfunction decay: rates, magnitudes, alpha spread.
  7. L2 stability of the evolved solution.
  8. Mesh grading audit across the parameter grid plus a negative control.
"""

import math

import numpy as np
import pytest

import sectorfem as sf
from sectorfem import fem
from sectorfem.contour import inverse_laplace_evolve, laplace_invert_scalar
from conftest import mass_norm

BETA = 2.0 / 3.0

# Reference L2 errors for the mixed-condition decay problem at t=1, gamma=3,
# h* = 2^-4, 2^-5, 2^-6; magnitudes must match within a factor of 3 (exact
# values depend on the mesh family, rates are the hard contract).
REFERENCE_ERRORS = {
    0.25: [1.465e-3, 3.673e-4, 9.471e-5],
    0.5: [1.485e-3, 3.723e-4, 9.597e-5],
    0.75: [1.452e-3, 3.640e-4, 9.380e-5],
}


def test_criterion_1_mittag_leffler_identities():
    worst_exp = max(abs(sf.mittag_leffler_neg(1.0, x) - math.exp(-x))
                    for x in np.arange(0.0, 10.5, 0.5))
    worst_erfc = max(abs(sf.mittag_leffler_neg(0.5, x) - math.exp(x * x) * math.erfc(x))
                     for x in np.arange(0.0, 5.5, 0.5))
    assert worst_exp <= 1e-10
    assert worst_erfc <= 1e-8
    print(f"\nACCEPTANCE 1: ML identities, |E_1-exp| <= {worst_exp:.2e} (tol 1e-10), "
          f"|E_1/2-erfc| <= {worst_erfc:.2e} (tol 1e-8)  PASS")


def test_criterion_2_scalar_inverse_laplace_oracle():
    worst_exp = abs(laplace_invert_scalar(lambda z: 1.0 / (z + 1.0), 1.0, 8)
                    - math.exp(-1.0))
    assert worst_exp <= 1e-6
    worst_ml = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for t in (0.5, 1.0, 2.0):
            got = laplace_invert_scalar(
                lambda z: z ** (alpha - 1.0) / (z ** alpha + 1.0), t, 8)
            worst_ml = max(worst_ml, abs(got - sf.mittag_leffler_neg(alpha, t ** alpha)))
    assert worst_ml <= 1e-6
    print(f"\nACCEPTANCE 2: scalar transforms, exp pair err {worst_exp:.2e}, "
          f"ML pairs err <= {worst_ml:.2e} (tol 1e-6)  PASS")


@pytest.fixture(scope="module")
def example2_system(assembled_cache):
    spec = sf.example2(0.5)
    return (spec,) + assembled_cache(2 ** -4, 3.0, fem.MIXED, spec.K)


def test_criterion_3_quadrature_decay(example2_system):
    spec, msh, dm, M, S = example2_system
    U = {m: inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, m)
         for m in (4, 6, 8, 10, 12, 32)}
    errs = [mass_norm(M, U[m] - U[32]) for m in (4, 6, 8, 10, 12)]
    slope = float(np.polyfit([4, 6, 8, 10, 12], np.log10(errs), 1)[0])
    assert -1.3 <= slope <= -0.7
    print(f"\nACCEPTANCE 3: quadrature decay slope {slope:.4f} per unit M "
          f"(target -1.0 +/- 0.3)  PASS")


def test_criterion_4_elliptic_rates():
    ell = sf.elliptic_singular()
    hs = [2 ** -3, 2 ** -4, 2 ** -5, 2 ** -6]
    results = {}
    for gamma in (1.0, 1.5):
        l2, h1 = [], []
        for h_star in hs:
            msh = sf.generate_sector_mesh(BETA, h_star, gamma)
            dm = sf.build_dofmap(msh, fem.DIRICHLET)
            S = fem.assemble_stiffness(msh, dm, ell.K)
            uh = fem.solve_real_spd(S, fem.assemble_load(msh, dm, ell.f))
            l2.append(sf.l2_error(msh, dm, uh, ell.exact))
            h1.append(sf.h1_seminorm_error(msh, dm, uh, ell.exact_grad))
        results[gamma] = ([math.log2(a / b) for a, b in zip(l2, l2[1:])],
                          [math.log2(a / b) for a, b in zip(h1, h1[1:])])

    l2_rates, h1_rates = results[1.0]
    # rates approach the predicted limits from above; the finest pair decides
    assert all(a >= b for a, b in zip(l2_rates, l2_rates[1:]))
    assert abs(l2_rates[-1] - 4.0 / 3.0) <= 0.15
    assert abs(h1_rates[-1] - 2.0 / 3.0) <= 0.15
    graded_l2, _ = results[1.5]
    assert all(r >= 1.8 for r in graded_l2)
    print(f"\nACCEPTANCE 4: elliptic gamma=1 L2 rate {l2_rates[-1]:.3f} "
          f"(target 1.333 +/- 0.15), H1 rate {h1_rates[-1]:.3f} (target 0.667 +/- 0.15); "
          f"gamma=3/2 L2 rates {['%.3f' % r for r in graded_l2]} (all >= 1.8)  PASS")


def test_criterion_5_manufactured_solution_slopes():
    spec = sf.example1(0.5)
    hs = [2 ** -3, 2 ** -4, 2 ** -5, 2 ** -6]
    slopes = {}
    for gamma in (1.0, 1.5):
        report = sf.run_convergence(spec, gamma, hs, t=1.0, M=8, fit_abscissa="N")
        assert all(not r.failed for r in report.rows)
        slopes[gamma] = report.fitted_slope_vs_N
    assert -0.80 <= slopes[1.0] <= -0.62
    assert -1.05 <= slopes[1.5] <= -0.88
    print(f"\nACCEPTANCE 5: error-vs-N slopes gamma=1: {slopes[1.0]:.4f} "
          f"(window [-0.80, -0.62], reference -0.7249); gamma=3/2: {slopes[1.5]:.4f} "
          f"(window [-1.05, -0.88], reference -0.9707)  PASS")


def test_criterion_6_mixed_decay_table():
    hs = [2 ** -4, 2 ** -5, 2 ** -6]
    errors = {}
    for alpha in (0.25, 0.5, 0.75):
        spec = sf.example2(alpha)
        report = sf.run_convergence(spec, 3.0, hs, t=1.0, M=8, fit_abscissa="h")
        errs = [r.error for r in report.rows]
        rates = [r.rate for r in report.rows if r.rate is not None]
        for rate in rates:
            assert abs(rate - 2.0) <= 0.15
        for err, ref in zip(errs, REFERENCE_ERRORS[alpha]):
            assert ref / 3.0 <= err <= 3.0 * ref
        errors[alpha] = (errs, rates)
    # spread measured as the largest deviation from the cross-alpha mean
    spreads = []
    for i in range(len(hs)):
        es = [errors[a][0][i] for a in (0.25, 0.5, 0.75)]
        mean = sum(es) / len(es)
        spreads.append(max(abs(e - mean) / mean for e in es))
    assert max(spreads) <= 0.10
    print("\nACCEPTANCE 6: mixed-condition decay at t=1, gamma=3:")
    for alpha in (0.25, 0.5, 0.75):
        errs, rates = errors[alpha]
        ratio = errs[0] / REFERENCE_ERRORS[alpha][0]
        print(f"  alpha={alpha}: rates {['%.3f' % r for r in rates]} "
              f"(target 2.0 +/- 0.15), h*=2^-4 error {errs[0]:.3e} "
              f"= {ratio:.2f}x reference (within 3x)")
    print(f"  cross-alpha spread {max(spreads):.3f} (<= 0.10)  PASS")


def test_criterion_7_stability(example2_system):
    spec, msh, dm, M, S = example2_system
    u0h = fem.l2_project(msh, dm, spec.u0)
    n0 = mass_norm(M, u0h)
    norms = {}
    for t in (0.1, 1.0, 5.0):
        U = inverse_laplace_evolve(spec, msh, dm, M, S, t, 8)
        norms[t] = mass_norm(M, U)
        assert norms[t] <= n0 + 1e-5
    pretty = ", ".join(f"t={t}: {v:.6f}" for t, v in norms.items())
    print(f"\nACCEPTANCE 7: ||U(t)|| <= ||u0h|| = {n0:.6f} + 1e-5 ({pretty})  PASS")


def test_criterion_8_grading_audit(mesh_cache):
    checked = 0
    for gamma in (1.0, 1.5, 3.0):
        for h_star in (2 ** -3, 2 ** -4, 2 ** -5, 2 ** -6, 2 ** -7):
            report = sf.verify_grading(mesh_cache(h_star, gamma))
            assert report.passed, (gamma, h_star, report.violations[:3])
            checked += 1
    from dataclasses import replace
    control = replace(mesh_cache(2 ** -5, 1.0), gamma=3.0)
    negative = sf.verify_grading(control)
    assert not negative.passed
    print(f"\nACCEPTANCE 8: grading audit passed on {checked} meshes "
          f"(beta=2/3, h*=2^-3..2^-7, gamma=1,3/2,3); uniform-mesh control "
          f"fails for gamma=3 with {len(negative.violations)} violations  PASS")
