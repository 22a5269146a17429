"""Error norms, refinement predictors, rate fitting and report output."""

import math
import re

import numpy as np
import pytest

import sectorfem as sf
from sectorfem import fem, harness
from sectorfem.mesh import EDGE_ARC, EDGE_THETA0, EDGE_THETA_MAX, Mesh
from conftest import conical_rule, failing_on_finest_mesh, traced_peak_mb

BETA = 2.0 / 3.0


def unit_right_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(verts, np.array([[0, 1, 2]]),
                ((0, 1, EDGE_THETA0), (1, 2, EDGE_ARC), (2, 0, EDGE_THETA_MAX)),
                BETA, 1.0, 0.5)


def test_l2_error_of_fe_function_against_itself(mesh_cache):
    msh = mesh_cache(2 ** -4, 1.5)
    vals = 0.3 + msh.vertices[:, 0] - 2.0 * msh.vertices[:, 1]

    def exact(x, y):
        return 0.3 + x - 2.0 * y

    assert sf.l2_error(msh, None, vals, exact) < 1e-14


def test_l2_error_constant_on_unit_triangle():
    msh = unit_right_triangle_mesh()
    err = sf.l2_error(msh, None, np.zeros(3), lambda x, y: np.ones_like(x))
    assert err == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_l2_error_requires_matching_size(mesh_cache):
    msh = mesh_cache(2 ** -3, 1.0)
    with pytest.raises(ValueError):
        sf.l2_error(msh, None, np.zeros(3), lambda x, y: x)


def test_l2_error_rejects_vertex_values_with_a_dofmap(mesh_cache):
    msh = mesh_cache(2 ** -3, 1.0)
    dm = sf.build_dofmap(msh, fem.DIRICHLET)
    # a (n_dofs, 2) array has the right length but not the shape of a coefficient vector
    for uh in (np.zeros(msh.n_vertices), np.zeros((dm.n_dofs, 2))):
        with pytest.raises(ValueError, match=re.escape(f"expected {dm.n_dofs} free-dof "
                                                       f"coefficients, got shape {uh.shape}")):
            sf.l2_error(msh, dm, uh, lambda x, y: x)


@pytest.mark.parametrize("spec, wrong", [
    (sf.example2(0.5), fem.DIRICHLET),
    (sf.example1(0.5), fem.MIXED),
    (sf.elliptic_singular(), fem.MIXED),
], ids=["example2", "example1", "elliptic"])
def test_solve_rejects_a_dofmap_for_another_boundary_condition(mesh_cache, spec, wrong):
    # example 2 on a Dirichlet dof map used to return 25 Dirichlet coefficients
    msh = mesh_cache(2 ** -2, 1.0)
    dm = sf.build_dofmap(msh, wrong)
    named = f"built for bc_kind '{wrong}', but the problem has bc_kind '{spec.bc_kind}'"
    with pytest.raises(ValueError, match=named):
        sf.solve_spec(spec, msh, dm)
    if not isinstance(spec, sf.EllipticSpec):
        M, S = fem.assemble_mass(msh, dm), fem.assemble_stiffness(msh, dm, spec.K)
        with pytest.raises(ValueError, match=named):
            sf.inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)


def test_l2_error_reports_nonfinite_exact(mesh_cache):
    msh = mesh_cache(2 ** -3, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        sf.l2_error(msh, None, np.zeros(msh.n_vertices), lambda x, y: x / (y - y))


def test_h1_error_names_a_nonfinite_gradient_point(mesh_cache):
    msh = mesh_cache(2 ** -3, 1.0)

    def grad(x, y):
        return np.zeros_like(x), np.where(x > 0.5, np.nan, 0.0)

    with pytest.raises(ValueError, match="exact gradient returned non-finite value at") as info:
        sf.h1_seminorm_error(msh, None, np.zeros(msh.n_vertices), grad)
    x, _ = map(float, re.search(r"at \((\S+), (\S+)\)", str(info.value)).groups())
    assert x > 0.5


def test_h1_error_zero_for_matching_gradient(mesh_cache):
    msh = mesh_cache(2 ** -4, 1.5)
    vals = 2.0 * msh.vertices[:, 0] + msh.vertices[:, 1]
    err = sf.h1_seminorm_error(msh, None, vals,
                               lambda x, y: (2.0 * np.ones_like(x), np.ones_like(y)))
    assert err < 1e-13


def test_error_integrals_match_einsum_reference(mesh_cache):
    ell = sf.elliptic_singular()
    msh = mesh_cache(2 ** -4, 3.0)
    dm = sf.build_dofmap(msh, fem.DIRICHLET)
    uh = ell.exact(*msh.vertices[dm.free].T) * 1.01
    values = dm.expand(uh)
    coords = msh.vertices[msh.triangles]
    areas, grads = fem.element_geometry(msh)
    guh = np.einsum("eb,ebd->ed", values[msh.triangles], grads)
    l2 = h1 = 0.0
    for ids, pts, w in fem.element_quad_points(msh):
        xq = np.einsum("qb,ebd->eqd", pts, coords[ids])
        uq = np.einsum("eb,qb->eq", values[msh.triangles][ids], pts)
        eq = ell.exact(xq[..., 0], xq[..., 1])
        l2 += np.einsum("e,eq,q->", areas[ids], (uq - eq) ** 2, w)
        gx, gy = ell.exact_grad(xq[..., 0], xq[..., 1])
        d2 = (guh[ids, None, 0] - gx) ** 2 + (guh[ids, None, 1] - gy) ** 2
        h1 += np.einsum("e,eq,q->", areas[ids], d2, w)
    assert sf.l2_error(msh, dm, uh, ell.exact) == pytest.approx(math.sqrt(l2), rel=1e-12)
    assert sf.h1_seminorm_error(msh, dm, uh, ell.exact_grad) == pytest.approx(math.sqrt(h1),
                                                                              rel=1e-12)


@pytest.mark.parametrize("block", [8, 64])
def test_integrate_does_not_depend_on_block_size(monkeypatch, mesh_cache, block):
    # A power-of-two block is a multiple of the row unroll of BLAS
    # matrix-vector kernels, so each element's quadrature sum is rounded as
    # in one call over the whole group.  (An odd block such as 7 moves some
    # of those sums by an ulp, and with them, now and then, the last digit
    # of the integral.)
    ell = sf.elliptic_singular()
    msh = mesh_cache(2 ** -4, 3.0)
    dm = sf.build_dofmap(msh, fem.DIRICHLET)
    uh = ell.exact(*msh.vertices[dm.free].T) * 1.01

    def norms():
        return (sf.l2_error(msh, dm, uh, ell.exact),
                sf.h1_seminorm_error(msh, dm, uh, ell.exact_grad))

    monkeypatch.setattr(fem, "_INTEGRATE_BLOCK", msh.n_triangles)
    whole = norms()
    monkeypatch.setattr(fem, "_INTEGRATE_BLOCK", block)
    assert norms() == whole


def test_l2_error_peak_memory(mesh_cache):
    # 3.6 MB measured at h*=2^-5, gamma=3 (12,187 triangles) with blocked
    # integration; 9.5 MB with (e, q) arrays for the whole mesh
    spec = sf.example2(0.5)
    msh = mesh_cache(2 ** -5, 3.0)
    dm = sf.build_dofmap(msh, spec.bc_kind)
    uh = np.ones(dm.n_dofs)
    peak = traced_peak_mb(lambda: sf.l2_error(msh, dm, uh, lambda x, y: spec.exact(x, y, 1.0)))
    assert peak <= 4.5


def test_l2_error_peak_memory_on_the_finest_mesh(mesh_cache):
    # 3.6 MB measured on the finest acceptance-6 mesh (48,450 triangles);
    # 5.5 MB with the element areas derived again at each call.  The bound
    # is the measured peak plus about 25%.
    spec = sf.example2(0.5)
    msh = mesh_cache(2 ** -6, 3.0)
    dm = sf.build_dofmap(msh, spec.bc_kind)
    uh = np.ones(dm.n_dofs)
    peak = traced_peak_mb(lambda: sf.l2_error(msh, dm, uh, lambda x, y: spec.exact(x, y, 1.0)))
    assert peak <= 4.5


def test_interpolation_rate_for_smooth_function(mesh_cache):
    def smooth(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    points = []
    for h_star in (2 ** -3, 2 ** -4, 2 ** -5):
        msh = mesh_cache(h_star, 1.0)
        err = sf.l2_error(msh, None, smooth(*msh.vertices.T), smooth)
        points.append((h_star, err))
    assert sf.fit_rate(points) == pytest.approx(2.0, abs=0.1)


def test_epsilon_branches():
    # gamma above the threshold 1/beta: constant times h
    assert sf.epsilon(0.01, 3.0, BETA) == pytest.approx(0.01 * math.sqrt(3.0), rel=1e-12)
    # at the threshold: logarithmic factor
    assert sf.epsilon(0.1, 1.5, BETA) == pytest.approx(0.1 * math.sqrt(math.log(11.0)), rel=1e-12)
    assert sf.epsilon(0.1, 1.5, BETA) == pytest.approx(0.154851, abs=1e-6)
    # below the threshold: reduced power h**(gamma*beta)
    got = sf.epsilon(0.1, 1.0, BETA)
    assert got == pytest.approx(0.1 ** BETA / math.sqrt(1.0 - BETA), rel=1e-12)


def test_epsilon_mix_branches():
    # threshold is 2/beta; at beta=2/3 gamma=3 selects the log branch
    assert sf.epsilon_mix(0.1, 3.0, BETA) == pytest.approx(0.1 * math.sqrt(math.log(11.0)), rel=1e-12)
    got = sf.epsilon_mix(0.1, 1.0, BETA)
    assert got == pytest.approx(0.1 ** (BETA / 2) / math.sqrt(1.0 - BETA / 2), rel=1e-12)
    assert sf.epsilon_mix(0.1, 4.0, BETA) == pytest.approx(0.1 / math.sqrt(BETA / 2 - 0.25), rel=1e-12)


def test_epsilon_validation():
    with pytest.raises(ValueError):
        sf.epsilon(1.5, 1.0, BETA)
    with pytest.raises(ValueError):
        sf.epsilon(0.1, 0.5, BETA)
    with pytest.raises(ValueError):
        sf.epsilon(0.1, 1.0, 0.3)
    # nan passed `gamma < 1`, and epsilon_mix(0.1, inf, 2/3) returned 0.173
    for fn in (sf.epsilon, sf.epsilon_mix):
        for gamma in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"gamma must be finite and >= 1, got {gamma}"):
                fn(0.1, gamma, BETA)


def test_fit_rate_exact_powers():
    xs = [0.1, 0.05, 0.025, 0.0125]
    assert sf.fit_rate([(x, x ** 2) for x in xs]) == pytest.approx(2.0, abs=1e-12)
    assert sf.fit_rate([(x, 7.3 * x ** (4 / 3)) for x in xs]) == pytest.approx(4 / 3, abs=1e-12)


def test_fit_rate_recovers_reference_slope():
    # synthetic data generated at the observed quasiuniform slope
    ns = [500, 2000, 8000, 32000]
    pts = [(n, 3.1 * n ** -0.7249) for n in ns]
    assert sf.fit_rate(pts) == pytest.approx(-0.7249, abs=1e-10)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        sf.fit_rate([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(ValueError):
        sf.fit_rate([(1.0, 1.0), (1.0, 0.5), (1.0, 0.25)])
    with pytest.raises(ValueError):
        sf.fit_rate([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])
    # a NaN error used to give a NaN slope
    for bad in ([(1.0, 1.0), (2.0, math.nan), (4.0, 0.1)],
                [(1.0, 1.0), (math.inf, 0.5), (4.0, 0.1)]):
        with pytest.raises(ValueError, match="rate fit needs positive abscissas and errors"):
            sf.fit_rate(bad)


def test_run_convergence_elliptic_report(tmp_path):
    ell = sf.elliptic_singular()
    hs = [2 ** -3, 2 ** -4, 2 ** -5]
    report = sf.run_convergence(ell, 1.0, hs, fit_abscissa="h")
    assert [r.h_star for r in report.rows] == hs
    assert all(not r.failed and r.error > 0 for r in report.rows)
    assert report.rows[0].rate is None
    assert report.rows[1].rate == pytest.approx(
        math.log2(report.rows[0].error / report.rows[1].error))
    assert report.fitted_slope == report.fitted_slope_vs_h
    assert report.predictor.startswith("L2~")

    out = tmp_path / "report.csv"
    sf.write_report_csv(report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "hstar,N,l2_error,rate"
    assert len(lines) == 1 + len(hs) + 1
    first = lines[1].split(",")
    assert float(first[0]) == hs[0] and int(first[1]) == report.rows[0].n_dofs
    assert first[3] == ""
    assert lines[-1].startswith("# fitted_slope=")
    assert "predictor=" in lines[-1]
    # 10 significant digits on errors
    assert len(first[2].replace(".", "").replace("-", "").lstrip("0")) >= 9


def test_failed_convergence_row_keeps_its_reason(monkeypatch):
    spec, hs = sf.example2(0.5), [2 ** -2, 2 ** -3]
    failing_on_finest_mesh(monkeypatch, spec, 1.0, hs)
    report = sf.run_convergence(spec, 1.0, hs)
    ok, failed = report.rows
    assert not ok.failed and ok.reason == ""
    assert failed.failed and math.isnan(failed.error)
    assert re.fullmatch(r"contour node j=0 \(z=[-+0-9.e]+\+0j\): "
                        r"relative residual 3\.000e-09 exceeds 1e-10", failed.reason)


def test_run_convergence_validates_inputs():
    ell = sf.elliptic_singular()
    with pytest.raises(ValueError):
        sf.run_convergence(ell, 1.0, [0.125, 0.125])
    with pytest.raises(ValueError):
        sf.run_convergence(ell, 1.0, [0.125, 0.25])
    with pytest.raises(ValueError):
        sf.run_convergence(ell, 1.0, [0.25, 0.125], fit_abscissa="x")
    with pytest.raises(ValueError, match="hstar_list must not be empty"):
        sf.run_convergence(ell, 1.0, [])


def test_quadrature_sufficiency_on_convergence_row(monkeypatch, assembled_cache):
    # measured error must be discretization-dominated: a degree-9 rule in
    # place of the degree-4 one changes it by well under 1%
    spec = sf.example1(0.5)
    msh, dm, M, S = assembled_cache(2 ** -4, 1.5, fem.DIRICHLET, spec.K)
    U = sf.inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    e4 = sf.l2_error(msh, dm, U, lambda x, y: spec.exact(x, y, 1.0))
    monkeypatch.setattr(fem, "_RULE", conical_rule(5))
    e9 = sf.l2_error(msh, dm, U, lambda x, y: spec.exact(x, y, 1.0))
    assert abs(e9 - e4) / e4 < 0.01


def test_error_norm_rule_is_converged_on_the_graded_mixed_mesh(monkeypatch, assembled_cache):
    # the rate study of Example 2 on gamma=3 meshes reads errors near 1e-4:
    # a degree-9 rule moves them by 3.4e-6 relative here
    spec = sf.example2(0.5)
    msh, dm, M, S = assembled_cache(2 ** -5, 3.0, fem.MIXED, spec.K)
    U = sf.inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    e4 = sf.l2_error(msh, dm, U, lambda x, y: spec.exact(x, y, 1.0))
    monkeypatch.setattr(fem, "_RULE", conical_rule(5))
    e9 = sf.l2_error(msh, dm, U, lambda x, y: spec.exact(x, y, 1.0))
    assert abs(e9 - e4) / e9 < 1e-4


def test_time_uniformity_for_smooth_data(assembled_cache):
    spec = sf.example2(0.5)
    msh, dm, M, S = assembled_cache(2 ** -5, 3.0, fem.MIXED, spec.K)
    errs = []
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        U = sf.inverse_laplace_evolve(spec, msh, dm, M, S, t, 8)
        errs.append(sf.l2_error(msh, dm, U, lambda x, y: spec.exact(x, y, t)))
    assert max(errs) / min(errs) < 5.0


def test_predictor_labels():
    ell = sf.elliptic_singular()
    assert "log" in harness._predictor_label(ell, 1.5)
    assert harness._predictor_label(ell, 1.0) == "L2~h^1.333"
    spec2 = sf.example2(0.5)
    assert "log" in harness._predictor_label(spec2, 3.0)
