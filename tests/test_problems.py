"""Benchmark problem definitions: normalization, fields and derived sources."""

import dataclasses
import math

import numpy as np
import pytest

import sectorfem as sf
from sectorfem import fem, problems
from conftest import smallest_eigenpairs

BETA = 2.0 / 3.0


def interior_samples(n=100, seed=3, r_min=0.1):
    rng = np.random.default_rng(seed)
    r = rng.uniform(r_min, 0.95, n)
    theta = rng.uniform(0.05, math.pi / BETA - 0.05, n)
    return r * np.cos(theta), r * np.sin(theta)


def test_normalize_K_values():
    assert sf.normalize_K(BETA, fem.MIXED) == pytest.approx(1 / 2.902586248417 ** 2, rel=1e-10)
    assert sf.normalize_K(BETA, fem.DIRICHLET) == pytest.approx(1 / 3.375610652694 ** 2, rel=1e-10)
    assert sf.normalize_K(BETA, fem.MIXED) == pytest.approx(0.1186942644, abs=1e-9)
    with pytest.raises(ValueError):
        sf.normalize_K(BETA, "neumann")


def test_normalized_eigenvalue_is_one_on_graded_mesh(assembled_cache):
    spec = sf.example2(0.5)
    msh, dm, M, S = assembled_cache(2 ** -5, 3.0, fem.MIXED, spec.K)
    lam, _ = smallest_eigenpairs(S, M, k=1)
    assert lam[0] == pytest.approx(1.0, abs=5e-3)


def test_example1_initial_data_and_time_factor():
    spec = sf.example1(0.5)
    x, y = interior_samples()
    np.testing.assert_allclose(spec.exact(x, y, 0.0), spec.u0(x, y), atol=1e-14)
    factor = spec.exact(x, y, 1.0) / spec.u0(x, y)
    np.testing.assert_allclose(factor, 1.0 + 2.0 / math.sqrt(math.pi), atol=1e-12)


def test_example1_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            sf.example1(alpha)
        with pytest.raises(ValueError):
            sf.example2(alpha)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
def test_problem_spec_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        dataclasses.replace(sf.example1(0.5), alpha=alpha)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, math.nan])
def test_problem_spec_rejects_beta_outside_half_to_one(beta):
    with pytest.raises(ValueError, match=r"beta must lie in \(1/2, 1\)"):
        dataclasses.replace(sf.example2(0.5), beta=beta)


@pytest.mark.parametrize("K", [0.0, -1.0, math.inf, math.nan])
def test_problem_spec_rejects_nonpositive_or_nonfinite_K(K):
    # K is derived from beta and bc_kind, so no value of it, good or bad, can be set
    for spec in (sf.example1(0.5), sf.example2(0.5), sf.elliptic_singular()):
        assert spec.K == sf.normalize_K(spec.beta, spec.bc_kind)
        with pytest.raises(ValueError, match="K is declared with init=False"):
            dataclasses.replace(spec, K=K)


def test_a_replaced_beta_recomputes_K():
    spec = sf.example2(0.5)
    other = dataclasses.replace(spec, beta=0.75)
    assert other.K == sf.normalize_K(0.75, fem.MIXED) != spec.K


def test_problem_spec_rejects_unknown_bc_kind():
    with pytest.raises(ValueError, match="unknown bc_kind 'neumann'"):
        dataclasses.replace(sf.example2(0.5), bc_kind="neumann")


def test_problem_spec_rejects_non_callable_source():
    with pytest.raises(ValueError, match="fhat must be None or callable"):
        dataclasses.replace(sf.example2(0.5), fhat=1.0)


@pytest.mark.parametrize("term, shown", [
    ((2.0, np.sin), "(2.0, "),
    (np.sin, "<ufunc 'sin'>"),
    ((np.sin,), "(<ufunc 'sin'>,)"),
    ((np.sin, np.cos, np.tan), "(<ufunc 'sin'>, <ufunc 'cos'>, <ufunc 'tan'>)"),
], ids=["number_coefficient", "bare_callable", "single", "triple"])
def test_separable_source_rejects_a_term_that_is_not_a_pair_of_callables(term, shown):
    # such a term used to build, and the evolve then died on it with a
    # TypeError naming no term
    g = sf.example1(0.5).u0
    with pytest.raises(ValueError, match=r"SeparableSource term 1 must be a pair "
                                         r"\(c_k, f_k\) of callables, got ") as exc:
        sf.SeparableSource(((lambda z: 1.0 / z, g), term))
    assert shown in str(exc.value)


def test_example1_exact_vanishes_on_boundary():
    spec = sf.example1(0.5)
    theta_max = math.pi / BETA
    r = np.linspace(0.01, 0.99, 25)
    assert np.max(np.abs(spec.u0(r, np.zeros_like(r)))) < 1e-14
    assert np.max(np.abs(spec.u0(r * math.cos(theta_max), r * math.sin(theta_max)))) < 1e-12
    ang = np.linspace(0.01, theta_max - 0.01, 25)
    assert np.max(np.abs(spec.u0(np.cos(ang), np.sin(ang)))) < 1e-13


def test_example1_source_matches_finite_difference_laplacian():
    # -K * Laplace(u0) must equal the closed-form singular source away from
    # the corner; second-order central differences, step 1e-4
    spec = sf.example1(0.5)
    K = spec.K
    x, y = interior_samples(100, seed=11, r_min=0.1)
    h = 1e-4
    lap = (spec.u0(x + h, y) + spec.u0(x - h, y) + spec.u0(x, y + h)
           + spec.u0(x, y - h) - 4.0 * spec.u0(x, y)) / h ** 2
    r = np.hypot(x, y)
    theta = np.arctan2(y, x) % (2 * math.pi)
    expected = K * (2 * BETA + 1) * r ** (BETA - 1.0) * np.sin(BETA * theta)
    np.testing.assert_allclose(-K * lap, expected, rtol=1e-5)


def test_example1_laplace_domain_identity():
    # z*uhat + z**(1-alpha) * A uhat == u0 + fhat(z) pointwise, with
    # uhat = (1/z + z**(-alpha-1)) u0 the transform of the exact solution
    alpha = 0.5
    spec = sf.example1(alpha)
    z = 2.0 + 3.0j
    x, y = interior_samples(60, seed=5)
    g = spec.u0(x, y)
    r = np.hypot(x, y)
    theta = np.arctan2(y, x) % (2 * math.pi)
    Ag = spec.K * (2 * BETA + 1) * r ** (BETA - 1.0) * np.sin(BETA * theta)
    uhat_g = (1.0 / z + z ** (-alpha - 1.0))
    lhs = z * uhat_g * g + z ** (1.0 - alpha) * uhat_g * Ag
    rhs = g + spec.fhat(z)(x, y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_example1_source_field_matches_its_two_parts():
    spec = sf.example1(0.5)
    g = problems._singular_part(BETA)
    Ag = problems._singular_part_laplacian(BETA, spec.K)
    x, y = interior_samples(400, seed=17, r_min=1e-4)
    x, y = x.reshape(20, 20), y.reshape(20, 20)
    for z in (2.0 + 3.0j, 35.9, 10.0 - 40.0j):
        za, z2a = z ** -0.5, z ** -1.0
        got = spec.fhat(z)(x, y)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, za * g(x, y) + (za + z2a) * Ag(x, y), rtol=1e-14)


def test_example2_initial_data_boundary_values():
    spec = sf.example2(0.5)
    r = np.linspace(0.0, 1.0, 30)
    assert np.max(np.abs(spec.u0(r, np.zeros_like(r)))) < 1e-14
    ang = np.linspace(0.0, math.pi / BETA, 30)
    assert np.max(np.abs(spec.u0(np.cos(ang), np.sin(ang)))) < 1e-12


def test_example2_neumann_edge_value():
    spec = sf.example2(0.5)
    theta_max = math.pi / BETA
    w = sf.first_bessel_zero(BETA / 2)
    got = spec.u0(0.5 * math.cos(theta_max), 0.5 * math.sin(theta_max))
    assert got == pytest.approx(sf.bessel_j(BETA / 2, w / 2), abs=1e-12)


def test_example2_exact_decay_factor():
    spec = sf.example2(0.5)
    x, y = interior_samples(40, seed=9)
    factor = spec.exact(x, y, 1.0) / spec.u0(x, y)
    np.testing.assert_allclose(factor, 0.4275835761, atol=1e-9)
    np.testing.assert_allclose(spec.exact(x, y, 0.0), spec.u0(x, y), atol=1e-14)
    assert spec.fhat is None


def test_example2_rayleigh_quotient_approaches_one(assembled_cache):
    spec = sf.example2(0.5)
    defects = []
    for h_star in (2 ** -3, 2 ** -4, 2 ** -5):
        msh, dm, M, S = assembled_cache(h_star, 3.0, fem.MIXED, spec.K)
        u0h = fem.l2_project(msh, dm, spec.u0)
        rq = (u0h @ (S @ u0h)) / (u0h @ (M @ u0h))
        defects.append(abs(rq - 1.0))
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] < 5e-3


def test_projection_consistent_with_nodal_values(assembled_cache):
    # away from the corner the L2 projection agrees with vertex samples to O(h^2)
    spec = sf.example2(0.5)
    for h_star in (2 ** -4, 2 ** -5):
        msh, dm, M, S = assembled_cache(h_star, 1.0, fem.MIXED, spec.K)
        u0h = fem.l2_project(msh, dm, spec.u0)
        vals = dm.expand(u0h)
        r = np.hypot(*msh.vertices.T)
        sel = dm.free & (r > 0.3)
        dev = np.max(np.abs(vals[sel] - spec.u0(*msh.vertices[sel].T)))
        assert dev <= 1.0 * h_star ** 2


def test_elliptic_singular_source_norm_closed_form(mesh_cache):
    ell = sf.elliptic_singular()
    closed = ell.K ** 2 * (2 * BETA + 1) ** 2 * (math.pi / (2 * BETA)) * (1 / (2 * BETA))
    msh = mesh_cache(2 ** -5, 3.0)
    quad = sf.l2_error(msh, None, np.zeros(msh.n_vertices), ell.f) ** 2
    assert quad == pytest.approx(closed, rel=1e-3)


def test_elliptic_singular_boundary_and_gradient():
    ell = sf.elliptic_singular()
    r = np.linspace(0.01, 0.99, 20)
    assert np.max(np.abs(ell.exact(r, np.zeros_like(r)))) < 1e-14
    ang = np.linspace(0.01, math.pi / BETA - 0.01, 20)
    assert np.max(np.abs(ell.exact(np.cos(ang), np.sin(ang)))) < 1e-13
    # gradient against central differences away from the corner
    x, y = interior_samples(50, seed=13, r_min=0.2)
    h = 1e-6
    gx_fd = (ell.exact(x + h, y) - ell.exact(x - h, y)) / (2 * h)
    gy_fd = (ell.exact(x, y + h) - ell.exact(x, y - h)) / (2 * h)
    gx, gy = ell.exact_grad(x, y)
    np.testing.assert_allclose(gx, gx_fd, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(gy, gy_fd, rtol=1e-6, atol=1e-8)


def test_elliptic_spec_is_always_dirichlet():
    # bc_kind is a class constant, not a field, so no elliptic spec can differ
    ell = sf.elliptic_singular()
    assert ell.bc_kind == fem.DIRICHLET
    assert "bc_kind" not in {f.name for f in dataclasses.fields(ell)}
    with pytest.raises(TypeError):
        dataclasses.replace(ell, bc_kind=fem.MIXED)
