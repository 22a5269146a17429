"""Contour construction, node solves and the folded quadrature sum."""

import math
from dataclasses import replace

import numpy as np
import pytest

import sectorfem as sf
from sectorfem import fem
from sectorfem.contour import (DELTA, fold_terms, inverse_laplace_evolve,
                               laplace_invert_scalar, make_contour, uhat_solve)
from conftest import mass_norm


def test_contour_constants_m8_t1():
    params = make_contour(8, 1.0)
    assert params.mu == pytest.approx(35.93660224, abs=1e-8)
    assert params.dxi == pytest.approx(0.1352240175, abs=1e-10)
    assert params.nodes.shape == (9,)


def test_contour_vertex_node_real_positive():
    params = make_contour(8, 1.0)
    assert params.nodes[0].imag == 0.0
    assert params.nodes[0].real > 0.0


def test_contour_mu_scales_inversely_with_time():
    assert make_contour(8, 2.0).mu == pytest.approx(make_contour(8, 1.0).mu / 2)


def test_contour_nodes_avoid_negative_axis():
    params = make_contour(16, 0.5)
    assert np.all(np.abs(np.angle(params.nodes)) < math.pi)
    # real part decreases monotonically away from the vertex
    assert np.all(np.diff(params.nodes.real) < 0)


def test_contour_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_contour(1, 1.0)
    with pytest.raises(ValueError):
        make_contour(8, 0.0)
    with pytest.raises(ValueError):
        make_contour(8, -2.0)


def test_scalar_exponential_pair():
    got = laplace_invert_scalar(lambda z: 1.0 / (z + 1.0), 1.0, 8)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_folded_sum_matches_full_sum_scalar():
    # rebuild the full 2M+1 node set and compare against the folded form
    M, t = 8, 0.7

    def fhat(z):
        return 1.0 / (z + 1.0)

    params = make_contour(M, t)
    folded = laplace_invert_scalar(fhat, t, M)
    total = 0.0 + 0.0j
    for j in range(-M, M + 1):
        w = DELTA - 1j * params.dxi * j
        z = params.mu * (1.0 - np.sin(w))
        dz = 1j * params.mu * np.cos(w)
        total += np.exp(z * t) * fhat(z) * dz
    total *= params.dxi / (2j * math.pi)
    assert abs(total.imag) < 1e-13
    assert folded == pytest.approx(total.real, abs=1e-13)


@pytest.fixture(scope="module")
def mixed_system(assembled_cache):
    spec = sf.example2(0.5)
    msh, dm, M, S = assembled_cache(2 ** -4, 3.0, fem.MIXED, spec.K)
    return spec, msh, dm, M, S


def test_uhat_eigenvector_identity(mixed_system):
    spec, msh, dm, M, S = mixed_system
    lam, vecs = fem.smallest_eigenpairs(S, M, k=1)
    phi = vecs[:, 0]
    z = make_contour(8, 1.0).nodes[3]
    got = uhat_solve(z, spec.alpha, M, S, phi)
    expect = z ** (spec.alpha - 1.0) / (z ** spec.alpha + lam[0]) * phi
    assert np.max(np.abs(got - expect)) < 1e-8


def test_uhat_real_node_real_data(mixed_system):
    spec, msh, dm, M, S = mixed_system
    u0h = fem.l2_project(msh, dm, spec.u0)
    got = uhat_solve(5.0, spec.alpha, M, S, u0h)
    assert np.max(np.abs(got.imag)) < 1e-12


def test_uhat_residuals_on_all_nodes(mixed_system):
    spec, msh, dm, M, S = mixed_system
    u0h = fem.l2_project(msh, dm, spec.u0)
    params = make_contour(8, 1.0)
    for z in params.nodes:
        uhat = uhat_solve(z, spec.alpha, M, S, u0h)
        A = z ** spec.alpha * M + S
        rhs = z ** (spec.alpha - 1.0) * (M @ u0h.astype(complex))
        res = np.linalg.norm(A @ uhat - rhs) / np.linalg.norm(rhs)
        assert res <= 1e-10


def test_evolve_eigenvector_decays_by_mittag_leffler(mixed_system):
    spec, msh, dm, M, S = mixed_system
    lam, vecs = fem.smallest_eigenpairs(S, M, k=1)
    phi = vecs[:, 0]
    t = 1.0
    params = make_contour(8, t)
    terms = np.empty((9, dm.n_dofs), dtype=complex)
    for j, (z, dz) in enumerate(zip(params.nodes, params.dnodes)):
        terms[j] = np.exp(z * t) * uhat_solve(z, spec.alpha, M, S, phi) * dz
    got = fold_terms(params, terms)
    expect = sf.mittag_leffler_neg(spec.alpha, lam[0] * t ** spec.alpha) * phi
    assert np.max(np.abs(got - expect)) < 1e-6


def test_evolve_matches_exact_solution(mixed_system):
    spec, msh, dm, M, S = mixed_system
    U = inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    err = sf.l2_error(msh, dm, U, lambda x, y: spec.exact(x, y, 1.0))
    assert err < 1e-3


def test_evolve_performs_exactly_m_plus_one_complex_solves(monkeypatch, mixed_system):
    spec, msh, dm, M, S = mixed_system
    calls = []
    original = fem.solve_complex_symmetric

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(fem, "solve_complex_symmetric", counted)
    inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    assert len(calls) == 9


@pytest.fixture(scope="module")
def source_system(assembled_cache):
    spec = sf.example1(0.5)
    msh, dm, M, S = assembled_cache(2 ** -3, 1.5, fem.DIRICHLET, spec.K)
    return spec, msh, dm, M, S


def test_evolve_reports_nonfinite_source_at_one_node(source_system):
    spec, msh, dm, M, S = source_system
    calls = []

    def fhat(z):
        calls.append(z)
        field = spec.fhat(z)
        if len(calls) < 4:
            return field
        return lambda x, y: np.where(x > 0.5, np.nan, field(x, y))

    with pytest.raises(ValueError, match=r"non-finite value at \(0\.[5-9]"):
        inverse_laplace_evolve(replace(spec, fhat=fhat), msh, dm, M, S, 1.0, 8)
    assert len(calls) == 4


@pytest.mark.parametrize("m", [4, 8, 16])
def test_evolve_builds_each_quadrature_once(monkeypatch, source_system, m):
    # one quadrature shared by the u0 load vector and the source, whatever M
    spec, msh, dm, M, S = source_system
    calls = []
    original = fem.element_quad_points

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fem, "element_quad_points", counted)
    inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, m)
    assert len(calls) == 1


@pytest.mark.parametrize("system", ["mixed_system", "source_system"])
def test_evolve_uses_u0_load_vector_without_projection(monkeypatch, request, system):
    spec, msh, dm, M, S = request.getfixturevalue(system)
    calls = []

    def counting(name):
        original = getattr(fem, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    for name in ("l2_project", "assemble_mass"):
        monkeypatch.setattr(fem, name, counting(name))
    inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    assert calls == []


@pytest.mark.parametrize("system", ["mixed_system", "source_system"])
def test_evolve_matches_projection_reference(request, system):
    # the pipeline before the u0 load vector: project u0, solve each node
    # from M u0h, fold
    spec, msh, dm, M, S = request.getfixturevalue(system)
    t = 0.7
    u0h = fem.l2_project(msh, dm, spec.u0)
    fhat_load = None
    if spec.fhat is not None:
        def fhat_load(z):
            return fem.assemble_load(msh, dm, spec.fhat(z))
    params = make_contour(8, t)
    terms = np.array([np.exp(z * t) * uhat_solve(z, spec.alpha, M, S, u0h, fhat_load) * dz
                      for z, dz in zip(params.nodes, params.dnodes)])
    ref = fold_terms(params, terms)
    got = inverse_laplace_evolve(spec, msh, dm, M, S, t, 8)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_evolve_doubling_m_contracts_difference(mixed_system):
    spec, msh, dm, M, S = mixed_system
    U4 = inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 4)
    U8 = inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    U16 = inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 16)
    assert np.linalg.norm(U8 - U4) >= 1e3 * np.linalg.norm(U16 - U8)


def test_evolve_stability_in_l2(mixed_system):
    spec, msh, dm, M, S = mixed_system
    u0h = fem.l2_project(msh, dm, spec.u0)
    n0 = mass_norm(M, u0h)
    for t in (0.1, 1.0, 5.0):
        U = inverse_laplace_evolve(spec, msh, dm, M, S, t, 8)
        assert mass_norm(M, U) <= n0 + 1e-5


def test_evolve_quadrature_decay_rate(mixed_system):
    spec, msh, dm, M, S = mixed_system
    U = {m: inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, m)
         for m in (4, 6, 8, 10, 12, 32)}
    errs = [mass_norm(M, U[m] - U[32]) for m in (4, 6, 8, 10, 12)]
    slope = np.polyfit([4, 6, 8, 10, 12], np.log10(errs), 1)[0]
    assert -1.3 <= slope <= -0.7
