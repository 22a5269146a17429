"""Contour construction, node solves and the folded quadrature sum."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sectorfem as sf
from sectorfem import contour, fem
from sectorfem.contour import (DELTA, fold_terms, inverse_laplace_evolve, laplace_invert_scalar,
                               make_contour)
from conftest import mass_norm, smallest_eigenpairs, traced_peak_mb


def node_solve(z, alpha, M, S, b):
    """Solve the node equation (z^alpha M + S) uhat = z^(alpha-1) b."""
    z = complex(z)
    return fem.solve_complex_symmetric(z ** alpha, M, S, z ** (alpha - 1.0) * b)


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
    for M in (1, 2.5, 33, 100, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"node half-count M .* in \[2, 32\], got {M}"):
            make_contour(M, 1.0)
    with pytest.raises(ValueError):
        make_contour(8, 0.0)
    with pytest.raises(ValueError):
        make_contour(8, -2.0)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            make_contour(8, t)
    with pytest.raises(ValueError, match="positive and finite"):
        laplace_invert_scalar(lambda z: 1.0 / (z + 1.0), math.inf)


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


@pytest.mark.parametrize("fhat", [
    lambda z: 1.0 / (z + 1.0),
    lambda z: z ** -0.5 / (z ** 0.5 + 1.0),
    lambda z: z ** -0.9 / (z ** 0.1 + 3.0),
], ids=["exp", "ml_half", "ml_tenth"])
@settings(max_examples=40, deadline=None)
@given(M=st.integers(2, 24), t=st.floats(1e-3, 1e3))
def test_folded_sum_matches_full_sum(fhat, M, t):
    params = make_contour(M, t)
    w = DELTA - 1j * params.dxi * np.arange(-M, M + 1)
    z = params.mu * (1.0 - np.sin(w))
    terms = np.array([np.exp(zj * t) * fhat(zj) for zj in z]) * 1j * params.mu * np.cos(w)
    full = math.fsum(terms.imag) * params.dxi / (2.0 * math.pi)
    scale = max(1.0, np.abs(terms).sum() * params.dxi / (2.0 * math.pi))
    assert abs(math.fsum(terms.real)) * params.dxi / (2.0 * math.pi) <= 1e-13 * scale
    assert abs(laplace_invert_scalar(fhat, t, M) - full) <= 1e-13 * scale


@pytest.fixture(scope="module")
def mixed_system(assembled_cache):
    spec = sf.example2(0.5)
    msh, dm, M, S = assembled_cache(2 ** -4, 3.0, fem.MIXED, spec.K)
    return spec, msh, dm, M, S


def test_uhat_eigenvector_identity(mixed_system):
    spec, msh, dm, M, S = mixed_system
    lam, vecs = smallest_eigenpairs(S, M, k=1)
    phi = vecs[:, 0]
    z = make_contour(8, 1.0).nodes[3]
    got = node_solve(z, spec.alpha, M, S, M @ phi)
    expect = z ** (spec.alpha - 1.0) / (z ** spec.alpha + lam[0]) * phi
    assert np.max(np.abs(got - expect)) < 1e-8


def test_uhat_real_node_real_data(mixed_system):
    spec, msh, dm, M, S = mixed_system
    u0h = fem.l2_project(msh, dm, spec.u0)
    got = node_solve(5.0, spec.alpha, M, S, M @ u0h)
    assert np.max(np.abs(got.imag)) < 1e-12


def test_uhat_residuals_on_all_nodes(mixed_system):
    # alpha near 0 and near 1, and times from 0.01 to 100, for Example 2,
    # whose u0 does not depend on alpha
    spec, msh, dm, M, S = mixed_system
    u0h = fem.l2_project(msh, dm, spec.u0)
    for alpha in (0.05, 0.5, 0.95):
        for t in (0.01, 1.0, 100.0):
            for z in make_contour(8, t).nodes:
                uhat = node_solve(z, alpha, M, S, M @ u0h)
                A = z ** alpha * M + S
                rhs = z ** (alpha - 1.0) * (M @ u0h.astype(complex))
                res = np.linalg.norm(A @ uhat - rhs) / np.linalg.norm(rhs)
                assert res <= 1e-10, (alpha, t, z)


def test_evolve_eigenvector_decays_by_mittag_leffler(mixed_system):
    spec, msh, dm, M, S = mixed_system
    lam, vecs = smallest_eigenpairs(S, M, k=1)
    phi = vecs[:, 0]
    t = 1.0
    params = make_contour(8, t)
    terms = np.empty((9, dm.n_dofs), dtype=complex)
    for j, (z, dz) in enumerate(zip(params.nodes, params.dnodes)):
        terms[j] = np.exp(z * t) * node_solve(z, spec.alpha, M, S, M @ phi) * dz
    got = fold_terms(params, terms)
    expect = sf.mittag_leffler_neg(spec.alpha, lam[0] * t ** spec.alpha) * phi
    assert np.max(np.abs(got - expect)) < 1e-6


def test_evolve_matches_exact_solution(mixed_system):
    spec, msh, dm, M, S = mixed_system
    U = inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    err = sf.l2_error(msh, dm, U, lambda x, y: spec.exact(x, y, 1.0))
    assert err < 1e-3


@pytest.fixture(scope="module")
def source_system(assembled_cache):
    spec = sf.example1(0.5)
    msh, dm, M, S = assembled_cache(2 ** -3, 1.5, fem.DIRICHLET, spec.K)
    return spec, msh, dm, M, S


@pytest.fixture(scope="module")
def plain_source_system(source_system):
    # Example 1 with its separable source hidden behind a plain callable
    spec, *rest = source_system
    return (replace(spec, fhat=lambda z: spec.fhat(z)), *rest)


def test_evolve_performs_exactly_m_plus_one_complex_solves(monkeypatch, mixed_system,
                                                           source_system, plain_source_system):
    calls = []
    original = fem.solve_complex_symmetric

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(fem, "solve_complex_symmetric", counted)
    for spec, msh, dm, M, S in (mixed_system, source_system, plain_source_system):
        calls.clear()
        inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
        assert len(calls) == 9


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


def test_evolve_reports_nonfinite_separable_term_before_any_solve(monkeypatch, source_system):
    spec, msh, dm, M, S = source_system
    (c_g, g), (c_Ag, Ag) = spec.fhat.terms
    spoiled = sf.SeparableSource(((c_g, g),
                                  (c_Ag, lambda x, y: np.where(x > 0.5, np.nan, Ag(x, y)))))
    calls = []
    monkeypatch.setattr(fem, "solve_complex_symmetric", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"non-finite value at \(0\.[5-9]"):
        inverse_laplace_evolve(replace(spec, fhat=spoiled), msh, dm, M, S, 1.0, 8)
    assert calls == []


@pytest.mark.parametrize("swapped", ["both", "mass"])
def test_evolve_rejects_operators_of_another_size_before_any_load(monkeypatch, assembled_cache,
                                                                  swapped):
    # the shapes are named up front, not by scipy from inside the first
    # node solve ("b is of incompatible size", "inconsistent shapes")
    spec = sf.example2(0.5)
    msh, dm, M, S = assembled_cache(2 ** -2, 1.0, fem.MIXED, spec.K)
    _, _, M_fine, S_fine = assembled_cache(2 ** -3, 1.0, fem.MIXED, spec.K)
    if swapped == "both":
        M, S = M_fine, S_fine
    else:
        M = M_fine
    calls = []
    monkeypatch.setattr(fem, "assemble_load", lambda *args: calls.append(args))
    monkeypatch.setattr(fem, "solve_complex_symmetric", lambda *args: calls.append(args))
    n = dm.n_dofs
    with pytest.raises(ValueError, match=re.escape(f"mass {M.shape} and stiffness {S.shape} "
                                                   f"must both be ({n}, {n})")):
        inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    assert calls == []


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_separable_source_evolve_matches_plain_callable(source_system, alpha):
    # loading each field once and combining at the nodes agrees with loading
    # the whole field at every node
    _, msh, dm, M, S = source_system
    spec = sf.example1(alpha)
    plain = replace(spec, fhat=lambda z: spec.fhat(z))
    for t in (0.01, 0.42, 100.0):
        ref = inverse_laplace_evolve(plain, msh, dm, M, S, t, 8)
        got = inverse_laplace_evolve(spec, msh, dm, M, S, t, 8)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_separable_source_loads_each_distinct_field_once(monkeypatch, source_system):
    # Example 1's g term is its u0, so the evolve loads g and A g, once each
    spec, msh, dm, M, S = source_system
    loaded = []
    original = fem.assemble_load

    def load(mesh, dofmap, g, *args, **kwargs):
        loaded.append(g)
        return original(mesh, dofmap, g, *args, **kwargs)

    monkeypatch.setattr(fem, "assemble_load", load)
    inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    assert loaded == [spec.u0, spec.fhat.terms[1][1]]


@pytest.mark.parametrize("m", [4, 8, 16])
def test_evolve_builds_each_quadrature_once(monkeypatch, mixed_system, source_system, m):
    # one quadrature per distinct field, whatever M: Example 2 loads u0,
    # Example 1 loads u0 and A g
    calls = []
    original = fem.element_quad_points

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fem, "element_quad_points", counted)
    for (spec, msh, dm, M, S), fields in ((mixed_system, 1), (source_system, 2)):
        calls.clear()
        inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, m)
        assert len(calls) == fields


@pytest.mark.parametrize("system, schedule", [
    pytest.param("mixed_system", ["load"] + ["solve"] * 9, id="mixed_system"),
    pytest.param("source_system", ["load"] * 2 + ["solve"] * 9, id="source_system"),
    pytest.param("plain_source_system", ["load"] + ["load", "solve"] * 9,
                 id="plain_source_system"),
])
def test_evolve_loads_up_front_unless_fhat_is_plain(monkeypatch, request, system, schedule):
    # u0 and each field of a separable source are loaded before the first
    # node is factored; a plain fhat callable is loaded at every node
    spec, msh, dm, M, S = request.getfixturevalue(system)
    expect = inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    events = []

    def recording(event, original):
        def recorded(*args, **kwargs):
            events.append(event)
            return original(*args, **kwargs)

        return recorded

    monkeypatch.setattr(fem, "assemble_load", recording("load", fem.assemble_load))
    monkeypatch.setattr(fem, "solve_complex_symmetric",
                        recording("solve", fem.solve_complex_symmetric))
    got = inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    assert np.array_equal(got, expect)
    assert events == schedule


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

    def load(z):
        if spec.fhat is None:
            return M @ u0h
        return M @ u0h + fem.assemble_load(msh, dm, spec.fhat(z))

    params = make_contour(8, t)
    terms = np.array([np.exp(z * t) * node_solve(z, spec.alpha, M, S, load(z)) * dz
                      for z, dz in zip(params.nodes, params.dnodes)])
    ref = fold_terms(params, terms)
    got = inverse_laplace_evolve(spec, msh, dm, M, S, t, 8)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("system", ["mixed_system", "source_system", "plain_source_system"])
@pytest.mark.parametrize("t", [0.01, 1.0, 100.0])
def test_evolve_streams_the_fold_of_stacked_terms_bit_for_bit(request, system, t):
    spec, msh, dm, M, S = request.getfixturevalue(system)
    rhs = contour._node_rhs(spec, msh, dm)
    params = make_contour(8, t)
    terms = np.array([np.exp(z * t) * fem.solve_complex_symmetric(z ** spec.alpha, M, S, rhs(z))
                      * dz for z, dz in zip(map(complex, params.nodes), params.dnodes)])
    expect = fold_terms(params, terms)
    got = inverse_laplace_evolve(spec, msh, dm, M, S, t, 8)
    assert got.dtype == expect.dtype and np.array_equal(got, expect)


@pytest.mark.parametrize("system", ["mixed_system", "source_system"])
def test_evolve_working_set_does_not_grow_with_m(request, system):
    # each node's term is folded and released before the next factorization,
    # so 33 nodes need no more memory than 9
    spec, msh, dm, M, S = request.getfixturevalue(system)

    def peak(m):
        return traced_peak_mb(lambda: inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, m))

    assert peak(32) <= 1.05 * peak(8)


def test_evolve_doubling_m_contracts_difference(mixed_system):
    spec, msh, dm, M, S = mixed_system
    U4 = inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 4)
    U8 = inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    U16 = inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 16)
    assert np.linalg.norm(U8 - U4) >= 1e3 * np.linalg.norm(U16 - U8)


@pytest.mark.parametrize("t, alpha", [
    *itertools.product((0.01, 0.1, 1.0, 5.0, 100.0), (0.05, 0.5, 0.95)),
    *itertools.product((1e-8, 1e8), (1e-3, 0.999)),  # alpha near 0 and 1, t small and large
])
def test_evolve_stability_in_l2(mixed_system, t, alpha):
    # Example 2's K does not depend on alpha, so its operators serve every alpha
    _, msh, dm, M, S = mixed_system
    spec = sf.example2(alpha)
    n0 = mass_norm(M, fem.l2_project(msh, dm, spec.u0))
    U = inverse_laplace_evolve(spec, msh, dm, M, S, t, 8)
    assert mass_norm(M, U) <= n0 + 1e-5
