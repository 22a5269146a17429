"""Assembly exactness, boundary handling, projections and sparse solvers."""

import json
import math
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import sectorfem as sf
from sectorfem import fem
from sectorfem.contour import make_contour
from sectorfem.mesh import EDGE_ARC, EDGE_THETA0, EDGE_THETA_MAX, Mesh
from conftest import conical_rule, fresh_interpreter_env, smallest_eigenpairs, traced_peak_mb

BETA = 2.0 / 3.0


def single_triangle(p0, p1, p2):
    verts = np.array([p0, p1, p2], dtype=float)
    return Mesh(verts, np.array([[0, 1, 2]]),
                ((0, 1, EDGE_THETA0), (1, 2, EDGE_ARC), (2, 0, EDGE_THETA_MAX)),
                BETA, 1.0, 0.5)


def test_mass_block_single_triangle():
    msh = single_triangle((0.2, 0.1), (1.1, 0.3), (0.4, 0.9))
    area = msh.areas[0]
    M = fem.assemble_mass(msh, fem.unconstrained_dofmap(msh)).toarray()
    expect = area / 12.0 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=float)
    assert np.max(np.abs(M - expect)) < 1e-14
    assert np.allclose(np.diag(M), area / 6.0)


def test_stiffness_block_reference_triangle():
    msh = single_triangle((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    S = fem.assemble_stiffness(msh, fem.unconstrained_dofmap(msh), 1.0).toarray()
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.max(np.abs(S - expect)) < 1e-14


def test_stiffness_rejects_nonpositive_K(mesh_cache):
    msh = mesh_cache(2 ** -3, 1.0)
    with pytest.raises(ValueError):
        fem.assemble_stiffness(msh, fem.unconstrained_dofmap(msh), 0.0)
    # nan compares False with everything, so `K <= 0` alone let it through
    for K in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"diffusivity K must be positive and finite, "
                                             f"got {K}"):
            fem.assemble_stiffness(msh, fem.unconstrained_dofmap(msh), K)


def test_stiffness_requires_K(mesh_cache):
    # no default diffusivity may stand in for a forgotten spec.K (Example 2's is 0.1187)
    msh = mesh_cache(2 ** -3, 1.0)
    with pytest.raises(TypeError, match="K"):
        fem.assemble_stiffness(msh, fem.unconstrained_dofmap(msh))


@pytest.mark.parametrize("direction", ["coarse_mesh", "fine_mesh", "replaced_mesh"])
@pytest.mark.parametrize("path", ["mass", "stiffness", "load", "l2_error", "h1_error"])
def test_a_dofmap_of_another_mesh_is_rejected(mesh_cache, path, direction):
    # with the coarse mesh these returned operators and norms of the fine
    # dof map's size; with the fine mesh they raised a bare IndexError.  A
    # replaced mesh has the same vertices but is another Mesh, which may
    # have other edges than the ones the dof map's pattern was laid out on.
    coarse, fine = mesh_cache(2 ** -2, 1.0), mesh_cache(2 ** -3, 1.0)
    msh, other = {"coarse_mesh": (coarse, fine), "fine_mesh": (fine, coarse),
                  "replaced_mesh": (coarse, replace(coarse, h_star=0.125))}[direction]
    dm = sf.build_dofmap(other, fem.DIRICHLET)
    uh = np.zeros(dm.n_dofs)
    run = {"mass": lambda: fem.assemble_mass(msh, dm),
           "stiffness": lambda: fem.assemble_stiffness(msh, dm, 1.0),
           "load": lambda: fem.assemble_load(msh, dm, lambda x, y: x),
           "l2_error": lambda: sf.l2_error(msh, dm, uh, lambda x, y: x),
           "h1_error": lambda: sf.h1_seminorm_error(msh, dm, uh, lambda x, y: (x, y))}[path]
    with pytest.raises(ValueError, match=f"dof map is built for another mesh: the "
                                         f"dof map numbers {other.n_vertices} vertices, "
                                         f"but the mesh has {msh.n_vertices}"):
        run()


def test_operators_carry_int32_indices_on_one_pattern(assembled_cache):
    msh, dm, M, S = assembled_cache(2 ** -3, 3.0, fem.MIXED, 1.0)
    node = (2.0 + 3.0j) ** 0.5 * M + S
    for A in (M, S, node):
        assert A.indices.dtype == A.indptr.dtype == np.int32
    assert np.array_equal(M.indptr, S.indptr) and np.array_equal(M.indices, S.indices)
    assert np.array_equal(node.indptr, M.indptr) and np.array_equal(node.indices, M.indices)


def test_mass_and_stiffness_of_one_dofmap_share_one_pattern(mesh_cache):
    # the dof map lays out its pattern once, on first use: error norms lay
    # out none, and every matrix assembled on it shares its index arrays
    msh = mesh_cache(2 ** -3, 3.0)
    dm = sf.build_dofmap(msh, fem.MIXED)
    layouts = []
    coo_array = sp.coo_array

    def counted(*args, **kwargs):
        layouts.append(args)
        return coo_array(*args, **kwargs)

    with mock.patch.object(fem.sp, "coo_array", counted):
        sf.l2_error(msh, dm, np.zeros(dm.n_dofs), lambda x, y: x)
        sf.h1_seminorm_error(msh, dm, np.zeros(dm.n_dofs), lambda x, y: (x, y))
        assert not layouts
        M, S = fem.assemble_mass(msh, dm), fem.assemble_stiffness(msh, dm, 1.0)
        again = fem.assemble_mass(msh, dm)
    assert len(layouts) == 1
    for A in (S, again):
        assert np.shares_memory(A.indices, M.indices) and np.shares_memory(A.indptr, M.indptr)


def test_stiffness_assembly_peak_memory(mesh_cache):
    # 2.2 MB measured at h*=2^-5, gamma=3 (12,187 triangles); the bound is
    # that peak plus about 25%
    msh = mesh_cache(2 ** -5, 3.0)
    dm = sf.build_dofmap(msh, fem.MIXED)
    assert traced_peak_mb(lambda: fem.assemble_stiffness(msh, dm, 1.0)) <= 2.9


@pytest.fixture(scope="module")
def finest_operators(mesh_cache):
    """Mesh, mixed dof map, M and S of the finest acceptance-6 level (h*=2^-6, gamma=3)."""
    msh = mesh_cache(2 ** -6, 3.0)
    dm = sf.build_dofmap(msh, fem.MIXED)
    return msh, dm, fem.assemble_mass(msh, dm), fem.assemble_stiffness(msh, dm, 1.0)


# Peaks measured on the finest acceptance-6 mesh (48,450 triangles, 24,094
# dofs); each bound is the measured peak plus about 25%.  With whole-mesh
# COO arrays the two assemblies peaked at 21.1 and 23.7 MB, with sums per
# free dof and an (nt, 6) table of each element entry's sum at 5.5 and
# 7.7 MB, and with a sparse sum for z^a M + S one node solve at 12.3 MB.
# With the element areas derived again at each call, the mass and
# stiffness assemblies peaked at 4.6 and 6.8 MB and a load at 4.4 MB; with
# the pattern laid out again at each assembly, M and S peaked at 4.2 and
# 6.4 MB, and with complex128 node data a node solve at 3.7 MB.  The dof
# map here has laid out its pattern already.
def test_mass_assembly_peak_memory_on_the_finest_mesh(finest_operators):
    msh, dm, _, _ = finest_operators  # 2.24 MB measured
    assert traced_peak_mb(lambda: fem.assemble_mass(msh, dm)) <= 2.8


def test_stiffness_assembly_peak_memory_on_the_finest_mesh(finest_operators):
    msh, dm, _, _ = finest_operators  # 5.55 MB measured
    assert traced_peak_mb(lambda: fem.assemble_stiffness(msh, dm, 1.0)) <= 6.9


def test_load_peak_memory_on_the_finest_mesh(finest_operators):
    msh, dm, _, _ = finest_operators  # 2.4 MB measured for Example 2's u0
    assert traced_peak_mb(lambda: fem.assemble_load(msh, dm, sf.example2(0.5).u0)) <= 3.0


def test_node_solve_peak_memory_on_the_finest_mesh(finest_operators):
    _, dm, M, S = finest_operators  # 2.92 MB measured, SuperLU's own memory untraced
    b = np.ones(dm.n_dofs, dtype=complex)
    assert traced_peak_mb(lambda: fem.solve_complex_symmetric((2.0 + 3.0j) ** 0.5, M, S, b)) <= 3.6


def free_vertex_dofs(dofmap):
    """Each vertex's dof: the free vertices numbered in vertex order, -1 where constrained."""
    return np.where(dofmap.free, np.cumsum(dofmap.free) - 1, -1)


def scatter_coo_reference(mesh, dofmap, local):
    """COO reference for ``fem._assemble``: scatter all element matrices at once.

    ``local`` (nt, 3, 3) holds every element matrix; the entries of
    constrained vertices are dropped and duplicates summed by scipy.
    """
    dofs = free_vertex_dofs(dofmap)[mesh.triangles].astype(np.int32)
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    vals = local.ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = dofmap.n_dofs
    return sp.coo_array((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()


def reference_operators(mesh, dofmap, K):
    """M and S with every element matrix built whole and scattered as COO."""
    areas, grads = fem.element_geometry(mesh)
    mass = scatter_coo_reference(mesh, dofmap, areas[:, None, None] * fem._MASS_BLOCK)
    local = K * areas[:, None, None] * np.einsum("eid,ejd->eij", grads, grads)
    return mass, scatter_coo_reference(mesh, dofmap, local)


@settings(max_examples=12, deadline=None)
@given(h_star=st.sampled_from([2 ** -2, 2 ** -3, 2 ** -4]), gamma=st.floats(1.0, 3.0),
       bc_kind=st.sampled_from([fem.DIRICHLET, fem.MIXED, "none"]), K=st.floats(0.1, 10.0),
       alpha=st.floats(0.05, 0.95), node=st.integers(0, 8))
def test_pattern_assembly_matches_coo_reference(h_star, gamma, bc_kind, K, alpha, node):
    msh = sf.generate_sector_mesh(BETA, h_star, gamma)
    dm = fem.unconstrained_dofmap(msh) if bc_kind == "none" else sf.build_dofmap(msh, bc_kind)
    M, S = fem.assemble_mass(msh, dm), fem.assemble_stiffness(msh, dm, K)
    for A, ref in zip((M, S), reference_operators(msh, dm, K)):
        assert np.array_equal(A.indptr, ref.indptr) and np.array_equal(A.indices, ref.indices)
        # only the order of each entry's sum changed
        assert np.all(np.abs(A.data - ref.data) <= 3 * np.spacing(np.abs(ref.data)))
    factored = []
    real_splu = fem._splu

    def splu(A):
        factored.append(A)
        return real_splu(A)

    za = complex(make_contour(8, 1.0).nodes[node]) ** alpha
    with mock.patch.object(fem, "_splu", splu):
        fem.solve_complex_symmetric(za, M, S, np.ones(dm.n_dofs, dtype=complex))
    # SuperLU gets the CSR node matrix as the CSC arrays of its transpose,
    # formed on M's own index arrays, scaled and rounded to single precision
    (A,) = factored
    expect = za * M + S
    assert np.shares_memory(A.indices, M.indices)
    assert np.array_equal(A.indices, expect.indices) and np.array_equal(A.indptr, expect.indptr)
    assert np.array_equal(A.data, single_precision_node_data(expect.data))


def single_precision_node_data(data):
    """``data`` times the power of two that puts its largest part in [0.5, 1), as complex64."""
    peak = max(np.abs(data.real).max(), np.abs(data.imag).max())
    return (data * 2.0 ** -math.frexp(peak)[1]).astype(np.complex64)


@settings(max_examples=12, deadline=None)
@given(h_star=st.sampled_from([2 ** -2, 2 ** -3, 2 ** -4]), gamma=st.floats(1.0, 6.0),
       bc_kind=st.sampled_from([fem.DIRICHLET, fem.MIXED]))
def test_assembly_commutes_with_the_free_mask(h_star, gamma, bc_kind):
    # summing on all vertices and restricting to the free ones afterwards
    # gives the same entries to the last bit
    msh = sf.generate_sector_mesh(BETA, h_star, gamma)
    dm, everything = sf.build_dofmap(msh, bc_kind), fem.unconstrained_dofmap(msh)
    pairs = [(fem.assemble_mass(msh, dm), fem.assemble_mass(msh, everything)),
             (fem.assemble_stiffness(msh, dm, 1.7), fem.assemble_stiffness(msh, everything, 1.7))]
    for A, A_all in pairs:
        ref = A_all[dm.free][:, dm.free]
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, name), getattr(ref, name)), name


@settings(max_examples=30, deadline=None)
@given(h_star=st.sampled_from([2 ** -2, 2 ** -3]), gamma=st.floats(1.0, 3.0),
       bc_kind=st.sampled_from([fem.DIRICHLET, fem.MIXED, "none"]))
def test_dofmap_numbers_the_free_vertices_in_vertex_order(h_star, gamma, bc_kind):
    msh = sf.generate_sector_mesh(BETA, h_star, gamma)
    dm = fem.DofMap(msh, bc_kind)
    free = dm.free
    assert free.dtype == bool and free.shape == (msh.n_vertices,)
    assert dm.n_dofs == free.sum()
    u = np.arange(1.0, dm.n_dofs + 1.0)
    assert np.array_equal(dm.expand(u)[free], u)
    assert np.all(dm.expand(u)[~free] == 0.0)
    assert not dm.free.flags.writeable
    # the builders return the same numbering; "none" frees every vertex
    same = fem.unconstrained_dofmap(msh) if bc_kind == "none" else sf.build_dofmap(msh, bc_kind)
    assert np.array_equal(same.free, free)
    assert free.all() == (bc_kind == "none")


def test_build_dofmap_rejects_an_unknown_bc_kind(mesh_cache):
    with pytest.raises(ValueError, match="unknown bc_kind 'neumann'"):
        sf.build_dofmap(mesh_cache(2 ** -2, 1.0), "neumann")
    with pytest.raises(ValueError, match="unknown bc_kind 'neumann'"):
        fem.DofMap(mesh_cache(2 ** -2, 1.0), "neumann")


def test_mass_row_sums_equal_area(mesh_cache):
    msh = mesh_cache(2 ** -4, 1.5)
    M = fem.assemble_mass(msh, fem.unconstrained_dofmap(msh))
    assert M.sum() == pytest.approx(msh.areas.sum(), rel=1e-12)


def test_mass_symmetric_positive_diagonal(mesh_cache):
    msh = mesh_cache(2 ** -4, 3.0)
    M = fem.assemble_mass(msh, sf.build_dofmap(msh, fem.DIRICHLET))
    assert abs(M - M.T).max() < 1e-15
    assert np.all(M.diagonal() > 0)


def test_stiffness_annihilates_constants(mesh_cache):
    msh = mesh_cache(2 ** -4, 1.5)
    S = fem.assemble_stiffness(msh, fem.unconstrained_dofmap(msh), 2.7)
    assert np.max(np.abs(S @ np.ones(msh.n_vertices))) < 1e-12


@settings(max_examples=10, deadline=None)
@given(beta=st.floats(0.55, 0.95), h_star=st.sampled_from([2 ** -2, 2 ** -3, 2 ** -4]),
       gamma=st.floats(1.0, 3.0))
def test_mass_sums_to_area_and_stiffness_annihilates_constants(beta, h_star, gamma):
    msh = sf.generate_sector_mesh(beta, h_star, gamma)
    dm = fem.unconstrained_dofmap(msh)
    M = fem.assemble_mass(msh, dm)
    assert M.sum() == pytest.approx(msh.areas.sum(), rel=1e-13)
    S = fem.assemble_stiffness(msh, dm, 1.0)
    assert np.max(np.abs(S @ np.ones(msh.n_vertices))) <= 1e-12 * np.max(np.abs(S.data))


def test_dofmap_dirichlet_constrains_all_boundary(mesh_cache):
    msh = mesh_cache(2 ** -4, 1.5)
    dm = sf.build_dofmap(msh, fem.DIRICHLET)
    boundary = {v for i, j, _ in msh.boundary_edges for v in (i, j)}
    assert not any(dm.free[v] for v in boundary)
    assert dm.n_dofs == msh.n_vertices - len(boundary)


def test_dofmap_mixed_frees_theta_max_interior(mesh_cache):
    msh = mesh_cache(2 ** -4, 1.5)
    dm = sf.build_dofmap(msh, fem.MIXED)
    constrained = {v for i, j, tag in msh.boundary_edges
                   if tag in (EDGE_THETA0, EDGE_ARC) for v in (i, j)}
    neumann_only = {v for i, j, tag in msh.boundary_edges if tag == EDGE_THETA_MAX
                    for v in (i, j)} - constrained
    assert neumann_only, "theta_max edge should contribute free vertices"
    assert all(dm.free[v] for v in neumann_only)
    assert not any(dm.free[v] for v in constrained)


def test_load_constant_field_sums_to_area(mesh_cache):
    msh = mesh_cache(2 ** -4, 3.0)
    b = fem.assemble_load(msh, fem.unconstrained_dofmap(msh), lambda x, y: np.ones_like(x))
    assert b.sum() == pytest.approx(msh.areas.sum(), rel=1e-12)


def test_load_sums_to_the_integral_of_its_field(mesh_cache):
    # the hat functions sum to one, and loads and error norms share one
    # rule, so the load of a field over all vertices sums to its integral
    msh = mesh_cache(2 ** -4, 3.0)
    g = sf.elliptic_singular().f
    total = fem.assemble_load(msh, fem.unconstrained_dofmap(msh), g).sum()
    assert total == pytest.approx(fem.integrate(msh, lambda ids, pts, x, y: g(x, y)), rel=1e-13)


def test_load_of_basis_function_is_mass_column(mesh_cache):
    msh = mesh_cache(2 ** -3, 1.0)
    dm = fem.unconstrained_dofmap(msh)
    M = fem.assemble_mass(msh, dm)
    k = msh.n_vertices // 2
    xk, yk = msh.vertices[k]

    nodal = np.zeros(msh.n_vertices)
    nodal[k] = 1.0
    coords = msh.vertices[msh.triangles]

    def hat(x, y):
        # evaluate the P1 hat function by solving barycentric coordinates
        out = np.zeros_like(x)
        for e, tri in enumerate(msh.triangles):
            if k not in tri:
                continue
            p = coords[e]
            T = np.array([[p[1, 0] - p[0, 0], p[2, 0] - p[0, 0]],
                          [p[1, 1] - p[0, 1], p[2, 1] - p[0, 1]]])
            loc = np.linalg.solve(T, np.stack([x.ravel() - p[0, 0], y.ravel() - p[0, 1]]))
            lam = np.stack([1 - loc[0] - loc[1], loc[0], loc[1]])
            inside = np.all(lam > -1e-12, axis=0)
            vals = (nodal[tri][:, None] * lam).sum(axis=0)
            flat = out.ravel()
            flat[inside] = vals[inside]
        return out

    b = fem.assemble_load(msh, dm, hat)  # degree 4: exact for a product of two P1 functions
    col = np.asarray(M[:, [k]].todense()).ravel()
    assert np.max(np.abs(b - col)) < 1e-13


def test_load_singular_field_finite_and_quadrature_converged(monkeypatch, mesh_cache):
    msh = mesh_cache(2 ** -4, 1.0)
    dm = sf.build_dofmap(msh, fem.DIRICHLET)
    f = sf.elliptic_singular().f
    b4 = fem.assemble_load(msh, dm, f)
    monkeypatch.setattr(fem, "_RULE", conical_rule(5))  # degree 9
    b9 = fem.assemble_load(msh, dm, f)
    assert np.all(np.isfinite(b4))
    assert np.linalg.norm(b9 - b4) / np.linalg.norm(b9) < 1e-3


def test_load_rejects_nonfinite_field(mesh_cache):
    msh = mesh_cache(2 ** -3, 1.0)
    dm = fem.unconstrained_dofmap(msh)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        fem.assemble_load(msh, dm, lambda x, y: x / (y - y))


def test_constant_fields_broadcast_over_the_points(mesh_cache):
    # a constant load field used to die inside numpy's matmul
    msh = mesh_cache(2 ** -3, 3.0)
    dm = sf.build_dofmap(msh, fem.MIXED)
    ones = fem.assemble_load(msh, dm, lambda x, y: np.ones_like(x))
    assert np.array_equal(fem.assemble_load(msh, dm, lambda x, y: 1.0), ones)
    assert np.array_equal(fem.assemble_load(msh, dm, lambda x, y: 2.5j),
                          fem.assemble_load(msh, dm, lambda x, y: np.full(x.shape, 2.5j)))
    zero = np.zeros(msh.n_vertices)
    area = msh.areas.sum()
    assert sf.l2_error(msh, None, zero, lambda x, y: 2.0) == pytest.approx(
        2.0 * math.sqrt(area), rel=1e-12)
    assert sf.h1_seminorm_error(msh, None, zero, lambda x, y: (3.0, 4.0)) == pytest.approx(
        5.0 * math.sqrt(area), rel=1e-12)
    # one constant component of a gradient used to die inside np.asarray
    assert sf.h1_seminorm_error(msh, None, zero, lambda x, y: (1.0, y)) == \
        sf.h1_seminorm_error(msh, None, zero, lambda x, y: (np.ones_like(x), y))


@pytest.mark.parametrize("field, got", [
    (lambda x, y: (x, y), r"\(2, (\d+), (\d+)\)"),
    (lambda x, y: x[:, 0], r"\((\d+),\)"),
    (lambda x, y: np.ones(3), r"\(3,\)"),
], ids=["pair", "one_per_element", "wrong_constant"])
def test_fields_of_the_wrong_shape_are_named(mesh_cache, field, got):
    # these used to fail with an IndexError or a matmul error naming no field
    msh = mesh_cache(2 ** -3, 3.0)
    dm = sf.build_dofmap(msh, fem.DIRICHLET)
    zero = np.zeros(dm.n_dofs)
    points = r"at points of shape \(\d+, \d+\)"
    with pytest.raises(ValueError, match=f"load field returned values of shape {got} {points}"):
        fem.assemble_load(msh, dm, field)
    with pytest.raises(ValueError, match=f"exact field returned values of shape {got} {points}"):
        sf.l2_error(msh, dm, zero, field)


@pytest.mark.parametrize("gradient, got", [
    (lambda x, y: x, r"\((\d+), (\d+)\)"),
    (lambda x, y: (x, y, x), r"\(3, (\d+), (\d+)\)"),
    (lambda x, y: 1.0, r"\(\)"),
    (lambda x, y: (1.0, y[:, 0]), r"\(\(\), \((\d+),\)\)"),
], ids=["one_value", "triple", "scalar_constant", "ragged_pair"])
def test_gradients_of_the_wrong_shape_are_named(mesh_cache, gradient, got):
    msh = mesh_cache(2 ** -3, 3.0)
    dm = sf.build_dofmap(msh, fem.DIRICHLET)
    with pytest.raises(ValueError, match=f"exact gradient returned values of shape {got} "
                                         r"at points of shape \(\d+, \d+\)"):
        sf.h1_seminorm_error(msh, dm, np.zeros(dm.n_dofs), gradient)


def assert_monomials_exact(x, y, w, area, exact, degree):
    """Check area * sum_q w_q x_q**a y_q**b against exact(a, b) for every a + b <= degree."""
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = area * (w @ (x ** a * y ** b))
            assert abs(got - exact(a, b)) <= 1e-13 * exact(a, b), (degree, a, b)


def reference_triangle_monomial(a, b):
    """Integral of x**a y**b over the triangle (0, 0), (1, 0), (0, 1)."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


RULE_DEGREE = 4  # the degree of fem._RULE, the rule of loads and error norms


def test_triangle_rule_integrates_monomials_exactly():
    pts, w = fem._RULE
    assert np.all(pts > 0) and w.sum() == pytest.approx(1.0, abs=1e-14)
    # on the reference triangle x and y are the barycentric coordinates 1 and 2
    assert_monomials_exact(pts[:, 1], pts[:, 2], w, 0.5, reference_triangle_monomial,
                           RULE_DEGREE)


def test_element_quad_points_split_corner_elements_stay_exact():
    # triangle 0 has a vertex at the origin, triangle 1 does not
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    msh = Mesh(verts, np.array([[0, 1, 2], [1, 3, 2]]),
               ((0, 1, EDGE_THETA0), (1, 3, EDGE_ARC), (3, 2, EDGE_ARC),
                (2, 0, EDGE_THETA_MAX)), BETA, 1.0, 0.5)
    (plain_ids, plain_pts, plain_w), (corner_ids, corner_pts, corner_w) = \
        fem.element_quad_points(msh)
    assert plain_ids.tolist() == [1] and corner_ids.tolist() == [0]
    assert corner_pts.shape[0] == 4 * plain_pts.shape[0]
    assert np.all(corner_pts > 0) and corner_w.sum() == pytest.approx(1.0, abs=1e-14)

    def upper_triangle_monomial(a, b):
        return 1.0 / ((a + 1) * (b + 1)) - reference_triangle_monomial(a, b)

    for ids, pts, w, exact in ((plain_ids, plain_pts, plain_w, upper_triangle_monomial),
                               (corner_ids, corner_pts, corner_w,
                                reference_triangle_monomial)):
        ((_, x, y),) = fem._blocks(msh, ids, pts)
        assert_monomials_exact(x[0], y[0], w, 0.5, exact, RULE_DEGREE)


def reference_load(msh, dm, g):
    """Three-operand einsum load assembly on whole groups, the reference for assemble_load."""
    coords = msh.vertices[msh.triangles]
    areas = msh.areas
    dofs = free_vertex_dofs(dm)[msh.triangles]
    out = np.zeros(dm.n_dofs, dtype=complex)
    for ids, pts, w in fem.element_quad_points(msh):
        xq = np.einsum("qb,ebd->eqd", pts, coords[ids])
        vals = g(xq[..., 0], xq[..., 1])
        be = areas[ids, None] * np.einsum("eq,q,qb->eb", vals, w, pts)
        d = dofs[ids]
        keep = d >= 0
        np.add.at(out, d[keep], be[keep])
    return out


@pytest.mark.parametrize("bc_kind", [fem.DIRICHLET, fem.MIXED])
def test_load_quadrature_matches_einsum_reference(mesh_cache, bc_kind):
    msh = mesh_cache(2 ** -3, 3.0)
    dm = sf.build_dofmap(msh, bc_kind)
    assert len(fem.element_quad_points(msh)) == 2, \
        "expected a near-corner group on a gamma=3 mesh"
    real_field = sf.elliptic_singular().f
    complex_field = sf.example1(0.5).fhat(make_contour(8, 1.0).nodes[3])
    for g, kind in ((real_field, "f"), (complex_field, "c")):
        got = fem.assemble_load(msh, dm, g)
        ref = reference_load(msh, dm, g)
        assert got.dtype.kind == kind
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("bc_kind", [fem.DIRICHLET, fem.MIXED])
def test_load_does_not_depend_on_block_size(monkeypatch, mesh_cache, bc_kind):
    # As in fem.integrate, a power-of-two block rounds each element's sum as
    # one product over its whole group would, so the load vector is the
    # same double for double.  (Blocks of 1 or 7 move some last digits.)
    msh = mesh_cache(2 ** -5, 3.0)
    dm = sf.build_dofmap(msh, bc_kind)
    assert max(ids.size for ids, _, _ in fem.element_quad_points(msh)) > 4096
    fields = (sf.example2(0.5).u0, sf.example1(0.5).fhat(make_contour(8, 1.0).nodes[3]))

    def loads():
        return [fem.assemble_load(msh, dm, g) for g in fields]

    monkeypatch.setattr(fem, "_INTEGRATE_BLOCK", msh.n_triangles)
    whole = loads()
    assert [b.dtype.kind for b in whole] == ["f", "c"]
    for block in (64, 4096):
        monkeypatch.setattr(fem, "_INTEGRATE_BLOCK", block)
        for got, ref in zip(loads(), whole):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_load_peak_memory(mesh_cache):
    # 2.2 MB measured for Example 2's u0 at h*=2^-5, gamma=3 (12,187
    # triangles) with blocked evaluation; 4.3 MB with (e, q) arrays for
    # whole groups
    spec = sf.example2(0.5)
    msh = mesh_cache(2 ** -5, 3.0)
    dm = sf.build_dofmap(msh, spec.bc_kind)
    assert traced_peak_mb(lambda: fem.assemble_load(msh, dm, spec.u0)) <= 3.0


@pytest.fixture(scope="module")
def corner_load(mesh_cache):
    msh = mesh_cache(2 ** -3, 3.0)
    dm = sf.build_dofmap(msh, fem.DIRICHLET)
    return lambda g: fem.assemble_load(msh, dm, g)


coefficients = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
wavenumbers = st.floats(-4.0, 4.0)


@settings(max_examples=60, deadline=None)
@given(c1=coefficients, c2=coefficients, a=wavenumbers, b=wavenumbers, c=wavenumbers)
def test_load_is_linear_in_the_field(corner_load, c1, c2, a, b, c):
    # a separable source is loaded term by term, then combined at each node
    def f1(x, y):
        return np.cos(a * x + b * y)

    def f2(x, y):
        return np.exp(c * x) * y

    b1, b2 = corner_load(f1), corner_load(f2)
    got = corner_load(lambda x, y: c1 * f1(x, y) + c2 * f2(x, y))
    scale = abs(c1) * np.linalg.norm(b1) + abs(c2) * np.linalg.norm(b2)
    assert np.linalg.norm(got - (c1 * b1 + c2 * b2)) <= 1e-14 * scale


def test_project_basis_function_is_unit_vector(mesh_cache):
    # projecting a function already in the FE space returns its coefficients:
    # M x = M e_k  ->  x = e_k
    msh = mesh_cache(2 ** -3, 1.0)
    dm = fem.unconstrained_dofmap(msh)
    k = msh.n_vertices // 3
    M = fem.assemble_mass(msh, dm)
    rhs = np.asarray(M[:, [k]].todense()).ravel()
    x = fem.solve_real_spd(M, rhs)
    e = np.zeros(msh.n_vertices)
    e[k] = 1.0
    assert np.max(np.abs(x - e)) < 1e-9


def test_project_reproduces_linear_functions(mesh_cache):
    msh = mesh_cache(2 ** -4, 1.5)
    dm = fem.unconstrained_dofmap(msh)

    def lin(x, y):
        return 1.0 + 2.0 * x - 3.0 * y

    x = fem.l2_project(msh, dm, lin)
    assert np.max(np.abs(x - lin(*msh.vertices.T))) < 1e-10


def test_projection_contracts_norm(mesh_cache, assembled_cache):
    msh, dm, M, _ = assembled_cache(2 ** -4, 3.0, fem.MIXED, 1.0)
    u0 = sf.example2(0.5).u0
    x = fem.l2_project(msh, dm, u0)
    proj_norm = math.sqrt(x @ (M @ x))
    u0_norm = sf.l2_error(msh, None, np.zeros(msh.n_vertices), u0)
    assert proj_norm <= u0_norm + 1e-10


def test_solve_real_spd_identity_and_mass(mesh_cache):
    assert np.allclose(fem.solve_real_spd(sp.eye_array(4).tocsr(), np.arange(4.0)),
                       np.arange(4.0))
    msh = mesh_cache(2 ** -4, 1.5)
    M = fem.assemble_mass(msh, sf.build_dofmap(msh, fem.DIRICHLET))
    ones = np.ones(M.shape[0])
    x = fem.solve_real_spd(M, M @ ones)
    assert np.max(np.abs(x - ones)) < 1e-9


def test_solve_real_spd_random_spd_recovery():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((50, 50))
    A = sp.csr_array(A @ A.T + 50 * np.eye(50))
    x_true = rng.standard_normal(50)
    x = fem.solve_real_spd(A, A @ x_true)
    assert np.max(np.abs(x - x_true)) < 1e-8


def test_solve_real_spd_of_an_empty_system_is_empty():
    x = fem.solve_real_spd(sp.csr_array((0, 0)), np.zeros(0))
    assert x.shape == (0,) and x.dtype == np.float64


@pytest.mark.parametrize("zalpha", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_solve_complex_rejects_a_non_finite_coefficient(zalpha):
    M = sp.csr_array(np.eye(2))
    with pytest.raises(ValueError, match=re.escape(f"non-finite coefficient zalpha = "
                                                   f"{complex(zalpha)}")):
        fem.solve_complex_symmetric(zalpha, M, M, np.ones(2, dtype=complex))


def test_solve_complex_zero_coefficient_reduces_to_real(assembled_cache):
    msh, dm, M, S = assembled_cache(2 ** -4, 1.5, fem.DIRICHLET, 1.0)
    b = np.ones(dm.n_dofs, dtype=complex)
    x = fem.solve_complex_symmetric(0.0 + 0.0j, M, S, b)
    assert np.max(np.abs(x.imag)) < 1e-12
    assert np.allclose(x.real, fem.solve_real_spd(S, np.ones(dm.n_dofs)), atol=1e-10)


def test_solve_complex_2x2_closed_form():
    M = sp.csr_array(np.array([[2.0, 1.0], [1.0, 2.0]]))
    S = sp.csr_array(np.array([[3.0, -1.0], [-1.0, 3.0]]))
    z = 1.5 + 2.5j
    A = (z * M + S).toarray()
    b = np.array([1.0 + 1.0j, 2.0 - 1.0j])
    x = fem.solve_complex_symmetric(z, M, S, b)
    expect = np.linalg.inv(A) @ b
    assert np.max(np.abs(x - expect)) < 1e-12


def test_solve_complex_conjugation_symmetry(assembled_cache):
    msh, dm, M, S = assembled_cache(2 ** -4, 1.5, fem.DIRICHLET, 1.0)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(dm.n_dofs) + 1j * rng.standard_normal(dm.n_dofs)
    z = (-3.0 + 4.0j) ** 0.5
    x = fem.solve_complex_symmetric(z, M, S, b)
    xc = fem.solve_complex_symmetric(np.conj(z), M, S, np.conj(b))
    assert np.max(np.abs(xc - np.conj(x))) < 1e-12


def test_project_matches_direct_mass_solve(assembled_cache):
    msh, dm, M, _ = assembled_cache(2 ** -4, 3.0, fem.MIXED, 1.0)
    u0 = sf.example2(0.5).u0
    x = fem.l2_project(msh, dm, u0)
    ref = fem.solve_real_spd(M, fem.assemble_load(msh, dm, u0))
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("bc_kind", [fem.DIRICHLET, fem.MIXED])
@pytest.mark.parametrize("alpha", [0.05, 0.95])
@pytest.mark.parametrize("t", [1e-8, 1e-3, 1e3, 1e8])
def test_solve_complex_every_contour_node_matches_default_lu(assembled_cache, bc_kind,
                                                             alpha, t):
    msh, dm, M, S = assembled_cache(2 ** -3, 3.0, bc_kind, 1.0)
    rng = np.random.default_rng(11)
    data = M @ (rng.standard_normal(dm.n_dofs) + 1j * rng.standard_normal(dm.n_dofs))
    for z in make_contour(20, t).nodes:
        za = complex(z) ** alpha
        b = complex(z) ** (alpha - 1.0) * data
        x = fem.solve_complex_symmetric(za, M, S, b)
        A = (za * M + S).astype(complex)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
        ref = spla.splu(sp.csc_matrix(A)).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)


def test_solve_complex_every_node_of_a_benchmark_system_matches_default_lu(assembled_cache):
    # Example 2's finest time-curve system: gamma=3, mixed, h*=2^-5 (6,028 dofs)
    spec = sf.example2(0.5)
    msh, dm, M, S = assembled_cache(2 ** -5, 3.0, fem.MIXED, spec.K)
    assert dm.n_dofs == 6028
    b0 = fem.assemble_load(msh, dm, spec.u0)
    for z in make_contour(8, 1.0).nodes:
        za = complex(z) ** spec.alpha
        b = complex(z) ** (spec.alpha - 1.0) * b0
        x = fem.solve_complex_symmetric(za, M, S, b)
        A = za * M + S
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
        ref = spla.splu(sp.csc_matrix(A)).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)


@pytest.mark.parametrize("gamma", [1.0, 3.0])
def test_solve_real_elliptic_system_matches_default_lu(assembled_cache, gamma):
    ell = sf.elliptic_singular()
    msh, dm, _, S = assembled_cache(2 ** -4, gamma, fem.DIRICHLET, ell.K)
    b = fem.assemble_load(msh, dm, ell.f)
    x = fem.solve_real_spd(S, b)
    assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)
    ref = spla.splu(sp.csc_matrix(S)).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_solve_complex_factors_exactly_the_node_matrix(monkeypatch, assembled_cache):
    msh, dm, M, S = assembled_cache(2 ** -3, 3.0, fem.MIXED, 1.0)
    factored, released = [], []
    real_splu = fem._splu

    class LU:
        def __init__(self, A):
            self.lu, self.data = real_splu(A), weakref.ref(A.data)

        def solve(self, rhs, trans="N"):
            released.append(self.data() is None)
            return self.lu.solve(rhs, trans=trans)

    def splu(A):
        factored.append((A.format, A.T.toarray()))
        return LU(A)

    monkeypatch.setattr(fem, "_splu", splu)
    za = (2.0 + 3.0j) ** 0.5
    fem.solve_complex_symmetric(za, M, S, np.ones(dm.n_dofs, dtype=complex))
    # SuperLU gets the transpose as a CSC view of the CSR node matrix, whose
    # data are the complex64 rounding of za M + S scaled by a power of two;
    # they are released before the first solve
    ((fmt, A),) = factored
    assert fmt == "csc" and A.dtype == np.complex64
    assert np.array_equal(A, single_precision_node_data((za * M + S).toarray()))
    assert 0.5 <= max(np.abs(A.real).max(), np.abs(A.imag).max()) < 1.0
    assert released and all(released)


def _nonsymmetric_pair(rng):
    """6x6 CSR M and S on one pattern that is not symmetric, nor are their values."""
    pattern = rng.random((6, 6)) < 0.5
    np.fill_diagonal(pattern, True)
    assert not np.array_equal(pattern, pattern.T)
    M = sp.csr_array(np.where(pattern, np.eye(6) + 0.1 * rng.standard_normal((6, 6)), 0.0))
    S = sp.csr_array(np.where(pattern, rng.standard_normal((6, 6)) + 6 * np.eye(6), 0.0))
    assert np.array_equal(M.indptr, S.indptr) and np.array_equal(M.indices, S.indices)
    return M, S


def test_solve_complex_nonsymmetric_pair_matches_dense_solve():
    # the solves undo the transpose SuperLU factors, so symmetry is not
    # assumed, neither of the values nor of the pattern M and S share
    rng = np.random.default_rng(5)
    M, S = _nonsymmetric_pair(rng)
    z = 1.5 - 0.5j
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = fem.solve_complex_symmetric(z, M, S, b)
    expect = np.linalg.solve((z * M + S).toarray(), b)
    assert np.linalg.norm(x - expect) <= 1e-12 * np.linalg.norm(expect)
    x = fem.solve_real_spd(S, b.real)
    assert np.linalg.norm(x - np.linalg.solve(S.toarray(), b.real)) <= 1e-12 * np.linalg.norm(x)


def _factor_input(case, assembled_cache):
    """A fresh CSC matrix of kind ``case`` to factor; splu sums duplicates in place."""
    if case == "stiffness":  # real SPD, as the elliptic solve factors it
        _, _, _, S = assembled_cache(2 ** -4, 1.5, fem.DIRICHLET, 1.0)
        return sp.csc_array(S.T, copy=True)
    if case in ("node", "node-complex64"):  # a contour-node matrix on M's pattern
        _, _, M, S = assembled_cache(2 ** -4, 3.0, fem.MIXED, 1.0)
        za = complex(make_contour(8, 1.0).nodes[3]) ** 0.5
        data = M.data * za + S.data
        if case == "node-complex64":  # as the node solves factor it
            data = single_precision_node_data(data)
        return sp.csc_array((data, M.indices.copy(), M.indptr.copy()), shape=M.shape)
    if case == "nonsymmetric":
        M, S = _nonsymmetric_pair(np.random.default_rng(5))
        return sp.csc_array(((1.5 - 0.5j) * M + S).T)
    _, _, _, S = assembled_cache(2 ** -3, 3.0, fem.MIXED, 1.0)
    A = sp.csc_array(S.T, copy=True)
    if case == "duplicates":  # every entry split into two equal halves
        A = sp.csc_array((np.repeat(A.data / 2, 2), np.repeat(A.indices, 2), 2 * A.indptr),
                         shape=A.shape)
        assert not A.has_canonical_format
    elif case == "int64":
        A.indices, A.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
        assert A.indices.dtype == A.indptr.dtype == np.int64
    else:  # integer data
        A = sp.csc_array(sp.diags_array([-1, 4, -1], offsets=[-1, 0, 1], shape=(7, 7),
                                        dtype=np.int64))
        assert A.dtype == np.int64
    return A


@pytest.mark.parametrize("case", ["stiffness", "node", "node-complex64", "nonsymmetric",
                                  "duplicates", "int64", "integer"])
def test_splu_factors_as_the_public_splu(assembled_cache, case):
    # fem reaches SuperLU's gstrf without scipy.sparse.linalg; with the same
    # options it must give splu's factor, on the scipy that is installed
    def public_splu(A):
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", relax=fem._RELAX,
                         panel_size=fem._PANEL_SIZE, options={"SymmetricMode": True})

    ours = fem._splu(_factor_input(case, assembled_cache))
    ref = public_splu(_factor_input(case, assembled_cache))
    assert type(ours) is type(ref) is spla.SuperLU
    assert ours.L.nnz + ours.U.nnz == ref.L.nnz + ref.U.nnz
    assert np.array_equal(ours.perm_c, ref.perm_c) and np.array_equal(ours.perm_r, ref.perm_r)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(ref.shape[0])
    if ref.L.dtype.kind == "c":
        b = b + 1j * rng.standard_normal(b.size)
    b = b.astype(ref.L.dtype)
    for trans in "NT":
        x = ours.solve(b, trans=trans)
        assert x.dtype == ref.L.dtype and np.array_equal(x, ref.solve(b, trans=trans))


def test_splu_refuses_a_non_square_matrix():
    A = sp.csc_array(np.ones((2, 3)))
    with pytest.raises(ValueError, match="can only factor square matrices"):
        spla.splu(A)
    with pytest.raises(ValueError, match="can only factor square matrices"):
        fem._splu(A)


@pytest.mark.parametrize("other", ["pattern", "format"])
def test_solve_complex_rejects_a_pair_on_two_patterns(assembled_cache, other):
    msh, dm, M, S = assembled_cache(2 ** -2, 1.0, fem.MIXED, 1.0)
    S = S + sp.eye_array(dm.n_dofs, k=2) if other == "pattern" else S.tocsc()
    message = (f"mass {M.shape} with {M.nnz} entries and stiffness {S.shape} with {S.nnz} "
               "entries are not CSR arrays on one pattern")
    with pytest.raises(ValueError, match=re.escape(message)):
        fem.solve_complex_symmetric(1.0 + 1.0j, M, S, np.ones(dm.n_dofs, dtype=complex))


class _CountingLU:
    """SuperLU proxy that counts solves and scales the first ``spoil`` of them by 1 + ``error``."""

    def __init__(self, lu, spoil, error):
        self.lu, self.spoil, self.error, self.solves = lu, spoil, error, 0

    def solve(self, rhs, trans="N"):
        self.solves += 1
        x = self.lu.solve(rhs, trans=trans)
        return x * (1.0 + self.error) if self.solves <= self.spoil else x


def _spoil_splu(monkeypatch, spoil, error=1e-3):
    """Route fem's SuperLU factorizations through _CountingLU; returns the list of proxies."""
    made = []
    real_splu = fem._splu

    def splu(A):
        made.append(_CountingLU(real_splu(A), spoil, error))
        return made[-1]

    monkeypatch.setattr(fem, "_splu", splu)
    return made


@pytest.mark.parametrize("spoil, solves", [(False, 1), (True, 2)])
def test_refinement_runs_only_when_residual_misses_contract(monkeypatch, assembled_cache,
                                                            spoil, solves):
    # the real solves refine once, and only when the first residual misses 1e-10
    msh, dm, M, S = assembled_cache(2 ** -3, 3.0, fem.MIXED, 1.0)
    made = _spoil_splu(monkeypatch, spoil)
    b = np.ones(dm.n_dofs)
    x = fem.solve_real_spd(S, b)
    assert made[0].solves == solves
    assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)


# Solves measured on this system: the relative residual reads 1, 8.9e-6,
# 6.8e-12 and 1.1e-14 before each solve and after the last, so the
# single-precision factor takes two refinement steps to reach 1e-12; with
# every solve spoiled by 1e-3, each step gains only that factor.
@pytest.mark.parametrize("spoil, solves", [(0, 3), (math.inf, 5)])
def test_node_solve_refines_until_the_residual_is_at_most_1e_12(monkeypatch, assembled_cache,
                                                                spoil, solves):
    msh, dm, M, S = assembled_cache(2 ** -3, 3.0, fem.MIXED, 1.0)
    made = _spoil_splu(monkeypatch, spoil)
    b = np.ones(dm.n_dofs, dtype=complex)
    z = 1.0 + 1.0j
    x = fem.solve_complex_symmetric(z, M, S, b)
    assert made[0].solves == solves
    assert np.linalg.norm((z * M + S) @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_node_solve_raises_when_a_step_fails_to_halve_the_residual(monkeypatch, assembled_cache):
    # every solve returns twice its answer, so the first leaves the residual
    # at -b, and refinement stops after that one solve
    msh, dm, M, S = assembled_cache(2 ** -3, 3.0, fem.MIXED, 1.0)
    made = _spoil_splu(monkeypatch, math.inf, error=1.0)
    with pytest.raises(fem.SolverError, match=r"complex symmetric solve: relative residual "
                                              r"\S+ exceeds 1e-10 after 0 refinement steps$") as info:
        fem.solve_complex_symmetric(2.0 + 3.0j, M, S, np.ones(dm.n_dofs, dtype=complex))
    assert made[0].solves == 1
    assert info.value.residual == pytest.approx(1.0, rel=1e-4)


def _real_and_node_solve(kind, assembled_cache):
    """The solve ``b -> x`` of ``kind``, real (S) or node (z^a M + S), on a small mixed system.

    Returned with the size of its system.
    """
    msh, dm, M, S = assembled_cache(2 ** -3, 3.0, fem.MIXED, 1.0)
    if kind == "real":
        return (lambda b: fem.solve_real_spd(S, b.real)), dm.n_dofs
    return (lambda b: fem.solve_complex_symmetric((2.0 + 3.0j) ** 0.5, M, S, b)), dm.n_dofs


@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("kind", ["real", "node"])
def test_residual_contract_holds_at_any_scale_of_the_right_hand_side(monkeypatch,
                                                                     assembled_cache, kind,
                                                                     scale):
    # unscaled, the norms of r and b under- or overflow alike, to 0 or inf,
    # and a spoiled solve would pass: the real one ends 1e-6 off with both
    # of its solves spoiled by 1e-3, the node one at 1 with each doubled
    solve, n = _real_and_node_solve(kind, assembled_cache)
    if kind == "real":
        _spoil_splu(monkeypatch, 2)
    else:
        _spoil_splu(monkeypatch, math.inf, error=1.0)
    with pytest.raises(fem.SolverError, match="exceeds 1e-10") as info:
        solve(scale * np.ones(n, dtype=complex))
    assert info.value.residual > 1e-10


@pytest.mark.parametrize("kind", ["real", "node"])
def test_a_zero_right_hand_side_gives_exact_zeros(assembled_cache, kind):
    solve, n = _real_and_node_solve(kind, assembled_cache)
    x = solve(np.zeros(n, dtype=complex))
    assert x.dtype == (float if kind == "real" else complex)
    assert np.array_equal(x, np.zeros(n))


@pytest.mark.parametrize("kind", ["real", "node"])
def test_a_tiny_right_hand_side_scales_the_solution(assembled_cache, kind):
    solve, n = _real_and_node_solve(kind, assembled_cache)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = solve(b)
    assert np.linalg.norm(solve(1e-200 * b) / 1e-200 - x) <= 1e-12 * np.linalg.norm(x)


def test_node_solve_with_a_huge_coefficient_matches_default_lu(assembled_cache):
    # |zalpha| = 1e40: the node matrix reaches about 1e38, near single
    # precision's largest value, 3.4e38, before it is scaled
    msh, dm, M, S = assembled_cache(2 ** -3, 3.0, fem.MIXED, 1.0)
    za = 1e40 * np.exp(0.3j)
    b = M @ np.random.default_rng(5).standard_normal(dm.n_dofs) + 0j
    x = fem.solve_complex_symmetric(za, M, S, b)
    A = za * M + S
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    ref = spla.splu(sp.csc_matrix(A)).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)


def test_project_raises_when_refinement_misses_contract(monkeypatch, mesh_cache):
    # the first solve and the refinement are both spoiled, so the mass solve
    # ends 1e-6 off and the projection must refuse it
    msh = mesh_cache(2 ** -3, 3.0)
    dm = sf.build_dofmap(msh, fem.MIXED)
    made = _spoil_splu(monkeypatch, 2)
    with pytest.raises(fem.SolverError, match="L2 projection") as info:
        fem.l2_project(msh, dm, sf.example2(0.5).u0)
    assert made[0].solves == 2
    assert info.value.residual > 1e-10


# Run in a fresh interpreter, as conftest imports scipy.sparse.linalg before
# sectorfem: one Example 2 solve, then the modules it loaded and whether a
# later import of scipy.sparse.linalg shares fem's SuperLU.  With a last
# argument, scipy.sparse claims that path as its file, so the loader finds
# no extension where it looks and must fall back to the ordinary import.
_FOOTPRINT_SCRIPT = """
import json, sys
import numpy as np
import scipy.sparse
if len(sys.argv) > 2:
    scipy.sparse.__file__ = sys.argv[2]
import sectorfem as sf
from sectorfem import fem
spec = sf.example2(0.5)
msh = sf.generate_sector_mesh(spec.beta, 2 ** -3, 3.0)
uh, _ = sf.solve_spec(spec, msh, sf.build_dofmap(msh, spec.bc_kind))
np.save(sys.argv[1], uh)
loaded = [name for name in ("scipy.sparse.linalg", "scipy.linalg", "scipy.special",
                            "scipy.optimize") if name in sys.modules]
import scipy.sparse.linalg as spla
shared = (fem._superlu is sys.modules[fem._SUPERLU] and fem._superlu.SuperLU is spla.SuperLU
          and type(fem._splu(scipy.sparse.eye_array(3, format="csc"))) is spla.SuperLU)
print(json.dumps({"loaded": loaded, "shared": shared}))
"""


def _footprint_run(tmp_path, *fallback):
    """Run _FOOTPRINT_SCRIPT in a fresh process; returns its report and its solution."""
    out = tmp_path / "uh.npy"
    run = subprocess.run([sys.executable, "-W", "error", "-c", _FOOTPRINT_SCRIPT, str(out),
                          *fallback], env=fresh_interpreter_env(), capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(run.stdout), np.load(out)


def _example2_coarse_solution():
    spec = sf.example2(0.5)
    msh = sf.generate_sector_mesh(spec.beta, 2 ** -3, 3.0)
    return sf.solve_spec(spec, msh, sf.build_dofmap(msh, spec.bc_kind))[0]


def test_import_and_solve_leave_scipy_sparse_linalg_unloaded(tmp_path):
    report, uh = _footprint_run(tmp_path)
    assert report == {"loaded": [], "shared": True}
    expect = _example2_coarse_solution()
    assert uh.dtype == expect.dtype and np.array_equal(uh, expect)


def test_superlu_falls_back_to_the_ordinary_import(tmp_path):
    moved = tmp_path / "moved" / "sparse" / "__init__.py"
    report, uh = _footprint_run(tmp_path, str(moved))
    assert report["shared"] and "scipy.sparse.linalg" in report["loaded"]
    expect = _example2_coarse_solution()
    assert uh.dtype == expect.dtype and np.array_equal(uh, expect)


def test_superlu_module_is_the_one_scipy_sparse_linalg_imports_later():
    # fem registers the extension module before scipy.sparse.linalg exists:
    # the later import finds that module, but does not make it an attribute
    # of scipy.sparse.linalg._dsolve
    script = """
import sectorfem
from sectorfem import fem
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve import _superlu
assert _superlu is fem._superlu
assert isinstance(spla.splu(sp.eye_array(3, format="csc")), fem._superlu.SuperLU)
"""
    subprocess.run([sys.executable, "-W", "error", "-c", script], env=fresh_interpreter_env(),
                   check=True, capture_output=True, timeout=120)


def test_solver_error_carries_residual():
    A = sp.csr_array(np.array([[1.0, 1.0], [1.0, 1.0]]))  # singular
    with pytest.raises(fem.SolverError):
        fem.solve_real_spd(A, np.array([1.0, 0.0]))


def test_solver_error_names_the_bound_it_checked(monkeypatch):
    monkeypatch.setattr(fem, "_RESIDUAL_TOL", 0.0)
    rng = np.random.default_rng(42)
    A = rng.standard_normal((50, 50))
    A = sp.csr_array(A @ A.T + 50 * np.eye(50))
    with pytest.raises(fem.SolverError, match=r"relative residual \S+ exceeds 0$") as info:
        fem.solve_real_spd(A, A @ rng.standard_normal(50))
    assert info.value.residual > 0 and "1e-10" not in str(info.value)


def test_smallest_eigenvalue_matches_bessel_oracle(assembled_cache):
    msh, dm, M, S = assembled_cache(2 ** -5, 1.5, fem.DIRICHLET, 1.0)
    lam, vecs = smallest_eigenpairs(S, M, k=3)
    ref = sf.first_bessel_zero(BETA) ** 2
    assert np.all(lam > 0)
    assert lam[0] == pytest.approx(ref, rel=5e-3)
    # eigen-residual sanity
    r = S @ vecs[:, 0] - lam[0] * (M @ vecs[:, 0])
    assert np.linalg.norm(r) < 1e-8


def test_galerkin_orthogonality_of_elliptic_solve(assembled_cache):
    ell = sf.elliptic_singular()
    msh, dm, M, S = assembled_cache(2 ** -4, 1.5, fem.DIRICHLET, ell.K)
    b = fem.assemble_load(msh, dm, ell.f)
    uh = fem.solve_real_spd(S, b)
    assert np.linalg.norm(S @ uh - b) / np.linalg.norm(b) <= 1e-10
