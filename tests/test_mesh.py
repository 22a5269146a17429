"""Mesh generation, grading audit, conformity and text round trip."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import sectorfem as sf
from sectorfem.mesh import (EDGE_ARC, EDGE_THETA0, EDGE_THETA_MAX, Mesh,
                            triangle_areas, triangle_diameters,
                            triangle_origin_distances)

BETA = 2.0 / 3.0


@pytest.mark.parametrize("bad", [dict(beta=0.4), dict(beta=1.0), dict(h_star=0.6),
                                 dict(h_star=0.0), dict(h_star=-0.1), dict(gamma=0.9)])
def test_generate_rejects_bad_parameters(bad):
    kwargs = dict(beta=BETA, h_star=0.125, gamma=1.5)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        sf.generate_sector_mesh(**kwargs)


def test_positive_areas_and_origin_vertex(mesh_cache):
    msh = mesh_cache(2 ** -4, 1.5)
    assert np.all(triangle_areas(msh) > 0)
    assert np.hypot(*msh.vertices[0]) == 0.0


@pytest.mark.parametrize("gamma", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("h_star", [2 ** -3, 2 ** -5])
def test_conformity(mesh_cache, gamma, h_star):
    msh = mesh_cache(h_star, gamma)
    counts = Counter()
    for tri in msh.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            counts[frozenset((tri[a], tri[b]))] += 1
    assert set(counts.values()) <= {1, 2}
    boundary = {e for e, c in counts.items() if c == 1}
    tagged = {frozenset((i, j)) for i, j, _ in msh.boundary_edges}
    assert boundary == tagged


def test_boundary_tags_match_geometry(mesh_cache):
    msh = mesh_cache(2 ** -4, 1.5)
    theta_max = math.pi / BETA
    for i, j, tag in msh.boundary_edges:
        for v in (i, j):
            x, y = msh.vertices[v]
            r = np.hypot(x, y)
            theta = math.atan2(y, x) % (2 * math.pi)
            if tag == EDGE_THETA0:
                assert abs(y) < 1e-12 and x >= 0
            elif tag == EDGE_THETA_MAX:
                assert r < 1e-12 or abs(theta - theta_max) < 1e-12
            else:
                assert tag == EDGE_ARC
                assert abs(r - 1.0) < 1e-12


def test_arc_vertices_on_unit_circle(mesh_cache):
    msh = mesh_cache(2 ** -5, 3.0)
    arc_ids = {v for i, j, tag in msh.boundary_edges if tag == EDGE_ARC for v in (i, j)}
    radii = np.hypot(*msh.vertices[sorted(arc_ids)].T)
    assert np.max(np.abs(radii - 1.0)) < 1e-12


@pytest.mark.parametrize("gamma", [1.0, 1.5, 3.0])
def test_grading_audit_passes_on_generated(mesh_cache, gamma):
    for h_star in (2 ** -3, 2 ** -4, 2 ** -5):
        report = sf.verify_grading(mesh_cache(h_star, gamma), 0.1, 10.0)
        assert report.passed, report.violations[:3]
        assert 0.1 <= report.observed_c <= report.observed_C <= 10.0


def test_grading_negative_control_uniform_as_gamma3(mesh_cache):
    uniform = mesh_cache(2 ** -5, 1.0)
    mislabeled = replace(uniform, gamma=3.0)
    report = sf.verify_grading(mislabeled, 0.1, 10.0)
    assert not report.passed
    # the characteristic failure: near-origin elements far larger than h**gamma
    near = [v for v in report.violations if "near-corner" in v[3]]
    assert near and all(h_tri > 10.0 * 2 ** -15 for _, h_tri, _, _ in near)


def test_grading_single_triangle_at_unit_distance():
    h = 0.05
    verts = np.array([[1.0, 0.0], [1.0 + h, 0.0], [1.0, h]])
    tris = np.array([[0, 1, 2]])
    edges = ((0, 1, EDGE_THETA0), (1, 2, EDGE_ARC), (2, 0, EDGE_ARC))
    for gamma in (1.0, 2.0, 7.0):
        msh = Mesh(verts, tris, edges, BETA, gamma, h)
        # r_tri = 1 makes the graded bound h * r**(1-1/gamma) = h for any gamma
        assert sf.verify_grading(msh).passed


def test_quasiuniform_diameter_ratio(mesh_cache):
    msh = mesh_cache(2 ** -4, 1.0)
    d = triangle_diameters(msh)
    assert d.max() / d.min() <= 10.0


def test_mesh_stats_single_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    msh = Mesh(verts, np.array([[0, 1, 2]]),
               ((0, 1, EDGE_THETA0), (1, 2, EDGE_ARC), (2, 0, EDGE_THETA_MAX)),
               BETA, 1.0, 0.5)
    stats = sf.mesh_stats(msh)
    assert stats["h_max"] == pytest.approx(math.sqrt(2.0))
    assert stats["min_angle"] == pytest.approx(45.0)
    assert stats["n_vertices"] == 3 and stats["n_triangles"] == 1


@pytest.mark.parametrize("gamma", [1.0, 1.5, 3.0])
def test_h_max_within_factor_two(mesh_cache, gamma):
    for h_star in (2 ** -3, 2 ** -4, 2 ** -5):
        stats = sf.mesh_stats(mesh_cache(h_star, gamma))
        assert h_star / 2 <= stats["h_max"] <= 2 * h_star


def test_min_angle_bound(mesh_cache):
    for gamma in (1.0, 1.5, 3.0):
        stats = sf.mesh_stats(mesh_cache(2 ** -4, gamma))
        assert stats["min_angle"] >= 20.0


def test_shape_regularity_circum_to_inradius(mesh_cache):
    msh = mesh_cache(2 ** -4, 3.0)
    p = msh.vertices[msh.triangles]
    a = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
    b = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    c = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    area = triangle_areas(msh)
    s = 0.5 * (a + b + c)
    ratio = (a * b * c / (4.0 * area)) / (area / s)
    assert ratio.max() <= 10.0


def test_dof_growth_under_halving(mesh_cache):
    n = [sf.build_dofmap(mesh_cache(h, 1.5), "dirichlet").n_dofs
         for h in (2 ** -3, 2 ** -4)]
    assert 3.0 <= n[1] / n[0] <= 5.5


def test_triangle_count_at_least_triples(mesh_cache):
    for gamma in (1.0, 3.0):
        t = [mesh_cache(h, gamma).n_triangles for h in (2 ** -3, 2 ** -4, 2 ** -5)]
        assert t[1] >= 3 * t[0] and t[2] >= 3 * t[1]


def test_area_consistency(mesh_cache):
    target = 0.5 * math.pi / BETA
    for h_star in (2 ** -3, 2 ** -4, 2 ** -5):
        defect = target - triangle_areas(mesh_cache(h_star, 1.5)).sum()
        assert 0.0 < defect <= h_star ** 2


def test_origin_distances():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    msh = Mesh(verts, tris, ((0, 1, EDGE_THETA0), (1, 3, EDGE_ARC),
                             (3, 2, EDGE_ARC), (2, 0, EDGE_THETA_MAX)), BETA, 1.0, 0.5)
    d = triangle_origin_distances(msh)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(math.sqrt(0.5))


def test_write_read_round_trip(tmp_path, mesh_cache):
    msh = mesh_cache(2 ** -3, 1.5)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    header = path.read_text().splitlines()[0].split()
    assert header[1:6:2] == ["vertices", "triangles", "boundary_edges"]
    assert [int(v) for v in header[:6:2]] == [msh.n_vertices, msh.n_triangles,
                                              len(msh.boundary_edges)]
    assert header[6::2] == ["beta", "gamma", "h_star"]
    back = sf.read_mesh(path, gamma=1.5, h_star=2 ** -3)
    assert np.allclose(back.vertices, msh.vertices)
    assert np.array_equal(back.triangles, msh.triangles)
    assert back.boundary_edges == msh.boundary_edges
    assert back.beta == pytest.approx(BETA, rel=1e-12)
    assert sf.verify_grading(back).passed


def test_round_trip_keeps_metadata_and_the_solution(tmp_path, assembled_cache):
    spec = sf.example2(0.5)
    msh, dm, M, S = assembled_cache(2 ** -4, 3.0, sf.MIXED, spec.K)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    back = sf.read_mesh(path)
    assert (back.beta, back.gamma, back.h_star) == (msh.beta, msh.gamma, msh.h_star)
    assert np.array_equal(back.vertices, msh.vertices)
    assert sf.verify_grading(back).passed
    dm_back = sf.build_dofmap(back, sf.MIXED)
    got = sf.inverse_laplace_evolve(spec, back, dm_back, sf.assemble_mass(back, dm_back),
                                    sf.assemble_stiffness(back, dm_back, spec.K), 1.0, 8)
    assert np.array_equal(got, sf.inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8))


def test_read_without_metadata_and_keyword_precedence(tmp_path, mesh_cache):
    msh = mesh_cache(2 ** -3, 3.0)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    lines = path.read_text().splitlines()
    given = sf.read_mesh(path, gamma=1.5, h_star=0.2)
    assert (given.beta, given.gamma, given.h_star) == (msh.beta, 1.5, 0.2)
    # a header without the suffix reads as before: gamma 1, h_star = max diameter
    lines[0] = " ".join(lines[0].split()[:6])
    path.write_text("\n".join(lines) + "\n")
    old = sf.read_mesh(path)
    assert old.beta == pytest.approx(BETA, rel=1e-12)
    assert (old.gamma, old.h_star) == (1.0, triangle_diameters(msh).max())
    lines[0] += " beta 0.5 gamma 3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="header suffix"):
        sf.read_mesh(path)


def test_solution_does_not_depend_on_mesh_metadata(tmp_path, assembled_cache):
    # quadrature near the corner is decided from the vertices alone, so a
    # file without the metadata suffix reproduces the generated mesh's numbers
    spec = sf.example1(0.5)
    msh, dm, M, S = assembled_cache(2 ** -4, 3.0, sf.DIRICHLET, spec.K)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    lines = path.read_text().splitlines()
    lines[0] = " ".join(lines[0].split()[:6])
    path.write_text("\n".join(lines) + "\n")
    bare = sf.read_mesh(path)
    assert (bare.gamma, bare.h_star) != (msh.gamma, msh.h_star)
    dm_bare = sf.build_dofmap(bare, sf.DIRICHLET)
    got = sf.inverse_laplace_evolve(spec, bare, dm_bare, sf.assemble_mass(bare, dm_bare),
                                    sf.assemble_stiffness(bare, dm_bare, spec.K), 1.0, 8)
    ref = sf.inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    assert np.array_equal(got, ref)

    def exact(x, y):
        return spec.exact(x, y, 1.0)

    assert sf.l2_error(bare, dm_bare, got, exact) == sf.l2_error(msh, dm, ref, exact)


@pytest.mark.parametrize("index", ["-1", "n_vertices"])
@pytest.mark.parametrize("line", ["triangle", "boundary_edge"])
def test_read_rejects_out_of_range_index(tmp_path, mesh_cache, line, index):
    msh = mesh_cache(2 ** -2, 1.0)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    lines = path.read_text().splitlines()
    if line == "triangle":
        k = 1 + msh.n_vertices
    else:  # a theta_max edge: read_mesh infers beta from its vertices
        k = next(k for k, text in enumerate(lines) if text.endswith(EDGE_THETA_MAX))
    fields = lines[k].split()
    fields[1] = str(-1 if index == "-1" else msh.n_vertices)
    lines[k] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"outside \[0, {msh.n_vertices}\)"):
        sf.read_mesh(path)


def test_mesh_immutable(mesh_cache):
    msh = mesh_cache(2 ** -3, 1.0)
    with pytest.raises(ValueError):
        msh.vertices[0, 0] = 5.0
