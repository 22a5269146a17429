"""Mesh generation, grading audit, conformity and text round trip."""

import math
import re
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sectorfem as sf
from sectorfem import mesh as mesh_module
from sectorfem.mesh import (EDGE_ARC, EDGE_THETA0, EDGE_THETA_MAX, Mesh,
                            triangle_areas, triangle_diameters,
                            triangle_origin_distances)
from conftest import traced_peak_mb

BETA = 2.0 / 3.0


@pytest.mark.parametrize("bad", [dict(beta=0.4), dict(beta=1.0), dict(h_star=0.6),
                                 dict(h_star=0.0), dict(h_star=-0.1), dict(gamma=0.9),
                                 dict(gamma=math.nan), dict(gamma=math.inf),
                                 dict(gamma=1e308), dict(h_star=2 ** -6, gamma=1000.0),
                                 dict(h_star=0.5, gamma=1000.0),
                                 dict(h_star=0.25, gamma=500.0)])
def test_generate_rejects_bad_parameters(bad):
    kwargs = dict(beta=BETA, h_star=0.125, gamma=1.5)
    kwargs.update(bad)
    with pytest.raises(ValueError) as info:
        sf.generate_sector_mesh(**kwargs)
    if kwargs["gamma"] in (500.0, 1000.0):
        # the first ring radius is nonzero but its triangles' areas underflow
        assert (f"h_star={kwargs['h_star']} and gamma={kwargs['gamma']} grade the mesh "
                "below double precision") in str(info.value)


def test_positive_areas_and_origin_vertex(mesh_cache):
    msh = mesh_cache(2 ** -4, 1.5)
    assert np.all(triangle_areas(msh) > 0)
    assert np.hypot(*msh.vertices[0]) == 0.0


def assert_conforming(msh):
    """Loop reference for the vectorised conformity check in Mesh."""
    counts = Counter()
    for tri in msh.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            counts[frozenset((tri[a], tri[b]))] += 1
    assert set(counts.values()) <= {1, 2}
    boundary = {e for e, c in counts.items() if c == 1}
    tagged = {frozenset((i, j)) for i, j, _ in msh.boundary_edges}
    assert boundary == tagged


@pytest.mark.parametrize("gamma", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("h_star", [2 ** -3, 2 ** -5])
def test_conformity(mesh_cache, gamma, h_star):
    assert_conforming(mesh_cache(h_star, gamma))


def assert_edge_numbering(msh):
    """Loop reference for ``Mesh.triangle_edges``."""
    numbers = msh.triangle_edges
    assert numbers.dtype == np.int32 and numbers.shape == (msh.n_triangles, 3)
    assert not numbers.flags.writeable
    holders = {}  # edge number -> (its vertex pair (lo, hi), the triangles that hold it)
    for k, (tri, row) in enumerate(zip(msh.triangles.tolist(), numbers.tolist())):
        for c, number in enumerate(row):
            pair = tuple(sorted((tri[(c + 1) % 3], tri[(c + 2) % 3])))
            ends, held = holders.setdefault(number, (pair, []))
            assert ends == pair  # entry c joins vertices c+1 and c+2
            held.append(k)
    assert sorted(holders) == list(range(len(holders)))
    pairs = [holders[number][0] for number in range(len(holders))]
    assert all(p < q for p, q in zip(pairs, pairs[1:]))  # key order lo * nv + hi
    tagged = {tuple(sorted((i, j))) for i, j, _ in msh.boundary_edges}
    assert all(len(held) == (1 if pair in tagged else 2) for pair, held in holders.values())
    assert np.array_equal(replace(msh).triangle_edges, numbers)


@pytest.mark.parametrize("beta, h_star, gamma", [(BETA, 2 ** -1, 1.0), (BETA, 2 ** -3, 1.0),
                                                 (BETA, 2 ** -3, 3.0), (0.55, 2 ** -4, 1.5),
                                                 (0.95, 2 ** -2, 2.0)])
def test_triangle_edges_number_each_edge_once(beta, h_star, gamma):
    assert_edge_numbering(sf.generate_sector_mesh(beta, h_star, gamma))


def test_triangle_edges_of_a_mesh_read_back(tmp_path, mesh_cache):
    msh = mesh_cache(2 ** -3, 1.5)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    got = sf.read_mesh(path)
    assert_edge_numbering(got)
    assert np.array_equal(got.triangle_edges, msh.triangle_edges)


def test_triangle_edges_is_derived_not_a_field_to_set():
    (f,) = [f for f in fields(Mesh) if f.name == "triangle_edges"]
    assert (f.init, f.repr, f.compare) == (False, False, False)


def test_generate_peak_memory_on_the_finest_mesh():
    # 8.4-8.8 MB measured on the finest acceptance-6 mesh (48,450 triangles)
    # while the conformity check counted edges with np.unique; 6.6 MB with
    # the one stable argsort that also numbers them
    assert traced_peak_mb(lambda: sf.generate_sector_mesh(BETA, 2 ** -6, 3.0)) <= 8.8


@settings(max_examples=10, deadline=None)
@given(beta=st.floats(0.55, 0.95), h_star=st.sampled_from([2 ** -2, 2 ** -3, 2 ** -4]),
       gamma=st.floats(1.0, 3.0))
def test_generated_meshes_conform(beta, h_star, gamma):
    # generation builds a Mesh, whose own check has passed; the loop agrees
    assert_conforming(sf.generate_sector_mesh(beta, h_star, gamma))


def zip_rings_loop(bot, top, tris):
    """Loop reference for ``mesh._ring_strips``: zip one pair of vertex rings.

    ``bot``/``top`` list vertex ids including both angular endpoints; the
    ring with the smaller next angular fraction advances, and exact ties
    advance the top ring when the bottom index is even.
    """
    ka, kb = len(bot) - 1, len(top) - 1
    ia = ib = 0
    while ia < ka or ib < kb:
        if ia == ka:
            advance_top = True
        elif ib == kb:
            advance_top = False
        else:
            fa, fb = (ia + 1) / ka, (ib + 1) / kb
            if abs(fa - fb) < 1e-12:
                advance_top = ia % 2 == 0
            else:
                advance_top = fb < fa
        if advance_top:
            tris.append((bot[ia], top[ib], top[ib + 1]))
            ib += 1
        else:
            tris.append((bot[ia], top[ib], bot[ia + 1]))
            ia += 1


def sector_mesh_loop(beta, h_star, gamma):
    """Loop reference for ``generate_sector_mesh``: (vertices, triangles, boundary_edges)."""
    theta_max = math.pi / beta
    radii = mesh_module._ring_radii(h_star, gamma)
    counts = [max(3, round(theta_max * r / mesh_module._local_step(r, h_star, gamma)))
              for r in radii]
    verts = [(0.0, 0.0)]
    ring_ids = []
    for r, k in zip(radii, counts):
        ids = list(range(len(verts), len(verts) + k + 1))
        ring_ids.append(ids)
        ang = theta_max * np.arange(k + 1) / k
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
    first = ring_ids[0]
    tris = [(0, first[j], first[j + 1]) for j in range(len(first) - 1)]
    for bot, top in zip(ring_ids[:-1], ring_ids[1:]):
        zip_rings_loop(bot, top, tris)
    edges = [(0, first[0], EDGE_THETA0), (0, first[-1], EDGE_THETA_MAX)]
    for bot, top in zip(ring_ids[:-1], ring_ids[1:]):
        edges.append((bot[0], top[0], EDGE_THETA0))
        edges.append((bot[-1], top[-1], EDGE_THETA_MAX))
    outer = ring_ids[-1]
    edges.extend((outer[j], outer[j + 1], EDGE_ARC) for j in range(len(outer) - 1))
    return np.array(verts), np.array(tris), tuple(edges)


def test_ring_strips_match_loop_reference():
    # every ring-size pair 1..60, zipped in one call; strip p's rings start
    # at arbitrary vertex ids
    ka, kb = (k.ravel() for k in np.meshgrid(np.arange(1, 61), np.arange(1, 61)))
    bot = np.cumsum(ka + kb + 2) - (ka + kb + 2) + 7
    top = bot + ka + 1
    expect = []
    for a, b, i, j in zip(ka, kb, bot, top):
        zip_rings_loop(list(range(i, i + a + 1)), list(range(j, j + b + 1)), expect)
    got = mesh_module._ring_strips(bot, ka, top, kb)
    assert got.shape == (int((ka + kb).sum()), 3)
    assert np.array_equal(got, np.array(expect))
    alone = []
    zip_rings_loop(list(range(1, 7)), list(range(7, 16)), alone)
    assert np.array_equal(mesh_module._ring_strips([1], [5], [7], [8]), np.array(alone))


def assert_matches_loop_reference(beta, h_star, gamma):
    msh = sf.generate_sector_mesh(beta, h_star, gamma)
    verts, tris, edges = sector_mesh_loop(beta, h_star, gamma)
    assert msh.vertices.tobytes() == verts.tobytes()
    assert np.array_equal(msh.triangles, tris)
    assert msh.boundary_edges == edges


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_generate_matches_loop_reference(k, gamma):
    assert_matches_loop_reference(BETA, 2.0 ** -k, gamma)


@settings(max_examples=10, deadline=None)
@given(beta=st.floats(0.55, 0.95), h_star=st.sampled_from([2 ** -2, 2 ** -3, 2 ** -4]),
       gamma=st.floats(1.0, 3.0))
def test_generated_meshes_match_loop_reference(beta, h_star, gamma):
    assert_matches_loop_reference(beta, h_star, gamma)


@settings(max_examples=10, deadline=None)
@given(beta=st.floats(0.55, 0.95), h_star=st.sampled_from([2 ** -2, 2 ** -3, 2 ** -4]),
       gamma=st.floats(1.0, 3.0))
def test_generated_meshes_pass_the_grading_audit(beta, h_star, gamma):
    report = sf.verify_grading(sf.generate_sector_mesh(beta, h_star, gamma))
    assert report.passed, report.violations[:3]


def test_mesh_rejects_edge_in_three_triangles(mesh_cache):
    msh = mesh_cache(2 ** -3, 1.0)
    nt = msh.n_triangles
    k = nt // 2  # an interior triangle: every edge already lies in two
    tris = np.vstack([msh.triangles, msh.triangles[k]])
    with pytest.raises(ValueError, match="shared by more than two triangles") as exc:
        Mesh(msh.vertices, tris, msh.boundary_edges, msh.beta, msh.gamma, msh.h_star)
    holders = re.search(r"triangle\(s\) \[([\d, ]+)\]", str(exc.value)).group(1)
    assert {k, nt} <= {int(v) for v in holders.split(",")}


def _interior_edge(msh):
    tagged = {frozenset((i, j)) for i, j, _ in msh.boundary_edges}
    for k, tri in enumerate(msh.triangles):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            if frozenset((tri[a], tri[b])) not in tagged:
                return k, int(tri[a]), int(tri[b])


@pytest.mark.parametrize("fault", ["missing", "interior", "stray", "duplicate"])
def test_read_rejects_nonconforming_boundary(tmp_path, mesh_cache, fault):
    msh = mesh_cache(2 ** -3, 1.5)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    lines = path.read_text().splitlines()
    arc = next(k for k, text in enumerate(lines) if text.endswith(EDGE_ARC))
    i, j, _ = lines[arc].split()
    if fault == "missing":
        del lines[arc]
        named = rf"edge \({min(int(i), int(j))}, {max(int(i), int(j))}\) of triangle\(s\) \[\d+\]"
        message = "lies in one triangle only but is not a tagged boundary edge"
    elif fault == "interior":
        k, a, b = _interior_edge(msh)
        lines.append(f"{a} {b} {EDGE_ARC}")
        named = rf"of triangle\(s\) \[[\d, ]*\b{k}\b"
        message = "tagged as a boundary edge but is shared by two triangles"
    elif fault == "stray":  # the corner and an arc vertex share no triangle
        lines.append(f"0 {i} {EDGE_ARC}")
        named = rf"boundary edge \(0, {i}\)"
        message = "is not an edge of any triangle"
    else:
        lines.append(lines[arc])
        named = "boundary edge"
        message = "is tagged more than once"
    header = lines[0].split()
    header[4] = str(len(lines) - 1 - msh.n_vertices - msh.n_triangles)
    lines[0] = " ".join(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{named}.*{message}"):
        sf.read_mesh(path)


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
        report = sf.verify_grading(mesh_cache(h_star, gamma))
        assert report.passed, report.violations[:3]
        assert 0.1 <= report.observed_c <= report.observed_C <= 10.0


def test_grading_negative_control_uniform_as_gamma3(mesh_cache):
    uniform = mesh_cache(2 ** -5, 1.0)
    mislabeled = replace(uniform, gamma=3.0)
    report = sf.verify_grading(mislabeled)
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


def test_mesh_rejects_clockwise_triangle(mesh_cache):
    msh = mesh_cache(2 ** -3, 1.0)
    tris = msh.triangles.copy()
    tris[5, [1, 2]] = tris[5, [2, 1]]
    named = re.escape(f"triangle 5 with vertices {tris[5].tolist()}")
    with pytest.raises(ValueError, match=named + ".*clockwise or degenerate"):
        Mesh(msh.vertices, tris, msh.boundary_edges, msh.beta, msh.gamma, msh.h_star)


def test_mesh_rejects_degenerate_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    tris = np.array([[0, 1, 2], [1, 3, 2]])  # vertex 3 lies on edge 1-2
    with pytest.raises(ValueError, match=r"triangle 1 with vertices \[1, 3, 2\]"):
        Mesh(verts, tris, ((0, 1, EDGE_THETA0), (1, 2, EDGE_ARC), (2, 0, EDGE_THETA_MAX)),
             BETA, 1.0, 0.5)


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


@pytest.mark.parametrize("shift, expect", [((0.25, 0.25), 0.0), ((0.0, 0.5), 0.0),
                                           ((-0.5, 0.25), 0.5), ((-0.5, -0.5), math.sqrt(0.5))])
def test_origin_distances_when_the_origin_is_not_a_vertex(shift, expect):
    # the origin strictly inside, on an edge, beside an edge and beside a vertex
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) - shift
    msh = Mesh(verts, np.array([[0, 1, 2]]), ((0, 1, EDGE_THETA0), (1, 2, EDGE_ARC),
                                              (2, 0, EDGE_THETA_MAX)), BETA, 1.0, 0.5)
    assert triangle_origin_distances(msh)[0] == pytest.approx(expect, abs=1e-15)


def test_write_read_round_trip(tmp_path, mesh_cache):
    msh = mesh_cache(2 ** -3, 1.5)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    header = path.read_text().splitlines()[0].split()
    assert header[1:6:2] == ["vertices", "triangles", "boundary_edges"]
    assert [int(v) for v in header[:6:2]] == [msh.n_vertices, msh.n_triangles,
                                              len(msh.boundary_edges)]
    assert header[6::2] == ["beta", "gamma", "h_star"]
    back = sf.read_mesh(path)
    assert (back.gamma, back.h_star) == (1.5, 2 ** -3)
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


def test_read_without_metadata_and_replace_sets_it(tmp_path, mesh_cache):
    msh = mesh_cache(2 ** -3, 3.0)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    back = sf.read_mesh(path)
    restored = replace(back, gamma=1.0, h_star=0.25)
    assert (restored.beta, restored.gamma, restored.h_star) == (msh.beta, 1.0, 0.25)
    assert np.array_equal(restored.vertices, msh.vertices)
    # a header without the suffix, or with only part of it, is rejected
    # with the header a file must carry, not read with guessed metadata
    lines = path.read_text().splitlines()
    expected = re.escape("'<V> vertices <T> triangles <B> boundary_edges "
                         "beta <b> gamma <g> h_star <h>'")
    for header in (" ".join(lines[0].split()[:6]), " ".join(lines[0].split()[:10])):
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=f"mesh header .* is not {expected}"):
            sf.read_mesh(path)


def test_solution_does_not_depend_on_mesh_metadata(assembled_cache):
    # quadrature near the corner is decided from the vertices alone, so a
    # mesh carrying other gamma and h_star reproduces the generated mesh's numbers
    spec = sf.example1(0.5)
    msh, dm, M, S = assembled_cache(2 ** -4, 3.0, sf.DIRICHLET, spec.K)
    other = replace(msh, gamma=1.0, h_star=triangle_diameters(msh).max())
    assert (other.gamma, other.h_star) != (msh.gamma, msh.h_star)
    dm_other = sf.build_dofmap(other, sf.DIRICHLET)
    got = sf.inverse_laplace_evolve(spec, other, dm_other, sf.assemble_mass(other, dm_other),
                                    sf.assemble_stiffness(other, dm_other, spec.K), 1.0, 8)
    ref = sf.inverse_laplace_evolve(spec, msh, dm, M, S, 1.0, 8)
    assert np.array_equal(got, ref)

    def exact(x, y):
        return spec.exact(x, y, 1.0)

    assert sf.l2_error(other, dm_other, got, exact) == sf.l2_error(msh, dm, ref, exact)


@pytest.mark.parametrize("index", ["-1", "n_vertices"])
@pytest.mark.parametrize("line", ["triangle", "boundary_edge"])
def test_read_rejects_out_of_range_index(tmp_path, mesh_cache, line, index):
    msh = mesh_cache(2 ** -2, 1.0)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    lines = path.read_text().splitlines()
    if line == "triangle":
        k = 1 + msh.n_vertices
    else:
        k = next(k for k, text in enumerate(lines) if text.endswith(EDGE_THETA_MAX))
    fields = lines[k].split()
    fields[1] = str(-1 if index == "-1" else msh.n_vertices)
    lines[k] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"outside \[0, {msh.n_vertices}\)"):
        sf.read_mesh(path)


@pytest.mark.parametrize("keep", ["all but the last 10", "the first 30"])
def test_read_rejects_a_truncated_file(tmp_path, mesh_cache, keep):
    # the message names the file and both counts, where parsing the short
    # file would fail on an unpacking or a numpy shape error
    msh = mesh_cache(2 ** -2, 1.0)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    lines = path.read_text().splitlines()
    kept = lines[:-10] if keep == "all but the last 10" else lines[:30]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"mesh file {path} has {len(kept)} lines, "
                                                   "but its header promises") +
                       rf" .* = {len(lines)}$"):
        sf.read_mesh(path)


def test_mesh_rejects_unknown_boundary_tag(tmp_path, mesh_cache):
    # an 'ARC' edge would leave its vertex free in the mixed dof map (29
    # dofs instead of 28) and go into a file that read_mesh refuses
    msh = mesh_cache(2 ** -2, 1.0)
    i, j, tag = msh.boundary_edges[-1]
    assert tag == EDGE_ARC
    edges = msh.boundary_edges[:-1] + ((i, j, "ARC"),)
    with pytest.raises(ValueError, match=rf"boundary edge \({i}, {j}\) has unknown tag 'ARC'"):
        Mesh(msh.vertices, msh.triangles, edges, msh.beta, msh.gamma, msh.h_star)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    path.write_text(path.read_text().replace(f"{i} {j} {EDGE_ARC}\n", f"{i} {j} ARC\n"))
    with pytest.raises(ValueError, match="unknown tag 'ARC'"):
        sf.read_mesh(path)


def test_read_builds_the_mesh_once(tmp_path, mesh_cache, monkeypatch):
    msh = mesh_cache(2 ** -3, 3.0)
    path = tmp_path / "mesh.txt"
    sf.write_mesh(msh, path)
    calls = []
    real = mesh_module._check_conformity
    monkeypatch.setattr(mesh_module, "_check_conformity",
                        lambda m: calls.append(m) or real(m))
    got = sf.read_mesh(path)
    assert len(calls) == 1
    assert np.array_equal(got.vertices, msh.vertices)
    assert (got.beta, got.gamma, got.h_star) == (msh.beta, msh.gamma, msh.h_star)


def test_mesh_immutable(mesh_cache):
    msh = mesh_cache(2 ** -3, 1.0)
    with pytest.raises(ValueError):
        msh.vertices[0, 0] = 5.0
