"""Graded triangulations of the unit circular sector with a re-entrant corner.

The domain is the sector ``{(r, theta): 0 < r < 1, 0 < theta < pi/beta}``
with ``1/2 < beta < 1``, so the corner at the origin has interior angle
``pi/beta > pi``.  Meshes are assembled from concentric vertex rings whose
radii follow the local refinement rule ``dr ~ h * r**(1 - 1/gamma)``.  Away
from the corner the element diameters then scale like
``h * r**(1 - 1/gamma)`` while the innermost band has diameters ``~h**gamma``;
``gamma = 1`` reproduces a quasiuniform mesh; :func:`verify_grading` audits
the rule with the fixed bounds 0.1 and 10 on the diameter ratio.

:func:`write_mesh` and :func:`read_mesh` exchange meshes as plain text
whose header carries the generation metadata (beta, gamma, h_star);
``read_mesh`` rejects a header without it rather than guess it, and a file
whose line count is not the one its header promises.

Mesh values are checked on construction (indices, boundary tags,
orientation, conformity), then immutable (the mesh keeps read-only
copies of the vertex/triangle arrays, taken after the checks, so the
caller's stay writeable) and safe to share across threads.  The mesh
keeps what its checks compute for the P1 integrals and assembly: the
orientation check's areas as ``Mesh.areas``, and the conformity check's
edge numbering and endpoints as ``Mesh.triangle_edges`` and ``Mesh.edges``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Boundary edge tags.
EDGE_THETA0 = "theta0"        # radial edge along theta = 0
EDGE_THETA_MAX = "theta_max"  # radial edge along theta = pi/beta
EDGE_ARC = "arc"              # chords approximating the unit-circle arc

_EDGE_TAGS = (EDGE_THETA0, EDGE_THETA_MAX, EDGE_ARC)
_GRADING_C_LO, _GRADING_C_HI = 0.1, 10.0  # verify_grading's bounds on h_tri / target


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangulation of the sector.

    Attributes
    ----------
    vertices : (nv, 2) float array, finite vertex coordinates; vertex 0 is the
        corner.
    triangles : (nt, 3) int array, counter-clockwise vertex triples.
    boundary_edges : tuple of (i, j, tag) with tag one of EDGE_THETA0,
        EDGE_THETA_MAX, EDGE_ARC.
    beta : aperture parameter; the sector angle is pi/beta.
    gamma : grading exponent (>= 1; 1 means quasiuniform).
    h_star : nominal mesh parameter used to generate the mesh.
    triangle_edges : (nt, 3) int32 array, derived (not an argument, nor in
        ``repr``): entry c numbers the edge joining vertices c+1 and c+2;
        the edges are numbered 0..ne-1 in order of ``lo * nv + hi``.  It
        serves the conformity check and the assembly's edge sums.
    edges : (2, ne) int32 array, derived: column k is edge k's ``(lo, hi)``.
    areas : (nt,) float array, derived: signed triangle areas, all positive.

    Meshes compare and hash by identity, as array fields cannot be
    compared with ``==`` as one truth value.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: tuple
    beta: float
    gamma: float
    h_star: float
    triangle_edges: np.ndarray = field(init=False, repr=False, compare=False)
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    areas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the checks read the caller's arrays; the frozen copies come after them
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=np.int64))
        object.__setattr__(self, "boundary_edges",
                           tuple((int(i), int(j), str(tag)) for i, j, tag in self.boundary_edges))
        # numpy would wrap a negative index to the end of the vertex array,
        # so a bad index otherwise yields a valid-looking but wrong mesh.
        nv = self.vertices.shape[0]
        bad = np.flatnonzero(((self.triangles < 0) | (self.triangles >= nv)).any(axis=1))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"triangle {k} has vertex indices {self.triangles[k].tolist()} "
                             f"outside [0, {nv})")
        for i, j, tag in self.boundary_edges:
            if not (0 <= i < nv and 0 <= j < nv):
                raise ValueError(f"boundary edge ({i}, {j}, {tag}) has a vertex index "
                                 f"outside [0, {nv})")
            if tag not in _EDGE_TAGS:
                raise ValueError(f"boundary edge ({i}, {j}) has unknown tag {tag!r}, "
                                 f"not one of {_EDGE_TAGS}")
        # a NaN area passes the orientation test below, so check first
        nonfinite = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if nonfinite.size:
            k = int(nonfinite[0])
            raise ValueError(f"vertex {k} has non-finite coordinates {self.vertices[k].tolist()}")
        # half of e1 x e2 for the edge vectors e1 = v0 - v2 and e2 = v1 - v0
        x, y = self.vertices[:, 0][self.triangles], self.vertices[:, 1][self.triangles]
        object.__setattr__(self, "areas", 0.5 * ((x[:, 0] - x[:, 2]) * (y[:, 1] - y[:, 0])
                                                 - (y[:, 0] - y[:, 2]) * (x[:, 1] - x[:, 0])))
        del x, y
        flipped = np.flatnonzero(self.areas <= 0)
        if flipped.size:
            k = int(flipped[0])
            raise ValueError(f"triangle {k} with vertices {self.triangles[k].tolist()} at "
                             f"{self.vertices[self.triangles[k]].tolist()} is clockwise or "
                             "degenerate (signed area <= 0)")
        for name, value in zip(("triangle_edges", "edges"), _check_conformity(self)):
            object.__setattr__(self, name, value)
        for name in ("vertices", "triangles"):
            object.__setattr__(self, name, np.array(getattr(self, name), order="C"))
        for name in ("vertices", "triangles", "triangle_edges", "edges", "areas"):
            getattr(self, name).setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def _check_conformity(mesh: Mesh):
    """Number the undirected edges; raise ValueError unless they form a conforming mesh.

    Each edge must lie in at most two triangles, and the edges that lie in
    exactly one must be the tagged ``boundary_edges``, each tagged once.
    Edges are compared as one int64 key ``lo * nv + hi`` and numbered in
    key order by one stable sort of the 3*nt element edges' keys.  Returns
    the ``Mesh.triangle_edges`` (nt, 3) and ``Mesh.edges`` (2, ne) arrays.
    """
    nv = mesh.n_vertices
    a, b = mesh.triangles[:, [1, 2, 0]], mesh.triangles[:, [2, 0, 1]]  # edge c's ends
    keys = np.minimum(a, b)
    keys *= nv
    keys += np.maximum(a, b)
    del a, b  # whole-mesh temporaries, freed before the sort
    order = np.argsort(keys.ravel(), kind="stable")
    keys = keys.ravel()[order]
    first = np.diff(keys, prepend=-1) != 0
    number = np.empty(keys.size, dtype=np.int32)
    number[order] = np.cumsum(first, dtype=np.int32) - 1
    del order
    number = number.reshape(-1, 3)
    start = np.flatnonzero(first)
    edges, counts = keys[start], np.diff(start, append=keys.size)

    def described(key):
        holders = np.flatnonzero((number == np.searchsorted(edges, key)).any(axis=1)).tolist()
        return f"edge ({key // nv}, {key % nv}) of triangle(s) {holders}"

    crowded = edges[counts > 2]
    if crowded.size:
        raise ValueError(f"{described(crowded[0])} is shared by more than two triangles")
    ij = np.array([(i, j) for i, j, _ in mesh.boundary_edges], dtype=np.int64).reshape(-1, 2)
    tagged, tag_counts = np.unique(ij.min(axis=1) * nv + ij.max(axis=1), return_counts=True)
    if np.any(tag_counts > 1):
        key = tagged[tag_counts > 1][0]
        raise ValueError(f"boundary edge ({key // nv}, {key % nv}) is tagged more than once")
    once = edges[counts == 1]
    untagged = np.setdiff1d(once, tagged, assume_unique=True)
    if untagged.size:
        raise ValueError(f"{described(untagged[0])} lies in one triangle only but is not "
                         "a tagged boundary edge")
    interior = np.setdiff1d(tagged, once, assume_unique=True)
    if interior.size:
        key = interior[0]
        if key in edges:
            raise ValueError(f"{described(key)} is tagged as a boundary edge but is "
                             "shared by two triangles")
        raise ValueError(f"boundary edge ({key // nv}, {key % nv}) is not an edge of "
                         "any triangle")
    del keys, first, start, counts  # the sort's temporaries, freed before the endpoints
    return number, np.array([edges // nv, edges % nv], dtype=np.int32)


@dataclass(frozen=True)
class GradingReport:
    """Result of auditing a mesh against the local grading bounds.

    ``observed_c``/``observed_C`` are the min/max of
    ``h_tri / (h * r_tri**(1 - 1/gamma))`` over triangles in the graded band
    ``h**gamma <= r_tri <= 1``; ``violations`` holds
    ``(triangle index, h_tri, r_tri, description)`` for every failed bound.
    """

    passed: bool
    violations: list = field(default_factory=list)
    observed_c: float = math.nan
    observed_C: float = math.nan


def generate_sector_mesh(beta: float, h_star: float, gamma: float) -> Mesh:
    """Generate a graded triangulation of the unit sector.

    Parameters
    ----------
    beta : aperture parameter in (1/2, 1); sector angle is pi/beta.
    h_star : nominal mesh size in (0, 1/2].
    gamma : grading exponent >= 1.

    Returns
    -------
    Mesh whose maximum element diameter is within a factor 2 of ``h_star``
    and which satisfies the grading bounds audited by :func:`verify_grading`.
    The corner (origin) is vertex 0.
    """
    if not (0.5 < beta < 1.0):
        raise ValueError(f"beta must lie in (1/2, 1), got {beta}")
    if not (0.0 < h_star <= 0.5):
        raise ValueError(f"h_star must lie in (0, 1/2], got {h_star}")
    if not (1.0 <= gamma < math.inf):
        raise ValueError(f"gamma must be finite and >= 1, got {gamma}")

    theta_max = math.pi / beta
    radii = _ring_radii(h_star, gamma)

    # Angular interval count per ring, matched to the local radial step so
    # element aspect ratios stay bounded.
    counts = np.array([max(3, round(theta_max * r / _local_step(r, h_star, gamma)))
                       for r in radii])
    sizes = counts + 1
    first = np.cumsum(sizes) - sizes + 1  # id of each ring's theta = 0 vertex
    last = first + counts

    # vertex 0 is the corner, then ring after ring from theta = 0 to theta_max
    ring = np.repeat(np.arange(counts.size), sizes)
    ang = theta_max * (np.arange(ring.size) - (first - 1)[ring]) / counts[ring]
    r = np.array(radii)[ring]
    verts = np.zeros((ring.size + 1, 2))
    verts[1:, 0] = r * np.cos(ang)
    verts[1:, 1] = r * np.sin(ang)

    fan = np.arange(first[0], last[0])
    corner = np.column_stack([np.zeros_like(fan), fan, fan + 1])
    tris = np.vstack([corner, _ring_strips(first[:-1], counts[:-1], first[1:], counts[1:])])

    edges = [(0, first[0], EDGE_THETA0), (0, last[0], EDGE_THETA_MAX)]
    for i in range(counts.size - 1):
        edges.append((first[i], first[i + 1], EDGE_THETA0))
        edges.append((last[i], last[i + 1], EDGE_THETA_MAX))
    edges.extend((j, j + 1, EDGE_ARC) for j in range(first[-1], last[-1]))

    return Mesh(verts, tris, tuple(edges), beta, gamma, h_star)


def _local_step(r: float, h_star: float, gamma: float) -> float:
    """Target element size at radius r: h * r**(1-1/gamma) with a bounded bias.

    For gamma > 1 the bias refines toward the corner (up to 2x at the corner
    itself, fading quadratically) and relaxes mildly through the bulk and at
    the rim.  It is bounded, so sizes stay within a fixed constant band of
    the pure power law for every h_star; it concentrates resolution where
    the corner singularity lives, which keeps the empirical rates on
    threshold-graded meshes at their clean values instead of dragging a
    logarithmic factor through the observable range.  Quasiuniform meshes
    (gamma = 1) are left unbiased.
    """
    strength = min(1.0, gamma - 1.0)
    rho = r ** (1.0 / gamma)
    ln_bias = strength * ((1.0 - rho) ** 2 * math.log(2.0)
                          - rho * math.log(1.15)
                          - 4.0 * rho * (1.0 - rho) * math.log(1.25))
    return h_star * r ** (1.0 - 1.0 / gamma) * math.exp(-ln_bias)


def _ring_radii(h_star: float, gamma: float) -> list:
    """Ring radii integrating the local step rule outward from h**gamma.

    The outermost ring lands exactly on r = 1: a final gap of at least half
    a step becomes its own annulus, a smaller one is distributed over the
    last few annuli so no single thickness is stretched by more than ~10%.
    """
    r = h_star ** gamma
    radii = [r]
    while True:
        step = _local_step(r, h_star, gamma)
        if r + step >= 1.0:
            break
        # the step must not fall below an ulp of r, nor the areas of the
        # corner triangles (about r**2) underflow
        if r + step == r or r * r < np.finfo(float).tiny:
            raise ValueError(f"h_star={h_star} and gamma={gamma} grade the mesh below "
                             f"double precision: at ring radius r={r:.3g} the radii stop "
                             "growing or the triangle areas underflow")
        r += step
        radii.append(r)
    gap = 1.0 - radii[-1]
    step = _local_step(radii[-1], h_star, gamma)
    if gap >= 0.5 * step or len(radii) == 1:
        radii.append(1.0)
    else:
        m = min(6, len(radii))
        inner = radii[-m - 1] if len(radii) > m else 0.0
        scale = (1.0 - inner) / (radii[-1] - inner)
        for i in range(len(radii) - m, len(radii)):
            radii[i] = inner + (radii[i] - inner) * scale
    return radii


def _ring_strips(bot: np.ndarray, ka: np.ndarray, top: np.ndarray,
                 kb: np.ndarray) -> np.ndarray:
    """Triangulate the annulus strips between pairs of vertex rings.

    Strip p joins the bottom ring with vertex ids ``bot[p] .. bot[p] + ka[p]``
    to the top ring ``top[p] .. top[p] + kb[p]``; both include their angular
    endpoints.  A strip is zipped by advancing whichever ring has the
    smaller next angular fraction, ``(ia + 1) / ka`` or ``(ib + 1) / kb``.
    Sorting both rings' steps by that fraction on the common denominator
    ``ka * kb`` (exact integers) gives the same order.  At an exact tie the
    top ring goes first when the bottom index ia is even, so equal-count
    annuli get alternating diagonals.  Returns the (sum(ka + kb), 3)
    counter-clockwise triangles, strip by strip.
    """
    ka, kb = np.asarray(ka, dtype=np.int64), np.asarray(kb, dtype=np.int64)
    steps = ka + kb
    start = np.cumsum(steps) - steps  # each strip's first step
    strip = np.repeat(np.arange(steps.size), steps)
    k = np.arange(strip.size) - start[strip]
    on_top = k >= ka[strip]  # steps 0..ka-1 advance the bottom ring, the rest the top
    idx = np.where(on_top, k - ka[strip], k)  # the advancing ring's index before the step
    fraction = (idx + 1) * np.where(on_top, ka[strip], kb[strip])  # times ka * kb
    # at a tie the top step (rank 1) follows an odd ia (0) and precedes an even one (2)
    tie_rank = np.where(on_top, 1, 2 - 2 * (idx % 2))
    on_top = on_top[np.lexsort((tie_rank, fraction, strip))]  # steps stay in their strip
    # the steps each ring has taken within its strip before this one
    ib = np.cumsum(on_top) - on_top
    ib -= ib[start][strip]
    ia = k - ib
    a = np.asarray(bot, dtype=np.int64)[strip] + ia
    b = np.asarray(top, dtype=np.int64)[strip] + ib
    return np.column_stack([a, b, np.where(on_top, b + 1, a + 1)])


def _edge_vectors(mesh: Mesh) -> np.ndarray:
    """(nt, 3, 2) edge vectors of every triangle; edge i is the one opposite vertex i.

    Edge i runs from vertex i+1 to vertex i+2 (indices mod 3), so the edges
    of a counter-clockwise triangle circulate counter-clockwise.
    """
    # gathering each coordinate separately is about twice as fast as
    # gathering (x, y) rows
    x = mesh.vertices[:, 0][mesh.triangles]
    y = mesh.vertices[:, 1][mesh.triangles]
    e = np.empty(x.shape + (2,))
    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        np.subtract(x[:, b], x[:, a], out=e[:, i, 0])
        np.subtract(y[:, b], y[:, a], out=e[:, i, 1])
    return e


def _side_lengths(mesh: Mesh) -> np.ndarray:
    """(3, nt) lengths of the sides opposite vertices 0, 1 and 2 of every triangle."""
    return np.linalg.norm(_edge_vectors(mesh), axis=2).T


def triangle_diameters(mesh: Mesh) -> np.ndarray:
    """Diameter (longest edge) of every triangle."""
    return _side_lengths(mesh).max(axis=0)


def triangle_origin_distances(mesh: Mesh) -> np.ndarray:
    """Distance from the origin, which need not be a vertex, to each (closed) triangle.

    Zero where the origin lies on the inner side of all three edges; edge i
    of :func:`_edge_vectors` starts at vertex i+1.
    """
    e = _edge_vectors(mesh).reshape(-1, 2)
    a = np.roll(mesh.vertices[mesh.triangles], -1, axis=1).reshape(-1, 2)
    inside = (e[:, 0] * -a[:, 1] - e[:, 1] * -a[:, 0] >= 0).reshape(-1, 3).all(axis=1)
    tt = -np.einsum("ij,ij->i", a, e) / np.maximum(np.einsum("ij,ij->i", e, e), 1e-300)
    closest = a + np.clip(tt, 0.0, 1.0)[:, None] * e
    d = np.linalg.norm(closest, axis=1).reshape(-1, 3).min(axis=1)
    d[inside] = 0.0
    return d


def verify_grading(mesh: Mesh) -> GradingReport:
    """Audit every triangle against the local grading bounds.

    In the graded band ``h**gamma <= r_tri <= 1`` each diameter must satisfy
    ``0.1 * h * r_tri**(1-1/gamma) <= h_tri <= 10 * h * r_tri**(1-1/gamma)``;
    triangles with ``r_tri < h**gamma`` must satisfy
    ``0.1 * h**gamma <= h_tri <= 10 * h**gamma``.  ``h`` is the mesh's
    nominal ``h_star`` and ``gamma`` its grading exponent.  Failures are
    collected in the report rather than raised.
    """
    h, gamma = mesh.h_star, mesh.gamma
    h_tri = triangle_diameters(mesh)
    r_tri = triangle_origin_distances(mesh)
    h_gamma = h ** gamma

    near = r_tri < h_gamma
    target = np.where(near, h_gamma, h * np.maximum(r_tri, h_gamma) ** (1.0 - 1.0 / gamma))
    ratio = h_tri / target
    bad = (ratio < _GRADING_C_LO) | (ratio > _GRADING_C_HI)

    labels = np.where(near, "near-corner band h_tri vs h**gamma",
                      "graded band h_tri vs h*r**(1-1/gamma)")
    violations = [(int(i), float(h_tri[i]), float(r_tri[i]), str(labels[i]))
                  for i in np.flatnonzero(bad)]
    graded_ratios = ratio[~near]
    return GradingReport(
        passed=not violations,
        violations=violations,
        observed_c=float(graded_ratios.min()) if graded_ratios.size else math.nan,
        observed_C=float(graded_ratios.max()) if graded_ratios.size else math.nan,
    )


def mesh_stats(mesh: Mesh) -> dict:
    """Basic quality numbers: h_max, n_vertices, n_triangles, min_angle (degrees)."""
    sides = _side_lengths(mesh)
    a, b, c = sides
    angles = []
    for opp, s1, s2 in ((a, b, c), (b, c, a), (c, a, b)):
        cosv = np.clip((s1 ** 2 + s2 ** 2 - opp ** 2) / (2 * s1 * s2), -1.0, 1.0)
        angles.append(np.arccos(cosv))
    min_angle = float(np.degrees(np.min(angles)))
    return {
        "h_max": float(sides.max()),
        "n_vertices": mesh.n_vertices,
        "n_triangles": mesh.n_triangles,
        "min_angle": min_angle,
    }


def write_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the plain-text exchange format.

    Header ``<V> vertices <T> triangles <B> boundary_edges beta <b> gamma
    <g> h_star <h>``, then one ``x y`` line per vertex, one ``i j k`` line
    per triangle (0-based) and one ``i j tag`` line per boundary edge.
    Floats carry 17 significant digits, so :func:`read_mesh` gives back the
    same mesh, generation metadata included.
    """
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_vertices} vertices {mesh.n_triangles} triangles "
                 f"{len(mesh.boundary_edges)} boundary_edges beta {mesh.beta:.17g} "
                 f"gamma {mesh.gamma:.17g} h_star {mesh.h_star:.17g}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        for i, j, tag in mesh.boundary_edges:
            fh.write(f"{i} {j} {tag}\n")


_METADATA_KEYS = ["beta", "gamma", "h_star"]
_HEADER = "<V> vertices <T> triangles <B> boundary_edges beta <b> gamma <g> h_star <h>"


def _parse_lines(path, lines, start: int, stop: int, expected: str, kinds) -> list:
    """The fields of ``lines[start:stop]``, converted by ``kinds``, one per field.

    A line whose fields do not convert one to one raises ValueError naming
    the file, the line's 1-based number and the ``expected`` fields.
    """
    rows = []
    for k in range(start, stop):
        try:
            rows.append([kind(value) for kind, value in zip(kinds, lines[k].split(), strict=True)])
        except ValueError:
            raise ValueError(f"mesh file {path} line {k + 1} is {lines[k]!r}, "
                             f"but should hold '{expected}'") from None
    return rows


def read_mesh(path) -> Mesh:
    """Read a mesh written by :func:`write_mesh`.

    ``beta``, ``gamma`` and ``h_star`` come from the header suffix
    ``beta <b> gamma <g> h_star <h>`` that :func:`write_mesh` writes; a
    header without it raises ValueError naming the expected header, and so
    does a file whose line count is not the ``1 + V + T + B`` the header
    promises.  A header or a vertex, triangle or boundary-edge line whose
    fields do not convert (to ints and floats, ``x y``, ``i j k`` or ``i j
    tag``) raises ValueError naming the file and the line number.
    ``dataclasses.replace`` changes the metadata on the result.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 12 or header[6::2] != _METADATA_KEYS:
        raise ValueError(f"mesh header {' '.join(header)!r} is not '{_HEADER}'")
    (fields,) = _parse_lines(path, lines, 0, 1, _HEADER, (int, str) * 3 + (str, float) * 3)
    nv, nt, nb, beta, gamma, h_star = fields[0:6:2] + fields[7::2]
    if len(lines) != 1 + nv + nt + nb:
        raise ValueError(f"mesh file {path} has {len(lines)} lines, but its header "
                         f"promises 1 + {nv} + {nt} + {nb} = {1 + nv + nt + nb}")
    verts = np.array(_parse_lines(path, lines, 1, 1 + nv, "x y", (float, float)))
    tris = np.array(_parse_lines(path, lines, 1 + nv, 1 + nv + nt, "i j k", (int, int, int)))
    edges = _parse_lines(path, lines, 1 + nv + nt, len(lines), "i j tag", (int, int, str))
    return Mesh(verts, tris, edges, beta, gamma, h_star)
