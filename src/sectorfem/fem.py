"""P1 finite element machinery on sector meshes.

Provides the dof numbering with Dirichlet/mixed constraint elimination,
mass/stiffness/load assembly, the L2 projector, quadrature of fields on the
mesh, and the sparse linear solvers (real SPD and complex symmetric) used by
the inverse-Laplace time integration.  Matrices are scipy CSR arrays,
symmetric by construction; coefficient vectors are plain numpy arrays over
the free dofs.

Every solve, the L2 projection's mass solve included, runs on one SuperLU
path.  It orders the columns by minimum degree on the pattern of A^T + A
and runs SuperLU in symmetric mode, which suits the symmetric pattern of
every system here and needs less fill than the default COLAMD ordering.
Partial pivoting stays at SuperLU's default; supernode relaxation and panel
width are set small, which factors these systems faster.  The CSR arrays of
A go to SuperLU as the CSC arrays of A^T, so no conversion copies the
matrix, and the solves use that factor transposed.  The relative residual
is computed after the first solve; one step of iterative refinement runs
only when it exceeds 1e-10, and the result must then meet 1e-10 or
SolverError is raised.

SuperLU is reached without importing ``scipy.sparse.linalg``, which would
also load ``scipy.linalg``, ARPACK/PROPACK and the iterative solvers: about
8 MB of resident memory, of which this module uses only SuperLU.
:func:`_load_superlu` loads scipy's extension module
``scipy.sparse.linalg._dsolve._superlu`` from its file and registers it under
that name, so a later ``import scipy.sparse.linalg`` reuses it; if the file
is not where scipy keeps it, the module is imported the ordinary way.
:func:`_splu` then repeats what ``scipy.sparse.linalg.splu`` does before its
own ``gstrf`` call and makes the same call, so every factor is the one
``splu`` returns with these options.  It rests on the keywords of that
private ``gstrf``; a test checks it against ``splu`` on the installed scipy.

Quadrature near the corner follows one geometric policy,
:func:`element_quad_points`: every element gets the same tabulated
symmetric rule, and the elements with a vertex at the re-entrant corner
get it on each of their four midpoint-refinement children, so integrands
with an r**(beta-1) singularity there are sampled more densely.  The
policy reads only the vertex coordinates, never the generation metadata
of the mesh.  This module owns the degrees of the two rules the scheme
needs: ``_LOAD_DEGREE`` (4) for load vectors and ``_ERROR_DEGREE`` (6) for
the error norms.
Both mesh integrals the scheme needs run on one blocked loop over that
quadrature: :func:`assemble_load` builds load vectors on it, summed over
all vertices and then restricted to the free ones by ``DofMap.free``, and
:func:`integrate` scalar integrals (the error norms in ``harness``).  Each
evaluates and reduces its field on blocks of at most ``_INTEGRATE_BLOCK``
elements of a quadrature group, so no array of quadrature points spans a
whole graded mesh.  :func:`field_values` is the one place a field is
evaluated at quadrature points and its shape and finiteness checked.
Every quadrature-point and reduction kernel is a single 2-D matrix
product, which BLAS runs far faster than the equivalent three-operand
einsum.

Mass and stiffness go onto one P1 pattern.  :func:`_p1_pattern`, the one
place the free vertices are numbered, reads the edges from
``Mesh.triangle_edges``, numbered once per mesh, keeps those between two
free dofs, and lets scipy's COO-to-CSR conversion lay out the int32 CSR
arrays: the diagonal and both entries of each free edge, each carrying
the number of the sum it reads.  The element matrices are then
summed per dof and per edge in blocks of ``_INTEGRATE_BLOCK`` elements, so
no array holds the 9 entries of every element.  M and S carry equal index
arrays, and :func:`solve_complex_symmetric`, which takes only such pairs,
forms each contour-node matrix ``z^a M + S`` as one complex data array on
M's index arrays instead of a sparse sum.

Assembled matrices are immutable in practice (never modified after return)
and each solve factors its own copy, so concurrent solves against shared
matrices are safe.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import EDGE_ARC, EDGE_THETA0, Mesh, _edge_vectors, _edge_areas, triangle_areas

DIRICHLET = "dirichlet"
MIXED = "mixed"

# Symmetric interior-point quadrature rules on the reference triangle:
# degree -> (barycentric points (n, 3), weights summing to 1).  Interior
# points only, so integrands with an r**(beta-1) corner singularity are
# never sampled at the corner itself.
_TRI_RULES = {
    4: (
        np.array([
            [0.108103018168070, 0.445948490915965, 0.445948490915965],
            [0.445948490915965, 0.108103018168070, 0.445948490915965],
            [0.445948490915965, 0.445948490915965, 0.108103018168070],
            [0.816847572980459, 0.091576213509771, 0.091576213509771],
            [0.091576213509771, 0.816847572980459, 0.091576213509771],
            [0.091576213509771, 0.091576213509771, 0.816847572980459],
        ]),
        np.array([0.223381589678011, 0.223381589678011, 0.223381589678011,
                  0.109951743655322, 0.109951743655322, 0.109951743655322]),
    ),
    6: (
        np.array([
            [0.873821971016996, 0.063089014491502, 0.063089014491502],
            [0.063089014491502, 0.873821971016996, 0.063089014491502],
            [0.063089014491502, 0.063089014491502, 0.873821971016996],
            [0.501426509658179, 0.249286745170910, 0.249286745170911],
            [0.249286745170910, 0.501426509658179, 0.249286745170911],
            [0.249286745170910, 0.249286745170911, 0.501426509658179],
            [0.636502499121399, 0.310352451033785, 0.053145049844816],
            [0.636502499121399, 0.053145049844816, 0.310352451033785],
            [0.310352451033785, 0.636502499121399, 0.053145049844816],
            [0.310352451033785, 0.053145049844816, 0.636502499121399],
            [0.053145049844816, 0.636502499121399, 0.310352451033785],
            [0.053145049844816, 0.310352451033785, 0.636502499121399],
        ]),
        np.array([0.050844906370207, 0.050844906370207, 0.050844906370207,
                  0.116786275726379, 0.116786275726379, 0.116786275726379,
                  0.082851075618374, 0.082851075618374, 0.082851075618374,
                  0.082851075618374, 0.082851075618374, 0.082851075618374]),
    ),
}


class SolverError(RuntimeError):
    """Linear solve failed or did not meet the residual contract."""

    def __init__(self, message: str, residual: float = np.nan):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class DofMap:
    """The free vertices of a mesh, whose hat functions span the P1 space.

    ``free`` is a 1-D boolean vertex mask, read-only.  The free vertices
    carry the dofs 0..n_dofs-1 in vertex order, so a vector over the dofs is
    a vertex vector restricted by ``free`` (``v[free]``), and
    :meth:`expand` undoes that restriction.
    """

    free: np.ndarray
    bc_kind: str
    n_dofs: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        free = np.array(self.free)
        if free.dtype != bool or free.ndim != 1:
            raise ValueError(f"free must be a 1-D boolean vertex mask, got dtype {free.dtype} "
                             f"and shape {free.shape}")
        free.setflags(write=False)
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "n_dofs", int(free.sum()))

    def expand(self, u: np.ndarray) -> np.ndarray:
        """Free-dof coefficients -> per-vertex nodal values (zeros where constrained)."""
        u = np.asarray(u)
        if u.shape != (self.n_dofs,):
            raise ValueError(f"expected {self.n_dofs} free-dof coefficients, got shape {u.shape}")
        full = np.zeros(self.free.size, dtype=u.dtype)
        full[self.free] = u
        return full


def build_dofmap(mesh: Mesh, bc_kind: str = DIRICHLET) -> DofMap:
    """The free vertices for the requested boundary conditions.

    ``dirichlet`` constrains every boundary vertex.  ``mixed`` constrains the
    theta=0 radial edge and the arc; vertices strictly inside the theta_max
    radial edge stay free (its endpoints are shared with constrained edges).
    """
    if bc_kind not in (DIRICHLET, MIXED):
        raise ValueError(f"unknown bc_kind {bc_kind!r}")
    free = np.ones(mesh.n_vertices, dtype=bool)
    for i, j, tag in mesh.boundary_edges:
        if bc_kind == DIRICHLET or tag in (EDGE_THETA0, EDGE_ARC):
            free[i] = free[j] = False
    return DofMap(free, bc_kind)


def _check_bc_kind(bc_kind: str, dofmap: DofMap) -> None:
    """Raise ValueError unless ``dofmap`` was built for the boundary condition ``bc_kind``."""
    if dofmap.bc_kind != bc_kind:
        raise ValueError(f"dof map is built for bc_kind {dofmap.bc_kind!r}, "
                         f"but the problem has bc_kind {bc_kind!r}")


def unconstrained_dofmap(mesh: Mesh) -> DofMap:
    """Dof map with every vertex free (no boundary conditions applied)."""
    return DofMap(np.ones(mesh.n_vertices, dtype=bool), "none")


def element_geometry(mesh: Mesh):
    """Per-element areas and constant P1 basis gradients."""
    e = _edge_vectors(mesh)
    areas = _edge_areas(e)
    # grad of barycentric i is the inward normal of the opposite edge / 2A
    grads = np.stack([-e[..., 1], e[..., 0]], axis=2)
    grads /= 2.0 * areas[:, None, None]
    return areas, grads


def _check_dofmap(mesh: Mesh, dofmap: DofMap) -> None:
    """Raise ValueError unless ``dofmap`` numbers the vertices of ``mesh``."""
    if dofmap.free.size != mesh.n_vertices:
        raise ValueError(f"dof map numbers {dofmap.free.size} vertices, "
                         f"but the mesh has {mesh.n_vertices}")


def _p1_pattern(mesh: Mesh, dofmap: DofMap):
    """CSR pattern of the free-dof P1 matrices and the sum each element entry adds to.

    Returns ``(indptr, indices, ids, src)``, all int32.  ``indptr`` and
    ``indices`` are canonical (sorted, duplicate-free) CSR arrays: row i
    holds i and every free dof that shares an element edge with it.  The
    entries of the element matrices are summed into n_dofs + n_edges + 1
    sums: one per free dof (the diagonal), one per edge between two free
    dofs (both of its off-diagonal entries, as the element matrices are
    symmetric), and a last spill sum for the entries of constrained
    vertices.  ``ids`` (nt, 6) names the sums that each element's entries
    ``(_ROWS, _COLS)`` add to; ``src`` names the sum each CSR entry reads.
    The CSR arrays come from scipy's COO-to-CSR conversion of the sum
    numbers at the diagonal and at both entries of each free edge; as each
    free edge appears once, the conversion sums nothing and only sorts, so
    the free edges may arrive in any order.
    """
    n = dofmap.n_dofs
    dofs = np.where(dofmap.free, np.cumsum(dofmap.free, dtype=np.int32) - 1, -1)[mesh.triangles]
    edge = mesh.triangle_edges
    # each mesh edge's end dofs (-1 if constrained)
    a, b = dofs[:, [1, 2, 0]], dofs[:, [2, 0, 1]]
    lo = np.empty(int(edge.max(initial=-1)) + 1, dtype=np.int32)
    hi = np.empty_like(lo)
    lo[edge], hi[edge] = np.minimum(a, b), np.maximum(a, b)
    del a, b  # whole-mesh temporaries, freed before the layout
    free = lo >= 0
    lo, hi = lo[free], hi[free]
    n_edges = lo.size
    free_edge = np.where(free, np.cumsum(free, dtype=np.int32) - 1, n_edges)
    rows = np.arange(n, dtype=np.int32)
    edge_sum = np.arange(n, n + n_edges, dtype=np.int32)
    pattern = sp.coo_array((np.concatenate([rows, edge_sum, edge_sum]),
                            (np.concatenate([rows, lo, hi]), np.concatenate([rows, hi, lo]))),
                           shape=(n, n)).tocsr()

    ids = np.empty((dofs.shape[0], 6), dtype=np.int32)
    ids[:, :3] = np.where(dofs < 0, n + n_edges, dofs)
    np.add(free_edge[edge], n, out=ids[:, 3:])  # a constrained edge's number n_edges spills too
    return pattern.indptr, pattern.indices, ids, pattern.data


# The entries (i, j) of an element matrix that _p1_pattern's ids name: the
# diagonal (c, c), then edge c's entry (c+1, c+2), for c = 0, 1, 2.
_ROWS, _COLS = np.array([0, 1, 2, 1, 2, 0]), np.array([0, 1, 2, 2, 0, 1])


def _assemble(mesh: Mesh, dofmap: DofMap, local: Callable) -> sp.csr_array:
    """Sum symmetric element matrices into the free-dof CSR matrix on the P1 pattern.

    ``local(block)`` returns the entries ``(_ROWS, _COLS)`` (e, 6) of the
    element matrices of the elements in the slice ``block``.  They are
    summed in blocks of ``_INTEGRATE_BLOCK`` elements, so no per-entry
    array spans the whole mesh; each sum adds its terms in element order.
    Each CSR entry then gathers the sum that the pattern's ``src`` names;
    both off-diagonal entries of an edge read one sum, so the matrix is
    exactly symmetric.  The matrix keeps the pattern's int32 index arrays
    from scipy's COO-to-CSR conversion, which halves the index arrays of
    the matrix and of every node matrix formed from it; SuperLU takes int32
    indices too.
    """
    _check_dofmap(mesh, dofmap)
    indptr, indices, ids, src = _p1_pattern(mesh, dofmap)
    n = dofmap.n_dofs
    sums = np.zeros(n + (indices.size - n) // 2 + 1)  # per dof, per edge, and the spill
    for start in range(0, ids.shape[0], _INTEGRATE_BLOCK):
        block = slice(start, start + _INTEGRATE_BLOCK)
        np.add.at(sums, ids[block].ravel(), local(block).ravel())
    return sp.csr_array((sums[src], indices, indptr), shape=(n, n))


_MASS_BLOCK = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0],
                        [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass(mesh: Mesh, dofmap: DofMap) -> sp.csr_array:
    """Mass matrix M_ij = integral of phi_i phi_j over the free basis."""
    areas = triangle_areas(mesh)
    entries = _MASS_BLOCK[_ROWS, _COLS]
    return _assemble(mesh, dofmap, lambda block: areas[block, None] * entries)


def assemble_stiffness(mesh: Mesh, dofmap: DofMap, K: float) -> sp.csr_array:
    """Stiffness matrix S_ij = K * integral of grad phi_i . grad phi_j."""
    if not 0 < K < math.inf:  # also rejects NaN
        raise ValueError(f"diffusivity K must be positive and finite, got {K}")
    areas, grads = element_geometry(mesh)
    gx, gy = grads[..., 0], grads[..., 1]

    def local(block):
        x, y = gx[block], gy[block]
        dots = x[:, _ROWS] * x[:, _COLS] + y[:, _ROWS] * y[:, _COLS]
        return K * areas[block, None] * dots

    return _assemble(mesh, dofmap, local)


# The four children of the midpoint refinement of a triangle, as barycentric
# maps from child to parent coordinates (rows are the child's vertices).
_CHILDREN = np.array([
    [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
    [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]],
    [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]],
    [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
])


def element_quad_points(mesh: Mesh, degree: int):
    """Quadrature groups (element ids, barycentric points (q, 3), weights (q,)).

    Every element uses the tabulated rule of ``degree`` (4 or 6); the
    elements with a vertex at the origin, where the r**(beta-1)
    singularities sit, use that rule on each of their four
    midpoint-refinement children, a quarter of the weight each.  The
    children's points stay in the parent's barycentric coordinates, so P1
    functions evaluate unchanged.  Empty groups are left out.
    """
    pts, w = _TRI_RULES[degree]
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    corner = (r[mesh.triangles] < 1e-14).any(axis=1)
    groups = [(np.flatnonzero(~corner), pts, w),
              (np.flatnonzero(corner), np.concatenate([pts @ c for c in _CHILDREN]),
               np.tile(w / 4.0, 4))]
    return [group for group in groups if group[0].size]


def field_values(g: Callable, x: np.ndarray, y: np.ndarray, what: str,
                 pair: bool = False) -> np.ndarray:
    """``g(x, y)`` as an array of one value per point, checked to be finite.

    With ``pair``, ``g`` returns two values per point (a gradient), and the
    array has shape (2, *x.shape).  A constant, or a constant component of
    a pair, is broadcast over the points.  Values of any other shape raise
    ValueError naming ``what`` and both shapes; non-finite values raise
    ValueError naming the first point where one occurs.
    """
    constant = (2,) if pair else ()
    expected = f"at points of shape {x.shape}; expected {constant + x.shape} or {constant}"
    vals = g(x, y)
    if pair and isinstance(vals, (tuple, list)):  # a constant component, as in (1.0, y)
        shapes = tuple(np.shape(c) for c in vals)
        vals = [np.broadcast_to(c, shape or x.shape) for c, shape in zip(vals, shapes)]
        if len({c.shape for c in vals}) > 1:
            raise ValueError(f"{what} returned values of shape {shapes} {expected}")
    vals = np.asarray(vals)
    if vals.shape == constant:
        vals = np.broadcast_to(vals.reshape(constant + (1,) * x.ndim), constant + x.shape)
    elif vals.shape != constant + x.shape:
        raise ValueError(f"{what} returned values of shape {vals.shape} {expected}")
    if not np.all(np.isfinite(vals)):
        k = np.flatnonzero(~np.isfinite(vals))[0] % x.size
        raise ValueError(f"{what} returned non-finite value at "
                         f"({x.flat[k]:.6g}, {y.flat[k]:.6g})")
    return vals


# Elements per block of the quadrature loop.  A block's (e, q) point and
# field arrays then stay a few hundred kB, instead of tens of MB for a
# whole graded mesh at degree 6.  A power of two is a multiple of the row
# unroll of BLAS matrix kernels, so each element's sum is rounded exactly
# as in one product over its whole group.
_INTEGRATE_BLOCK = 4096
_LOAD_DEGREE = 4  # degree of the element_quad_points rule of every load vector
_ERROR_DEGREE = 6  # degree of the rule of every integrate call (the error norms)


def _blocks(mesh: Mesh, ids: np.ndarray, pts: np.ndarray):
    """``(block, x, y)`` for consecutive runs of ``_INTEGRATE_BLOCK`` elements of ``ids``.

    x, y (e, q) are the coordinates of the barycentric points ``pts`` (q, 3)
    on the block's elements.
    """
    for start in range(0, ids.size, _INTEGRATE_BLOCK):
        block = ids[start:start + _INTEGRATE_BLOCK]
        tri = mesh.triangles[block]
        yield block, mesh.vertices[tri, 0] @ pts.T, mesh.vertices[tri, 1] @ pts.T


def integrate(mesh: Mesh, integrand: Callable) -> float:
    """Integral over the mesh by the :func:`element_quad_points` rule of ``_ERROR_DEGREE``.

    ``integrand(ids, pts, x, y)`` gets element ids, the group's barycentric
    points (q, 3) and point coordinates x, y (e, q), and returns its values
    (e, q) at those points.  It is called on blocks of at most
    ``_INTEGRATE_BLOCK`` elements of a group; the group's per-element sums
    are then reduced with one dot product.
    """
    areas = triangle_areas(mesh)
    total = 0.0
    for ids, pts, w in element_quad_points(mesh, _ERROR_DEGREE):
        per_element = [integrand(block, pts, x, y) @ w
                       for block, x, y in _blocks(mesh, ids, pts)]
        total += float(areas[ids] @ np.concatenate(per_element))
    return total


def assemble_load(mesh: Mesh, dofmap: DofMap, g: Callable) -> np.ndarray:
    """Load vector b_i = integral of g * phi_i by the :func:`element_quad_points` quadrature.

    The rule is of degree ``_LOAD_DEGREE``.  ``g(x, y)`` must accept numpy
    arrays; complex-valued fields give a complex load vector.  Non-finite
    evaluations raise ValueError with the offending location.  The field is
    evaluated and reduced on the blocks :func:`integrate` uses, and each
    block's element vectors are added into a vector over all vertices in
    element order; the load vector is its restriction to the free vertices.
    """
    areas = triangle_areas(mesh)
    _check_dofmap(mesh, dofmap)
    out = np.zeros(mesh.n_vertices)
    for ids, pts, w in element_quad_points(mesh, _LOAD_DEGREE):
        wpts = w[:, None] * pts
        for block, x, y in _blocks(mesh, ids, pts):
            vals = field_values(g, x, y, "load field")
            if vals.dtype.kind == "c" and out.dtype.kind != "c":
                out = out.astype(complex)
            # b_e[i] = area * sum_q w_q g(x_q) lambda_i(x_q)
            be = areas[block, None] * (vals @ wpts)
            np.add.at(out, mesh.triangles[block].ravel(), be.ravel())
    return out[dofmap.free]


def l2_project(mesh: Mesh, dofmap: DofMap, u0: Callable) -> np.ndarray:
    """Coefficients of the L2-orthogonal projection of u0 onto the FE space.

    Solves M x = b on the shared SuperLU path; raises SolverError if the
    relative residual exceeds 1e-10.
    """
    mass = assemble_mass(mesh, dofmap)
    b = np.asarray(assemble_load(mesh, dofmap, u0), dtype=float)
    return _lu_solve(mass, b, "L2 projection")


_RESIDUAL_TOL = 1e-10

# SuperLU supernode relaxation and panel width.  An interleaved sweep of
# contour-node factorizations (BENCH_5.json) found these small values
# 20-30% faster than SuperLU's defaults on every system the benchmark
# factors, with the same L+U fill; larger values were slower.
_RELAX = 1
_PANEL_SIZE = 1

_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def _load_superlu():
    """scipy's SuperLU extension module, loaded without the rest of scipy.sparse.linalg.

    A copy already in ``sys.modules`` is reused.  Otherwise the extension
    file in scipy's ``sparse/linalg/_dsolve`` directory is loaded and
    registered in ``sys.modules`` under its own name, where a later
    ``import scipy.sparse.linalg`` finds it, so both share one ``SuperLU``
    type.  If that directory holds no such file, the module is imported the
    ordinary way, which imports scipy.sparse.linalg too.
    """
    if _SUPERLU in sys.modules:
        return sys.modules[_SUPERLU]
    directory = Path(sp.__file__).parent / "linalg" / "_dsolve"
    finder = importlib.machinery.FileFinder(
        str(directory),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_SUPERLU)
    if spec is None:
        return importlib.import_module(_SUPERLU)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_SUPERLU] = module
    spec.loader.exec_module(module)
    return module


_superlu = _load_superlu()


def _splu(A: sp.sparray):
    """SuperLU factor of the square sparse A, as ``scipy.sparse.linalg.splu`` makes it.

    The options are this module's: minimum-degree ordering on A^T + A in
    symmetric mode, ``_RELAX`` and ``_PANEL_SIZE``, default pivoting.  As
    splu does, A is converted to CSC unless it is CSC already, its
    duplicate entries are summed in place, integer or boolean data are
    upcast to the smallest floating type that holds them, and the index
    arrays are cast to C int; a non-square A raises ValueError.
    """
    if not (sp.issparse(A) and A.format == "csc"):
        A = sp.csc_array(A)
    A.sum_duplicates()
    if A.dtype.char not in "fdFD":
        A = A.astype(np.promote_types(A.dtype, np.float32))
    n, m = A.shape
    if n != m:
        raise ValueError("can only factor square matrices")
    indices, indptr = sp.safely_cast_index_arrays(A, np.intc, "SuperLU")
    options = dict(ColPerm="MMD_AT_PLUS_A", DiagPivotThresh=None, PanelSize=_PANEL_SIZE,
                   Relax=_RELAX, SymmetricMode=True)
    return _superlu.gstrf(n, A.nnz, A.data, indices, indptr, csc_construct_func=sp.csc_array,
                          ilu=False, options=options)


def _lu_solve(A: sp.sparray, b: np.ndarray, context: str) -> np.ndarray:
    """Sparse LU solve of A x = b for A with a symmetric sparsity pattern.

    Minimum-degree ordering on A^T + A in SuperLU's symmetric mode; one
    refinement step only if the first relative residual exceeds 1e-10.
    SuperLU factors A^T, whose CSC arrays are the CSR arrays of A, so no
    format conversion copies the matrix; the solves apply the transpose of
    that factor and so answer A x = b whether or not A is symmetric.
    """
    if b.size == 0:
        return b.copy()
    A = sp.csr_array(A)
    try:
        lu = _splu(A.T)
        x = lu.solve(b, trans="T")
        r = b - A @ x
        if np.linalg.norm(r) <= _RESIDUAL_TOL * np.linalg.norm(b):
            return x
        x += lu.solve(r, trans="T")
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"{context} failed: {exc}") from exc
    res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
    if not res <= _RESIDUAL_TOL:  # NaN fails too
        raise SolverError(f"{context}: relative residual {res:.3e} exceeds 1e-10", res)
    return x


def solve_real_spd(A: sp.sparray, b: np.ndarray) -> np.ndarray:
    """Direct sparse solve for symmetric positive definite A; residual <= 1e-10."""
    return _lu_solve(A, np.asarray(b, dtype=float), "real SPD solve")


def solve_complex_symmetric(zalpha: complex, mass: sp.sparray, stiffness: sp.sparray,
                            b: np.ndarray) -> np.ndarray:
    """Solve (zalpha * M + S) x = b for complex symmetric (non-Hermitian) systems.

    M and S must be CSR arrays on one pattern, as every assembled pair is:
    the node matrix is then one complex data array on M's index arrays,
    with no index arrays or complex intermediate of its own.  A pair on two
    patterns raises ValueError naming both shapes and entry counts.  The
    factorization is a general sparse LU with partial pivoting; only the
    symmetric pattern is exploited, no Hermitian structure is assumed.
    Residual contract: relative residual <= 1e-10.
    """
    zalpha = complex(zalpha)
    if not np.isfinite(zalpha.real) or not np.isfinite(zalpha.imag):
        raise ValueError(f"non-finite coefficient zalpha = {zalpha}")
    if not (mass.format == stiffness.format == "csr" and mass.shape == stiffness.shape
            and np.array_equal(mass.indptr, stiffness.indptr)
            and np.array_equal(mass.indices, stiffness.indices)):
        raise ValueError(f"mass {mass.shape} with {mass.nnz} entries and stiffness "
                         f"{stiffness.shape} with {stiffness.nnz} entries are not CSR "
                         "arrays on one pattern")
    data = mass.data * zalpha
    data += stiffness.data
    node = sp.csr_array((data, mass.indices, mass.indptr), shape=mass.shape)
    return _lu_solve(node, np.asarray(b, dtype=complex), "complex symmetric solve")
