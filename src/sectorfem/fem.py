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
matrix, and the solves use that factor transposed.  Every solve must meet
a relative residual of 1e-10 or raise SolverError; the norms of the
residual and of b are taken after dividing both by max|b|, so they neither
under- nor overflow for any finite b.  The real solves factor in double
precision, and one step of iterative refinement runs only when the first
relative residual exceeds 1e-10.  The contour-node solves factor the node
matrix in single precision, scaled by a power of two into its range, which
halves the memory of the factor, the largest allocation of a contour
evolve (1,616,556 entries at 24,094 dofs).  Iterative refinement in double
precision then takes each node to a relative residual of 1e-12, usually
in two steps; it stops early only when a step fails to halve the
residual.  1e-10 is not enough there: the contour amplifies node errors by
up to e**(0.35 M), and stopping at 1e-10 or 1e-11 takes the decay of the
contour error in M (acceptance criterion 3) out of its window.

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

Every field integral uses one quadrature, :func:`element_quad_points`:
one tabulated rule, Dunavant's symmetric 6-point rule of degree 4, on
every element, and on each of the four midpoint-refinement children of
the elements with a vertex at the re-entrant corner, so integrands with an
r**(beta-1) singularity there are sampled more densely.  The policy reads
only the vertex coordinates, never the generation metadata of the mesh.
As load vectors and error norms share the rule, and the hat functions sum
to one, the entries of a load vector over all vertices sum to the
:func:`integrate` value of its field.
Both integrals run on one blocked loop over that quadrature:
:func:`assemble_load` builds load vectors on it, summed over all vertices
and then restricted to the free ones by ``DofMap.free``, and
:func:`integrate` scalar integrals (the error norms in ``harness``).  Each
evaluates and reduces its field on blocks of at most ``_INTEGRATE_BLOCK``
elements of a quadrature group, so no array of quadrature points spans a
whole graded mesh.  :func:`field_values` is the one place a field is
evaluated at quadrature points and its shape and finiteness checked.
Every quadrature-point and reduction kernel is a single 2-D matrix
product, which BLAS runs far faster than the equivalent three-operand
einsum.  Loads, error norms, mass and stiffness all read the element
areas that the mesh keeps as ``Mesh.areas``.

Mass and stiffness are summed on the mesh, as load vectors are, and
restricted to the free dofs once.  :func:`_assemble` adds the element
matrices per mesh vertex (the diagonal) and per mesh edge (both
off-diagonal entries), with the edges that ``Mesh.triangle_edges``
numbers once per mesh, in blocks of ``_INTEGRATE_BLOCK`` elements, so no
array holds the 9 entries of every element.  A :class:`DofMap` holds its
mesh, free mask and free-dof CSR pattern, laid out once: the edges whose
``Mesh.edges`` endpoints are both free, each int32 entry carrying the
number of the vertex or edge sum it gathers.  So the M and S of one dof
map share their index arrays, and :func:`solve_complex_symmetric` forms
each contour-node matrix ``z^a M + S`` as one complex64 data array on M's
index arrays instead of a sparse sum; its residuals take real products of
M and S with the parts of complex vectors, so no complex copy of M or S
is made.  Assembly, loads and error norms
take a dof map only with the very mesh it was built on.

Assembled matrices are immutable in practice (never modified after return)
and each solve factors its own copy, so concurrent solves against shared
matrices are safe.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import EDGE_ARC, EDGE_THETA0, Mesh, _edge_vectors

DIRICHLET = "dirichlet"
MIXED = "mixed"

# The one quadrature rule of loads and error norms: Dunavant's symmetric
# 6-point rule on the reference triangle, exact to degree 4, as
# (barycentric points (6, 3), weights summing to 1).  Interior points only,
# so integrands with an r**(beta-1) corner singularity are never sampled at
# the corner itself.
_RULE = (
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
)


class SolverError(RuntimeError):
    """Linear solve failed or did not meet the residual contract."""

    def __init__(self, message: str, residual: float = np.nan):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class DofMap:
    """The free vertices of a mesh, whose hat functions span the P1 space.

    ``DofMap(mesh, bc_kind)`` frees every vertex for ``none``.  ``dirichlet``
    constrains every boundary vertex; ``mixed`` constrains the theta=0
    radial edge and the arc, so vertices strictly inside the theta_max edge
    stay free.  ``free`` is the read-only vertex mask.  The free vertices
    carry the dofs 0..n_dofs-1 in vertex order, so a vector over the dofs is
    a vertex vector restricted by ``free`` (``v[free]``), and :meth:`expand`
    undoes that restriction.  The CSR pattern of the free-dof P1 matrices is
    laid out on first use and kept, so every matrix of one dof map shares
    its index arrays.  Dof maps compare and hash by identity.
    """

    mesh: Mesh = field(repr=False)
    bc_kind: str
    free: np.ndarray = field(init=False)
    n_dofs: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bc_kind not in (DIRICHLET, MIXED, "none"):
            raise ValueError(f"unknown bc_kind {self.bc_kind!r}")
        free = np.ones(self.mesh.n_vertices, dtype=bool)
        if self.bc_kind != "none":
            for i, j, tag in self.mesh.boundary_edges:
                if self.bc_kind == DIRICHLET or tag in (EDGE_THETA0, EDGE_ARC):
                    free[i] = free[j] = False
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

    @functools.cached_property
    def _pattern(self):
        """CSR pattern of the free-dof P1 matrices and the mesh sum each entry reads.

        ``(indptr, indices, src)``, all int32.  ``indptr`` and ``indices``
        are canonical CSR arrays: row i holds i and every free dof that
        shares an element edge with it.  ``src`` names the sum of
        :func:`_assemble` that each entry reads: sum v of vertex v on the
        diagonal, and sum nv + e of mesh edge e (``Mesh.triangle_edges``
        numbers the edges, ``Mesh.edges`` holds their endpoints) at both
        entries of the edge.  As each edge appears once, scipy's COO-to-CSR
        conversion of these sum numbers sums nothing and only sorts.
        """
        free, ends = self.free, self.mesh.edges
        edge_sum = np.flatnonzero(free[ends].all(axis=0)).astype(np.int32)  # edges between free dofs
        a, b = (np.cumsum(free, dtype=np.int32) - 1)[ends[:, edge_sum]]
        edge_sum += self.mesh.n_vertices
        n = self.n_dofs
        rows = np.arange(n, dtype=np.int32)
        pattern = sp.coo_array((np.concatenate([np.flatnonzero(free), edge_sum, edge_sum],
                                               dtype=np.int32),
                                (np.concatenate([rows, a, b]), np.concatenate([rows, b, a]))),
                               shape=(n, n)).tocsr()
        return pattern.indptr, pattern.indices, pattern.data


def build_dofmap(mesh: Mesh, bc_kind: str = DIRICHLET) -> DofMap:
    """The dof map of ``mesh`` for the ``dirichlet`` or ``mixed`` boundary conditions."""
    if bc_kind not in (DIRICHLET, MIXED):
        raise ValueError(f"unknown bc_kind {bc_kind!r}")
    return DofMap(mesh, bc_kind)


def _check_bc_kind(bc_kind: str, dofmap: DofMap) -> None:
    """Raise ValueError unless ``dofmap`` was built for the boundary condition ``bc_kind``."""
    if dofmap.bc_kind != bc_kind:
        raise ValueError(f"dof map is built for bc_kind {dofmap.bc_kind!r}, "
                         f"but the problem has bc_kind {bc_kind!r}")


def unconstrained_dofmap(mesh: Mesh) -> DofMap:
    """Dof map with every vertex free (no boundary conditions applied)."""
    return DofMap(mesh, "none")


def element_geometry(mesh: Mesh):
    """Per-element areas (``Mesh.areas``) and constant P1 basis gradients."""
    e = _edge_vectors(mesh)
    # grad of barycentric i is the inward normal of the opposite edge / 2A
    grads = np.stack([-e[..., 1], e[..., 0]], axis=2)
    grads /= 2.0 * mesh.areas[:, None, None]
    return mesh.areas, grads


def _check_dofmap(mesh: Mesh, dofmap: DofMap) -> None:
    """Raise ValueError unless ``dofmap`` is built on ``mesh`` itself."""
    if dofmap.mesh is not mesh:
        raise ValueError(f"dof map is built for another mesh: the dof map numbers "
                         f"{dofmap.mesh.n_vertices} vertices, but the mesh has {mesh.n_vertices}")


# The entries (i, j) of an element matrix that _assemble sums: the
# diagonal (c, c), then edge c's entry (c+1, c+2), for c = 0, 1, 2.
_ROWS, _COLS = np.array([0, 1, 2, 1, 2, 0]), np.array([0, 1, 2, 2, 0, 1])


def _assemble(mesh: Mesh, dofmap: DofMap, local: Callable) -> sp.csr_array:
    """Sum symmetric element matrices on the mesh; gather the free-dof CSR matrix.

    ``local(block)`` returns the entries ``(_ROWS, _COLS)`` (e, 6) of the
    element matrices of the elements in the slice ``block``.  Block by
    block of ``_INTEGRATE_BLOCK`` elements, so no per-entry array spans the
    whole mesh, the diagonal entries are added onto their vertices' sums
    and the edge entries onto their edges' sums, each sum in element
    order.  Each CSR entry then gathers the sum that the pattern's ``src``
    names; both off-diagonal entries of an edge read one sum, so the matrix
    is exactly symmetric.  The matrix keeps the pattern's int32 index
    arrays, which halves the index arrays of the matrix and of every node
    matrix formed from it; SuperLU takes int32 indices too.  The index
    arrays are the dof map's own, so every matrix of one dof map shares them.
    """
    _check_dofmap(mesh, dofmap)
    indptr, indices, src = dofmap._pattern
    nv, edge = mesh.n_vertices, mesh.triangle_edges
    sums = np.zeros(nv + mesh.edges.shape[1])  # per mesh vertex, then per mesh edge
    for start in range(0, mesh.n_triangles, _INTEGRATE_BLOCK):
        block = slice(start, start + _INTEGRATE_BLOCK)
        entries = local(block)
        np.add.at(sums, mesh.triangles[block].ravel(), entries[:, :3].ravel())
        np.add.at(sums, (edge[block] + nv).ravel(), entries[:, 3:].ravel())
    n = dofmap.n_dofs
    return sp.csr_array((sums[src], indices, indptr), shape=(n, n))


_MASS_BLOCK = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0],
                        [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass(mesh: Mesh, dofmap: DofMap) -> sp.csr_array:
    """Mass matrix M_ij = integral of phi_i phi_j over the free basis."""
    entries = _MASS_BLOCK[_ROWS, _COLS]
    return _assemble(mesh, dofmap, lambda block: mesh.areas[block, None] * entries)


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


def element_quad_points(mesh: Mesh):
    """Quadrature groups (element ids, barycentric points (q, 3), weights (q,)).

    Every element uses the rule ``_RULE``; the elements with a vertex at
    the origin, where the r**(beta-1) singularities sit, use it on each of
    their four midpoint-refinement children, a quarter of the weight each.
    The children's points stay in the parent's barycentric coordinates, so
    P1 functions evaluate unchanged.  Empty groups are left out.
    """
    pts, w = _RULE
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
# whole graded mesh.  A power of two is a multiple of the row unroll of
# BLAS matrix kernels, so each element's sum is rounded exactly as in one
# product over its whole group.
_INTEGRATE_BLOCK = 4096


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
    """Integral over the mesh by the :func:`element_quad_points` quadrature.

    ``integrand(ids, pts, x, y)`` gets element ids, the group's barycentric
    points (q, 3) and point coordinates x, y (e, q), and returns its values
    (e, q) at those points.  It is called on blocks of at most
    ``_INTEGRATE_BLOCK`` elements of a group; the group's per-element sums
    are then reduced with one dot product.
    """
    total = 0.0
    for ids, pts, w in element_quad_points(mesh):
        per_element = [integrand(block, pts, x, y) @ w
                       for block, x, y in _blocks(mesh, ids, pts)]
        total += float(mesh.areas[ids] @ np.concatenate(per_element))
    return total


def assemble_load(mesh: Mesh, dofmap: DofMap, g: Callable) -> np.ndarray:
    """Load vector b_i = integral of g * phi_i by the :func:`element_quad_points` quadrature.

    ``g(x, y)`` must accept numpy arrays; complex-valued fields give a
    complex load vector.  Non-finite evaluations raise ValueError with the
    offending location.  The field is evaluated and reduced on the blocks
    :func:`integrate` uses, and each block's element vectors are added into
    a vector over all vertices in element order; the load vector is its
    restriction to the free vertices.
    """
    _check_dofmap(mesh, dofmap)
    out = np.zeros(mesh.n_vertices)
    for ids, pts, w in element_quad_points(mesh):
        wpts = w[:, None] * pts
        for block, x, y in _blocks(mesh, ids, pts):
            vals = field_values(g, x, y, "load field")
            if vals.dtype.kind == "c" and out.dtype.kind != "c":
                out = out.astype(complex)
            # b_e[i] = area * sum_q w_q g(x_q) lambda_i(x_q)
            be = mesh.areas[block, None] * (vals @ wpts)
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
    type and ``from scipy.sparse.linalg._dsolve import _superlu`` returns
    it.  That import does not make it an attribute of its package, though:
    the attribute access ``scipy.sparse.linalg._dsolve._superlu`` raises
    AttributeError, as the package did not exist when the module was
    registered.  If that directory holds no such file, the module is
    imported the ordinary way, which imports scipy.sparse.linalg too.
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


def _relative_residual(r: np.ndarray, b: np.ndarray) -> float:
    """||r|| / ||b||, with r and b both divided by max|b| first.

    So neither norm under- or overflows for any finite b.  It is 0 when r
    and b are both zero, and inf when only b is.
    """
    scale = np.abs(b).max()
    if scale == 0:
        return math.inf if r.any() else 0.0
    return float(np.linalg.norm(r / scale) / np.linalg.norm(b / scale))


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
        if _relative_residual(r, b) <= _RESIDUAL_TOL:
            return x
        x += lu.solve(r, trans="T")
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"{context} failed: {exc}") from exc
    res = _relative_residual(A @ x - b, b)
    if not res <= _RESIDUAL_TOL:  # NaN fails too
        raise SolverError(f"{context}: relative residual {res:.3e} exceeds {_RESIDUAL_TOL:g}", res)
    return x


def solve_real_spd(A: sp.sparray, b: np.ndarray) -> np.ndarray:
    """Direct sparse solve for symmetric positive definite A; residual <= 1e-10."""
    return _lu_solve(A, np.asarray(b, dtype=float), "real SPD solve")


# Refinement target of a contour-node solve; the module docstring says why
# the 1e-10 contract is not enough there.
_NODE_TOL = 1e-12


def _node_lu(zalpha: complex, mass: sp.csr_array, stiffness: sp.csr_array):
    """Single-precision SuperLU factor of ``scale * (zalpha M + S)``, and ``scale``.

    ``scale`` is the power of two that puts the largest real or imaginary
    part of an entry in [0.5, 1), so the scaling is exact and every entry
    lies in single precision's range.  The node data are formed in double
    precision on M's index arrays and rounded to complex64 once, and they
    are released when this function returns: SuperLU keeps only its factor.
    """
    data = mass.data * zalpha.real
    data += stiffness.data
    peak = max(np.abs(data).max(), abs(zalpha.imag) * np.abs(mass.data).max())
    scale = math.ldexp(1.0, -math.frexp(peak)[1])
    node = np.empty(mass.nnz, dtype=np.complex64)
    np.multiply(data, scale, out=node.real, casting="same_kind")
    del data
    np.multiply(mass.data, zalpha.imag * scale, out=node.imag, casting="same_kind")
    return _splu(sp.csr_array((node, mass.indices, mass.indptr), shape=mass.shape).T), scale


def _node_residual(zalpha: complex, mass: sp.csr_array, stiffness: sp.csr_array,
                   x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - (zalpha M + S) x in double precision, as b - (M (zalpha x) + S x).

    M and S multiply only the real and imaginary parts of vectors, so no
    complex copy of either is made.
    """
    w = zalpha * x
    r = b - (mass @ w.real + stiffness @ x.real)
    r.imag -= mass @ w.imag + stiffness @ x.imag
    return r


def solve_complex_symmetric(zalpha: complex, mass: sp.sparray, stiffness: sp.sparray,
                            b: np.ndarray) -> np.ndarray:
    """Solve (zalpha * M + S) x = b for complex symmetric (non-Hermitian) systems.

    M and S must be CSR arrays on one pattern, as every assembled pair is:
    the node matrix is then one complex data array on M's index arrays.  A
    pair on two patterns raises ValueError naming both shapes and entry
    counts.  The factorization is a general sparse LU with partial
    pivoting of the node matrix, scaled by a power of two and rounded to
    complex64; only the symmetric pattern is exploited, no Hermitian
    structure is assumed.  b is divided by its largest modulus, so the
    solve and its norms neither under- nor overflow for any finite b, and
    the solution is scaled back at the end; b = 0 gives exact zeros.
    Iterative refinement in double precision starts from x = 0: each step
    solves the residual, scaled to unit max-norm, with that factor, and
    computes the new residual from M and S.  It stops once the relative
    residual is at most 1e-12, or when a step fails to halve it.  Residual
    contract: relative residual <= 1e-10, or SolverError naming the
    residual and the refinement steps taken.
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
    b = np.asarray(b, dtype=complex)
    bmax = np.abs(b).max(initial=0.0)
    if bmax == 0:
        return np.zeros_like(b)
    b = b / bmax
    norm_b = np.linalg.norm(b)
    try:
        lu, scale = _node_lu(zalpha, mass, stiffness)
        x, r, res, steps = np.zeros_like(b), b, 1.0, -1  # the residual of x = 0 is b
        while res > _NODE_TOL:
            rmax = np.abs(r).max()
            y = lu.solve((r * (1.0 / rmax)).astype(np.complex64), trans="T")
            x += (scale * rmax) * y.astype(complex)
            r = _node_residual(zalpha, mass, stiffness, x, b)
            steps += 1
            last, res = res, np.linalg.norm(r) / norm_b
            if not res <= last / 2:  # NaN stops too
                break
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"complex symmetric solve failed: {exc}") from exc
    if not res <= _RESIDUAL_TOL:
        raise SolverError(f"complex symmetric solve: relative residual {res:.3e} exceeds "
                          f"{_RESIDUAL_TOL:g} after {steps} refinement steps", res)
    x *= bmax
    return x
