"""P1 finite element machinery on sector meshes.

Provides the dof numbering with Dirichlet/mixed constraint elimination,
mass/stiffness/load assembly, the L2 projector, and the sparse linear
solvers (real SPD and complex symmetric) used by the inverse-Laplace time
integration.  Matrices are scipy CSR arrays, symmetric by construction;
coefficient vectors are plain numpy arrays over the free dofs.

Both direct solvers share one SuperLU path.  It orders the columns by
minimum degree on the pattern of A^T + A and runs SuperLU in symmetric
mode, which suits the symmetric pattern of every system here and needs
less fill than the default COLAMD ordering.  Partial pivoting stays at
SuperLU's default; supernode relaxation and panel width are set small,
which factors these systems faster.  The CSR arrays of A go to SuperLU as
the CSC arrays of A^T, so no conversion copies the matrix, and the solves
use that factor transposed.  The relative residual is computed after the
first solve; one step of iterative refinement runs only when it exceeds
1e-10, and the result must then meet 1e-10 or SolverError is raised.  The L2
projector solves with the mass matrix by Jacobi-preconditioned conjugate
gradients instead: the diagonally scaled P1 mass matrix has a condition
number bounded independently of the mesh and its grading (Wathen, IMA J.
Numer. Anal. 7, 1987).  It is held to the same 1e-10 residual contract.

Quadrature near the corner follows one geometric policy,
:func:`element_quad_points`, which load assembly and the error norms in
``harness`` share: every element gets the same symmetric rule, and the
elements with a vertex at the re-entrant corner get it on each of their
four midpoint-refinement children, so integrands with an r**(beta-1)
singularity there are sampled more densely.  The policy reads only the
vertex coordinates, never the generation metadata of the mesh.

Load assembly is split in two.  ``LoadQuadrature`` is the mesh-only part:
the element groups, their quadrature points, element areas and free dofs.
Its ``load(g)`` evaluates a field at the held points and reduces it to a
load vector; ``assemble_load`` is the set-up followed by one apply.  Every
quadrature-point and reduction kernel is a single 2-D matrix product, which
BLAS runs far faster than the equivalent three-operand einsum.

Assembled matrices are immutable in practice (never modified after return)
and each solve factors its own copy, so concurrent solves against shared
matrices are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import EDGE_ARC, EDGE_THETA0, Mesh, triangle_areas

DIRICHLET = "dirichlet"
MIXED = "mixed"

# Symmetric interior-point quadrature rules on the reference triangle:
# degree -> (barycentric points (n, 3), weights summing to 1).  Interior
# points only, so integrands with an r**(beta-1) corner singularity are
# never sampled at the corner itself.
_TRI_RULES = {
    2: (
        np.array([
            [2 / 3, 1 / 6, 1 / 6],
            [1 / 6, 2 / 3, 1 / 6],
            [1 / 6, 1 / 6, 2 / 3],
        ]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
    ),
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
    5: (
        np.array([
            [1 / 3, 1 / 3, 1 / 3],
            [0.059715871789770, 0.470142064105115, 0.470142064105115],
            [0.470142064105115, 0.059715871789770, 0.470142064105115],
            [0.470142064105115, 0.470142064105115, 0.059715871789770],
            [0.797426985353087, 0.101286507323456, 0.101286507323456],
            [0.101286507323456, 0.797426985353087, 0.101286507323456],
            [0.101286507323456, 0.101286507323456, 0.797426985353087],
        ]),
        np.array([0.225,
                  0.132394152788506, 0.132394152788506, 0.132394152788506,
                  0.125939180544827, 0.125939180544827, 0.125939180544827]),
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


def _conical_rule(n: int):
    """Conical product rule on the triangle, exact to degree 2n-1.

    Gauss-Legendre points in the collapsed coordinate and Gauss-Jacobi
    (weight 1-x) points in the other absorb the Jacobian exactly, so no
    tabulated constants are needed.  Weights are normalized to sum to 1.
    """
    from scipy.special import roots_jacobi, roots_legendre
    xi, wxi = roots_legendre(n)
    xi = 0.5 * (xi + 1.0)
    eta, weta = roots_jacobi(n, 1.0, 0.0)
    eta = 0.5 * (eta + 1.0)
    x = np.outer(xi, 1.0 - eta).ravel()
    y = np.tile(eta, n)
    w = np.outer(wxi, weta).ravel()
    pts = np.column_stack([1.0 - x - y, x, y])
    return pts, w / w.sum()


def triangle_rule(degree: int):
    """Symmetric tabulated rule (degree <= 6) or conical product rule above."""
    if degree < 2:
        raise ValueError(f"quadrature degree must be >= 2, got {degree}")
    for d in sorted(_TRI_RULES):
        if d >= degree:
            return _TRI_RULES[d]
    return _conical_rule((degree + 2) // 2)


class SolverError(RuntimeError):
    """Linear solve failed or did not meet the residual contract."""

    def __init__(self, message: str, residual: float = np.nan):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class DofMap:
    """Vertex-to-dof numbering with constrained vertices marked by -1."""

    vertex_to_dof: np.ndarray
    n_dofs: int
    bc_kind: str

    def __post_init__(self):
        object.__setattr__(self, "vertex_to_dof",
                           np.ascontiguousarray(self.vertex_to_dof, dtype=np.int64))
        self.vertex_to_dof.setflags(write=False)

    def expand(self, u: np.ndarray) -> np.ndarray:
        """Free-dof coefficients -> per-vertex nodal values (zeros where constrained)."""
        u = np.asarray(u)
        if u.shape[:1] != (self.n_dofs,):
            raise ValueError(f"expected {self.n_dofs} free-dof coefficients, got shape {u.shape}")
        full = np.zeros(self.vertex_to_dof.shape[0], dtype=u.dtype)
        free = self.vertex_to_dof >= 0
        full[free] = u[self.vertex_to_dof[free]]
        return full


def build_dofmap(mesh: Mesh, bc_kind: str = DIRICHLET) -> DofMap:
    """Number the free vertices for the requested boundary conditions.

    ``dirichlet`` constrains every boundary vertex.  ``mixed`` constrains the
    theta=0 radial edge and the arc; vertices strictly inside the theta_max
    radial edge stay free (its endpoints are shared with constrained edges).
    """
    if bc_kind not in (DIRICHLET, MIXED):
        raise ValueError(f"unknown bc_kind {bc_kind!r}")
    constrained = np.zeros(mesh.n_vertices, dtype=bool)
    for i, j, tag in mesh.boundary_edges:
        if bc_kind == DIRICHLET or tag in (EDGE_THETA0, EDGE_ARC):
            constrained[i] = constrained[j] = True
    vertex_to_dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    free = np.flatnonzero(~constrained)
    vertex_to_dof[free] = np.arange(free.size)
    return DofMap(vertex_to_dof, free.size, bc_kind)


def unconstrained_dofmap(mesh: Mesh) -> DofMap:
    """Dof map with every vertex free (no boundary conditions applied)."""
    return DofMap(np.arange(mesh.n_vertices), mesh.n_vertices, "none")


def element_geometry(mesh: Mesh):
    """Per-element areas and constant P1 basis gradients."""
    areas = triangle_areas(mesh)
    p = mesh.vertices[mesh.triangles]
    # grad of barycentric i is the inward normal of the opposite edge / 2A
    grads = np.empty((mesh.n_triangles, 3, 2))
    for i, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        grads[:, i, 0] = p[:, a, 1] - p[:, b, 1]
        grads[:, i, 1] = p[:, b, 0] - p[:, a, 0]
    grads /= 2.0 * areas[:, None, None]
    return areas, grads


def quad_points(mesh: Mesh, ids: np.ndarray, pts: np.ndarray):
    """Coordinates (x, y), each (e, q), of barycentric points ``pts`` (q, 3) on elements ``ids``."""
    tri = mesh.triangles[ids]
    return mesh.vertices[tri, 0] @ pts.T, mesh.vertices[tri, 1] @ pts.T


def _scatter(mesh: Mesh, dofmap: DofMap, local: np.ndarray) -> sp.csr_array:
    """Accumulate per-element 3x3 blocks into the free-dof CSR matrix."""
    dofs = dofmap.vertex_to_dof[mesh.triangles]
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    vals = local.ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = dofmap.n_dofs
    mat = sp.coo_array((vals[keep], (rows[keep], cols[keep])), shape=(n, n))
    return mat.tocsr()


_MASS_BLOCK = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0],
                        [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass(mesh: Mesh, dofmap: DofMap) -> sp.csr_array:
    """Mass matrix M_ij = integral of phi_i phi_j over the free basis."""
    local = triangle_areas(mesh)[:, None, None] * _MASS_BLOCK
    return _scatter(mesh, dofmap, local)


def assemble_stiffness(mesh: Mesh, dofmap: DofMap, K: float = 1.0) -> sp.csr_array:
    """Stiffness matrix S_ij = K * integral of grad phi_i . grad phi_j."""
    if K <= 0:
        raise ValueError(f"diffusivity K must be positive, got {K}")
    areas, grads = element_geometry(mesh)
    local = K * areas[:, None, None] * np.einsum("eid,ejd->eij", grads, grads)
    return _scatter(mesh, dofmap, local)


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

    Every element uses ``triangle_rule(degree)``; the elements with a vertex
    at the origin, where the r**(beta-1) singularities sit, use that rule on
    each of their four midpoint-refinement children, a quarter of the
    weight each.  The children's points stay in the parent's barycentric
    coordinates, so P1 functions evaluate unchanged.  Empty groups are
    left out.
    """
    pts, w = triangle_rule(degree)
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    corner = (r[mesh.triangles] < 1e-14).any(axis=1)
    groups = [(np.flatnonzero(~corner), pts, w),
              (np.flatnonzero(corner), np.concatenate([pts @ c for c in _CHILDREN]),
               np.tile(w / 4.0, 4))]
    return [group for group in groups if group[0].size]


class _LoadGroup(NamedTuple):
    x: np.ndarray       # (e, q) quadrature point coordinates
    y: np.ndarray
    wpts: np.ndarray    # (q, 3) rule weights times barycentric points
    areas: np.ndarray   # (e, 1) element areas
    keep: np.ndarray    # (3e,) mask of the element-vertex slots holding a free dof
    rows: np.ndarray    # free dofs of the kept slots


class LoadQuadrature:
    """Load assembly split into a mesh-only set-up and a per-field apply step.

    The set-up runs once per (mesh, dofmap, quad_degree).  It keeps, for
    each element group of :func:`element_quad_points`, the quadrature point
    coordinates, the rule, the element areas and the free dofs.  ``load(g)``
    then does only the work that depends on the field, so a caller that
    assembles many loads on one mesh (one per contour node) builds the
    quadrature once.
    """

    def __init__(self, mesh: Mesh, dofmap: DofMap, quad_degree: int = 4):
        if not 2 <= quad_degree <= 6:
            raise ValueError(f"load quadrature degree must be in 2..6, got {quad_degree}")
        self.n_dofs = dofmap.n_dofs
        areas = triangle_areas(mesh)
        dofs = dofmap.vertex_to_dof[mesh.triangles]
        self.groups = []
        for ids, pts, w in element_quad_points(mesh, quad_degree):
            x, y = quad_points(mesh, ids, pts)
            d = dofs[ids].ravel()
            keep = d >= 0
            self.groups.append(_LoadGroup(x, y, w[:, None] * pts, areas[ids, None],
                                          keep, d[keep]))

    def load(self, g: Callable) -> np.ndarray:
        """Load vector b_i = integral of g * phi_i; see :func:`assemble_load`."""
        out = None
        for grp in self.groups:
            vals = np.asarray(g(grp.x, grp.y))
            if not np.all(np.isfinite(vals)):
                e, q = np.argwhere(~np.isfinite(vals))[0]
                raise ValueError("load field returned non-finite value at "
                                 f"({grp.x[e, q]:.6g}, {grp.y[e, q]:.6g})")
            if out is None:
                out = np.zeros(self.n_dofs, dtype=np.promote_types(vals.dtype, float))
            elif vals.dtype.kind == "c" and out.dtype.kind != "c":
                out = out.astype(complex)
            # b_e[i] = area * sum_q w_q g(x_q) lambda_i(x_q)
            be = grp.areas * (vals @ grp.wpts)
            np.add.at(out, grp.rows, be.ravel()[grp.keep])
        return out


def assemble_load(mesh: Mesh, dofmap: DofMap, g: Callable, quad_degree: int = 4) -> np.ndarray:
    """Load vector b_i = integral of g * phi_i by symmetric triangle quadrature.

    ``g(x, y)`` must accept numpy arrays; complex-valued fields give a
    complex load vector.  Non-finite evaluations raise ValueError with the
    offending location.  Builds a :class:`LoadQuadrature` and applies it
    once; callers assembling several fields on one mesh should keep the
    quadrature and call its ``load`` instead.
    """
    return LoadQuadrature(mesh, dofmap, quad_degree).load(g)


def l2_project(mesh: Mesh, dofmap: DofMap, u0: Callable, quad_degree: int = 4) -> np.ndarray:
    """Coefficients of the L2-orthogonal projection of u0 onto the FE space.

    Solves M x = b by Jacobi-preconditioned CG; raises SolverError if CG
    does not converge or the relative residual exceeds 1e-10.
    """
    mass = assemble_mass(mesh, dofmap)
    b = np.asarray(assemble_load(mesh, dofmap, u0, quad_degree), dtype=float)
    # Jacobi-scaled P1 mass matrices are uniformly well conditioned, so CG
    # converges in a few dozen iterations at any mesh size or grading.
    jacobi = sp.diags_array(1.0 / mass.diagonal())
    x, info = spla.cg(mass, b, rtol=1e-13, atol=0.0, M=jacobi)
    if info != 0:
        raise SolverError(f"L2 projection: CG did not converge (info={info})")
    return _check_residual(mass, x, b, "L2 projection")


_RESIDUAL_TOL = 1e-10

# SuperLU supernode relaxation and panel width.  An interleaved sweep of
# contour-node factorizations (BENCH_5.json) found these small values
# 20-30% faster than SuperLU's defaults on every system the benchmark
# factors, with the same L+U fill; larger values were slower.
_RELAX = 1
_PANEL_SIZE = 1


def _check_residual(A, x, b, context: str) -> np.ndarray:
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return x
    res = np.linalg.norm(A @ x - b) / norm_b
    if not np.isfinite(res) or res > _RESIDUAL_TOL:
        raise SolverError(f"{context}: relative residual {res:.3e} exceeds 1e-10", res)
    return x


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
        lu = spla.splu(A.T, permc_spec="MMD_AT_PLUS_A", relax=_RELAX,
                       panel_size=_PANEL_SIZE, options={"SymmetricMode": True})
        x = lu.solve(b, trans="T")
        r = b - A @ x
        if np.linalg.norm(r) <= _RESIDUAL_TOL * np.linalg.norm(b):
            return x
        x += lu.solve(r, trans="T")
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"{context} failed: {exc}") from exc
    return _check_residual(A, x, b, context)


def solve_real_spd(A: sp.sparray, b: np.ndarray) -> np.ndarray:
    """Direct sparse solve for symmetric positive definite A; residual <= 1e-10."""
    return _lu_solve(A, np.asarray(b, dtype=float), "real SPD solve")


def solve_complex_symmetric(zalpha: complex, mass: sp.sparray, stiffness: sp.sparray,
                            b: np.ndarray) -> np.ndarray:
    """Solve (zalpha * M + S) x = b for complex symmetric (non-Hermitian) systems.

    The factorization is a general sparse LU with partial pivoting; only the
    symmetric pattern is exploited, no Hermitian structure is assumed.
    Residual contract: relative residual <= 1e-10.
    """
    zalpha = complex(zalpha)
    if not np.isfinite(zalpha.real) or not np.isfinite(zalpha.imag):
        raise ValueError(f"non-finite coefficient zalpha = {zalpha}")
    # A complex coefficient makes the sum complex; no further copy is made.
    return _lu_solve(zalpha * mass + stiffness, np.asarray(b, dtype=complex),
                     "complex symmetric solve")


def smallest_eigenpairs(stiffness: sp.sparray, mass: sp.sparray, k: int = 1):
    """A few smallest eigenpairs of S v = lambda M v via shift-invert Lanczos.

    Returns (values ascending, vectors as columns, M-orthonormal).
    """
    vals, vecs = spla.eigsh(stiffness, k=k, M=sp.csc_matrix(mass), sigma=0.0, which="LM")
    order = np.argsort(vals)
    return vals[order], vecs[:, order]
