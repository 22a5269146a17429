"""Shared fixtures: cached meshes and assembled systems.

Mesh generation and assembly are deterministic, so expensive objects are
built once per session and shared read-only across tests.
"""

import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import roots_jacobi, roots_legendre

import sectorfem as sf
from sectorfem import fem

BETA = 2.0 / 3.0


@pytest.fixture(scope="session")
def mesh_cache():
    cache = {}

    def get(h_star, gamma, beta=BETA):
        key = (beta, h_star, gamma)
        if key not in cache:
            cache[key] = sf.generate_sector_mesh(beta, h_star, gamma)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def assembled_cache(mesh_cache):
    """(mesh, dofmap, mass, stiffness) for a given (h_star, gamma, bc, K)."""
    cache = {}

    def get(h_star, gamma, bc_kind, K):
        key = (h_star, gamma, bc_kind, K)
        if key not in cache:
            msh = mesh_cache(h_star, gamma)
            dm = sf.build_dofmap(msh, bc_kind)
            cache[key] = (msh, dm, fem.assemble_mass(msh, dm),
                          fem.assemble_stiffness(msh, dm, K))
        return cache[key]

    return get


def mass_norm(mass, v):
    return float(np.sqrt(v @ (mass @ v)))


def smallest_eigenpairs(stiffness, mass, k=1):
    """A few smallest eigenpairs of S v = lambda M v via shift-invert Lanczos.

    Returns (values ascending, vectors as columns, M-orthonormal).
    """
    vals, vecs = spla.eigsh(stiffness, k=k, M=sp.csc_matrix(mass), sigma=0.0, which="LM")
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def traced_peak_mb(fn):
    """Peak of the allocations tracemalloc traces while ``fn()`` runs, in MB."""
    fn()  # warm up, so lazy imports and caches are not counted
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def failing_on_finest_mesh(monkeypatch, spec, gamma, hs):
    """Make every complex solve on the finest mesh of ``hs`` raise SolverError."""
    finest = fem.build_dofmap(sf.generate_sector_mesh(spec.beta, hs[-1], gamma),
                              spec.bc_kind).n_dofs
    original = fem.solve_complex_symmetric

    def solve(zalpha, mass, stiffness, b):
        if b.size == finest:
            raise fem.SolverError("relative residual 3.000e-09 exceeds 1e-10", 3e-9)
        return original(zalpha, mass, stiffness, b)

    monkeypatch.setattr(fem, "solve_complex_symmetric", solve)


def fresh_interpreter_env():
    """Environment in which a fresh interpreter imports this checkout's sectorfem."""
    src = os.path.dirname(os.path.dirname(sf.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def conical_rule(n):
    """Conical product rule on the triangle, exact to degree 2n-1, weights summing to 1.

    Gauss-Legendre points in the collapsed coordinate and Gauss-Jacobi
    (weight 1-x) points in the other absorb the Jacobian exactly.
    """
    xi, wxi = roots_legendre(n)
    xi = 0.5 * (xi + 1.0)
    eta, weta = roots_jacobi(n, 1.0, 0.0)
    eta = 0.5 * (eta + 1.0)
    x = np.outer(xi, 1.0 - eta).ravel()
    y = np.tile(eta, n)
    w = np.outer(wxi, weta).ravel()
    return np.column_stack([1.0 - x - y, x, y]), w / w.sum()
