"""Kinematic local subalgebras and the solution-space action of morphisms.

The local algebra of a region is generated by fields smeared inside it; on
the lattice its degree-1 part is the span of E f over test functions
supported in the region, and membership of an algebra element is the
statement that every tensor slot lies in that span.
"""
from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, max_coeff_diff, slot_map, substitute_affine
from .dynamics import TestFunction, evolve_data, propagate_test_function
from .errors import DomainMismatch
from .spacetime import LatticeMorphism, Region

RANK_TOL = 1e-10


def region_solution_basis(region: Region) -> np.ndarray:
    """Orthonormal basis (columns) of span{E f : supp f inside the region}."""
    st = region.spacetime
    vecs = []
    vals = np.zeros((st.n_species, st.n_slices, st.n_sites), dtype=complex)
    for (t, x) in sorted(region.points):
        if not (1 <= t <= st.n_steps - 2):
            continue
        for s in range(st.n_species):
            vals[:] = 0
            vals[s, t, x] = 1.0
            vecs.append(propagate_test_function(TestFunction(st, vals)).vec())
    if not vecs:
        return np.zeros((st.data_dim, 0), dtype=complex)
    A = np.array(vecs).T
    u, sing, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(sing > RANK_TOL * sing[0]))
    return u[:, :rank]


def subspace_projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


def membership_residual(a: AlgebraElement, basis: np.ndarray) -> float:
    """How far a is from the subalgebra generated by the subspace.

    Applies the slot-wise orthogonal projection onto the span (the functorial
    action of the projector) and measures the coefficient change; zero iff
    every tensor slot lies in the span. Degrees <= 2 go through dense numpy
    (a vector and a symmetric matrix); higher degrees through the sparse
    substitution.
    """
    P = subspace_projector(basis)
    dim = a.dim
    degree = a.term_degrees()
    residual = 0.0
    if np.any(degree == 1):
        vec1 = np.zeros(dim, dtype=complex)
        vec1[a.digits[-1, degree == 1] - 1] = a.coeffs[degree == 1]
        residual = max(residual, float(np.max(np.abs(vec1 - P @ vec1))))
    if np.any(degree == 2):
        i, j = a.digits[-2:, degree == 2] - 1
        c = a.coeffs[degree == 2]
        mat2 = np.zeros((dim, dim), dtype=complex)
        mat2[i, j] = np.where(i == j, c, c / 2)
        mat2[j, i] = mat2[i, j]
        diff = mat2 - P @ mat2 @ P.T
        off = np.abs(diff) * 2
        np.fill_diagonal(off, np.abs(np.diag(diff)))
        residual = max(residual, float(np.max(off)))
    if np.any(degree > 2):
        rest = a.select(degree > 2)
        projected = substitute_affine(rest, slot_map(P))
        residual = max(residual, max_coeff_diff(rest, projected))
    return residual


def solution_map(morphism: LatticeMorphism) -> np.ndarray:
    """Matrix of the induced map on solution spaces over the canonical basis.

    Translations act by backward evolution and spatial roll (the data of the
    translated solution); region inclusions and Cauchy extensions act as the
    identity on Cauchy data (the timeslice isomorphism reads the solution off
    the common surface).
    """
    st = morphism.target.spacetime
    kind = morphism.kind
    if kind == "translation":
        def act(qb, pb):
            qb, pb = evolve_data(qb, pb, st, 0, -morphism.dt_steps)
            return (np.roll(qb, morphism.dx_sites, axis=-1),
                    np.roll(pb, morphism.dx_sites, axis=-1))
        from .dynamics import matrix_of
        return matrix_of(act, st).real
    if kind in ("region_inclusion", "cauchy_extension"):
        if morphism.dt_steps or morphism.dx_sites % st.n_sites:
            raise DomainMismatch("inclusion carries a nontrivial shift")
        return np.eye(st.data_dim)
    raise DomainMismatch(f"no solution-space action for kind {kind}")
