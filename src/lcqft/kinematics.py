"""Kinematic local subalgebras and the solution-space action of morphisms.

The local algebra of a region is generated by fields smeared inside it; on
the lattice its degree-1 part is the span of E f over test functions
supported in the region (`region_solution_basis`, all point sources of the
region propagated in one batch), and an algebra element belongs to it iff
every tensor slot lies in that span. On Sym^k V = (+)_i Sym^(k-i) W (x)
Sym^i W_perp, the derivation extending the projector 1 - P onto W_perp
acts as i on the i-th summand, so it annihilates exactly the elements of
the subalgebra; `membership_residual` is the size of that derivation.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .algebra import AlgebraElement, derivation, slot_map
from .dynamics import evolve_data, matrix_of, propagate_sources
from .errors import DomainMismatch
from .spacetime import LatticeMorphism, Region

RANK_TOL = 1e-10


def region_solution_basis(region: Region) -> np.ndarray:
    """Orthonormal basis (columns) of span{E f : supp f inside the region}:
    one point source per (point, species), points in sorted order, species
    fastest, all propagated at once."""
    st = region.spacetime
    S = st.n_species
    points = [(t, x) for (t, x) in sorted(region.points)
              if 1 <= t <= st.n_steps - 2]
    if not points:
        return np.zeros((st.data_dim, 0), dtype=complex)
    t, x = np.array(points).T
    batch = np.arange(len(points) * S)
    sources = np.zeros((len(batch), S, st.n_slices, st.n_sites), dtype=complex)
    sources[batch, batch % S, np.repeat(t, S), np.repeat(x, S)] = 1.0
    A = np.concatenate(propagate_sources(st, sources), axis=-2)
    A = A.reshape(len(batch), st.data_dim).T
    u, sing, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(sing > RANK_TOL * sing[0]))
    return u[:, :rank]


def membership_residual(elements: Iterable[AlgebraElement],
                        basis: np.ndarray) -> float:
    """How far the elements are from the subalgebra generated by the span
    of `basis`: the largest coefficient of the derivation of any of them by
    1 - P, with P the orthogonal projector onto the span; zero iff every
    tensor slot of every element lies in the span. The slot map of 1 - P is
    built once for all the elements."""
    outside = slot_map(np.eye(basis.shape[0]) - basis @ basis.conj().T)
    return max((derivation(a, outside).max_abs() for a in elements),
               default=0.0)


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
        return matrix_of(act, st).real
    if kind in ("region_inclusion", "cauchy_extension"):
        if morphism.dt_steps or morphism.dx_sites % st.n_sites:
            raise DomainMismatch("inclusion carries a nontrivial shift")
        return np.eye(st.data_dim)
    raise DomainMismatch(f"no solution-space action for kind {kind}")
