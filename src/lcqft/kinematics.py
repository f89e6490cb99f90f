"""Kinematic local subalgebras and the solution-space action of morphisms.

The local algebra A(O) of a region is generated by the fields of its
solution space W, the span of E f over test functions supported in the
region (`region_solution_basis`, all point sources of the region propagated
in one batch, in coordinates that balance q and p). A map of the algebra
whose linear part on the fields is X (its constants lie in every A(O))
takes A(O) into itself iff X W lies in W. Morphisms act by real maps.
"""
from __future__ import annotations

import numpy as np

from .dynamics import evolve_data, matrix_of, propagate_sources
from .errors import DomainMismatch
from .spacetime import LatticeMorphism, Region

RANK_TOL = 1e-10


def region_solution_basis(region: Region) -> np.ndarray:
    """Orthonormal real columns spanning D W, W = span{E f : supp f inside
    the region}: one point source per (point, species), points in sorted
    order, species fastest, all propagated at once. E f has q of order dt
    times p, so D = diag(1/dt on the q rows, 1 on the p rows) balances the
    channels and the rank holds at any dt. Species maps commute with D; any
    other map X enters `membership_residual` conjugated, as D X D^-1."""
    st = region.spacetime
    S = st.n_species
    points = [(t, x) for (t, x) in sorted(region.points)
              if 1 <= t <= st.n_steps - 2]
    if not points:
        return np.zeros((st.data_dim, 0))
    t, x = np.array(points).T
    batch = np.arange(len(points) * S)
    sources = np.zeros((len(batch), S, st.n_slices, st.n_sites))
    sources[batch, batch % S, np.repeat(t, S), np.repeat(x, S)] = 1.0
    A = np.concatenate(propagate_sources(st, sources), axis=-2)
    A = A.reshape(len(batch), st.data_dim).T
    A[:st.data_dim // 2] /= st.dt
    u, sing, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(sing > RANK_TOL * sing[0]))
    return u[:, :rank]


def membership_residual(maps: np.ndarray, basis: np.ndarray) -> float:
    """max |X B - B (B^T X B)| over the maps X (n, dim, dim), with B the
    real orthonormal columns `basis`: zero iff each X keeps their span."""
    images = np.asarray(maps) @ basis
    return float(np.max(np.abs(images - basis @ (basis.T @ images)),
                        initial=0.0))


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
        return matrix_of(act, st)
    if kind in ("region_inclusion", "cauchy_extension"):
        if morphism.dt_steps or morphism.dx_sites % st.n_sites:
            raise DomainMismatch("inclusion carries a nontrivial shift")
        return np.eye(st.data_dim)
    raise DomainMismatch(f"no solution-space action for kind {kind}")
