"""Kinematic local subalgebras and the solution-space action of morphisms.

The local algebra A(O) of a region is generated by the fields of its
solution space W, the span of E f over test functions supported in the
region (`region_solution_basis`: its points' momentum kicks evolved back to
t = 0, in coordinates that balance q and p). A map of the algebra whose
linear part on the fields is X (its constants lie in every A(O)) takes
A(O) into itself iff X W lies in W. Morphisms act by real maps.
"""
from __future__ import annotations

import numpy as np

from .dynamics import evolve_data, matrix_of
from .errors import DomainMismatch
from .spacetime import LatticeMorphism, Region

RANK_TOL = 1e-10


def region_solution_basis(region: Region) -> np.ndarray:
    """Orthonormal real columns spanning D W, W = span{E f : supp f inside
    the region}. E of the point source at (t, x) is dt U(0<-t)(0, e_x), so
    W is spanned by the unit momentum kicks of the points in slices
    [1, T-2] (sorted, species fastest), each slice's evolved back to t = 0
    as one batch. q is of order dt times p there, so D = diag(1/dt on the q
    rows, 1 on the p rows) keeps the rank at any dt. Species maps commute
    with D; any other map X enters `membership_residual` as D X D^-1."""
    st = region.spacetime
    S, dim = st.n_species, st.data_dim
    ts, xs = np.array(sorted(region.points), dtype=int).reshape(-1, 2).T
    A = []  # per slice, its kicks' data at t = 0
    for t in range(1, st.n_steps - 1):
        kick = np.arange(np.sum(ts == t) * S)
        if len(kick):
            p = np.zeros((len(kick), S, st.n_sites))
            p[kick, kick % S, np.repeat(xs[ts == t], S)] = 1.0
            A.append(np.concatenate(evolve_data(0 * p, p, st, t, 0), -2))
    if not A:
        return np.zeros((dim, 0))
    A = np.concatenate(A).reshape(-1, dim).T  # and the blocks are freed
    A[:dim // 2] /= st.dt
    u, sing, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(sing > RANK_TOL * sing[0]))
    return u[:, :rank]


def membership_residual(images: np.ndarray, basis: np.ndarray) -> float:
    """max |Y - B (B^T Y)| over the images Y = X B (n, dim, r) of the real
    orthonormal columns B = `basis` under maps X: zero iff each X keeps
    their span."""
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
