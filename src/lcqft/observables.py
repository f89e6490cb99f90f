"""Fixed-point algebra of observables.

Gauge-invariant elements are generated by species-contracted bilinears over
charge-zero solutions: sum_i Phi(phi x e_i) Phi(phi' x e_i) within one mass
block. For massless sectors, "charge zero" means vanishing symplectic product
with the constant unit solution; on our compact Cauchy surfaces the constant
solutions themselves are charge zero and produce central elements of the
charge-zero subalgebra, the known obstruction to identifying it with the
quotient current algebra.

The suite reads invariance off forms: sum_i Phi(u_i) Phi(v_i) is the
degree-2 part sum_jk C_jk e_j e_k with C = sym(sum_i u_i v_i^T), plus a unit
part that no move of `gauge.presentation` moves. `form_residual`, the
presentation's commutator defect of C and the shift vectors 2 C l_j, is zero
iff the whole gauge group O(nu) x| R^{nu(0)*} fixes the element;
`invariant_projection_check` is the same test on the algebra kernel.
"""
from __future__ import annotations

import numpy as np

from . import gauge as gg
from .algebra import AlgebraElement, check_degree_cap, derivation, fields, zero
from .dynamics import symplectic_matrix
from .errors import MassNotInSpectrum, NoMasslessSpecies, NotChargeZero
from .spacetime import LatticeSpacetime

# the largest |sigma(phi, unit constant)| of charge-zero massless input
CHARGE_TOL = 1e-12


def in_species(spacetime: LatticeSpacetime, data, species: int) -> np.ndarray:
    """The data vector (dim,) of single-species Cauchy data `data` (2, N),
    rows q and p, placed in one species slot."""
    out = np.zeros((2, spacetime.n_species, spacetime.n_sites), complex)
    out[:, species] = data
    return out.ravel()


def bilinear_pairs(spacetime: LatticeSpacetime, mass: float, phi, phi2
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The data vectors (nu(m), dim) of phi x e_i and of phi' x e_i for the
    species i of one mass block, from single-species data (2, N) (see
    `in_species`). Massless inputs must be charge zero, else the bilinear
    fails invariance under the affine gauge directions."""
    spectrum = spacetime.spectrum
    if spectrum.multiplicity(mass) == 0:
        raise MassNotInSpectrum(f"mass {mass} not in spectrum")
    if mass == 0.0:
        for data in (phi, phi2):
            charge = -complex(np.sum(data[1]))  # sigma(phi, unit constant)
            if abs(charge) > CHARGE_TOL:
                raise NotChargeZero(
                    f"sigma(phi, unit constant) = {charge} != 0")
    block = spectrum.block_slice(mass)
    return tuple(np.array([in_species(spacetime, data, s)
                           for s in range(block.start, block.stop)])
                 for data in (phi, phi2))


def bilinear_generator(spacetime: LatticeSpacetime, mass: float,
                       phi, phi2) -> AlgebraElement:
    """sum_i Phi(phi x e_i) Phi(phi' x e_i) over one mass block, as an
    algebra element (`bilinear_pairs`)."""
    return sum((fields(spacetime, u) * fields(spacetime, v) for u, v
                in zip(*bilinear_pairs(spacetime, mass, phi, phi2))),
               zero(spacetime))


def symmetric_form(us, vs) -> np.ndarray:
    """C = sym(sum_i u_i v_i^T) (dim, dim) of data vectors us, vs (n, dim),
    the form of sum_i Phi(u_i) Phi(v_i)."""
    C = np.transpose(us) @ np.asarray(vs)
    return (C + C.T) / 2


def form_residual(spacetime: LatticeSpacetime, C: np.ndarray) -> float:
    """The largest entry of the moves of an element with form C and no
    degree-1 part: X C - C X for each species map X of the presentation
    (up to sign, the forms X C + C X^T and R C R^T - C), and the degree-1
    vector 2 C l_j for each shift functional l_j. A form entry off the
    diagonal is half its monomial's coefficient, so this lies within
    [1/2, 1] of `invariant_projection_check`."""
    pres = gg.presentation(spacetime)
    return max(pres.defect(C), 2.0 * float(np.max(np.abs(C @ pres.shifts.T),
                                                  initial=0.0)))


def central_commutator(spacetime: LatticeSpacetime, C: np.ndarray,
                       chi: np.ndarray) -> np.ndarray:
    """The data vector of [Phi(chi), Q] = Phi(-2i C J chi) for Q of form C,
    as [Phi(chi), Phi(u) Phi(v)] = i sigma(chi, u) Phi(v)
    + i sigma(chi, v) Phi(u)."""
    return -2j * (C @ (symplectic_matrix(spacetime) @ chi))


def affine_derivative(a: AlgebraElement, direction: int) -> AlgebraElement:
    """d/dlambda of zeta(1, lambda e_j^*) a at lambda = 0."""
    if a.spacetime.spectrum.massless_count == 0:
        raise NoMasslessSpecies("affine directions need nu(0) > 0")
    pres = gg.presentation(a.spacetime)
    return derivation(a, pres.algebra_slots[0][len(pres.generators)
                                               + direction])


def invariant_projection_check(a: AlgebraElement, degree_cap: int = 4
                               ) -> float:
    """The worst residual of a under the moves of `gauge.presentation`."""
    check_degree_cap(a, degree_cap)
    return max((moved.max_abs()
                for moved in gg.presentation(a.spacetime).moves(a)),
               default=0.0)


def central_elements(spacetime: LatticeSpacetime) -> list[dict]:
    """Phi(chi) for each constant massless solution chi, as its data vector
    `chi` (dim,).

    Each commutes with every charge-zero bilinear (chi lies in the radical of
    the restricted symplectic form) yet is a nonzero element; it is charge
    zero, is fixed by all affine shifts (<l, chi> = 0 since chi has zero
    momentum), but is moved by the orthogonal factor, so it is excluded from
    the full fixed-point algebra. Flagged per compact-Cauchy-surface
    obstruction.
    """
    spectrum = spacetime.spectrum
    if spectrum.massless_count == 0:
        raise NoMasslessSpecies("central elements need nu(0) > 0")
    block = spectrum.block_slice(0.0)
    constant = [np.ones(spacetime.n_sites), np.zeros(spacetime.n_sites)]
    return [{"species": s, "chi": in_species(spacetime, constant, s),
             "flag": ("central in the charge-zero subalgebra; moved by the "
                      "orthogonal gauge factor, hence not an observable")}
            for s in range(block.start, block.stop)]
