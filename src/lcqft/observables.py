"""Fixed-point algebra of observables.

Gauge-invariant elements are generated by species-contracted bilinears over
charge-zero solutions: sum_i Phi(phi x e_i) Phi(phi' x e_i) within one mass
block. For massless sectors, "charge zero" means vanishing symplectic product
with the constant unit solution; on our compact Cauchy surfaces the constant
solutions themselves are charge zero and produce central elements of the
charge-zero subalgebra, the known obstruction to identifying it with the
quotient current algebra.
"""
from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, check_degree_cap, derivation, fields, zero
from .errors import MassNotInSpectrum, NoMasslessSpecies, NotChargeZero
from .gauge import presentation
from .spacetime import LatticeSpacetime

# the largest |sigma(phi, unit constant)| of charge-zero massless input
CHARGE_TOL = 1e-12


def in_species(spacetime: LatticeSpacetime, data, species: int) -> np.ndarray:
    """The data vector (dim,) of single-species Cauchy data `data` (2, N),
    rows q and p, placed in one species slot."""
    out = np.zeros((2, spacetime.n_species, spacetime.n_sites), complex)
    out[:, species] = data
    return out.ravel()


def bilinear_generator(spacetime: LatticeSpacetime, mass: float,
                       phi, phi2) -> AlgebraElement:
    """sum_i Phi(phi x e_i) Phi(phi' x e_i) over the species of one mass
    block, for single-species data phi, phi' (2, N) (see `in_species`).

    Massless inputs must be charge zero, else the element fails invariance
    under the affine gauge directions.
    """
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
    out = zero(spacetime)
    for s in range(block.start, block.stop):
        out = out + fields(spacetime, in_species(spacetime, phi, s)) \
            * fields(spacetime, in_species(spacetime, phi2, s))
    return out


def affine_derivative(a: AlgebraElement, direction: int) -> AlgebraElement:
    """d/dlambda of zeta(1, lambda e_j^*) a at lambda = 0."""
    if a.spacetime.spectrum.massless_count == 0:
        raise NoMasslessSpecies("affine directions need nu(0) > 0")
    return derivation(a, presentation(a.spacetime).shifts[direction])


def invariant_projection_check(a: AlgebraElement, degree_cap: int = 4,
                               tol: float = 1e-10) -> tuple[bool, float]:
    """True iff a is fixed by the whole gauge group O(nu) x| R^{nu(0)*}:
    every move of the exact presentation (`gauge.presentation`) annihilates
    it. Returns the worst residual either way."""
    check_degree_cap(a, degree_cap)
    residual = max((moved.max_abs()
                    for moved in presentation(a.spacetime).moves(a)),
                   default=0.0)
    return residual < tol, residual


def central_elements(spacetime: LatticeSpacetime) -> list[dict]:
    """Phi(chi) for each constant massless solution chi.

    Each commutes with every charge-zero bilinear (chi lies in the radical of
    the restricted symplectic form) yet is a nonzero element; it is charge
    zero, is fixed by all affine shifts (<l, chi> = 0 since chi has zero
    momentum), but is moved by the orthogonal factor, so it is excluded from
    the full fixed-point algebra. Flagged per compact-Cauchy-surface
    obstruction.
    """
    spectrum = spacetime.spectrum
    n0 = spectrum.massless_count
    if n0 == 0:
        raise NoMasslessSpecies("central elements need nu(0) > 0")
    block = spectrum.block_slice(0.0)
    out = []
    chi = np.array([np.ones(spacetime.n_sites), np.zeros(spacetime.n_sites)])
    for s in range(block.start, block.stop):
        element = fields(spacetime, in_species(spacetime, chi, s))
        out.append({
            "species": s,
            "element": element,
            "chi": chi,
            "flag": ("central in the charge-zero subalgebra; moved by the "
                     "orthogonal gauge factor, hence not an observable"),
        })
    return out
