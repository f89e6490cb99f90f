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

from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraElement, check_degree_cap, derivation, field,
                      max_coeff_diff, slot_map, zero)
from .classify import expected_so_generators
from .dynamics import ScalarData, embed_scalar, require_charge_zero
from .errors import MassNotInSpectrum, NoMasslessSpecies
from .gauge import QuantumAction, block_reflections, ell_basis_values
from .spacetime import LatticeSpacetime


@dataclass(frozen=True, eq=False)
class ChargeZeroSubspace:
    """Charge-zero sector data: an orthonormal basis of the subspace of
    solutions whose massless components have vanishing symplectic product
    with the unit constant, plus the complement generator theta."""

    spacetime: LatticeSpacetime
    basis: np.ndarray       # (dim, dim - nu(0)) orthonormal columns
    theta: ScalarData       # sigma(theta, 1) = 1

    @staticmethod
    def build(spacetime: LatticeSpacetime) -> "ChargeZeroSubspace":
        st = spacetime
        spectrum = st.spectrum
        n0 = spectrum.massless_count
        dim = st.data_dim
        S, N = st.n_species, st.n_sites
        # constraint rows: for each massless species, the charge functional
        # sigma(phi_s, 1) = -sum_x p_s(x)
        rows = np.zeros((n0, dim))
        if n0:
            block = spectrum.block_slice(0.0)
            for j, s in enumerate(range(block.start, block.stop)):
                rows[j, S * N + s * N: S * N + (s + 1) * N] = -1.0
        if n0 == 0:
            basis = np.eye(dim)
        else:
            _, sing, vt = np.linalg.svd(rows)
            basis = vt[n0:].T  # nullspace of the charge functionals
        theta = ScalarData(st, np.zeros(N), -np.ones(N) / N)
        return ChargeZeroSubspace(st, basis, theta)

    @property
    def codimension(self) -> int:
        return self.spacetime.data_dim - self.basis.shape[1]


def bilinear_generator(spacetime: LatticeSpacetime, mass: float,
                       phi: ScalarData, phi2: ScalarData) -> AlgebraElement:
    """sum_i Phi(phi x e_i) Phi(phi' x e_i) over the species of one mass block.

    Massless inputs must be charge zero, else the element fails invariance
    under the affine gauge directions.
    """
    spectrum = spacetime.spectrum
    if spectrum.multiplicity(mass) == 0:
        raise MassNotInSpectrum(f"mass {mass} not in spectrum")
    if mass == 0.0:
        require_charge_zero(phi)
        require_charge_zero(phi2)
    block = spectrum.block_slice(mass)
    out = zero(spacetime)
    for s in range(block.start, block.stop):
        out = out + field(embed_scalar(phi, s)) * field(embed_scalar(phi2, s))
    return out


def affine_derivative(a: AlgebraElement, direction: int) -> AlgebraElement:
    """d/dlambda of zeta(1, lambda e_j^*) a at lambda = 0.

    The shift substitutes e_i -> e_i + lambda <e_j^*, e_i> 1 in every slot,
    so its tangent is the derivation with no linear part and the shift
    functional as constants.
    """
    st = a.spacetime
    if st.spectrum.massless_count == 0:
        raise NoMasslessSpecies("affine directions need nu(0) > 0")
    e_j = np.zeros(st.spectrum.massless_count)
    e_j[direction] = 1.0
    return derivation(a, slot_map(np.zeros((st.data_dim, st.data_dim)),
                                  ell_basis_values(e_j, st)))


def invariant_projection_check(a: AlgebraElement, degree_cap: int = 4,
                               tol: float = 1e-10) -> tuple[bool, float]:
    """True iff a is fixed by the whole gauge group O(nu) x| R^{nu(0)*}:
    every in-block rotation generator and every affine shift derivative
    annihilates a, and one reflection per mass block
    (`gauge.block_reflections`) fixes it. Returns the worst residual either
    way."""
    check_degree_cap(a, degree_cap)
    st = a.spacetime
    residual = 0.0
    for gen in expected_so_generators(st):
        residual = max(residual,
                       derivation(a, slot_map(gen)).max_abs())
    for g in block_reflections(st.spectrum):
        residual = max(residual, max_coeff_diff(QuantumAction(g, st)(a), a))
    for j in range(st.spectrum.massless_count):
        residual = max(residual, affine_derivative(a, j).max_abs())
    return residual < tol, residual


def export_generators(spacetime: LatticeSpacetime,
                      generators: list[tuple[float, ScalarData, ScalarData,
                                             AlgebraElement]]) -> list[dict]:
    """Generator set in the element JSON schema with provenance metadata."""
    out = []
    for mass, phi, phi2, element in generators:
        support = sorted(set(
            np.nonzero(np.abs(phi.q) + np.abs(phi.p))[0].tolist())
            | set(np.nonzero(np.abs(phi2.q) + np.abs(phi2.p))[0].tolist()))
        out.append({
            "mass": mass,
            "support_sites": support,
            "element": element.to_json(),
        })
    return out


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
    N = spacetime.n_sites
    for j, s in enumerate(range(block.start, block.stop)):
        chi = ScalarData(spacetime, np.ones(N), np.zeros(N))
        element = field(embed_scalar(chi, s))
        out.append({
            "species": s,
            "element": element,
            "chi": chi,
            "flag": ("central in the charge-zero subalgebra; moved by the "
                     "orthogonal gauge factor, hence not an observable"),
        })
    return out
