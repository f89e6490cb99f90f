"""The gauge group O(nu) x| R^{nu(0)*} and its actions.

Elements carry one orthogonal block per mass and a real row vector of shifts
for the massless species. The group law is the semidirect product
(R, l) . (R', l') = (R R', l R'_0 + l'); the classical action rotates species
within each mass block identically at every lattice point; the quantum action
is the algebra homomorphism

    zeta(R, l) Phi(phi) = Phi(S(R) phi) + <l, phi> 1,

with <l, phi> = sigma(l . phi_0, unit constant) = -sum_x l . p_0(x).

Whole-group properties are checked on one exact presentation
(`presentation`): the derivations of the in-block rotation generators and of
the shift directions, and one reflection per mass block. Group elements are
sampled (`random_gauge`) only where the group law itself is under test.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (AlgebraElement, SlotMap, degree1_vector, derivation,
                      fields, slot_maps, substitute_affine)
from .dynamics import delta_test_function, propagate_sources
from .errors import NotOrthogonal, SpectrumMismatch
from .spacetime import LatticeSpacetime, MassSpectrum

ORTHOGONALITY_TOL = 1e-12
# a multiplet closure adds a vector only if more than this fraction of the
# seed field's norm lies outside the span found so far
MULTIPLET_RANK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GaugeElement:
    """One orthogonal block per mass plus the massless shift row vector."""

    spectrum: MassSpectrum
    blocks: tuple[np.ndarray, ...]
    ell: np.ndarray

    def __post_init__(self):
        blocks = []
        for (mass, mult), R in zip(self.spectrum.entries, self.blocks):
            R = np.asarray(R, dtype=float)
            if R.shape != (mult, mult):
                raise SpectrumMismatch(
                    f"block for mass {mass} must be {mult}x{mult}")
            defect = np.max(np.abs(R.T @ R - np.eye(mult)))
            if defect > ORTHOGONALITY_TOL:
                raise NotOrthogonal(f"block defect {defect:.2e} for mass {mass}")
            R = R.copy()
            R.setflags(write=False)
            blocks.append(R)
        ell = np.asarray(self.ell, dtype=float).reshape(-1).copy()
        if ell.shape != (self.spectrum.massless_count,):
            raise SpectrumMismatch(
                "shift length must equal the massless multiplicity")
        ell.setflags(write=False)
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "ell", ell)

    @property
    def massless_block(self) -> np.ndarray | None:
        for (mass, _), R in zip(self.spectrum.entries, self.blocks):
            if mass == 0.0:
                return R
        return None

    def species_matrix(self) -> np.ndarray:
        """The |nu| x |nu| block-diagonal rotation over all species."""
        S = self.spectrum.total_species
        out = np.zeros((S, S))
        for (_, block), R in zip(self.spectrum.block_slices(), self.blocks):
            out[block, block] = R
        return out


def group_compose(g: GaugeElement, h: GaugeElement) -> GaugeElement:
    """g . h (apply h first): blocks multiply, shift = ell_g R_h0 + ell_h."""
    if g.spectrum != h.spectrum:
        raise SpectrumMismatch("gauge elements over different spectra")
    blocks = tuple(Rg @ Rh for Rg, Rh in zip(g.blocks, h.blocks))
    ell = g.ell @ h.massless_block + h.ell if g.spectrum.massless_count \
        else g.ell
    return GaugeElement(g.spectrum, blocks, ell)


def block_reflections(spectrum: MassSpectrum) -> list[GaugeElement]:
    """One reflection per mass block: diag(-1, 1, ..., 1) in that block, the
    identity in the others, no shift. With the in-block rotations they
    generate O(nu); a single reflection in all blocks at once reaches only
    one of the 2^B - 1 non-identity components for B blocks."""
    out = []
    for b in range(len(spectrum.entries)):
        blocks = [np.eye(k) for _, k in spectrum.entries]
        blocks[b][0, 0] = -1.0
        out.append(GaugeElement(spectrum, tuple(blocks),
                                np.zeros(spectrum.massless_count)))
    return out


def random_gauge(rng: np.random.Generator, spectrum: MassSpectrum,
                 with_ell: bool = True) -> GaugeElement:
    """Orthogonalized Gaussian blocks with balanced determinant signs."""
    blocks = []
    for _, k in spectrum.entries:
        A = rng.standard_normal((k, k))
        Q, R = np.linalg.qr(A)
        Q = Q * np.sign(np.diag(R))  # remove QR sign ambiguity
        if rng.integers(0, 2):       # cover both components of O(k)
            Q = Q.copy()
            Q[0] = -Q[0]
        blocks.append(Q)
    n0 = spectrum.massless_count
    ell = rng.standard_normal(n0) if (with_ell and n0) else np.zeros(n0)
    return GaugeElement(spectrum, tuple(blocks), ell)


# -- classical action --------------------------------------------------------------

def classical_action(g: GaugeElement, vecs: np.ndarray) -> np.ndarray:
    """S(R) on data vectors (..., dim): rotate species within each mass
    block, identically on q and p at every site."""
    x = np.reshape(vecs, np.shape(vecs)[:-1] + (2, g.spectrum.total_species, -1))
    return (g.species_matrix() @ x).reshape(np.shape(vecs))


# -- the shift functional ------------------------------------------------------------

def ell_basis_values(ell: np.ndarray, spacetime: LatticeSpacetime) -> np.ndarray:
    """<l, e_i> over the canonical basis (nonzero only on massless p-channels):
    <l, phi> is this row against phi's data vector, a translation-invariant
    linear functional whose sign is frozen in tests."""
    spectrum = spacetime.spectrum
    vals = np.zeros((2, spacetime.n_species, spacetime.n_sites))
    if spectrum.massless_count:
        vals[1, spectrum.block_slice(0.0)] = -np.asarray(
            ell, dtype=float).reshape(spectrum.massless_count, 1)
    return vals.ravel()


def shift_functionals(spacetime: LatticeSpacetime) -> np.ndarray:
    """The rows <e_j, .> over the canonical basis, one per massless species
    j: shape (nu(0), dim)."""
    n0 = spacetime.spectrum.massless_count
    return np.array([ell_basis_values(e_j, spacetime) for e_j in np.eye(n0)]
                    ).reshape(n0, spacetime.data_dim)


# -- quantum action ------------------------------------------------------------------

class QuantumAction:
    """zeta(R, l): the unique algebra homomorphism extending
    Phi(phi) -> Phi(S(R) phi) + <l, phi> 1."""

    def __init__(self, g: GaugeElement, spacetime: LatticeSpacetime):
        self._slots = action_slot_maps(spacetime, [g])[0]
        self.g = g
        self.spacetime = spacetime

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        if a.spacetime != self.spacetime:
            raise SpectrumMismatch("element over a different spacetime")
        return substitute_affine(a, self._slots)


def quantum_action(g: GaugeElement, a: AlgebraElement) -> AlgebraElement:
    return QuantumAction(g, a.spacetime)(a)


def species_slot_maps(spacetime: LatticeSpacetime, R: np.ndarray,
                      consts: np.ndarray | None = None) -> SlotMap:
    """The stack of slot maps of the species matrices R (n, |nu|, |nu|)
    acting as R (x) 1 on the Cauchy data: e_(c, s, x) -> sum_s' R[s', s]
    e_(c, s', x) on both channels c and at every site x, plus the constants
    (n, dim). Each column lists its entries in increasing row."""
    t, s_out, s_in = np.nonzero(R)
    N = spacetime.n_sites
    at = np.add.outer(np.arange(2) * spacetime.n_species * N,
                      np.arange(N)).ravel()  # channel and site offsets
    return slot_maps(
        len(R), spacetime.data_dim, t.repeat(len(at)),
        np.add.outer(s_out * N, at).ravel(), np.add.outer(s_in * N, at).ravel(),
        R[t, s_out, s_in].repeat(len(at)), consts)


def action_slot_maps(spacetime: LatticeSpacetime,
                     gauges: list[GaugeElement]) -> SlotMap:
    """The slot maps of zeta(g) for each g as one stack (`QuantumAction` is
    the stack of one)."""
    if any(g.spectrum != spacetime.spectrum for g in gauges):
        raise SpectrumMismatch("gauge element over a different spectrum")
    return species_slot_maps(
        spacetime, np.array([g.species_matrix() for g in gauges]),
        np.array([ell_basis_values(g.ell, spacetime) for g in gauges]))


def so_basis(n: int) -> np.ndarray:
    """e_lk - e_kl for k < l: a basis (n(n-1)/2, n, n) of so(n)."""
    k, l = np.triu_indices(n, 1)
    out = np.zeros((len(k), n, n))
    out[np.arange(len(k)), l, k] = 1.0
    out[np.arange(len(k)), k, l] = -1.0
    return out


def rotation_generators(spectrum: MassSpectrum) -> np.ndarray:
    """The in-block rotation generators as species matrices (n_so, |nu|,
    |nu|): the elements of `so_basis(|nu|)` whose two species share a mass
    block, so block by block and in `so_basis` order within each."""
    k, l = np.triu_indices(spectrum.total_species, 1)
    block = np.repeat(np.arange(len(spectrum.entries)),
                      [mult for _, mult in spectrum.entries])
    return so_basis(spectrum.total_species)[block[k] == block[l]]


# -- the exact presentation ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Presentation:
    """A finite set that fixes the action of the whole group on the algebra:
    the derivation of each in-block rotation generator (the identity
    component of O(nu)), the derivation of each massless shift direction
    e_j (the R^{nu(0)*} factor), and one reflection per mass block (the
    other components). An element is fixed by the group iff every move
    (`moves`) annihilates it, and a linear map intertwines the action iff it
    commutes with every move."""

    generators: np.ndarray                 # (n_so, |nu|, |nu|)
    rotations: tuple[SlotMap, ...]         # one per generator
    shifts: tuple[SlotMap, ...]            # one per massless species
    reflections: tuple[QuantumAction, ...]  # one per mass block

    def moves(self, a: AlgebraElement, shifts: bool = True):
        """The derivation of a by each rotation (and shift) direction, then
        zeta(r) a - a for each reflection r; all linear in a."""
        for slots in self.rotations + (self.shifts if shifts else ()):
            yield derivation(a, slots)
        for reflection in self.reflections:
            yield reflection(a) - a


@lru_cache(maxsize=32)
def presentation(spacetime: LatticeSpacetime) -> Presentation:
    """The rotations are the species matrices of `rotation_generators`; the
    shift in direction e_j, the derivation d/dlambda zeta(1, lambda e_j) at
    0, has no linear part and the shift functional <e_j, .> as constants.
    Built once per spacetime; every caller shares it and writes nothing."""
    generators = rotation_generators(spacetime.spectrum)
    n0 = spacetime.spectrum.massless_count
    rotations = species_slot_maps(spacetime, generators)
    shifts = species_slot_maps(
        spacetime, np.zeros((n0, *generators.shape[1:])),
        shift_functionals(spacetime))
    return Presentation(
        generators, tuple(rotations[i] for i in range(len(generators))),
        tuple(shifts[j] for j in range(n0)),
        tuple(QuantumAction(g, spacetime)
              for g in block_reflections(spacetime.spectrum)))


# -- multiplets ---------------------------------------------------------------------

def multiplet_dimensions(spacetime: LatticeSpacetime) -> list[int]:
    """Per mass block, the dimension of the span of one propagated field of
    the block's first species, closed under the presentation, in
    (degree1_vector, unit coefficient) coordinates: nu(m) for a massive
    block, nu(0) + 1 for the massless one, whose shifts reach the unit."""
    pres = presentation(spacetime)
    out = []
    for _, block in spacetime.spectrum.block_slices():
        source = delta_test_function(spacetime, block.start, 1, 0).values
        seed = fields(spacetime, np.concatenate(
            propagate_sources(spacetime, source)).ravel())
        scale = np.linalg.norm(degree1_vector(seed))
        todo, rows = [seed], np.zeros((0, spacetime.data_dim + 1), complex)
        while todo:
            a = todo.pop()
            v = np.append(degree1_vector(a), a.coefficient(()))
            v = v - rows.T @ (rows.conj() @ v)
            if np.linalg.norm(v) > MULTIPLET_RANK_TOL * scale:
                rows = np.vstack([rows, v / np.linalg.norm(v)])
                todo.extend(pres.moves(a))
        out.append(len(rows))
    return out
