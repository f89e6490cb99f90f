"""The gauge group O(nu) x| R^{nu(0)*} and its actions.

An element (R, l) holds one orthogonal species matrix R (|nu|, |nu|) that
commutes with the mass matrix, so it is zero between species of different
mass, and a real row vector l of shifts for the massless species. The group
law is the semidirect product (R, l) . (R', l') = (R R', l R'_0 + l'), R'_0
the massless block of R'; the classical action is R (x) 1_N on both channels,
rotating species within each mass block identically at every lattice point;
the quantum action is the algebra homomorphism

    zeta(R, l) Phi(phi) = Phi(S(R) phi) + <l, phi> 1,

with <l, phi> = sigma(l . phi_0, unit constant) = -sum_x l . p_0(x), the
row l @ shift_functionals(st) against phi's data vector. `QuantumAction` is
the one entry to zeta of a group element.

Whole-group properties are checked on one exact presentation
(`presentation`), as matrices: the species matrices of the in-block rotation
generators and of one reflection per mass block, and the shift functionals.
A *-homomorphism with linear map M on the fields intertwines the action iff
M commutes with those species maps and keeps the shift functionals. Group
elements are sampled (`random_gauge`) only where the group law itself is
under test.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (AlgebraElement, SlotMap, derivation, slot_maps,
                      substitute_affine)
from .dynamics import evolve_data
from .errors import NotOrthogonal, SpectrumMismatch
from .spacetime import LatticeSpacetime, MassSpectrum

ORTHOGONALITY_TOL = 1e-12
# a multiplet closure adds a vector only if more than this fraction of the
# seed field's norm lies outside the span found so far
MULTIPLET_RANK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GaugeElement:
    """(R, l): an orthogonal species matrix R (|nu|, |nu|) that commutes with
    the mass matrix, so zero between species of different mass, and the
    massless shift row vector l."""

    spectrum: MassSpectrum
    R: np.ndarray
    ell: np.ndarray

    def __post_init__(self):
        block = self.spectrum.species_block
        R = np.array(self.R, dtype=float)
        if R.shape != (len(block), len(block)):
            raise SpectrumMismatch(
                f"species matrix must be {len(block)}x{len(block)}")
        if np.any(R[block[:, None] != block]):
            raise SpectrumMismatch(
                "species matrix couples species of different mass")
        defect = np.max(np.abs(R.T @ R - np.eye(len(block))))
        if defect > ORTHOGONALITY_TOL:
            raise NotOrthogonal(f"orthogonality defect {defect:.2e}")
        R.setflags(write=False)
        ell = np.asarray(self.ell, dtype=float).reshape(-1).copy()
        if ell.shape != (self.spectrum.massless_count,):
            raise SpectrumMismatch(
                "shift length must equal the massless multiplicity")
        ell.setflags(write=False)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "ell", ell)


def group_compose(g: GaugeElement, h: GaugeElement) -> GaugeElement:
    """g . h (apply h first): (R_g R_h, ell_g R_h0 + ell_h), R_h0 the
    massless block of R_h, which comes first."""
    if g.spectrum != h.spectrum:
        raise SpectrumMismatch("gauge elements over different spectra")
    n0 = g.spectrum.massless_count
    return GaugeElement(g.spectrum, g.R @ h.R, g.ell @ h.R[:n0, :n0] + h.ell)


def block_reflections(spectrum: MassSpectrum) -> np.ndarray:
    """One reflection per mass block, as species matrices (B, |nu|, |nu|):
    -1 on the block's first species and 1 on every other. With the in-block
    rotations they generate O(nu); a single reflection in all blocks at once
    reaches only one of the 2^B - 1 non-identity components for B blocks."""
    first = [block.start for _, block in spectrum.block_slices()]
    out = np.tile(np.eye(spectrum.total_species), (len(first), 1, 1))
    out[np.arange(len(first)), first, first] = -1.0
    return out


def random_gauge(rng: np.random.Generator, spectrum: MassSpectrum
                 ) -> GaugeElement:
    """Orthogonalized Gaussian blocks with balanced determinant signs."""
    R = np.zeros((spectrum.total_species,) * 2)
    for _, b in spectrum.block_slices():
        Q, T = np.linalg.qr(rng.standard_normal((b.stop - b.start,) * 2))
        R[b, b] = Q * np.sign(np.diag(T))  # remove QR sign ambiguity
        if rng.integers(0, 2):             # cover both components of O(k)
            R[b.start, b] *= -1.0
    return GaugeElement(spectrum, R,
                        rng.standard_normal(spectrum.massless_count))


# -- classical action --------------------------------------------------------------

def species_action(spacetime: LatticeSpacetime, R: np.ndarray,
                   vecs: np.ndarray) -> np.ndarray:
    """Species matrices R (..., |nu|, |nu|) acting as 1_2 (x) R (x) 1_N on
    data vectors (..., dim), the leading axes broadcast, with no dense map."""
    S, N = spacetime.n_species, spacetime.n_sites
    if np.shape(R)[-2:] != (S, S) or np.shape(vecs)[-1:] != (2 * S * N,):
        raise SpectrumMismatch("species matrices or data of another spectrum")
    out = np.asarray(R)[..., None, :, :] @ np.reshape(
        vecs, np.shape(vecs)[:-1] + (2, S, N))
    return out.reshape(out.shape[:-3] + (2 * S * N,))


def classical_action(g: GaugeElement, spacetime: LatticeSpacetime,
                     vecs: np.ndarray) -> np.ndarray:
    """S(R) on data vectors (..., dim) of the spacetime (`species_action`)."""
    if g.spectrum != spacetime.spectrum:
        raise SpectrumMismatch("gauge element over a different spectrum")
    return species_action(spacetime, g.R, vecs)


# -- the shift functional ------------------------------------------------------------

def shift_functionals(spacetime: LatticeSpacetime) -> np.ndarray:
    """The rows <e_j, .> over the canonical basis, one per massless species
    j: shape (nu(0), dim), -1 on the p-channel of species j at every site.
    <l, phi> = l @ shift_functionals(st) @ phi is a translation-invariant
    linear functional whose sign is frozen in tests."""
    spectrum = spacetime.spectrum
    n0 = spectrum.massless_count
    rows = np.zeros((n0, 2, spacetime.n_species, spacetime.n_sites))
    if n0:
        j = np.arange(n0)
        rows[j, 1, spectrum.block_slice(0.0).start + j] = -1.0
    return rows.reshape(n0, spacetime.data_dim)


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
        spacetime, np.array([g.R for g in gauges]),
        np.array([g.ell for g in gauges]) @ shift_functionals(spacetime))


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
    block = spectrum.species_block
    return so_basis(spectrum.total_species)[block[k] == block[l]]


# -- the exact presentation ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Presentation:
    """A finite set of moves that fixes the action of the whole group: the
    in-block rotation generators (the identity component of O(nu)), the
    massless shift directions e_j (the R^{nu(0)*} factor) and one reflection
    per mass block (the other components). An element is fixed by the group
    iff every move annihilates it (`moves`, on the algebra)."""

    spacetime: LatticeSpacetime
    generators: np.ndarray   # (n_so, |nu|, |nu|), `rotation_generators`
    reflections: np.ndarray  # (B, |nu|, |nu|), `block_reflections`
    shifts: np.ndarray       # (nu(0), dim), `shift_functionals`

    @property
    def species(self) -> np.ndarray:
        """The generators, then the reflections."""
        return np.concatenate([self.generators, self.reflections])

    def defect(self, M: np.ndarray) -> float:
        """max |M X - X M| over the species maps X of `species`, one at a
        time, applied to M's columns and rows by `species_action`: zero iff
        the linear map M (dim, dim) commutes with the orthogonal factor."""
        st = self.spacetime
        return max((float(np.max(np.abs(species_action(st, X.T, M)
                                        - species_action(st, X, M.T).T)))
                    for X in self.species), default=0.0)

    @cached_property
    def algebra_slots(self) -> tuple[tuple[SlotMap, ...], tuple[SlotMap, ...]]:
        """The slot maps of the derivations (each generator, then each
        shift d/dlambda zeta(1, lambda e_j) at 0: no linear part, <e_j, .>
        as constants) and of the reflections. Built on first use, by the
        checks about the algebra only."""
        st, n_so = self.spacetime, len(self.generators)
        n0, B = len(self.shifts), len(self.reflections)
        slots = species_slot_maps(
            st, np.concatenate([self.generators,
                                np.zeros((n0, *self.generators.shape[1:])),
                                self.reflections]),
            np.concatenate([np.zeros((n_so, st.data_dim)), self.shifts,
                            np.zeros((B, st.data_dim))]))
        slots = [slots[i] for i in range(n_so + n0 + B)]
        return tuple(slots[:n_so + n0]), tuple(slots[n_so + n0:])

    def moves(self, a: AlgebraElement):
        """The derivation of a by each rotation and shift direction, then
        zeta(r) a - a for each reflection r; all linear in a."""
        derivations, reflections = self.algebra_slots
        for slots in derivations:
            yield derivation(a, slots)
        for slots in reflections:
            yield substitute_affine(a, slots) - a


@lru_cache(maxsize=32)
def presentation(spacetime: LatticeSpacetime) -> Presentation:
    """The moves of `spacetime`, built once per spacetime; every caller
    shares them and writes nothing."""
    return Presentation(
        spacetime, rotation_generators(spacetime.spectrum),
        block_reflections(spacetime.spectrum), shift_functionals(spacetime))


# -- multiplets ---------------------------------------------------------------------

def multiplet_dimensions(spacetime: LatticeSpacetime) -> list[int]:
    """Per mass block, the dimension of the span of one propagated field of
    the block's first species (a unit kick evolved back to t = 0), closed
    under the presentation on vectors (v, c) of (field, unit coefficient):
    X moves it to (X v, 0), e_j to (0, <e_j, v>), R to (R v - v, 0). That
    is nu(m) for a massive block, nu(0) + 1 for the massless one, whose
    shifts reach the unit."""
    pres = presentation(spacetime)
    dim, n_so = spacetime.data_dim, len(pres.generators)
    out = []
    for _, block in spacetime.spectrum.block_slices():
        kick = np.zeros((spacetime.n_species, spacetime.n_sites))
        kick[block.start, 0] = 1.0  # at slice 1, site 0
        seed = np.concatenate(
            evolve_data(np.zeros_like(kick), kick, spacetime, 1, 0)).ravel()
        scale = np.linalg.norm(seed)
        todo, rows = [np.append(seed, 0.0)], np.zeros((0, dim + 1))
        while todo:
            v = todo.pop()
            w = v - rows.T @ (rows @ v)
            if np.linalg.norm(w) > MULTIPLET_RANK_TOL * scale:
                rows = np.vstack([rows, w / np.linalg.norm(w)])
                field = v[:dim]
                moved = species_action(spacetime, pres.species, field)
                moved[n_so:] -= field
                todo += [np.append(x, 0.0) for x in moved]
                todo += [np.append(np.zeros(dim), c)
                         for c in pres.shifts @ field]
        out.append(len(rows))
    return out
