"""The gauge group O(nu) x| R^{nu(0)*} and its actions.

Elements carry one orthogonal block per mass and a real row vector of shifts
for the massless species. The group law is the semidirect product
(R, l) . (R', l') = (R R', l R'_0 + l'); the classical action rotates species
within each mass block identically at every lattice point; the quantum action
is the algebra homomorphism

    zeta(R, l) Phi(phi) = Phi(S(R) phi) + <l, phi> 1,

with <l, phi> = sigma(l . phi_0, unit constant) = -sum_x l . p_0(x).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import AlgebraElement, slot_map, substitute_affine
from .dynamics import Solution
from .errors import NoMasslessSpecies, NotOrthogonal, SpectrumMismatch
from .spacetime import LatticeSpacetime, MassSpectrum

ORTHOGONALITY_TOL = 1e-12


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

    def to_json(self) -> dict:
        return {
            "blocks": [{"mass": m, "R": R.tolist()}
                       for (m, _), R in zip(self.spectrum.entries, self.blocks)],
            "ell": self.ell.tolist(),
        }

    @staticmethod
    def from_json(data: dict, spectrum: MassSpectrum) -> "GaugeElement":
        blocks = tuple(np.array(entry["R"]) for entry in data["blocks"])
        return GaugeElement(spectrum, blocks, np.array(data["ell"]))


def identity_gauge(spectrum: MassSpectrum) -> GaugeElement:
    blocks = tuple(np.eye(k) for _, k in spectrum.entries)
    return GaugeElement(spectrum, blocks, np.zeros(spectrum.massless_count))


def group_compose(g: GaugeElement, h: GaugeElement) -> GaugeElement:
    """g . h (apply h first): blocks multiply, shift = ell_g R_h0 + ell_h."""
    if g.spectrum != h.spectrum:
        raise SpectrumMismatch("gauge elements over different spectra")
    blocks = tuple(Rg @ Rh for Rg, Rh in zip(g.blocks, h.blocks))
    if g.spectrum.massless_count:
        ell = g.ell @ h.massless_block + h.ell
    else:
        ell = g.ell
    return GaugeElement(g.spectrum, blocks, ell)


def group_inverse(g: GaugeElement) -> GaugeElement:
    blocks = tuple(R.T for R in g.blocks)
    if g.spectrum.massless_count:
        ell = -(g.ell @ g.massless_block.T)
    else:
        ell = g.ell
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
                 with_ell: bool = True, ell_scale: float = 1.0) -> GaugeElement:
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
    ell = ell_scale * rng.standard_normal(n0) if (with_ell and n0) else np.zeros(n0)
    return GaugeElement(spectrum, tuple(blocks), ell)


# -- classical action --------------------------------------------------------------

def classical_action(g: GaugeElement, phi: Solution) -> Solution:
    """S(R) phi: rotate species within each mass block, pointwise in (q, p)."""
    if g.spectrum != phi.spacetime.spectrum:
        raise SpectrumMismatch("gauge element over a different spectrum")
    R = g.species_matrix()
    return Solution(phi.spacetime, R @ phi.q, R @ phi.p)


def classical_action_matrix(g: GaugeElement, spacetime: LatticeSpacetime
                            ) -> np.ndarray:
    if g.spectrum != spacetime.spectrum:
        raise SpectrumMismatch("gauge element over a different spectrum")
    R = g.species_matrix()
    block = np.kron(R, np.eye(spacetime.n_sites))
    dim = spacetime.data_dim
    out = np.zeros((dim, dim))
    half = dim // 2
    out[:half, :half] = block
    out[half:, half:] = block
    return out


# -- the shift functional ------------------------------------------------------------

def ell_functional(ell: np.ndarray, phi: Solution) -> complex:
    """<l, phi> = sigma(l . phi_0, unit constant) = -sum_x l . p_0(x).

    Linear in phi, invariant under all lattice translations; the sign is
    fixed once by the symplectic-form evaluation and frozen in tests.
    """
    spectrum = phi.spacetime.spectrum
    n0 = spectrum.massless_count
    if n0 == 0:
        raise NoMasslessSpecies("<l, .> needs nu(0) > 0")
    ell = np.asarray(ell, dtype=float).reshape(n0)
    block = spectrum.block_slice(0.0)
    return complex(-np.sum(ell[:, None] * phi.p[block]))


def ell_basis_values(ell: np.ndarray, spacetime: LatticeSpacetime) -> np.ndarray:
    """<l, e_i> over the canonical basis (nonzero only on massless p-channels)."""
    spectrum = spacetime.spectrum
    n0 = spectrum.massless_count
    if n0 == 0:
        return np.zeros(spacetime.data_dim)
    ell = np.asarray(ell, dtype=float).reshape(n0)
    S, N = spacetime.n_species, spacetime.n_sites
    vals = np.zeros(2 * S * N)
    block = spectrum.block_slice(0.0)
    for j, s in enumerate(range(block.start, block.stop)):
        vals[S * N + s * N: S * N + (s + 1) * N] = -ell[j]
    return vals


# -- quantum action ------------------------------------------------------------------

class QuantumAction:
    """zeta(R, l): the unique algebra homomorphism extending
    Phi(phi) -> Phi(S(R) phi) + <l, phi> 1."""

    def __init__(self, g: GaugeElement, spacetime: LatticeSpacetime):
        if g.spectrum != spacetime.spectrum:
            raise SpectrumMismatch("gauge element over a different spectrum")
        self.g = g
        self.spacetime = spacetime
        self.matrix = classical_action_matrix(g, spacetime)
        self.consts = (ell_basis_values(g.ell, spacetime)
                       if g.spectrum.massless_count else None)
        self._slots = slot_map(self.matrix, self.consts)

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        if a.spacetime != self.spacetime:
            raise SpectrumMismatch("element over a different spacetime")
        return substitute_affine(a, self._slots)


def quantum_action(g: GaugeElement, a: AlgebraElement) -> AlgebraElement:
    return QuantumAction(g, a.spacetime)(a)


# -- multiplets ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FieldFamily:
    """A component field: a linear family of degree <= 1 elements indexed by
    scalar test functions (arrays over slices x sites)."""

    label: str
    apply: Callable[[np.ndarray], AlgebraElement]


def species_field_family(spacetime: LatticeSpacetime, species: int) -> FieldFamily:
    from .dynamics import TestFunction, propagate_test_function
    from .algebra import field

    def apply(h: np.ndarray) -> AlgebraElement:
        vals = np.zeros((spacetime.n_species, spacetime.n_slices,
                         spacetime.n_sites), dtype=complex)
        vals[species] = h
        return field(propagate_test_function(TestFunction(spacetime, vals)))

    return FieldFamily(f"phi[{species}]", apply)


def unit_field_family(spacetime: LatticeSpacetime) -> FieldFamily:
    from .algebra import one

    def apply(h: np.ndarray) -> AlgebraElement:
        return complex(np.sum(h)) * one(spacetime)

    return FieldFamily("unit", apply)


def default_field_families(spacetime: LatticeSpacetime) -> list[FieldFamily]:
    fams = [species_field_family(spacetime, s)
            for s in range(spacetime.n_species)]
    fams.append(unit_field_family(spacetime))
    return fams


def _family_vector(fam: FieldFamily, probes: list[np.ndarray], dim: int
                   ) -> np.ndarray:
    from .algebra import degree1_vector
    chunks = []
    for h in probes:
        el = fam.apply(h)
        chunks.append(np.concatenate([degree1_vector(el), [el.coefficient(())]]))
    return np.concatenate(chunks)


def multiplet_decompose(spacetime: LatticeSpacetime,
                        families: list[FieldFamily] | None = None,
                        rng: np.random.Generator | None = None,
                        n_group_samples: int = 50,
                        tol: float = 1e-9) -> list[dict]:
    """Partition component fields into gauge orbits.

    Each family is probed on random scalar test functions; its orbit under
    sampled gauge elements spans a subspace of (degree <= 1) coefficient
    space, and families with overlapping orbit spans belong to one multiplet.
    A mass block of multiplicity k yields a k-dimensional multiplet in the
    defining representation; the adjoint family (star of each member) lands
    in the conjugate representation, which is equivalent for these real
    orthogonal blocks.
    """
    from .errors import NotLinearFamily

    rng = rng or np.random.default_rng(0)
    families = families if families is not None else default_field_families(spacetime)
    T1, N = spacetime.n_slices, spacetime.n_sites
    dim = spacetime.data_dim

    def probe() -> np.ndarray:
        h = np.zeros((T1, N), dtype=complex)
        h[2:T1 - 3] = rng.standard_normal((T1 - 5, N))
        return h

    probes = [probe() for _ in range(2)]
    # linearity in the test function
    for fam in families:
        h1, h2 = probes[0], probes[1]
        lam = 1.25 - 0.5j
        lhs = fam.apply(h1 + lam * h2)
        rhs = fam.apply(h1) + lam * fam.apply(h2)
        from .algebra import max_coeff_diff
        if max_coeff_diff(lhs, rhs) > 1e-9:
            raise NotLinearFamily(f"family {fam.label} is not linear")

    gauge_samples = [random_gauge(rng, spacetime.spectrum)
                     for _ in range(n_group_samples)]
    actions = [QuantumAction(g, spacetime) for g in gauge_samples]

    base_vecs = [_family_vector(f, probes, dim) for f in families]
    orbit_mats = []
    for fam in families:
        vecs = [ _family_vector(
            FieldFamily(fam.label, lambda h, act=act, fam=fam: act(fam.apply(h))),
            probes, dim) for act in actions ]
        orbit_mats.append(np.array(vecs).T)

    def rank(mat):
        if mat.size == 0:
            return 0
        s = np.linalg.svd(mat, compute_uv=False)
        return int(np.sum(s > tol * max(1.0, s[0])))

    n = len(families)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            ri, rj = rank(orbit_mats[i]), rank(orbit_mats[j])
            joint = rank(np.concatenate([orbit_mats[i], orbit_mats[j]], axis=1))
            if joint < ri + rj:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    out = []
    for members in groups.values():
        size = len(members)
        labels = [families[i].label for i in members]
        orbit_rank = rank(np.concatenate([orbit_mats[i] for i in members], axis=1))
        invariant = all(
            np.max(np.abs(orbit_mats[i] - base_vecs[i][:, None])) < 1e-8
            for i in members)
        if invariant and size == 1:
            rep = "singlet"
        elif orbit_rank == size:
            rep = "defining"
        else:
            rep = "tensor-subrep"
        out.append({
            "members": labels,
            "size": size,
            "representation": rep,
            "conjugate": "equivalent (real orthogonal blocks)",
        })
    return out
