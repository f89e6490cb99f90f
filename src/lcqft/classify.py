"""Numerical classification of translation-covariant, stress-energy-preserving
endomorphisms of the solution space.

The classification proceeds at the Lie algebra level:

1. Commutant: a real basis of maps commuting with the one-site spatial shift
   and the one-step evolution. At momentum k the one-step map is a 2x2 mode
   matrix U_k per species, never a multiple of the identity (its q-p entry
   is dt), and distinct masses share no mode eigenvalue, so the commutant is
   gl(nu(m)) (x) span{1, U_k} per mass block, built in closed form.
2. Constraints: preserving the pointwise null energy, linearized at the
   identity and polarized, reads <D phi, D (G phi)>(t, x) = 0 for every
   solution phi, point (t, x) and null contraction D_+-. A commutant element
   commutes with the shift and the evolution, so the condition at (0, 0)
   implies it everywhere; there D_+- has full row rank, and the condition
   holds iff D_+- G P = A_+- D_+- P for some A_+- in so(S), with P removing
   the massless zero mode. That is one linear system in the commutant
   coefficients of G and A_+-, with no sampling and no time evolution.
3. Nullspace: the coefficient part of the system's nullspace is compared
   (dimension and principal angles) against the in-block antisymmetric
   species generators.

Massless species on a compact Cauchy slice carry a genuine lattice artifact:
the spatial zero mode is a free particle, and the maps supported entirely in
that parabolic block preserve the null energy trivially. Those directions
(dimension 2 nu(0)^2) are split off before constraining, quarantined in the
report, and never counted toward the match.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._linalg import expm_taylor, nullspace, orthonormal_columns, principal_angles
from .algebra import commutator, field, max_coeff_diff, random_element
from .dynamics import (
    Perturbation,
    null_derivatives,
    null_energy_grid,
    one_step_matrix,
    random_solution,
    rce_matrix,
    solution_from_vec,
    symplectic_matrix,
)
from .errors import BudgetExceeded
from .gauge import (GaugeElement, QuantumAction, block_reflections,
                    classical_action, group_compose, group_inverse,
                    rotation_generators, so_basis)
from .spacetime import LatticeSpacetime

BUDGET_SITES = 32
BUDGET_SPECIES = 5
RANK_REL_TOL = 1e-8
ANGLE_TOL = 1e-9

# report residuals held to the `classify.soundness` tolerance by both the
# classify suite and `lcqft classify`
CHECKED_RESIDUALS = ("soundness_sigma", "soundness_null_energy",
                     "soundness_rce_commute", "reflection_null_energy",
                     "so_representation")


# -- commutant ---------------------------------------------------------------------
#
# A shift-commuting map is block circulant, X[(a, x), (b, x')] = g[a, b, x - x']
# over the C = 2|nu| channels (q then p, species-major), so it is stored as its
# coordinates g of shape (C, C, N) and applied as a circular convolution over
# sites. The Frobenius product of two such maps is N times the dot product of
# their coordinates.

def _channel_count(st: LatticeSpacetime) -> int:
    return 2 * st.n_species


def _coords_to_matrix(g: np.ndarray, st: LatticeSpacetime) -> np.ndarray:
    """Block-circulant map from coordinates g[a, b, m]: entries
    X[(a, x), (b, x')] = g[a, b, (x - x') mod N]."""
    C, N = _channel_count(st), st.n_sites
    x = np.arange(N)
    offset = (x[:, None] - x[None, :]) % N
    X = np.reshape(g, (C, C, N))[:, :, offset]      # (C, C, N, N)
    return X.transpose(0, 2, 1, 3).reshape(C * N, C * N)


@dataclass(frozen=True, eq=False)
class CommutantBasis:
    """Real basis of {G : [G, shift] = 0, [G, one-step evolution] = 0}."""

    spacetime: LatticeSpacetime
    coords: np.ndarray            # (n_c, C*C*N) orthonormal rows

    @property
    def dimension(self) -> int:
        return self.coords.shape[0]


def check_budget(spacetime: LatticeSpacetime):
    if spacetime.n_sites > BUDGET_SITES or spacetime.n_species > BUDGET_SPECIES:
        raise BudgetExceeded(
            f"need n_sites <= {BUDGET_SITES} and |nu| <= {BUDGET_SPECIES}")


@lru_cache(maxsize=16)
def build_commutant_basis(spacetime: LatticeSpacetime) -> CommutantBasis:
    """Closed form: in each mass block, E_ij (x) T^r and E_ij (x) T^r U over
    the block's species pairs (i, j) and site offsets r, with T the one-site
    shift and U the one-step map. Pairs have disjoint supports and share U,
    so the rows of one pair are orthonormalized once per block."""
    check_budget(spacetime)
    st, U = spacetime, one_step_matrix(spacetime)
    S, C, N = st.n_species, _channel_count(st), st.n_sites
    r = np.arange(N)
    shifts = np.einsum("ab,rm->rabm", np.eye(2), np.eye(N))
    out = []
    for _, block in st.spectrum.block_slices():
        # u[a, b, m] = U[(a, m), (b, 0)] on one species of the block; the
        # coordinates of T^r U are u rolled by r
        chans = (np.array([0, S]) + block.start) * N
        u = U[np.ravel(chans[:, None] + r)][:, chans].reshape(2, N, 2)
        steps = u.transpose(0, 2, 1)[:, :, (r[None, :] - r[:, None]) % N]
        pair = orthonormal_columns(np.concatenate(
            [shifts, steps.transpose(2, 0, 1, 3)]).reshape(2 * N, -1).T).T
        for i in range(block.start, block.stop):
            for j in range(block.start, block.stop):
                g = np.zeros((len(pair), C, C, N))
                g[:, [[i], [S + i]], [j, S + j]] = pair.reshape(-1, 2, 2, N)
                out.append(g.reshape(len(pair), -1))
    return CommutantBasis(spacetime, np.concatenate(out))


def expected_commutant_dimension(spacetime: LatticeSpacetime) -> int:
    """Mode-space count: 2 complex dimensions per species pair within a mass
    block per momentum, giving 2 N sum_m nu(m)^2 real dimensions."""
    return 2 * spacetime.n_sites * sum(
        k * k for _, k in spacetime.spectrum.entries)


# -- zero-mode quarantine -------------------------------------------------------------

def _massless_channels(st: LatticeSpacetime) -> np.ndarray:
    """Channel indices (q and p) of the massless species."""
    if st.spectrum.massless_count == 0:
        return np.zeros(0, dtype=int)
    block = st.spectrum.block_slice(0.0)
    s = np.arange(block.start, block.stop)
    return np.concatenate([s, s + st.n_species])


def _zero_mode_part(coords: np.ndarray, st: LatticeSpacetime) -> np.ndarray:
    """Coordinates of P X P, with P the projector onto the massless spatial
    zero mode: the site mean of each massless x massless channel entry,
    at every offset, and zero elsewhere."""
    C, N = _channel_count(st), st.n_sites
    g = np.reshape(coords, (-1, C, C, N))
    z = _massless_channels(st)
    out = np.zeros_like(g)
    zz = (slice(None), z[:, None], z[None, :])
    out[zz] = g[zz].mean(axis=-1, keepdims=True)
    return out.reshape(np.shape(coords))


def split_zero_mode(basis: CommutantBasis):
    """Split the commutant into massless-zero-mode-supported directions and
    their orthogonal complement (the active directions that constraints see).

    Both are coordinate rows scaled by 1/sqrt(N), so that their maps are
    orthonormal in the Frobenius product."""
    st = basis.spacetime
    scale = 1.0 / np.sqrt(st.n_sites)
    if st.spectrum.massless_count == 0:   # rows already orthonormal
        return scale * basis.coords, basis.coords[:0]
    quarantined = _zero_mode_part(basis.coords, st)
    active = orthonormal_columns((basis.coords - quarantined).T).T
    return scale * active, scale * orthonormal_columns(quarantined.T).T


def project_out_massless_zero_mode(vecs: np.ndarray, st: LatticeSpacetime
                                   ) -> np.ndarray:
    """Data vectors (..., dim) with the site mean of every massless channel
    removed."""
    C, N = _channel_count(st), st.n_sites
    v = np.array(vecs, dtype=float).reshape(-1, C, N)
    z = _massless_channels(st)
    v[:, z] -= v[:, z].mean(axis=-1, keepdims=True)
    return v.reshape(np.shape(vecs))


# -- constraint assembly ---------------------------------------------------------------
#
# D_+- are the null derivatives at slice 0, site 0, one row per species:
# D_+- phi = p_s(0) +- (q_s(1) - q_s(-1))/2 (see step 2 of the module
# docstring for why this one point suffices).

def _null_derivative_rows(g: np.ndarray, st: LatticeSpacetime) -> np.ndarray:
    """D_+- X(g) for coordinates g (n, C, C, N), with columns as data
    vectors: (2, n, S, dim). Column (b, 0) of X(g) has site profile
    g[:, b, :], so `null_derivatives` gives D at every site x applied to it;
    by shift invariance, D at site 0 applied to column (b, x') is the value
    at site -x'."""
    S, N = st.n_species, st.n_sites
    q, p = np.swapaxes(g[:, :S], 1, 2), np.swapaxes(g[:, S:], 1, 2)
    d = np.stack(null_derivatives(q, p))[..., -np.arange(N) % N]
    return d.transpose(0, 1, 3, 2, 4).reshape(2, len(g), S, st.data_dim)


def constraint_rows_for_solution(active: np.ndarray, st: LatticeSpacetime
                                 ) -> np.ndarray:
    """Rows (2 S dim, n_act + 2 n_so) of the linear system
    D_+- X(g) P = A_+- D_+- P in the unknowns (c, A_+, A_-), where
    g = c @ active, A_+- lie in so(S) and P removes the massless zero mode
    (P is symmetric, so it acts on each row as on a data vector).
    The name is kept for the `classify.constraints` span."""
    S, C, N, dim = st.n_species, _channel_count(st), st.n_sites, st.data_dim
    identity = np.zeros((1, C, C, N))
    identity[0, np.arange(C), np.arange(C), 0] = 1.0
    D = project_out_massless_zero_mode(
        _null_derivative_rows(identity, st)[:, 0], st)         # (2, S, dim)
    gens = project_out_massless_zero_mode(
        _null_derivative_rows(active.reshape(-1, C, C, N), st), st)
    gens = gens.reshape(2, len(active), S * dim).transpose(0, 2, 1)
    so = so_basis(S)
    AD = -np.einsum("jkl,wld->wkdj", so, D).reshape(2, S * dim, len(so))
    zero = np.zeros_like(AD[0])
    return np.block([[gens[0], AD[0], zero], [gens[1], zero, AD[1]]])


# -- expected generators -----------------------------------------------------------------

def expected_so_coords(st: LatticeSpacetime) -> np.ndarray:
    """Coordinate rows (n_so, C*C*N) of the in-block rotation generators
    (`gauge.rotation_generators`), acting identically on both channels at
    every site (offset 0)."""
    S, C, N = st.n_species, _channel_count(st), st.n_sites
    R = rotation_generators(st.spectrum)
    g = np.zeros((len(R), C, C, N))
    g[:, :S, :S, 0] = g[:, S:, S:, 0] = R
    return g.reshape(len(R), C * C * N)


def expected_so_dimension(st: LatticeSpacetime) -> int:
    return sum(k * (k - 1) // 2 for _, k in st.spectrum.entries)


# -- soundness checks -----------------------------------------------------------------------

def generator_soundness(st: LatticeSpacetime, generator: np.ndarray,
                        rng: np.random.Generator) -> dict:
    """Exponentiate and verify: symplectic, pointwise null-energy preserving,
    commuting with relative Cauchy evolution."""
    S_map = expm_taylor(generator)
    J = symplectic_matrix(st)
    sigma_res = float(np.max(np.abs(S_map.T @ J @ S_map - J)))

    ne_res = 0.0
    for _ in range(3):
        vec = rng.standard_normal(st.data_dim)
        phi = solution_from_vec(st, vec)
        phi_s = solution_from_vec(st, S_map @ vec)
        g1 = null_energy_grid(phi)
        g2 = null_energy_grid(phi_s)
        scale = max(1.0, float(np.max(np.abs(g1))))
        ne_res = max(ne_res, float(np.max(np.abs(g1 - g2))) / scale)

    rce_res = 0.0
    T1, N = st.n_slices, st.n_sites
    for _ in range(3):
        v = np.zeros((T1, N))
        t0 = 1 + int(rng.integers(0, max(1, st.n_steps - 4)))
        v[t0:t0 + 3, : max(2, N // 3)] = rng.standard_normal((min(3, T1 - t0),
                                                              max(2, N // 3)))
        v[0] = 0.0
        v[-1] = 0.0
        R = rce_matrix(Perturbation(st, v))
        rce_res = max(rce_res, float(np.max(np.abs(S_map @ R - R @ S_map))))

    return {"sigma": sigma_res, "null_energy": ne_res, "rce_commute": rce_res}


def reflection_residual(st: LatticeSpacetime, rng: np.random.Generator) -> float:
    """Direct check that one reflection per mass block (`block_reflections`)
    preserves the pointwise null energy: with the rotations they reach every
    component of the group."""
    reflections = block_reflections(st.spectrum)
    res = 0.0
    for _ in range(3):
        phi = solution_from_vec(st, rng.standard_normal(st.data_dim))
        base = null_energy_grid(phi)
        for g in reflections:
            res = max(res, float(np.max(np.abs(
                null_energy_grid(classical_action(g, phi)) - base))))
    return res


# -- classification -----------------------------------------------------------------------------

def classify(spacetime: LatticeSpacetime, quantized: bool = False,
             seed: int = 0) -> dict:
    """Report the space of infinitesimal endomorphism directions and compare
    it against the direct sum of in-block antisymmetric species generators
    (plus, in the quantized affine case, the massless shift directions)."""
    st = spacetime
    rng = np.random.default_rng(seed)
    commutant = build_commutant_basis(st)
    active, quarantined = split_zero_mode(commutant)

    # A_+- are fixed by c (D_+- P has full row rank), so the c block of the
    # nullspace has full column rank
    null_basis, _, cond = nullspace(
        constraint_rows_for_solution(active, st), RANK_REL_TOL)
    null_basis = orthonormal_columns(null_basis[:len(active)])
    dimension = null_basis.shape[1]
    expected = expected_so_dimension(st)

    # active parts of the expected generators, as coefficients over the
    # Frobenius-orthonormal active basis (<X(g), X(h)> = N g . h)
    so_coords = expected_so_coords(st)
    so_active = so_coords - _zero_mode_part(so_coords, st)
    so_coeffs = st.n_sites * so_active @ active.T
    rep_residual = float(np.max(np.abs(so_coeffs @ active - so_active))) \
        if so_coords.shape[0] else 0.0

    angles = principal_angles(
        null_basis,
        orthonormal_columns(so_coeffs.T) if so_coeffs.size else so_coeffs.T)
    max_angle = float(np.max(angles)) if angles.size else 0.0
    match = bool(dimension == expected and max_angle < ANGLE_TOL)

    # reported generators: on a match, the canonical completion by full
    # in-block rotations (the active nullspace fixes the combination); on a
    # mismatch, the raw active directions are reported as findings.
    if match and dimension:
        combos = np.linalg.lstsq(so_coeffs.T, null_basis, rcond=None)[0]
        gen_coords = combos.T @ so_coords
    else:
        gen_coords = null_basis.T @ active
    generators = [_coords_to_matrix(g, st) for g in gen_coords]
    soundness = {"sigma": 0.0, "null_energy": 0.0, "rce_commute": 0.0}
    for gen in generators:
        res = generator_soundness(st, gen, rng)
        for key in soundness:
            soundness[key] = max(soundness[key], res[key])

    findings = []
    if dimension != expected:
        findings.append(
            f"nullspace dimension {dimension} != expected {expected}: "
            "surplus or missing endomorphism directions at this lattice size")
    if quarantined.shape[0]:
        findings.append(
            f"{quarantined.shape[0]} massless zero-mode directions quarantined "
            "(compact-Cauchy-surface artifact, not counted)")

    report = {
        "spectrum": st.spectrum.format(),
        "n_sites": st.n_sites,
        "n_steps": st.n_steps,
        "dt": st.dt,
        "seed": seed,
        "commutant_dimension": commutant.dimension,
        "commutant_expected": expected_commutant_dimension(st),
        "zero_mode_dimension": int(quarantined.shape[0]),
        "dimension": int(dimension),
        "expected": int(expected),
        "match": match,
        "max_principal_angle": max_angle,
        "generators": [g.tolist() for g in generators],
        "residuals": {
            "so_representation": rep_residual,
            "constraint_sigma_max": cond["sigma_max"],
            "constraint_sigma_min_kept": cond["sigma_min_kept"],
            "reflection_null_energy": reflection_residual(st, rng),
            **{f"soundness_{k}": v for k, v in soundness.items()},
        },
    }

    if quantized:
        report["affine"] = _affine_directions_report(st)
    report["findings"] = findings
    return report


def _affine_directions_report(st: LatticeSpacetime) -> dict:
    """The nu(0) shift directions, verified algebraically: each generates a
    one-parameter family of algebra automorphisms fixing all commutators.
    They act trivially on solutions, so the constraint system cannot see
    them; this mirrors the split between the classical and quantized
    classification."""
    n0 = st.spectrum.massless_count
    rng = np.random.default_rng(1234)
    if n0 == 0:
        return {"dimension": 0, "residual": 0.0}

    eye_blocks = tuple(np.eye(k) for _, k in st.spectrum.entries)
    residual = 0.0
    for e_j in np.eye(n0):
        for lam in (0.5, 1.25):
            g = GaugeElement(st.spectrum, eye_blocks, lam * e_j)
            act = QuantumAction(g, st)
            a = random_element(rng, st, 2, 4)
            b = random_element(rng, st, 2, 4)
            residual = max(residual, max_coeff_diff(act(a * b), act(a) * act(b)))
            phi, psi = random_solution(rng, st), random_solution(rng, st)
            cc = commutator(field(phi), field(psi))
            residual = max(residual, max_coeff_diff(act(cc), cc))
            # one-parameter family: composition adds parameters
            g2 = GaugeElement(st.spectrum, eye_blocks, 2 * lam * e_j)
            residual = max(residual, max_coeff_diff(
                QuantumAction(group_compose(g, g), st)(field(phi)),
                QuantumAction(g2, st)(field(phi))))
            # invertibility back to the identity
            residual = max(residual, max_coeff_diff(
                QuantumAction(group_inverse(g), st)(act(a)), a))
    return {"dimension": n0, "residual": residual}
