"""Numerical classification of translation-covariant, stress-energy-preserving
endomorphisms of the solution space, one spatial momentum at a time.

The classification proceeds at the Lie algebra level. A real map G of the
data that commutes with the one-site shift acts at momentum k as a matrix
G_k on the species' (q_k, p_k) pairs, with G_{-k} the conjugate of G_k.

1. Commutant: G also commutes with the one-step evolution, the 2x2 mode map
   U_k of each block (`dynamics.mode_maps`). U_k is never a multiple of the
   identity (its q-p entry is dt) and distinct masses share no mode
   eigenvalue, so per mass block G_k = X_k (x) 1 + Y_k (x) U_k.
2. Constraints: preserving the pointwise null energy, linearized at the
   identity and polarized, reads <D phi, D (G phi)>(t, x) = 0 for every
   solution phi, point (t, x) and null contraction D_+-. By shift and time
   invariance the point (0, 0) suffices, where D_+- has full row rank: the
   condition holds iff D_+- G P = A_+- D_+- P for some A_+- in so(S), with P
   removing the massless zero mode. D_+- reads r_k^+- = [+-i sin(2 pi k/N), 1]
   on each (q_k, p_k), so A_+- is block-diagonal, and each species entry of
   a block solves one scalar system a_k r_k^+- + b_k r_k^+- U_k = A_+- r_k^+-
   at every kept k, with (a_k, b_k) the entry of (X_k, Y_k).
3. Solve: a 4x2 SVD per momentum eliminates (a_k, b_k); the pairs (A_+, A_-)
   admissible at every kept k are the nullspace of one small system per
   block. With A_+- antisymmetric, a block has nu(nu-1)/2 directions per
   admissible pair (species rotations times the pair's lift to (a_k, b_k))
   and nu^2 per (a_k, b_k) direction that no equation sees. The in-block
   rotations R (x) 1 are the pair A_+ = A_- = 1, lifted to a_k = 1, b_k = 0.
4. Affine factor: the constant part c of Phi(phi) -> Phi(G phi) + c(phi) 1
   is a real functional with c T = c and c U = c. Shift invariance puts c at
   k = 0: on each block a left fixed vector of U_0, constant over the sites;
   none on a massive block (det(U_0 - 1) = dt^2 w^2 > 0), sum_x p on the
   massless one, the span of the shift functionals of R^{nu(0)*}.

Massless species on a compact Cauchy slice carry a genuine lattice artifact:
the spatial zero mode is a free particle, and the maps supported entirely in
that parabolic block preserve the null energy trivially. Those directions
(dimension 2 nu(0)^2) are quarantined before constraining, reported, and
never counted toward the match.

Only the report's generators are dense `(dim, dim)` matrices, the form the
benchmark's output checks read, built from their blocks by
`dynamics.dense_from_modes`, as is the vacuum covariance; the in-memory
report holds them as float arrays, which `serialize.dumps` streams row by
row. The soundness checks evolve one generator's samples, or one solution
and its reflections, at a time. The stages keep the names that the
benchmark's spans wrap. The coordinate-space form of the system, one SVD
over all momenta, is the test oracle `oracles.coordinate_classification`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import nullspace
from .dynamics import (Perturbation, data_from_vec, dense_from_modes,
                       mode_maps, null_energy_grids, rce_data)
from .errors import BudgetExceeded
from .gauge import (block_reflections, classical_action, rotation_generators,
                    shift_functionals)
from .spacetime import LatticeSpacetime

BUDGET_SITES = 32
BUDGET_SPECIES = 5
RANK_REL_TOL = 1e-8
ANGLE_TOL = 1e-9
AFFINE_TOL = 1e-10     # principal-angle sine, affine functionals to shifts

# report residuals held to the `classify.soundness` tolerance by both the
# classify suite and `lcqft classify`
CHECKED_RESIDUALS = ("soundness_sigma", "soundness_null_energy",
                     "soundness_rce_commute", "reflection_null_energy",
                     "so_representation")


# -- commutant ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModeCommutant:
    """The commutant of the shift and the one-step evolution, one row per
    (mass block, momentum): gl(nu) (x) span{1, U_k} on the block."""

    spacetime: LatticeSpacetime
    block: np.ndarray     # (K,) mass-block index
    k: np.ndarray         # (K,) momentum
    U: np.ndarray         # (K, 2, 2) mode map

    @property
    def dimension(self) -> int:
        """Real dimension, counted by momentum: nu^2 dim span{1, U_k} per
        row (rows k and -k pair up into the real maps)."""
        nu = np.array([n for _, n in self.spacetime.spectrum.entries])
        span = np.stack([np.broadcast_to(np.eye(2), self.U.shape), self.U], 1)
        return int(nu[self.block] ** 2 @ np.linalg.matrix_rank(
            span.reshape(-1, 2, 4)))


def check_budget(n_sites: int, n_species: int):
    if n_sites > BUDGET_SITES or n_species > BUDGET_SPECIES:
        raise BudgetExceeded(
            f"need n_sites <= {BUDGET_SITES} and |nu| <= {BUDGET_SPECIES}")


def build_commutant_basis(spacetime: LatticeSpacetime) -> ModeCommutant:
    """Every (mass block, momentum) row with its closed-form mode map."""
    check_budget(spacetime.n_sites, spacetime.n_species)
    U = mode_maps(spacetime)
    block, k = np.divmod(np.arange(U.shape[0] * U.shape[1]), U.shape[1])
    return ModeCommutant(spacetime, block, k, U.reshape(-1, 2, 2))


def expected_commutant_dimension(spacetime: LatticeSpacetime) -> int:
    """Mode-space count: 2 complex dimensions per species pair within a mass
    block per momentum, giving 2 N sum_m nu(m)^2 real dimensions."""
    return 2 * spacetime.n_sites * sum(
        k * k for _, k in spacetime.spectrum.entries)


def split_zero_mode(basis: ModeCommutant):
    """Split the commutant into the active rows that the constraints see and
    the quarantined massless zero mode (the row of the massless block at
    k = 0)."""
    masses = np.array(basis.spacetime.spectrum.masses)
    zero = (masses[basis.block] == 0.0) & (basis.k == 0)
    return [ModeCommutant(basis.spacetime, basis.block[rows], basis.k[rows],
                          basis.U[rows]) for rows in (~zero, zero)]


# -- constraints and solve ----------------------------------------------------------

def constraint_rows_for_solution(active: ModeCommutant, st: LatticeSpacetime
                                 ) -> np.ndarray:
    """The scalar system at each active row, (K, 4, 4) complex: for sign +,
    then -, and component q, then p, the equation
    a_k r^+- + b_k r^+- U_k - A_+- r^+- = 0 in the unknowns
    (a_k, b_k, A_+, A_-)."""
    r = np.ones((len(active.k), 2, 2), dtype=complex)   # (K, sign, component)
    r[:, :, 0] = 1j * np.outer(np.sin(2 * np.pi * active.k / st.n_sites),
                               [1.0, -1.0])
    rows = np.zeros(r.shape + (4,), dtype=complex)
    rows[..., 0], rows[..., 1] = r, r @ active.U
    rows[:, 0, :, 2], rows[:, 1, :, 3] = -r[:, 0], -r[:, 1]
    return rows.reshape(len(r), 4, 4)


@dataclass(frozen=True, eq=False)
class BlockSolution:
    """One mass block's solved system; a direction is (k, a_k 1 + b_k U_k)."""

    pairs: np.ndarray     # (2, d) orthonormal admissible (A_+, A_-)
    lifted: list          # per pair, its lift at the block's kept momenta
    unseen: list          # per (a_k, b_k) that no equation sees, at k and -k


def _modes(ab: np.ndarray, U: np.ndarray) -> np.ndarray:
    return ab[:, :1, None] * np.eye(2) + ab[:, 1:, None] * U


def solve_blocks(active: ModeCommutant, st: LatticeSpacetime):
    """Solve the scalar system block by block. Returns the `BlockSolution`s
    and the rank gap: the largest singular value, and the smallest kept and
    largest dropped by the rank decisions over all kept momenta and blocks.
    A null vector n of M_k gives n at k with conj(n) at -k, real and
    imaginary part; at k = -k, where M_k is real, n made real."""
    rows = constraint_rows_for_solution(active, st)
    M, rhs = rows[..., :2], -rows[..., 2:]      # M (a_k, b_k) = rhs (A_+, A_-)
    u, s, vh = np.linalg.svd(M)
    kept = s > RANK_REL_TOL * s.max(initial=0.0)
    # along the left singular vectors past the rank, M vanishes, so the
    # admissible (A_+, A_-) must annihilate u^H rhs there
    proj = np.conj(np.swapaxes(u, 1, 2)) @ rhs
    past_rank = np.arange(M.shape[1]) >= kept.sum(1)[:, None]
    lift = np.conj(np.swapaxes(vh, 1, 2)) @ (np.divide(
        1.0, s, out=np.zeros_like(s), where=kept)[..., None] * proj[:, :2])
    kept_s, dropped_s = [s[kept]], [s[~kept]]
    N, out = st.n_sites, []
    for b in range(len(st.spectrum.entries)):
        sel = np.flatnonzero(active.block == b)
        cond = proj[sel][past_rank[sel]]
        pairs, rank, info = nullspace(np.concatenate([cond.real, cond.imag]),
                                      RANK_REL_TOL)
        if rank:
            kept_s.append([info["sigma_max"], info["sigma_min_kept"]])
        dropped_s.append([info["sigma_max_dropped"]])
        unseen = []
        for row, col in zip(*np.nonzero(~kept[sel])):
            k, n = active.k[sel[row]], np.conj(vh[sel[row], col])
            ns = [(n * np.conj(n[np.argmax(np.abs(n))])).real] \
                if k == -k % N else [n, 1j * n] if k < -k % N else []
            unseen += [(np.array([k, -k % N]), _modes(np.stack(
                [z, np.conj(z)]), active.U[sel[[row, row]]])) for z in ns]
        out.append(BlockSolution(pairs, [
            (active.k[sel], _modes(ab, active.U[sel]))
            for ab in np.moveaxis(lift[sel] @ pairs, -1, 0)], unseen))
    kept_s, dropped_s = np.concatenate(kept_s), np.concatenate(dropped_s)
    return out, {"sigma_max": float(np.max(kept_s, initial=0.0)),
                 "sigma_min_kept": float(np.min(kept_s)) if kept_s.size else 0.0,
                 "sigma_max_dropped": float(np.max(dropped_s, initial=0.0))}


# -- generators -------------------------------------------------------------------------
#
# A generator is carried as its blocks G_k, (N, 2S, 2S) complex, over the
# channels (c, s) in the canonical order c*S + s (q then p, species-major).

def mode_generator(st: LatticeSpacetime, E: np.ndarray, k: np.ndarray,
                   m: np.ndarray) -> np.ndarray:
    """The generator E (x) m_k at the momenta k and zero elsewhere: E an
    (S, S) species matrix, m (len(k), 2, 2) on each species' (q_k, p_k)."""
    S = st.n_species
    G = np.zeros((st.n_sites, 2 * S, 2 * S), dtype=complex)
    G[k] = np.einsum("kcd,st->kcsdt", m, E).reshape(len(k), 2 * S, 2 * S)
    return G


def species_generator(st: LatticeSpacetime, R: np.ndarray) -> np.ndarray:
    """The species matrix R acting as R (x) 1 on every mode."""
    N = st.n_sites
    return mode_generator(st, R, np.arange(N),
                          np.broadcast_to(np.eye(2), (N, 2, 2)))


def _apply(st: LatticeSpacetime, E: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The real map with blocks E_k applied to a data vector."""
    v = np.fft.fft(np.reshape(vec, (2 * st.n_species, st.n_sites)), axis=-1)
    return np.fft.ifft(np.einsum("kab,bk->ak", E, v), axis=-1).real.ravel()


def _mode_exp(G: np.ndarray) -> np.ndarray:
    """exp of each block G_k, by scaling and squaring a twelve-term Taylor
    core: scaled to 1-norm <= 1/4, its truncation error is below 1e-17."""
    norm = float(np.max(np.sum(np.abs(G), axis=-2), initial=0.0))
    squarings = max(0, int(np.ceil(np.log2(norm))) + 2) if norm > 0 else 0
    B = G / 2.0 ** squarings
    out = term = np.broadcast_to(np.eye(G.shape[-1]), G.shape)
    for j in range(1, 13):
        term = term @ B / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


# -- soundness checks -----------------------------------------------------------------------

def generator_soundness(st: LatticeSpacetime, generators: np.ndarray,
                        rng: np.random.Generator) -> dict:
    """Exponentiate the blocks G_k of each generator (n, N, 2S, 2S), or of one
    (N, 2S, 2S), and check each map S, worst over generators: symplectic, max
    |S^T J S - J| read off the blocks E_k^H J E_k - J (J = J_0 (x) 1 per mode)
    by the inverse DFT; on three random solutions each, null-energy preserving
    and commuting with rce. One generator's samples are evolved at a time:
    one trajectory batch for its null energies, one batch per (a, S a)."""
    J = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(st.n_species))
    out = dict.fromkeys(("sigma", "null_energy", "rce_commute"), 0.0)
    T1, N, w = st.n_slices, st.n_sites, max(2, st.n_sites // 3)
    C = 2 * st.n_species
    for G in np.reshape(generators, (-1, N, C, C)):
        E, samples = _mode_exp(G), []
        out["sigma"] = max(out["sigma"], float(np.max(np.abs(np.fft.ifft(
            np.conj(np.swapaxes(E, 1, 2)) @ J @ E - J, axis=0)))))
        for _ in range(3):
            vec = rng.standard_normal(st.data_dim)
            v = np.zeros((T1, N))
            t0 = 1 + int(rng.integers(0, max(1, st.n_steps - 4)))
            v[t0:t0 + 3, :w] = rng.standard_normal((min(3, T1 - t0), w))
            v[0] = v[-1] = 0.0
            samples.append(([vec, _apply(st, E, vec)], Perturbation(st, v)))
        grids = null_energy_grids(st, *data_from_vec(st, [x for x, _ in samples]))
        for (pair, pert), (g1, g2) in zip(samples, np.moveaxis(grids, 0, 2)):
            out["null_energy"] = max(out["null_energy"], float(
                np.max(np.abs(g1 - g2)) / max(1.0, np.max(np.abs(g1)))))
            moved, image = np.concatenate(rce_data(*data_from_vec(st, pair),
                                                   pert), -2).reshape(2, -1)
            out["rce_commute"] = max(out["rce_commute"], float(
                np.max(np.abs(image - _apply(st, E, moved)))
                / max(1.0, np.max(np.abs(moved)))))
    return out


def reflection_residual(st: LatticeSpacetime, rng: np.random.Generator) -> float:
    """Direct check that one reflection per mass block (`block_reflections`)
    preserves the pointwise null energy: with the rotations they reach every
    component of the group. Each of three samples evolves with them."""
    reflections, res = block_reflections(st.spectrum), 0.0
    for _ in range(3):
        phi = rng.standard_normal(st.data_dim)
        grids = null_energy_grids(st, *data_from_vec(st, [phi] + [
            classical_action(g, st, phi) for g in reflections]))
        res = max(res, float(np.max(np.abs(grids[:, 1:] - grids[:, :1]))))
    return res


# -- affine factor ---------------------------------------------------------------------------

def affine_functionals(st: LatticeSpacetime, U0: np.ndarray) -> np.ndarray:
    """Orthonormal rows (d, dim) spanning the constant parts c (step 4): per
    mass block, each left fixed vector of its U_0 (`U0`, (B, 2, 2)) on each
    species of the block, constant over the sites."""
    N, eye, rows = st.n_sites, np.eye(st.n_species), []
    for (_, b), U in zip(st.spectrum.block_slices(), U0):
        for ab in nullspace((U - np.eye(2)).T, RANK_REL_TOL)[0].T:
            rows += [np.repeat(np.kron(ab, eye[s]), N) / np.sqrt(N)
                     for s in range(b.start, b.stop)]
    return np.array(rows).reshape(len(rows), st.data_dim)


def affine_report(st: LatticeSpacetime, U0: np.ndarray) -> dict:
    """The solved dimension, the expected nu(0), and the sine of the largest
    principal angle between the solved functionals and the shift functionals
    <e_j, .> of `gauge.shift_functionals` (1.0 when their counts differ)."""
    solved, n0 = affine_functionals(st, U0), st.spectrum.massless_count
    shifts = shift_functionals(st) / np.sqrt(st.n_sites)
    angle = np.linalg.norm(shifts - shifts @ solved.T @ solved, 2) if n0 else 0.0
    return {"dimension": len(solved), "expected": n0,
            "residual": float(angle) if len(solved) == n0 else 1.0}


# -- classification -----------------------------------------------------------------------------

def expected_so_dimension(st: LatticeSpacetime) -> int:
    return sum(k * (k - 1) // 2 for _, k in st.spectrum.entries)


def solved_generators(st: LatticeSpacetime,
                      solution: list[BlockSolution]) -> list[np.ndarray]:
    """Every solved direction, E (x) m_k: for each block, each rotation E of
    so(nu) with each lifted admissible pair, and each entry E_ij of gl(nu)
    with each unseen direction."""
    eye, out = np.eye(st.n_species), []
    for (_, b), sol in zip(st.spectrum.block_slices(), solution):
        so = [R for R in rotation_generators(st.spectrum) if R[b, b].any()]
        gl = [np.outer(eye[i], eye[j])
              for i in range(b.start, b.stop) for j in range(b.start, b.stop)]
        out += [mode_generator(st, E, k, m) for k, m in sol.lifted for E in so]
        out += [mode_generator(st, E, k, m) for k, m in sol.unseen for E in gl]
    return out


def classify(spacetime: LatticeSpacetime, seed: int = 0) -> dict:
    """Report the space of infinitesimal endomorphism directions against the
    in-block antisymmetric species generators, and the affine factor against
    the nu(0) shift directions. The report's `generators` is a list of
    `(dim, dim)` float arrays; everything else in it is plain Python data."""
    st = spacetime
    rng = np.random.default_rng(seed)
    commutant = build_commutant_basis(st)
    active, quarantined = split_zero_mode(commutant)
    solution, gap = solve_blocks(active, st)

    # the rotations are the pair A_+ = A_- = 1: (a_k, b_k) = (1, 0) solves
    # its system at every k, so where each M_k has full rank that is its
    # lift; the residual is the sine of its angle to the admissible pairs
    one = np.full(2, np.sqrt(0.5))
    unseen, dimension, rep_residual = 0, 0, 0.0
    for (_, nu), sol in zip(st.spectrum.entries, solution):
        unseen += nu * nu * len(sol.unseen)
        dimension += nu * (nu - 1) // 2 * sol.pairs.shape[1]
        if nu > 1:
            rep_residual = max(rep_residual, float(np.linalg.norm(
                one - sol.pairs @ (sol.pairs.T @ one))))
    dimension += unseen
    expected = expected_so_dimension(st)
    max_angle = float(np.arcsin(min(1.0, rep_residual)))
    match = bool(dimension == expected and max_angle < ANGLE_TOL)

    # reported generators: on a match, the in-block rotations (the solve
    # fixes only their span); on a mismatch, the solved directions
    modes = [species_generator(st, R) for R in rotation_generators(st.spectrum)] \
        if match else solved_generators(st, solution)
    soundness = generator_soundness(st, np.array(modes), rng)

    findings = []
    if dimension != expected:
        findings.append(
            f"nullspace dimension {dimension} != expected {expected}: "
            "surplus or missing endomorphism directions at this lattice size")
    if unseen:
        findings.append(f"{unseen} commutant directions are seen by no "
                        "constraint (rank-deficient mode system)")
    zero_mode_dimension = quarantined.dimension
    if zero_mode_dimension:
        findings.append(
            f"{zero_mode_dimension} massless zero-mode directions quarantined "
            "(compact-Cauchy-surface artifact, not counted)")
    if st.spectrum.massless_count:
        findings.append("the compactness theorem covers O(nu) only: the affine "
                        f"factor R^{{nu(0)*}} (dimension "
                        f"{st.spectrum.massless_count}) is non-compact")

    return {
        "spectrum": st.spectrum.format(),
        "n_sites": st.n_sites, "n_steps": st.n_steps, "dt": st.dt, "seed": seed,
        "commutant_dimension": commutant.dimension,
        "commutant_expected": expected_commutant_dimension(st),
        "zero_mode_dimension": zero_mode_dimension,
        "dimension": int(dimension), "expected": int(expected), "match": match,
        "max_principal_angle": max_angle,
        "generators": [dense_from_modes(st, G) for G in modes],
        "residuals": {
            "so_representation": rep_residual,
            **{f"constraint_{k}": v for k, v in gap.items()},
            "reflection_null_energy": reflection_residual(st, rng),
            **{f"soundness_{k}": v for k, v in soundness.items()},
        },
        "affine": affine_report(st, commutant.U[commutant.k == 0]),
        "findings": findings,
    }
