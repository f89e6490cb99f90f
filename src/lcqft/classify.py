"""Numerical classification of translation-covariant, stress-energy-preserving
endomorphisms of the solution space.

The classification proceeds at the Lie algebra level:

1. Commutant: a real basis of maps commuting with the one-site spatial shift
   and the one-step evolution. Shift-commutants are exactly the block-
   circulant maps (channel-pair (x) cyclic-offset parametrization); inside
   that subspace the evolution commutator is a dense linear map whose
   nullspace is computed by SVD.
2. Constraints: preserving the pointwise null energy, linearized at the
   identity and polarized, gives one row per (sample solution, point, null
   direction): <D phi, D (G phi)>(t, x) = 0 for both null contractions D.
3. Nullspace: with the rank plateau confirmed over independent sample
   batches, the surviving directions are compared (dimension and principal
   angles) against the in-block antisymmetric species generators.

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
from .dynamics import (
    Perturbation,
    Solution,
    evolve_data,
    null_derivatives,
    one_step_matrix,
    rce_matrix,
    solution_from_vec,
    symplectic_matrix,
)
from .errors import BudgetExceeded, InsufficientSamples
from .spacetime import LatticeSpacetime

BUDGET_SITES = 16
BUDGET_SPECIES = 5
RANK_REL_TOL = 1e-8
ANGLE_TOL = 1e-9


# -- commutant ---------------------------------------------------------------------

def _channel_count(st: LatticeSpacetime) -> int:
    return 2 * st.n_species


def _coords_to_matrix(g: np.ndarray, st: LatticeSpacetime) -> np.ndarray:
    """Block-circulant map from coordinates g[a, b, m]: entries
    X[(a, x), (b, x')] = g[a, b, (x - x') mod N]."""
    C, N = _channel_count(st), st.n_sites
    x = np.arange(N)
    offset = (x[:, None] - x[None, :]) % N
    X = g[:, :, offset]               # (C, C, N, N)
    return X.transpose(0, 2, 1, 3).reshape(C * N, C * N)


def _evolution_commutator_operator(st: LatticeSpacetime) -> np.ndarray:
    """Matrix of g -> coords([X(g), U]) on block-circulant coordinates.

    For a parametrization element E_cc' (x) P^j the commutator with the
    (block-circulant) one-step map U has coordinates assembled from row and
    column slices of U, so the operator is built by indexing alone.
    """
    C, N = _channel_count(st), st.n_sites
    U = one_step_matrix(st)
    n_p = C * C * N
    L = np.zeros((n_p, n_p))
    m = np.arange(N)
    for c in range(C):
        for cp in range(C):
            for j in range(N):
                col = (c * C + cp) * N + j
                g = np.zeros((C, C, N))
                # (X U) coords: delta_{a,c} U[(c', (m-j) mod N), (b, 0)]
                rows = cp * N + (m - j) % N
                g[c, :, :] += U[rows][:, np.arange(C) * N].T
                # -(U X) coords: -delta_{b,c'} U[(a, m), (c, j)]
                ucol = U[:, c * N + j].reshape(C, N)
                g[:, cp, :] -= ucol
                L[:, col] = g.ravel()
    return L


@dataclass(frozen=True, eq=False)
class CommutantBasis:
    """Real basis of {G : [G, shift] = 0, [G, one-step evolution] = 0}."""

    spacetime: LatticeSpacetime
    matrices: np.ndarray          # (n_c, dim, dim)
    coords: np.ndarray            # (n_c, C*C*N) orthonormal rows

    @property
    def dimension(self) -> int:
        return self.matrices.shape[0]


def check_budget(spacetime: LatticeSpacetime):
    if spacetime.n_sites > BUDGET_SITES or spacetime.n_species > BUDGET_SPECIES:
        raise BudgetExceeded(
            f"need n_sites <= {BUDGET_SITES} and |nu| <= {BUDGET_SPECIES}")


@lru_cache(maxsize=16)
def build_commutant_basis(spacetime: LatticeSpacetime) -> CommutantBasis:
    """Dense nullspace of the evolution commutator inside the shift commutant."""
    check_budget(spacetime)
    C, N = _channel_count(spacetime), spacetime.n_sites
    L = _evolution_commutator_operator(spacetime)
    basis, _, _ = nullspace(L, rel_tol=1e-10)
    mats = np.stack([
        _coords_to_matrix(basis[:, i].reshape(C, C, N), spacetime)
        for i in range(basis.shape[1])
    ]) if basis.shape[1] else np.zeros((0, C * N, C * N))
    return CommutantBasis(spacetime, mats, basis.T)


def expected_commutant_dimension(spacetime: LatticeSpacetime) -> int:
    """Mode-space count: 2 complex dimensions per species pair within a mass
    block per momentum, giving 2 N sum_m nu(m)^2 real dimensions."""
    return 2 * spacetime.n_sites * sum(
        k * k for _, k in spacetime.spectrum.entries)


# -- zero-mode quarantine -------------------------------------------------------------

def _massless_zero_mode_projector(st: LatticeSpacetime) -> np.ndarray:
    """Projector onto the massless spatial zero mode (both channels)."""
    S, N = st.n_species, st.n_sites
    dim = st.data_dim
    P = np.zeros((dim, dim))
    if st.spectrum.massless_count == 0:
        return P
    block = st.spectrum.block_slice(0.0)
    J = np.full((N, N), 1.0 / N)
    for s in range(block.start, block.stop):
        for chan in (0, 1):
            base = chan * S * N + s * N
            P[base: base + N, base: base + N] = J
    return P


def split_zero_mode(basis: CommutantBasis):
    """Split the commutant into massless-zero-mode-supported directions and
    their orthogonal complement (the active directions that constraints see)."""
    st = basis.spacetime
    P = _massless_zero_mode_projector(st)
    if st.spectrum.massless_count == 0:
        quarantined = np.zeros_like(basis.matrices)
    else:
        quarantined = P[None] @ basis.matrices @ P[None]
    active = basis.matrices - quarantined
    n, dim, _ = basis.matrices.shape
    q_basis = orthonormal_columns(quarantined.reshape(n, dim * dim).T)
    a_basis = orthonormal_columns(active.reshape(n, dim * dim).T)
    q_mats = np.stack([v.reshape(dim, dim) for v in q_basis.T]) \
        if q_basis.shape[1] else np.zeros((0, dim, dim))
    a_mats = np.stack([v.reshape(dim, dim) for v in a_basis.T]) \
        if a_basis.shape[1] else np.zeros((0, dim, dim))
    return a_mats, q_mats


def project_out_massless_zero_mode(vec: np.ndarray, st: LatticeSpacetime
                                   ) -> np.ndarray:
    P = _massless_zero_mode_projector(st)
    return vec - P @ vec


# -- constraint assembly ---------------------------------------------------------------

@dataclass(eq=False)
class ConstraintSystem:
    """Linear system for commutant coefficients from polarized null-energy
    preservation at sampled lattice points."""

    spacetime: LatticeSpacetime
    generators: np.ndarray        # (n_act, dim, dim) active commutant matrices
    rows: np.ndarray              # (n_rows, n_act)
    nullity_history: list[int]

    def add_rows(self, rows: np.ndarray):
        self.rows = np.concatenate([self.rows, rows], axis=0)

    def nullspace(self, rel_tol: float = RANK_REL_TOL):
        return nullspace(self.rows, rel_tol)


def default_sample_points(st: LatticeSpacetime) -> list[tuple[int, int, int]]:
    """(t, x, sign) triples covering one spatial period in time and a spread
    of sites, both null directions."""
    ts = list(range(min(st.n_sites, st.n_steps) + 1))
    xs = sorted({0, st.n_sites // 3, (2 * st.n_sites) // 3})
    return [(t, x, s) for t in ts for x in xs for s in (+1, -1)]


def constraint_rows_for_solution(generators: np.ndarray, phi_vec: np.ndarray,
                                 st: LatticeSpacetime,
                                 points: list[tuple[int, int, int]]) -> np.ndarray:
    """One row per sampled point: <D phi, D (G phi)>(t, x) for each generator."""
    S, N = st.n_species, st.n_sites
    half = S * N
    t_max = max(t for t, _, _ in points)

    def unpack(vecs):
        return (vecs[..., :half].reshape(*vecs.shape[:-1], S, N),
                vecs[..., half:].reshape(*vecs.shape[:-1], S, N))

    q0, p0 = unpack(phi_vec)
    qt, pt = evolve_data(q0, p0, st, 0, t_max, trajectory=True)
    dp_base, dm_base = null_derivatives(qt, pt)

    g_vecs = generators @ phi_vec                      # (n_act, dim)
    qg, pg = unpack(g_vecs)
    qgt, pgt = evolve_data(qg, pg, st, 0, t_max, trajectory=True)
    dp_g, dm_g = null_derivatives(qgt, pgt)            # (T1, n_act, S, N)

    rows = np.empty((len(points), generators.shape[0]))
    for r, (t, x, sign) in enumerate(points):
        base = (dp_base if sign > 0 else dm_base)[t, :, x]
        gen = (dp_g if sign > 0 else dm_g)[t, :, :, x]
        rows[r] = np.real(gen @ base)
    return rows


def linearized_set_constraints(basis_matrices: np.ndarray,
                               samples: list[tuple[Solution, int, int, int]],
                               st: LatticeSpacetime) -> ConstraintSystem:
    """Assemble the constraint system from explicit (solution, t, x, sign)
    samples; classify itself uses the batched per-solution path."""
    by_sol: dict[int, tuple[Solution, list]] = {}
    for sol, t, x, sign in samples:
        key = id(sol)
        by_sol.setdefault(key, (sol, []))[1].append((t, x, sign))
    all_rows = []
    for sol, pts in by_sol.values():
        all_rows.append(constraint_rows_for_solution(
            basis_matrices, sol.vec().real, st, pts))
    rows = np.concatenate(all_rows, axis=0) if all_rows else \
        np.zeros((0, basis_matrices.shape[0]))
    return ConstraintSystem(st, basis_matrices, rows, [])


def canonical_sample_vectors(st: LatticeSpacetime) -> np.ndarray:
    """All canonical basis data vectors, massless zero mode projected out."""
    dim = st.data_dim
    vecs = np.eye(dim)
    return np.stack([project_out_massless_zero_mode(v, st) for v in vecs])


# -- expected generators -----------------------------------------------------------------

def species_rotation_generator(st: LatticeSpacetime, s1: int, s2: int
                               ) -> np.ndarray:
    """In-block antisymmetric generator e_{s2 s1} - e_{s1 s2}, acting
    identically on both channels at every site."""
    S, N = st.n_species, st.n_sites
    A = np.zeros((S, S))
    A[s2, s1] = 1.0
    A[s1, s2] = -1.0
    block = np.kron(A, np.eye(N))
    dim = st.data_dim
    out = np.zeros((dim, dim))
    half = dim // 2
    out[:half, :half] = block
    out[half:, half:] = block
    return out


def expected_so_generators(st: LatticeSpacetime) -> np.ndarray:
    gens = []
    for _, block in st.spectrum.block_slices():
        for s1 in range(block.start, block.stop):
            for s2 in range(s1 + 1, block.stop):
                gens.append(species_rotation_generator(st, s1, s2))
    dim = st.data_dim
    return np.stack(gens) if gens else np.zeros((0, dim, dim))


def expected_so_dimension(st: LatticeSpacetime) -> int:
    return sum(k * (k - 1) // 2 for _, k in st.spectrum.entries)


# -- soundness checks -----------------------------------------------------------------------

def generator_soundness(st: LatticeSpacetime, generator: np.ndarray,
                        rng: np.random.Generator) -> dict:
    """Exponentiate and verify: symplectic, pointwise null-energy preserving,
    commuting with relative Cauchy evolution."""
    from .dynamics import null_energy_grid

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
    """Direct check that representative reflections (det = -1 blocks) preserve
    the pointwise null energy: covers the disconnected component of the group."""
    from .dynamics import null_energy_grid
    from .gauge import GaugeElement, classical_action

    blocks = []
    for _, k in st.spectrum.entries:
        R = np.eye(k)
        R[0, 0] = -1.0
        blocks.append(R)
    g = GaugeElement(st.spectrum, tuple(blocks),
                     np.zeros(st.spectrum.massless_count))
    res = 0.0
    for _ in range(3):
        phi = solution_from_vec(st, rng.standard_normal(st.data_dim))
        res = max(res, float(np.max(np.abs(
            null_energy_grid(classical_action(g, phi)) - null_energy_grid(phi)))))
    return res


# -- classification -----------------------------------------------------------------------------

def classify(spacetime: LatticeSpacetime, quantized: bool = False,
             seed: int = 0, random_batches: int = 3,
             batch_size: int = 8,
             sample_points: list[tuple[int, int, int]] | None = None) -> dict:
    """Report the space of infinitesimal endomorphism directions and compare
    it against the direct sum of in-block antisymmetric species generators
    (plus, in the quantized affine case, the massless shift directions)."""
    st = spacetime
    rng = np.random.default_rng(seed)
    commutant = build_commutant_basis(st)
    active, quarantined = split_zero_mode(commutant)
    n_act = active.shape[0]
    points = sample_points if sample_points is not None \
        else default_sample_points(st)

    # canonical batch (deterministic), then independent random batches
    rows = [constraint_rows_for_solution(active, v, st, points)
            for v in canonical_sample_vectors(st)]
    system = ConstraintSystem(st, active, np.concatenate(rows, axis=0), [])
    null_basis, rank0, cond = system.nullspace()
    system.nullity_history.append(n_act - rank0)

    for _ in range(random_batches):
        batch = [project_out_massless_zero_mode(
            rng.standard_normal(st.data_dim), st) for _ in range(batch_size)]
        new_rows = [constraint_rows_for_solution(active, v, st, points)
                    for v in batch]
        system.add_rows(np.concatenate(new_rows, axis=0))
        null_basis, rank, cond = system.nullspace()
        system.nullity_history.append(n_act - rank)

    hist = system.nullity_history
    if len(hist) >= 3 and not (hist[-1] == hist[-2] == hist[-3]):
        raise InsufficientSamples(
            f"nullspace not plateaued: history {hist}")

    dimension = hist[-1]
    expected = expected_so_dimension(st)

    # expected generators, active parts, in coefficient coordinates
    so_gens = expected_so_generators(st)
    P = _massless_zero_mode_projector(st)
    flat_active = active.reshape(n_act, -1)
    rep_residual = 0.0
    if so_gens.shape[0]:
        so_active = so_gens - P[None] @ so_gens @ P[None]
        # coefficients of so_active over the (orthonormal) active basis
        so_coeffs = so_active.reshape(so_active.shape[0], -1) @ flat_active.T
        recon = so_coeffs @ flat_active
        rep_residual = float(np.max(np.abs(
            recon - so_active.reshape(so_active.shape[0], -1))))
    else:
        so_coeffs = np.zeros((0, n_act))

    angles = principal_angles(
        orthonormal_columns(null_basis) if null_basis.size else null_basis,
        orthonormal_columns(so_coeffs.T) if so_coeffs.size else so_coeffs.T)
    max_angle = float(np.max(angles)) if angles.size else 0.0
    match = bool(dimension == expected and max_angle < ANGLE_TOL)

    # reported generators: on a match, the canonical completion by full
    # in-block rotations (the active nullspace fixes the combination); on a
    # mismatch, the raw active directions are reported as findings.
    generators = []
    soundness = {"sigma": 0.0, "null_energy": 0.0, "rce_commute": 0.0}
    if match and dimension:
        combos = np.linalg.lstsq(so_coeffs.T, null_basis, rcond=None)[0]
        for i in range(dimension):
            gen = np.tensordot(combos[:, i], so_gens, axes=(0, 0))
            generators.append(gen)
    elif dimension:
        for i in range(dimension):
            generators.append(np.tensordot(null_basis[:, i], active, axes=(0, 0)))
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
        "nullity_history": hist,
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
    from .algebra import commutator, field, max_coeff_diff, random_element
    from .dynamics import random_solution
    from .gauge import GaugeElement, QuantumAction, group_compose

    n0 = st.spectrum.massless_count
    rng = np.random.default_rng(1234)
    if n0 == 0:
        return {"dimension": 0, "residual": 0.0}

    eye_blocks = tuple(np.eye(k) for _, k in st.spectrum.entries)
    residual = 0.0
    for j in range(n0):
        e_j = np.zeros(n0)
        e_j[j] = 1.0
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
            ginv = GaugeElement(st.spectrum, eye_blocks, -lam * e_j)
            residual = max(residual, max_coeff_diff(
                QuantumAction(ginv, st)(act(a)), a))
    return {"dimension": n0, "residual": residual}
