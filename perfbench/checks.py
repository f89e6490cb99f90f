"""Output checks for the benchmark, computed apart from lcqft.

The expected counts come from the spectrum string alone, and the classifier's
generators are checked against a symplectic form, a site shift, a
velocity-Verlet step and a species-rotation basis that this module builds
with numpy. Only `ccr_problems` calls into lcqft, because what it checks is
the public algebra API itself.

Conventions (those of the lcqft README): species are ordered by increasing
mass, and the canonical data index is `s*N + x` for the field value of species
`s` at site `x`, offset by `S*N` for the momenta. Each check returns a list
of problems; an empty list means the output passed.
"""
from __future__ import annotations

import numpy as np

# residuals that must lie strictly above their threshold; every other
# residual with a threshold must lie at or under it
ABOVE_CHECKS = frozenset({"mass_mixing_residual", "central_moved_by_rotations"})

# generator checks: max-entry residual allowed, relative to max(1, max|G|)
GENERATOR_TOL = 1e-10
# CCR check: allowed deviation, relative to 1 + sum |a_i| |J_ij| |b_j|
CCR_TOL = 1e-12


def parse_spectrum(text: str) -> list[tuple[float, int]]:
    """`"m:k,m:k"` -> [(mass, multiplicity)], sorted by mass."""
    entries = []
    for chunk in text.split(","):
        mass, mult = chunk.split(":")
        entries.append((float(mass), int(mult)))
    return sorted(entries)


def expected_counts(spectrum: list[tuple[float, int]], n_sites: int) -> dict:
    """Dimensions the paper's classification predicts for this spectrum."""
    nu0 = sum(k for m, k in spectrum if m == 0.0)
    return {
        "dimension": sum(k * (k - 1) // 2 for _, k in spectrum),
        "commutant_dimension": 2 * n_sites * sum(k * k for _, k in spectrum),
        "zero_mode_dimension": 2 * nu0 * nu0,
        "affine_dimension": nu0,
    }


def _residual_problems(suite: dict) -> list[str]:
    problems = []
    thresholds = suite.get("thresholds", {})
    for key, value in suite.get("residuals", {}).items():
        if key not in thresholds:
            continue  # informational value, not a check
        limit = thresholds[key]
        if key in ABOVE_CHECKS:
            if not value > limit:
                problems.append(f"{suite['name']}.{key} = {value!r} not above {limit!r}")
        elif not value <= limit:
            problems.append(f"{suite['name']}.{key} = {value!r} exceeds {limit!r}")
    return problems


def check_verify_report(report: dict, suite_names: list[str],
                        spectrum: list[tuple[float, int]], n_sites: int) -> list[str]:
    """A `lcqft verify` report: status, every requested suite, every check,
    and the classify suite's dimensions."""
    problems = []
    if report.get("status") != "pass":
        problems.append(f"report status {report.get('status')!r}")
    suites = report.get("suites", [])
    names = [s.get("name") for s in suites]
    if names != suite_names:
        problems.append(f"suites {names} != requested {suite_names}")
    for suite in suites:
        if suite.get("status") != "pass":
            problems.append(f"suite {suite.get('name')} status {suite.get('status')!r}")
        problems += _residual_problems(suite)
        if suite.get("name") == "classify":
            dims = suite.get("dimensions", {})
            for key, want in expected_counts(spectrum, n_sites).items():
                if dims.get(key) != want:
                    problems.append(f"classify.{key} = {dims.get(key)!r}, expected {want}")
    return problems


def check_classify_report(report: dict, spectrum: list[tuple[float, int]],
                          n_sites: int, dt: float) -> list[str]:
    """A `lcqft classify` report: match, dimensions, and each generator."""
    problems = []
    if report.get("match") is not True:
        problems.append(f"match {report.get('match')!r}")
    counts = expected_counts(spectrum, n_sites)
    got = {
        "dimension": report.get("dimension"),
        "commutant_dimension": report.get("commutant_dimension"),
        "zero_mode_dimension": report.get("zero_mode_dimension"),
        "affine_dimension": report.get("affine", {}).get("dimension"),
    }
    for key, want in counts.items():
        if got[key] != want:
            problems.append(f"{key} = {got[key]!r}, expected {want}")
    if report.get("expected") != counts["dimension"]:
        problems.append(f"expected = {report.get('expected')!r}, "
                        f"expected {counts['dimension']}")
    generators = [np.asarray(g, dtype=float) for g in report.get("generators", [])]
    if len(generators) != counts["dimension"]:
        problems.append(f"{len(generators)} generators, expected {counts['dimension']}")
    problems += generator_set_problems(generators, spectrum, n_sites, dt)
    return problems


# -- generators ------------------------------------------------------------------

def symplectic_matrix(n_species: int, n_sites: int) -> np.ndarray:
    """J with a^T J b = sum (q_a p_b - q_b p_a)."""
    half = n_species * n_sites
    eye = np.eye(half)
    zero = np.zeros((half, half))
    return np.block([[zero, eye], [-eye, zero]])


def shift_matrix(n_species: int, n_sites: int) -> np.ndarray:
    """One-site cyclic shift, acting alike on every species and channel."""
    roll = np.roll(np.eye(n_sites), 1, axis=0)
    return np.kron(np.eye(2 * n_species), roll)


def verlet_step_matrix(spectrum: list[tuple[float, int]], n_sites: int,
                       dt: float) -> np.ndarray:
    """One velocity-Verlet step of q'' = (Laplacian - m^2) q on the circle.

    With A the force matrix, q1 = (1 + h^2 A/2) q + h p and
    p1 = (h A + h^3 A^2 / 4) q + (1 + h^2 A/2) p.
    """
    lap = np.roll(np.eye(n_sites), 1, axis=1) + np.roll(np.eye(n_sites), -1, axis=1) \
        - 2.0 * np.eye(n_sites)
    masses = [m for m, k in spectrum for _ in range(k)]
    A = np.kron(np.eye(len(masses)), lap) - np.kron(np.diag(np.square(masses)),
                                                     np.eye(n_sites))
    eye = np.eye(A.shape[0])
    diag = eye + 0.5 * dt * dt * A
    return np.block([[diag, dt * eye], [dt * A + 0.25 * dt ** 3 * A @ A, diag]])


def rotation_basis(spectrum: list[tuple[float, int]], n_sites: int) -> np.ndarray:
    """In-block species rotations e_{ts} - e_{st}, on both channels at every
    site; shape (n_rotations, dim, dim)."""
    n_species = sum(k for _, k in spectrum)
    out = []
    start = 0
    for _, k in spectrum:
        for s in range(start, start + k):
            for t in range(s + 1, start + k):
                A = np.zeros((n_species, n_species))
                A[t, s], A[s, t] = 1.0, -1.0
                out.append(np.kron(np.eye(2), np.kron(A, np.eye(n_sites))))
        start += k
    dim = 2 * n_species * n_sites
    return np.stack(out) if out else np.zeros((0, dim, dim))


def generator_set_problems(generators: list[np.ndarray],
                           spectrum: list[tuple[float, int]], n_sites: int,
                           dt: float) -> list[str]:
    """Each generator G must satisfy G^T J + J G = 0, commute with the site
    shift and the one-step evolution, and lie in the span of the in-block
    species rotations; together they must be linearly independent."""
    n_species = sum(k for _, k in spectrum)
    dim = 2 * n_species * n_sites
    J = symplectic_matrix(n_species, n_sites)
    shift = shift_matrix(n_species, n_sites)
    step = verlet_step_matrix(spectrum, n_sites, dt)
    rotations = rotation_basis(spectrum, n_sites).reshape(-1, dim * dim)
    norms = np.sum(rotations * rotations, axis=1)
    problems = []
    for i, G in enumerate(generators):
        if G.shape != (dim, dim):
            problems.append(f"generator {i} has shape {G.shape}, expected {(dim, dim)}")
            continue
        tol = GENERATOR_TOL * max(1.0, float(np.max(np.abs(G))))
        coeffs = rotations @ G.ravel() / norms if len(norms) else np.zeros(0)
        residuals = {
            "symplectic": G.T @ J + J @ G,
            "shift_commutator": G @ shift - shift @ G,
            "step_commutator": G @ step - step @ G,
            "rotation_span": G.ravel() - coeffs @ rotations,
        }
        for name, res in residuals.items():
            worst = float(np.max(np.abs(res))) if res.size else 0.0
            if not worst <= tol:
                problems.append(f"generator {i}: {name} residual {worst:.3e} > {tol:.1e}")
    if generators and all(G.shape == (dim, dim) for G in generators):
        flat = np.stack([G.ravel() for G in generators])
        sing = np.linalg.svd(flat, compute_uv=False)
        rank = int(np.sum(sing > 1e-8 * sing[0])) if sing[0] > 0 else 0
        if rank != len(generators):
            problems.append(f"generators span rank {rank}, not {len(generators)}")
    return problems


# -- CCR through the public algebra API -------------------------------------------

def ccr_problems(seed: int, spectrum_text: str, n_sites: int, n_steps: int,
                 dt: float, pairs: int = 5) -> list[str]:
    """[Phi(a), Phi(b)] = i sigma(a, b) 1 on random complex Cauchy data, with
    sigma computed here in numpy; every non-unit coefficient must vanish."""
    from lcqft import algebra
    from lcqft.dynamics import solution_from_vec
    from lcqft.spacetime import LatticeSpacetime, MassSpectrum

    st = LatticeSpacetime(n_sites, n_steps, dt, MassSpectrum.parse(spectrum_text))
    n_species = sum(k for _, k in parse_spectrum(spectrum_text))
    J = symplectic_matrix(n_species, n_sites)
    rng = np.random.default_rng([seed, 0xCC2])
    problems = []
    for i in range(pairs):
        a, b = rng.standard_normal((2, J.shape[0])) \
            + 1j * rng.standard_normal((2, J.shape[0]))
        sigma = a @ J @ b
        tol = CCR_TOL * (1.0 + float(np.abs(a) @ np.abs(J) @ np.abs(b)))
        comm = algebra.commutator(algebra.field(solution_from_vec(st, a)),
                                  algebra.field(solution_from_vec(st, b)))
        unit = comm.terms.get((), 0.0)
        rest = max((abs(c) for idx, c in comm.terms.items() if idx), default=0.0)
        if not abs(unit - 1j * sigma) <= tol:
            problems.append(f"ccr pair {i}: unit coefficient {unit} != i*sigma = {1j * sigma}")
        if not rest <= tol:
            problems.append(f"ccr pair {i}: non-unit coefficient {rest:.3e} > {tol:.1e}")
    return problems
