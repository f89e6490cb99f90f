"""Verification suites and the report runner.

Each suite exercises one structural layer at its frozen tolerances and
reports residuals; the runner assembles the versioned JSON report.

Every whole-group property (vacuum invariance, rce intertwining, diamond
membership, observables, multiplets) is checked on the exact presentation of
`gauge.presentation`; random group elements appear only in the gauge suite's
homomorphism and float-naturality checks, which test the group law itself.
The state suite reads positivity and invariance off the two-point kernel and
its one-point function on the basis fields; the gauge suite reads diamond
membership off the species maps of the presentation's moves, which must map
each diamond's solution space into itself; the rce suite reads its linear
identities off the dense maps of rce[v] and of its derivative.

Suites draw randomness from independent counter-based streams derived from
the master seed, so a report is byte-identical across reruns on one build and
BLAS thread count (timings aside), whichever process ran each suite: `verify
all` runs its suites on one lane per usable CPU (`_run_lanes`). Across
machines the contract (statuses, dimensions, thresholds, findings, exact
checks) is identical and the roundoff-floor residuals agree within the band
of `serialize.golden_mismatches`.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__
from . import algebra as alg
from . import dynamics as dyn
from . import exact_algebra as exact
from . import gauge as gg
from . import kinematics as kin
from . import observables as obs
from . import states as stt
from .classify import AFFINE_TOL, CHECKED_RESIDUALS, check_budget, classify
from .errors import ConfigParse, LcqftError
from .spacetime import LatticeSpacetime, MassSpectrum, domain_of_dependence, translation

SUITE_NAMES = ("ccr", "gauge", "rce", "state", "observables", "classify")

DEFAULT_TOLERANCES = {
    "ccr.relations": 1e-12,
    "ccr.associativity": 1e-10,
    "gauge.homomorphism": 1e-11,
    "gauge.naturality_exact": 0.0,
    "gauge.naturality_float": 1e-13,
    "gauge.membership": 1e-10,
    "rce.symplectic": 1e-10,
    "rce.intertwine": 1e-9,
    "rce.localization": 1e-10,
    "rce.skew_adjoint": 1e-8,
    "rce.ell_invariance": 1e-9,
    "state.positivity": 1e-9,
    "state.invariance": 1e-10,
    "state.one_point": 1e-10,
    "observables.invariance": 1e-10,
    "observables.mixing_min": 1e-3,
    "observables.central": 1e-12,
    "classify.soundness": 1e-8,
}

# the checks that hold a value above their threshold (Recorder.above); all
# others hold a residual below it
LOWER_BOUNDS = frozenset({"mass_mixing_residual", "central_moved_by_rotations",
                          "ell_deviation_mass_kind"})

# A central element must move by more than this under the orthogonal factor.
CENTRAL_MOVED_MIN = 0.5

# A random perturbation fills PERT_ROWS slices from slice PERT_FIRST or later
# with Gaussian couplings of standard deviation PERT_SCALE; a gauge-suite
# diamond has its base on slice DIAMOND_SLICE or later and spans
# DIAMOND_LENGTH to n_sites - 2 sites.
PERT_FIRST, PERT_ROWS, PERT_SCALE = 3, 3, 0.4
DIAMOND_SLICE, DIAMOND_LENGTH = 3, 3

# the smallest (n_sites, n_steps) on which each suite's draws fit; the gauge
# suite also smears fields with test functions, and the classifier's
# soundness perturbation needs a slice between the clean first and last
MIN_LATTICE = {
    "rce": (0, PERT_FIRST + PERT_ROWS - 1),
    "classify": (0, 2),
    "gauge": (DIAMOND_LENGTH + 2,
              max(DIAMOND_SLICE, dyn.TEST_FUNCTION_MIN_STEPS)),
}


@dataclass
class RunConfig:
    spectrum: str
    n_sites: int = 8
    n_steps: int = 16
    dt: float = 0.5
    seed: int = 0
    suite: str = "all"
    tolerances: dict = dc_field(default_factory=dict)

    def tol(self, key: str) -> float:
        if key in self.tolerances:
            return self.tolerances[key]
        return DEFAULT_TOLERANCES[key]

    def spacetime(self) -> LatticeSpacetime:
        try:
            return LatticeSpacetime(self.n_sites, self.n_steps, self.dt,
                                    MassSpectrum.parse(self.spectrum))
        except LcqftError as exc:
            raise ConfigParse(str(exc)) from exc

    def check(self, names: list[str]):
        """Raise ConfigParse unless every named suite can run as configured."""
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigParse(f"unknown tolerance {', '.join(unknown)}")
        bad = [key for key, value in sorted(self.tolerances.items())
               if not 0.0 <= value < math.inf]
        if bad:
            raise ConfigParse(
                f"tolerance {', '.join(bad)} must be finite and >= 0")
        st = self.spacetime()
        for name in names:
            sites, steps = MIN_LATTICE.get(name, (0, 0))
            if st.n_sites < sites:
                raise ConfigParse(f"suite {name} needs n_sites >= {sites}")
            if st.n_steps < steps:
                raise ConfigParse(f"suite {name} needs n_steps >= {steps}")
        if "classify" in names:
            check_budget(st)


class Recorder:
    """Collects named residual checks for one suite."""

    def __init__(self):
        self.residuals: dict[str, float] = {}
        self.thresholds: dict[str, float] = {}
        self.dimensions: dict[str, int] = {}
        self.findings: list[str] = []
        self.failures: list[str] = []

    def below(self, name: str, value: float, threshold: float):
        self.residuals[name] = float(value)
        self.thresholds[name] = float(threshold)
        if not value <= threshold:
            self.failures.append(
                f"{name}: residual {value:.3e} exceeds {threshold:.1e}")

    def above(self, name: str, value: float, threshold: float):
        if name not in LOWER_BOUNDS:
            raise ValueError(f"{name} is not in LOWER_BOUNDS")
        self.residuals[name] = float(value)
        self.thresholds[name] = float(threshold)
        if not value > threshold:
            self.failures.append(
                f"{name}: value {value:.3e} not above {threshold:.1e}")

    def equals(self, name: str, actual, expected):
        self.dimensions[name] = actual
        if actual != expected:
            self.failures.append(f"{name}: {actual} != expected {expected}")

    def note(self, text: str):
        self.findings.append(text)

    def result(self, name: str, seconds: float) -> dict:
        return {
            "name": name,
            "status": "pass" if not self.failures else "fail",
            "residuals": self.residuals,
            "thresholds": self.thresholds,
            "dimensions": self.dimensions,
            "findings": self.findings + self.failures,
            "timings": {"seconds": seconds},
        }


def margin(name: str, value: float, threshold: float) -> float:
    """How far a check lies inside its bound, in decades: log10(threshold /
    value) for a residual held below its threshold, log10(value /
    threshold) for a lower bound; +inf where the residual or the bound is an
    exact zero that holds, negative when the check fails."""
    small, big = (threshold, value) if name in LOWER_BOUNDS \
        else (value, threshold)
    if math.isnan(value) or big <= 0.0 < small:
        return -math.inf
    return math.inf if small == 0.0 else math.log10(big / small)


def _rng(config: RunConfig, suite_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(suite_index,))
    return np.random.Generator(np.random.Philox(seq))


def _random_data(rng, st: LatticeSpacetime, n: int,
                 integer: bool = False) -> np.ndarray:
    """n complex data vectors (n, dim), each drawn as the real and imaginary
    parts of its q and p: standard normal in the order q_re, q_im, p_re,
    p_im, or integers in [-3, 3] in the order q_re, p_re, q_im, p_im."""
    half = st.data_dim // 2
    if integer:
        q_re, p_re, q_im, p_im = np.moveaxis(
            rng.integers(-3, 4, size=(n, 4, half)), 1, 0)
    else:
        q_re, q_im, p_re, p_im = np.moveaxis(
            rng.standard_normal((n, 4, half)), 1, 0)
    return np.concatenate([q_re + 1j * q_im, p_re + 1j * p_im], axis=-1)


def _random_perturbation(rng, st: LatticeSpacetime, kind: str = "mass"
                         ) -> dyn.Perturbation:
    T1, N = st.n_slices, st.n_sites
    v = np.zeros((T1, N))
    t0 = PERT_FIRST + int(rng.integers(0, max(1, st.n_steps - 8)))
    width = int(rng.integers(2, max(3, N // 2)))
    x0 = int(rng.integers(0, N))
    cols = [(x0 + j) % N for j in range(width)]
    v[t0:t0 + PERT_ROWS][:, cols] = \
        PERT_SCALE * rng.standard_normal((PERT_ROWS, width))
    v[0] = 0.0
    v[-1] = 0.0
    return dyn.Perturbation(st, v, kind=kind)


# -- suites ------------------------------------------------------------------------


def ccr_suite(config: RunConfig) -> dict:
    t0 = time.perf_counter()
    rec = Recorder()
    st = config.spacetime()
    rng = _rng(config, 0)

    # 200 draws, taken and checked in batches whose field products expand
    # about alg.CHUNK_TERMS terms, one pass of the kernel
    group = max(1, alg.CHUNK_TERMS // st.data_dim ** 2)
    half = st.data_dim // 2
    worst = 0.0
    for start in range(0, 200, group):
        u, v, lams = (np.array(x) for x in zip(*[
            (*_random_data(rng, st, 2),
             complex(rng.standard_normal(), rng.standard_normal()))
            for _ in range(min(group, 200 - start))]))
        phi, psi = alg.fields(st, u), alg.fields(st, v)
        sigma = np.sum(u[:, :half] * v[:, half:], axis=1) \
            - np.sum(v[:, :half] * u[:, half:], axis=1)
        # commutation relation, read off each element's own terms with no
        # merge: its unit coefficient against its own i sigma, every other
        # coefficient against zero
        comm = alg.commutator(phi, psi)
        unit = comm.term_degrees() == 0
        got = np.zeros(len(lams), complex)
        got[comm.tags[unit]] = comm.coeffs[unit]
        worst = max(
            worst,
            # linearity of the field injection
            alg.max_coeff_diff(alg.fields(st, u + lams[:, None] * v),
                               phi + psi.scale(lams)),
            # star relation
            alg.max_coeff_diff(phi.star(), alg.fields(st, u.conj())),
            float(np.max(np.abs(got - 1j * sigma))),
            float(np.max(np.abs(comm.coeffs[~unit]), initial=0.0)))
    rec.below("ccr_relations", worst, config.tol("ccr.relations"))

    # the float products of 50 triples in one batch; the exact oracle one
    # triple at a time
    triples = [[alg.random_element(rng, st, 3, 4, integer=True)
                for _ in range(3)] for _ in range(50)]
    a, b, c = (alg.stack(list(factor)) for factor in zip(*triples))
    f_lefts, f_rights = (a * b) * c, a * (b * c)
    worst = alg.max_coeff_diff(f_lefts, f_rights)
    for triple, f_left, f_right in zip(triples, f_lefts.elements(),
                                       f_rights.elements()):
        ex = [exact.exact_from_complex_terms(t.terms) for t in triple]
        e_left = exact.exact_product(exact.exact_product(ex[0], ex[1], half),
                                     ex[2], half)
        e_right = exact.exact_product(ex[0],
                                      exact.exact_product(ex[1], ex[2], half),
                                      half)
        if e_left != e_right:
            rec.failures.append("exact oracle associativity violated")
        worst = max(worst,
                    exact.max_diff_vs_float(e_left, f_left.terms),
                    exact.max_diff_vs_float(e_right, f_right.terms))
    rec.below("associativity_vs_exact_oracle", worst,
              config.tol("ccr.associativity"))
    return rec.result("ccr", time.perf_counter() - t0)


def _signed_permutation_gauge(rng, spectrum: MassSpectrum) -> gg.GaugeElement:
    blocks = []
    for _, k in spectrum.entries:
        perm = rng.permutation(k)
        R = np.zeros((k, k))
        R[perm, np.arange(k)] = rng.integers(0, 2, size=k) * 2 - 1
        blocks.append(R)
    return gg.GaugeElement(spectrum, tuple(blocks),
                           np.zeros(spectrum.massless_count))


def _move_maps(st: LatticeSpacetime) -> np.ndarray:
    """The species maps (n, dim, dim) on data vectors of the presentation's
    rotation generators, then of its block reflections."""
    pres = gg.presentation(st)
    R = np.concatenate([pres.generators]
                       + [[r.g.species_matrix()] for r in pres.reflections])
    return gg.species_action(st, R[:, None], np.eye(st.data_dim)).swapaxes(1, 2)


def gauge_suite(config: RunConfig) -> dict:
    t0 = time.perf_counter()
    rec = Recorder()
    st = config.spacetime()
    rng = _rng(config, 1)
    spectrum = st.spectrum

    # homomorphism law zeta(g) zeta(h) = zeta(g . h) on 100 draws: the slot
    # maps of all 300 actions in one stack, each side one batch
    gs, hs, xs = [], [], []
    for i in range(100):
        gs.append(gg.random_gauge(rng, spectrum))
        hs.append(gg.random_gauge(rng, spectrum))
        xs.append(alg.random_element(rng, st, 2, 4) if i % 10 == 0
                  else alg.fields(st, _random_data(rng, st, 1)))
    slots = gg.action_slot_maps(
        st, gs + hs + [gg.group_compose(g, h) for g, h in zip(gs, hs)])
    x = alg.stack(xs)
    lhs = alg.substitute_affine(alg.substitute_affine(x, slots[100:200]),
                                slots[:100])
    rhs = alg.substitute_affine(x, slots[200:])
    rec.below("homomorphism_law", alg.max_coeff_diff(lhs, rhs),
              config.tol("gauge.homomorphism"))

    # naturality under translations, one per draw (with one gauge element
    # per draw on random data); each side is one batch
    def naturality(x: alg.AlgebraElement, acts: alg.SlotMap, moves) -> float:
        lifted = alg.lift(st, np.array([kin.solution_map(translation(
            st, dt_steps, dx)) for dt_steps, dx in moves]))
        return alg.max_coeff_diff(alg.substitute_affine(lifted(x), acts),
                                  lifted(alg.substitute_affine(x, acts)))

    # every translation, exact on integer data: a shift would sum entries of T
    moves = [(dt_steps, dx) for dx in range(st.n_sites)
             for dt_steps in (0, 1, 2, -1)]
    act = gg.action_slot_maps(st, [_signed_permutation_gauge(rng, spectrum)])
    rec.below("naturality_translations_exact", naturality(
        alg.fields(st, _random_data(rng, st, len(moves), integer=True)),
        act[0], moves),
        config.tol("gauge.naturality_exact"))

    gs, moves, phis = [], [], []
    for _ in range(20):
        gs.append(gg.random_gauge(rng, spectrum))
        dx = int(rng.integers(0, st.n_sites))
        moves.append((int(rng.integers(-2, 3)), dx))
        phis.append(_random_data(rng, st, 1)[0])
    rec.below("naturality_translations_float", naturality(
        alg.fields(st, phis), gg.action_slot_maps(st, gs), moves),
        config.tol("gauge.naturality_float"))

    # kinematic diamond subalgebras are mapped into themselves: each move's
    # linear part (shifts have none) keeps the diamond's solution space
    maps = _move_maps(st)
    worst = 0.0
    for d in range(5):
        base_slice = DIAMOND_SLICE + int(rng.integers(0, max(1, st.n_steps - 6)))
        length = int(rng.integers(DIAMOND_LENGTH, st.n_sites - 1))
        start = int(rng.integers(0, st.n_sites))
        region = domain_of_dependence(base_slice, start, length, st)
        basis = kin.region_solution_basis(region)
        if basis.shape[1] == 0:
            rec.note(f"diamond {d} produced an empty solution subspace")
            continue
        worst = max(worst, kin.membership_residual(maps, basis))
    rec.below("kinematic_membership", worst, config.tol("gauge.membership"))

    # multiplets: a species field's orbit spans its mass block (and the unit)
    dims = gg.multiplet_dimensions(st)
    for (mass, mult), dim in zip(spectrum.entries, dims):
        rec.equals(f"multiplet_mass_{mass:g}", dim,
                   mult + 1 if mass == 0.0 else mult)
    rec.note("multiplets: one field per mass block, closed under the gauge "
             "presentation, spans nu(m) fields; on the massless block the "
             "shifts add the unit, giving nu(0) + 1")
    return rec.result("gauge", time.perf_counter() - t0)


def rce_suite(config: RunConfig) -> dict:
    t0 = time.perf_counter()
    rec = Recorder()
    st = config.spacetime()
    rng = _rng(config, 2)
    spectrum = st.spectrum

    # one dense map rce[v] per perturbation, read by the symplectic,
    # intertwining and charge checks
    perts = [_random_perturbation(rng, st) for _ in range(3)]
    maps = [dyn.rce_matrix(pert) for pert in perts]

    J = dyn.symplectic_matrix(st)
    rec.below("symplectic_preservation",
              max(float(np.max(np.abs(M.T @ J @ M - J))) for M in maps),
              config.tol("rce.symplectic"))

    # intertwining with the orthogonal gauge factor: the lifted map commutes
    # with every rotation and reflection move of the presentation
    pres = gg.presentation(st)

    def intertwining_defect(lifted, x, shifts: bool) -> float:
        pairs = zip(pres.moves(x, shifts), pres.moves(lifted(x), shifts))
        return max(alg.max_coeff_diff(lifted(moved), moved_lifted)
                   for moved, moved_lifted in pairs)

    worst = 0.0
    for M in maps:
        lifted = alg.lift(st, M)
        for _ in range(3):
            x = alg.random_element(rng, st, 2, 3)
            worst = max(worst, intertwining_defect(lifted, x, shifts=False))
    rec.below("intertwining", worst, config.tol("rce.intertwine"))

    # for gradient-kind perturbations the full group intertwines and the
    # massless charges <e_j, .> are conserved, as rows: ells M_g = ells
    if spectrum.massless_count:
        ells = gg.shift_functionals(st)
        worst = 0.0
        worst_ell = 0.0
        for _ in range(3):
            M_g = dyn.rce_matrix(_random_perturbation(rng, st, kind="gradient"))
            lifted = alg.lift(st, M_g)
            for _ in range(3):
                x = alg.random_element(rng, st, 2, 3)
                worst = max(worst, intertwining_defect(lifted, x, shifts=True))
            worst_ell = max(worst_ell,
                            float(np.max(np.abs(ells @ M_g - ells))))
        rec.below("intertwining_full_group_gradient", worst,
                  config.tol("rce.intertwine"))
        rec.below("ell_invariance_gradient", worst_ell,
                  config.tol("rce.ell_invariance"))
        # the mass-kind perturbation genuinely breaks the shift identity
        u = obs.in_species(st, [np.ones(st.n_sites), np.zeros(st.n_sites)],
                           spectrum.block_slice(0.0).start)  # unit constant
        dev = abs(ells.sum(0) @ (maps[0] @ u - u))
        rec.above("ell_deviation_mass_kind", dev,
                  config.tol("rce.ell_invariance"))
        rec.note("mass-kind perturbations shift the massless charge "
                 "functional; the invariance identity needs gradient-kind "
                 "perturbations")

    # localization: causally disjoint data, every unit vector of a window,
    # is untouched. Needs a wide enough circle; scan for a collision-free
    # lattice size for this spectrum, the configured one included.
    st_loc = None
    for n_loc in range(max(18, st.n_sites), max(40, st.n_sites + 1)):
        try:
            st_loc = LatticeSpacetime(n_loc, 12, st.dt, spectrum)
            break
        except LcqftError:
            continue
    if st_loc is None:
        rec.note("no collision-free wide lattice found: localization skipped")
    else:
        n_loc = st_loc.n_sites
        v = np.zeros((st_loc.n_slices, n_loc))
        v[4:7, 0:2] = 1.1
        pert_loc = dyn.Perturbation(st_loc, v)
        window = np.zeros((2, st_loc.n_species, n_loc), dtype=bool)
        window[..., 9:12] = True
        q, p = dyn.data_from_vec(st_loc, np.eye(window.size)[window.ravel()])
        moved = dyn.rce_data(q, p, pert_loc)
        worst = max(float(np.max(np.abs(new - old)))
                    for new, old in zip(moved, (q, p)))
        rec.below("localization", worst, config.tol("rce.localization"))
        rec.dimensions["localization_sites"] = n_loc

    # the derivative F[v] is symplectically skew-adjoint, F^T J + J F = 0:
    # its pairing sigma(F a, b) is symmetric in (a, b)
    rec.below("derivative_skew_adjoint",
              max(float(np.max(np.abs(F.T @ J + J @ F)))
                  for F in map(dyn.rce_derivative_matrix, perts)),
              config.tol("rce.skew_adjoint"))
    return rec.result("rce", time.perf_counter() - t0)


def state_suite(config: RunConfig) -> dict:
    t0 = time.perf_counter()
    rec = Recorder()
    st = config.spacetime()
    spectrum = st.spectrum
    vac = stt.vacuum_state(st)
    if vac.flags:
        rec.note("state flags: " + ", ".join(vac.flags))

    # positive on the whole algebra iff W = mu + (i/2) sigma >= 0
    W = vac.two_point
    rec.below("positivity_defect", max(0.0, -np.linalg.eigvalsh(W)[0]),
              config.tol("state.positivity"))

    # invariant iff X^T mu + mu X = 0 for the species map X of each
    # generator and X^T mu X = mu for each block reflection; X is skew,
    # resp. orthogonal, so both say that X commutes with mu
    mu = vac.mu
    worst = max(float(np.max(np.abs(mu @ X - X @ mu))) for X in _move_maps(st))
    rec.below("vacuum_gauge_invariance", worst, config.tol("state.invariance"))

    # the one-point function is linear: read it on the basis fields
    basis = alg.fields(st, np.eye(st.data_dim))
    if spectrum.massless_count:
        # shifted along e_j, it is the shift functional <e_j, .>
        worst = 0.0
        for ell, expected in zip(np.eye(spectrum.massless_count),
                                 gg.shift_functionals(st)):
            g = gg.GaugeElement(
                spectrum, tuple(np.eye(k) for _, k in spectrum.entries), ell)
            moved = gg.QuantumAction(g, st)(basis).elements()
            worst = max(worst, *(abs(vac.evaluate(x) - value)
                                 for x, value in zip(moved, expected)))
        rec.below("one_point_after_shift", worst, config.tol("state.one_point"))
    else:
        worst = max(abs(vac.evaluate(x)) for x in basis.elements())
        rec.below("one_point_vanishes", worst, config.tol("state.one_point"))
    return rec.result("state", time.perf_counter() - t0)


def _random_charge_zero_scalar(rng, st: LatticeSpacetime, massless: bool
                               ) -> np.ndarray:
    """Single-species data (2, N), rows q and p, charge zero if massless."""
    N = st.n_sites
    q = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    p = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    if massless:
        p = p - np.mean(p)
    return np.array([q, p])


def observables_suite(config: RunConfig) -> dict:
    t0 = time.perf_counter()
    rec = Recorder()
    st = config.spacetime()
    rng = _rng(config, 4)
    spectrum = st.spectrum

    generators = []
    worst = 0.0
    for mass, _ in spectrum.entries:
        for _ in range(4):
            phi = _random_charge_zero_scalar(rng, st, mass == 0.0)
            psi = _random_charge_zero_scalar(rng, st, mass == 0.0)
            gen = obs.bilinear_generator(st, mass, phi, psi)
            generators.append(gen)
            worst = max(worst, obs.invariant_projection_check(gen))
    # closure: products of generators stay invariant
    for _ in range(5):
        i, j = rng.integers(0, len(generators), size=2)
        worst = max(worst, obs.invariant_projection_check(
            generators[i] * generators[j]))
    rec.below("bilinear_invariance", worst, config.tol("observables.invariance"))

    if len(spectrum.entries) >= 2:
        (m1, _), (m2, _) = spectrum.entries[0], spectrum.entries[1]
        s1 = spectrum.block_slice(m1).start
        s2 = spectrum.block_slice(m2).start
        worst_mix = np.inf
        for _ in range(5):
            phi = _random_charge_zero_scalar(rng, st, m1 == 0.0)
            psi = _random_charge_zero_scalar(rng, st, m2 == 0.0)
            mixed = alg.fields(st, obs.in_species(st, phi, s1)) \
                * alg.fields(st, obs.in_species(st, psi, s2))
            worst_mix = min(worst_mix, obs.invariant_projection_check(mixed))
        rec.above("mass_mixing_residual", worst_mix,
                  config.tol("observables.mixing_min"))
    else:
        rec.note("single mass sector: no mass-mixing check")

    if spectrum.massless_count:
        worst = 0.0
        moved = 0.0
        central = obs.central_elements(st)
        for entry in central:
            chi_el = entry["element"]
            for gen in generators[:10]:
                worst = max(worst, alg.max_coeff_diff(
                    alg.commutator(chi_el, gen), alg.zero(st)))
            # fixed by every affine shift: <l, chi> = 0
            for j in range(spectrum.massless_count):
                worst = max(worst, obs.affine_derivative(chi_el, j).max_abs())
            # moved by the orthogonal factor
            g = gg.GaugeElement(
                spectrum,
                tuple(-np.eye(k) if mass == 0.0 else np.eye(k)
                      for mass, k in spectrum.entries),
                np.zeros(spectrum.massless_count))
            moved = max(moved, alg.max_coeff_diff(
                gg.QuantumAction(g, st)(chi_el), chi_el))
            rec.note(f"central element (species {entry['species']}): "
                     + entry["flag"])
        rec.below("central_commutators", worst, config.tol("observables.central"))
        rec.above("central_moved_by_rotations", moved, CENTRAL_MOVED_MIN)
    else:
        rec.note("no massless species: no central elements on this spectrum")
    return rec.result("observables", time.perf_counter() - t0)


def classify_checks(reports, config: RunConfig) -> Recorder:
    """The pass/fail rule of the classify suite and `lcqft classify`, over
    classifier reports read once in order: the last one's dimension and
    affine factor, every report's dimension and worst checked residual."""
    rec = Recorder()
    dims, worst = [], dict.fromkeys(CHECKED_RESIDUALS, 0.0)
    for report in reports:
        dims.append(report["dimension"])
        for key in worst:    # np.maximum keeps a NaN, which then fails
            worst[key] = np.maximum(worst[key], report["residuals"][key])
    rec.equals("dimension", dims[-1], report["expected"])
    rec.equals("dimension_stable_over_seeds", len(set(dims)), 1)
    rec.equals("match", report["match"], True)
    rec.dimensions["zero_mode_dimension"] = report["zero_mode_dimension"]
    rec.dimensions["commutant_dimension"] = report["commutant_dimension"]
    affine = report["affine"]
    rec.equals("affine_dimension", affine["dimension"], affine["expected"])
    for key, value in worst.items():
        rec.below(key, value, config.tol("classify.soundness"))
    rec.below("affine_shift_angle", affine["residual"], AFFINE_TOL)
    for line in report["findings"]:
        rec.note(line)
    return rec


def classify_suite(config: RunConfig) -> dict:
    t0 = time.perf_counter()
    st = config.spacetime()
    reports = (classify(st, seed=config.seed + seed) for seed in range(5))
    return classify_checks(reports, config).result(
        "classify", time.perf_counter() - t0)


SUITE_FUNCS = {
    "ccr": ccr_suite,
    "gauge": gauge_suite,
    "rce": rce_suite,
    "state": state_suite,
    "observables": observables_suite,
    "classify": classify_suite,
}

# canonical configurations with committed golden reports
GOLDEN_CONFIGS = [
    ("massive-all", dict(spectrum="1:2", n_sites=8, n_steps=16,
                         dt=0.5, seed=7, suite="all")),
    ("massless-all", dict(spectrum="0:1,1:2", n_sites=8, n_steps=16,
                          dt=0.5, seed=11, suite="all")),
    ("two-block-classify", dict(spectrum="1:2,2:3", n_sites=8,
                                n_steps=16, dt=0.5, seed=3,
                                suite="classify")),
]


def _take(queue: int, parent: int | None = None):
    """Indices off the queue until it is empty or `parent` is gone."""
    while parent is None or os.getppid() == parent:
        index = os.read(queue, 1)
        if not index:
            return
        yield index[0]


def _lane(config: RunConfig, names: list[str], indices, queue: int, send):
    """Run the suites at `indices`, sending each (index, (ok, result or
    exception)). After an exception the lane empties the queue: every suite
    left there comes later in the report."""
    for i in indices:
        try:
            outcome = (True, SUITE_FUNCS[names[i]](config))
        except Exception as exc:
            outcome = (False, exc)
        send((i, outcome))
        if not outcome[0]:
            while os.read(queue, 256):
                pass
            return


def _run_lanes(config: RunConfig, names: list[str]) -> list[dict]:
    """The named suites' results, in order, from one lane per usable CPU and
    suite. This process is lane 0 and runs the first suite; forked workers,
    and then lane 0, take the next index off a pipe. Workers send back
    pickled outcomes, never print, leave through os._exit and are reaped
    here (killed first on an error). The first exception in suite order is
    raised, as a serial run raises it."""
    lanes = min(len(os.sched_getaffinity(0)), len(names)) \
        if hasattr(os, "sched_getaffinity") else 1
    queue, feed = os.pipe()
    os.write(feed, bytes(range(1, len(names))))
    os.close(feed)
    parent, pids, streams, outcomes = os.getpid(), [], [], {}
    try:
        for _ in range(lanes - 1):
            fd, out = os.pipe()
            streams.append(open(fd, "rb"))
            try:  # a spawned worker would import numpy and lcqft again
                pid = os.fork()
            except OSError:  # no process to spare: lane 0 does the rest
                os.close(out)
                break
            if pid == 0:
                try:
                    with open(out, "wb") as fh:
                        def send(outcome):
                            fh.write(pickle.dumps(outcome))
                            fh.flush()
                        _lane(config, names, _take(queue, parent), queue, send)
                finally:
                    os._exit(0)
            os.close(out)
            pids.append(pid)
        _lane(config, names, itertools.chain([0], _take(queue)), queue,
              lambda outcome: outcomes.update([outcome]))
        for fh in streams:
            with contextlib.suppress(Exception):  # at EOF or a cut-off send
                while True:
                    outcomes.update([pickle.load(fh)])
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids:
            with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored
                os.waitpid(pid, 0)
        for fh in streams:
            fh.close()
        os.close(queue)
    for i, name in enumerate(names):
        ok, value = outcomes.get(i, (False, None))
        if not ok:
            raise value or LcqftError(f"suite {name} ended without a result")
    return [outcomes[i][1] for i in range(len(names))]


def run_suite(config: RunConfig) -> dict:
    """Execute the selected suites and assemble the versioned report."""
    if config.suite == "all":
        names = list(SUITE_NAMES)
    elif config.suite in SUITE_FUNCS:
        names = [config.suite]
    else:
        raise ConfigParse(
            f"unknown suite {config.suite!r}; choose from "
            f"{', '.join(SUITE_NAMES)} or all")
    config.check(names)  # before any suite runs

    results = _run_lanes(config, names)

    status = "pass" if all(r["status"] == "pass" for r in results) else "fail"
    return {
        "schema": "lcqft-report/1",
        "version": __version__,
        "seed": config.seed,
        "config": {
            "spectrum": config.spectrum,
            "n_sites": config.n_sites,
            "n_steps": config.n_steps,
            "dt": config.dt,
            "seed": config.seed,
            "suite": config.suite,
            "tolerances": dict(config.tolerances),
        },
        "suites": results,
        "status": status,
    }
