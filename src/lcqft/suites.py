"""Verification suites and the report runner.

Each suite exercises one structural layer at its frozen tolerances and
reports residuals; the runner assembles the versioned JSON report.

Every whole-group property (naturality, vacuum invariance, rce
intertwining, diamond membership, observables, multiplets) is checked on the
one exact presentation of `gauge.presentation`; random group elements
appear only in the gauge suite's homomorphism check, which tests the group
law itself. The linear identities are read off matrices, as a
*-homomorphism is fixed by its map on the fields: naturality off the
solution maps of the translation group's two generators, rce intertwining
off the dense maps of rce[v], vacuum invariance off the two-point kernel,
each commuting with the species maps of the presentation
(`gauge.Presentation.defect`); diamond membership off those species maps;
the observables off their symmetric forms (`observables`). The rce and
observables suites build no algebra element.

Suites run in order in one process. Each draws randomness from its own
counter-based stream derived from the master seed, so a suite's result is
the same in `verify all` as alone, and a report is byte-identical across
reruns on one build and BLAS thread count (timings aside). Across
machines the contract (statuses, dimensions, thresholds, findings, exact
checks) is identical and the roundoff-floor residuals agree within the band
of `serialize.golden_mismatches`.
"""
from __future__ import annotations

import math
import os
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

# each pair of the ccr suite and of the gauge suite's Leibniz check lives on
# this many sites that the two share (`_shared_support`)
LEIBNIZ_SITES = 2

# the ccr suite takes its field pairs in batches whose products expand about
# this many terms (about 2 MiB); the algebra kernel merges each operation's
# terms at once, so this bounds the suite's working set
CCR_BATCH_TERMS = 1 << 15

# the smallest (n_sites, n_steps) on which each suite's draws fit; each gauge
# suite diamond keeps a slice inside [1, n_steps - 2], and the classifier's
# soundness perturbation needs a slice between the clean first and last
MIN_LATTICE = {
    "rce": (0, PERT_FIRST + PERT_ROWS - 1),
    "classify": (0, 2),
    "gauge": (DIAMOND_LENGTH + 2, DIAMOND_SLICE + 1),
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
        # sizes from the configured numbers, before the spacetime allocates
        # anything: the classifier's budget, then one complex (dim, dim) map
        try:
            n_species = MassSpectrum.parse(self.spectrum).total_species
        except LcqftError as exc:
            raise ConfigParse(str(exc)) from exc
        if "classify" in names:
            check_budget(self.n_sites, n_species)
        dim = 2 * n_species * max(self.n_sites, 0)
        try:  # no os.sysconf on Windows: a MemoryError refuses there
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):
            memory = math.inf
        if 16 * dim * dim > memory:
            raise ConfigParse(f"{self.n_sites} sites x {n_species} species: "
                              f"one complex {dim} x {dim} map exceeds "
                              "physical memory")
        st = self.spacetime()
        for name in names:
            sites, steps = MIN_LATTICE.get(name, (0, 0))
            if st.n_sites < sites:
                raise ConfigParse(f"suite {name} needs n_sites >= {sites}")
            if st.n_steps < steps:
                raise ConfigParse(f"suite {name} needs n_steps >= {steps}")


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


def _random_data(rng, st: LatticeSpacetime, n: int) -> np.ndarray:
    """n complex data vectors (n, dim), each drawn as the real and imaginary
    parts of its q and p, standard normal in the order q_re, q_im, p_re,
    p_im."""
    q_re, q_im, p_re, p_im = np.moveaxis(
        rng.standard_normal((n, 4, st.data_dim // 2)), 1, 0)
    return np.concatenate([q_re + 1j * q_im, p_re + 1j * p_im], axis=-1)


def _shared_support(rng, st: LatticeSpacetime) -> np.ndarray:
    """The basis indices of the q and p channels of every species at
    LEIBNIZ_SITES random sites: the support of one drawn pair, so its
    products contract as often, and expand as many terms, on any lattice."""
    N = st.n_sites
    sites = rng.choice(N, size=LEIBNIZ_SITES, replace=False)
    return (np.arange(2 * st.n_species)[:, None] * N + sites).ravel()


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

    # 200 pairs (u, v), each drawn on a shared support, so a commutator
    # expands width^2 terms at every N; taken and checked in batches whose
    # products expand about CCR_BATCH_TERMS terms
    width = 2 * st.n_species * LEIBNIZ_SITES
    group = max(1, CCR_BATCH_TERMS // width ** 2)
    half = st.data_dim // 2
    worst = 0.0
    for start in range(0, 200, group):
        n = min(group, 200 - start)
        u, v = np.zeros((2, n, st.data_dim), complex)
        lams = np.empty(n, complex)
        for i in range(n):
            support = _shared_support(rng, st)
            re, im = rng.standard_normal((2, 2, width))
            u[i, support], v[i, support] = re + 1j * im
            lams[i] = complex(rng.standard_normal(), rng.standard_normal())
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
    # triple at a time, from the drawn terms rather than the elements built
    # from them
    triples = [[alg.random_terms(rng, st, 3, 4, integer=True)
                for _ in range(3)] for _ in range(50)]
    a, b, c = (alg.stack([alg.AlgebraElement(st, t) for t in factor])
               for factor in zip(*triples))
    f_lefts, f_rights = (a * b) * c, a * (b * c)
    worst = alg.max_coeff_diff(f_lefts, f_rights)
    for triple, f_left, f_right in zip(triples, f_lefts.elements(),
                                       f_rights.elements()):
        ex = [exact.exact_from_complex_terms(t) for t in triple]
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


def _leibniz_defect(rng, st: LatticeSpacetime) -> float:
    """The moves act on the algebra: D(ab) = D(a) b + a D(b) for each
    rotation and shift derivation D and r(ab) = r(a) r(b) for each block
    reflection r, so products of invariants stay invariant. Checked on 20
    pairs (a_i, b_i) in one batch, each pair drawn on a shared support."""
    drawn = []
    for _ in range(20):
        support = _shared_support(rng, st)
        drawn += [alg.random_element(rng, st, 2, 4, support=support)
                  for _ in range(2)]
    a, b = alg.stack(drawn[::2]), alg.stack(drawn[1::2])
    ab, (derivations, reflections) = a * b, gg.presentation(st).algebra_slots
    r = alg.substitute_affine
    return max(
        [alg.max_coeff_diff(alg.derivation(ab, D), alg.derivation(a, D) * b
                            + a * alg.derivation(b, D)) for D in derivations]
        + [alg.max_coeff_diff(r(ab, R), r(a, R) * r(b, R))
           for R in reflections])


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

    # naturality zeta(g) A(psi) = A(psi) zeta(g) for every translation psi
    # iff its solution map T commutes with each move's species map (exactly,
    # as those only permute and negate entries) and ells T = ells; A(psi)
    # needs T symplectic, read relative to max(1, max|T|)^2, the rounding
    # scale of T^T J T. Such maps form a group and `solution_map` is a
    # functor, so the two generators, one time step and one site shift,
    # decide it for every translation
    pres = gg.presentation(st)
    ells, J = pres.shifts, dyn.symplectic_matrix(st)
    exact_worst = float_worst = 0.0
    for dt_steps, dx in ((1, 0), (0, 1)):
        T = kin.solution_map(translation(st, dt_steps, dx))
        exact_worst = max(exact_worst, pres.defect(T))
        float_worst = max(
            float_worst, float(np.max(np.abs(T.T @ J @ T - J)))
            / max(1.0, float(np.max(np.abs(T)))) ** 2,
            float(np.max(np.abs(ells @ T - ells), initial=0.0)))
    rec.below("naturality_translations_exact", exact_worst,
              config.tol("gauge.naturality_exact"))
    rec.below("naturality_translations_float", float_worst,
              config.tol("gauge.naturality_float"))

    # kinematic diamond subalgebras are mapped into themselves: each move's
    # linear part (shifts have none) keeps the diamond's solution space,
    # read off the images of its basis columns
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
        images = gg.species_action(st, pres.species[:, None], basis.T)
        worst = max(worst, kin.membership_residual(images.swapaxes(1, 2),
                                                   basis))
    rec.below("kinematic_membership", worst, config.tol("gauge.membership"))

    # drawn after the diamonds, so no earlier draw moves
    rec.below("leibniz_law", _leibniz_defect(rng, st),
              config.tol("gauge.homomorphism"))

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

    # intertwining with the orthogonal gauge factor: the lift of M commutes
    # with it iff M commutes with each move's species map
    pres = gg.presentation(st)
    rec.below("intertwining", max(map(pres.defect, maps)),
              config.tol("rce.intertwine"))

    # for gradient-kind perturbations the full group intertwines: M_g also
    # keeps the massless charges <e_j, .>, as rows ells M_g = ells
    if spectrum.massless_count:
        ells = pres.shifts
        worst = 0.0
        worst_ell = 0.0
        for _ in range(3):
            M_g = dyn.rce_matrix(_random_perturbation(rng, st, kind="gradient"))
            worst = max(worst, pres.defect(M_g))
            worst_ell = max(worst_ell,
                            float(np.max(np.abs(ells @ M_g - ells))))
        rec.below("intertwining_full_group_gradient", max(worst, worst_ell),
                  config.tol("rce.intertwine"))
        rec.below("ell_invariance_gradient", worst_ell,
                  config.tol("rce.ell_invariance"))
        # the mass-kind perturbation genuinely breaks the shift identity;
        # the charge it moves grows like dt, so it is read per unit time
        u = obs.in_species(st, [np.ones(st.n_sites), np.zeros(st.n_sites)],
                           spectrum.block_slice(0.0).start)  # unit constant
        dev = abs(ells.sum(0) @ (maps[0] @ u - u)) / st.dt
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
    rec.below("vacuum_gauge_invariance",
              gg.presentation(st).defect(vac.mu),
              config.tol("state.invariance"))

    # the one-point function is linear: read it on the basis fields
    basis = alg.fields(st, np.eye(st.data_dim))
    if spectrum.massless_count:
        # shifted along e_j, it is the shift functional <e_j, .>
        worst = 0.0
        for ell, expected in zip(np.eye(spectrum.massless_count),
                                 gg.shift_functionals(st)):
            g = gg.GaugeElement(spectrum, np.eye(st.n_species), ell)
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

    # each element is read off its symmetric form (`observables`), so no
    # algebra element is built; products of invariants stay invariant by
    # the Leibniz rule, which the gauge suite checks on the kernel
    forms = []
    for mass, _ in spectrum.entries:
        for _ in range(4):
            phi = _random_charge_zero_scalar(rng, st, mass == 0.0)
            psi = _random_charge_zero_scalar(rng, st, mass == 0.0)
            forms.append(obs.symmetric_form(
                *obs.bilinear_pairs(st, mass, phi, psi)))
    rec.below("bilinear_invariance",
              max(obs.form_residual(st, C) for C in forms),
              config.tol("observables.invariance"))

    if len(spectrum.entries) >= 2:
        (m1, _), (m2, _) = spectrum.entries[0], spectrum.entries[1]
        s1 = spectrum.block_slice(m1).start
        s2 = spectrum.block_slice(m2).start
        worst_mix = np.inf
        for _ in range(5):
            phi = _random_charge_zero_scalar(rng, st, m1 == 0.0)
            psi = _random_charge_zero_scalar(rng, st, m2 == 0.0)
            worst_mix = min(worst_mix, obs.form_residual(st, obs.symmetric_form(
                [obs.in_species(st, phi, s1)], [obs.in_species(st, psi, s2)])))
        rec.above("mass_mixing_residual", worst_mix,
                  config.tol("observables.mixing_min"))
    else:
        rec.note("single mass sector: no mass-mixing check")

    if spectrum.massless_count:
        worst = moved = 0.0
        # the orthogonal factor's -1 on the massless block
        g = gg.GaugeElement(spectrum, np.diag(np.where(
            np.array(spectrum.species_masses) == 0.0, -1.0, 1.0)),
            np.zeros(spectrum.massless_count))
        for entry in obs.central_elements(st):
            chi = entry["chi"]
            # commutes with the generators, and <l, chi> = 0 for every shift
            worst = max([worst, *(np.max(np.abs(obs.central_commutator(
                st, C, chi))) for C in forms[:10]),
                np.max(np.abs(gg.shift_functionals(st) @ chi))])
            moved = max(moved, float(np.max(np.abs(
                gg.classical_action(g, st, chi) - chi))))
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

    # looked up at call time: perfbench/child.py rebinds the entries
    results = [SUITE_FUNCS[name](config) for name in names]

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
