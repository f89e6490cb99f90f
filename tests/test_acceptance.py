"""Acceptance criteria, one test per criterion at its frozen tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
Tolerances are pinned here against the suite defaults, so a silent loosening
of a default fails acceptance.
"""
import json
import pathlib
import time

from lcqft import serialize
from lcqft.classify import CHECKED_RESIDUALS, classify
from lcqft.spacetime import LatticeSpacetime, MassSpectrum
from lcqft.suites import DEFAULT_TOLERANCES, RunConfig, run_suite

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "reports" / "golden"


def _report_line(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}  {detail}")


def _suite_result(report, name):
    return next(s for s in report["suites"] if s["name"] == name)


def _run(spectrum, suite, seed=0):
    config = RunConfig(spectrum=spectrum, n_sites=8, n_steps=16, dt=0.5,
                       seed=seed, suite=suite)
    t0 = time.perf_counter()
    report = run_suite(config)
    return report, time.perf_counter() - t0


def test_criterion_1_ccr_suite():
    assert DEFAULT_TOLERANCES["ccr.relations"] == 1e-12
    assert DEFAULT_TOLERANCES["ccr.associativity"] == 1e-10
    report, elapsed = _run("1:2", "ccr")
    suite = _suite_result(report, "ccr")
    passed = suite["status"] == "pass" and elapsed < 10.0
    _report_line(1, "CCR suite", passed,
                 f"relations={suite['residuals']['ccr_relations']:.2e} "
                 f"assoc={suite['residuals']['associativity_vs_exact_oracle']:.2e} "
                 f"runtime={elapsed:.1f}s")
    assert suite["status"] == "pass", suite["findings"]
    assert elapsed < 10.0


def test_criterion_2_gauge_suite():
    assert DEFAULT_TOLERANCES["gauge.homomorphism"] == 1e-11
    assert DEFAULT_TOLERANCES["gauge.naturality_exact"] == 0.0
    report, elapsed = _run("1:2", "gauge")
    suite = _suite_result(report, "gauge")
    passed = suite["status"] == "pass" and elapsed < 20.0
    _report_line(2, "gauge suite", passed,
                 f"hom={suite['residuals']['homomorphism_law']:.2e} "
                 f"naturality={suite['residuals']['naturality_translations_exact']:.1e} "
                 f"membership={suite['residuals']['kinematic_membership']:.2e} "
                 f"runtime={elapsed:.1f}s")
    assert suite["status"] == "pass", suite["findings"]
    assert elapsed < 20.0


def test_criterion_3_rce_suite():
    assert DEFAULT_TOLERANCES["rce.symplectic"] == 1e-10
    assert DEFAULT_TOLERANCES["rce.intertwine"] == 1e-9
    assert DEFAULT_TOLERANCES["rce.localization"] == 1e-10
    assert DEFAULT_TOLERANCES["rce.skew_adjoint"] == 1e-8
    report, elapsed = _run("0:1,1:2", "rce")
    suite = _suite_result(report, "rce")
    passed = suite["status"] == "pass" and elapsed < 30.0
    _report_line(3, "rce suite", passed,
                 f"sigma={suite['residuals']['symplectic_preservation']:.2e} "
                 f"intertwine={suite['residuals']['intertwining']:.2e} "
                 f"localization={suite['residuals']['localization']:.2e} "
                 f"skew={suite['residuals']['derivative_skew_adjoint']:.2e} "
                 f"runtime={elapsed:.1f}s")
    assert suite["status"] == "pass", suite["findings"]
    assert suite["thresholds"]["ell_deviation_mass_kind"] \
        == DEFAULT_TOLERANCES["rce.ell_invariance"]
    assert elapsed < 30.0


def test_criterion_4_classification():
    expected = {"1:1": 0, "1:2": 1, "1:2,2:3": 4, "1:3": 3}
    t0 = time.perf_counter()
    worst_soundness = 0.0
    details = []
    ok = True
    for spectrum, dim_expected in expected.items():
        st = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse(spectrum))
        dims = set()
        for seed in range(5):
            report = classify(st, seed=seed)
            dims.add(report["dimension"])
            for key in CHECKED_RESIDUALS:
                worst_soundness = max(worst_soundness,
                                      report["residuals"][key])
            ok = ok and report["match"]
        ok = ok and dims == {dim_expected}
        details.append(f"{spectrum}->{sorted(dims)}")
    elapsed = time.perf_counter() - t0
    ok = ok and worst_soundness < 1e-8 and elapsed < 120.0
    _report_line(4, "classification suite", ok,
                 f"{' '.join(details)} soundness={worst_soundness:.2e} "
                 f"runtime={elapsed:.1f}s")
    assert ok
    assert elapsed < 120.0


def test_criterion_5_state_suite():
    assert DEFAULT_TOLERANCES["state.positivity"] == 1e-9
    assert DEFAULT_TOLERANCES["state.invariance"] == 1e-10
    assert DEFAULT_TOLERANCES["state.one_point"] == 1e-10
    report, elapsed = _run("0:1,1:2", "state")
    suite = _suite_result(report, "state")
    passed = suite["status"] == "pass"
    _report_line(5, "state suite", passed,
                 f"positivity_defect={suite['residuals']['positivity_defect']:.2e} "
                 f"invariance={suite['residuals']['vacuum_gauge_invariance']:.2e} "
                 f"one_point={suite['residuals']['one_point_after_shift']:.2e} "
                 f"runtime={elapsed:.1f}s")
    assert passed, suite["findings"]


def test_criterion_6_observables_suite():
    assert DEFAULT_TOLERANCES["observables.invariance"] == 1e-10
    assert DEFAULT_TOLERANCES["observables.mixing_min"] == 1e-3
    assert DEFAULT_TOLERANCES["observables.central"] == 1e-12
    report, elapsed = _run("0:1,1:2", "observables")
    suite = _suite_result(report, "observables")
    flagged = any("central" in line for line in suite["findings"])
    passed = suite["status"] == "pass" and flagged
    _report_line(6, "observables suite", passed,
                 f"invariance={suite['residuals']['bilinear_invariance']:.2e} "
                 f"mixing={suite['residuals']['mass_mixing_residual']:.2e} "
                 f"central={suite['residuals']['central_commutators']:.2e} "
                 f"flagged={flagged} runtime={elapsed:.1f}s")
    assert suite["status"] == "pass", suite["findings"]
    assert flagged


def test_criterion_7_determinism_and_goldens():
    """Determinism within one build, goldens across builds.

    Two runs in one process must give byte-identical reports, measurements
    included. Against the committed goldens the contract must match byte for
    byte and each roundoff-floor residual must lie within the band of
    `serialize.golden_mismatches`, since its last bits depend on the BLAS
    kernel and thread count.
    """
    from lcqft.suites import GOLDEN_CONFIGS
    mismatches = []
    details = []
    fresh = {}
    for name, kwargs in GOLDEN_CONFIGS:
        fresh[name] = serialize.strip_timings(run_suite(RunConfig(**kwargs)))
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        lines = serialize.golden_mismatches(golden, fresh[name])
        mismatches += [f"{name} {line}" for line in lines]
        details.append(f"{name}:{'ok' if not lines else 'DIFF'}")
    name = "two-block-classify"  # the cheapest golden config, about 10 s
    rerun = serialize.strip_timings(
        run_suite(RunConfig(**dict(GOLDEN_CONFIGS)[name])))
    deterministic = serialize.dumps(rerun) == serialize.dumps(fresh[name])
    if not deterministic:
        mismatches.append(f"{name} rerun in the same process is not "
                          "byte-identical")
    details.append(f"rerun:{'ok' if deterministic else 'DIFF'}")
    _report_line(7, "determinism and golden reports", not mismatches,
                 " ".join(details))
    assert not mismatches, "\n".join(mismatches)
