"""Tests of the benchmark's output checks: each check must be able to fail.

    python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402

SPECTRUM = checks.parse_spectrum("1:2,2:3")
N, DT = 4, 0.5
S = 5


def _species_map(A: np.ndarray) -> np.ndarray:
    """The species matrix A acting alike at every site, on both channels."""
    return np.kron(np.eye(2), np.kron(A, np.eye(N)))


def _rotation(s: int, t: int) -> np.ndarray:
    A = np.zeros((S, S))
    A[t, s], A[s, t] = 1.0, -1.0
    return A


def _problems(G: np.ndarray) -> list[str]:
    return checks.generator_set_problems([G], SPECTRUM, N, DT)


def test_in_block_rotations_pass():
    gens = [_species_map(_rotation(0, 1)), _species_map(_rotation(2, 4)),
            _species_map(_rotation(2, 3) + 0.5 * _rotation(3, 4))]
    assert checks.generator_set_problems(gens, SPECTRUM, N, DT) == []


def test_non_symplectic_generator_rejected():
    # symmetric in-block mixing: commutes with shift and step, not symplectic
    A = np.zeros((S, S))
    A[0, 1] = A[1, 0] = 1.0
    problems = _problems(_species_map(A))
    assert any("symplectic" in p for p in problems)
    assert not any("commutator" in p for p in problems)


def test_shift_breaking_generator_rejected():
    # a rotation whose angle depends on the site: symplectic, not translation
    # covariant
    G = np.kron(np.eye(2), np.kron(_rotation(0, 1), np.diag(np.arange(1.0, N + 1))))
    problems = _problems(G)
    assert any("shift_commutator" in p for p in problems)
    assert not any("symplectic" in p for p in problems)


def test_step_breaking_generator_rejected():
    # a rotation across mass blocks: symplectic and shift covariant, but it
    # does not commute with the evolution
    problems = _problems(_species_map(_rotation(1, 2)))
    assert any("step_commutator" in p for p in problems)
    assert not any("symplectic" in p or "shift" in p for p in problems)


def test_dependent_generators_rejected():
    G = _species_map(_rotation(0, 1))
    problems = checks.generator_set_problems([G, 2 * G], SPECTRUM, N, DT)
    assert any("rank" in p for p in problems)


def test_expected_counts():
    assert checks.expected_counts(checks.parse_spectrum("2:3,1:2"), 16) == {
        "dimension": 4, "commutant_dimension": 416,
        "zero_mode_dimension": 0, "affine_dimension": 0}
    assert checks.expected_counts(checks.parse_spectrum("0:2,1:1"), 8) == {
        "dimension": 1, "commutant_dimension": 80,
        "zero_mode_dimension": 8, "affine_dimension": 2}


def _classify_report() -> dict:
    gens = [_species_map(_rotation(0, 1)), _species_map(_rotation(2, 3)),
            _species_map(_rotation(2, 4)), _species_map(_rotation(3, 4))]
    return {"match": True, "dimension": 4, "expected": 4,
            "commutant_dimension": 2 * N * 13, "zero_mode_dimension": 0,
            "affine": {"dimension": 0, "residual": 0.0},
            "generators": [g.tolist() for g in gens]}


def test_classify_report_checks():
    assert checks.check_classify_report(_classify_report(), SPECTRUM, N, DT) == []
    for key, value in [("dimension", 5), ("commutant_dimension", 2 * N * 12),
                       ("match", False), ("expected", 3)]:
        bad = _classify_report()
        bad[key] = value
        assert checks.check_classify_report(bad, SPECTRUM, N, DT), key
    bad = _classify_report()
    bad["generators"].pop()
    assert any("generators" in p for p in
               checks.check_classify_report(bad, SPECTRUM, N, DT))


def _verify_report() -> dict:
    return {"status": "pass", "suites": [
        {"name": "observables", "status": "pass",
         "residuals": {"bilinear_invariance": 1e-14, "mass_mixing_residual": 2.0,
                       "ell_deviation_mass_kind": 0.9},
         "thresholds": {"bilinear_invariance": 1e-10, "mass_mixing_residual": 1e-3},
         "dimensions": {}},
        {"name": "classify", "status": "pass", "residuals": {}, "thresholds": {},
         "dimensions": {"dimension": 4, "commutant_dimension": 2 * N * 13,
                        "zero_mode_dimension": 0, "affine_dimension": 0}}]}


def test_verify_report_checks():
    names = ["observables", "classify"]
    assert checks.check_verify_report(_verify_report(), names, SPECTRUM, N) == []
    bad = _verify_report()
    bad["suites"][0]["residuals"]["bilinear_invariance"] = 1e-9
    assert checks.check_verify_report(bad, names, SPECTRUM, N)
    bad = _verify_report()
    bad["suites"][0]["residuals"]["mass_mixing_residual"] = 1e-3
    assert checks.check_verify_report(bad, names, SPECTRUM, N)
    bad = _verify_report()
    bad["suites"][1]["dimensions"]["dimension"] = 3
    assert checks.check_verify_report(bad, names, SPECTRUM, N)
    bad = _verify_report()
    bad["status"] = "fail"
    assert checks.check_verify_report(bad, names, SPECTRUM, N)
    assert checks.check_verify_report(_verify_report(), names[:1], SPECTRUM, N)


def test_step_matrix_matches_lcqft():
    """The independent Verlet step agrees with the program's one-step map."""
    from lcqft.dynamics import one_step_matrix
    from lcqft.spacetime import LatticeSpacetime, MassSpectrum

    st = LatticeSpacetime(N, 16, DT, MassSpectrum.parse("1:2,2:3"))
    assert np.allclose(checks.verlet_step_matrix(SPECTRUM, N, DT),
                       one_step_matrix(st), atol=1e-14)


def test_ccr_check_passes_on_lcqft():
    assert checks.ccr_problems(1, "0:1,1:2", 4, 16, 0.5, pairs=2) == []


def test_benchmark_json_matches_run():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name)
        for name in [*run.PER_LAYER, run.TRACE_WALL]}


def test_span_self_time():
    # outer 0..10 holds inner 1..3 and inner 4..8; the second holds leaf 5..6
    spans = [[0, 0.0, 10.0, -1, 0, 0], [1, 1.0, 3.0, 0, 2, 5],
             [1, 4.0, 8.0, 0, 3, 7], [2, 5.0, 6.0, 2, 0, 0]]
    totals = run.span_totals({"names": ["outer", "inner", "leaf"], "spans": spans})
    assert {k: v["self"] for k, v in totals.items()} == \
        {"outer": 4.0, "inner": 5.0, "leaf": 1.0}
    assert totals["inner"]["calls"] == 2
    assert (totals["inner"]["a"], totals["inner"]["b"]) == (5, 12)
