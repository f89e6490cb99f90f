"""CLI: exit codes, report schema, determinism."""
import collections
import copy
import errno
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcqft import cli, serialize, suites
from lcqft.classify import CHECKED_RESIDUALS, classify
from lcqft.cli import main
from lcqft.spacetime import LatticeSpacetime, MassSpectrum
from lcqft.suites import (DEFAULT_TOLERANCES, GOLDEN_CONFIGS, RunConfig,
                          run_suite)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "reports" / "golden"


def _src_env(root: pathlib.Path) -> dict:
    """The environment of a child interpreter that imports lcqft from
    root/src ahead of any PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))

# classify report residuals that the suite and the CLI must hold to
# `classify.soundness`, spelled out so that dropping one from
# `classify.CHECKED_RESIDUALS` fails a test
CLASSIFY_CHECKS = ["soundness_sigma", "soundness_null_energy",
                   "soundness_rce_commute", "reflection_null_energy",
                   "so_representation"]


# report-like values: nested dicts with str keys, lists and tuples of str,
# int, bool, None and float (np.float64 too), rows of floats with an int or
# bool among them, and the float edge cases
_floats = st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from([-0.0, 1e16, 5e-324, 0.1, 1.0]) \
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
_leaves = st.none() | st.booleans() | st.integers() | st.text() | _floats
_rows = st.lists(_floats, min_size=1) \
    | st.lists(_floats | st.integers() | st.booleans())
_report_values = st.recursive(
    _leaves | _rows,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=20)


class TestSerializer:
    def test_float_formatting(self):
        # the shortest string that parses back to the same float
        assert serialize.dumps(0.1) == "0.1"
        assert serialize.dumps(1.0) == "1.0"
        assert serialize.dumps(2.220446049250313e-16) == "2.220446049250313e-16"
        assert serialize.dumps(3) == "3"
        assert serialize.dumps(True) == "true"
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                serialize.dumps(bad)

    def test_large_float_parses_back_as_float(self):
        back = json.loads(serialize.dumps(1e16))
        assert isinstance(back, float) and back == 1e16

    def test_sorted_keys(self):
        out = serialize.dumps({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')

    def test_valid_json(self):
        obj = {"x": [1.5, {"y": None, "z": "s\"tr"}], "w": False}
        assert json.loads(serialize.dumps(obj)) == obj

    def test_strip_timings(self):
        obj = {"timings": {"seconds": 1.0}, "keep": [{"timings": 2, "a": 1}]}
        assert serialize.strip_timings(obj) == {"keep": [{"a": 1}]}

    @settings(max_examples=100)
    @given(_report_values)
    def test_matches_the_standard_library(self, obj):
        assert serialize.dumps(obj) == json.dumps(
            obj, indent=2, sort_keys=True, allow_nan=False, ensure_ascii=False)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     np.float64("nan")])
    @pytest.mark.parametrize("place", [
        lambda x: x, lambda x: [0.5, x], lambda x: [1, x], lambda x: (x, 2.0),
        lambda x: {"a": [{"b": [[1.0, x]]}]}, lambda x: {"a": "s", "b": x}])
    def test_non_finite_float_anywhere_raises(self, bad, place):
        with pytest.raises(ValueError):
            serialize.dumps(place(bad))

    @pytest.mark.parametrize("arr", [
        np.array([[0.1, -0.0], [5e-324, 1e16]]),
        np.array([[[1e-7, 2.5, -0.0]], [[1e16, 5e-324, 3.0]]]),    # a stack
        np.arange(6.0).reshape(2, 3) * 1e-7,
        np.array([[1, 2], [3, 4]]), np.array([True, False]),
        np.empty(0), np.empty((0, 3)), np.empty((2, 0)), np.empty((2, 0, 3)),
        np.array(0.25),
    ])
    def test_array_written_as_its_tolist(self, arr):
        # rows are converted one at a time, to the bytes of the nested list
        want = json.dumps(arr.tolist(), indent=2, sort_keys=True,
                          allow_nan=False, ensure_ascii=False)
        assert serialize.dumps(arr) == serialize.dumps(arr.tolist()) == want
        obj = {"g": [arr, arr.T], "x": 1.5}
        assert serialize.dumps(obj) == serialize.dumps(
            {"g": [arr.tolist(), arr.T.tolist()], "x": 1.5})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_entry_raises_and_writes_no_file(self, bad,
                                                              tmp_path):
        arr = np.zeros((2, 3, 4))
        arr[1, 2, 3] = bad
        for obj in (arr, arr[1], {"generators": [arr[0], arr[1]]}):
            with pytest.raises(ValueError):
                serialize.dumps(obj)
        out = tmp_path / "report.json"
        with pytest.raises(ValueError):
            cli._emit({"generators": [arr[0], arr[1]]}, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("obj", [{1: 2}, {"a": {None: 1.0}},
                                     [{"a": 1, (1, 2): 3}], {1.5: "x"}])
    def test_non_str_key_raises(self, obj):
        with pytest.raises(TypeError):
            serialize.dumps(obj)

    @pytest.fixture(scope="class")
    def dense_report(self):
        return classify(LatticeSpacetime(16, 16, 0.5,
                                         MassSpectrum.parse("1:2,2:3")), seed=31)

    def test_peak_memory_of_a_dense_classify_report(self, dense_report):
        # the standard library's indent=2 writer peaks at about 6x the text
        tracemalloc.start()
        try:
            text = serialize.dumps(dense_report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)

    def test_streamed_report_holds_no_copy_of_its_text(self, dense_report,
                                                       tmp_path):
        # written to a stream piece by piece, the text is never held whole:
        # the peak is one generator's finiteness mask and a few rows
        path = tmp_path / "report.json"
        with open(path, "w") as fh:
            tracemalloc.start()
            try:
                assert serialize.dumps(dense_report, fh) is None
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        text = path.read_text()
        assert text == serialize.dumps(dense_report)
        assert peak < len(text) / 8


class TestGoldenComparison:
    @pytest.mark.parametrize("name", [name for name, _ in GOLDEN_CONFIGS])
    def test_goldens_are_canonical(self, name):
        # comparing parsed leaves through dumps is then a byte comparison
        text = (GOLDEN_DIR / f"{name}.json").read_text()
        assert serialize.dumps(json.loads(text)) + "\n" == text

    def _golden(self, name="massless-all"):
        return json.loads((GOLDEN_DIR / f"{name}.json").read_text())

    def test_unchanged_copy_matches(self):
        golden = self._golden()
        assert serialize.golden_mismatches(golden, copy.deepcopy(golden)) == []

    def test_measurement_inside_band_matches(self):
        golden = self._golden()
        fresh = copy.deepcopy(golden)
        residuals = fresh["suites"][-1]["residuals"]
        residuals["soundness_null_energy"] *= 1.5
        residuals["soundness_rce_commute"] = serialize.GOLDEN_ATOL / 2
        assert serialize.golden_mismatches(golden, fresh) == []

    def test_contract_and_measurement_changes_reported(self):
        golden = self._golden()
        fresh = copy.deepcopy(golden)
        classify = fresh["suites"][-1]
        assert classify["name"] == "classify"
        classify["dimensions"]["dimension"] = 2
        classify["findings"].append("surplus direction")
        fresh["suites"][1]["status"] = "fail"
        g_value = classify["residuals"]["soundness_null_energy"]
        band = serialize.GOLDEN_RTOL * g_value + serialize.GOLDEN_ATOL
        classify["residuals"]["soundness_null_energy"] = g_value + 2 * band
        lines = serialize.golden_mismatches(golden, fresh)
        assert len(lines) == 4, lines
        assert lines[0] == "suites[gauge].status golden='pass' fresh='fail'"
        assert lines[1] == ("suites[classify].dimensions.dimension "
                            "golden=1 fresh=2")
        assert lines[2].startswith("suites[classify].findings golden=")
        assert "surplus direction" in lines[2]
        assert lines[3].startswith(
            "suites[classify].residuals.soundness_null_energy "
            f"golden={g_value:.3g} fresh=")
        assert f"band={band:.3g}" in lines[3]

    @pytest.mark.parametrize("name", [name for name, _ in GOLDEN_CONFIGS])
    def test_band_lies_below_thresholds(self, name):
        # a drift toward a bound fails the golden comparison before the suite
        smallest = min(t for t in DEFAULT_TOLERANCES.values() if t > 0)
        assert serialize.GOLDEN_ATOL <= smallest / 10
        for suite in self._golden(name)["suites"]:
            for key, value in suite["residuals"].items():
                threshold = suite["thresholds"].get(key)
                if threshold and value < threshold:
                    top = value + serialize.GOLDEN_RTOL * abs(value) \
                        + serialize.GOLDEN_ATOL
                    assert top < threshold, (suite["name"], key)

    def test_exact_check_compared_bitwise(self):
        golden = self._golden()
        fresh = copy.deepcopy(golden)
        gauge = fresh["suites"][1]
        assert gauge["thresholds"]["naturality_translations_exact"] == 0.0
        gauge["residuals"]["naturality_translations_exact"] = 1e-300
        assert serialize.golden_mismatches(golden, fresh) == [
            "suites[gauge].residuals.naturality_translations_exact "
            "golden=0.0 fresh=1e-300"]

    def test_regeneration_keeps_roundoff_inside_the_band(self):
        # scripts/make_golden_reports.py moves a golden's measured residual
        # only when the fresh value leaves the band; exact checks, new keys
        # and changed thresholds always take the fresh value
        spec = importlib.util.spec_from_file_location(
            "make_golden_reports",
            GOLDEN_DIR.parent.parent / "scripts" / "make_golden_reports.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        golden = self._golden()
        fresh = copy.deepcopy(golden)
        gauge, classify = fresh["suites"][1], fresh["suites"][-1]
        res = classify["residuals"]
        g_value = res["soundness_null_energy"]
        res["soundness_null_energy"] = 1.5 * g_value           # inside
        res["soundness_sigma"] = 1.0                           # outside
        res["new_check"] = 2e-16                               # new key
        classify["thresholds"]["new_check"] = 1e-10
        classify["thresholds"]["so_representation"] = 1e-9     # moved bound
        res["so_representation"] *= 1.5
        gauge["residuals"]["naturality_translations_exact"] = 1e-300  # exact
        kept = script.keep_golden_roundoff(golden, copy.deepcopy(fresh))
        g_res = golden["suites"][-1]["residuals"]
        assert kept["suites"][-1]["residuals"] == {
            **res, "soundness_null_energy": g_value}
        assert res["so_representation"] != g_res["so_representation"]
        assert kept["suites"][1]["residuals"] == gauge["residuals"]

    def test_residual_keys_and_config_compared(self):
        golden = self._golden()
        fresh = copy.deepcopy(golden)
        del fresh["suites"][0]["residuals"]["ccr_relations"]
        fresh["config"]["seed"] = 12
        lines = serialize.golden_mismatches(golden, fresh)
        assert lines == [
            "config.seed golden=11 fresh=12",
            "suites[ccr].residuals keys "
            "golden=['associativity_vs_exact_oracle', 'ccr_relations'] "
            "fresh=['associativity_vs_exact_oracle']"]


class TestBenchmarkTraceHooks:
    # the benchmark's traced run wraps lcqft functions by name, so a renamed
    # or deleted one breaks it

    @staticmethod
    def _span_calls(tmp_path, argv):
        """Calls per span name of the traced benchmark child on argv."""
        root = GOLDEN_DIR.parent.parent
        stats = tmp_path / "stats.json"
        env = _src_env(root)
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), "trace",
             str(stats)] + argv + ["--out", str(tmp_path / "report.json")],
            cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(stats.read_text())
        return collections.Counter(data["names"][span[0]]
                                   for span in data["spans"])

    def test_traced_child_records_kinematic_spans(self, tmp_path):
        calls = self._span_calls(
            tmp_path, ["verify", "gauge", "--spectrum", "1:2", "--sites", "8"])
        assert {"kinematics.region_basis", "kinematics.membership"} <= set(calls)

    @pytest.mark.parametrize("argv", [
        ["verify", "ccr", "--spectrum", "1:2", "--sites", "8"],
        ["classify", "--spectrum", "1:2", "--sites", "8"]])
    def test_traced_child_wraps_the_kept_entry_points(self, argv, tmp_path):
        # no suite calls the `Solution` entry points, but the child wraps
        # them by name before the command runs: it must still exit 0 and
        # record the command's spans
        calls = self._span_calls(tmp_path, argv)
        names = json.loads((tmp_path / "stats.json").read_text())["names"]
        assert {"dynamics.propagate", "dynamics.rce",
                "dynamics.rce_derivative"} <= set(names)
        assert sum(calls.values()) > 0

    def test_traced_child_records_each_classifier_stage(self, tmp_path):
        calls = self._span_calls(
            tmp_path, ["classify", "--spectrum", "1:2,2:3", "--sites", "8"])
        for name in ("classify.commutant", "classify.zero_mode_split",
                     "classify.constraints", "classify.nullspace",
                     "classify.soundness"):
            assert calls[name] >= 1, name


class TestRunSuite:
    def test_deterministic_modulo_timings(self):
        config = RunConfig(spectrum="1:2", suite="ccr", seed=5)
        r1 = run_suite(config)
        r2 = run_suite(RunConfig(spectrum="1:2", suite="ccr", seed=5))
        assert serialize.dumps(serialize.strip_timings(r1)) \
            == serialize.dumps(serialize.strip_timings(r2))

    def test_seed_changes_report(self):
        r1 = run_suite(RunConfig(spectrum="1:2", suite="ccr", seed=5))
        r2 = run_suite(RunConfig(spectrum="1:2", suite="ccr", seed=6))
        assert serialize.dumps(serialize.strip_timings(r1)) \
            != serialize.dumps(serialize.strip_timings(r2))

    def test_schema_fields(self):
        report = run_suite(RunConfig(spectrum="1:2", suite="ccr"))
        assert report["schema"] == "lcqft-report/1"
        assert report["status"] == "pass"
        suite = report["suites"][0]
        for key in ("name", "status", "residuals", "thresholds",
                    "dimensions", "findings", "timings"):
            assert key in suite

    def test_tolerance_override_can_fail_suite(self):
        config = RunConfig(spectrum="1:2", suite="ccr",
                           tolerances={"ccr.relations": 1e-30})
        report = run_suite(config)
        assert report["status"] == "fail"

    def test_unknown_suite_rejected(self):
        from lcqft.errors import ConfigParse
        with pytest.raises(ConfigParse):
            run_suite(RunConfig(spectrum="1:2", suite="nope"))


class TestCliProcess:
    def test_verify_pass_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "ccr", "--spectrum", "1:2", "--sites", "8",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "pass"
        assert report["config"]["spectrum"] == "1:2"

    def test_config_error_exit_two(self, capsys):
        assert main(["verify", "ccr", "--spectrum", "nonsense"]) == 2
        assert main(["verify", "ccr", "--spectrum", "1:2",
                     "--tolerance", "oops"]) == 2
        assert main(["verify", "ccr", "--spectrum", "1:2", "--dt", "5"]) == 2

    def test_suite_failure_exit_one(self, capsys):
        code = main(["verify", "ccr", "--spectrum", "1:2",
                     "--tolerance", "ccr.relations=1e-30"])
        assert code == 1

    def test_classify_command(self, tmp_path, capsys):
        out = tmp_path / "classify.json"
        code = main(["classify", "--spectrum", "1:2,2:3", "--sites", "8",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["dimension"] == 4
        assert report["match"] is True

    def test_classify_stdout_equals_the_out_file(self, tmp_path, capsys):
        # the report's text streams piece by piece; stdout and --out agree
        argv = ["classify", "--spectrum", "1:2,2:3", "--sites", "16",
                "--seed", "31"]
        out = tmp_path / "classify.json"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert len(printed) > 4 * 65536
        assert printed == out.read_text() and printed.endswith("}\n")

    @pytest.mark.parametrize("argv", [
        ["classify", "--spectrum", "1e200:2"],
        ["verify", "state", "--spectrum", "1e200:2"]])
    def test_huge_mass_is_one_line_without_warnings(self, argv, capsys):
        # pytest records warnings instead of printing them; as errors they
        # would escape as a traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err

    def test_classify_site_budget(self, tmp_path, capsys):
        assert main(["classify", "--spectrum", "1:2,2:3", "--sites", "33"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert main(["classify", "--spectrum", "1:2,2:3", "--sites", "32",
                     "--out", str(tmp_path / "classify.json")]) == 0
        assert "match=True" in capsys.readouterr().err

    def test_mass_collision_is_config_error(self, capsys):
        assert main(["verify", "ccr", "--spectrum", "0:1,1:1",
                     "--sites", "24"]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "ccr", "--spectrum", "1:2", "--tolerance", "ccr.relation=0"],
        ["classify", "--spectrum", "1:2", "--sites", "33"],
        ["verify", "all", "--spectrum", "1:2", "--sites", "33"],
        ["verify", "classify", "--spectrum", "1:2,2:3,3:1", "--sites", "8"],
        ["verify", "rce", "--spectrum", "1:2", "--steps", "1"],
        ["verify", "gauge", "--spectrum", "1:2", "--sites", "4", "--steps", "4"],
        ["verify", "gauge", "--spectrum", "1:2", "--steps", "2"],
        ["verify", "gauge", "--spectrum", "1:2", "--sites", "8", "--steps", "3"],
        ["verify", "all", "--spectrum", "5:1", "--sites", "8"],
        ["classify", "--spectrum", "5:1", "--sites", "8"],
        ["verify", "ccr", "--spectrum", "1:2", "--seed", "-1"],
        ["classify", "--spectrum", "1:2", "--seed", "-5"],
        ["verify", "ccr", "--spectrum", "1:2", "--tolerance", "ccr.relations=nan"],
        ["verify", "ccr", "--spectrum", "1:2", "--tolerance", "ccr.relations=inf"],
        ["verify", "ccr", "--spectrum", "1:2", "--tolerance", "ccr.relations=-1"],
        ["verify", "state", "--spectrum", "nan:1"],
        ["classify", "--spectrum", "nan:1"],
        ["verify", "ccr", "--spectrum", "1:2", "--out", "/nonexistent/x.json"],
        ["classify", "--spectrum", "1:2", "--out", "/nonexistent/x.json"],
        ["verify", "ccr", "--spectrum", "1:2", "--out", "/"],
        # one step leaves no slice for the soundness check's perturbation
        ["classify", "--spectrum", "1:2", "--steps", "1"],
        ["verify", "classify", "--spectrum", "1:2", "--steps", "1"],
        # a positive mass whose square underflows to 0
        ["verify", "state", "--spectrum", "1e-170:1"],
        ["classify", "--spectrum", "1e-170:1"],
    ])
    def test_config_error_before_any_suite(self, argv, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("a suite ran on a rejected configuration")

        monkeypatch.setattr(suites, "SUITE_FUNCS",
                            {name: never for name in suites.SUITE_FUNCS})
        monkeypatch.setattr(cli, "classify", never)
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err

    @pytest.mark.parametrize("argv", [["verify", "ccr", "--spectrum", "1:2"],
                                      ["classify", "--spectrum", "1:2"]])
    def test_write_failure_is_config_error(self, argv, monkeypatch, tmp_path,
                                           capsys):
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == (f"config error: cannot write --out "
                           f"'{tmp_path / 'report.json'}': "
                           "No space left on device")
        assert not any("Traceback" in line for line in err)

    @pytest.mark.parametrize("code", [errno.EPIPE, errno.ENOSPC])
    @pytest.mark.parametrize("argv, to_file", [
        (["verify", "state", "--spectrum", "1:2"], False),
        (["classify", "--spectrum", "1:2"], False),
        # with --out, the summary is what goes to stdout
        (["verify", "state", "--spectrum", "1:2"], True)])
    def test_stdout_write_failure_is_config_error(self, argv, to_file, code,
                                                  monkeypatch, tmp_path,
                                                  capsys):
        # a closed pipe or a full disk behind stdout; the stand-in has no
        # file descriptor, so none is redirected
        class FailingStdout(io.StringIO):
            def write(self, text):
                raise OSError(code, os.strerror(code))

        monkeypatch.setattr(sys, "stdout", FailingStdout())
        out = ["--out", str(tmp_path / "report.json")] if to_file else []
        assert main(argv + out) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: cannot write the report to stdout: "
            + os.strerror(code)]

    @pytest.mark.parametrize("argv", [
        ["verify", "state", "--spectrum", "1:2"],              # the summary
        ["verify", "state", "--spectrum", "1:2", "--out"],     # both
        ["classify", "--spectrum", "1:2"],                     # its lines
        ["verify", "state", "--spectrum", "1:2", "--sites", "3"]])  # config
    def test_stderr_write_failure_exits_two(self, argv, monkeypatch,
                                            tmp_path):
        # a full disk behind stderr: whatever was to be written there, the
        # exit code is 2 and nothing raises
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        if argv[-1] == "--out":    # the summary goes to stdout instead
            argv = argv + [str(tmp_path / "report.json")]
            monkeypatch.setattr(sys, "stdout", FullDisk())
        monkeypatch.setattr(sys, "stderr", FullDisk())
        assert main(argv) == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs the full device")
    @pytest.mark.parametrize("argv", [
        ["verify", "state", "--spectrum", "1:2"],
        ["classify", "--spectrum", "1:2"],
        ["verify", "state", "--spectrum", "1:2", "--sites", "3"]])
    def test_full_stderr_exits_two_in_a_process(self, argv):
        # exit 1 would be a traceback, exit 120 a failed flush at exit
        root = GOLDEN_DIR.parent.parent
        env = _src_env(root)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "lcqft.cli"] + argv, cwd=root, env=env,
                stdout=subprocess.DEVNULL, stderr=full, timeout=300)
        assert proc.returncode == 2

    def test_closed_stdout_pipe_exits_two_in_a_process(self):
        # the reader is gone before the report is written: one line, no
        # traceback, and nothing left to fail when the interpreter exits
        root = GOLDEN_DIR.parent.parent
        env = _src_env(root)
        with subprocess.Popen(
                [sys.executable, "-m", "lcqft.cli", "verify", "state",
                 "--spectrum", "1:2"], cwd=root, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=300) == 2, err
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == "config error: cannot write the report to stdout: " \
            "Broken pipe\n"

    @pytest.mark.parametrize("soundness, code", [(1e-6, 1), (1e-12, 0)])
    def test_classify_exit_code_honours_soundness(self, soundness, code,
                                                  monkeypatch, tmp_path,
                                                  capsys):
        def matched_but_unsound(spacetime, seed):
            report = self._matched_report()
            report["residuals"]["soundness_sigma"] = soundness
            return report

        monkeypatch.setattr(cli, "classify", matched_but_unsound)
        out = tmp_path / "classify.json"
        assert main(["classify", "--spectrum", "1:2",
                     "--out", str(out)]) == code

    @staticmethod
    def _matched_report(bad_key=None, affine=None):
        residuals = dict.fromkeys(CHECKED_RESIDUALS, 0.0)
        if bad_key:
            residuals[bad_key] = 1e-6
        return {"dimension": 1, "expected": 1, "match": True,
                "zero_mode_dimension": 0, "commutant_dimension": 32,
                "residuals": residuals, "findings": [],
                "affine": affine or {"dimension": 0, "expected": 0,
                                     "residual": 0.0}}

    @pytest.mark.parametrize("key", CLASSIFY_CHECKS)
    def test_classify_exit_code_checks_each_residual(self, key, monkeypatch,
                                                     tmp_path, capsys):
        monkeypatch.setattr(cli, "classify",
                            lambda spacetime, seed:
                            self._matched_report(key))
        out = tmp_path / "classify.json"
        assert main(["classify", "--spectrum", "1:2",
                     "--out", str(out)]) == 1
        assert f"{key}: residual 1.000e-06 exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("affine, line", [
        ({"dimension": 2, "expected": 1, "residual": 0.0},
         "affine_dimension: 2 != expected 1"),
        ({"dimension": 1, "expected": 1, "residual": 1e-6},
         "affine_shift_angle: residual 1.000e-06 exceeds 1.0e-10")])
    def test_classify_exit_code_checks_the_affine_factor(self, affine, line,
                                                         monkeypatch,
                                                         tmp_path, capsys):
        # a wrong affine count, or solved functionals off the shift span
        monkeypatch.setattr(cli, "classify", lambda spacetime, seed:
                            self._matched_report(affine=affine))
        assert main(["classify", "--spectrum", "1:2",
                     "--out", str(tmp_path / "classify.json")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["dimension=1 expected=1 match=True", line]

    @pytest.mark.parametrize("command", ["verify", "classify"])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_non_finite_report_is_one_error_line(self, command, to_file,
                                                 monkeypatch, tmp_path,
                                                 capsys):
        # a NaN residual cannot be written as JSON: exit 1 with one error
        # line, no traceback and no --out file
        def nan_suite(config):
            rec = suites.Recorder()
            rec.below("relations", float("nan"), 1e-12)
            return rec.result("ccr", 0.0)

        def nan_classify(spacetime, seed):
            report = self._matched_report()
            report["residuals"]["soundness_sigma"] = float("nan")
            return report

        monkeypatch.setattr(suites, "SUITE_FUNCS",
                            {**suites.SUITE_FUNCS, "ccr": nan_suite})
        monkeypatch.setattr(cli, "classify", nan_classify)
        out = tmp_path / "report.json"
        argv = (["verify", "ccr"] if command == "verify" else ["classify"]) \
            + ["--spectrum", "1:2"] + (["--out", str(out)] if to_file else [])
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite"), err
        assert not out.exists()

    def test_classical_flag_is_rejected(self, capsys):
        # the affine factor is always solved: there is no --classical
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--spectrum", "1:2", "--classical"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --classical" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", CLASSIFY_CHECKS)
    def test_classify_suite_checks_each_residual(self, key, monkeypatch):
        monkeypatch.setattr(suites, "classify",
                            lambda st, seed: self._matched_report(key))
        result = suites.classify_suite(RunConfig(spectrum="1:2",
                                                 suite="classify"))
        assert result["status"] == "fail"
        assert result["thresholds"][key] == DEFAULT_TOLERANCES["classify.soundness"]
        assert result["findings"] == [
            f"{key}: residual 1.000e-06 exceeds 1.0e-08"]


def test_rce_suite_checks_the_mass_kind_deviation(monkeypatch):
    # ell_deviation_mass_kind must lie above its threshold: a relative Cauchy
    # evolution that moved nothing would keep the charge and fail only there
    monkeypatch.setattr(suites.dyn, "rce_matrix",
                        lambda pert: np.eye(pert.spacetime.data_dim))
    result = suites.rce_suite(RunConfig(spectrum="0:1,1:2", suite="rce"))
    assert result["status"] == "fail"
    assert result["thresholds"]["ell_deviation_mass_kind"] \
        == DEFAULT_TOLERANCES["rce.ell_invariance"]
    assert result["findings"][1:] == [
        "ell_deviation_mass_kind: value 0.000e+00 not above 1.0e-09"]


@pytest.mark.parametrize("spectrum, maps", [("1:2", 3), ("0:1,1:2", 6)])
def test_rce_suite_builds_one_map_per_perturbation(spectrum, maps,
                                                   monkeypatch):
    # the symplectic, intertwining and charge checks read the dense map of
    # their perturbation; the derivative has its own map, and no Solution is
    # evolved one at a time
    def never(sol, pert):
        raise AssertionError("relative_cauchy_evolution was called")

    built = []
    rce_matrix = suites.dyn.rce_matrix
    monkeypatch.setattr(suites.dyn, "relative_cauchy_evolution", never)
    monkeypatch.setattr(suites.dyn, "rce_matrix",
                        lambda pert: built.append(pert) or rce_matrix(pert))
    result = suites.rce_suite(RunConfig(spectrum=spectrum, suite="rce"))
    assert result["status"] == "pass", result["findings"]
    assert len(built) == maps


@pytest.mark.parametrize("spectrum", ["1:2", "0:1,1:2"])
@pytest.mark.parametrize("suite", [suites.rce_suite, suites.state_suite])
def test_linear_checks_draw_no_solution(suite, spectrum, monkeypatch):
    # each linear identity is read off its map or on a basis, exactly
    def never(*args, **kwargs):
        raise AssertionError("random data was drawn")

    monkeypatch.setattr(suites, "_random_data", never)
    result = suite(RunConfig(spectrum=spectrum))
    assert result["status"] == "pass", result["findings"]


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("n", [1, 5])
def test_random_data_keeps_the_draw_order(integer, n):
    # the batched draw gives, bit for bit, the draws made one vector and one
    # (S, N) component at a time in the order the suites' streams have
    # always used: Gaussian q_re, q_im, p_re, p_im; integer q_re, p_re,
    # q_im, p_im. The goldens' band would let a reordered draw pass.
    config = RunConfig(spectrum="0:1,1:2", seed=3)
    st_ = config.spacetime()
    shape = (st_.n_species, st_.n_sites)
    rng = suites._rng(config, 1)
    want = []
    for _ in range(n):
        if integer:
            q = rng.integers(-3, 4, size=shape).astype(complex)
            p = rng.integers(-3, 4, size=shape).astype(complex)
            q = q + 1j * rng.integers(-3, 4, size=shape)
            p = p + 1j * rng.integers(-3, 4, size=shape)
        else:
            q = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            p = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want.append(np.concatenate([q.ravel(), p.ravel()]))
    got = suites._random_data(suites._rng(config, 1), st_, n, integer)
    assert got.shape == (n, st_.data_dim)
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


# The planted maps stay symplectic, so the lift accepts them: each is
# rce[v] after the shear p += 1e-6 q at one site of one species.

def _leaking_rce_data(rce_data):
    """rce_data after the shear at site 10 of species 0, a column of the
    localization window (the configured 8 sites have no site 10)."""
    def leaky(q, p, pert):
        if q.shape[-1] > 10:
            p = np.array(p)
            p[..., 0, 10] += 1e-6 * q[..., 0, 10]
        return rce_data(q, p, pert)
    return leaky


def _charge_moving_rce_matrix(rce_matrix):
    """rce_matrix whose gradient-kind maps end with the shear at site 0 of
    the first massless species, which moves <e_0, .>."""
    def moving(pert):
        M = rce_matrix(pert)
        if pert.kind == "gradient":
            st = pert.spacetime
            q = st.spectrum.block_slice(0.0).start * st.n_sites
            shear = np.eye(st.data_dim)
            shear[st.n_species * st.n_sites + q, q] = 1e-6
            M = shear @ M
        return M
    return moving


def _non_skew_tangent(rce_tangent_data):
    """rce_tangent_data plus 1e-6 times the identity, whose F^T J + J F is
    2e-6 J."""
    def tangent(pert, q, p):
        q_out, p_out = rce_tangent_data(pert, q, p)
        return q_out + 1e-6 * q, p_out + 1e-6 * p
    return tangent


@pytest.mark.parametrize("name, target, mutant", [
    ("derivative_skew_adjoint", "rce_tangent_data", _non_skew_tangent),
    ("localization", "rce_data", _leaking_rce_data),
    ("ell_invariance_gradient", "rce_matrix", _charge_moving_rce_matrix)])
def test_rce_suite_catches_a_planted_defect(name, target, mutant, monkeypatch):
    monkeypatch.setattr(suites.dyn, target,
                        mutant(getattr(suites.dyn, target)))
    result = suites.rce_suite(RunConfig(spectrum="0:1,1:2", suite="rce"))
    assert result["status"] == "fail"
    assert result["residuals"][name] > 1e-7
    assert any(line.startswith(f"{name}: residual") for line in
               result["findings"]), result["findings"]


def test_rce_localization_runs_on_a_wide_configured_lattice():
    # the scan for a collision-free lattice includes the configured one, so
    # 40 sites and more keep the localization check
    result = suites.rce_suite(RunConfig(spectrum="1:2", n_sites=40,
                                        suite="rce"))
    assert result["status"] == "pass", result["findings"]
    assert result["residuals"]["localization"] <= 1e-10
    assert result["dimensions"]["localization_sites"] == 40


@pytest.mark.parametrize("suite", ["state", "rce", "gauge", "ccr",
                                   "observables", "classify"])
@settings(max_examples=12)
@given(spectrum=st.sampled_from(["1:2", "0:1,1:2"]),
       sites=st.integers(4, 7), steps=st.integers(1, 7),
       seed=st.integers(0, 3))
def test_small_lattices_keep_exit_code_contract(suite, spectrum, sites, steps,
                                                seed):
    # 0 pass, 1 suite failure, 2 configuration error; never a raw exception
    lattice = ["--sites", str(sites), "--steps", str(steps),
               "--seed", str(seed), "--out", os.devnull]
    code = main(["verify", suite, "--spectrum", spectrum] + lattice)
    assert code in (0, 1, 2)
    # dt = 0.9 passes the stepper margin, but the highest-momentum mode of
    # mass 2 is not elliptic there on any lattice
    assert main(["verify", suite, "--spectrum", "2:1", "--dt", "0.9"]
                + lattice) == 2


@pytest.mark.parametrize("argv", [["verify", "classify"], ["classify"]])
def test_mass_collision_at_24_sites_is_config_error(argv, capsys):
    # masses 1 and 2 collide on the N = 24 lattice
    assert main(argv + ["--spectrum", "1:2,2:3", "--sites", "24"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


class TestSummary:
    def test_margin_direction_and_edges(self):
        margin = suites.margin
        assert margin("ccr_relations", 1e-14, 1e-12) == pytest.approx(2.0)
        assert margin("mass_mixing_residual", 10.0, 1e-3) == pytest.approx(4.0)
        assert margin("ccr_relations", 1e-11, 1e-12) == pytest.approx(-1.0)
        assert margin("mass_mixing_residual", 1e-4, 1e-3) == pytest.approx(-1.0)
        assert margin("naturality_translations_exact", 0.0, 0.0) == float("inf")
        assert margin("naturality_translations_exact", 1e-16, 0.0) \
            == float("-inf")
        assert margin("ccr_relations", float("nan"), 1e-12) == float("-inf")

    def test_lower_bounds_are_declared(self):
        with pytest.raises(ValueError):
            suites.Recorder().above("ccr_relations", 1.0, 0.5)

    def test_names_the_tightest_check(self, tmp_path, capsys):
        # massless-all: observables and rce hold lower bounds whose values
        # are the largest residuals, yet the tightest checks are others
        assert main(["verify", "all", "--spectrum", "0:1,1:2", "--seed", "11",
                     "--out", str(tmp_path / "report.json")]) == 0
        lines = {line.split()[1]: line
                 for line in capsys.readouterr().out.splitlines()[:-1]}
        assert "worst=" not in "".join(lines.values())
        assert lines["observables"].endswith(
            "tightest=central_moved_by_rotations margin=0.60")
        assert "tightest=symplectic_preservation" in lines["rce"]
        report = json.loads((tmp_path / "report.json").read_text())
        for suite in report["suites"]:
            margins = [suites.margin(name, value, suite["thresholds"][name])
                       for name, value in suite["residuals"].items()]
            assert f"margin={min(margins):.2f}" in lines[suite["name"]]
