"""lcqft benchmark: real CLI commands, each timed in a cold interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an lcqft checkout. A pass runs every command of the
workload once, each in a fresh interpreter (`perfbench/child.py`), so the
process-wide caches start cold as they do for a CLI user. A round is one
pass per CLI seed of the round; rounds repeat until S seconds have passed
(at least one round). Metrics are medians over the passes. Set-up time is
also sampled by extra processes that stop at the first call into a suite.
Every command's output is checked (`perfbench/checks.py`). With --trace 1
the commands run with spans around the calls into each layer, and the
per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Workloads, metrics and reference figures are described in README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

ALL_SUITES = ["ccr", "gauge", "rce", "state", "observables", "classify"]
SETUP_PROBES = 5          # extra set-up-only passes per run
CHILD_TIMEOUT_S = 150.0   # a command that runs longer is killed and fails
RUN_BUDGET_S = 140.0      # no new round starts if it would end after this


@dataclass(frozen=True)
class Workload:
    spectrum: str
    sites: int
    commands: tuple[str, ...]   # verify suites, or "classify"
    seeds_per_round: int        # CLI seeds, so passes, per round
    steps: int = 16
    dt: float = 0.5

    def cli_args(self, command: str, cli_seed: int) -> list[str]:
        head = ["classify"] if command == "classify" else ["verify", command]
        return [*head, "--spectrum", self.spectrum, "--sites", str(self.sites),
                "--steps", str(self.steps), "--dt", str(self.dt),
                "--seed", str(cli_seed)]


WORKLOADS = {
    "verify-massive-all": Workload("1:2", 8, ("all",), seeds_per_round=2),
    "classify-two-block-n16": Workload("1:2,2:3", 16, ("classify",),
                                       seeds_per_round=1),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# per-layer metric -> (span name, field); fields: total (summed span time),
# self (span time minus nested spans), calls, a, b (the span's two counts,
# see child.install)
PER_LAYER = {
    **{f"suites.{s}.s": (f"suites.{s}", "total") for s in ALL_SUITES},
    "classify.run.self_s": ("classify.run", "self"),
    "algebra.substitute.calls": ("algebra.substitute", "calls"),
    "algebra.substitute.self_s": ("algebra.substitute", "self"),
    "algebra.substitute.terms_in": ("algebra.substitute", "a"),
    "algebra.substitute.terms_out": ("algebra.substitute", "b"),
    "algebra.product.calls": ("algebra.product", "calls"),
    "algebra.product.self_s": ("algebra.product", "self"),
    "algebra.product.pairs": ("algebra.product", "a"),
    "algebra.product.terms_out": ("algebra.product", "b"),
    "algebra.compare.self_s": ("algebra.compare", "self"),
    "exact_algebra.product.calls": ("exact_algebra.product", "calls"),
    "exact_algebra.product.self_s": ("exact_algebra.product", "self"),
    "gauge.action_build.self_s": ("gauge.action_build", "self"),
    "gauge.action.calls": ("gauge.action", "calls"),
    "observables.invariance_check.calls": ("observables.invariance_check", "calls"),
    "observables.invariance_check.self_s": ("observables.invariance_check", "self"),
    "observables.invariance_check.group_samples": ("observables.invariance_check", "a"),
    "observables.affine_derivative.self_s": ("observables.affine_derivative", "self"),
    "states.evaluate.calls": ("states.evaluate", "calls"),
    "states.evaluate.self_s": ("states.evaluate", "self"),
    "states.evaluate.terms": ("states.evaluate", "a"),
    "dynamics.evolve.calls": ("dynamics.evolve", "calls"),
    "dynamics.evolve.self_s": ("dynamics.evolve", "self"),
    "dynamics.evolve.slices": ("dynamics.evolve", "a"),
    "dynamics.propagate.calls": ("dynamics.propagate", "calls"),
    "dynamics.propagate.self_s": ("dynamics.propagate", "self"),
    "dynamics.rce.self_s": ("dynamics.rce", "self"),
    "dynamics.rce_derivative.calls": ("dynamics.rce_derivative", "calls"),
    "dynamics.rce_derivative.self_s": ("dynamics.rce_derivative", "self"),
    "kinematics.region_basis.self_s": ("kinematics.region_basis", "self"),
    "kinematics.membership.self_s": ("kinematics.membership", "self"),
    "kinematics.solution_map.self_s": ("kinematics.solution_map", "self"),
    "classify.commutant.self_s": ("classify.commutant", "self"),
    "classify.zero_mode_split.self_s": ("classify.zero_mode_split", "self"),
    "classify.constraints.calls": ("classify.constraints", "calls"),
    "classify.constraints.self_s": ("classify.constraints", "self"),
    "classify.constraints.rows": ("classify.constraints", "a"),
    "classify.nullspace.calls": ("classify.nullspace", "calls"),
    "classify.nullspace.self_s": ("classify.nullspace", "self"),
    "classify.nullspace.cells": ("classify.nullspace", "a"),
    "classify.soundness.self_s": ("classify.soundness", "self"),
    "serialize.dumps.self_s": ("serialize.dumps", "self"),
}
TRACE_WALL = "trace.wall_s"   # wall time of a traced pass


def per_layer_unit(name: str) -> str:
    timed = name == TRACE_WALL or PER_LAYER[name][1] in ("total", "self")
    return "s" if timed else "count"


# -- one command in a fresh interpreter ----------------------------------------------

@dataclass
class Process:
    rc: int
    wall_s: float
    setup_s: float | None
    rss_mib: float
    stats: dict


def spawn(mode: str, cli_args: list[str], stem: Path, env: dict) -> Process:
    """Run child.py in `mode`, timing from just before the spawn to the
    reaping of the process; peak RSS comes from the kernel's rusage."""
    stats_path = stem.with_suffix(".stats.json")
    stats_path.unlink(missing_ok=True)
    with open(stem.with_suffix(".log"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, str(stats_path), *cli_args],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
    first = stats.get("first_call")
    return Process(proc.returncode, t1 - t0, None if first is None else first - t0,
                   usage.ru_maxrss / 1024.0, stats)


def setup_pass(workload: Workload, cli_seed: int, stem: Path, env: dict) -> float:
    """Set-up time of one pass of the workload's commands, each stopped at
    its first call into a suite or the classifier."""
    total = 0.0
    for i, command in enumerate(workload.commands):
        cmd_stem = stem.with_name(f"{stem.name}-c{i}")
        p = spawn("setup", workload.cli_args(command, cli_seed), cmd_stem, env)
        if p.rc != 0 or p.setup_s is None:
            raise RuntimeError(f"set-up pass failed (exit {p.rc}); see {cmd_stem}.log")
        total += p.setup_s
    return total


def output_problems(workload: Workload, command: str, report_path: Path) -> list[str]:
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"]
    spectrum = checks.parse_spectrum(workload.spectrum)
    if command == "classify":
        return checks.check_classify_report(report, spectrum, workload.sites,
                                            workload.dt)
    names = ALL_SUITES if command == "all" else [command]
    return checks.check_verify_report(report, names, spectrum, workload.sites)


# -- span aggregation ----------------------------------------------------------------

def span_totals(stats: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self time, and summed counts."""
    names, spans = stats.get("names", []), stats.get("spans", [])
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name_id, start, end, parent, a, b) in enumerate(spans):
        agg = out.setdefault(names[name_id],
                             {"calls": 0, "total": 0.0, "self": 0.0, "a": 0, "b": 0})
        agg["calls"] += 1
        agg["total"] += end - start
        agg["self"] += end - start - child_time[i]
        agg["a"] += a
        agg["b"] += b
    return out


def layer_metrics(processes: list[Process]) -> dict[str, float]:
    """Per-layer metrics of one traced pass of the workload's commands."""
    totals: dict[str, dict[str, float]] = {}
    for p in processes:
        for name, agg in span_totals(p.stats).items():
            acc = totals.setdefault(name, dict.fromkeys(agg, 0))
            for key, value in agg.items():
                acc[key] += value
    out = {metric: totals.get(span, {}).get(field, 0)
           for metric, (span, field) in PER_LAYER.items()}
    out[TRACE_WALL] = sum(p.wall_s for p in processes)
    return out


# -- the run ---------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    out_dir = ROOT / "perfbench" / "out" / f"{workload_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cli_seeds = [seed * workload.seeds_per_round + j
                 for j in range(workload.seeds_per_round)]
    mode = "trace" if trace else "run"

    # untimed warm-up: byte-compiles lcqft and fills the file cache once, as
    # a user's first command after installing does
    setup_pass(workload, cli_seeds[0], out_dir / "warmup", env)

    attempted = failed = 0
    wrong: list[str] = []
    passes: list[dict] = []        # one summary per pass of the commands
    setup_samples: list[float] = []
    start = time.monotonic()
    while True:
        t_round = time.monotonic()
        for cli_seed in cli_seeds:
            processes = []
            for i, command in enumerate(workload.commands):
                stem = out_dir / f"p{len(passes)}-s{cli_seed}-c{i}"
                report = stem.with_suffix(".report.json")
                cli_args = [*workload.cli_args(command, cli_seed), "--out", str(report)]
                p = spawn(mode, cli_args, stem, env)
                processes.append(p)
                attempted += 1
                problems = [f"exit code {p.rc}"] if p.rc != 0 else \
                    output_problems(workload, command, report)
                if p.setup_s is None:
                    problems.append("never reached a suite or the classifier")
                if problems:
                    failed += 1
                    if p.rc == 0:
                        wrong += [f"{' '.join(cli_args)}: {msg}" for msg in problems]
                    print(f"FAILED {' '.join(cli_args)}: {problems}", file=sys.stderr)
                else:
                    report.unlink()
            if all(p.setup_s is not None for p in processes):
                setup_samples.append(sum(p.setup_s for p in processes))
            summary = {"wall_s": sum(p.wall_s for p in processes),
                       "peak_rss_mib": max(p.rss_mib for p in processes)}
            if trace:
                summary.update(layer_metrics(processes))
            passes.append(summary)
            print(f"pass {len(passes)} (CLI seed {cli_seed}): wall "
                  f"{summary['wall_s']:.3f} s, peak rss {summary['peak_rss_mib']:.1f} MiB",
                  flush=True)
        now = time.monotonic()
        if now - start >= seconds or now + (now - t_round) - start > RUN_BUDGET_S:
            break

    setup_samples += [setup_pass(workload, cli_seeds[0], out_dir / f"setup{k}", env)
                      for k in range(SETUP_PROBES)]

    if {"ccr", "all"} & set(workload.commands):
        sys.path.insert(0, str(ROOT / "src"))
        wrong += checks.ccr_problems(seed, workload.spectrum, workload.sites,
                                     workload.steps, workload.dt)

    def median(name: str) -> float:
        return statistics.median(p[name] for p in passes)

    if trace:
        metrics = {n: {"value": median(n), "unit": per_layer_unit(n)}
                   for n in [*PER_LAYER, TRACE_WALL]}
    else:
        values = {"wall_s": median("wall_s"),
                  "setup_s": statistics.median(setup_samples),
                  "peak_rss_mib": median("peak_rss_mib")}
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}
    for msg in wrong:
        print(f"WRONG OUTPUT {msg}", file=sys.stderr)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps(
        {**result, "passes": passes, "setup_samples": setup_samples,
         "cli_seeds": cli_seeds}, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "lcqft" / "cli.py").is_file():
        print(f"error: no lcqft sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
