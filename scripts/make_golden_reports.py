#!/usr/bin/env python3
"""Regenerate the committed golden reports.

Writes the three canonical configurations to reports/golden/ with timing
fields stripped. Reruns on the same code, build and BLAS thread count produce
byte-identical files; on another machine the roundoff-floor residuals differ
in their last bits, which acceptance criterion 7 allows within the band of
`lcqft.serialize.golden_mismatches`. Regenerate only when the contract
(dimensions, statuses, thresholds, findings, exact checks) changes on
purpose, never to absorb a machine's roundoff: a residual held below its
threshold whose fresh value lies within that band of an existing golden's
(same suite, same key, the same non-zero threshold) keeps the golden's value,
so the files move only where the code moved them. A value held above its
threshold (`suites.LOWER_BOUNDS`) is no roundoff: it always takes the fresh
value, so a check whose definition changed records what the code computes.

Run from the repository root: python scripts/make_golden_reports.py
"""
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lcqft import serialize
from lcqft.suites import GOLDEN_CONFIGS, LOWER_BOUNDS, RunConfig, run_suite


def keep_golden_roundoff(golden: dict, fresh: dict) -> dict:
    """fresh, with each residual held below its threshold that lies within
    the golden band replaced by the golden's value."""
    old = {suite["name"]: suite for suite in golden["suites"]}
    for suite in fresh["suites"]:
        kept = old.get(suite["name"], {"residuals": {}, "thresholds": {}})
        for key, value in suite["residuals"].items():
            if key in kept["residuals"] and key not in LOWER_BOUNDS \
                    and kept["thresholds"].get(key) \
                    == suite["thresholds"].get(key) != 0.0 \
                    and serialize.in_golden_band(kept["residuals"][key], value):
                suite["residuals"][key] = kept["residuals"][key]
    return fresh


def main():
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "reports" / "golden"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, kwargs in GOLDEN_CONFIGS:
        report = serialize.strip_timings(run_suite(RunConfig(**kwargs)))
        path = out_dir / f"{name}.json"
        if path.exists():
            report = keep_golden_roundoff(json.loads(path.read_text()), report)
        path.write_text(serialize.dumps(report) + "\n")
        print(f"wrote {path} ({report['status']})")


if __name__ == "__main__":
    main()
