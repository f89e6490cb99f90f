"""Command-line front end.

    lcqft verify SUITE --spectrum 1:2 --sites 8 [--steps 16 --dt 0.5
          --seed 0 --tolerance KEY=VAL --out report.json]
    lcqft classify --spectrum 1:2,2:3 --sites 8 [--steps 16 --dt 0.5
          --seed 0 --out report.json]

The report streams to stdout or --out as `serialize.dumps` makes it; one
that cannot be written leaves no --out file that names a regular file (a
device node, or a symlink to one, stays). Exit codes: 0 all checks pass, 1 suite failure or a non-finite
report, 2 configuration error (also a lattice too large for memory) or a
failed write to --out, stdout or stderr. They and every message are the same
for a suite that `verify all` ran in a forked worker (one lane per usable
CPU), whose report is byte-identical (timings aside); a worker that ends
without a result is one `error:` line and exit 1.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import serialize
from .classify import classify
from .errors import ConfigParse, LcqftError
from .suites import RunConfig, SUITE_NAMES, classify_checks, margin, run_suite


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--spectrum", required=True,
                        help='mass spectrum as "m:mult,..." e.g. "0:1,1.0:2"')
    parser.add_argument("--sites", type=int, default=8)
    parser.add_argument("--steps", type=int, default=16)
    parser.add_argument("--dt", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write the JSON report here")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcqft",
        description="verification suites for lattice free scalar field structures")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    _add_common(verify)
    verify.add_argument("--tolerance", action="append", default=[],
                        metavar="KEY=VAL", help="override a named tolerance")

    cls = sub.add_parser("classify",
                         help="classify endomorphism directions of the "
                              "solution space")
    _add_common(cls)
    return parser


def _parse_tolerances(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigParse(f"--tolerance needs KEY=VAL, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise ConfigParse(f"bad tolerance value in {pair!r}") from exc
    return out


def _check_out(out_path: str | None):
    """Reject an --out that cannot be written, before any work is done."""
    if not out_path:
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    if os.path.isdir(out_path) or not os.path.isdir(directory) \
            or not os.access(directory, os.W_OK):
        raise ConfigParse(f"--out {out_path!r} is not a file in a writable "
                          "directory")


@contextlib.contextmanager
def _writes(stream):
    """Turn a failed write to `stream`, stdout or stderr (a closed pipe, a
    full disk), into ConfigParse, pointing its descriptor, if any, at the
    null device so that no later write and no flush at exit can fail again."""
    try:
        yield
        stream.flush()
    except OSError as exc:
        with contextlib.suppress(OSError, ValueError):
            fd, null = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        name = "stdout" if stream is sys.stdout else "stderr"
        raise ConfigParse(f"cannot write the report to {name}: "
                          f"{exc.strerror or exc}") from exc


def _tell(line: str, code: int) -> int:
    """Print `line` to stderr and return `code`, or 2 if that write fails."""
    try:
        with _writes(sys.stderr):
            print(line, file=sys.stderr)
    except ConfigParse:
        return 2
    return code


def _emit(report: dict, out_path: str | None):
    """Stream the report's text to stdout, or to the --out file, removed
    again when the writer raises (`NonFiniteReport` on a NaN or an
    infinity, `ConfigParse` on a failed write) if it names a regular file:
    a symlink to one is unlinked, a device node or a link to one stays."""
    if not out_path:
        serialize.dumps(report, sys.stdout)
        print()
        return
    try:
        fh = open(out_path, "w")
        try:
            with fh:
                serialize.dumps(report, fh)
                fh.write("\n")
        except BaseException:
            if os.path.isfile(out_path):
                os.remove(out_path)
            raise
    except OSError as exc:
        raise ConfigParse(f"cannot write --out {out_path!r}: "
                          f"{exc.strerror or exc}") from exc


def _summary(report: dict, stream):
    for suite in report["suites"]:
        # the check closest to its bound, with its margin in decades
        margins = {name: margin(name, value, suite["thresholds"][name])
                   for name, value in suite["residuals"].items()}
        tightest = min(margins, key=margins.get, default=None)
        tight = f" tightest={tightest} margin={margins[tightest]:.2f}" \
            if margins else ""
        print(f"[{suite['status']:4s}] {suite['name']:12s} "
              f"checks={len(suite['residuals'])}{tight}", file=stream)
        if suite["status"] != "pass":
            for line in suite["findings"]:
                print(f"       {line}", file=stream)
    print(f"overall: {report['status']}", file=stream)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigParse(f"--seed must be >= 0, got {args.seed}")
        _check_out(args.out)
        common = dict(spectrum=args.spectrum, n_sites=args.sites,
                      n_steps=args.steps, dt=args.dt, seed=args.seed)
        if args.command == "verify":
            config = RunConfig(**common, suite=args.suite,
                               tolerances=_parse_tolerances(args.tolerance))
            report = run_suite(config)
            with _writes(sys.stdout):
                _emit(report, args.out)
            # the human summary goes where the JSON report is not
            summary = sys.stdout if args.out else sys.stderr
            with _writes(summary):
                _summary(report, summary)
            return 0 if report["status"] == "pass" else 1

        if args.command == "classify":
            config = RunConfig(**common)
            config.check(["classify"])  # before the classifier runs
            report = classify(config.spacetime(), seed=args.seed)
            with _writes(sys.stdout):
                _emit(report, args.out)
            failures = classify_checks([report], config).failures
            with _writes(sys.stderr):
                print(f"dimension={report['dimension']} "
                      f"expected={report['expected']} "
                      f"match={report['match']}", file=sys.stderr)
                for line in failures:
                    print(line, file=sys.stderr)
            return 1 if failures else 0
    except ConfigParse as exc:
        return _tell(f"config error: {exc}", 2)
    except MemoryError as exc:
        return _tell(f"config error: {args.sites} sites x {args.steps} steps "
                     f"does not fit in memory: {exc}", 2)
    except LcqftError as exc:
        return _tell(f"error: {exc}", 1)
    return 2


if __name__ == "__main__":
    sys.exit(main())
