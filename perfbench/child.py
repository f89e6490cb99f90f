"""Run one lcqft command in a fresh interpreter, for the benchmark.

    python3 perfbench/child.py MODE STATS_PATH CLI_ARG...

The command runs through `lcqft.cli.main`, the entry point of the `lcqft`
console script. MODE is one of

    run    run the command;
    trace  run it with spans recorded around the calls into each layer;
    setup  stop at the first call into a suite or the classifier.

The JSON stats file receives `first_call`, the CLOCK_MONOTONIC instant of
that first call (the parent subtracts its spawn instant to get the set-up
time), and in trace mode the spans, each `[name, start, end, parent, a, b]`
with `time.perf_counter` times, the index of the enclosing span (-1 at top
level) and two counts whose meaning depends on the span (see `install`).
Nothing under `src/` is touched: the wrappers are bound over the original
functions in this process only.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class StopAtFirstCall(Exception):
    """Raised in setup mode when the command reaches its first suite call."""


class Tracer:
    """In-memory span recorder; spans are written out when the command ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: set[str] = set()

    def wrap(self, name: str, fn, counts=None, when=None, outermost=False):
        """Wrap fn in a span called `name`.

        counts(args, kwargs, result) -> (a, b) fills the span's counts;
        when(args) -> bool limits spans to matching calls; outermost=True
        records a recursive function once, at its outermost call.
        """
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, open_names = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (when is not None and not when(args)) or \
                    (outermost and name in open_names):
                return fn(*args, **kwargs)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            if outermost:
                open_names.add(name)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                open_names.discard(name)
            if counts is not None:
                span[4], span[5] = counts(args, kwargs, out)
            return out

        return wrapper


def _rebind(current, new) -> int:
    """Bind `new` in every lcqft namespace (and SUITE_FUNCS) that binds
    `current`, so that calls through a name imported by value see it too."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "lcqft" or mod_name.startswith("lcqft.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is current:
                setattr(mod, attr, new)
                count += 1
    suite_funcs = sys.modules["lcqft.suites"].SUITE_FUNCS
    for key, value in list(suite_funcs.items()):
        if value is current:
            suite_funcs[key] = new
            count += 1
    if not count:
        raise RuntimeError(f"{getattr(current, '__name__', current)} is bound nowhere")
    return count


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def install(tracer: Tracer):
    """Wrap the public functions of each layer (see the per-layer table in
    README.md). Counts per span name:

    algebra.substitute      terms in, terms out
    algebra.product         |a|*|b| term pairs, terms out
    states.evaluate         terms evaluated
    dynamics.evolve         slices (batch size * steps)
    observables.invariance_check   group samples
    classify.constraints    rows
    classify.nullspace      cells (rows * cols of the SVD input)
    """
    from lcqft import (_linalg, algebra, classify, dynamics, exact_algebra,
                       gauge, kinematics, observables, serialize, states, suites)

    def fn(module, attr, name, **kw):
        current = getattr(module, attr)
        _rebind(current, tracer.wrap(name, current, **kw))

    def method(cls, attr, name, **kw):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **kw))

    for suite, func in list(suites.SUITE_FUNCS.items()):
        _rebind(func, tracer.wrap(f"suites.{suite}", func))
    fn(classify, "classify", "classify.run")

    n_terms = lambda x: len(x.terms)  # noqa: E731
    fn(algebra, "substitute_affine", "algebra.substitute",
       counts=lambda a, k, out: (n_terms(a[0]), n_terms(out)))
    method(algebra.AlgebraElement, "__mul__", "algebra.product",
           when=lambda a: isinstance(a[1], algebra.AlgebraElement),
           counts=lambda a, k, out: (n_terms(a[0]) * n_terms(a[1]), n_terms(out)))
    fn(algebra, "max_coeff_diff", "algebra.compare")
    fn(exact_algebra, "exact_product", "exact_algebra.product")

    method(gauge.QuantumAction, "__init__", "gauge.action_build")
    method(gauge.QuantumAction, "__call__", "gauge.action")

    samples_default = observables.invariant_projection_check.__defaults__[0]
    fn(observables, "invariant_projection_check", "observables.invariance_check",
       counts=lambda a, k, out: (_arg(a, k, 2, "samples", samples_default), 0))
    fn(observables, "affine_derivative", "observables.affine_derivative")

    method(states.QuasifreeState, "evaluate", "states.evaluate",
           counts=lambda a, k, out: (n_terms(a[1]), 0))

    def slices(a, k, out):
        shape = getattr(a[0], "shape", ())
        steps = abs(_arg(a, k, 4, "t_to") - _arg(a, k, 3, "t_from"))
        return math.prod(shape[:-2]) * steps, 0

    fn(dynamics, "evolve_data", "dynamics.evolve", counts=slices)
    fn(dynamics, "propagate_test_function", "dynamics.propagate")
    fn(dynamics, "relative_cauchy_evolution", "dynamics.rce")
    fn(dynamics, "rce_matrix", "dynamics.rce")
    fn(dynamics, "rce_derivative", "dynamics.rce_derivative")

    fn(kinematics, "region_solution_basis", "kinematics.region_basis")
    fn(kinematics, "membership_residual", "kinematics.membership")
    fn(kinematics, "solution_map", "kinematics.solution_map")

    fn(classify, "build_commutant_basis", "classify.commutant")
    fn(classify, "split_zero_mode", "classify.zero_mode_split")
    fn(classify, "constraint_rows_for_solution", "classify.constraints",
       counts=lambda a, k, out: (out.shape[0], 0))
    fn(_linalg, "nullspace", "classify.nullspace",
       counts=lambda a, k, out: (getattr(a[0], "size", 0), 0))
    fn(classify, "generator_soundness", "classify.soundness")

    fn(serialize, "dumps", "serialize.dumps", outermost=True)


def main(argv: list[str]) -> int:
    mode, stats_path, cli_args = argv[0], Path(argv[1]), argv[2:]
    if mode not in ("run", "trace", "setup"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 3

    import lcqft.cli
    from lcqft import classify, suites

    if not Path(lcqft.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"lcqft imported from {lcqft.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        install(tracer)

    stats = {"first_call": None}

    def mark(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stats["first_call"] is None:
                stats["first_call"] = time.monotonic()
                if mode == "setup":
                    raise StopAtFirstCall
            return func(*args, **kwargs)
        return wrapper

    for func in [classify.classify, *suites.SUITE_FUNCS.values()]:
        _rebind(func, mark(func))

    try:
        return lcqft.cli.main(cli_args)
    except StopAtFirstCall:
        return 0
    finally:
        if tracer is not None:
            stats["names"] = tracer.names
            stats["spans"] = tracer.spans
        stats_path.write_text(json.dumps(stats))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
