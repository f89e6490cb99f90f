#!/usr/bin/env python3
"""Working memory of the algebra kernel's large operations.

Builds, in one process, two bilinear generators of `1:2` on 8 sites and
their product, the largest elements that the observables' algebra route
(`invariant_projection_check`) meets. That route is the one the
reduction-lemma tests (`tests/test_observables.py`) hold against the forms;
`lcqft verify` reads the forms and builds none of these elements. The kernel
merges each operation's terms at once, so these peaks grow with the
operands. For each large operation it prints the `tracemalloc` peak above
the memory that was live when the operation started, and the best of 7 wall
times (measured with tracing off):

  product      the product of the two generators
  derivation   the product's derivation by the first so(2) rotation
  reflection   the reflection move zeta(r) a - a on the product
  invariance   `invariant_projection_check` of the product (every move)

It times no small operation: a per-call time measured in one process per
tree moves by 30% or more between processes, too much to compare two trees
with; only timing both interleaved in one process resolves that.

    PYTHONPATH=src python3 scripts/kernel_memory.py
"""
import pathlib
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lcqft import algebra as alg
from lcqft import gauge as gg
from lcqft import observables as obs
from lcqft.spacetime import LatticeSpacetime, MassSpectrum

SPECTRUM, SITES, STEPS, DT, SEED, REPEATS = "1:2", 8, 16, 0.5, 6, 7


def generator(rng, st):
    """A bilinear generator of the first mass block, from complex data."""
    q, p, q2, p2 = np.array([1, 1j]) @ rng.standard_normal((4, 2, SITES))
    mass = st.spectrum.entries[0][0]
    return obs.bilinear_generator(st, mass, np.array([q, p]),
                                  np.array([q2, p2]))


def measure(op) -> tuple[float, float]:
    """(MiB of tracemalloc peak above the live memory, best seconds)."""
    tracemalloc.start()
    live = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    op()
    peak = tracemalloc.get_traced_memory()[1] - live
    tracemalloc.stop()
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        op()
        best = min(best, time.perf_counter() - t0)
    return peak / 2 ** 20, best


def main():
    st = LatticeSpacetime(SITES, STEPS, DT, MassSpectrum.parse(SPECTRUM))
    rng = np.random.default_rng(SEED)
    derivations, reflections = gg.presentation(st).algebra_slots
    a, b = generator(rng, st), generator(rng, st)
    prod = a * b
    ops = {
        "product": lambda: a * b,
        "derivation": lambda: alg.derivation(prod, derivations[0]),
        "reflection": lambda: alg.substitute_affine(prod, reflections[0])
        - prod,
        "invariance": lambda: obs.invariant_projection_check(prod),
    }
    print(f"spectrum {SPECTRUM}, N={SITES}, seed {SEED}: generators of "
          f"{len(a.coeffs)} and {len(b.coeffs)} terms, product of "
          f"{len(prod.coeffs)}")
    print(f"{'operation':<12} {'peak MiB':>9} {'best ms':>9}")
    for name, op in ops.items():
        peak, best = measure(op)
        print(f"{name:<12} {peak:9.2f} {best * 1e3:9.2f}")

if __name__ == "__main__":
    main()
