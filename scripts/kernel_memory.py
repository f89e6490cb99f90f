#!/usr/bin/env python3
"""Working memory of the algebra kernel's large operations.

Builds, in one process, the elements that `lcqft verify all --spectrum 1:2
--sites 8` works on: two bilinear generators of the observables suite and
their product, and one kinematic diamond of the gauge suite. For each large
operation it prints the `tracemalloc` peak above the memory that was live
when the operation started, and the best of 7 wall times (measured with
tracing off):

  product      the product of the two generators
  derivation   the product's derivation by the first so(2) rotation
  reflection   the reflection move zeta(r) a - a on the product
  invariance   `invariant_projection_check` of the product (every move)
  membership   `membership_residual` of one diamond's moved elements

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
from lcqft import kinematics as kin
from lcqft import observables as obs
from lcqft.spacetime import LatticeSpacetime, MassSpectrum, domain_of_dependence

SPECTRUM, SITES, STEPS, DT, SEED, REPEATS = "1:2", 8, 16, 0.5, 6, 7


def generator(rng, st):
    """A bilinear generator of the first mass block, from complex data."""
    q, p, q2, p2 = np.array([1, 1j]) @ rng.standard_normal((4, 2, SITES))
    mass = st.spectrum.entries[0][0]
    return obs.bilinear_generator(st, mass, np.array([q, p]),
                                  np.array([q2, p2]))


def diamond(rng, st, pres):
    """The moved elements of one diamond of the gauge suite, and its basis."""
    region = domain_of_dependence(3, 0, 4, st)
    basis = kin.region_solution_basis(region)
    moved = []
    for _ in range(3):
        f1, f2 = (alg.fields(st, basis @ (
            rng.standard_normal(basis.shape[1])
            + 1j * rng.standard_normal(basis.shape[1]))) for _ in range(2))
        moved.extend(pres.moves(f1 * f2 + f1))
    return moved, basis


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
    pres = gg.presentation(st)
    a, b = generator(rng, st), generator(rng, st)
    prod = a * b
    moved, basis = diamond(rng, st, pres)
    ops = {
        "product": lambda: a * b,
        "derivation": lambda: alg.derivation(prod, pres.rotations[0]),
        "reflection": lambda: pres.reflections[0](prod) - prod,
        "invariance": lambda: obs.invariant_projection_check(prod),
        "membership": lambda: kin.membership_residual(moved, basis),
    }
    print(f"spectrum {SPECTRUM}, N={SITES}, seed {SEED}: generators of "
          f"{len(a.coeffs)} and {len(b.coeffs)} terms, product of "
          f"{len(prod.coeffs)}, diamond of {len(moved)} moved elements")
    print(f"{'operation':<12} {'peak MiB':>9} {'best ms':>9}")
    for name, op in ops.items():
        peak, best = measure(op)
        print(f"{name:<12} {peak:9.2f} {best * 1e3:9.2f}")

if __name__ == "__main__":
    main()
