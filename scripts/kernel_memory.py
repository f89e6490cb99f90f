#!/usr/bin/env python3
"""Working memory and time of the algebra kernel's operations.

Builds, in one process, the elements that `lcqft verify all --spectrum 1:2
--sites 8` works on: two bilinear generators of the observables suite and
their product, and one kinematic diamond of the gauge suite, then a 4-term
degree-3 element x (terms of degree 3, 3, 2 and 1) and a 2-term element y.

The first table gives the time per call of the small operations, the best
of 7 runs of 1000 calls each:

  substitution  a random gauge action on x (a substitution of width 2)
  relabel       the first block reflection on x (width 1)
  derivation    the derivation of x by the first so(2) rotation
  product       x * y
  sum           x + y
  comparison    max_coeff_diff(x, y)

The second gives, for each large operation, the `tracemalloc` peak above
the memory that was live when the operation started, and the best of 7
wall times (measured with tracing off):

  product      the product of the two generators
  derivation   the product's derivation by the first so(2) rotation
  reflection   the reflection move zeta(r) a - a on the product
  invariance   `invariant_projection_check` of the product (every move)
  membership   `membership_residual` of one diamond's moved elements

    PYTHONPATH=src python3 scripts/kernel_memory.py
"""
import pathlib
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lcqft import algebra as alg
from lcqft import dynamics as dyn
from lcqft import gauge as gg
from lcqft import kinematics as kin
from lcqft import observables as obs
from lcqft.spacetime import LatticeSpacetime, MassSpectrum, domain_of_dependence

SPECTRUM, SITES, STEPS, DT, SEED, REPEATS = "1:2", 8, 16, 0.5, 6, 7
CALLS = 1000  # calls per timed run of a small operation


def generator(rng, st):
    """A bilinear generator of the first mass block, from complex data."""
    q, p, q2, p2 = np.array([1, 1j]) @ rng.standard_normal((4, 2, SITES))
    mass = st.spectrum.entries[0][0]
    return obs.bilinear_generator(st, mass, dyn.ScalarData(st, q, p),
                                  dyn.ScalarData(st, q2, p2))


def diamond(rng, st, pres):
    """The moved elements of one diamond of the gauge suite, and its basis."""
    region = domain_of_dependence(3, 0, 4, st)
    basis = kin.region_solution_basis(region)
    moved = []
    for _ in range(3):
        v1, v2 = (dyn.solution_from_vec(st, basis @ (
            rng.standard_normal(basis.shape[1])
            + 1j * rng.standard_normal(basis.shape[1]))) for _ in range(2))
        moved.extend(pres.moves(alg.field(v1) * alg.field(v2) + alg.field(v1)))
    return moved, basis


def small(rng, st, degrees):
    """An element with one term of each degree in `degrees`, random indices
    and coefficients."""
    return alg.AlgebraElement(st, {
        tuple(rng.integers(0, st.data_dim, size=d)):
            complex(*rng.standard_normal(2)) for d in degrees})


def per_call(op) -> float:
    """Best seconds per call over REPEATS runs of CALLS calls."""
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            op()
        best = min(best, (time.perf_counter() - t0) / CALLS)
    return best


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
    x, y = small(rng, st, (3, 3, 2, 1)), small(rng, st, (2, 1))
    action = gg.QuantumAction(gg.random_gauge(rng, st.spectrum), st)
    # timed first, on an allocator that only the set-up has used: after the
    # large operations its state depends on their frees, which can shift
    # these times by more than the differences they are read for
    small_ops = {
        "substitution": lambda: action(x),
        "relabel": lambda: pres.reflections[0](x),
        "derivation": lambda: alg.derivation(x, pres.rotations[0]),
        "product": lambda: x * y,
        "sum": lambda: x + y,
        "comparison": lambda: alg.max_coeff_diff(x, y),
    }
    print(f"x of {len(x.coeffs)} terms, degree {x.degree}; y of "
          f"{len(y.coeffs)} terms")
    print(f"{'operation':<12} {'best us/call':>13}")
    for name, op in small_ops.items():
        print(f"{name:<12} {per_call(op) * 1e6:13.1f}")

    ops = {
        "product": lambda: a * b,
        "derivation": lambda: alg.derivation(prod, pres.rotations[0]),
        "reflection": lambda: pres.reflections[0](prod) - prod,
        "invariance": lambda: obs.invariant_projection_check(prod),
        "membership": lambda: kin.membership_residual(moved, basis),
    }
    print(f"\nspectrum {SPECTRUM}, N={SITES}, seed {SEED}: generators of "
          f"{len(a.coeffs)} and {len(b.coeffs)} terms, product of "
          f"{len(prod.coeffs)}, diamond of {len(moved)} moved elements")
    print(f"{'operation':<12} {'peak MiB':>9} {'best ms':>9}")
    for name, op in ops.items():
        peak, best = measure(op)
        print(f"{name:<12} {peak:9.2f} {best * 1e3:9.2f}")

if __name__ == "__main__":
    main()
