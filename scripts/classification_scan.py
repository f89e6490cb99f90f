#!/usr/bin/env python3
"""Scan the endomorphism classification over spectra and lattice sizes.

Prints one row per configuration: the commutant dimension, the constrained
nullspace dimension against the in-block so(nu(m)) expectation, the
quarantined massless zero-mode directions, the solved affine dimension against
nu(0), and the worst soundness residual.
Useful for probing whether two null directions keep pinning the answer as the
lattice grows (any surplus shows up as match=False, never silently).
"""
import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lcqft.classify import classify
from lcqft.errors import LcqftError
from lcqft.spacetime import LatticeSpacetime, MassSpectrum


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spectra", default="1:1,,1:2,,1:3,,1:2,2:3,,0:1,1:2",
                        help="double-comma-separated spectrum strings")
    parser.add_argument("--sites", default="8,12,16,32")
    parser.add_argument("--steps", type=int, default=16)
    parser.add_argument("--dt", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spectra = [s for s in args.spectra.split(",,") if s]
    sizes = [int(n) for n in args.sites.split(",")]

    header = (f"{'spectrum':>12} {'N':>3} {'commutant':>9} {'dim':>4} "
              f"{'expect':>6} {'match':>5} {'zero-mode':>9} {'affine':>6} "
              f"{'soundness':>10} {'secs':>6}")
    print(header)
    print("-" * len(header))
    for spec in spectra:
        for n in sizes:
            try:
                st = LatticeSpacetime(n, args.steps, args.dt,
                                      MassSpectrum.parse(spec))
            except LcqftError as exc:
                print(f"{spec:>12} {n:>3}  skipped: {exc}")
                continue
            t0 = time.perf_counter()
            try:
                rep = classify(st, seed=args.seed)
            except LcqftError as exc:
                print(f"{spec:>12} {n:>3}  failed: {exc}")
                continue
            soundness = max(rep["residuals"][k] for k in
                            ("soundness_sigma", "soundness_null_energy",
                             "soundness_rce_commute"))
            affine = f"{rep['affine']['dimension']}/{rep['affine']['expected']}"
            print(f"{spec:>12} {n:>3} {rep['commutant_dimension']:>9} "
                  f"{rep['dimension']:>4} {rep['expected']:>6} "
                  f"{str(rep['match']):>5} {rep['zero_mode_dimension']:>9} "
                  f"{affine:>6} {soundness:>10.2e} "
                  f"{time.perf_counter() - t0:>6.1f}")
            for line in rep["findings"]:
                print(f"{'':>16} * {line}")


if __name__ == "__main__":
    main()
