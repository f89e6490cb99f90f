#!/usr/bin/env python3
"""Measure the discretization orders that back the frozen test tolerances.

Two probes:
  1. stepper dispersion: |cos(Omega) - cos(w dt)| against the dt^4 w^4 / 24
     bound used in the mode-evolution test;
  2. null contraction of a lattice right-mover: the small null energy decays
     like N^-6 (third-order dispersion error, squared), which sets the
     right-mover tolerance in the null-energy tests.
"""
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lcqft import dynamics as dyn
from lcqft.spacetime import LatticeSpacetime, MassSpectrum


def stepper_dispersion():
    print("stepper dispersion error vs bound dt^4 w^4 / 24")
    N = 16
    for dt in (0.5, 0.25, 0.125):
        worst_ratio = 0.0
        for mass in (0.5, 1.0, 2.0):
            for k in range(N):
                w2 = mass * mass + 4 * np.sin(np.pi * k / N) ** 2
                err = abs((1 - dt * dt * w2 / 2) - np.cos(np.sqrt(w2) * dt))
                bound = dt ** 4 * w2 ** 2 / 24
                worst_ratio = max(worst_ratio, err / bound)
        print(f"  dt={dt:<6} worst err/bound = {worst_ratio:.4f}")


def right_mover_decay():
    print("right-mover small null contraction (max over the grid)")
    prev = None
    for N in (8, 16, 32, 64):
        st = LatticeSpacetime(N, 8, 0.5, MassSpectrum.parse("0:1"))
        theta = 2 * np.pi / N
        x = np.arange(N)
        q, p = np.cos(theta * x)[None, :], (theta * np.sin(theta * x))[None, :]
        grid = dyn.null_energy_grids(st, q, p)
        small = float(np.max(grid[..., 0]))
        order = "" if prev is None else f"   order ~ {np.log2(prev / small):.2f}"
        print(f"  N={N:<3} small={small:.3e} scaled(N^6)={small * N ** 6:.1f}"
              + order)
        prev = small


if __name__ == "__main__":
    stepper_dispersion()
    right_mover_decay()
