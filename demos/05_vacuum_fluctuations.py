#!/usr/bin/env python3
"""Mode-number corrections in the environment at zero temperature.

Even with the bath in its vacuum, the coupling stirs up a finite number
of environmental excitations.  The second-order estimate diverges at the
virtual-transition pole; the RPA resummation splits the double pole and
gives a finite total N with fluctuation Delta N.

Shown below: N grows linearly with the spectral area, Delta N as its
square root, so their ratio falls as area^(-1/2); Delta N is flat under
width changes at fixed area; more coupled levels excite more modes while
shrinking the relative fluctuation.

Run:  python demos/05_vacuum_fluctuations.py   (under a second)
"""

import math

import numpy as np

from mlsbath import (
    Rectangular,
    build_multilevel,
    build_three_level,
    default_initial_state,
    delta_n_total,
    n_second_order,
    rpa_number_density,
)

spec = build_three_level()
state = default_initial_state()

print("Second order vs RPA near the virtual-transition pole (omega -> 2):")
for omega in (2.5, 2.1, 2.01, 2.001):
    second = n_second_order(spec, Rectangular(5.0, 2.0, 1.0), state, omega)
    resummed = rpa_number_density(spec, Rectangular(5.0, 2.0, 1.0), state, omega, shift=1e-4)
    print(f"  omega={omega:7.3f}  second-order={second:12.4e}  resummed={resummed:12.4e}")
print("  (the second-order density blows up as 1/detuning^2; the resummed one")
print("   grows only like a simple pole, which the principal value integrates)")

print("\nArea scan (center 12, half-width 1):")
print(f"{'area':>10} {'N':>12} {'Delta N':>12} {'ratio':>10}")
areas = np.logspace(np.log10(math.pi / 2), np.log10(50 * math.pi), 7)
results = [delta_n_total(spec, Rectangular(a, 12.0, 1.0), state) for a in areas]
for a, r in zip(areas, results):
    print(f"{a:10.3f} {r.n_total:12.6f} {r.delta_n:12.6f} {r.ratio:10.4f}")
slope = np.polyfit(np.log(areas), np.log([r.ratio for r in results]), 1)[0]
print(f"  log-log slope of Delta N / N vs area: {slope:.3f}  (inverse square root: -0.5)")

print("\nWidth scan at fixed area 5*pi (center 8): the fluctuation is shape-blind")
for eps in np.linspace(0.5, 1.5, 5):
    r = delta_n_total(spec, Rectangular(5 * math.pi, 8.0, eps), state)
    print(f"  half-width={eps:4.2f}  Delta N={r.delta_n:.6f}")

print("\nLevel count scan at fixed area 5*pi (flat couplings):")
print(f"{'levels':>7} {'N':>12} {'Delta N':>12} {'ratio':>10}")
for m in (2, 3, 10):
    r = delta_n_total(build_multilevel(m, flat=True), Rectangular(5 * math.pi, 12.0, 1.0), state)
    print(f"{m:7d} {r.n_total:12.6f} {r.delta_n:12.6f} {r.ratio:10.4f}")
print("  (N and Delta N grow with the level count, their ratio falls)")
