#!/usr/bin/env python3
"""The two headline spectral trends of the decoherence rates.

1. At fixed shape, the relaxation/dephasing/leakage rates grow linearly
   with the spectral area across decades.
2. At fixed area, the rates barely notice where the spectrum sits or
   which family it comes from.

Run:  python demos/03_area_and_shape_trends.py   (under a second)
"""

import math

import numpy as np

from mlsbath import (
    EvolutionConfig,
    FitWindow,
    Lorentzian,
    Rectangular,
    build_three_level,
    default_initial_state,
    extract_rates,
    initial_density,
    integrate,
)

spec = build_three_level()
rho0 = initial_density(default_initial_state(), 3)
cfg = EvolutionConfig(t_max=2.5, dt=0.004)
window = FitWindow(1.0, 2.5)


def rates_for(model):
    return extract_rates(integrate(spec, model, rho0, cfg), window)


print("Area scan: wide rectangular spectrum (center 0, half-width 100)")
print(f"{'area':>8} {'relaxation':>12} {'dephasing':>12} {'leakage':>12}")
areas = np.logspace(np.log10(0.5), np.log10(500.0), 7)
rows = [rates_for(Rectangular(a, 0.0, 100.0)) for a in areas]
for a, r in zip(areas, rows):
    print(f"{a:8.2f} {r.relaxation_rate:12.6f} {r.dephasing_rate:12.6f} {r.leakage_rate:12.6f}")

for attr in ("relaxation_rate", "dephasing_rate", "leakage_rate"):
    vals = [getattr(r, attr) for r in rows]
    slope = np.polyfit(np.log(areas), np.log(vals), 1)[0]
    print(f"  log-log slope of {attr}: {slope:.3f}  (linear in area: 1.0)")

print("\nCenter scan at fixed area 5 (half-width 8): translation barely matters")
print(f"{'center':>8} {'relaxation':>12} {'dephasing':>12} {'leakage':>12}")
vals = []
for center in np.linspace(0.0, 5.0, 6):
    r = rates_for(Rectangular(5.0, center, 8.0))
    vals.append(r)
    print(f"{center:8.2f} {r.relaxation_rate:12.6f} {r.dephasing_rate:12.6f} {r.leakage_rate:12.6f}")
relax = np.array([r.relaxation_rate for r in vals])
print(f"  coefficient of variation (relaxation): {relax.std() / relax.mean():.3f}")

print("\nShape swap at equal area and matched peak density:")
rect = rates_for(Rectangular(5.0, 0.0, 40.0))
lor = rates_for(Lorentzian(5.0, 0.0, 40.0 * 2.0 / math.pi))
print(f"  rectangular: R={rect.relaxation_rate:.6f} D={rect.dephasing_rate:.6f} "
      f"L={rect.leakage_rate:.6f}")
print(f"  lorentzian : R={lor.relaxation_rate:.6f} D={lor.dephasing_rate:.6f} "
      f"L={lor.leakage_rate:.6f}")
print("  (the two families produce the same decoherence at the same area)")
