#!/usr/bin/env python3
"""How many levels does decoherence actually see?

With couplings falling off as exp(-|n-r|/range), adding levels speeds up
relaxation, dephasing and leakage until the level count passes the
coupling range, after which the rates saturate.  Truncating such a
system to its lowest two levels misses both the leakage channel and a
large part of the relaxation.

Run:  python demos/04_multilevel_saturation.py   (under a second)
"""

from mlsbath import (
    EvolutionConfig,
    FitWindow,
    Lorentzian,
    build_multilevel,
    default_initial_state,
    extract_rates,
    initial_density,
    integrate,
)

model = Lorentzian(5.0, 0.0, 8.0)
cfg = EvolutionConfig(t_max=2.5, dt=0.004)
window = FitWindow(1.0, 2.5)
coupling_range = 8.0

print(f"coupling range = {coupling_range}; watch the rates level off near 2x the range")
print(f"{'levels':>7} {'relaxation':>12} {'dephasing':>12} {'leakage':>12}")
for m in (2, 3, 4, 6, 8, 12, 16, 20):
    spec = build_multilevel(m, delta=coupling_range)
    rho0 = initial_density(default_initial_state(), m)
    rates = extract_rates(integrate(spec, model, rho0, cfg), window)
    print(
        f"{m:7d} {rates.relaxation_rate:12.6f} {rates.dephasing_rate:12.6f}"
        f" {rates.leakage_rate:12.6f}"
    )

print("\nThe two-level row has no leakage at all and visibly slower relaxation:")
print("a two-level truncation is not a safe approximation here.")
