#!/usr/bin/env python3
"""Tour of the building blocks: systems, spectral models, correlators.

Run:  python demos/01_system_and_spectra.py
"""

import numpy as np

from mlsbath import (
    Lorentzian,
    PowerGaussian,
    Rectangular,
    build_multilevel,
    build_three_level,
    correlator,
    evaluate,
    interaction_coupling,
)

print("=" * 70)
print("The reference three-level system")
print("=" * 70)
spec = build_three_level()
print("energies:", spec.energies)
print("coupling matrix:\n", spec.coupling)

print("\nInteraction picture at t = 1.0 (qubit pair static, third level rotates):")
print(np.round(interaction_coupling(spec, 1.0), 4))

print("\n" + "=" * 70)
print("A ten-level system with exponentially ranged couplings (range 8)")
print("=" * 70)
big = build_multilevel(10, delta=8.0)
print("energies:", big.energies)
print("first row of couplings:", np.round(big.coupling[0], 4))

print("\n" + "=" * 70)
print("Three spectral families at equal area")
print("=" * 70)
models = {
    "rectangular": Rectangular(5.0, 2.0, 1.0),
    "lorentzian": Lorentzian(5.0, 2.0, 1.0),
    "power-gaussian (ohmic)": PowerGaussian(5.0, 0.0, 1.0),
}
omegas = np.linspace(0.0, 5.0, 11)
header = "omega   " + "".join(f"{name:>24}" for name in models)
print(header)
for w in omegas:
    row = f"{w:5.2f}  " + "".join(f"{evaluate(m, w):24.6f}" for m in models.values())
    print(row)
print("\nareas:", {name: round(m.area, 12) for name, m in models.items()})

print("\n" + "=" * 70)
print("Noise correlators: equal value at tau = 0+, different memories")
print("=" * 70)
taus = [0.0, 0.5, 1.0, 2.0, 3.0]
print("tau     " + "".join(f"{name:>24}" for name in models))
for tau in taus:
    vals = [correlator(m, tau) for m in models.values()]
    print(f"{tau:5.2f}  " + "".join(f"{abs(v):24.6f}" for v in vals))
print("\n(|F| shown; the rectangular memory rings as a sinc, the Lorentzian")
print(" decays exponentially, and every family starts at the spectral area.)")
