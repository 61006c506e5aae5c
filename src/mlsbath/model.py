"""System definition: level energies, real-symmetric couplings, initial states.

The system is always specified in its eigenbasis.  Level indices are
1-based in the physics convention used throughout the docstrings
(levels 1 and 2 form the qubit subspace); array indices are 0-based.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "SystemSpec",
    "QubitInitialState",
    "DensityMatrix",
    "build_three_level",
    "build_two_level",
    "build_multilevel",
    "default_initial_state",
    "initial_density",
    "interaction_coupling",
    "interaction_phases",
]

QUBIT_ENERGY = 0.5
THIRD_LEVEL_ENERGY = 2.5
BASE_COUPLING = 0.1


def is_finite(value) -> bool:
    """False when ``value`` is, or holds, a non-finite float or complex."""
    if isinstance(value, tuple):
        return all(is_finite(v) for v in value)
    return not isinstance(value, (float, complex)) or cmath.isfinite(value)


def require_finite(config) -> None:
    """Raise ValueError naming the first field of dataclass ``config`` that
    is, or holds, inf or NaN."""
    for f in fields(config):
        if not is_finite(getattr(config, f.name)):
            raise ValueError(f"{f.name} must be finite, got {getattr(config, f.name)!r}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Eigenenergies and the real-symmetric environment-coupling matrix.

    Instances are immutable (arrays are read-only), so one instance
    serves every row of a batched integration.

    Parameters
    ----------
    energies : (M,) array of float
        Eigenenergies in the absolute (dimensionless) energy unit,
        sorted non-decreasing.
    coupling : (M, M) array of float
        Dimensionless coupling matrix elements between eigenstates.
        Must be symmetric with zero diagonal.
    """

    energies: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        energies = _readonly(np.asarray(self.energies, dtype=float))
        coupling = _readonly(np.asarray(self.coupling, dtype=float))
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "coupling", coupling)
        if energies.ndim != 1 or energies.size < 1:
            raise ValueError("energies must be a non-empty 1-d array")
        if not np.all(np.isfinite(energies)):
            raise ValueError("energies must be finite")
        if np.any(np.diff(energies) < 0):
            raise ValueError("energies must be sorted non-decreasing")
        if coupling.shape != (energies.size, energies.size):
            raise ValueError(
                f"coupling must be {energies.size}x{energies.size}, got {coupling.shape}"
            )
        if not np.array_equal(coupling, coupling.T):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(coupling) != 0.0):
            raise ValueError("diagonal coupling elements must be zero")

    @property
    def n_levels(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class QubitInitialState:
    """Amplitudes of levels 1 and 2; must be normalized to 1 within 1e-12."""

    a: complex
    b: complex

    def __post_init__(self):
        require_finite(self)
        norm = abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |a|^2+|b|^2 = {norm!r}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """An M x M complex matrix validated as a physical density matrix.

    Hermiticity is required within 1e-10, the trace must equal 1 within
    1e-8, and diagonal entries must lie in [-slack, 1+slack].  Positivity
    is deliberately not asserted: the non-Markovian dynamics produced by
    the memory kernel is not of Lindblad form and does not guarantee it.
    """

    entries: np.ndarray
    _DIAG_SLACK = 1e-8

    def __post_init__(self):
        entries = _readonly(np.asarray(self.entries, dtype=complex))
        object.__setattr__(self, "entries", entries)
        m = entries.shape[0]
        if entries.ndim != 2 or entries.shape != (m, m):
            raise ValueError(f"density matrix must be square, got {entries.shape}")
        defect = np.max(np.abs(entries - entries.conj().T))
        if defect > 1e-10:
            raise ValueError(f"not Hermitian: max defect {defect:.3e}")
        tr = np.trace(entries)
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"trace must be 1, got {tr!r}")
        diag = np.real(np.diag(entries))
        if np.any(diag < -self._DIAG_SLACK) or np.any(diag > 1.0 + self._DIAG_SLACK):
            raise ValueError("diagonal entries outside [0, 1] beyond numerical slack")

    @property
    def n_levels(self) -> int:
        return self.entries.shape[0]


def _parity_mask(m: int) -> np.ndarray:
    # n + r odd in 1-based level labels, which excludes the diagonal
    idx = np.arange(1, m + 1)
    return (idx[:, None] + idx[None, :]) % 2 == 1


def _ladder_energies(m: int) -> np.ndarray:
    # two degenerate qubit levels, then the harmonic ladder E_n = n - 1/2
    return np.array([QUBIT_ENERGY, QUBIT_ENERGY] + [n - 0.5 for n in range(3, m + 1)])


def build_three_level() -> SystemSpec:
    """Reference three-level system: E = (0.5, 0.5, 2.5), couplings
    0.1 between levels (1,2) and (2,3), none between (1,3)."""
    coupling = np.zeros((3, 3))
    coupling[0, 1] = coupling[1, 0] = BASE_COUPLING
    coupling[1, 2] = coupling[2, 1] = BASE_COUPLING
    return SystemSpec(np.array([QUBIT_ENERGY, QUBIT_ENERGY, THIRD_LEVEL_ENERGY]), coupling)


def build_two_level() -> SystemSpec:
    """Three-level system with all couplings to the third level removed.

    Keeps the 3x3 layout so the leakage observable remains defined (it
    stays identically zero under evolution).
    """
    coupling = np.zeros((3, 3))
    coupling[0, 1] = coupling[1, 0] = BASE_COUPLING
    return SystemSpec(np.array([QUBIT_ENERGY, QUBIT_ENERGY, THIRD_LEVEL_ENERGY]), coupling)


def build_multilevel(n_levels: int, delta: float | None = None, flat: bool = False) -> SystemSpec:
    """Multilevel system with a harmonic ladder above the qubit pair.

    Couplings obey the parity selection rule (nonzero only for n+r odd
    in 1-based labels).  With ``flat=True`` every allowed element is 0.1;
    otherwise elements fall off as ``0.1 * exp(-|n-r|/delta)`` with the
    coupling range ``delta``.

    Parameters
    ----------
    n_levels : int
        Number of levels M >= 2.
    delta : float, optional
        Coupling range; required (and > 0) unless ``flat``.
    flat : bool
        Use the constant-coupling rule instead of the exponential one.
    """
    if n_levels < 2:
        raise ValueError(f"need at least 2 levels, got {n_levels}")
    if delta is not None and delta <= 0:
        raise ValueError(f"coupling range must be positive, got {delta}")
    if not flat and delta is None:
        raise ValueError("delta is required unless flat=True")
    mask = _parity_mask(n_levels)
    if flat:
        coupling = np.where(mask, BASE_COUPLING, 0.0)
    else:
        n = np.arange(n_levels)
        falloff = np.exp(-np.abs(n[:, None] - n[None, :]) / delta)
        coupling = np.where(mask, BASE_COUPLING * falloff, 0.0)
    return SystemSpec(_ladder_energies(n_levels), coupling)


def default_initial_state() -> QubitInitialState:
    """Standard qubit superposition: a = sqrt(0.1), b = i*sqrt(0.9)."""
    return QubitInitialState(complex(math.sqrt(0.1)), 1j * math.sqrt(0.9))


def initial_density(state: QubitInitialState, n_levels: int) -> DensityMatrix:
    """Density matrix of the pure qubit-subspace state embedded in M levels."""
    if n_levels < 2:
        raise ValueError(f"need at least 2 levels, got {n_levels}")
    rho = np.zeros((n_levels, n_levels), dtype=complex)
    rho[0, 0] = abs(state.a) ** 2
    rho[1, 1] = abs(state.b) ** 2
    rho[0, 1] = state.a * np.conj(state.b)
    rho[1, 0] = np.conj(rho[0, 1])
    return DensityMatrix(rho)


def interaction_phases(spec: SystemSpec, t: float | np.ndarray) -> np.ndarray:
    """Phases ``exp(-1j*(E_n - E_r)*t)`` that carry the bare coupling into
    the interaction picture at time t, shaped like
    :func:`interaction_coupling`."""
    gaps = spec.energies[:, None] - spec.energies[None, :]
    phases = -1j * gaps * t
    # in place: a stack of phases for many times takes one array's memory
    return np.exp(phases, out=phases)


def interaction_coupling(spec: SystemSpec, t: float | np.ndarray) -> np.ndarray:
    """Interaction-picture coupling matrix at time t, or a stack of them when
    t is an array that broadcasts against (M, M), such as shape (n, 1, 1).

    Entry (n, r) is ``coupling[n, r] * exp(-1j*(E_n - E_r)*t)``; each
    matrix is Hermitian because the bare matrix is real-symmetric.
    """
    return spec.coupling * interaction_phases(spec, t)
