"""Environmental mode-number corrections and their fluctuations.

At second order in the coupling, the environment acquires a mode-number
density

    n2(omega) = sum_s 2 I(omega) g_s / d_s(omega)^2,

where ``d_s(omega) = omega + E_1 - E_s`` is the virtual-transition
detuning of channel ``s`` and ``g_s`` is the initial-state-weighted
squared coupling of the qubit pair into that channel,

    g_s = |a|^2 phi_1s^2 + |b|^2 phi_2s^2 + 2 Re(a* b) phi_1s phi_2s.

The double pole at zero detuning makes the integrated second-order
photon number diverge.  A geometric (RPA) resummation splits it into
two first-order poles, giving the finite density

    n_rpa(omega) = sum_s 2 g_s I(omega) / (d_s (d_s - 4 g_s I(omega))),

whose integral is the total correction N.  The total fluctuation uses
the pair denominator ``p_s(omega) = omega + d_s(omega)`` in the same
resummed geometry,

    (Delta N)^2 = sum_s integral 4 g_s I(omega) / (p_s (p_s - 4 g_s I)) d omega

(the coupling-free baseline ``integral d omega / p_s`` vanishes in the
symmetric principal-value limit and is dropped).  All real poles are
handled by an imaginary shift ``i*delta`` of the denominators; results
are Richardson-extrapolated over a ladder of halved shifts, and a
non-decreasing ladder is flagged as non-convergent.
"""

from __future__ import annotations

from dataclasses import dataclass
from warnings import catch_warnings, simplefilter, warn_explicit

import numpy as np

from .model import QubitInitialState, SystemSpec, require_finite
from .spectra import SpectralModel, evaluate

__all__ = [
    "RpaConfig",
    "FluctuationResult",
    "channel_weights",
    "n_second_order",
    "rpa_number_density",
    "delta_n_total",
]

# subdivision cap of the adaptive rule in each channel integral
QUAD_LIMIT = 200


@dataclass(frozen=True)
class RpaConfig:
    """Pole regularization and quadrature controls.

    ``pole_shift`` is the largest imaginary shift of the ladder;
    ``ladder`` shifts are used, each half the previous.  ``omega_max``
    bounds the integration and pole-scan window (it should lie beyond
    the spectral support; infinite supports are clipped to it).
    ``scan_points`` is the resolution of the sign-change bracketing scan
    that locates resummation-denominator zeros before quadrature.
    """

    pole_shift: float = 1e-2
    ladder: int = 4
    omega_max: float = 1000.0
    scan_points: int = 10_000

    def __post_init__(self):
        require_finite(self)
        if self.pole_shift <= 0:
            raise ValueError(f"pole_shift must be positive, got {self.pole_shift}")
        if self.ladder < 2:
            raise ValueError("ladder must have at least 2 rungs to extrapolate")
        if self.omega_max <= 0:
            raise ValueError(f"omega_max must be positive, got {self.omega_max}")
        if self.scan_points < 100:
            raise ValueError("scan_points too small for reliable bracketing")


@dataclass(frozen=True)
class FluctuationResult:
    """Total mode-number correction N, fluctuation Delta N, and their ratio."""

    n_total: float
    delta_n: float
    ratio: float
    warnings: tuple[str, ...] = ()


def channel_weights(spec: SystemSpec, state: QubitInitialState) -> np.ndarray:
    """State-weighted squared couplings g_s of the qubit pair into each level."""
    phi_1 = spec.coupling[0, :]
    phi_2 = spec.coupling[1, :]
    cross = 2.0 * np.real(np.conj(state.a) * state.b)
    return (
        abs(state.a) ** 2 * phi_1**2
        + abs(state.b) ** 2 * phi_2**2
        + cross * phi_1 * phi_2
    )


def _detunings(spec: SystemSpec, omega: np.ndarray) -> np.ndarray:
    """d_s(omega) = omega + E_1 - E_s, shape (..., M)."""
    return omega[..., None] + spec.energies[0] - spec.energies[None, :]


def n_second_order(
    spec: SystemSpec, model: SpectralModel, state: QubitInitialState, omega
) -> np.ndarray | float:
    """Second-order mode-number density at frequency omega.

    Diverges as 1/d_s^2 when omega approaches a transition energy
    E_s - E_1; the divergence of the integrated total is physical at
    this order and is not regularized here.
    """
    scalar = np.ndim(omega) == 0
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    weights = channel_weights(spec, state)
    intensity = np.asarray(evaluate(model, w), dtype=float)
    d = _detunings(spec, w)
    with np.errstate(divide="ignore"):
        terms = 2.0 * intensity[..., None] * weights / d**2
    out = np.sum(terms, axis=-1)
    return float(out[0]) if scalar else out


def rpa_number_density(
    spec: SystemSpec,
    model: SpectralModel,
    state: QubitInitialState,
    omega,
    shift: float = 0.0,
) -> np.ndarray | float:
    """RPA-resummed mode-number density, optionally with poles shifted.

    With ``shift`` > 0 the real part of the shifted density is returned;
    its integral converges to the principal value as the shift vanishes.
    """
    scalar = np.ndim(omega) == 0
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    weights = channel_weights(spec, state)
    intensity = np.asarray(evaluate(model, w), dtype=float)
    d = _detunings(spec, w) + 1j * shift
    terms = 2.0 * weights * intensity[..., None] / (d * (d - 4.0 * weights * intensity[..., None]))
    out = np.sum(np.real(terms), axis=-1)
    return float(out[0]) if scalar else out


def _channel_integral(
    model: SpectralModel,
    weight_scale: float,
    g_s: float,
    slope: float,
    offset: float,
    shift: float,
    cfg: RpaConfig,
) -> tuple[float, set[str]]:
    """integral of Re[ c g I / ((y + i shift)(y + i shift - 4 g I)) ] d omega
    over the spectral support, with y = slope*omega + offset, and the
    first lines of the IntegrationWarnings the quadrature raised."""
    # imported here, not at module level, so that ``import mlsbath`` loads
    # neither scipy.integrate nor scipy.optimize
    from scipy.integrate import IntegrationWarning, quad
    from scipy.optimize import brentq

    lo, hi = model.support()
    lo = max(lo, -cfg.omega_max)
    hi = min(hi, cfg.omega_max)
    if g_s == 0.0 or hi <= lo:
        return 0.0, set()

    def integrand(w: float) -> float:
        intensity = evaluate(model, w)
        y = slope * w + offset + 1j * shift
        return float(np.real(weight_scale * g_s * intensity / (y * (y - 4.0 * g_s * intensity))))

    # breakpoints: the bare pole y = 0 plus bracketed zeros of y - 4 g I
    points = []
    bare = -offset / slope
    if lo < bare < hi:
        points.append(bare)
    grid = np.linspace(lo, hi, cfg.scan_points)
    resummed = slope * grid + offset - 4.0 * g_s * np.asarray(evaluate(model, grid))
    sign_change = np.nonzero(np.diff(np.sign(resummed)) != 0)[0]
    for k in sign_change:
        f = lambda w: slope * w + offset - 4.0 * g_s * float(evaluate(model, w))
        va, vb = f(grid[k]), f(grid[k + 1])
        if va == 0.0:
            points.append(float(grid[k]))
        elif va * vb < 0:
            points.append(float(brentq(f, grid[k], grid[k + 1])))
    points = sorted({p for p in points if lo < p < hi})
    with catch_warnings(record=True) as caught:
        simplefilter("always", IntegrationWarning)
        value, _ = quad(
            integrand, lo, hi, points=points or None, limit=QUAD_LIMIT, epsabs=1e-11, epsrel=1e-9
        )
    notes = set()
    for w in caught:
        if issubclass(w.category, IntegrationWarning):
            notes.add(str(w.message).strip().splitlines()[0])
        else:
            warn_explicit(w.message, w.category, w.filename, w.lineno)
    return value, notes


def _richardson(values: list[float]) -> float:
    """Limit of values taken at shifts halving each rung (leading error
    linear in the shift); iterated first-order extrapolation."""
    table = list(values)
    for level in range(1, len(table)):
        table = [
            (2.0**level * table[k + 1] - table[k]) / (2.0**level - 1.0)
            for k in range(len(table) - 1)
        ]
    return table[0]


def delta_n_total(
    spec: SystemSpec,
    model: SpectralModel,
    state: QubitInitialState,
    cfg: RpaConfig = RpaConfig(),
) -> FluctuationResult:
    """Total RPA mode-number correction N and fluctuation Delta N.

    Both integrals are evaluated on a ladder of imaginary pole shifts
    and Richardson-extrapolated to the principal-value limit.  Warnings
    flag a non-Cauchy ladder (non-convergent extrapolation, typical when
    a pole sits at a support edge), scipy's IntegrationWarnings from any
    channel integral (one entry per quantity, their distinct first lines
    sorted) and a negative extrapolated (Delta N)^2 (regularization
    failure; Delta N is then NaN).
    """
    weights = channel_weights(spec, state)
    e1 = spec.energies[0]
    shifts = [cfg.pole_shift * 0.5**k for k in range(cfg.ladder)]

    n_ladder = []
    dn2_ladder = []
    n_notes: set[str] = set()
    dn2_notes: set[str] = set()
    for shift in shifts:
        n_val = 0.0
        dn2_val = 0.0
        for s in range(spec.n_levels):
            offset = e1 - spec.energies[s]
            if weights[s] == 0.0:
                continue
            # detuning denominator d_s = omega + offset for the number density,
            # pair denominator p_s = 2*omega + offset for the fluctuations
            value, notes = _channel_integral(model, 2.0, weights[s], 1.0, offset, shift, cfg)
            n_val += value
            n_notes |= notes
            value, notes = _channel_integral(model, 4.0, weights[s], 2.0, offset, shift, cfg)
            dn2_val += value
            dn2_notes |= notes
        n_ladder.append(n_val)
        dn2_ladder.append(dn2_val)

    warnings: list[str] = []
    for name, ladder, notes in (("N", n_ladder, n_notes), ("(Delta N)^2", dn2_ladder, dn2_notes)):
        diffs = [abs(ladder[k + 1] - ladder[k]) for k in range(len(ladder) - 1)]
        tol = 1e-12 * max(1.0, abs(ladder[-1]))
        if any(d2 > d1 + tol for d1, d2 in zip(diffs, diffs[1:])):
            warnings.append(f"{name}: pole-shift ladder is not Cauchy, extrapolation unreliable")
        if notes:
            warnings.append(f"{name}: quadrature warning: {' '.join(sorted(notes))}")

    n_total = _richardson(n_ladder)
    dn2 = _richardson(dn2_ladder)
    if dn2 < 0.0:
        warnings.append(f"(Delta N)^2 = {dn2:.3e} negative after regularization")
        delta_n = float("nan")
        ratio = float("nan")
    else:
        delta_n = float(np.sqrt(dn2))
        ratio = delta_n / n_total if n_total != 0.0 else float("inf")
    return FluctuationResult(
        n_total=float(n_total), delta_n=delta_n, ratio=float(ratio), warnings=tuple(warnings)
    )
