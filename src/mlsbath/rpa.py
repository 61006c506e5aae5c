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

One :func:`delta_n_total` call evaluates the spectral density once per
point: the pole-scan grid is tabulated once, and every channel, both
quantities, every shift and the root search share one memo of scalar
points.  The integrand runs on Python floats in the operation order of
numpy's complex128 arithmetic, so its values are the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple
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


class _Spectrum(NamedTuple):
    """The spectral density as one :func:`delta_n_total` call sees it: the
    support clipped to ``[-omega_max, omega_max]``, the pole-scan grid with
    its densities, and a scalar lookup that evaluates each point once."""

    lo: float
    hi: float
    grid: np.ndarray
    grid_density: np.ndarray
    density: Callable[[float], float]


def _tabulate(model: SpectralModel, cfg: RpaConfig) -> _Spectrum:
    lo, hi = model.support()
    lo = max(lo, -cfg.omega_max)
    hi = min(hi, cfg.omega_max)
    grid = np.linspace(lo, hi, cfg.scan_points)
    memo: dict[float, float] = {}

    def density(w: float) -> float:
        value = memo.get(w)
        if value is None:
            value = memo[w] = evaluate(model, w)
        return value

    return _Spectrum(lo, hi, grid, np.asarray(evaluate(model, grid)), density)


def _shifted_real(a: float, u: float, b: float, shift: float) -> float:
    """Re[a / (y (y - b))] with y = u + i*shift, in float arithmetic.

    The operations are those of numpy's complex128 product and quotient,
    in its order, so the value is the same to the bit: Smith's algorithm,
    which multiplies by the reciprocal of the scaled denominator (Python's
    complex division divides by it instead).  ``shift`` > 0 keeps the
    denominator away from zero.
    """
    v = u - b
    zr = u * v - shift * shift
    zi = u * shift + shift * v
    if abs(zr) >= abs(zi):
        return a * (1.0 / (zr + zi * (zi / zr)))
    ratio = zr / zi
    return a * ratio * (1.0 / (zi + zr * ratio))


def _channel_integral(
    spectrum: _Spectrum,
    weight_scale: float,
    g_s: float,
    slope: float,
    offset: float,
    shifts: list[float],
) -> tuple[list[float], set[str]]:
    """integral of Re[ c g I / ((y + i shift)(y + i shift - 4 g I)) ] d omega
    over the clipped support, with y = slope*omega + offset, at each of
    ``shifts``, and the first lines of the IntegrationWarnings the
    quadrature raised.  The poles do not depend on the shift, so they are
    located once and every shift is integrated over the same breakpoints."""
    # imported here, not at module level, so that ``import mlsbath`` loads
    # neither scipy.integrate nor scipy.optimize
    from scipy.integrate import IntegrationWarning, quad
    from scipy.optimize import brentq

    lo, hi, grid, grid_density, density = spectrum
    if g_s == 0.0 or hi <= lo:
        return [0.0] * len(shifts), set()
    # plain floats: numpy scalar arithmetic costs several times more per point
    g_s = float(g_s)
    offset = float(offset)
    numerator = weight_scale * g_s
    four_g = 4.0 * g_s

    def integrand(w: float, shift: float) -> float:
        intensity = density(w)
        return _shifted_real(numerator * intensity, slope * w + offset, four_g * intensity, shift)

    def resummed(w: float) -> float:
        return slope * w + offset - four_g * density(w)

    # breakpoints: the bare pole y = 0 plus bracketed zeros of y - 4 g I
    points = []
    bare = -offset / slope
    if lo < bare < hi:
        points.append(bare)
    scanned = slope * grid + offset - four_g * grid_density
    sign_change = np.nonzero(np.diff(np.sign(scanned)) != 0)[0]
    for k in sign_change:
        va, vb = resummed(grid[k]), resummed(grid[k + 1])
        if va == 0.0:
            points.append(float(grid[k]))
        elif va * vb < 0:
            points.append(float(brentq(resummed, grid[k], grid[k + 1])))
    points = sorted({p for p in points if lo < p < hi})
    values = []
    with catch_warnings(record=True) as caught:
        simplefilter("always", IntegrationWarning)
        for shift in shifts:
            value, _ = quad(integrand, lo, hi, args=(shift,), points=points or None,
                            limit=QUAD_LIMIT, epsabs=1e-11, epsrel=1e-9)
            values.append(value)
    notes = set()
    for w in caught:
        if issubclass(w.category, IntegrationWarning):
            notes.add(str(w.message).strip().splitlines()[0])
        else:
            warn_explicit(w.message, w.category, w.filename, w.lineno)
    return values, notes


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
    spectrum = _tabulate(model, cfg)
    shifts = [cfg.pole_shift * 0.5**k for k in range(cfg.ladder)]

    warnings: list[str] = []
    limits = []
    # detuning denominator d_s = omega + offset for the number density,
    # pair denominator p_s = 2*omega + offset for the fluctuations
    for name, weight_scale, slope in (("N", 2.0, 1.0), ("(Delta N)^2", 4.0, 2.0)):
        ladder = [0.0] * cfg.ladder
        notes: set[str] = set()
        for s in range(spec.n_levels):
            if weights[s] == 0.0:
                continue
            values, channel_notes = _channel_integral(
                spectrum, weight_scale, weights[s], slope, e1 - spec.energies[s], shifts
            )
            ladder = [total + value for total, value in zip(ladder, values)]
            notes |= channel_notes
        diffs = [abs(ladder[k + 1] - ladder[k]) for k in range(len(ladder) - 1)]
        tol = 1e-12 * max(1.0, abs(ladder[-1]))
        if any(d2 > d1 + tol for d1, d2 in zip(diffs, diffs[1:])):
            warnings.append(f"{name}: pole-shift ladder is not Cauchy, extrapolation unreliable")
        if notes:
            warnings.append(f"{name}: quadrature warning: {' '.join(sorted(notes))}")
        limits.append(_richardson(ladder))

    n_total, dn2 = limits
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
