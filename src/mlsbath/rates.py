"""Decoherence-rate extraction by log-linear exponential fitting.

Rates are defined as the negative slope of ``ln y(t)`` over the fit
window, obtained by ordinary least squares.  Three observables are
fitted: the level-2 population (relaxation), the qubit coherence
magnitude (dephasing) and the qubit-subspace population ``rho11+rho22``
(leakage; its logarithm is well defined where ``1 - rho11 - rho22``
starts at zero, and carries the same time constant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import Trajectory

__all__ = ["FitWindow", "ExponentialFit", "RateSet", "fit_exponential_decay", "extract_rates"]

MIN_SAMPLES = 10
CLIP_FLOOR = 1e-15
R2_QUALITY = 0.98


@dataclass(frozen=True)
class FitWindow:
    """Time window for the exponential fits (defaults to [1.0, 2.5])."""

    t_lo: float = 1.0
    t_hi: float = 2.5

    def __post_init__(self):
        if not self.t_lo < self.t_hi:
            raise ValueError(f"need t_lo < t_hi, got [{self.t_lo}, {self.t_hi}]")

    def check_sampled(self, t_first: float, t_last: float) -> None:
        """Raise ValueError unless the window lies within the sampled range
        [t_first, t_last]."""
        if self.t_lo < t_first or self.t_hi > t_last:
            raise ValueError(
                f"window [{self.t_lo}, {self.t_hi}] outside sampled range "
                f"[{t_first}, {t_last}]"
            )


@dataclass(frozen=True)
class ExponentialFit:
    """Result of one log-linear fit: y ~ amplitude * exp(-rate * t)."""

    rate: float
    amplitude: float
    r_squared: float
    clipped: bool = False


@dataclass(frozen=True)
class RateSet:
    """Relaxation, dephasing and leakage rates with fit diagnostics.

    Fitted slopes of growing observables are reported as rate 0 with a
    warning; an r^2 below 0.98 on any observable adds a quality warning
    (the exponential-dominance assumption is checked, not assumed).
    """

    relaxation_rate: float
    dephasing_rate: float
    leakage_rate: float
    r_squared: tuple[float, float, float]
    warnings: tuple[str, ...] = ()


def fit_exponential_decay(times, values, window: FitWindow) -> ExponentialFit:
    """OLS fit of ln(values) vs times over the window.

    Values are clipped below 1e-15 before taking the logarithm (the fit
    is flagged as clipped when that happens).  Raises ValueError when
    fewer than 10 samples fall inside the window or any value is not
    finite there.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must have matching shapes")
    if times.size:
        window.check_sampled(times[0], times[-1])
    mask = (times >= window.t_lo) & (times <= window.t_hi)
    t = times[mask]
    y = values[mask]
    if t.size < MIN_SAMPLES:
        raise ValueError(f"only {t.size} samples in fit window, need {MIN_SAMPLES}")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite observable values in fit window")
    clipped = bool(np.any(y < CLIP_FLOOR))
    log_y = np.log(np.clip(y, CLIP_FLOOR, None))
    slope, intercept = np.polyfit(t, log_y, 1)
    residual = log_y - (slope * t + intercept)
    total = np.sum((log_y - log_y.mean()) ** 2)
    if np.ptp(log_y) < 1e-9:
        # variation at rounding level: a constant, fit perfectly
        r_squared = 1.0
    else:
        r_squared = 1.0 - np.sum(residual**2) / total
    return ExponentialFit(
        rate=float(-slope),
        amplitude=float(np.exp(intercept)),
        r_squared=float(r_squared),
        clipped=clipped,
    )


def extract_rates(traj: Trajectory, window: FitWindow = FitWindow()) -> RateSet:
    """Fit the three decoherence observables of a trajectory.

    Relaxation comes from the level-2 population, dephasing from the
    qubit coherence magnitude, leakage from the decay of the
    qubit-subspace population.
    """
    observables = (
        ("relaxation", traj.population_2),
        ("dephasing", traj.coherence_12),
        ("leakage", np.real(traj.states[:, 0, 0] + traj.states[:, 1, 1])),
    )
    rates = []
    r2 = []
    warnings: list[str] = []
    for name, series in observables:
        fit = fit_exponential_decay(traj.times, series, window)
        rate = fit.rate
        if rate < 0.0:
            # rounding noise on a constant observable is not growth
            if rate < -1e-12:
                warnings.append(f"{name}: fitted slope indicates growth, rate reported as 0")
            rate = 0.0
        if fit.r_squared < R2_QUALITY:
            warnings.append(f"{name}: r^2 = {fit.r_squared:.4f} below {R2_QUALITY}")
        if fit.clipped:
            warnings.append(f"{name}: observable clipped at {CLIP_FLOOR} before log fit")
        rates.append(rate)
        r2.append(fit.r_squared)
    return RateSet(
        relaxation_rate=rates[0],
        dephasing_rate=rates[1],
        leakage_rate=rates[2],
        r_squared=(r2[0], r2[1], r2[2]),
        warnings=tuple(warnings),
    )
