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

Every quantity reads one channel table (:func:`_channels`), a row for each
quantity and each channel with g_s != 0: a channel of zero weight is in no
quantity, and its pole in no density.  One helper forms the bare and
resummed denominators, and one real-arithmetic integrand serves
:func:`rpa_number_density` and the quadrature.

One :func:`delta_n_total` call integrates every row of the table at every
shift together, on numpy arrays.  One density call on the pole-scan grid
finds the scan cells in which a resummed denominator changes sign.  Each
integral starts as the panels between the support edges, its bare pole and
both ends of each of its cells; each round of the adaptive loop applies
QUADPACK's 21-point Gauss-Kronrod rule to every open panel of every
integral in one density call, with the shifts as a trailing axis, and
bisects the panels whose error estimate exceeds their share of the
tolerance.  The ladder is checked and extrapolated as one (quantity x
shift) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import QubitInitialState, SystemSpec, require_finite
from .spectra import SpectralModel

__all__ = [
    "RpaConfig",
    "FluctuationResult",
    "channel_weights",
    "n_second_order",
    "rpa_number_density",
    "delta_n_total",
]

# (name, weight scale, slope) of each quantity: the detuning denominator
# d_s = omega + offset for the number density, the pair denominator
# p_s = 2*omega + offset for the fluctuations
QUANTITIES = (("N", 2.0, 1.0), ("(Delta N)^2", 4.0, 2.0))

# each channel integral at each shift is asked for max(EPSABS, EPSREL |I|)
# on at most MAX_PANELS panels
EPSABS, EPSREL = 1e-11, 1e-9
MAX_PANELS = 2000

# QUADPACK's 21-point Gauss-Kronrod rule (qk21) on [-1, 1], from its
# nonnegative nodes and their Kronrod and Gauss weights (the embedded
# 10-point Gauss-Legendre rule uses every other node)
_X = [0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
      0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
      0.2943928627014602, 0.14887433898163122, 0.0]
_K = [0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
      0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
      0.14277593857706009, 0.14773910490133849, 0.1494455540029169]
_G = [0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204, 0.0,
      0.26926671930999635, 0.0, 0.29552422471475287, 0.0]
_NODES = np.array([-x for x in _X] + _X[-2::-1])
# the Kronrod and the Gauss weights, as rows
_RULES = np.array([w + w[-2::-1] for w in (_K, _G)])
# a panel's error estimate this close to its roundoff, in units of the
# Kronrod estimate of the absolute integrand, is left unrefined (QUADPACK's)
_ROUNDOFF = 50.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RpaConfig:
    """Pole regularization and quadrature controls.

    ``pole_shift`` is the largest imaginary shift of the ladder;
    ``ladder`` shifts are used, each half the previous.  ``omega_max``
    bounds the integration and pole-scan window (it should lie beyond
    the spectral support; infinite supports are clipped to it).
    ``scan_points`` is the resolution of the pole scan, whose cells that
    hold a sign change of a resummed denominator start the quadrature
    panels.
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


def _channels(spec: SystemSpec, state: QubitInitialState):
    """The channel table: one row for each quantity of ``QUANTITIES`` and
    each channel with g_s != 0, in that order.  Returns each row's quantity
    index and its (c g_s, 4 g_s, slope, E_1 - E_s)."""
    weights = channel_weights(spec, state)
    live = weights != 0.0
    rows = [(scale * g, 4.0 * g, slope, spec.energies[0] - energy)
            for _, scale, slope in QUANTITIES
            for g, energy in zip(weights[live], spec.energies[live])]
    quantity = np.repeat(np.arange(len(QUANTITIES)), np.count_nonzero(live))
    return quantity, np.array(rows).reshape(-1, 4)


def _denominators(rows, omega, intensity):
    """The bare denominator y = slope*omega + offset of rows of the channel
    table, shaped (..., 4) to broadcast against ``omega``, and the
    resummed one v = y - 4 g I, at ``omega`` and its ``intensity``."""
    y = rows[..., 2] * omega + rows[..., 3]
    v = rows[..., 1] * intensity
    # in place: the pole scan then holds two (rows, scan points) arrays, not three
    return y, np.subtract(y, v, out=v)


def _integrand(rows, omega, intensity, shifts):
    """Re[c g I / ((y + i s)(v + i s))] of each row at ``omega``, each shift
    s on a trailing axis, in real arithmetic."""
    y, v = _denominators(rows, omega, intensity)
    # Re[a / ((y + i s)(v + i s))] = a (yv - s^2) / ((yv - s^2)^2 + s^2 (y + v)^2)
    real = (y * v)[..., None] - shifts * shifts
    imag = (y + v)[..., None] * shifts
    return (rows[..., 0] * intensity)[..., None] * real / (real * real + imag * imag)


def _number_rows(spec: SystemSpec, model: SpectralModel, state: QubitInitialState, omega):
    """The N rows of the channel table, shaped (rows, 1, 4), omega
    flattened, and I(omega)."""
    quantity, rows = _channels(spec, state)
    w = np.ravel(np.asarray(omega, dtype=float))
    return rows[quantity == 0, None], w, model.density(w)


def n_second_order(
    spec: SystemSpec, model: SpectralModel, state: QubitInitialState, omega
) -> np.ndarray | float:
    """Second-order mode-number density at frequency omega.

    Diverges as 1/d_s^2 when omega approaches a transition energy
    E_s - E_1; the divergence of the integrated total is physical at
    this order and is not regularized here.
    """
    rows, w, intensity = _number_rows(spec, model, state, omega)
    d, _ = _denominators(rows, w, intensity)
    with np.errstate(divide="ignore"):
        out = np.sum(rows[..., 0] * intensity / d**2, axis=0).reshape(np.shape(omega))
    return out if out.ndim else float(out)


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
    rows, w, intensity = _number_rows(spec, model, state, omega)
    out = np.sum(_integrand(rows, w, intensity, np.array([shift])), axis=0).reshape(np.shape(omega))
    return out if out.ndim else float(out)


class _Ladders(NamedTuple):
    """Each quantity's channel sum at each shift and its quadrature note ("" if
    every integral converged); the rounds of quadrature."""

    values: np.ndarray
    notes: list[str]
    rounds: int


def _kronrod(model: SpectralModel, a, b, coeffs, shifts):
    """Kronrod estimates and error estimates |K21 - G10| of every panel
    [a, b] at each shift, shape (panels, 2, shifts), and each panel's
    roundoff floor, from one density call.  ``coeffs`` holds each panel's
    row of the channel table."""
    half = 0.5 * (b - a)
    w = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    f = _integrand(coeffs[:, None], w, model.density(w), shifts)
    estimates = half[:, None, None] * (_RULES @ f)
    estimates[:, 1] = np.abs(estimates[:, 0] - estimates[:, 1])
    return estimates, _ROUNDOFF * half[:, None] * (_RULES[0] @ np.abs(f))


def _brackets(coeffs, grid, grid_density):
    """The scan cells [grid[k], grid[k + 1]] in which y - 4 g I of an
    integral (a row of ``coeffs``) changes sign, as (integral, cell ends)
    arrays, the ends shaped (cells, 2)."""
    positive = _denominators(coeffs[:, None], grid, grid_density)[1] > 0.0
    integral, k = np.nonzero(positive[:, 1:] != positive[:, :-1])
    return integral, grid[np.stack([k, k + 1], axis=-1)]


def _ladders(
    spec: SystemSpec, model: SpectralModel, state: QubitInitialState, cfg: RpaConfig
) -> _Ladders:
    """Integrals of Re[c g I / ((y + i shift)(y + i shift - 4 g I))] over the
    clipped support, y = slope*omega + offset, for every row of the channel
    table and every shift of the ladder, summed per quantity.

    Each integral starts as the panels between the support edges, the bare
    pole y = 0 and both ends of each scan cell in which y - 4 g I changes
    sign: a resummed root then lies inside a panel one scan step wide, which
    the loop bisects as its error estimate requires.  Each round applies the
    Kronrod rule to every panel still open, all integrals and shifts in one
    density call, and bisects the panels whose error estimate exceeds their
    width's share of max(EPSABS, EPSREL |I|) at some shift, unless they sit
    at their roundoff floor or can no longer be halved.  An integral that
    would grow past ``MAX_PANELS`` stops refining, and is reported
    unconverged.
    """
    quantity, coeffs = _channels(spec, state)
    lo, hi = model.support()
    lo, hi = max(lo, -cfg.omega_max), min(hi, cfg.omega_max)
    shifts = cfg.pole_shift * 0.5 ** np.arange(cfg.ladder)
    values = np.zeros((len(QUANTITIES), cfg.ladder))
    if not quantity.size or hi <= lo:
        return _Ladders(values, [""] * len(QUANTITIES), 0)
    count = len(coeffs)

    grid = np.linspace(lo, hi, cfg.scan_points)
    cell_of, cells = _brackets(coeffs, grid, model.density(grid))
    a, b, integral = [], [], []
    for n, (_, _, slope, offset) in enumerate(coeffs):
        cuts = np.append(cells[cell_of == n], -offset / slope)
        edges = [lo, *np.unique(cuts[(lo < cuts) & (cuts < hi)]).tolist(), hi]
        a, b, integral = a + edges[:-1], b + edges[1:], integral + [n] * (len(edges) - 1)
    a, b, integral = np.array(a), np.array(b), np.array(integral)

    # each integral's Kronrod and error sums over its retired panels, and its panel count
    retired = np.zeros((count, 2, cfg.ladder))
    held = np.bincount(integral, minlength=count)
    rounds = 0
    while a.size:
        estimates, floor = _kronrod(model, a, b, coeffs[integral], shifts)
        rounds += 1
        sums = retired.copy()
        np.add.at(sums, integral, estimates)
        tolerance = np.maximum(EPSABS, EPSREL * np.abs(sums[:, 0]))
        share = (b - a)[:, None] * (tolerance / (hi - lo))[integral]
        failing = (estimates[:, 1] > np.maximum(share, floor)) & (sums[:, 1] > tolerance)[integral]
        split = failing.any(axis=1) & (b - a > 1e3 * np.spacing(np.maximum(np.abs(a), np.abs(b))))
        split &= (held + np.bincount(integral[split], minlength=count) <= MAX_PANELS)[integral]
        held += np.bincount(integral[split], minlength=count)
        np.add.at(retired, integral[~split], estimates[~split])
        a, b, integral = a[split], b[split], integral[split]
        mid = 0.5 * (a + b)
        a, b, integral = np.concatenate([a, mid]), np.concatenate([mid, b]), np.tile(integral, 2)

    totals, estimate = retired[:, 0], retired[:, 1]
    np.add.at(values, quantity, totals)
    unconverged = (estimate > np.maximum(EPSABS, EPSREL * np.abs(totals))).any(axis=1)
    notes = []
    for q in range(len(QUANTITIES)):
        bad = unconverged & (quantity == q)
        notes.append(f"{bad.sum()} of {(quantity == q).sum()} channel integrals missed the "
                     f"tolerance within {MAX_PANELS} panels (estimated error "
                     f"{estimate[bad].max():.1e})" if bad.any() else "")
    return _Ladders(values, notes, rounds)


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
    a pole sits at a support edge), channel integrals that missed the
    quadrature tolerance (one entry per quantity) and a negative
    extrapolated (Delta N)^2 (regularization failure; Delta N is then NaN).
    """
    ladders = _ladders(spec, model, state, cfg)
    values = ladders.values
    diffs = np.abs(np.diff(values))
    tol = 1e-12 * np.maximum(1.0, np.abs(values[:, -1:]))
    growing = (diffs[:, 1:] > diffs[:, :-1] + tol).any(axis=1)
    warnings: list[str] = []
    for (name, _, _), grows, note in zip(QUANTITIES, growing, ladders.notes):
        if grows:
            warnings.append(f"{name}: pole-shift ladder is not Cauchy, extrapolation unreliable")
        if note:
            warnings.append(f"{name}: quadrature warning: {note}")
    # iterated first-order extrapolation: the leading error is linear in the shift
    for level in range(1, cfg.ladder):
        values = (2.0**level * values[:, 1:] - values[:, :-1]) / (2.0**level - 1.0)
    n_total, dn2 = values[:, 0].tolist()
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
