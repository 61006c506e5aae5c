"""Spectral models and the retarded noise correlator.

Three spectral families are supported, each normalized by its area
``A = integral of I(omega)``:

* ``Rectangular(area, center, half_width)`` -- constant ``A/(2*eps)``
  on ``|omega - center| < eps``, zero outside.
* ``Lorentzian(area, center, width)`` -- ``(A/pi) * eps / ((omega-center)^2 + eps^2)``.
* ``PowerGaussian(area, ohmicity, cutoff)`` --
  ``amp * (omega/L)^(1+nu) * exp(-omega^2/(4 L^2))`` on ``omega >= 0``
  (zero for negative frequencies; odd powers would otherwise make the
  density negative or complex).  ``amp`` is fixed by the requested area
  through the closed form ``area = amp * L * 2^(1+nu) * Gamma(1+nu/2)``.

The noise correlator is the retarded transform
``F(tau) = Theta(tau) * integral I(omega) e^(i omega tau) d omega``,
evaluated from each family's closed form: a sinc for the rectangle, one
exponential for the Lorentzian, and two Kummer functions for the
power-Gaussian (Gradshteyn & Ryzhik 3.462.1), all divided through by the
area.  Each closed form gives the one-sided limit ``F(0+) = area``
exactly at ``tau = 0``.  The tests check the closed forms against
adaptive oscillatory quadrature of the density (``quad_correlator`` in
``tests/oracles.py``).

For the integrator's history sums, :func:`correlator_modes` writes the
rectangular and Lorentzian correlators on a finite grid as a sum of
exponentials ``F(tau) = sum_q c_q e^(lambda_q tau)`` (the Lorentzian
decomposition of Meier & Tannor, J. Chem. Phys. 111, 3365 (1999)),
checked in max norm against the tabulated correlator.

Everything particular to a family lives on its class:

* ``kind`` -- the INI name (``[spectrum] kind``);
* ``ini_keys`` -- ordered map from INI key to dataclass field, which
  fixes the accepted keys, the canonical text and the ``rpa-width``
  sweep (the last key);
* ``density(w)``, ``support()``, ``window()`` (the default range of a
  spectrum table), the closed-form ``correlator(tau)`` for ``tau >= 0``
  and ``exp_modes(steps, dt)``, the ``(coeffs, rates)`` of an
  exponential expansion on the grid ``{0, dt, ..., steps * dt}`` or None.

``FAMILIES`` maps each ``kind`` to its class; a new family is its class
plus its name in ``FAMILIES`` and ``SpectralModel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import hyp1f1, poch, roots_legendre

from .model import require_finite

__all__ = [
    "Rectangular",
    "Lorentzian",
    "PowerGaussian",
    "SpectralModel",
    "FAMILIES",
    "evaluate",
    "correlator",
    "correlator_table",
    "ExpModes",
    "correlator_modes",
]

# A mode expansion must reproduce the correlator table to this fraction
# of the area in max norm, or the integrator keeps the full history.
MODE_TOLERANCE = 1e-12
# Beyond this many modes the per-step mode update (about 6 K M^2
# operations) nears the full history sum (2 k M^2 at step k) on grids of
# a few thousand steps.
MAX_MODES = 256


@dataclass(frozen=True)
class Rectangular:
    """Flat spectral density of given area centered at ``center`` with
    half-width ``half_width``."""

    area: float
    center: float
    half_width: float

    kind = "rectangular"
    ini_keys = {"area": "area", "center": "center", "width": "half_width"}

    def __post_init__(self):
        require_finite(self)
        if self.area <= 0:
            raise ValueError(f"area must be positive, got {self.area}")
        if self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    def density(self, w):
        inside = np.abs(w - self.center) < self.half_width
        return np.where(inside, self.area / (2.0 * self.half_width), 0.0)

    def support(self) -> tuple[float, float]:
        return (self.center - self.half_width, self.center + self.half_width)

    def window(self) -> tuple[float, float]:
        lo, hi = self.support()
        pad = 0.25 * self.half_width
        return lo - pad, hi + pad

    def correlator(self, tau):
        x = self.half_width * tau
        small = np.abs(x) < 1e-6
        xs = np.where(small, 1.0, x)
        # series branch avoids 0/0 at the sinc singularity
        envelope = np.where(small, 1.0 - x * x / 6.0, np.sin(xs) / xs)
        return self.area * np.exp(1j * self.center * tau) * envelope

    def exp_modes(self, steps: int, dt: float):
        # Gauss-Legendre nodes of (A/2) int_{-1}^{1} e^(i(center + eps x) tau) dx
        span = self.half_width * steps * dt
        count = int(np.ceil(0.5 * span + 4.0 * np.cbrt(span) + 8.0))
        # capped before the nodes are built: their cost grows faster than count
        if count > MAX_MODES:
            return None
        nodes, weights = roots_legendre(count)
        coeffs = (0.5 * self.area * weights).astype(complex)
        return coeffs, 1j * (self.center + self.half_width * nodes)


@dataclass(frozen=True)
class Lorentzian:
    """Lorentzian spectral density of given area, center and width."""

    area: float
    center: float
    width: float

    kind = "lorentzian"
    ini_keys = {"area": "area", "center": "center", "width": "width"}

    def __post_init__(self):
        require_finite(self)
        if self.area <= 0:
            raise ValueError(f"area must be positive, got {self.area}")
        if self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width}")

    def density(self, w):
        return (self.area / np.pi) * self.width / ((w - self.center) ** 2 + self.width**2)

    def support(self) -> tuple[float, float]:
        return (-np.inf, np.inf)

    def window(self) -> tuple[float, float]:
        return self.center - 10 * self.width, self.center + 10 * self.width

    def correlator(self, tau):
        return self.area * np.exp((1j * self.center - self.width) * tau)

    def exp_modes(self, steps: int, dt: float):
        return np.array([self.area], dtype=complex), np.array([1j * self.center - self.width])


@dataclass(frozen=True)
class PowerGaussian:
    """Power-law rise with a Gaussian cutoff, supported on omega >= 0.

    ``ohmicity`` is the exponent offset nu (sub-Ohmic -1, Ohmic 0,
    super-Ohmic +1, any real > -2 accepted); ``cutoff`` is the Gaussian
    scale.  The overall amplitude is derived from the requested area.
    """

    area: float
    ohmicity: float
    cutoff: float

    kind = "power-gaussian"
    ini_keys = {"area": "area", "ohmicity": "ohmicity", "cutoff": "cutoff"}

    def __post_init__(self):
        require_finite(self)
        if self.area <= 0:
            raise ValueError(f"area must be positive, got {self.area}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        if self.ohmicity <= -2:
            raise ValueError(
                f"ohmicity must exceed -2 for a finite area, got {self.ohmicity}"
            )

    @cached_property
    def amplitude(self) -> float:
        """Prefactor making the omega >= 0 integral equal the requested area."""
        nu = self.ohmicity
        return self.area / (self.cutoff * 2.0 ** (1.0 + nu) * gamma_fn(1.0 + nu / 2.0))

    def density(self, w):
        lam = self.cutoff
        with np.errstate(invalid="ignore", divide="ignore"):
            raw = (
                self.amplitude
                * np.power(np.where(w > 0, w, 1.0) / lam, 1.0 + self.ohmicity)
                * np.exp(-(w**2) / (4.0 * lam**2))
            )
        return np.where(w > 0, raw, 0.0)

    def support(self) -> tuple[float, float]:
        return (0.0, np.inf)

    def window(self) -> tuple[float, float]:
        return 0.0, 8.0 * self.cutoff

    def correlator(self, tau):
        # cosine and sine transforms of x^(1+nu) e^(-x^2/4) over x >= 0,
        # each divided by the cosine transform at y = 0 (the area)
        a = 1.0 + 0.5 * self.ohmicity
        y = self.cutoff * tau
        z = -(y * y)
        return self.area * (
            hyp1f1(a, 0.5, z) + 2j * y * poch(a, 0.5) * hyp1f1(a + 0.5, 1.5, z)
        )

    def exp_modes(self, steps: int, dt: float):
        return None  # no mode expansion yet: the integrator keeps the full history


SpectralModel = Union[Rectangular, Lorentzian, PowerGaussian]

FAMILIES = {cls.kind: cls for cls in (Rectangular, Lorentzian, PowerGaussian)}


def evaluate(model: SpectralModel, omega):
    """Spectral density I(omega); accepts scalars or arrays."""
    out = model.density(np.asarray(omega, dtype=float))
    return out if out.ndim else float(out)


def correlator(model: SpectralModel, tau: float) -> complex:
    """Retarded correlator F(tau): zero for tau < 0, the family's closed
    form (exactly the area at tau = 0) otherwise."""
    if tau < 0:
        return 0.0 + 0.0j
    return complex(model.correlator(np.asarray(tau, dtype=float)))


def correlator_table(model: SpectralModel, t_max: float, dt: float) -> np.ndarray:
    """F on the uniform grid {0, dt, ..., t_max} used by the integrator.

    The number of steps is ``round(t_max / dt)``; the grid spacing is
    exactly ``dt`` so the table aligns with the time-stepping grid.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_max < dt:
        raise ValueError(f"t_max must be at least dt, got {t_max} < {dt}")
    n = int(round(t_max / dt))
    return np.asarray(model.correlator(np.arange(n + 1) * dt), dtype=complex)


@dataclass(frozen=True, eq=False)
class ExpModes:
    """``F(tau) = sum_q coeffs[q] * exp(rates[q] * tau)`` on a grid.

    ``error`` is the measured max-norm distance from the correlator
    table the modes were checked against.
    """

    coeffs: np.ndarray
    rates: np.ndarray
    error: float


def _max_mode_error(coeffs, rates, table, dt) -> float:
    """Max |sum_q c_q e^(lambda_q k dt) - table[k]|, in row blocks so the
    temporaries stay at ``block * K`` entries.

    The sum over modes is an elementwise reduction, not a matrix-vector
    product: a ``block x K`` product is large enough for BLAS to wake its
    worker threads, which then spin on the other cores well after the
    check returns, competing with the single-threaded stepping that follows.
    """
    block = 512
    error = 0.0
    for start in range(0, len(table), block):
        rows = table[start : start + block]
        taus = np.arange(start, start + len(rows)) * dt
        approx = (np.exp(np.outer(taus, rates)) * coeffs).sum(axis=1)
        error = max(error, float(np.max(np.abs(approx - rows))))
    return error


def correlator_modes(model: SpectralModel, table: np.ndarray, dt: float) -> ExpModes | None:
    """Exponential modes reproducing ``table`` (F at ``k * dt``).

    The modes come from the family's ``exp_modes``.  The Lorentzian
    correlator is one exact mode, ``c = A`` and ``lambda = i*center - width``.
    The rectangular correlator is the spectral integral
    ``(A/2) int_{-1}^{1} e^(i(center + eps x) tau) dx``; its Gauss-Legendre
    nodes x_q and weights w_q give ``c_q = A w_q / 2`` and
    ``lambda_q = i(center + eps x_q)``, with the node count set by
    ``eps * t_max`` (about 1e-14 of the area).

    Returns None, meaning the caller keeps the full history, for the
    power-Gaussian (no mode expansion yet), when more than ``MAX_MODES``
    nodes are needed, or when the max-norm error exceeds
    ``MODE_TOLERANCE * area``.
    """
    modes = model.exp_modes(len(table) - 1, dt)
    if modes is None:
        return None
    coeffs, rates = modes
    error = _max_mode_error(coeffs, rates, table, dt)
    if not error <= MODE_TOLERANCE * model.area:
        return None
    return ExpModes(coeffs, rates, error)
