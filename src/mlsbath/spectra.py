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

For the integrator's history sums, :func:`correlator_modes` writes every
family's correlator on a finite grid as a sum of exponentials
``F(tau) = sum_q c_q e^(lambda_q tau)`` (the Lorentzian decomposition of
Meier & Tannor, J. Chem. Phys. 111, 3365 (1999); quadrature nodes of the
spectral integral for the others), within the one mode policy: a bound on
the node count and a max-norm tolerance against the tabulated correlator.

Everything particular to a family lives on its class:

* ``kind`` -- the INI name (``[spectrum] kind``);
* ``ini_keys`` -- ordered map from INI key to dataclass field, which
  fixes the accepted keys, the canonical text and the ``rpa-width``
  sweep (the last key);
* ``density(w)`` on numpy arrays: :func:`evaluate` wraps it, and the RPA
  channel integrals call it once per round on all of that round's nodes;
* ``support()``, ``window()`` (the default range of a spectrum table),
  the closed-form ``correlator(tau)`` for ``tau >= 0``,
  and ``mode_count(steps, dt)`` and ``exp_modes(steps, dt)``: the size and
  the ``(coeffs, rates)`` of an exponential expansion on the grid
  ``{0, dt, ..., steps * dt}``.

``FAMILIES`` maps each ``kind`` to its class; a new family is its class
plus its name in ``FAMILIES`` and ``SpectralModel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammainccinv, hyp1f1, poch, roots_jacobi, roots_legendre

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
    "IntegrationError",
    "correlator_modes",
]

# A mode expansion must reproduce the correlator table to this fraction
# of the area in max norm.
MODE_TOLERANCE = 1e-12
# A grid may take max(MAX_MODES, n_steps) modes.  Node counts grow with
# the spectrum's phase span over t_max (about eps * t_max / 2 for the
# rectangle), so more modes than steps marks a grid far too coarse for
# its spectrum (eps * dt >= 2 for the rectangle).
MAX_MODES = 256


class IntegrationError(RuntimeError):
    """Raised when a trajectory cannot be integrated: its correlator has no
    exponential modes within bounds on the grid, or its state diverged."""


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

    def mode_count(self, steps: int, dt: float) -> int:
        return _gauss_count(self.half_width * steps * dt)

    def exp_modes(self, steps: int, dt: float):
        # Gauss-Legendre nodes of (A/2) int_{-1}^{1} e^(i(center + eps x) tau) dx
        nodes, weights = roots_legendre(self.mode_count(steps, dt))
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

    def mode_count(self, steps: int, dt: float) -> int:
        return 1

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
        return float(self.area / (self.cutoff * 2.0 ** (1.0 + nu) * gamma_fn(1.0 + nu / 2.0)))

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

    def _panels(self, steps: int, dt: float) -> tuple[list[float], list[int]]:
        """Edges and node counts of the panels of [0, X] in x = omega / L:
        Gauss-Jacobi on [0, h], then Gauss-Legendre panels, each twice as
        wide as the one before.  X leaves out under 1e-16 of the area."""
        x_max = 2.0 * np.sqrt(gammainccinv(1.0 + 0.5 * self.ohmicity, 1e-16))
        phase = self.cutoff * steps * dt  # phase at t_max per unit of x
        edges = [0.0, min(x_max, 2.0 / phase)]
        while edges[-1] < x_max:
            edges.append(min(x_max, 2.0 * edges[-1]))
        return edges, [24] + [_gauss_count(a) for a in 0.5 * phase * np.diff(edges[1:])]

    def mode_count(self, steps: int, dt: float) -> int:
        return sum(self._panels(steps, dt)[1])

    def exp_modes(self, steps: int, dt: float):
        # nodes of int_0^X x^(1+nu) e^(-x^2/4) e^(i L x tau) dx, whose
        # x^(1+nu) endpoint singularity is the Jacobi weight, scaled to the area
        edges, counts = self._panels(steps, dt)
        beta = 1.0 + self.ohmicity
        t, w = roots_jacobi(counts[0], 0.0, beta)
        nodes, weights = [0.5 * edges[1] * (1.0 + t)], [(0.5 * edges[1]) ** (1.0 + beta) * w]
        for lo, hi, count in zip(edges[1:], edges[2:], counts[1:]):
            t, w = roots_legendre(count)
            nodes.append(lo + 0.5 * (hi - lo) * (1.0 + t))
            weights.append(0.5 * (hi - lo) * w * nodes[-1] ** beta)
        x = np.concatenate(nodes)
        weights = np.concatenate(weights) * np.exp(-0.25 * x * x)
        return (self.area / weights.sum() * weights).astype(complex), 1j * self.cutoff * x


SpectralModel = Union[Rectangular, Lorentzian, PowerGaussian]

FAMILIES = {cls.kind: cls for cls in (Rectangular, Lorentzian, PowerGaussian)}


def evaluate(model: SpectralModel, omega):
    """Spectral density I(omega): the family's ``density``, an array for an
    array omega and a float for a scalar (Python, numpy or 0-d array)."""
    omega = np.asarray(omega, dtype=float)
    value = model.density(omega)
    return float(value) if omega.ndim == 0 else value


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


def _gauss_count(a: float) -> int:
    """Gauss-Legendre nodes that integrate e^(i a s) times a smooth factor
    over s in [-1, 1] to about 1e-14; ``a`` is the top phase at t_max."""
    return int(np.ceil(0.5 * a + 4.0 * np.cbrt(a) + 8.0))


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


def correlator_modes(model: SpectralModel, table: np.ndarray, dt: float) -> ExpModes:
    """Exponential modes reproducing ``table`` (F at ``k * dt``), from the
    family's ``exp_modes``: the Lorentzian's one exact mode, ``c = A`` and
    ``lambda = i*center - width``, or the quadrature nodes x_q and weights
    w_q of the rectangular and power-Gaussian spectral integrals
    ``int g(x) e^(i omega(x) tau) dx``, ``c_q = w_q g(x_q)`` and
    ``lambda_q = i omega(x_q)``, their count growing with ``omega t_max``.

    Raises IntegrationError, before any node is built, when the family
    needs more than ``max(MAX_MODES, n_steps)`` nodes, or when the modes
    miss the table by more than ``MODE_TOLERANCE * area`` in max norm.
    """
    steps = len(table) - 1
    count, limit = model.mode_count(steps, dt), max(MAX_MODES, steps)
    if count > limit:
        raise IntegrationError(f"the correlator needs {count} exponential modes on this grid, "
                               f"more than the {limit} allowed (max of {MAX_MODES} and the steps)")
    coeffs, rates = model.exp_modes(steps, dt)
    error, tolerance = _max_mode_error(coeffs, rates, table, dt), MODE_TOLERANCE * model.area
    if not error <= tolerance:
        raise IntegrationError(f"exponential modes miss the correlator table by {error:.3e}, above "
                               f"the tolerance {tolerance:.3e} ({MODE_TOLERANCE:g} of the area)")
    return ExpModes(coeffs, rates, error)
