"""Non-Markovian time evolution of the reduced density matrix.

The interaction-picture master equation integrated here is the
memory-kernel (Volterra) equation

    d rho(t)/dt = - integral_0^t dt' K(t, t') rho(t'),

where the kernel action on a matrix ``rho`` is the four-product form

    K(t,t') rho = F(t-t') * (V_t V_t' rho - V_t' rho V_t)
                + conj(F(t-t')) * (rho V_t' V_t - V_t rho V_t'),

with ``V_t`` the interaction-picture coupling matrix and ``F`` the
retarded noise correlator.  This combination is exactly trace-free and
maps Hermitian matrices to Hermitian derivatives, so trace and
Hermiticity are conserved up to quadrature/rounding error.  The
integrator never applies it pair by pair; the tests check the factorized
sums below against the pairwise form (``kernel_apply`` in
``tests/oracles.py``).

The integrator is a uniform-grid trapezoidal predictor-corrector with
no memory truncation: the memory integral uses trapezoidal weights over
every past step, the outer step an explicit Euler predictor followed by
trapezoidal corrector iterations.  The kernel action factorizes as ``-[V_t, S1(t) - S2(t)]`` with
``S1 = integral F V rho`` and ``S2 = integral conj(F) rho V``.

Only the newest trapezoid term of S1 - S2 depends on the state being
corrected; the rest, the history term, is formed once per step from one
of two sources:

* exponential modes -- when ``F(tau) = sum_q c_q e^(lambda_q tau)`` on
  the grid (:func:`~mlsbath.spectra.correlator_modes`), K running sums
  ``G_q <- e^(lambda_q dt) (G_q + w_k V_k rho_k)`` give the history term
  as ``sum_q c_q G_q``: O(K M^2) per step, O(n_steps) in total;
* the full history -- the weighted sum over every stored product,
  O(n_steps^2) in total.  It serves every other correlator and is the
  reference the mode path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DensityMatrix, SystemSpec, interaction_coupling, require_finite
from .spectra import ExpModes, SpectralModel, correlator_modes, correlator_table

__all__ = ["EvolutionConfig", "Trajectory", "IntegrationError", "integrate"]

MAX_STEP = 0.01  # resolves the fastest phases by a wide margin
TRACE_ABORT = 1e-4


class IntegrationError(RuntimeError):
    """Raised when the integrator detects divergence or invalid state."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Grid and corrector settings for one integration."""

    t_max: float = 2.5
    dt: float = 0.001
    corrector_iterations: int = 2

    def __post_init__(self):
        require_finite(self)
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.dt > MAX_STEP:
            raise ValueError(f"dt must not exceed {MAX_STEP}, got {self.dt}")
        if self.t_max < self.dt:
            raise ValueError(f"t_max must be at least dt, got {self.t_max}")
        if self.corrector_iterations < 1:
            raise ValueError("corrector_iterations must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid, state history and derived observables of one run.

    ``states[k]`` is the interaction-picture density matrix at
    ``times[k]``; ``states[0]`` is the initial state exactly.  The
    qubit-subspace observables are the level-2 population, the
    coherence magnitude |rho_12| (picture-independent for the
    degenerate qubit pair) and the leakage 1 - rho_11 - rho_22.
    ``history_modes`` is the number of exponential modes the history
    sums ran on (0 for the full history) and ``mode_error`` their
    max-norm distance from the correlator table (0.0 for the full
    history).
    """

    times: np.ndarray
    states: np.ndarray
    max_trace_drift: float = 0.0
    max_hermiticity_defect: float = 0.0
    history_modes: int = 0
    mode_error: float = 0.0

    @property
    def population_2(self) -> np.ndarray:
        return np.real(self.states[:, 1, 1])

    @property
    def coherence_12(self) -> np.ndarray:
        return np.abs(self.states[:, 0, 1])

    @property
    def leakage(self) -> np.ndarray:
        return 1.0 - np.real(self.states[:, 0, 0] + self.states[:, 1, 1])


class _FullHistory:
    """History term from every stored product: O(k M^2) at step k."""

    def __init__(self, f_table: np.ndarray, dt: float, n: int, m: int):
        self.f_table = f_table
        self.weights = np.full(n + 1, dt)
        self.weights[0] = 0.5 * dt
        self.left = np.empty((n + 1, m, m), dtype=complex)
        self.right = np.empty_like(self.left)
        self.count = 0

    def push(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Take ``V rho`` and ``rho V`` of the newest final state; return
        the next step's history term."""
        k = self.count
        self.left[k] = left
        self.right[k] = right
        self.count = k + 1
        wf = self.weights[: k + 1] * self.f_table[k + 1 : 0 : -1]
        s1 = np.tensordot(wf, self.left[: k + 1], axes=(0, 0))
        s2 = np.tensordot(np.conj(wf), self.right[: k + 1], axes=(0, 0))
        return s1 - s2


class _ModeHistory:
    """History term from K exponential modes: O(K M^2) per step.

    ``sums[0]`` accumulates ``V rho`` against the modes of F,
    ``sums[1]`` accumulates ``rho V`` against those of conj(F).
    """

    def __init__(self, modes: ExpModes, dt: float, m: int):
        decay = np.exp(modes.rates * dt)
        self.decay = np.stack([decay, np.conj(decay)])[:, :, None]
        self.coeffs = modes.coeffs
        self.coeffs_conj = np.conj(modes.coeffs)
        self.sums = np.zeros((2, len(modes.coeffs), m * m), dtype=complex)
        self.m = m
        self.dt = dt
        self.weight = 0.5 * dt

    def push(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Take ``V rho`` and ``rho V`` of the newest final state; return
        the next step's history term."""
        self.sums[0] += self.weight * left.ravel()
        self.sums[1] += self.weight * right.ravel()
        self.sums *= self.decay
        self.weight = self.dt
        s1 = self.coeffs @ self.sums[0]
        s2 = self.coeffs_conj @ self.sums[1]
        return (s1 - s2).reshape(self.m, self.m)


def integrate(
    spec: SystemSpec,
    model: SpectralModel,
    rho0: DensityMatrix,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> Trajectory:
    """Integrate the memory-kernel master equation on a uniform grid.

    Every step is stored.  The history term costs O(K M^2) per step when
    the correlator has K exponential modes on the grid, else O(k M^2) at
    step k (O(n_steps^2) in total); ``Trajectory.history_modes`` and
    ``Trajectory.mode_error`` record which path ran.  Aborts with
    IntegrationError if the trace drifts beyond 1e-4 or any entry
    becomes non-finite, naming the offending step.

    Parameters
    ----------
    spec : SystemSpec
        System energies and couplings.
    model : SpectralModel
        Environment spectral density; its correlator is tabulated on
        the integration grid before stepping.
    rho0 : DensityMatrix
        Initial state (taken factorized from the environment at t=0).
    cfg : EvolutionConfig
        Grid and corrector settings.
    """
    if rho0.n_levels != spec.n_levels:
        raise ValueError(
            f"initial state has {rho0.n_levels} levels, system has {spec.n_levels}"
        )
    n = cfg.n_steps
    m = spec.n_levels
    dt = cfg.dt
    half = 0.5 * dt
    times = np.arange(n + 1) * dt

    f_table = correlator_table(model, n * dt if n > 0 else dt, dt)[: n + 1]
    modes = correlator_modes(model, f_table, dt)
    if modes is None:
        history = _FullHistory(f_table, dt, n, m)
    else:
        history = _ModeHistory(modes, dt, m)

    couplings = interaction_coupling(spec, times[:, None, None])

    # F(0) with its trapezoid weight: the newest term of S1 - S2, the
    # only one holding the state being corrected
    f_newest = half * f_table[0]
    f_newest_conj = np.conj(f_newest)

    def derivative(v, hist, left, right) -> np.ndarray:
        """-[V, S1 - S2] from the history term and V rho, rho V."""
        x = hist + (f_newest * left - f_newest_conj * right)
        return x @ v - v @ x

    states = np.empty((n + 1, m, m), dtype=complex)
    states[0] = rho0.entries
    left = couplings[0] @ states[0]
    right = states[0] @ couplings[0]
    d_here = np.zeros((m, m), dtype=complex)
    max_drift = 0.0
    max_defect = 0.0
    for i in range(n):
        hist = history.push(left, right)
        v = couplings[i + 1]
        nxt = states[i] + dt * d_here
        for _ in range(cfg.corrector_iterations):
            nxt = states[i] + half * (d_here + derivative(v, hist, v @ nxt, nxt @ v))
        states[i + 1] = nxt

        if not np.isfinite(nxt).all():
            raise IntegrationError(
                f"non-finite state at step {i + 1} (t = {times[i + 1]:.6g})"
            )
        drift = abs(nxt.trace() - 1.0)
        if drift > TRACE_ABORT:
            raise IntegrationError(
                f"trace drift {drift:.3e} exceeds {TRACE_ABORT} "
                f"at step {i + 1} (t = {times[i + 1]:.6g})"
            )
        max_drift = max(max_drift, drift)
        max_defect = max(max_defect, abs(nxt - nxt.conj().T).max())
        left = v @ nxt
        right = nxt @ v
        d_here = derivative(v, hist, left, right)

    return Trajectory(
        times=times,
        states=states,
        max_trace_drift=float(max_drift),
        max_hermiticity_defect=float(max_defect),
        history_modes=0 if modes is None else len(modes.coeffs),
        mode_error=0.0 if modes is None else modes.error,
    )
