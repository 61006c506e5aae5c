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

Every array of the stepping loop has a leading batch axis over rows that
share the system, the initial state and the grid and differ only in their
spectral model (:func:`integrate_batch`; the points of an area or center
sweep), so the rows share a step's Python and numpy call overhead, most
of its cost at a few levels.  Each history path -- the full history, or K
modes for each K present, never padded -- serves one slice of the rows.
Every operation acts on each row alone, so a row's bytes do not depend
on its neighbours, :func:`integrate` is the one-row case, and the stored
states can be checked once, after the last step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .model import DensityMatrix, SystemSpec, interaction_coupling, require_finite
from .spectra import ExpModes, SpectralModel, correlator_modes, correlator_table

__all__ = ["EvolutionConfig", "Trajectory", "IntegrationError", "integrate", "integrate_batch"]

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
    """History terms of G rows from every stored product: O(k M^2) per row
    at step k.

    ``products[g, 0, k]`` holds ``V rho`` and ``products[g, 1, k]`` holds
    ``rho V`` of row g at step k; one stacked matmul contracts them with
    the weighted correlator and its conjugate.
    """

    def __init__(self, f_tables: np.ndarray, dt: float, n: int, m: int):
        self.f_pair = np.stack([f_tables, np.conj(f_tables)], axis=1)
        self.weights = np.full(n + 1, dt)
        self.weights[0] = 0.5 * dt
        self.products = np.empty((len(f_tables), 2, n + 1, m * m), dtype=complex)
        self.m = m
        self.count = 0

    def push(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Take ``V rho`` and ``rho V`` of the newest final states; return
        the next step's history terms."""
        k = self.count
        g = len(left)
        self.products[:, 0, k] = left.reshape(g, -1)
        self.products[:, 1, k] = right.reshape(g, -1)
        self.count = k + 1
        wf = self.weights[: k + 1] * self.f_pair[:, :, k + 1 : 0 : -1]
        s = wf[:, :, None, :] @ self.products[:, :, : k + 1]
        return (s[:, 0, 0] - s[:, 1, 0]).reshape(g, self.m, self.m)


class _ModeHistory:
    """History terms of G rows from K exponential modes each: O(K M^2)
    per row and step.

    ``sums[g, 0]`` accumulates ``V rho`` against the modes of F,
    ``sums[g, 1]`` accumulates ``rho V`` against those of conj(F).
    """

    def __init__(self, modes: list[ExpModes], dt: float, m: int):
        decay = np.exp(np.array([mode.rates for mode in modes]) * dt)
        self.decay = np.stack([decay, np.conj(decay)], axis=1)[..., None]
        self.coeffs = np.array([mode.coeffs for mode in modes])[:, None, :]
        self.coeffs_conj = np.conj(self.coeffs)
        self.sums = np.zeros((len(modes), 2, decay.shape[1], m * m), dtype=complex)
        self.m = m
        self.dt = dt
        self.weight = 0.5 * dt

    def push(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Take ``V rho`` and ``rho V`` of the newest final states; return
        the next step's history terms."""
        g = len(left)
        self.sums[:, 0] += self.weight * left.reshape(g, 1, -1)
        self.sums[:, 1] += self.weight * right.reshape(g, 1, -1)
        self.sums *= self.decay
        self.weight = self.dt
        s1 = self.coeffs @ self.sums[:, 0]
        s2 = self.coeffs_conj @ self.sums[:, 1]
        return (s1 - s2).reshape(g, self.m, self.m)


def integrate(
    spec: SystemSpec,
    model: SpectralModel,
    rho0: DensityMatrix,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> Trajectory:
    """Integrate the memory-kernel master equation on a uniform grid.

    The one-row case of :func:`integrate_batch`: every step is stored,
    and the row's IntegrationError (non-finite state, or trace drift
    beyond 1e-4, naming the offending step) is raised.

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
    (result,) = integrate_batch(spec, [model], rho0, cfg)
    if isinstance(result, IntegrationError):
        raise result
    return result


def integrate_batch(
    spec: SystemSpec,
    models: list[SpectralModel],
    rho0: DensityMatrix,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> list[Trajectory | IntegrationError]:
    """Integrate one row per spectral model, all rows on the same system,
    initial state and grid, in one stepping loop.

    Every step is stored.  A row's history term costs O(K M^2) per step
    when its correlator has K exponential modes on the grid, else O(k M^2)
    at step k (O(n_steps^2) in total); ``Trajectory.history_modes`` and
    ``Trajectory.mode_error`` record which path ran.  Each row's
    arithmetic is the same whatever rows run beside it.

    Returns each row's Trajectory, in the order of ``models``, or, for a
    row whose state became non-finite or whose trace drifted beyond 1e-4,
    an IntegrationError naming the first such step.  A failed row does
    not stop the others; the stored states are checked after the last
    step.
    """
    if rho0.n_levels != spec.n_levels:
        raise ValueError(
            f"initial state has {rho0.n_levels} levels, system has {spec.n_levels}"
        )
    if not models:
        return []
    n = cfg.n_steps
    m = spec.n_levels
    dt = cfg.dt
    half = 0.5 * dt
    times = np.arange(n + 1) * dt

    tables = [correlator_table(model, n * dt if n > 0 else dt, dt)[: n + 1] for model in models]
    modes = [correlator_modes(model, table, dt) for model, table in zip(models, tables)]

    # rows step sorted by history path (0: full history, else the mode
    # count K), so that each history serves one slice of rows
    path = [0 if row_modes is None else len(row_modes.coeffs) for row_modes in modes]
    rows = sorted(range(len(models)), key=path.__getitem__)
    histories = []  # (history, its slice of rows)
    for k, members in groupby(rows, key=path.__getitem__):
        members = list(members)
        if k == 0:
            history = _FullHistory(np.array([tables[r] for r in members]), dt, n, m)
        else:
            history = _ModeHistory([modes[r] for r in members], dt, m)
        start = histories[-1][1].stop if histories else 0
        histories.append((history, slice(start, start + len(members))))

    couplings = interaction_coupling(spec, times[:, None, None])

    # F(0) with its trapezoid weight: the newest term of S1 - S2, the
    # only one holding the state being corrected
    f_newest = half * np.array([tables[r][0] for r in rows])[:, None, None]
    f_newest_conj = np.conj(f_newest)

    def derivative(v, hist, left, right) -> np.ndarray:
        """-[V, S1 - S2] from the history terms and V rho, rho V."""
        x = hist + (f_newest * left - f_newest_conj * right)
        return x @ v - v @ x

    states = np.empty((len(rows), n + 1, m, m), dtype=complex)
    states[:, 0] = rho0.entries
    left = couplings[0] @ states[:, 0]
    right = states[:, 0] @ couplings[0]
    d_here = np.zeros((len(rows), m, m), dtype=complex)
    results: list = [None] * len(models)
    # a row that overflows has a non-finite state from then on, and its
    # steps from the first failed one on are discarded below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            hist = np.concatenate([h.push(left[rs], right[rs]) for h, rs in histories])
            v = couplings[i + 1]
            nxt = states[:, i] + dt * d_here
            for _ in range(cfg.corrector_iterations):
                nxt = states[:, i] + half * (d_here + derivative(v, hist, v @ nxt, nxt @ v))
            states[:, i + 1] = nxt
            left = v @ nxt
            right = nxt @ v
            d_here = derivative(v, hist, left, right)

        for j, r in enumerate(rows):
            later = states[j, 1:]
            finite = np.isfinite(later).all(axis=(1, 2))
            trace = np.trace(later, axis1=1, axis2=2)
            # hypot gives the bits of abs() of one complex trace, which
            # numpy's vectorized complex abs does not
            drift = np.hypot(trace.real - 1.0, trace.imag)
            failed = np.flatnonzero(~finite | (drift > TRACE_ABORT))
            if failed.size:
                k = failed[0]
                at = f"at step {k + 1} (t = {times[k + 1]:.6g})"
                results[r] = IntegrationError(
                    f"trace drift {drift[k]:.3e} exceeds {TRACE_ABORT} {at}"
                    if finite[k] else f"non-finite state {at}"
                )
                continue
            defect = np.abs(later - later.conj().transpose(0, 2, 1))
            results[r] = Trajectory(
                times=times,
                states=states[j],
                max_trace_drift=float(drift.max()),
                max_hermiticity_defect=float(defect.max()),
                history_modes=path[r],
                mode_error=0.0 if modes[r] is None else modes[r].error,
            )
    return results
