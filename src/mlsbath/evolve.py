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
corrected; the rest, the history term, is formed once per step from the
correlator's exponential modes ``F(tau) = sum_q c_q e^(lambda_q tau)`` on
the grid (:func:`~mlsbath.spectra.correlator_modes`, every spectral
family): K running sums ``G_q <- e^(lambda_q dt) (G_q + w_k V_k rho_k)``
give the history term as ``sum_q c_q G_q``, O(K M^2) per step and
O(n_steps) in total.  A row whose correlator has no modes within bounds
on the grid does not step and gets an IntegrationError.  The O(n_steps^2)
sum over every stored step, which the mode path is tested against, is
``full_history_integrate`` in ``tests/oracles.py``.

The step is linear in (rho_i, its derivative, the history term), and only
the coupling changes with time, as ``V_t = Phi_t * V_0`` entrywise with
``Phi_t[j, k] = exp(-i (E_j - E_k) t)``.  In the frame rotated by the new
time's phases the coupling is the bare ``V_0``, so there the whole step
(predictor, corrector passes, the new derivative, and ``V rho``, ``rho V``
for the history) is one fixed matrix per row, set by ``V_0``, F(0), dt
and the corrector count.  Rows of up to ``TABULATED_LEVELS`` = 8 levels
tabulate it once, on the 3 M^2 basis inputs, and each step rotates its
inputs in, applies it as one matrix-vector product and rotates the
result out; larger rows, for which the 12 M^4 entries cost more than the
M x M products, run the same step function on the interaction-picture
coupling every step.  Either way the step returns the increment
``rho_(i+1) - rho_i``, never ``rho_(i+1)`` itself, so the stored state is
``rho_i`` plus an O(dt) term and no 1 + O(dt) entry rounds the state the
same way on every step.

Every array of the stepping loop has a leading batch axis over rows that
share the system, the initial state and the grid and differ only in their
spectral model (:func:`integrate_batch`; the points of an area or center
sweep), so the rows share a step's Python and numpy call overhead, most
of its cost at a few levels.  The rows with K modes, for each K present,
share one history, never padded.  Every operation acts on each row alone,
so a row's bytes do not depend on its neighbours, :func:`integrate` is
the one-row case, and the stored states can be checked once, after the
last step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .model import DensityMatrix, SystemSpec, interaction_phases, require_finite
from .spectra import ExpModes, IntegrationError, SpectralModel, correlator_modes, correlator_table

__all__ = ["EvolutionConfig", "Trajectory", "IntegrationError", "integrate", "integrate_batch"]

MAX_STEP = 0.01  # resolves the fastest phases by a wide margin
TRACE_ABORT = 1e-4
# Rows of up to this many levels step on a tabulated map of 12 M^4
# entries: the largest M at which it beat the structured step for every
# corrector count measured (M = 9 and 10 were mixed).
TABULATED_LEVELS = 8


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
    sums ran on and ``mode_error`` their max-norm distance from the
    correlator table.
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


def _step(v, f_newest, s, d, hist, dt: float, iterations: int) -> tuple:
    """One predictor-corrector step from the state ``s``, whose derivative
    is ``d``, under the history term ``hist``, in a frame where the
    coupling at the new time is ``v``; every argument but ``v`` may carry
    leading batch axes.

    Returns the increment ``nxt - s``, the derivative at ``nxt``, and
    ``v nxt`` and ``nxt v`` for the history sums.  Each is linear in
    (s, d, hist).
    """
    half = 0.5 * dt
    f_newest_conj = np.conj(f_newest)

    def derivative(left, right) -> np.ndarray:
        """-[V, S1 - S2] from the history term and V rho, rho V."""
        x = hist + (f_newest * left - f_newest_conj * right)
        return x @ v - v @ x

    delta = dt * d
    for _ in range(iterations):
        nxt = s + delta
        delta = half * (d + derivative(v @ nxt, nxt @ v))
    nxt = s + delta
    left = v @ nxt
    right = nxt @ v
    return delta, derivative(left, right), left, right


def _advance(coupling: np.ndarray, phases: np.ndarray, f_newest: np.ndarray,
             cfg: EvolutionConfig):
    """The step from grid point i to i + 1 in the interaction picture, as a
    function of (i, s, d, hist) that returns what :func:`_step` returns.

    Above ``TABULATED_LEVELS`` it is :func:`_step` with the coupling at
    the new time.  Up to it, it is one matrix per row: in the frame
    rotated by the new time's phases the coupling is the bare one, so the
    step there is a fixed linear map, tabulated once on the 3 M^2 basis
    inputs and applied as one matrix-vector product.
    """
    dt, iterations = cfg.dt, cfg.corrector_iterations
    m = len(coupling)
    if m > TABULATED_LEVELS:
        def advance(i, s, d, hist):
            return _step(coupling * phases[i + 1], f_newest, s, d, hist, dt, iterations)

        return advance

    k = m * m
    basis = np.eye(3 * k, dtype=complex).reshape(3 * k, 3, m, m).transpose(1, 0, 2, 3)
    columns = _step(coupling, f_newest[:, None], *basis, dt, iterations)
    # maps[r] @ [s, d, hist] = [delta, d_next, left, right], each flattened
    maps = np.stack(columns, axis=2).reshape(len(f_newest), 3 * k, 4 * k)
    maps = np.ascontiguousarray(maps.transpose(0, 2, 1))

    def advance(i, s, d, hist):
        phase = phases[i + 1]
        z = np.concatenate((s, d, hist), axis=1).reshape(-1, 3, m, m) * np.conj(phase)
        out = (maps @ z.reshape(-1, 3 * k, 1)).reshape(-1, 4, m, m) * phase
        return out[:, 0], out[:, 1], out[:, 2], out[:, 3]

    return advance


def integrate(
    spec: SystemSpec,
    model: SpectralModel,
    rho0: DensityMatrix,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> Trajectory:
    """Integrate the memory-kernel master equation of the system ``spec``
    in the spectrum ``model`` from ``rho0`` (factorized from the
    environment at t = 0) on the uniform grid of ``cfg``.

    The one-row case of :func:`integrate_batch`: every step is stored,
    and the row's IntegrationError (no exponential modes within bounds,
    non-finite state, or trace drift beyond 1e-4, naming the offending
    step) is raised.
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
    for the K exponential modes of its correlator on the grid, recorded
    with their error in ``Trajectory.history_modes`` and
    ``Trajectory.mode_error``.  Each row's arithmetic is the same whatever
    rows run beside it.

    Returns each row's Trajectory, in the order of ``models``, or an
    IntegrationError: before stepping, from
    :func:`~mlsbath.spectra.correlator_modes` (more modes than the grid
    allows, or modes that miss the table); after it, naming the first step
    at which the row's state became non-finite or its trace drifted beyond
    1e-4.  A failed row does not stop the others; the stored states are
    checked after the last step.
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

    tables = [correlator_table(model, n * dt if n > 0 else dt, dt)[: n + 1] for model in models]
    results: list = [None] * len(models)
    modes = {}
    for r, (model, table) in enumerate(zip(models, tables)):
        try:
            modes[r] = correlator_modes(model, table, dt)
        except IntegrationError as exc:
            results[r] = exc

    # rows step sorted by mode count K, so that each history serves one
    # slice of rows; a row that has no modes does not step
    count = {r: len(row_modes.coeffs) for r, row_modes in modes.items()}
    rows = sorted(modes, key=count.__getitem__)
    if not rows:
        return results
    histories, start = [], 0  # (history, its slice of rows)
    for _, members in groupby(rows, key=count.__getitem__):
        members = [modes[r] for r in members]
        histories.append((_ModeHistory(members, dt, m), slice(start, start + len(members))))
        start += len(members)

    phases = interaction_phases(spec, times[:, None, None])
    # F(0) with its trapezoid weight: the newest term of S1 - S2, the
    # only one holding the state being corrected
    f_newest = half * np.array([tables[r][0] for r in rows])[:, None, None]

    states = np.empty((len(rows), n + 1, m, m), dtype=complex)
    states[:, 0] = rho0.entries
    v = spec.coupling * phases[0]
    left = v @ states[:, 0]
    right = states[:, 0] @ v
    d_here = np.zeros((len(rows), m, m), dtype=complex)
    # a row that overflows has a non-finite state from then on, and its
    # steps from the first failed one on are discarded below
    with np.errstate(over="ignore", invalid="ignore"):
        advance = _advance(spec.coupling, phases, f_newest, cfg)
        for i in range(n):
            hist = np.concatenate([h.push(left[rs], right[rs]) for h, rs in histories])
            delta, d_here, left, right = advance(i, states[:, i], d_here, hist)
            states[:, i + 1] = states[:, i] + delta

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
                history_modes=count[r],
                mode_error=modes[r].error,
            )
    return results
