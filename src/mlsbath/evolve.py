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
trapezoidal corrector iterations.  The kernel action factorizes as
``-[V_t, X]`` with X = S1 - S2, ``S1 = integral F V rho`` and
``S2 = integral conj(F) rho V``, which is S1^dagger for Hermitian rho.  So
X is anti-Hermitian and -[V, X] = Y + Y^dagger with Y = X V: a step forms
V rho and X V once, takes rho V and V X as their adjoints (:func:`_step`)
and returns a derivative Hermitian bit for bit.

Only the newest trapezoid term of S1 - S2 depends on the state being
corrected; the rest, the history term, comes from the correlator's
exponential modes ``F(tau) = sum_q c_q e^(lambda_q tau)`` on the grid
(:func:`~mlsbath.spectra.correlator_modes`, every spectral family): K
running sums ``G_q <- e^(lambda_q dt) (G_q + w_k V_k rho_k)`` give S1's
part ``Z = sum_q c_q G_q`` and the history term as ``Z - Z^dagger``,
O(K M^2) per step and O(n_steps) in total.  A row whose correlator has
no modes within bounds on the grid does not step and gets an
IntegrationError.  The O(n_steps^2) sum over every stored step, which
the mode path is tested against, is ``full_history_integrate`` in
``tests/oracles.py``.

The integrator advances B steps at a time (:func:`_block`).  The history
term at step i + j of a block from i splits in two: the old steps' part,
which the mode sums at the block start carry forward,
``sum_q c_q e^(lambda_q (j+1) dt) G_q``, and the block's own steps
k <= j, W - W^dagger with W = sum_k dt F((j+1-k) dt) V rho_k; ``V rho``
at the block's steps then carries the mode sums past the block in one
product.  The stored state is ``rho_i`` plus an increment summed from the
steps' increments, so no 1 + O(dt) entry rounds the state the same way on
every step.

A block is linear in (rho_i, its derivative, the old-history terms), and
only the coupling changes with time, as ``V_t = Phi_t * V_0`` entrywise
with ``Phi_t[j, k] = exp(-i (E_j - E_k) t)``.  In the frame rotated by the
phases of a block start i, the coupling at step i + j is ``Phi_j * V_0``
whatever i is, so a block is one fixed linear map per row.  The loop
carries the state, its derivative and the mode sums in that frame; the
map hands the next block its inputs turned by conj(Phi_B), and one
multiply after the last block rotates the stored states into the
interaction picture (:func:`_run_blocks`).  Rows of up to
``TABULATED_LEVELS`` = 8 levels tabulate the map once, from its responses
to the Hermitian basis h_ab as rho_i and as its derivative and to i h_ab
as the first history term, which one gather turns into those to the unit
matrices (:func:`_tabulate`), and apply it as one matrix-vector product
per block, B (:func:`_block_steps`) balancing the map's
(2 B + 1)(B + 2) M^4 entries against the numpy calls it saves.  Larger
rows run the block's steps on the state itself, ``UNTABULATED_BLOCK`` = 8
at a time, with the couplings ``Phi_j * V_0`` (:func:`_block_map`).

Every array of the stepping loop has a leading batch axis over rows that
share the system, the initial state and the grid and differ only in their
spectral model (:func:`integrate_batch`; the points of an area or center
sweep), so the rows share a step's Python and numpy call overhead, most
of its cost at a few levels.  The rows with K modes run one stepping loop
on one history, never padded, for each K present; a sweep's points share
one K.  Every operation acts on each row alone, so a row's bytes do not
depend on its neighbours, :func:`integrate` is the one-row case, and the
stored states can be checked once, after the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .model import (DensityMatrix, SystemSpec, interaction_coupling, interaction_phases,
                    require_finite)
from .spectra import ExpModes, IntegrationError, SpectralModel, correlator_modes, correlator_table

__all__ = ["EvolutionConfig", "Trajectory", "IntegrationError", "integrate", "integrate_batch"]

MAX_STEP = 0.01  # resolves the fastest phases by a wide margin
TRACE_ABORT = 1e-4
# Rows of up to this many levels step on a tabulated block map: the
# largest M at which it beat the untabulated blocks for each family
# measured on 1 250-step runs (at M = 9 the 114-mode power-Gaussian was
# 1.5 times slower tabulated).
TABULATED_LEVELS = 8
# Those rows step in blocks of B steps, the largest B with
# B (B + 2) M^2 <= BLOCK_BUDGET, at least one: 12 at M = 2, 8 at 3, 5 at
# 4, 4 at 5, 3 at 6 and 2 at 7 and 8, none more than a quarter slower
# than the fastest B measured on 2 500-step runs, where single runs drift
# by +-30 % on the measuring host.  With the map tabulated from 3 M^2
# inputs, B = 12 and 16 at M = 3 were 5-10 % faster than 8 on 5 000-step
# runs, and 24 and 32 slower, as the map grows as B^2.  B (B + 2) M^2 is
# the count of basis steps a tabulation on every input would take; the
# map is tabulated in 3 M^2 B of them.  A run of n steps keeps that count
# within n / 2 instead, so that the map's cost stays below that of the
# steps it saves.
BLOCK_BUDGET = 720
# Larger rows step the state itself in blocks of this many steps: 16 made
# the M = 40 Lorentzian a quarter slower on one BLAS thread, and 4 gave up
# most of the gain on many-mode power-Gaussian rows.
UNTABULATED_BLOCK = 8


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


def _adjoint(x: np.ndarray) -> np.ndarray:
    """The conjugate transpose of every matrix in ``x``, as a new array."""
    return np.conj(x.swapaxes(-1, -2))


class _BlockHistory:
    """History terms of G rows from K exponential modes each, B steps at a
    time, in the frame rotated by the phases of the block start: O(B K M^2)
    per row and block.

    At the start i of a block, ``sums[g, q]`` holds
    ``sum_k w_k e^(lambda_q (i - k) dt) V_k rho_k`` over the steps k < i,
    times conj(Phi_i) entrywise; the sums of ``rho_k V_k`` are their
    adjoint (:meth:`terms`).  :func:`_block` weighs every step of its
    block, the start included, by dt, so the sums start at ``-dt/2`` times
    step 0's term, which leaves the trapezoid weight dt/2 on it.  ``decay``
    carries the sums over a block and, by ``turn`` = conj(Phi_B), into the
    frame of the next block start.
    """

    def __init__(self, modes: list[ExpModes], dt: float, block: int, turn, left):
        rates = np.array([mode.rates for mode in modes])[:, None, :]  # (G, 1, K)
        coeffs = np.array([mode.coeffs for mode in modes])[:, None, :]
        lags = dt * np.arange(1, block + 1)[:, None]  # (B, 1)
        # ahead[g, j, q] = c_q e^(lambda_q (j + 1) dt): its product with the
        # sums is Z, S1's part of the old steps' history term at step j
        self.ahead = coeffs * np.exp(rates * lags)
        # weights[g, q, l] = dt e^(lambda_q (B - l) dt) for step l of a block
        rates = rates.transpose(0, 2, 1)
        self.weights = dt * np.exp(rates * lags[::-1, 0])
        self.decay = np.exp(rates * (block * dt)) * turn.reshape(-1)  # (G, K, M^2)
        self.sums = np.repeat(-0.5 * dt * left.reshape(len(modes), 1, -1), rates.shape[1], axis=1)

    def correlator(self) -> np.ndarray:
        """F((j + 1) dt) for the steps j of a block from the modes, (G, B)."""
        return self.ahead.sum(axis=2)

    def terms(self, out: np.ndarray) -> None:
        """Write the old steps' part of the history term at each step of the
        block, Z - Z^dagger for Hermitian states, into ``out``, (G, B, M, M)."""
        g, block, m, _ = out.shape
        np.matmul(self.ahead, self.sums, out=out.reshape(g, block, m * m))
        # Z^dagger is a new array: no entry is read once written
        out -= _adjoint(out)

    def push(self, lefts: np.ndarray) -> None:
        """Carry the sums past a block, into the next block's frame:
        ``lefts`` holds ``V rho`` at the block's B steps in that frame,
        (G, B, M, M)."""
        lefts = lefts.reshape(self.sums.shape[0], -1, self.sums.shape[2])
        # at B = 1 the product is an outer product, which a broadcast
        # multiply forms without the cost of a BLAS call
        fresh = self.weights * lefts if lefts.shape[1] == 1 else self.weights @ lefts
        self.sums *= self.decay
        self.sums += fresh


def _step(v, f_newest, s, d, hist, dt: float, iterations: int) -> tuple:
    """One predictor-corrector step from the state ``s``, whose derivative
    is ``d``, under the history term ``hist``, in a frame where the
    coupling at the new time is ``v``; every argument but ``v`` may carry
    leading batch axes.  ``s`` and ``d`` must be Hermitian and ``hist``
    anti-Hermitian, as :func:`integrate` gives them: then X = hist +
    f V rho - (f V rho)^dagger, and a pass forms V rho and Y = X V once and
    the derivative -[V, X] as Y + Y^dagger, Hermitian bit for bit.  Returns
    the increment ``nxt - s``, the derivative at ``nxt`` and ``v nxt``.
    """

    def derivative(left) -> np.ndarray:
        """-[V, X] = Y + Y^dagger from the history term and V rho."""
        newest = f_newest * left
        y = (hist + (newest - _adjoint(newest))) @ v
        return y + _adjoint(y)

    delta = dt * d
    for _ in range(iterations):
        delta = 0.5 * dt * (d + derivative(v @ (s + delta)))
    left = v @ (s + delta)
    return delta, derivative(left), left


def _block(coupling, couplings, f_newest, f_ahead, s, d, hist, dt: float,
           iterations: int) -> np.ndarray:
    """The B = ``len(couplings)`` steps of :func:`_step` from a block start
    i, in a frame where the coupling is ``coupling`` at step i and
    ``couplings[j]`` at step i + j + 1.  ``s`` and ``d`` are rho_i and its
    derivative, ``hist[..., j, :, :]`` is the old steps' part of the
    history term at step j of the block (:meth:`_BlockHistory.terms`) and
    ``f_ahead[..., j, :, :]`` is F((j + 1) dt); every argument but the
    couplings may carry leading batch axes.  The block's own steps k <= j
    add W - W^dagger to that term, W = sum_k dt F((j + 1 - k) dt) V rho_k.

    Returns ``out`` (..., 3 B, M, M): for j = 1..B, ``out[..., j - 1, :, :]``
    is ``rho_(i+j) - rho_i`` and ``out[..., B + j - 1, :, :]`` the
    derivative at step i + j; ``out[..., 2 B:, :, :]`` holds ``V rho`` at
    steps i..i+B-1, for :meth:`_BlockHistory.push`.
    """
    block, m = couplings.shape[:2]
    batch = np.broadcast_shapes(s.shape[:-2], f_newest.shape[:-2])
    out = np.empty(batch + (3 * block, m, m), dtype=complex)
    increments = out[..., :block, :, :]
    derivatives = out[..., block : 2 * block, :, :]
    lefts = out[..., 2 * block :, :, :]
    lefts[..., 0, :, :] = coupling @ s
    here = s
    for j in range(block):
        own = (dt * f_ahead[..., j::-1, :, :] * lefts[..., : j + 1, :, :]).sum(axis=-3)
        own -= _adjoint(own)
        own += hist[..., j, :, :]
        delta, d, left = _step(couplings[j], f_newest, here, d, own, dt, iterations)
        if j:
            delta += increments[..., j - 1, :, :]
        increments[..., j, :, :] = delta
        derivatives[..., j, :, :] = d
        if j + 1 < block:
            lefts[..., j + 1, :, :] = left
        here = s + delta
    return out


def _tabulate(spec: SystemSpec, couplings, f_newest, f_ahead, dt: float,
              iterations: int) -> np.ndarray:
    """:func:`_block` in a block start's frame as one matrix per row,
    (R, (2 B + 1) M^2, (B + 2) M^2): it takes rho_i, its derivative and the
    B history terms to :func:`_block`'s columns without the derivatives
    before step i + B.  ``couplings`` are the couplings ``Phi_j * V_0`` at
    the block's steps 1..B, ``f_newest`` and ``f_ahead`` as in
    :func:`_block_map`.

    The map is complex-linear, and :func:`_block` computes it on Hermitian
    rho_i and derivative and anti-Hermitian history terms.  So it runs
    once, on the 3 M^2 inputs h_ab, h_ab and i h_ab, with the Hermitian
    basis h_ab = e_ab + e_ba for a <= b and i (e_ba - e_ab) for a > b.  As
    e_ab is (h_ab - i h_ba) / 2 for a < b, (h_ba + i h_ab) / 2 for a > b and
    h_aa / 2, one gather and a sign, and a factor -i on the history term,
    give the responses to e_ab.  That to e_ab as the history term of step
    j is that to it as the first one, delayed by j steps and rotated by
    Phi_j * conj(Phi_j[a, b]): Phi_(j+k) = Phi_j * Phi_k entrywise, so the
    couplings of the delayed steps are those of the first ones rotated by
    Phi_j.  Its derivative at step i + B is the first one's at step i + B - j.
    """
    rows, block = f_ahead.shape
    m = len(spec.coupling)
    p = m * m
    a, b = np.divmod(np.arange(p), m)
    upper = np.where(a <= b, 1, -1j)[:, None, None] * np.eye(p).reshape(p, m, m)
    herm = upper + _adjoint(upper)  # herm[a m + b] = h_ab
    basis = np.einsum("kl,pij->kplij", np.diag([1, 1, 1j]), herm).reshape(3 * p, 3, m, m)
    hist = np.zeros((3 * p, block, m, m), dtype=complex)
    hist[:, 0] = basis[:, 2]
    out = _block(spec.coupling, couplings, f_newest[:, None], f_ahead[:, None, :, None, None],
                 basis[:, 0], basis[:, 1], hist, dt, iterations)
    # response[r, input, input entry, column, column entry], to h_ab then e_ab
    response = out.reshape(rows, 3, p, 3 * block, p)
    low, high = np.minimum(a, b), np.maximum(a, b)
    response = (response[:, :, low * m + high] + 1j * np.sign(a - b)[:, None, None]
                * response[:, :, high * m + low]) * np.array([0.5, 0.5, -0.5j])[:, None, None, None]
    maps = np.zeros((rows, block + 2, p, 2 * block + 1, p), dtype=complex)
    maps[:, :2] = response[:, :2, :, np.r_[: block, 2 * block - 1 : 3 * block]]
    phases = interaction_phases(spec, dt * np.arange(block)[:, None, None]).reshape(block, p)
    for j, phase in enumerate(phases):
        delayed = response[:, 2] * np.multiply.outer(np.conj(phase), phase)[:, None]
        history = maps[:, 2 + j]
        history[:, :, j:block] = delayed[:, :, : block - j]
        history[:, :, block] = delayed[:, :, 2 * block - 1 - j]
        history[:, :, block + 1 + j :] = delayed[:, :, 2 * block : 3 * block - j]
    # a matrix-vector product gives the same bytes on any number of BLAS
    # threads, a vector-matrix product does not
    return np.ascontiguousarray(maps.reshape(rows, (block + 2) * p, -1).transpose(0, 2, 1))


def _block_map(spec: SystemSpec, f_newest: np.ndarray, f_ahead: np.ndarray, turn: np.ndarray,
               dt: float, iterations: int):
    """The B steps of :func:`_block` from a block start i, in the frame
    rotated by Phi_i, the phases at step i, as a function ``advance(z)`` of
    R rows with ``f_newest`` (R, 1, 1) and ``f_ahead`` = F((j + 1) dt),
    (R, B).  ``z`` (R, B + 2, M, M) holds rho_i, its derivative and the
    history terms of :meth:`_BlockHistory.terms`, all in that frame.
    ``advance`` returns the increments ``out[:, :B]`` in that frame, and
    the derivative at step i + B ``out[:, -B - 1]`` and ``V rho`` at the
    block's steps ``out[:, -B:]`` turned by ``turn`` = conj(Phi_B) into
    the frame of step i + B.

    In the frame rotated by Phi_i the coupling at step i + j is
    ``Phi_j * V_0``, the same for every block, so the B steps are one fixed
    linear map per row.  Rows of up to ``TABULATED_LEVELS`` levels tabulate
    it once (:func:`_tabulate`), fold the turn into its rows, and apply it
    as one matrix-vector product.  Larger rows run :func:`_block` on the
    Hermitian state itself, with the couplings ``Phi_j * V_0``.
    """
    rows, block = f_ahead.shape
    coupling = spec.coupling
    m = len(coupling)
    couplings = interaction_coupling(spec, dt * np.arange(1, block + 1)[:, None, None])
    if m > TABULATED_LEVELS:
        f_ahead = f_ahead[:, :, None, None]

        def advance(z):
            out = _block(coupling, couplings, f_newest, f_ahead, z[:, 0], z[:, 1], z[:, 2:],
                         dt, iterations)
            out[:, -block - 1 :] *= turn
            return out

        return advance

    maps = _tabulate(spec, couplings, f_newest, f_ahead, dt, iterations)
    maps.reshape(rows, 2 * block + 1, m * m, -1)[:, block:] *= turn.reshape(-1, 1)

    def advance(z):
        return (maps @ z.reshape(rows, -1, 1)).reshape(rows, -1, m, m)

    return advance


def _block_steps(m: int, n_steps: int) -> int:
    """The block length B of a run of ``n_steps`` on ``m`` levels: above
    ``TABULATED_LEVELS``, ``UNTABULATED_BLOCK`` but at most n_steps;
    otherwise the largest B >= 1 with B (B + 2) m^2 <= min(``BLOCK_BUDGET``,
    n_steps / 2), which keeps B below n_steps."""
    if m > TABULATED_LEVELS:
        return min(UNTABULATED_BLOCK, n_steps)
    budget = min(BLOCK_BUDGET, n_steps // 2)
    return max(1, math.isqrt(budget // (m * m) + 1) - 1)


def _run_blocks(spec: SystemSpec, modes: list[ExpModes], f_newest: np.ndarray,
                states: np.ndarray, times: np.ndarray, cfg: EvolutionConfig) -> None:
    """Fill ``states[:, 1:]`` of rows with the same number of ``modes`` B
    steps at a time by :func:`_block_map`; the last block may be partial.

    The loop carries the state, its derivative and the mode sums of V rho
    in the frame of the block start i, and stores the block's states
    i..i+B-1 in it; a full block turns its last state into the next
    block's frame and pushes its B columns of V rho into the sums.
    One multiply by Phi at the block starts, after the last block, rotates
    every stored state into the interaction picture.
    """
    rows, n = len(states), len(times) - 1
    m = spec.n_levels
    block = _block_steps(m, n)
    turn = np.conj(interaction_phases(spec, block * cfg.dt))
    history = _BlockHistory(modes, cfg.dt, block, turn, spec.coupling @ states[:, 0])
    advance = _block_map(spec, f_newest, history.correlator(), turn, cfg.dt,
                         cfg.corrector_iterations)
    # the input of every block: rho_i, its derivative and the history terms
    z = np.zeros((rows, block + 2, m, m), dtype=complex)
    z[:, 0] = states[:, 0]
    terms = z[:, 2:]
    for i in range(0, n, block):
        history.terms(out=terms)
        out = advance(z)
        stop = min(i + block, n)
        np.add(z[:, :1], out[:, : stop - i], out=states[:, i + 1 : stop + 1])
        if stop < i + block:  # a partial block is the last
            break
        np.multiply(states[:, stop], turn, out=z[:, 0])
        states[:, stop] = z[:, 0]
        z[:, 1] = out[:, -block - 1]
        history.push(out[:, -block:])

    phases = interaction_phases(spec, times[::block, None, None])
    full = n - n % block
    blocks = states[:, :full].reshape(rows, -1, block, m, m)  # a view of states
    blocks *= phases[:-1, None]
    states[:, full:] *= phases[-1]


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
    initial state and grid, in one stepping loop per mode count K.

    A row's history term costs O(K M^2) per step for the K exponential
    modes of its correlator on the grid, recorded with their error in
    ``Trajectory.history_modes`` and ``Trajectory.mode_error``.  The rows
    of each K share one loop (:func:`_run_blocks`), which advances them B
    steps at a time, on a tabulated block map up to ``TABULATED_LEVELS``
    levels and on the state itself above (:func:`_block_map`), and stores
    every step.  The points of an area or center sweep have one K, so they
    share one loop; a mixed batch runs one loop after another.  Each row's
    arithmetic is the same whatever rows run beside it.  The history sums
    and steps take the states as Hermitian, though ``DensityMatrix`` lets
    ``rho0`` through with a defect of up to 1e-10.

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

    tables = [correlator_table(model, n * dt, dt) for model in models]
    results: list = [None] * len(models)
    modes = {}
    for r, (model, table) in enumerate(zip(models, tables)):
        try:
            modes[r] = correlator_modes(model, table, dt)
        except IntegrationError as exc:
            results[r] = exc

    # the rows with K modes run one stepping loop for each K present; a
    # row that has no modes does not step.  A row that overflows has a
    # non-finite state from then on, and its steps from the first failed
    # one on are discarded below
    count = {r: len(row_modes.coeffs) for r, row_modes in modes.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        for _, rows in groupby(sorted(modes, key=count.__getitem__), key=count.__getitem__):
            rows = list(rows)
            # F(0) with its trapezoid weight: the newest term of S1 - S2,
            # the only one holding the state being corrected
            f_newest = half * np.array([tables[r][0] for r in rows])[:, None, None]
            states = np.empty((len(rows), n + 1, m, m), dtype=complex)
            states[:, 0] = rho0.entries
            _run_blocks(spec, [modes[r] for r in rows], f_newest, states, times, cfg)

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
                # 512 steps at a time, so that the check's temporaries stay small
                chunks = np.split(later, range(512, n, 512))
                defect = max(np.abs(c - _adjoint(c)).max() for c in chunks)
                results[r] = Trajectory(
                    times=times,
                    states=states[j],
                    max_trace_drift=float(drift.max()),
                    max_hermiticity_defect=float(defect),
                    history_modes=count[r],
                    mode_error=modes[r].error,
                )
    return results
