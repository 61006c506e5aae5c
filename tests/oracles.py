"""Reference implementations ("oracles") the fast paths are tested against.

Nothing in ``mlsbath`` calls these.  Each is the slow, generic form of a
production path:

* :func:`quad_correlator` -- the retarded correlator by adaptive
  oscillatory quadrature of the spectral density, against which every
  family's closed-form ``correlator`` is checked;
* :func:`kernel_apply` -- the memory-kernel action at one time pair,
  against which the integrator's factorized history sums are checked;
* :func:`full_history_integrate` -- the integrator with its history term
  summed over every stored step, O(n_steps^2), against which the
  exponential-mode history of every spectral family is checked;
* :func:`two_sided_step` and :func:`two_sided_block` -- the steps of a
  block with both sides of every product, V rho and rho V, V X and X V,
  formed: complex-linear in the state, its derivative and the history
  term, Hermitian or not, against which the one-sided block steps of
  ``mlsbath.evolve`` and their tabulated map are checked;
* :func:`graded_ladder` -- the RPA channel sums at each pole shift by
  fixed Gauss-Legendre rules on a mesh graded geometrically towards every
  breakpoint, against which the adaptive Gauss-Kronrod loop of
  ``mlsbath.rpa`` is checked.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import roots_legendre

from mlsbath.evolve import EvolutionConfig
from mlsbath.model import DensityMatrix, QubitInitialState, SystemSpec, interaction_coupling
from mlsbath.rpa import RpaConfig, channel_weights
from mlsbath.spectra import (
    Lorentzian,
    PowerGaussian,
    Rectangular,
    SpectralModel,
    correlator_table,
    evaluate,
)

# Absolute tolerance and subdivision cap of each adaptive rule in the
# quadrature oracle.
QUAD_ABS_TOL = 1e-10
QUAD_LIMIT = 256


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""


def _effective_support(model: SpectralModel) -> tuple[float, float]:
    """Support clipped where the density is provably negligible."""
    lo, hi = model.support()
    if isinstance(model, PowerGaussian):
        # Gaussian envelope below ~1e-21 of the peak beyond 16 cutoffs
        return lo, min(hi, 16.0 * model.cutoff)
    return lo, hi


def _point_density(model: SpectralModel):
    """The density at one Python float, from each family's formula in
    ``mlsbath.spectra``: adaptive quadrature asks for one point at a time,
    on which the array ``density`` costs several microseconds."""
    if isinstance(model, Rectangular):
        height = model.area / (2.0 * model.half_width)
        return lambda w: height if abs(w - model.center) < model.half_width else 0.0
    if isinstance(model, Lorentzian):
        peak = model.area / math.pi * model.width
        return lambda w: peak / ((w - model.center) * (w - model.center) + model.width**2)
    power, scale = 1.0 + model.ohmicity, 4.0 * model.cutoff**2
    return lambda w: (
        model.amplitude * (w / model.cutoff) ** power * math.exp(-w * w / scale) if w > 0 else 0.0
    )


def quad_correlator(model: SpectralModel, tau: float) -> complex:
    """F(tau) for tau > 0 by adaptive oscillatory quadrature.

    Finite (or finite-after-truncation) supports use the
    oscillatory-weight rule on the interval; the Lorentzian's heavy
    tails use the Fourier-integral rule on each half line, which
    subdivides by oscillation cycles and so stays accurate for large
    tau.  When tau is so small that not even a fraction of a cycle fits
    across the density, plain adaptive quadrature takes over.  Each rule
    is asked for ``QUAD_ABS_TOL`` with at most ``QUAD_LIMIT``
    subdivisions; a summed error estimate above ``100 * QUAD_ABS_TOL``
    raises QuadratureError.
    """
    lo, hi = _effective_support(model)
    f = _point_density(model)
    opts = dict(epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=QUAD_LIMIT)
    if np.isfinite(lo) and np.isfinite(hi):
        osc_scale = max(abs(lo), abs(hi))
    else:
        osc_scale = max(abs(model.center), model.width, 1.0)
    pieces = []  # (re, im, error estimate)
    if tau * osc_scale < 1e-3:
        # oscillation negligible; split heavy-tailed supports at the peak
        bounds = [lo, hi] if np.isfinite(lo) else [lo, model.center, hi]
        for seg_lo, seg_hi in zip(bounds, bounds[1:]):
            re, e1 = quad(lambda w: f(w) * np.cos(w * tau), seg_lo, seg_hi, **opts)
            im, e2 = quad(lambda w: f(w) * np.sin(w * tau), seg_lo, seg_hi, **opts)
            pieces.append((re, im, e1 + e2))
    elif np.isfinite(lo) and np.isfinite(hi):
        re, re_err = quad(f, lo, hi, weight="cos", wvar=tau, **opts)
        im, im_err = quad(f, lo, hi, weight="sin", wvar=tau, **opts)
        pieces.append((re, im, re_err + im_err))
    else:
        # split the line at the density's peak
        split = model.center
        re1, e1 = quad(f, split, np.inf, weight="cos", wvar=tau, **opts)
        im1, e2 = quad(f, split, np.inf, weight="sin", wvar=tau, **opts)
        pieces.append((re1, im1, e1 + e2))
        # map (-inf, split] to [-split, inf) via omega -> -omega
        g = lambda u: f(-u)
        re2, e3 = quad(g, -split, np.inf, weight="cos", wvar=tau, **opts)
        im2, e4 = quad(g, -split, np.inf, weight="sin", wvar=tau, **opts)
        pieces.append((re2, -im2, e3 + e4))
    value = sum(p[0] for p in pieces) + 1j * sum(p[1] for p in pieces)
    err = sum(p[2] for p in pieces)
    if err > 100.0 * QUAD_ABS_TOL:
        raise QuadratureError(
            f"correlator quadrature at tau={tau} did not converge: "
            f"estimated error {err:.3e} exceeds {100.0 * QUAD_ABS_TOL:.3e}"
        )
    return value


def kernel_apply(
    spec: SystemSpec, f_value: complex, t: float, t_prime: float, rho: np.ndarray
) -> np.ndarray:
    """Action of the memory kernel at times (t, t') on a state matrix.

    ``f_value`` is the correlator evaluated at ``t - t_prime``.  The
    result is traceless for any input and Hermitian for Hermitian input.
    """
    if t < t_prime:
        raise ValueError(f"need t >= t_prime, got {t} < {t_prime}")
    rho = np.asarray(rho, dtype=complex)
    v_t = interaction_coupling(spec, t)
    v_p = interaction_coupling(spec, t_prime)
    return f_value * (v_t @ v_p @ rho - v_p @ rho @ v_t) + np.conj(f_value) * (
        rho @ v_p @ v_t - v_t @ rho @ v_p
    )


def full_history_integrate(
    spec: SystemSpec, model: SpectralModel, rho0: DensityMatrix, cfg: EvolutionConfig
) -> np.ndarray:
    """States of the trapezoidal predictor-corrector of ``mlsbath.evolve``
    for one row, with the history term of step k + 1 summed over every
    stored step j <= k:

        sum_j w_j [F((k + 1 - j) dt) V_j rho_j - conj(F((k + 1 - j) dt)) rho_j V_j],

    with ``w_0 = dt/2`` and ``w_j = dt`` otherwise: O(k M^2) at step k,
    O(n_steps^2) in total.  ``products[0, j]`` holds ``V_j rho_j`` and
    ``products[1, j]`` holds ``rho_j V_j``.
    """
    n = cfg.n_steps
    m = spec.n_levels
    dt = cfg.dt
    half = 0.5 * dt
    times = np.arange(n + 1) * dt
    table = correlator_table(model, n * dt, dt)
    f_pair = np.stack([table, np.conj(table)])
    weights = np.full(n + 1, dt)
    weights[0] = half
    products = np.empty((2, n + 1, m * m), dtype=complex)
    couplings = interaction_coupling(spec, times[:, None, None])
    f_newest = half * table[0]

    def derivative(v, hist, left, right):
        x = hist + (f_newest * left - np.conj(f_newest) * right)
        return x @ v - v @ x

    states = np.empty((n + 1, m, m), dtype=complex)
    states[0] = rho0.entries
    left = couplings[0] @ states[0]
    right = states[0] @ couplings[0]
    d_here = np.zeros((m, m), dtype=complex)
    for i in range(n):
        products[0, i] = left.ravel()
        products[1, i] = right.ravel()
        wf = weights[: i + 1] * f_pair[:, i + 1 : 0 : -1]
        s = wf[:, None, :] @ products[:, : i + 1]
        hist = (s[0, 0] - s[1, 0]).reshape(m, m)
        v = couplings[i + 1]
        nxt = states[i] + dt * d_here
        for _ in range(cfg.corrector_iterations):
            nxt = states[i] + half * (d_here + derivative(v, hist, v @ nxt, nxt @ v))
        states[i + 1] = nxt
        left = v @ nxt
        right = nxt @ v
        d_here = derivative(v, hist, left, right)
    return states


def two_sided_step(v, f_newest, s, d, hist, dt: float, iterations: int) -> tuple:
    """One predictor-corrector step from the state ``s``, whose derivative
    is ``d``, under the history term ``hist``, in a frame where the
    coupling at the new time is ``v``; every argument but ``v`` may carry
    leading batch axes.

    Returns the increment ``nxt - s``, the derivative at ``nxt``, and
    ``v nxt`` and ``nxt v``.  Each is linear in (s, d, hist).
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


def two_sided_block(coupling, couplings, f_newest, f_ahead, s, d, hist, dt: float,
                    iterations: int) -> np.ndarray:
    """The B = ``len(couplings)`` steps of :func:`two_sided_step` from a
    block start i, in a frame where the coupling is ``coupling`` at step i
    and ``couplings[j]`` at step i + j + 1.  ``s`` and ``d`` are rho_i and its derivative,
    ``hist[..., j, :, :]`` is the old steps' part of the history term at
    step j of the block (``_BlockHistory.terms`` in ``mlsbath.evolve``) and
    ``f_ahead[..., j, :, :]`` is F((j + 1) dt); every argument but the
    couplings may carry leading batch axes.

    Returns ``out`` (..., 3 B, M, M): for j = 1..B, ``out[..., j - 1, :, :]``
    is ``rho_(i+j) - rho_i`` and ``out[..., B + j - 1, :, :]`` the
    derivative at step i + j; ``out[..., 2 B:, :, :]`` holds ``V rho`` at
    steps i..i+B-1, for ``_BlockHistory.push``.  Each column is
    complex-linear in (s, d, hist), Hermitian or not, as the tabulated
    block map is.
    """
    block, m = couplings.shape[:2]
    batch = np.broadcast_shapes(s.shape[:-2], f_newest.shape[:-2])
    out = np.empty(batch + (3 * block, m, m), dtype=complex)
    increments = out[..., :block, :, :]
    derivatives = out[..., block : 2 * block, :, :]
    lefts = out[..., 2 * block :, :, :]
    rights = np.empty_like(lefts)
    lefts[..., 0, :, :] = coupling @ s
    rights[..., 0, :, :] = s @ coupling
    weights = dt * f_ahead
    weights_conj = np.conj(weights)
    here = s
    for j in range(block):
        # the block's own steps 0..j, weighed by F((j + 1 - k) dt) dt
        own = (weights[..., j::-1, :, :] * lefts[..., : j + 1, :, :]).sum(axis=-3)
        own -= (weights_conj[..., j::-1, :, :] * rights[..., : j + 1, :, :]).sum(axis=-3)
        own += hist[..., j, :, :]
        delta, d, left, right = two_sided_step(couplings[j], f_newest, here, d, own, dt,
                                               iterations)
        if j:
            delta += increments[..., j - 1, :, :]
        increments[..., j, :, :] = delta
        derivatives[..., j, :, :] = d
        if j + 1 < block:
            lefts[..., j + 1, :, :] = left
            rights[..., j + 1, :, :] = right
        here = s + delta
    return out


def _graded_mesh(edges: list[float], first: float, ratio: float) -> np.ndarray:
    """Cell boundaries of each gap between consecutive ``edges``: from
    either end, steps growing geometrically from ``first`` by ``ratio``,
    up to the gap's midpoint."""
    mesh = [edges[0]]
    for lo, hi in zip(edges, edges[1:]):
        mid = 0.5 * (lo + hi)
        steps = first * ratio ** np.arange(int(np.log(0.5 * (hi - lo) / first) / np.log(ratio)) + 1)
        steps = steps[steps < mid - lo]
        mesh += [*(lo + steps), mid, *(hi - steps[::-1]), hi]
    return np.array(mesh)


def graded_ladder(
    spec: SystemSpec,
    model: SpectralModel,
    state: QubitInitialState,
    cfg: RpaConfig,
    nodes: int = 40,
    first: float = 1e-10,
    ratio: float = 1.3,
) -> np.ndarray:
    """Sums over channels of the integrals of
    Re[c g I / ((y + i shift)(y + i shift - 4 g I))] over the support
    clipped to ``cfg.omega_max``, for N (c = 2, y = omega + offset) and
    (Delta N)^2 (c = 4, y = 2 omega + offset), at each shift of
    ``cfg``'s ladder: shape (2, ladder).

    Every integral is split at the support edges, at its bare pole y = 0
    and at each zero of y - 4 g I, found by brentq between the sign
    changes of a 200 001-point scan.  The mesh between them is graded
    geometrically from ``first`` by ``ratio`` towards each breakpoint, and
    each cell takes a ``nodes``-point Gauss-Legendre rule, in complex
    arithmetic.
    """
    lo, hi = model.support()
    lo, hi = max(lo, -cfg.omega_max), min(hi, cfg.omega_max)
    shifts = cfg.pole_shift * 0.5 ** np.arange(cfg.ladder)
    x, w = roots_legendre(nodes)
    scan = np.linspace(lo, hi, 200_001)
    scan_density = evaluate(model, scan)
    out = np.zeros((2, cfg.ladder))
    for q, (scale, slope) in enumerate(((2.0, 1.0), (4.0, 2.0))):
        for g, energy in zip(channel_weights(spec, state), spec.energies):
            if g == 0.0:
                continue
            offset = spec.energies[0] - energy
            resummed = lambda omega: slope * omega + offset - 4.0 * g * evaluate(model, omega)
            values = slope * scan + offset - 4.0 * g * scan_density
            breaks = {lo, hi, -offset / slope}
            for k in np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) <= 0)[0]:
                if values[k] == 0.0 or values[k + 1] == 0.0:
                    breaks.add(scan[k] if values[k] == 0.0 else scan[k + 1])
                else:
                    breaks.add(brentq(resummed, scan[k], scan[k + 1], xtol=1e-15))
            mesh = _graded_mesh(sorted(b for b in breaks if lo <= b <= hi), first, ratio)
            half = 0.5 * np.diff(mesh)[:, None]
            omega = 0.5 * (mesh[1:] + mesh[:-1])[:, None] + half * x
            intensity = evaluate(model, omega)[..., None]
            y = (slope * omega + offset)[..., None] + 1j * shifts
            integrand = np.real(scale * g * intensity / (y * (y - 4.0 * g * intensity)))
            out[q] += np.einsum("pnk,pn->k", integrand, half * w)
    return out
