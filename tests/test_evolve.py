import re

import numpy as np
import pytest

from mlsbath import evolve, spectra
from mlsbath.evolve import EvolutionConfig, IntegrationError, integrate, integrate_batch
from mlsbath.harness import load_config, run_sweep
from mlsbath.model import (
    DensityMatrix,
    SystemSpec,
    build_multilevel,
    build_three_level,
    build_two_level,
    default_initial_state,
    initial_density,
    interaction_coupling,
    interaction_phases,
)
from mlsbath.spectra import (
    MAX_MODES,
    Lorentzian,
    PowerGaussian,
    Rectangular,
    correlator_modes,
    correlator_table,
)

from oracles import full_history_integrate, kernel_apply, two_sided_block, two_sided_step


def random_hermitian(rng, m):
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    h = 0.5 * (x + x.conj().T)
    return h


def kernel_apply_indexwise(spec, f_value, t, t_prime, rho):
    """Term-by-term expansion of the kernel tensor; independent oracle
    for the matrix-product implementation."""
    m = spec.n_levels
    v_t = interaction_coupling(spec, t)
    v_p = interaction_coupling(spec, t_prime)
    vtvp = v_t @ v_p
    vpvt = v_p @ v_t
    out = np.zeros((m, m), dtype=complex)
    for n in range(m):
        for mm in range(m):
            acc = 0.0 + 0.0j
            for r in range(m):
                for s in range(m):
                    k = f_value * (
                        vtvp[n, r] * (1.0 if s == mm else 0.0)
                        - v_p[n, r] * v_t[s, mm]
                    ) + np.conj(f_value) * (
                        vpvt[s, mm] * (1.0 if r == n else 0.0)
                        - v_t[n, r] * v_p[s, mm]
                    )
                    acc += k * rho[r, s]
            out[n, mm] = acc
    return out


class TestKernelApply:
    def test_zero_coupling_gives_zero(self):
        spec = SystemSpec(np.array([0.5, 0.5, 2.5]), np.zeros((3, 3)))
        rho = initial_density(default_initial_state(), 3).entries
        out = kernel_apply(spec, 3.0 + 1.0j, 1.0, 0.3, rho)
        assert np.all(out == 0)

    def test_traceless_for_any_input(self):
        rng = np.random.default_rng(11)
        spec = build_three_level()
        for _ in range(200):
            rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))  # not Hermitian
            f = complex(rng.normal(), rng.normal())
            t_prime, t = np.sort(rng.uniform(0, 3, size=2))
            out = kernel_apply(spec, f, t, t_prime, rho)
            assert abs(np.trace(out)) < 1e-12

    def test_hermiticity_preserving(self):
        # Hermitian input must give a Hermitian derivative contribution
        rng = np.random.default_rng(12)
        spec = build_three_level()
        for _ in range(200):
            rho = random_hermitian(rng, 3)
            f = complex(rng.normal(), rng.normal())
            t_prime, t = np.sort(rng.uniform(0, 3, size=2))
            out = kernel_apply(spec, f, t, t_prime, rho)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_equal_times_real_correlator(self):
        rng = np.random.default_rng(13)
        spec = build_three_level()
        for _ in range(50):
            rho = random_hermitian(rng, 3)
            out = kernel_apply(spec, 2.5, 1.7, 1.7, rho)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert abs(np.trace(out)) < 1e-12

    def test_matches_indexwise_expansion(self):
        rng = np.random.default_rng(14)
        spec = SystemSpec(
            np.array([0.5, 0.5, 2.5, 3.5]),
            build_multilevel_coupling(),
        )
        for _ in range(20):
            rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            f = complex(rng.normal(), rng.normal())
            t_prime, t = np.sort(rng.uniform(0, 3, size=2))
            fast = kernel_apply(spec, f, t, t_prime, rho)
            slow = kernel_apply_indexwise(spec, f, t, t_prime, rho)
            assert np.max(np.abs(fast - slow)) < 1e-13

    def test_time_order_enforced(self):
        spec = build_three_level()
        rho = initial_density(default_initial_state(), 3).entries
        with pytest.raises(ValueError):
            kernel_apply(spec, 1.0, 0.2, 0.8, rho)


def build_multilevel_coupling():
    from mlsbath.model import build_multilevel

    return build_multilevel(4, delta=5.0).coupling


def reference_integrate(spec, model, rho0, cfg):
    """Direct predictor-corrector using per-pair kernel_apply sums; the
    slow but independent route for the vectorized production integrator."""
    n = cfg.n_steps
    m = spec.n_levels
    dt = cfg.dt
    times = np.arange(n + 1) * dt
    f_table = correlator_table(model, n * dt, dt)
    states = np.empty((n + 1, m, m), dtype=complex)
    states[0] = rho0.entries

    def derivative(k, history):
        if k == 0:
            return np.zeros((m, m), dtype=complex)
        total = np.zeros((m, m), dtype=complex)
        for j in range(k + 1):
            w = 0.5 * dt if j in (0, k) else dt
            total += w * kernel_apply(spec, f_table[k - j], times[k], times[j], history[j])
        return -total

    for i in range(n):
        d_here = derivative(i, states)
        nxt = states[i] + dt * d_here
        for _ in range(cfg.corrector_iterations):
            states[i + 1] = nxt
            nxt = states[i] + 0.5 * dt * (d_here + derivative(i + 1, states))
        states[i + 1] = nxt
    return times, states


class TestIntegrate:
    def test_zero_coupling_is_constant(self):
        spec = SystemSpec(np.array([0.5, 0.5, 2.5]), np.zeros((3, 3)))
        rho0 = initial_density(default_initial_state(), 3)
        traj = integrate(spec, Rectangular(5.0, 1.5, 1.0), rho0, EvolutionConfig(0.5, 0.005))
        assert np.max(np.abs(traj.states - rho0.entries[None])) == 0.0

    def test_initial_state_stored_exactly(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        traj = integrate(spec, Rectangular(5.0, 1.5, 1.0), rho0, EvolutionConfig(0.1, 0.005))
        assert np.array_equal(traj.states[0], rho0.entries)

    def test_matches_kernel_apply_reference(self):
        # dual-route check: vectorized history sums vs per-pair kernel sums
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        model = Rectangular(5.0, 1.5, 1.0)
        cfg = EvolutionConfig(t_max=0.25, dt=0.005)
        traj = integrate(spec, model, rho0, cfg)
        _, ref_states = reference_integrate(spec, model, rho0, cfg)
        assert np.max(np.abs(traj.states - ref_states)) < 1e-12

    def test_conservation_on_reference_system(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        traj = integrate(spec, Rectangular(5.0, 1.5, 1.0), rho0, EvolutionConfig(2.5, 0.005))
        assert traj.max_trace_drift <= 1e-6
        assert traj.max_hermiticity_defect <= 1e-8

    def test_two_level_leakage_null(self):
        spec = build_two_level()
        rho0 = initial_density(default_initial_state(), 3)
        traj = integrate(spec, Rectangular(5.0, 1.5, 1.0), rho0, EvolutionConfig(2.5, 0.005))
        assert np.max(np.abs(traj.leakage)) <= 1e-12

    def test_population_decays_and_leakage_grows(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        traj = integrate(spec, Rectangular(5.0, 4.0, 8.0), rho0, EvolutionConfig(2.5, 0.005))
        assert traj.population_2[-1] < traj.population_2[0]
        assert traj.leakage[-1] > 0

    def test_quadratic_short_time_start(self):
        # population change from t=0 shrinks ~4x when dt halves
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        model = Rectangular(5.0, 1.5, 1.0)
        deltas = []
        for dt in (0.008, 0.004):
            traj = integrate(spec, model, rho0, EvolutionConfig(t_max=dt, dt=dt))
            deltas.append(abs(traj.population_2[1] - traj.population_2[0]))
        ratio = deltas[0] / deltas[1]
        assert 3.0 < ratio < 5.0

    def test_self_convergence_second_order(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        model = Rectangular(5.0, 1.5, 1.0)
        vals = []
        for dt in (0.008, 0.004, 0.002):
            traj = integrate(spec, model, rho0, EvolutionConfig(1.0, dt))
            vals.append(traj.population_2[-1])
        order = np.log2(abs(vals[0] - vals[1]) / abs(vals[1] - vals[2]))
        assert order > 1.8

    def test_halving_dt_barely_moves_observables(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        model = Lorentzian(5.0, 1.5, 1.0)
        a = integrate(spec, model, rho0, EvolutionConfig(2.5, 0.004))
        b = integrate(spec, model, rho0, EvolutionConfig(2.5, 0.002))
        for series_a, series_b in (
            (a.population_2, b.population_2),
            (a.coherence_12, b.coherence_12),
            (a.leakage, b.leakage),
        ):
            rel = abs(series_a[-1] - series_b[-1]) / abs(series_b[-1])
            assert rel < 1e-4

    def test_unstable_run_aborts_with_step_info(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        with pytest.raises(IntegrationError, match="step"):
            integrate(spec, Rectangular(2e6, 1.5, 1.0), rho0, EvolutionConfig(2.5, 0.01))

    def test_state_size_mismatch_rejected(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 4)
        with pytest.raises(ValueError, match="levels"):
            integrate(spec, Rectangular(5.0, 1.5, 1.0), rho0)


class TestHistoryPaths:
    @pytest.mark.parametrize(
        "levels, model, cfg",
        [
            # rectangular eps * t_max = 2.5, 25, 100 and 250
            (3, Rectangular(5.0, 1.5, 1.0), EvolutionConfig(2.5, 0.002)),
            (3, Rectangular(5.0, 4.0, 10.0), EvolutionConfig(2.5, 0.002)),
            (3, Rectangular(5.0, 0.0, 40.0), EvolutionConfig(2.5, 0.002)),
            (3, Rectangular(50.0, 0.0, 100.0), EvolutionConfig(2.5, 0.002)),
            (3, Lorentzian(5.0, 1.5, 1.0), EvolutionConfig(2.5, 0.002)),
            (3, Lorentzian(50.0, 0.0, 80.0 / np.pi), EvolutionConfig(2.5, 0.002)),
            (10, Rectangular(5.0, 2.0, 6.0), EvolutionConfig(1.0, 0.002)),
            (10, Lorentzian(5.0, 2.0, 3.0), EvolutionConfig(1.0, 0.002)),
        ]
        + [
            # power-Gaussian L * t_max from 0.1 to 12.5, sub- to super-Ohmic
            (levels, PowerGaussian(5.0, nu, cutoff), EvolutionConfig(t_max, 0.002))
            for levels, t_max in ((3, 2.5), (10, 1.0))
            for nu in (-1.5, -1.0, 0.0, 1.0, 2.0)
            for cutoff in (0.1, 1.0, 5.0)
        ]
        + [
            # both sides of evolve.TABULATED_LEVELS
            (levels, family(5.0, 2.0, width), EvolutionConfig(1.0, 0.002))
            for levels in (8, 9)
            for family, width in ((Rectangular, 6.0), (Lorentzian, 3.0))
        ],
    )
    def test_modes_match_full_history(self, levels, model, cfg):
        spec = build_three_level() if levels == 3 else build_multilevel(levels, delta=5.0)
        rho0 = initial_density(default_initial_state(), levels)
        fast = integrate(spec, model, rho0, cfg)
        assert fast.history_modes > 0
        if isinstance(model, Lorentzian):
            assert fast.history_modes == 1
        assert fast.mode_error <= 1e-12 * model.area
        oracle = full_history_integrate(spec, model, rho0, cfg)
        assert np.max(np.abs(fast.states - oracle)) <= 1e-12

    def test_modes_above_fixed_cap_match_full_history(self):
        # eps * t_max = 600 needs about 340 Gauss-Legendre nodes: more than
        # MAX_MODES, fewer than the 1000 steps
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        model = Rectangular(5.0, 0.0, 600.0)
        cfg = EvolutionConfig(1.0, 0.001)
        traj = integrate(spec, model, rho0, cfg)
        assert MAX_MODES < traj.history_modes < cfg.n_steps
        assert 330 <= traj.history_modes <= 350
        assert traj.mode_error <= 1e-12 * model.area
        assert np.max(np.abs(traj.states - full_history_integrate(spec, model, rho0, cfg))) <= 1e-12

    def test_mode_count_above_bound_raises(self, monkeypatch):
        # eps * dt = 1e4 per step: about 5e5 nodes on a 100-step grid, refused
        # before any node is built
        def no_nodes(*args):
            raise AssertionError("nodes built")

        monkeypatch.setattr(spectra, "roots_legendre", no_nodes)
        model = Rectangular(5.0, 0.0, 1e6)
        table = correlator_table(model, 1.0, 0.01)
        message = r"needs \d+ exponential modes on this grid, more than the 256 allowed"
        with pytest.raises(IntegrationError, match=message):
            correlator_modes(model, table, 0.01)
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        with pytest.raises(IntegrationError, match=message):
            integrate(spec, model, rho0, EvolutionConfig(1.0, 0.01))

    def test_failed_mode_check_raises(self):
        # a table the modes cannot reproduce: the error names the miss
        model = Rectangular(5.0, 1.5, 1.0)
        table = correlator_table(model, 1.0, 0.01)
        assert correlator_modes(model, table, 0.01).error <= 1e-12 * model.area
        table[50] += 1e-9
        message = r"miss the correlator table by 1\.000e-09, above the tolerance 5\.000e-12"
        with pytest.raises(IntegrationError, match=message):
            correlator_modes(model, table, 0.01)

    def test_lorentzian_blow_up_aborts_with_step_info(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        with pytest.raises(IntegrationError, match="step"):
            integrate(spec, Lorentzian(2e6, 1.5, 1.0), rho0, EvolutionConfig(2.5, 0.01))


def random_system(rng, levels):
    coupling = np.triu(rng.normal(size=(levels, levels)), 1)
    return SystemSpec(np.sort(rng.uniform(0.0, 5.0, levels)), coupling + coupling.T)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def adjoint(x):
    return x.conj().swapaxes(-1, -2)


def full_basis_map(spec, f_newest, f_ahead, dt, iterations):
    """The block map of evolve._tabulate, tabulated by the two-sided oracle
    block on all (B + 2) M^2 unit inputs rather than by evolve._block on
    3 M^2 Hermitian and anti-Hermitian ones."""
    rows, block = f_ahead.shape
    m = spec.n_levels
    width = (block + 2) * m * m
    basis = np.eye(width, dtype=complex).reshape(width, block + 2, m, m)
    couplings = interaction_coupling(spec, dt * np.arange(1, block + 1)[:, None, None])
    out = two_sided_block(spec.coupling, couplings, f_newest[:, None],
                          f_ahead[:, None, :, None, None], basis[:, 0], basis[:, 1], basis[:, 2:],
                          dt, iterations)
    kept = np.r_[:block, 2 * block - 1 : 3 * block]
    return out[:, :, kept].reshape(rows, width, -1).transpose(0, 2, 1)


class TestStepMap:
    @pytest.mark.parametrize("levels", [2, 3, 5, 8])
    @pytest.mark.parametrize("iterations", [1, 2, 3])
    @pytest.mark.parametrize("long_run", [True, False])
    def test_assembled_map_matches_full_basis(self, levels, iterations, long_run):
        # the map assembled from the responses to 3 M^2 Hermitian and
        # anti-Hermitian inputs against the two-sided oracle block on every
        # unit input; two rows with their own F, B from _block_steps on a
        # long run, and B = 1
        rng = np.random.default_rng(levels * 10 + iterations)
        spec = random_system(rng, levels)
        dt = 0.002
        block = evolve._block_steps(levels, 2 * evolve.BLOCK_BUDGET) if long_run else 1
        f_newest = 0.5 * dt * random_complex(rng, 2, 1, 1)
        f_ahead = random_complex(rng, 2, block)
        couplings = interaction_coupling(spec, dt * np.arange(1, block + 1)[:, None, None])
        got = evolve._tabulate(spec, couplings, f_newest, f_ahead, dt, iterations)
        want = full_basis_map(spec, f_newest, f_ahead, dt, iterations)
        assert got.shape == want.shape == (2, (2 * block + 1) * levels**2, (block + 2) * levels**2)
        # column by column: the response to each basis input
        scale = np.maximum(1.0, np.abs(want).max(axis=1))
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-14 * scale)

    @pytest.mark.parametrize("levels", [2, 3, 5, 8, 10])
    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_block_map_matches_structured_step(self, levels, iterations):
        # one block from a start at t0, tabulated up to 8 levels and on the
        # state above, against B structured steps of the two-sided oracle in
        # the interaction picture; two rows with their own F.  The tabulated
        # map is complex-linear, so its inputs are neither Hermitian nor
        # traceless; the steps on the state take what integrate gives them,
        # a Hermitian rho and derivative and an anti-Hermitian history.  The
        # map takes its inputs in the frame of the block start and returns
        # the increments in it, the derivative and V rho in the frame of the
        # block end
        rng = np.random.default_rng(levels * 10 + iterations)
        spec = random_system(rng, levels)
        dt, t0 = 0.002, 1.11
        block = evolve._block_steps(levels, 2 * evolve.BLOCK_BUDGET)

        f_newest = 0.5 * dt * random_complex(rng, 2, 1, 1)
        f_ahead = random_complex(rng, 2, block)
        s, d = random_complex(rng, 2, levels, levels), random_complex(rng, 2, levels, levels)
        hist = random_complex(rng, 2, block, levels, levels)
        if levels > evolve.TABULATED_LEVELS:
            s, d = 0.5 * (s + adjoint(s)), 0.5 * (d + adjoint(d))
            hist = 0.5 * (hist - adjoint(hist))
        turn = np.conj(interaction_phases(spec, block * dt))
        advance = evolve._block_map(spec, f_newest, f_ahead, turn, dt, iterations)
        start = interaction_phases(spec, t0)
        end = interaction_phases(spec, t0 + block * dt)
        out = advance(np.concatenate((s[:, None], d[:, None], hist), axis=1) * np.conj(start))
        got = np.concatenate((out[:, :block] * start, out[:, -block - 1 :] * end), axis=1)

        v = interaction_coupling(spec, t0)
        lefts, rights, increments = [v @ s], [s @ v], [np.zeros_like(s)]
        for j in range(block):
            weights = [dt * f_ahead[:, j - k, None, None] for k in range(j + 1)]
            own = sum(w * x for w, x in zip(weights, lefts))
            own = own - sum(np.conj(w) * x for w, x in zip(weights, rights))
            v = interaction_coupling(spec, t0 + (j + 1) * dt)
            delta, d, left, right = two_sided_step(v, f_newest, s + increments[-1], d,
                                                   hist[:, j] + own, dt, iterations)
            increments.append(increments[-1] + delta)
            lefts.append(left)
            rights.append(right)
        want = np.stack(increments[1:] + [d] + lefts[:-1], axis=1)
        assert got.shape == want.shape
        for k in range(want.shape[1]):
            w, g = want[:, k], got[:, k]
            assert np.max(np.abs(g - w)) <= 1e-14 * max(1.0, np.max(np.abs(w)))

    @pytest.mark.parametrize("levels, steps", [(3, 1), (3, 5), (3, 1443), (10, 13)])
    def test_partial_blocks_land_in_interaction_picture(self, levels, steps):
        # a pure state with a coherence between every pair of levels, so
        # that a state left in a block's frame shows in every entry off
        # the diagonal.  One step, five steps at B = 1, and a partial last
        # block at B = 8 on three and on ten levels
        spec = build_three_level() if levels == 3 else build_multilevel(levels, delta=5.0)
        rng = np.random.default_rng(steps)
        psi = random_complex(rng, levels)
        psi /= np.linalg.norm(psi)
        rho0 = DensityMatrix(np.outer(psi, psi.conj()))
        model = Rectangular(5.0, 4.0, 10.0)
        cfg = EvolutionConfig(steps * 0.002, 0.002)
        assert cfg.n_steps == steps
        traj = integrate(spec, model, rho0, cfg)
        oracle = full_history_integrate(spec, model, rho0, cfg)
        assert np.max(np.abs(traj.states - oracle)) <= 1e-12
        # the frames differ by far more than the bound
        assert np.max(np.abs(interaction_phases(spec, traj.times[-1]) - 1.0)) > 1e-3

    @pytest.mark.parametrize(
        "levels, steps, block",
        [
            # n = 1 and 5 (B = 1), and n a multiple of B or not: the last
            # block's first steps serve a partial block
            (3, 1, 1), (3, 5, 1), (3, 1440, 8), (3, 1443, 8),
            (5, 1, 1), (5, 5, 1), (5, 1440, 4), (5, 1443, 4),
            # above 8 levels: n < B, n = B and a partial last block
            (10, 1, 1), (10, 5, 5), (10, 8, 8), (10, 13, 8),
        ],
    )
    def test_block_edges_match_untabulated_and_full_history(self, levels, steps, block,
                                                            monkeypatch):
        spec = build_three_level() if levels == 3 else build_multilevel(levels, delta=5.0)
        rho0 = initial_density(default_initial_state(), levels)
        model = Rectangular(5.0, 4.0, 10.0)
        cfg = EvolutionConfig(steps * 0.002, 0.002)
        assert cfg.n_steps == steps
        assert evolve._block_steps(levels, steps) == block
        blocks = integrate(spec, model, rho0, cfg)
        assert blocks.history_modes > 1
        assert np.array_equal(blocks.states[0], rho0.entries)
        oracle = full_history_integrate(spec, model, rho0, cfg)
        assert np.max(np.abs(blocks.states - oracle)) <= 1e-12
        monkeypatch.setattr(evolve, "TABULATED_LEVELS", 0)
        untabulated = integrate(spec, model, rho0, cfg)
        assert np.max(np.abs(blocks.states - untabulated.states)) <= 1e-14

    def test_tabulated_path_matches_untabulated_over_long_run(self, monkeypatch):
        # the rates deck's finest grid: 5 000 steps at dt = 0.0005
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        model = Rectangular(5.0, 4.0, 8.0)
        cfg = EvolutionConfig(2.5, 0.0005)
        tabulated = integrate(spec, model, rho0, cfg)
        monkeypatch.setattr(evolve, "TABULATED_LEVELS", 0)
        untabulated = integrate(spec, model, rho0, cfg)
        assert np.max(np.abs(tabulated.states - untabulated.states)) <= 1e-14

    @pytest.mark.parametrize("levels", [3, 10])
    def test_history_terms_exactly_anti_hermitian(self, levels, monkeypatch):
        # the history term is Z - Z^dagger, formed from one side of sums:
        # anti-Hermitian bit for bit after every push, on the tabulated map
        # (3 levels) and on the steps on the state (10 levels), both at B = 8
        seen = []
        terms = evolve._BlockHistory.terms

        def recorded(history, out):
            terms(history, out)
            seen.append(out.copy())

        monkeypatch.setattr(evolve._BlockHistory, "terms", recorded)
        spec = build_three_level() if levels == 3 else build_multilevel(levels, delta=5.0)
        rho0 = initial_density(default_initial_state(), levels)
        cfg = EvolutionConfig(1440 * 0.002, 0.002)
        assert evolve._block_steps(levels, cfg.n_steps) == 8
        integrate(spec, Rectangular(5.0, 4.0, 10.0), rho0, cfg)
        assert len(seen) == 180
        assert np.abs(seen[-1]).max() > 0
        for t in seen:
            assert np.array_equal(t, -t.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("levels", [3, 10])
    def test_hermiticity_defect_at_tolerance_matches_full_history(self, levels):
        # DensityMatrix accepts a Hermiticity defect up to 1e-10, which the
        # one-sided history sums treat as Hermitian; the two-sided oracle
        # sums rho V itself
        spec = build_three_level() if levels == 3 else build_multilevel(levels, delta=5.0)
        entries = initial_density(default_initial_state(), levels).entries.copy()
        entries[0, 2] += 5e-11j
        rho0 = DensityMatrix(entries)
        model = Rectangular(5.0, 4.0, 8.0)
        cfg = EvolutionConfig(2.5, 0.002)
        traj = integrate(spec, model, rho0, cfg)
        oracle = full_history_integrate(spec, model, rho0, cfg)
        assert np.max(np.abs(traj.states - oracle)) <= 1e-11

    @pytest.mark.parametrize("levels", [10, 20])
    @pytest.mark.parametrize(
        "model", [Lorentzian(5.0, 1.5, 1.0), Rectangular(5.0, 4.0, 8.0), PowerGaussian(5.0, -1.0, 2.0)]
    )
    def test_states_above_tabulated_levels_exactly_hermitian(self, levels, model):
        # the steps on the state form every right-hand product as the
        # adjoint of its left-hand one, so each stored state is Hermitian
        # bit for bit and the post-run check reads 0
        spec = build_multilevel(levels, delta=8.0)
        rho0 = initial_density(default_initial_state(), levels)
        traj = integrate(spec, model, rho0, EvolutionConfig(1.0, 0.002))
        assert np.array_equal(traj.states, adjoint(traj.states))
        assert traj.max_hermiticity_defect == 0.0


class TestBatch:
    def test_rows_match_one_row_integrate(self):
        # rows of every family and of five mode counts in one batch
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        cfg = EvolutionConfig(1.0, 0.002)
        models = [
            Rectangular(5.0, 1.5, 1.0),
            PowerGaussian(5.0, 0.0, 2.0),
            Lorentzian(5.0, 1.5, 1.0),
            Rectangular(5.0, 4.0, 10.0),
            PowerGaussian(3.0, -1.0, 1.5),
            Rectangular(9.0, 0.0, 1.0),
        ]
        batch = integrate_batch(spec, models, rho0, cfg)
        assert all(traj.history_modes > 0 for traj in batch)
        assert len({traj.history_modes for traj in batch}) == 5
        for model, traj in zip(models, batch):
            alone = integrate(spec, model, rho0, cfg)
            assert traj.history_modes == alone.history_modes
            assert traj.mode_error == alone.mode_error
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.states, alone.states)
            assert traj.max_trace_drift == alone.max_trace_drift
            assert traj.max_hermiticity_defect == alone.max_hermiticity_defect

    def test_row_without_modes_keeps_its_neighbours(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        cfg = EvolutionConfig(1.0, 0.01)
        models = [Rectangular(5.0, 1.5, 1.0), Rectangular(5.0, 0.0, 1e6), PowerGaussian(5.0, -1.0, 2.0)]
        first, failed, last = integrate_batch(spec, models, rho0, cfg)
        assert isinstance(failed, IntegrationError)
        with pytest.raises(IntegrationError) as info:
            integrate(spec, models[1], rho0, cfg)
        assert str(failed) == str(info.value)
        for model, traj in ((models[0], first), (models[2], last)):
            alone = integrate(spec, model, rho0, cfg)
            assert np.array_equal(traj.states, alone.states)
            assert traj.max_trace_drift == alone.max_trace_drift

    def test_failed_row_keeps_its_neighbours(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        cfg = EvolutionConfig(0.5, 0.002)
        models = [Rectangular(area, 0.0, 100.0) for area in (2.0, 1e150, 5.0)]
        first, failed, last = integrate_batch(spec, models, rho0, cfg)
        assert isinstance(failed, IntegrationError)
        with pytest.raises(IntegrationError) as info:
            integrate(spec, models[1], rho0, cfg)
        assert str(failed) == str(info.value)
        assert "exceeds 0.0001 at step 1 (t = 0.002)" in str(failed)
        for model, traj in ((models[0], first), (models[2], last)):
            alone = integrate(spec, model, rho0, cfg)
            assert np.array_equal(traj.states, alone.states)
            assert traj.max_trace_drift == alone.max_trace_drift

    def test_non_finite_row_named(self):
        # an overflowing row reports its first non-finite step, not a warning
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        cfg = EvolutionConfig(0.5, 0.002)
        good, failed = integrate_batch(
            spec, [Rectangular(5.0, 0.0, 100.0), Rectangular(1e300, 0.0, 100.0)], rho0, cfg
        )
        assert good.history_modes > 0
        assert re.fullmatch(r"non-finite state at step \d+ \(t = \S+\)", str(failed))

    def test_five_level_rows_match_one_row_integrate(self):
        # block map rows (B = 4) of four mode counts beside a failing row
        spec = build_multilevel(5, delta=5.0)
        rho0 = initial_density(default_initial_state(), 5)
        cfg = EvolutionConfig(2.5, 0.002)
        assert evolve._block_steps(5, cfg.n_steps) == 4
        models = [
            Rectangular(5.0, 1.5, 1.0),
            Lorentzian(5.0, 1.5, 1.0),
            Rectangular(1e150, 0.0, 100.0),
            Rectangular(5.0, 4.0, 10.0),
            PowerGaussian(5.0, 0.0, 2.0),
        ]
        batch = integrate_batch(spec, models, rho0, cfg)
        with pytest.raises(IntegrationError) as info:
            integrate(spec, models[2], rho0, cfg)
        assert str(batch[2]) == str(info.value)
        kept = [(model, traj) for model, traj in zip(models, batch) if model is not models[2]]
        assert len({traj.history_modes for _, traj in kept}) == 4
        for model, traj in kept:
            alone = integrate(spec, model, rho0, cfg)
            assert traj.history_modes == alone.history_modes
            assert np.array_equal(traj.states, alone.states)
            assert traj.max_trace_drift == alone.max_trace_drift
            assert traj.max_hermiticity_defect == alone.max_hermiticity_defect

    def test_ten_level_rows_match_one_row_integrate(self):
        # rows stepped on the state (B = 8) of K = 1, 29 and 114 modes
        # beside a failing row
        spec = build_multilevel(10, delta=5.0)
        rho0 = initial_density(default_initial_state(), 10)
        cfg = EvolutionConfig(2.5, 0.002)
        assert evolve._block_steps(10, cfg.n_steps) == 8
        models = [
            Lorentzian(5.0, 1.5, 1.0),
            Rectangular(1e150, 0.0, 100.0),
            Rectangular(5.0, 4.0, 8.0),
            PowerGaussian(5.0, -1.0, 2.0),
        ]
        batch = integrate_batch(spec, models, rho0, cfg)
        with pytest.raises(IntegrationError) as info:
            integrate(spec, models[1], rho0, cfg)
        assert str(batch[1]) == str(info.value)
        kept = [(model, traj) for model, traj in zip(models, batch) if model is not models[1]]
        assert [traj.history_modes for _, traj in kept] == [1, 29, 114]
        for model, traj in kept:
            alone = integrate(spec, model, rho0, cfg)
            assert np.array_equal(traj.states, alone.states)
            assert traj.max_trace_drift == alone.max_trace_drift
            assert traj.max_hermiticity_defect == alone.max_hermiticity_defect
            oracle = full_history_integrate(spec, model, rho0, cfg)
            assert np.max(np.abs(traj.states - oracle)) <= 1e-12

    def test_empty_batch(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        assert integrate_batch(spec, [], rho0) == []


class TestOneLoopPerSweep:
    """integrate_batch runs one stepping loop per mode count K; the sweeps
    of the CLI keep one K per batch, so each batch runs one loop."""

    @pytest.mark.parametrize("family, shape", [
        (Rectangular, (0.0, 1.0)),
        (Rectangular, (4.0, 100.0)),
        (Lorentzian, (1.5, 8.0)),
        (PowerGaussian, (-1.0, 2.0)),
        (PowerGaussian, (1.0, 5.0)),
    ])
    @pytest.mark.parametrize("steps, dt", [(50, 0.002), (1250, 0.002), (250, 0.01)])
    def test_mode_count_independent_of_area(self, family, shape, steps, dt):
        counts = {family(area, *shape).mode_count(steps, dt) for area in (0.5, 5.0, 50.0, 500.0)}
        assert len(counts) == 1

    @pytest.mark.parametrize("family, width", [(Rectangular, 1.0), (Rectangular, 100.0),
                                               (Lorentzian, 8.0)])
    @pytest.mark.parametrize("steps, dt", [(50, 0.002), (1250, 0.002), (250, 0.01)])
    def test_mode_count_independent_of_center(self, family, width, steps, dt):
        counts = {family(5.0, center, width).mode_count(steps, dt)
                  for center in (-3.0, 0.0, 1.0, 4.0, 25.0)}
        assert len(counts) == 1

    @staticmethod
    def count_loops(monkeypatch) -> list:
        calls = []
        run_blocks = evolve._run_blocks

        def counted(spec, modes, *args):
            calls.append((spec.n_levels, len(modes)))
            return run_blocks(spec, modes, *args)

        monkeypatch.setattr(evolve, "_run_blocks", counted)
        return calls

    @pytest.mark.parametrize("kind, spectrum", [
        ("spectral-area", "kind = rectangular\narea = 5.0\ncenter = 4.0\nwidth = 8.0"),
        ("spectral-area", "kind = lorentzian\narea = 5.0\ncenter = 1.5\nwidth = 8.0"),
        ("spectral-area", "kind = power-gaussian\narea = 5.0\nohmicity = -1.0\ncutoff = 2.0"),
        ("spectral-center", "kind = rectangular\narea = 5.0\ncenter = 4.0\nwidth = 8.0"),
        ("spectral-center", "kind = lorentzian\narea = 5.0\ncenter = 1.5\nwidth = 8.0"),
    ])
    def test_spectral_sweep_runs_one_loop(self, tmp_path, monkeypatch, kind, spectrum):
        calls = self.count_loops(monkeypatch)
        rows = run_sweep(self.sweep(tmp_path, "three-level", spectrum, kind, "0.5 2 5 50"))
        assert [row["status"] for row in rows] == ["ok"] * 4
        assert calls == [(3, 4)]

    def test_levels_sweep_runs_one_loop_per_level_count(self, tmp_path, monkeypatch):
        calls = self.count_loops(monkeypatch)
        spectrum = "kind = rectangular\narea = 5.0\ncenter = 0.0\nwidth = 8.0"
        rows = run_sweep(self.sweep(tmp_path, "multilevel\nlevels = 3\ndelta = 8.0", spectrum,
                                    "levels", "2 3 5 10"))
        assert [row["status"] for row in rows] == ["ok"] * 4
        assert calls == [(2, 1), (3, 1), (5, 1), (10, 1)]

    @staticmethod
    def sweep(tmp_path, system, spectrum, kind, grid):
        path = tmp_path / "sweep.ini"
        path.write_text(
            f"[system]\nkind = {system}\n\n[spectrum]\n{spectrum}\n\n"
            "[evolution]\nt_max = 0.1\ndt = 0.002\n\n[fit]\nt_lo = 0.02\nt_hi = 0.1\n\n"
            f"[sweep]\nkind = {kind}\ngrid = {grid}\n"
        )
        _, sweep, _ = load_config(path)
        return sweep


class TestEvolutionConfig:
    def test_step_ceiling(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.02)

    def test_positive_step(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.0)

    def test_t_max_at_least_one_step(self):
        with pytest.raises(ValueError):
            EvolutionConfig(t_max=0.0005, dt=0.001)

    def test_corrector_iterations_required(self):
        with pytest.raises(ValueError):
            EvolutionConfig(corrector_iterations=0)

    def test_step_count(self):
        assert EvolutionConfig(t_max=2.5, dt=0.001).n_steps == 2500
