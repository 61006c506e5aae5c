import re

import numpy as np
import pytest

from mlsbath import evolve
from mlsbath.evolve import EvolutionConfig, IntegrationError, integrate, integrate_batch
from mlsbath.model import (
    SystemSpec,
    build_multilevel,
    build_three_level,
    build_two_level,
    default_initial_state,
    initial_density,
    interaction_coupling,
)
from mlsbath.spectra import (
    MAX_MODES,
    Lorentzian,
    PowerGaussian,
    Rectangular,
    correlator_modes,
    correlator_table,
)

from oracles import kernel_apply


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


def full_history_integrate(monkeypatch, spec, model, rho0, cfg):
    """The production integrator with the mode path switched off: the
    full-history sums every mode run is checked against."""
    with monkeypatch.context() as patch:
        patch.setattr(evolve, "correlator_modes", lambda *args: None)
        return integrate(spec, model, rho0, cfg)


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
        ],
    )
    def test_modes_match_full_history(self, monkeypatch, levels, model, cfg):
        spec = build_three_level() if levels == 3 else build_multilevel(levels, delta=5.0)
        rho0 = initial_density(default_initial_state(), levels)
        fast = integrate(spec, model, rho0, cfg)
        oracle = full_history_integrate(monkeypatch, spec, model, rho0, cfg)
        assert fast.history_modes > 0 and oracle.history_modes == 0
        if isinstance(model, Lorentzian):
            assert fast.history_modes == 1
        assert fast.mode_error <= 1e-12 * model.area
        assert oracle.mode_error == 0.0
        assert np.max(np.abs(fast.states - oracle.states)) <= 1e-12

    def test_power_gaussian_takes_full_history(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        traj = integrate(spec, PowerGaussian(5.0, 0.0, 2.0), rho0, EvolutionConfig(0.1, 0.01))
        assert traj.history_modes == 0 and traj.mode_error == 0.0

    def test_power_gaussian_closed_form_has_no_modes(self):
        # the Kummer closed form fills the table, but no mode expansion exists yet
        model = PowerGaussian(5.0, 0.0, 2.0)
        table = correlator_table(model, 0.1, 0.01)
        assert correlator_modes(model, table, 0.01) is None

    def test_mode_count_above_cap_falls_back(self):
        # eps * t_max = 600 needs about 340 Gauss-Legendre nodes
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        model = Rectangular(5.0, 0.0, 600.0)
        cfg = EvolutionConfig(1.0, 0.001)
        table = correlator_table(model, cfg.t_max, cfg.dt)
        assert correlator_modes(model, table, cfg.dt) is None
        traj = integrate(spec, model, rho0, cfg)
        assert traj.history_modes == 0 and traj.mode_error == 0.0
        narrower = integrate(spec, Rectangular(5.0, 0.0, 400.0), rho0, cfg)
        assert 0 < narrower.history_modes <= MAX_MODES

    def test_failed_mode_check_falls_back(self):
        # a table the modes cannot reproduce sends the run to full history
        model = Rectangular(5.0, 1.5, 1.0)
        table = correlator_table(model, 1.0, 0.01)
        assert correlator_modes(model, table, 0.01).error <= 1e-12 * model.area
        table[50] += 1e-9
        assert correlator_modes(model, table, 0.01) is None

    def test_lorentzian_blow_up_aborts_with_step_info(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        with pytest.raises(IntegrationError, match="step"):
            integrate(spec, Lorentzian(2e6, 1.5, 1.0), rho0, EvolutionConfig(2.5, 0.01))


class TestBatch:
    def test_rows_match_one_row_integrate(self):
        # mode rows with two mode counts, and full-history rows, in one batch
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
        assert [traj.history_modes > 0 for traj in batch] == [True, False, True, True, False, True]
        assert len({traj.history_modes for traj in batch}) == 4
        for model, traj in zip(models, batch):
            alone = integrate(spec, model, rho0, cfg)
            assert traj.history_modes == alone.history_modes
            assert traj.mode_error == alone.mode_error
            assert np.array_equal(traj.times, alone.times)
            if traj.history_modes:
                assert np.array_equal(traj.states, alone.states)
                assert traj.max_trace_drift == alone.max_trace_drift
                assert traj.max_hermiticity_defect == alone.max_hermiticity_defect
            else:
                # the full history: a stacked product may round differently
                scale = np.max(np.abs(alone.states))
                assert np.max(np.abs(traj.states - alone.states)) <= 1e-13 * scale

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

    def test_empty_batch(self):
        spec = build_three_level()
        rho0 = initial_density(default_initial_state(), 3)
        assert integrate_batch(spec, [], rho0) == []


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
