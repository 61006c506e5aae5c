import math
import warnings

import numpy as np
import pytest

from mlsbath import rpa
from mlsbath.model import (
    QubitInitialState,
    SystemSpec,
    build_multilevel,
    build_three_level,
    default_initial_state,
)
from mlsbath.rpa import (
    RpaConfig,
    _channel_integral,
    _shifted_real,
    _tabulate,
    channel_weights,
    delta_n_total,
    n_second_order,
    rpa_number_density,
)
from mlsbath.spectra import Lorentzian, PowerGaussian, Rectangular, evaluate

STATE = default_initial_state()
QUICK = RpaConfig(ladder=3, scan_points=2000)
# the shifts of the default ladder
DEFAULT_SHIFTS = [RpaConfig().pole_shift * 0.5**k for k in range(RpaConfig().ladder)]


class TestChannelWeights:
    def test_reference_system_weights(self):
        # s=1: |b|^2 phi_21^2; s=2: |a|^2 phi_12^2; s=3: |b|^2 phi_23^2
        g = channel_weights(build_three_level(), STATE)
        assert g == pytest.approx([0.009, 0.001, 0.009], abs=1e-15)

    def test_cross_term(self):
        st = QubitInitialState(math.sqrt(0.5), math.sqrt(0.5))  # real overlap
        spec = build_three_level()
        g = channel_weights(spec, st)
        # channel 1: 0.5*phi_11^2 + 0.5*phi_21^2 + 2*0.5*phi_11*phi_21 = 0.005
        assert g[0] == pytest.approx(0.5 * 0.01, abs=1e-15)
        # channel 3 couples only through phi_23
        assert g[2] == pytest.approx(0.5 * 0.01, abs=1e-15)

    def test_default_state_has_no_cross_term(self):
        # a real, b imaginary: Re(a* b) = 0
        assert np.real(np.conj(STATE.a) * STATE.b) == 0.0


class TestSecondOrder:
    def test_zero_coupling(self):
        spec = SystemSpec(np.array([0.5, 0.5, 2.5]), np.zeros((3, 3)))
        assert n_second_order(spec, Rectangular(5.0, 2.0, 1.0), STATE, 1.5) == 0.0

    def test_hand_computed_value(self):
        spec = build_three_level()
        model = Rectangular(5.0, 5.0, 2.0)
        omega = 5.0
        intensity = 5.0 / 4.0
        # detunings at omega=5: s=1,2 -> 5.0; s=3 -> 3.0
        expected = 2 * intensity * (0.009 / 25.0 + 0.001 / 25.0 + 0.009 / 9.0)
        assert n_second_order(spec, model, STATE, omega) == pytest.approx(expected, rel=1e-12)

    def test_far_off_resonance_suppressed(self):
        spec = build_three_level()
        model = Lorentzian(5.0, 2.0, 1.0)
        near = n_second_order(spec, model, STATE, 2.5)
        far = n_second_order(spec, model, STATE, 40.0)
        assert far < 1e-3 * near

    def test_integral_diverges_at_transition_pole(self):
        # shrinking the exclusion window around the detuning zero grows the
        # integral without bound (the Lorentzian has weight at the pole)
        spec = build_three_level()
        model = Lorentzian(5.0, 2.0, 1.0)
        pole = 2.0  # third-level transition energy above the qubit
        totals = []
        for h in (1e-2, 1e-3, 1e-4):
            grid = np.concatenate(
                [np.linspace(0.25, pole - h, 4001), np.linspace(pole + h, 6.0, 4001)]
            )
            vals = n_second_order(spec, model, STATE, grid)
            totals.append(np.trapezoid(vals, grid))
        assert totals[1] > 5.0 * totals[0]
        assert totals[2] > 5.0 * totals[1]


class TestRpaDensity:
    def test_resummation_regularizes_double_pole(self):
        # exactly on the transition the second-order density blows up as
        # 1/shift^2 while the resummed one converges to a finite limit
        spec = build_three_level()
        model = Lorentzian(5.0, 2.0, 1.0)
        omega = 2.0
        assert n_second_order(spec, model, STATE, omega + 1e-9) > 1e10
        coarse = rpa_number_density(spec, model, STATE, omega, shift=1e-3)
        fine = rpa_number_density(spec, model, STATE, omega, shift=1e-5)
        assert abs(fine) < 100.0
        assert fine == pytest.approx(coarse, rel=1e-2)

    def test_matches_second_order_off_resonance(self):
        spec = build_three_level()
        model = Rectangular(5.0, 12.0, 1.0)
        omega = 12.0
        second = n_second_order(spec, model, STATE, omega)
        resummed = rpa_number_density(spec, model, STATE, omega)
        assert resummed == pytest.approx(second, rel=0.05)


class TestDeltaNTotal:
    def test_zero_coupling(self):
        spec = SystemSpec(np.array([0.5, 0.5, 2.5]), np.zeros((3, 3)))
        res = delta_n_total(spec, Rectangular(5.0, 8.0, 1.0), STATE, QUICK)
        assert res.n_total == 0.0
        assert res.delta_n == 0.0

    def test_off_resonant_reference_values(self):
        # frozen from an independent dense-trapezoid evaluation (below)
        spec = build_three_level()
        res = delta_n_total(spec, Rectangular(5 * np.pi, 8.0, 1.0), STATE, RpaConfig())
        assert res.n_total == pytest.approx(0.0136459, rel=1e-4)
        assert res.delta_n == pytest.approx(0.0744453, rel=1e-4)
        assert res.warnings == ()

    def test_quadrature_matches_dense_trapezoid(self):
        # independent route: fixed shift, 400k-point trapezoid of the same
        # integrands the adaptive quadrature consumes
        spec = build_three_level()
        model = Rectangular(5 * np.pi, 8.0, 1.0)
        shift = 1e-2
        cfg = RpaConfig(pole_shift=shift, ladder=2, scan_points=2000)
        weights = channel_weights(spec, STATE)
        grid = np.linspace(7.0, 9.0, 400_001)
        intensity = np.asarray(evaluate(model, grid))
        n_ref = 0.0
        dn2_ref = 0.0
        for s in range(3):
            off = spec.energies[0] - spec.energies[s]
            d = grid + off + 1j * shift
            p = 2.0 * grid + off + 1j * shift
            n_ref += np.trapezoid(
                np.real(2.0 * weights[s] * intensity / (d * (d - 4.0 * weights[s] * intensity))),
                grid,
            )
            dn2_ref += np.trapezoid(
                np.real(4.0 * weights[s] * intensity / (p * (p - 4.0 * weights[s] * intensity))),
                grid,
            )
        # compare against the same-shift adaptive quadrature
        spectrum = _tabulate(model, cfg)
        n_quad = sum(
            _channel_integral(spectrum, 2.0, weights[s], 1.0, spec.energies[0] - spec.energies[s],
                              [shift])[0][0]
            for s in range(3)
        )
        dn2_quad = sum(
            _channel_integral(spectrum, 4.0, weights[s], 2.0, spec.energies[0] - spec.energies[s],
                              [shift])[0][0]
            for s in range(3)
        )
        assert n_quad == pytest.approx(n_ref, rel=1e-5)
        assert dn2_quad == pytest.approx(dn2_ref, rel=1e-5)

    def test_one_pole_scan_serves_every_shift(self):
        # the bare pole at omega = 2 of channel 3 lies inside the support:
        # one call over the ladder gives each shift's own single-shift value
        spec = build_three_level()
        spectrum = _tabulate(Rectangular(5.0, 2.0, 1.0), QUICK)
        g = channel_weights(spec, STATE)[2]
        offset = spec.energies[0] - spec.energies[2]
        shifts = [1e-2, 5e-3, 2.5e-3]
        for scale, slope in ((2.0, 1.0), (4.0, 2.0)):
            values, _ = _channel_integral(spectrum, scale, g, slope, offset, shifts)
            assert values == [
                _channel_integral(spectrum, scale, g, slope, offset, [shift])[0][0]
                for shift in shifts
            ]

    @pytest.mark.parametrize(
        "model",
        [Lorentzian(5.0, 1.5, 1.0), PowerGaussian(5.0, 0.0, 1.0)],
        ids=["lorentzian", "power-gaussian"],
    )
    def test_each_density_point_evaluated_once(self, monkeypatch, model):
        # every channel, both quantities, every shift and the root finder
        # share one lookup: no scalar omega reaches evaluate twice
        scalars = []

        def spy(m, omega):
            if np.ndim(omega) == 0:
                scalars.append(float(omega))
            return evaluate(m, omega)

        monkeypatch.setattr(rpa, "evaluate", spy)
        delta_n_total(build_three_level(), model, STATE, QUICK)
        assert len(scalars) > 1000
        assert len(set(scalars)) == len(scalars)

    @pytest.mark.parametrize("shift", DEFAULT_SHIFTS)
    def test_float_integrand_matches_complex128(self, shift):
        # Re[a / (y (y - b))] with y = u + i*shift, against numpy's complex128
        # arithmetic on numpy scalars, to the bit; points on both sides of
        # |Re z| = |Im z| for z = y (y - b), and of both signs
        sides = set()
        for a in (0.37, -2.5e-3):
            for u in (-3.0, -0.02, -shift, -1e-5, 0.0, 1e-5, shift, 0.02, 3.0):
                for b in (-0.4, -1e-3, 0.0, 1e-3, 0.4):
                    y = np.float64(u) + 1j * shift
                    z = y * (y - np.float64(b))
                    sides.add(abs(z.real) >= abs(z.imag))
                    expected = float(np.real(np.float64(a) / z))
                    assert _shifted_real(a, u, b, shift) == expected
        assert sides == {True, False}

    def test_ladder_is_cauchy_off_resonance(self):
        spec = build_three_level()
        res = delta_n_total(spec, Rectangular(5 * np.pi, 8.0, 1.0), STATE, RpaConfig())
        assert not any("Cauchy" in w for w in res.warnings)

    def test_edge_pole_flagged_as_non_convergent(self):
        # support edge exactly on a pair-denominator zero: genuinely divergent
        spec = build_three_level()
        res = delta_n_total(spec, Rectangular(5.0, 2.0, 1.0), STATE, QUICK)
        assert any("Cauchy" in w for w in res.warnings)

    @pytest.mark.parametrize(
        "spec, model, quantities",
        [
            # the systems and spectra of demos/configs/area_sweep.ini and
            # levels_sweep.ini, whose channel integrals scipy's quad reports
            # as probably divergent
            (build_three_level(), Rectangular(5.0, 0.0, 100.0), ["(Delta N)^2"]),
            (build_multilevel(3, delta=8.0), Lorentzian(5.0, 0.0, 8.0), ["N", "(Delta N)^2"]),
        ],
        ids=["rectangle", "lorentzian"],
    )
    def test_quadrature_warning_recorded(self, spec, model, quantities):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = delta_n_total(spec, model, STATE, RpaConfig())
        notes = [w for w in res.warnings if "quadrature warning" in w]
        assert notes == [
            f"{name}: quadrature warning: The integral is probably divergent, or slowly convergent."
            for name in quantities
        ]

    def test_width_flatness_at_fixed_area(self):
        spec = build_three_level()
        vals = []
        for eps in (0.5, 1.0, 1.5):
            res = delta_n_total(spec, Rectangular(5 * np.pi, 8.0, eps), STATE, QUICK)
            vals.append(res.delta_n)
        assert max(vals) / min(vals) - 1.0 < 0.10

    def test_center_translation_window(self):
        # narrow documented window; the detuning weighting forbids wide ones
        spec = build_three_level()
        vals = []
        for center in (4.0, 4.1, 4.2):
            res = delta_n_total(spec, Rectangular(5 * np.pi, center, 1.0), STATE, QUICK)
            vals.append(res.delta_n)
        assert max(vals) / min(vals) - 1.0 < 0.10

    def test_more_levels_more_modes_smaller_ratio(self):
        model = Rectangular(5 * np.pi, 12.0, 1.0)
        results = [
            delta_n_total(build_multilevel(m, flat=True), model, STATE, QUICK)
            for m in (2, 3)
        ]
        assert results[1].n_total > results[0].n_total
        assert results[1].delta_n > results[0].delta_n
        assert results[1].ratio < results[0].ratio

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RpaConfig(pole_shift=0.0)
        with pytest.raises(ValueError):
            RpaConfig(ladder=1)
        with pytest.raises(ValueError):
            RpaConfig(omega_max=-1.0)
        with pytest.raises(ValueError):
            RpaConfig(scan_points=10)
