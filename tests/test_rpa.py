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
    build_two_level,
    default_initial_state,
)
from mlsbath.rpa import (
    RpaConfig,
    channel_weights,
    delta_n_total,
    n_second_order,
    rpa_number_density,
)
from mlsbath.spectra import Lorentzian, PowerGaussian, Rectangular, evaluate
from scipy.special import roots_legendre

from oracles import graded_ladder

STATE = default_initial_state()
QUICK = RpaConfig(ladder=3, scan_points=2000)
PI = math.pi

# (system, spectrum) pairs checked against the graded-mesh oracle: edge and
# interior poles of every family, a resummed root about 1e-4 from a bare
# pole (Lor(5,8,1)), two channel integrals QUADPACK reported as probably
# divergent (Rect(5,0,100), and Lor(5,0,8) on three levels, where its N was
# 3.4e3 times too large), an off-resonant rectangle, the ends of the
# committed rpa-area and rpa-width sweeps, and interior poles on four to six
# levels and in the two-level system
ORACLE_CASES = [
    (build_three_level(), PowerGaussian(5 * PI, -1.0, 2.5)),
    (build_multilevel(6, delta=8.0), PowerGaussian(5 * PI, 1.0, 3.06)),
    (build_three_level(), Lorentzian(5.0, 8.0, 1.0)),
    (build_three_level(), Lorentzian(5.0, 1.5, 1.0)),
    (build_three_level(), PowerGaussian(5.0, 0.0, 1.0)),
    (build_three_level(), PowerGaussian(5.0, 1.0, 1.0)),
    (build_three_level(), Rectangular(5.0, 0.0, 100.0)),
    (build_multilevel(3, delta=8.0), Lorentzian(5.0, 0.0, 8.0)),
    (build_three_level(), Rectangular(5 * PI, 8.0, 1.0)),
    (build_three_level(), Rectangular(PI / 2, 12.0, 1.0)),
    (build_three_level(), Rectangular(50 * PI, 12.0, 1.0)),
    (build_three_level(), Rectangular(5 * PI, 8.0, 0.5)),
    (build_three_level(), Rectangular(5 * PI, 8.0, 1.5)),
    (build_three_level(), Rectangular(5.0, 2.0, 1.0)),
    (build_two_level(), PowerGaussian(5.0, 0.0, 1.0)),
    (build_multilevel(4, delta=5.0), Rectangular(5.0, 4.0, 8.0)),
    (build_multilevel(5, delta=5.0), PowerGaussian(5.0, -1.0, 2.0)),
    (build_multilevel(6, delta=8.0), Lorentzian(5.0, 1.5, 1.0)),
]
# one system and spectrum of each family, both poles inside the support
FAMILY_CASES = [Lorentzian(5.0, 1.5, 1.0), Rectangular(5.0, 4.0, 8.0), PowerGaussian(5.0, 0.0, 1.0)]
FAMILY_IDS = ["lorentzian", "rectangle", "power-gaussian"]
# the shifts of the default ladder
DEFAULT_SHIFTS = [RpaConfig().pole_shift * 0.5**k for k in range(RpaConfig().ladder)]


def _case_id(case) -> str:
    spec, model = case
    return f"{spec.energies.size}-level {model!r}"


# each case at the default config, and three-level Lor(5,1.5,1), whose
# resummed roots lie near omega = 0, on a ladder from a 100 times smaller shift
ORACLE_INPUTS = [pytest.param(spec, model, RpaConfig(), id=_case_id((spec, model)))
                 for spec, model in ORACLE_CASES] + [
    pytest.param(build_three_level(), Lorentzian(5.0, 1.5, 1.0), RpaConfig(pole_shift=1e-4),
                 id="3-level Lorentzian(5.0, 1.5, 1.0)-pole_shift=1e-4"),
]


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

    def test_zero_weight_channel_has_no_pole(self):
        # the two-level system keeps its third level with g = 0, whose
        # detuning alone vanishes at omega = 2.  There both live channels
        # have d = 2 and I = 5/2: n2 = 2 I (0.009 + 0.001) / 2^2 = 0.0125
        spec, model = build_two_level(), Rectangular(5.0, 2.0, 1.0)
        omega = np.array([1.9, 1.99, 2.0, 2.01, 2.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert n_second_order(spec, model, STATE, 2.0) == 0.0125
            values = [n_second_order(spec, model, STATE, omega)]
            for shift in (0.0, 1e-4):
                values.append(rpa_number_density(spec, model, STATE, 2.0, shift))
                values.append(rpa_number_density(spec, model, STATE, omega, shift))
        assert all(np.all(np.isfinite(v)) for v in values)

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
        # the first rung of the ladder is the shift itself
        (n_quad, _), (dn2_quad, _) = rpa._ladders(spec, model, STATE, cfg).values
        assert n_quad == pytest.approx(n_ref, rel=1e-5)
        assert dn2_quad == pytest.approx(dn2_ref, rel=1e-5)

    @pytest.mark.parametrize("spec, model, cfg", ORACLE_INPUTS)
    def test_ladder_matches_graded_oracle(self, spec, model, cfg):
        # each rung of both quantities.  Where the channel sums cancel to
        # 1e-5 (Rect(5,0,100)), rounding leaves about 1e-14: the oracle's
        # own variants (60 nodes, ratio 1.2) differ from it by that much
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ladders = rpa._ladders(spec, model, STATE, cfg)
            res = delta_n_total(spec, model, STATE, cfg)
        assert ladders.values == pytest.approx(graded_ladder(spec, model, STATE, cfg),
                                               rel=1e-9, abs=1e-13)
        assert ladders.notes == ["", ""]
        assert not any("quadrature warning" in w for w in res.warnings)

    def test_kronrod_rule(self):
        # the embedded rule is 10-point Gauss-Legendre, and the Kronrod rule
        # integrates x^p exactly up to p = 31
        kronrod, gauss = rpa._RULES
        x, w = roots_legendre(10)
        assert rpa._NODES[gauss != 0.0] == pytest.approx(x, abs=1e-15)
        assert gauss[gauss != 0.0] == pytest.approx(w, abs=1e-15)
        for p in range(32):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            assert kronrod @ rpa._NODES**p == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize(
        "model, count",
        [
            # a resummed root about 1e-4 from a bare pole
            (Lorentzian(5.0, 8.0, 1.0), 6),
            # roots near omega = 0
            (Lorentzian(5.0, 1.5, 1.0), 6),
            (PowerGaussian(5.0, 0.0, 1.0), 2),
            (PowerGaussian(5 * PI, -1.0, 2.5), 2),
            # roots on the jumps of a discontinuous density
            (Rectangular(5.0, 4.0, 8.0), 4),
        ],
        ids=repr,
    )
    def test_brackets_are_sign_change_cells(self, model, count):
        # each cell is two adjacent scan points, between which y - 4 g I,
        # recomputed here from the public weights and density, changes sign
        spec = build_three_level()
        g = channel_weights(spec, STATE)
        coeffs = np.array([(2.0 * g[s], 4.0 * g[s], slope, spec.energies[0] - spec.energies[s])
                           for slope in (1.0, 2.0) for s in range(3)])
        grid = np.linspace(-1000.0, 1000.0, 10_000)
        integral, cells = rpa._brackets(coeffs, grid, model.density(grid))
        assert cells.shape == (len(integral), 2)
        assert len(cells) >= count
        for n, (left, right) in zip(integral, cells):
            k = np.searchsorted(grid, left)
            assert grid[k] == left and grid[k + 1] == right
            _, four_g, slope, offset = coeffs[n]
            ends = np.array([left, right])
            v = slope * ends + offset - four_g * np.asarray(evaluate(model, ends))
            assert (v[0] > 0.0) != (v[1] > 0.0)

    @pytest.mark.parametrize("shift", DEFAULT_SHIFTS)
    def test_kronrod_integrand_matches_complex128(self, shift):
        # Re[a I / ((y + i s)(v + i s))], v = y - 4 g I, in real arithmetic,
        # against numpy's complex128 arithmetic on the same nodes: panels of
        # widths 2s, 20s and 2 around the bare pole of channels with both
        # signs of the offset, so that nodes fall on both sides of
        # |Re z| = |Im z| for z = (y + i s)(v + i s)
        model = Lorentzian(5.0, 1.5, 1.0)
        coeffs = np.array([(scale * g, 4.0 * g, slope, offset)
                           for scale, slope in ((2.0, 1.0), (4.0, 2.0))
                           for g in (0.05, 0.4) for offset in (-2.0, 0.0, 1.5)])
        poles = -coeffs[:, 3] / coeffs[:, 2]
        widths = np.array([shift, 10.0 * shift, 1.0])
        a = (poles[:, None] - widths).ravel()
        b = (poles[:, None] + widths).ravel()
        rows = coeffs.repeat(len(widths), axis=0)
        estimates, floor = rpa._kronrod(model, a, b, rows, np.array([shift]))

        half = 0.5 * (b - a)
        w = 0.5 * (a + b)[:, None] + half[:, None] * rpa._NODES
        intensity = model.density(w)
        numerator, four_g, slope, offset = rows.T[:, :, None]
        y = slope * w + offset + 1j * shift
        z = y * (y - four_g * intensity)
        sides = np.abs(z.real) >= np.abs(z.imag)
        assert sides.any() and not sides.all()
        f = np.real(numerator * intensity / z)
        kronrod, gauss = rpa._RULES
        # a few ulps of the panel's integral of |a I / z| under either rule
        bound = 1e-14 * half * (np.abs(numerator * intensity / z) @ (kronrod + gauss))
        assert np.all(np.abs(estimates[:, 0, 0] - half * (f @ kronrod)) <= bound)
        assert np.all(np.abs(estimates[:, 1, 0] - np.abs(half * (f @ (kronrod - gauss)))) <= bound)
        roundoff = rpa._ROUNDOFF * half * (np.abs(f) @ kronrod)
        assert floor[:, 0] == pytest.approx(roundoff, rel=1e-12, abs=0.0)

        # the public density at the same nodes, against Re[2 g I / (d (d - 4 g I))]
        # summed over the live channels (the two-level system's third has g = 0)
        spec = build_two_level()
        g = channel_weights(spec, STATE)
        live = g != 0.0
        d = w[..., None] + (spec.energies[0] - spec.energies[live]) + 1j * shift
        g_intensity = g[live] * intensity[..., None]
        terms = 2.0 * g_intensity / (d * (d - 4.0 * g_intensity))
        density = rpa_number_density(spec, model, STATE, w, shift)
        assert np.all(np.abs(density - np.real(terms).sum(-1)) <= 1e-14 * np.abs(terms).sum(-1))

    @pytest.mark.parametrize("model", FAMILY_CASES, ids=FAMILY_IDS)
    def test_one_pole_scan_serves_every_shift(self, model):
        # the shifts share one scan and one set of panels: each rung of the
        # ladder agrees with a ladder started at that rung's shift to the
        # quadrature tolerance, though not to the bit
        spec = build_three_level()
        values = rpa._ladders(spec, model, STATE, RpaConfig()).values
        for k, shift in enumerate(DEFAULT_SHIFTS):
            alone = rpa._ladders(spec, model, STATE, RpaConfig(pole_shift=shift, ladder=2))
            assert alone.values[:, 0] == pytest.approx(values[:, k], rel=1e-9, abs=1e-10)

    @pytest.mark.parametrize("model", FAMILY_CASES, ids=FAMILY_IDS)
    def test_density_called_on_arrays_once_per_round(self, monkeypatch, model):
        # every channel, both quantities and every shift share one density
        # call per round of quadrature, after the scan
        inputs = []
        density = type(model).density

        def spy(m, omega):
            inputs.append(omega)
            return density(m, omega)

        rounds = []
        ladders = rpa._ladders

        def counted(*args):
            result = ladders(*args)
            rounds.append(result.rounds)
            return result

        monkeypatch.setattr(type(model), "density", spy)
        monkeypatch.setattr(rpa, "_ladders", counted)
        delta_n_total(build_three_level(), model, STATE, RpaConfig())
        assert all(isinstance(w, np.ndarray) and w.ndim >= 1 for w in inputs)
        assert 10 < len(inputs) <= rounds[0] + 1

    def test_ladder_is_cauchy_off_resonance(self):
        spec = build_three_level()
        res = delta_n_total(spec, Rectangular(5 * np.pi, 8.0, 1.0), STATE, RpaConfig())
        assert not any("Cauchy" in w for w in res.warnings)

    def test_edge_pole_flagged_as_non_convergent(self):
        # support edge exactly on a pair-denominator zero: genuinely divergent
        spec = build_three_level()
        res = delta_n_total(spec, Rectangular(5.0, 2.0, 1.0), STATE, QUICK)
        assert any("Cauchy" in w for w in res.warnings)

    @pytest.mark.parametrize("model", FAMILY_CASES, ids=FAMILY_IDS)
    def test_quadrature_warning_recorded(self, monkeypatch, model):
        # a panel cap too small for any channel integral: one note per quantity
        monkeypatch.setattr(rpa, "MAX_PANELS", 4)
        res = delta_n_total(build_three_level(), model, STATE, RpaConfig())
        notes = [w for w in res.warnings if "quadrature warning" in w]
        assert [note.split(":")[0] for note in notes] == ["N", "(Delta N)^2"]
        assert all("channel integrals missed the tolerance within 4 panels" in n for n in notes)

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
