import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from mlsbath.spectra import (
    Lorentzian,
    PowerGaussian,
    Rectangular,
    correlator,
    correlator_table,
    evaluate,
)

from oracles import quad_correlator

RECT_CASES = [Rectangular(5.0, 2.0, 1.0), Rectangular(50.0, 1.5, 1.0), Rectangular(5.0, 0.0, 1.0)]
LOR_CASES = [Lorentzian(5.0, 2.0, 1.0), Lorentzian(50.0, 1.5, 1.0), Lorentzian(5.0, 1.5, 0.5)]
PG_CASES = [PowerGaussian(5.0, -1.0, 1.0), PowerGaussian(5.0, 0.0, 1.0), PowerGaussian(50.0, 1.0, 2.0)]


class TestEvaluate:
    def test_rectangular_height(self):
        assert evaluate(Rectangular(5.0, 2.0, 1.0), 2.0) == 2.5  # area/(2*half_width)

    def test_rectangular_outside_support(self):
        m = Rectangular(5.0, 2.0, 1.0)
        assert evaluate(m, 3.5) == 0.0
        assert evaluate(m, 0.5) == 0.0

    def test_lorentzian_peak(self):
        m = Lorentzian(5.0, 2.0, 1.0)
        assert evaluate(m, 2.0) == pytest.approx(5.0 / math.pi, rel=1e-14)

    def test_power_gaussian_at_cutoff(self):
        # direct substitution: amp * (1)^(1+nu) * exp(-1/4) at omega = cutoff
        m = PowerGaussian(2.0, 0.0, 1.0)
        assert evaluate(m, 1.0) == pytest.approx(m.amplitude * math.exp(-0.25), rel=1e-14)

    def test_power_gaussian_negative_frequency(self):
        m = PowerGaussian(2.0, -1.0, 1.0)
        assert evaluate(m, -0.5) == 0.0

    def test_vectorized(self):
        m = Rectangular(5.0, 2.0, 1.0)
        out = evaluate(m, np.array([1.5, 3.5]))
        assert out.tolist() == [2.5, 0.0]

    @pytest.mark.parametrize("omega", [1.5, 2, np.float64(1.5), np.float32(1.5), np.array(1.5)])
    def test_scalar_gives_python_float(self, omega):
        for m in (RECT_CASES[0], LOR_CASES[0], PG_CASES[1]):
            out = evaluate(m, omega)
            assert type(out) is float
            assert out == float(m.density(np.asarray(omega, dtype=float)))


class TestArea:
    def test_stored_area_returned(self):
        assert Rectangular(50.0, 2.0, 1.0).area == 50.0
        assert Lorentzian(5.0, 2.0, 1.0).area == 5.0

    def test_power_gaussian_unit_amplitude_anchor(self):
        # quadrature oracle: integral of omega*exp(-omega^2/4) over [0, inf) is 2,
        # so requesting area 2 at nu=0, cutoff=1 must set the amplitude to 1
        val, _ = quad(lambda w: w * np.exp(-(w**2) / 4.0), 0, np.inf)
        assert val == pytest.approx(2.0, rel=1e-12)
        assert PowerGaussian(2.0, 0.0, 1.0).amplitude == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("nu", [-1.0, -0.5, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("cutoff", [0.5, 1.0, 2.0])
    def test_power_gaussian_closed_form_vs_quadrature(self, nu, cutoff):
        m = PowerGaussian(7.0, nu, cutoff)
        val, _ = quad(lambda w: evaluate(m, w), 0, np.inf)
        assert val == pytest.approx(m.area, rel=1e-6)
        assert m.area == pytest.approx(7.0, rel=1e-12)

    def test_rectangular_quadrature_matches_area(self):
        m = Rectangular(5.0, 2.0, 1.0)
        val, _ = quad(lambda w: evaluate(m, w), *m.support())
        assert val == pytest.approx(5.0, rel=1e-6)

    def test_divergent_ohmicity_rejected(self):
        with pytest.raises(ValueError, match="ohmicity"):
            PowerGaussian(1.0, -2.0, 1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Rectangular(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Rectangular(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Lorentzian(1.0, 0.0, -0.5)
        with pytest.raises(ValueError):
            PowerGaussian(1.0, 0.0, 0.0)


class TestCorrelatorAnalytic:
    def test_negative_tau_is_zero(self):
        for m in (RECT_CASES[0], LOR_CASES[0], PowerGaussian(5.0, 0.0, 1.0)):
            assert correlator(m, -1.0) == 0.0

    def test_zero_tau_is_area(self):
        for m in RECT_CASES + LOR_CASES + PG_CASES + [PowerGaussian(5.0, -1.9, 1.0)]:
            assert correlator(m, 0.0) == m.area

    def test_rectangular_closed_form(self):
        m = Rectangular(5.0, 2.0, 1.0)
        tau = 1.3
        expected = 5.0 * cmath.exp(2j * tau) * math.sin(tau) / tau
        assert correlator(m, tau) == pytest.approx(expected, abs=1e-14)

    def test_lorentzian_closed_form(self):
        # residue of the Lorentzian pole in the upper half plane
        m = Lorentzian(5.0, 2.0, 1.0)
        expected = 5.0 * cmath.exp(2j) * math.exp(-1.0)
        assert correlator(m, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_rectangular_centered_is_real(self):
        m = Rectangular(5.0, 0.0, 1.0)
        for tau in np.linspace(0.0, 5.0, 23):
            assert abs(correlator(m, tau).imag) < 1e-14

    def test_magnitude_bounded_by_area(self):
        for m in RECT_CASES + LOR_CASES + PG_CASES:
            for tau in np.linspace(0.01, 6.0, 40):
                assert abs(correlator(m, tau)) <= m.area * (1 + 1e-12)

    def test_lorentzian_magnitude_monotone(self):
        m = Lorentzian(5.0, 2.0, 1.0)
        taus = np.linspace(0.0, 4.0, 41)
        mags = [abs(correlator(m, t)) for t in taus]
        assert np.all(np.diff(mags) < 0)

    def test_equal_area_equal_start(self):
        # shape-independence precondition: F(0+) depends only on the area
        models = [Rectangular(5.0, 2.0, 0.3), Lorentzian(5.0, 7.0, 2.0), PowerGaussian(5.0, 1.0, 0.5)]
        starts = [correlator(m, 0.0) for m in models]
        assert starts[0] == pytest.approx(starts[1], rel=1e-12)
        assert starts[0] == pytest.approx(starts[2], rel=1e-12)


class TestCorrelatorQuadrature:
    @pytest.mark.parametrize("m", RECT_CASES + LOR_CASES + PG_CASES)
    @pytest.mark.parametrize("tau", [0.01, 0.1, 1.0, 2.5])
    def test_matches_analytic(self, m, tau):
        assert abs(correlator(m, tau) - quad_correlator(m, tau)) < 1e-8

    def test_power_gaussian_start_matches_area(self):
        for nu in (-1.0, 0.0, 1.0):
            m = PowerGaussian(5.0, nu, 1.0)
            assert quad_correlator(m, 1e-6).real == pytest.approx(5.0, rel=1e-6)

    @pytest.mark.parametrize("nu", [-1.95, -1.9, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("cutoff", [0.1, 1.0, 40.0])
    def test_power_gaussian_kummer_vs_quadrature(self, nu, cutoff):
        # Kummer closed form against the oscillatory-quadrature oracle,
        # out to cutoff * tau = 400 where F has decayed to its power tail;
        # y = 1.538 sits at the edge of the narrow window below nu = -1.9
        # where the closed form goes wrong (next test)
        m = PowerGaussian(5.0, nu, cutoff)
        for y in (1e-4, 0.05, 0.5, 1.0, 1.538, 2.0, 5.0, 20.0, 100.0, 400.0):
            tau = y / cutoff
            diff = abs(correlator(m, tau) - quad_correlator(m, tau))
            assert diff <= 1e-10 * m.area, f"y={y}: diff {diff:.2e}"

    @pytest.mark.xfail(strict=True, reason="scipy's hyp1f1(a, 1/2, z) is off by up to 1e-8 "
                       "for a = 1 + nu/2 < 0.05 near z = -2.36")
    @pytest.mark.parametrize("nu, y", [(-1.95, 1.53775), (-1.92, 1.53037)])
    def test_power_gaussian_kummer_spike_near_divergent_ohmicity(self, nu, y):
        m = PowerGaussian(5.0, nu, 1.0)
        diff = abs(correlator(m, y) - quad_correlator(m, y))
        assert diff <= 1e-10 * m.area, f"diff {diff:.2e}"

    def test_power_gaussian_near_divergent_ohmicity_is_finite(self):
        # nu -> -2 sends Gamma(1 + nu/2) to infinity; the area-normalized
        # closed form never forms it
        m = PowerGaussian(5.0, -1.9, 1.0)
        table = correlator_table(m, t_max=400.0, dt=0.5)
        assert np.all(np.isfinite(table))
        assert table[0] == m.area
        assert np.all(np.abs(table) <= m.area * (1 + 1e-12))


class TestCorrelatorTable:
    def test_grid_and_first_entry(self):
        m = Rectangular(5.0, 2.0, 1.0)
        table = correlator_table(m, t_max=0.5, dt=0.1)
        assert table.shape == (6,)
        assert table[0] == pytest.approx(5.0, rel=1e-14)

    def test_matches_pointwise_correlator(self):
        m = Lorentzian(5.0, 1.5, 1.0)
        table = correlator_table(m, t_max=1.0, dt=0.05)
        for k, val in enumerate(table):
            assert val == pytest.approx(correlator(m, k * 0.05), abs=1e-14)

    @pytest.mark.parametrize("m", [RECT_CASES[0], LOR_CASES[0]] + PG_CASES)
    def test_analytic_vs_quadrature_tables(self, m):
        ta = correlator_table(m, t_max=2.5, dt=0.25)
        tq = np.array([quad_correlator(m, k * 0.25) for k in range(11)])
        assert np.max(np.abs(ta - tq)) < 1e-8

    def test_invalid_grid_rejected(self):
        m = RECT_CASES[0]
        with pytest.raises(ValueError):
            correlator_table(m, t_max=1.0, dt=0.0)
        with pytest.raises(ValueError):
            correlator_table(m, t_max=0.05, dt=0.1)
