"""Acceptance suite: one test per quantitative requirement.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (run with ``-s``
to see them live).  Sweep configurations are the committed reference
choices; spectral parameters not fixed by a requirement are chosen per
requirement and documented inline.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from mlsbath.evolve import EvolutionConfig, integrate
from mlsbath.model import (
    build_multilevel,
    build_three_level,
    build_two_level,
    default_initial_state,
    initial_density,
)
from mlsbath.rates import FitWindow, extract_rates
from mlsbath.rpa import RpaConfig, delta_n_total
from mlsbath.spectra import Lorentzian, PowerGaussian, Rectangular, correlator

from oracles import kernel_apply, quad_correlator

STATE = default_initial_state()
WINDOW = FitWindow(1.0, 2.5)
SWEEP_DT = 0.002  # rates are grid-stable to ~1e-3 relative, criteria allow 10-25%


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description}")


def run_rates(spec, model, dt=SWEEP_DT, t_max=2.5):
    rho0 = initial_density(STATE, spec.n_levels)
    traj = integrate(spec, model, rho0, EvolutionConfig(t_max, dt))
    return extract_rates(traj, WINDOW), traj


def loglog_slope(x, y):
    lx, ly = np.log(np.asarray(x)), np.log(np.asarray(y))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    r2 = 1.0 - np.sum((ly - pred) ** 2) / np.sum((ly - ly.mean()) ** 2)
    return slope, r2


# --- shared expensive data ----------------------------------------------------


@pytest.fixture(scope="module")
def wide_area_sweep():
    """Rectangular spectrum wide enough to stay linear across 3 decades."""
    areas = np.logspace(np.log10(0.5), np.log10(500.0), 10)
    out = {}
    for label, spec in (("two", build_two_level()), ("three", build_three_level())):
        rows = []
        for a in areas:
            rates, _ = run_rates(spec, Rectangular(a, 0.0, 100.0))
            rows.append(rates)
        out[label] = rows
    return areas, out


@pytest.fixture(scope="module")
def shape_comparison():
    """Rectangular vs Lorentzian at equal area and matched peak density
    (width_lor = (2/pi) * width_rect), at A = 5 and 50."""
    spec = build_three_level()
    out = {}
    for a in (5.0, 50.0):
        rect, _ = run_rates(spec, Rectangular(a, 0.0, 40.0))
        lor, _ = run_rates(spec, Lorentzian(a, 0.0, 40.0 * 2.0 / math.pi))
        out[a] = (rect, lor)
    return out


# --- criteria -----------------------------------------------------------------


def test_criterion_1_kernel_algebra():
    with criterion(1, "kernel action traceless and Hermiticity-preserving (1000 random)"):
        rng = np.random.default_rng(2024)
        spec = build_three_level()
        for _ in range(1000):
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = 0.5 * (x + x.conj().T)
            f = complex(rng.normal(), rng.normal())
            t_prime, t = np.sort(rng.uniform(0.0, 3.0, size=2))
            out = kernel_apply(spec, f, t, t_prime, rho)
            assert abs(np.trace(out)) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_criterion_2_integrator_conservation_and_order():
    models = (
        Rectangular(5.0, 1.5, 1.0),
        Lorentzian(5.0, 1.5, 1.0),
        PowerGaussian(5.0, 0.0, 1.0),
    )
    with criterion(2, "trace/Hermiticity conservation and self-convergence order >= 1.8"):
        spec = build_three_level()
        rho0 = initial_density(STATE, 3)
        for model in models:
            traj = integrate(spec, model, rho0, EvolutionConfig(2.5, 0.001))
            assert traj.max_trace_drift <= 1e-6, type(model).__name__
            assert traj.max_hermiticity_defect <= 1e-8, type(model).__name__
            endpoints = [
                integrate(spec, model, rho0, EvolutionConfig(2.5, dt)).population_2[-1]
                for dt in (0.004, 0.002, 0.001)
            ]
            order = math.log2(
                abs(endpoints[0] - endpoints[1]) / abs(endpoints[1] - endpoints[2])
            )
            assert order >= 1.8, f"{type(model).__name__}: order {order:.3f}"


def test_criterion_3_correlator_oracle_equivalence():
    cases = [
        Rectangular(5.0, 2.0, 1.0),
        Rectangular(50.0, 1.5, 1.0),
        Rectangular(5.0, 0.0, 1.0),
        Lorentzian(5.0, 2.0, 1.0),
        Lorentzian(50.0, 1.5, 1.0),
        Lorentzian(5.0, 1.5, 0.5),
        PowerGaussian(5.0, -1.0, 1.0),
        PowerGaussian(5.0, 0.0, 1.0),
        PowerGaussian(5.0, 1.0, 1.0),
    ]
    with criterion(3, "analytic vs adaptive-quadrature correlator within 1e-8"):
        for model in cases:
            for tau in (0.01, 0.1, 1.0, 2.5):
                diff = abs(correlator(model, tau) - quad_correlator(model, tau))
                assert diff < 1e-8, f"{model}: tau={tau}, diff={diff:.2e}"


def test_criterion_4_area_linearity(wide_area_sweep):
    areas, sweeps = wide_area_sweep
    with criterion(4, "log-log slope of rates vs area in [0.9, 1.1] over [0.5, 500]"):
        for label, rows in sweeps.items():
            relax = [r.relaxation_rate for r in rows]
            deph = [r.dephasing_rate for r in rows]
            assert min(relax) > 0 and min(deph) > 0
            s_relax, _ = loglog_slope(areas, relax)
            s_deph, _ = loglog_slope(areas, deph)
            assert 0.9 <= s_relax <= 1.1, f"{label}-level relaxation slope {s_relax:.3f}"
            assert 0.9 <= s_deph <= 1.1, f"{label}-level dephasing slope {s_deph:.3f}"
        leak = [r.leakage_rate for r in sweeps["three"]]
        assert min(leak) > 0
        s_leak, _ = loglog_slope(areas, leak)
        assert 0.9 <= s_leak <= 1.1, f"leakage slope {s_leak:.3f}"


def test_criterion_5_shape_independence(shape_comparison):
    with criterion(5, "Lorentzian/rectangular rates within 10%; power-Gaussian "
                      "ohmicities within 15%"):
        for a, (rect, lor) in shape_comparison.items():
            for attr in ("relaxation_rate", "dephasing_rate", "leakage_rate"):
                rv, lv = getattr(rect, attr), getattr(lor, attr)
                assert abs(rv - lv) / rv <= 0.10, f"A={a} {attr}: {rv:.4g} vs {lv:.4g}"
        # low cutoff: the fit window cannot resolve the spectral shape
        spec = build_three_level()
        for a in (5.0, 50.0):
            relax = []
            for nu in (-1.0, 0.0, 1.0):
                rates, _ = run_rates(spec, PowerGaussian(a, nu, 0.1))
                relax.append(rates.relaxation_rate)
            spread = (max(relax) - min(relax)) / min(relax)
            assert spread <= 0.15, f"A={a}: ohmicity spread {spread:.3f}"


def test_criterion_6_shift_independence():
    with criterion(6, "rates vary <= 25% across center shifts while area sets the scale"):
        spec = build_three_level()
        means = {}
        for a in (5.0, 50.0):
            rows = [run_rates(spec, Rectangular(a, c, 8.0))[0] for c in np.linspace(0, 5, 6)]
            for attr in ("relaxation_rate", "dephasing_rate", "leakage_rate"):
                vals = np.array([getattr(r, attr) for r in rows])
                assert np.all(vals > 0)
                cv = vals.std() / vals.mean()
                assert cv <= 0.25, f"A={a} {attr}: CV {cv:.3f}"
                means[a, attr] = vals.mean()
        for attr in ("relaxation_rate", "dephasing_rate", "leakage_rate"):
            ratio = means[50.0, attr] / means[5.0, attr]
            assert ratio >= 5.0, f"{attr}: area leverage {ratio:.2f}"


def test_criterion_7_leakage_magnitude(shape_comparison):
    with criterion(7, "leakage rate within one order of magnitude of relaxation"):
        for a, (rect, _) in shape_comparison.items():
            ratio = rect.leakage_rate / rect.relaxation_rate
            assert 0.1 <= ratio <= 10.0, f"A={a}: leakage/relaxation {ratio:.3f}"


def test_criterion_8_multilevel_saturation():
    with criterion(8, "rates grow monotonically to M=8 and move < 10% from M=16 to 20"):
        model = Lorentzian(5.0, 0.0, 8.0)
        results = {}
        for m in (2, 3, 4, 5, 6, 7, 8, 16, 20):
            spec = build_multilevel(m, delta=8.0)
            results[m], _ = run_rates(spec, model)
        for attr in ("relaxation_rate", "dephasing_rate", "leakage_rate"):
            ramp = [getattr(results[m], attr) for m in (2, 3, 4, 5, 6, 7, 8)]
            diffs = np.diff(ramp)
            assert np.all(diffs > -1e-9), f"{attr} not monotone: {ramp}"
            assert ramp[-1] > ramp[0]
            lo, hi = getattr(results[16], attr), getattr(results[20], attr)
            change = abs(hi - lo) / lo
            assert change < 0.10, f"{attr}: change {change:.3f} from M=16 to 20"


def test_criterion_9_two_level_leakage_null():
    with criterion(9, "two-level system leaks nothing (|leakage| <= 1e-12)"):
        spec = build_two_level()
        rho0 = initial_density(STATE, 3)
        traj = integrate(spec, Rectangular(5.0, 1.5, 1.0), rho0, EvolutionConfig(2.5, 0.001))
        assert np.max(np.abs(traj.leakage)) <= 1e-12


def test_criterion_10_rpa_scaling():
    with criterion(10, "fluctuation ratio scales as area^(-1/2); fluctuation flat in width"):
        spec = build_three_level()
        # area sweep kept off-resonant so no resummation pole enters the support
        areas = np.logspace(np.log10(math.pi / 2), np.log10(50 * math.pi), 9)
        results = [delta_n_total(spec, Rectangular(a, 12.0, 1.0), STATE) for a in areas]
        assert all(r.warnings == () for r in results)
        assert all(r.n_total > 0 for r in results)
        ratio_slope, r2 = loglog_slope(areas, [r.ratio for r in results])
        assert -0.6 <= ratio_slope <= -0.4, f"ratio slope {ratio_slope:.3f}"
        assert r2 >= 0.95, f"r^2 {r2:.4f}"
        n_slope, _ = loglog_slope(areas, [r.n_total for r in results])
        dn_slope, _ = loglog_slope(areas, [r.delta_n for r in results])
        assert 0.9 <= n_slope <= 1.1, f"total-number slope {n_slope:.3f}"
        assert 0.4 <= dn_slope <= 0.6, f"fluctuation slope {dn_slope:.3f}"
        flat = [
            delta_n_total(spec, Rectangular(5 * math.pi, 8.0, eps), STATE).delta_n
            for eps in np.linspace(0.5, 1.5, 5)
        ]
        spread = max(flat) / min(flat) - 1.0
        assert spread <= 0.10, f"width spread {spread:.3f}"


def test_criterion_11_rpa_multilevel_monotonicity():
    with criterion(11, "more levels: N and Delta N grow, their ratio falls"):
        model = Rectangular(5 * math.pi, 12.0, 1.0)
        results = [
            delta_n_total(build_multilevel(m, flat=True), model, STATE)
            for m in (2, 3, 10)
        ]
        assert all(r.warnings == () for r in results)
        for prev, nxt in zip(results, results[1:]):
            assert nxt.n_total > prev.n_total
            assert nxt.delta_n > prev.delta_n
            assert nxt.ratio < prev.ratio
