import cmath
import math

import numpy as np
import pytest

from mlsbath.evolve import EvolutionConfig
from mlsbath.model import (
    DensityMatrix,
    QubitInitialState,
    SystemSpec,
    build_multilevel,
    build_three_level,
    build_two_level,
    default_initial_state,
    initial_density,
    interaction_coupling,
)
from mlsbath.rpa import RpaConfig
from mlsbath.spectra import Lorentzian, PowerGaussian, Rectangular


class TestBuilders:
    def test_three_level_energies(self):
        spec = build_three_level()
        assert np.array_equal(spec.energies, [0.5, 0.5, 2.5])

    def test_three_level_couplings(self):
        spec = build_three_level()
        assert spec.coupling[0, 1] == 0.1
        assert spec.coupling[1, 2] == 0.1
        assert spec.coupling[0, 2] == 0.0

    def test_three_level_symmetry(self):
        spec = build_three_level()
        assert spec.coupling[1, 0] == 0.1
        assert np.array_equal(spec.coupling, spec.coupling.T)

    def test_two_level_zeroes_third_level(self):
        spec = build_two_level()
        assert spec.coupling[0, 2] == 0.0
        assert spec.coupling[1, 2] == 0.0
        assert spec.coupling[0, 1] == 0.1  # qubit coupling unchanged

    def test_multilevel_flat_parity_rule(self):
        spec = build_multilevel(10, flat=True)
        for n in range(10):
            for r in range(10):
                expected = 0.1 if ((n + 1) + (r + 1)) % 2 == 1 else 0.0
                assert spec.coupling[n, r] == expected

    def test_multilevel_exponential_falloff(self):
        spec = build_multilevel(10, delta=8.0)
        assert spec.coupling[0, 1] == pytest.approx(0.1 * math.exp(-1.0 / 8.0), rel=1e-15)
        assert spec.coupling[0, 2] == 0.0  # n+r even

    def test_multilevel_matches_three_level_energies(self):
        spec = build_multilevel(3, flat=True)
        assert np.array_equal(spec.energies, build_three_level().energies)

    def test_multilevel_harmonic_ladder(self):
        spec = build_multilevel(6, flat=True)
        assert np.array_equal(spec.energies, [0.5, 0.5, 2.5, 3.5, 4.5, 5.5])

    def test_multilevel_large_delta_converges_to_flat(self):
        wide = build_multilevel(10, delta=1e9)
        flat = build_multilevel(10, flat=True)
        assert np.max(np.abs(wide.coupling - flat.coupling)) < 1e-8

    def test_multilevel_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_multilevel(1, flat=True)
        with pytest.raises(ValueError):
            build_multilevel(5, delta=0.0)
        with pytest.raises(ValueError):
            build_multilevel(5, delta=-2.0)
        with pytest.raises(ValueError):
            build_multilevel(5)  # exponential rule needs delta


class TestSystemSpecInvariants:
    def test_rejects_asymmetric_coupling(self):
        c = np.zeros((2, 2))
        c[0, 1] = 0.1
        with pytest.raises(ValueError, match="symmetric"):
            SystemSpec(np.array([0.5, 0.5]), c)

    def test_rejects_nonzero_diagonal(self):
        c = np.eye(2) * 0.1
        with pytest.raises(ValueError, match="diagonal"):
            SystemSpec(np.array([0.5, 0.5]), c)

    def test_rejects_unsorted_energies(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            SystemSpec(np.array([1.0, 0.5]), np.zeros((2, 2)))

    def test_rejects_non_finite_energies(self):
        with pytest.raises(ValueError, match="finite"):
            SystemSpec(np.array([0.5, np.inf]), np.zeros((2, 2)))

    def test_arrays_are_read_only(self):
        spec = build_three_level()
        with pytest.raises(ValueError):
            spec.coupling[0, 1] = 0.3


class TestInitialState:
    def test_default_state_amplitudes(self):
        st = default_initial_state()
        assert abs(st.a) ** 2 == pytest.approx(0.1, abs=1e-15)
        assert abs(st.b) ** 2 == pytest.approx(0.9, abs=1e-15)
        assert st.b.real == 0.0  # phase factor i applied exactly

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            QubitInitialState(0.5, 0.5)

    def test_initial_density_populations(self):
        rho = initial_density(default_initial_state(), 3)
        assert rho.entries[0, 0].real == pytest.approx(0.1, abs=1e-15)
        assert rho.entries[1, 1].real == pytest.approx(0.9, abs=1e-15)

    def test_initial_density_coherence_magnitude(self):
        rho = initial_density(default_initial_state(), 3)
        assert abs(rho.entries[0, 1]) == pytest.approx(0.3, abs=1e-15)

    def test_initial_density_basis_state(self):
        rho = initial_density(QubitInitialState(1.0, 0.0), 3)
        assert np.array_equal(rho.entries, np.diag([1.0, 0.0, 0.0]).astype(complex))

    def test_initial_density_trace_and_embedding(self):
        rho = initial_density(default_initial_state(), 5)
        assert rho.entries.shape == (5, 5)
        assert np.trace(rho.entries) == pytest.approx(1.0, abs=1e-14)
        assert np.all(rho.entries[2:, :] == 0)

    def test_initial_density_rejects_tiny_systems(self):
        with pytest.raises(ValueError):
            initial_density(default_initial_state(), 1)


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_diagonal_outside_unit_interval(self):
        with pytest.raises(ValueError, match="diagonal"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_accepts_tiny_negative_diagonal(self):
        # non-Lindblad dynamics can nudge populations slightly negative
        m = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
        DensityMatrix(m)


class TestInteractionCoupling:
    def test_time_zero_is_bare_matrix(self):
        spec = build_three_level()
        assert np.array_equal(interaction_coupling(spec, 0.0), spec.coupling.astype(complex))

    def test_degenerate_pair_entry_is_static(self):
        spec = build_three_level()
        for t in (0.3, 1.7, 12.0):
            assert interaction_coupling(spec, t)[0, 1] == pytest.approx(0.1, abs=1e-15)

    def test_qubit_third_level_phase(self):
        # entry (2,3) rotates as 0.1*exp(+2it) because E_2 - E_3 = -2
        spec = build_three_level()
        for t in (0.1, 0.9, 2.5):
            got = interaction_coupling(spec, t)[1, 2]
            assert got == pytest.approx(0.1 * cmath.exp(2j * t), abs=1e-14)
            assert interaction_coupling(spec, t)[2, 1] == pytest.approx(np.conj(got), abs=1e-15)

    def test_hermitian_at_random_times(self):
        rng = np.random.default_rng(7)
        spec = build_multilevel(6, delta=4.0)
        for t in rng.uniform(-10, 10, size=50):
            v = interaction_coupling(spec, t)
            assert np.max(np.abs(v - v.conj().T)) < 1e-14

    def test_time_array_stacks_matrices(self):
        spec = build_multilevel(7, delta=3.0)
        times = np.arange(2501) * 0.001
        stacked = interaction_coupling(spec, times[:, None, None])
        assert np.array_equal(stacked, [interaction_coupling(spec, t) for t in times])

    def test_matches_elementwise_definition(self):
        # independent scalar-loop oracle for the vectorized phase matrix
        spec = build_multilevel(5, delta=3.0)
        t = 1.234
        got = interaction_coupling(spec, t)
        for n in range(5):
            for r in range(5):
                expected = spec.coupling[n, r] * cmath.exp(
                    -1j * (spec.energies[n] - spec.energies[r]) * t
                )
                assert got[n, r] == pytest.approx(expected, abs=1e-14)


class TestFiniteFields:
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: QubitInitialState(math.nan, 1), "a"),
            (lambda: EvolutionConfig(dt=math.nan), "dt"),
            (lambda: EvolutionConfig(t_max=math.inf), "t_max"),
            (lambda: Rectangular(math.nan, 0, 1), "area"),
            (lambda: Lorentzian(1, 0, math.inf), "width"),
            (lambda: PowerGaussian(1, math.nan, 1), "ohmicity"),
            (lambda: RpaConfig(pole_shift=math.nan), "pole_shift"),
            (lambda: RpaConfig(omega_max=math.inf), "omega_max"),
        ],
        ids=["state-a", "evolution-dt", "evolution-t_max", "rectangular-area",
             "lorentzian-width", "power-gaussian-ohmicity", "rpa-pole_shift", "rpa-omega_max"],
    )
    def test_constructors_reject_non_finite(self, make, field):
        # library callers skip the INI parser's finiteness check
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got (nan|inf)$"):
            make()
