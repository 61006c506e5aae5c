"""Zero-temperature decoherence of multilevel systems in bosonic environments.

Direct integration of the non-Markovian memory-kernel master equation,
exponential extraction of relaxation/dephasing/leakage rates, and
RPA-resummed corrections to the environmental mode number.
"""

from .model import (
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
from .spectra import (
    Lorentzian,
    PowerGaussian,
    Rectangular,
    SpectralModel,
    correlator,
    correlator_table,
    evaluate,
)
from .evolve import EvolutionConfig, IntegrationError, Trajectory, integrate, integrate_batch
from .rates import ExponentialFit, FitWindow, RateSet, extract_rates, fit_exponential_decay
from .rpa import (
    FluctuationResult,
    RpaConfig,
    channel_weights,
    delta_n_total,
    n_second_order,
    rpa_number_density,
)
from .harness import (
    ConfigError,
    ScenarioConfig,
    SweepSpec,
    load_config,
    run_scenario,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "SystemSpec",
    "QubitInitialState",
    "DensityMatrix",
    "build_three_level",
    "build_two_level",
    "build_multilevel",
    "default_initial_state",
    "initial_density",
    "interaction_coupling",
    "Rectangular",
    "Lorentzian",
    "PowerGaussian",
    "SpectralModel",
    "evaluate",
    "correlator",
    "correlator_table",
    "EvolutionConfig",
    "Trajectory",
    "IntegrationError",
    "integrate",
    "integrate_batch",
    "FitWindow",
    "ExponentialFit",
    "RateSet",
    "fit_exponential_decay",
    "extract_rates",
    "RpaConfig",
    "FluctuationResult",
    "channel_weights",
    "n_second_order",
    "rpa_number_density",
    "delta_n_total",
    "ConfigError",
    "ScenarioConfig",
    "SweepSpec",
    "load_config",
    "run_scenario",
    "run_sweep",
    "__version__",
]
