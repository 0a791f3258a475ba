"""Multi-mode magnon-microwave-cavity hybrid system toolkit.

Simulates transmission, reflection, and microwave-to-optical conversion
spectra of a ferromagnetic sphere coupled to a microwave cavity; computes
Walker magnetostatic mode frequencies; derives conversion-budget
parameters from measured couplings; and extracts resonance parameters
from spectra by damped least squares.
"""

__version__ = "0.1.0"

from .config import GridSpec, RunConfig, dump_config, load_config, parse_config
from .derived import (
    DerivedParams,
    ScalingFitResult,
    cooperativity,
    derive_mode_params,
    faraday_coefficient,
    fit_scaling_laws,
    mode_volume_and_density,
    optical_coupling_rate,
    photon_flux,
    single_spin_coupling,
    spins_from_coupling,
)
from .errors import ConfigError, DomainError
from .fitting import (
    FitProblem,
    FitResult,
    apply_params,
    fit_spectrum,
    read_params,
    synthesize_noisy_spectrum,
)
from .magnetostatics import (
    WalkerModeQuery,
    WalkerSolutions,
    closed_form_map,
    field_for_frequency,
    internal_field,
    kittel_frequency,
    mode_frequency,
    msm20_frequency,
    msm_frequency_linear,
    solve_walker_mode,
    solve_walker_modes,
    walker_characteristic,
)
from .model import (
    CavityParams,
    FieldMap,
    HybridSystem,
    MagnonMode,
    MaterialParams,
    OpticalDrive,
)
from .scattering import (
    ComplexSpectrum,
    SweepMap,
    amplitudes,
    principal_phase,
    eta_resonant,
    eta_spectrum,
    s11,
    s21,
    s31_mode,
    sweep_map,
)

__all__ = [
    "CavityParams",
    "ComplexSpectrum",
    "ConfigError",
    "DerivedParams",
    "DomainError",
    "FieldMap",
    "FitProblem",
    "FitResult",
    "GridSpec",
    "HybridSystem",
    "MagnonMode",
    "MaterialParams",
    "OpticalDrive",
    "RunConfig",
    "ScalingFitResult",
    "SweepMap",
    "WalkerModeQuery",
    "WalkerSolutions",
    "amplitudes",
    "apply_params",
    "closed_form_map",
    "cooperativity",
    "derive_mode_params",
    "dump_config",
    "eta_resonant",
    "eta_spectrum",
    "faraday_coefficient",
    "field_for_frequency",
    "fit_scaling_laws",
    "fit_spectrum",
    "internal_field",
    "kittel_frequency",
    "load_config",
    "mode_frequency",
    "mode_volume_and_density",
    "msm20_frequency",
    "msm_frequency_linear",
    "optical_coupling_rate",
    "parse_config",
    "photon_flux",
    "principal_phase",
    "read_params",
    "s11",
    "s21",
    "s31_mode",
    "single_spin_coupling",
    "solve_walker_mode",
    "solve_walker_modes",
    "spins_from_coupling",
    "sweep_map",
    "synthesize_noisy_spectrum",
    "walker_characteristic",
]
