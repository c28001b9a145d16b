"""Sampling by optimally controlled diffusion in a harmonic reference.

The package draws i.i.d. samples from a target given either as an energy
function or as empirical ground-truth rows. Closed-form transition
kernels of the harmonically confined reference process make the optimal
drift computable pointwise, by importance sampling against an
energy-independent probe Gaussian, by an exact softmax over dataset
rows, or by deterministic quadrature in low dimension. A forward Euler
integrator then turns controls into samples, partition-function
estimates, and phase-transition diagnostics.
"""

from .control import (
    ControlOutput,
    EmpiricalControlEvaluator,
    EmpiricalTarget,
    FunctionControlEvaluator,
    QuadratureControlEvaluator,
    QuadratureGrid,
    UhisConfig,
    UhisControlEvaluator,
    empirical_control,
    quadrature_control,
    uhis_control,
)
from .diagnostics import (
    AutocorrSeries,
    ModeHistogram,
    autocorrelation,
    bootstrap_transition_gap,
    mode_assignment,
    transition_time,
    transition_times_per,
)
from .errors import (
    AccuracyError,
    ConfigError,
    DegenerateProbeGaussianError,
    DomainError,
    FormatError,
    HpidError,
    InputError,
    IntegrationError,
)
from .kernels import (
    MatrixBeta,
    ScalarBeta,
    decompose,
    drift_prefactors,
    kernel_coeffs,
    log_g_minus,
    log_g_plus,
    log_kernel_ratio,
)
from .sampler import (
    RunConfig,
    RunSummary,
    estimate_z_convergence,
    run,
)
from .sde import (
    BatchTrajectories,
    SdeConfig,
    integrate_batch,
)
from .stationary import (
    ProbeGaussian,
    universal_probe,
)
from .targets import (
    DoubleWellEnergy,
    Energy,
    GaussianEnergy,
    GaussianMixtureEnergy,
    OffsetEnergy,
    grid_mixture,
    load_dataset,
    make_energy,
    mixture_partition_oracle,
    save_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "AutocorrSeries",
    "BatchTrajectories",
    "ConfigError",
    "ControlOutput",
    "DegenerateProbeGaussianError",
    "DomainError",
    "DoubleWellEnergy",
    "EmpiricalControlEvaluator",
    "EmpiricalTarget",
    "Energy",
    "FormatError",
    "FunctionControlEvaluator",
    "GaussianEnergy",
    "GaussianMixtureEnergy",
    "HpidError",
    "InputError",
    "IntegrationError",
    "MatrixBeta",
    "ModeHistogram",
    "OffsetEnergy",
    "ProbeGaussian",
    "QuadratureControlEvaluator",
    "QuadratureGrid",
    "RunConfig",
    "RunSummary",
    "ScalarBeta",
    "SdeConfig",
    "UhisConfig",
    "UhisControlEvaluator",
    "autocorrelation",
    "bootstrap_transition_gap",
    "decompose",
    "drift_prefactors",
    "empirical_control",
    "estimate_z_convergence",
    "grid_mixture",
    "integrate_batch",
    "kernel_coeffs",
    "load_dataset",
    "log_g_minus",
    "log_g_plus",
    "log_kernel_ratio",
    "make_energy",
    "mixture_partition_oracle",
    "mode_assignment",
    "quadrature_control",
    "run",
    "save_dataset",
    "transition_time",
    "transition_times_per",
    "uhis_control",
    "universal_probe",
]
