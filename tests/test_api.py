"""The public API of the package, pinned so that its size is tracked.

Adding or removing a name is a deliberate change: update this list with it.
"""

import hpid

PUBLIC = [
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
    "estimate_z_convergence",
    "grid_mixture",
    "integrate_batch",
    "load_dataset",
    "log_g_minus",
    "log_g_plus",
    "log_kernel_ratio",
    "mixture_partition_oracle",
    "mode_assignment",
    "run",
    "save_dataset",
    "transition_time",
    "transition_times_per",
    "universal_probe",
]


def test_public_api_is_pinned():
    assert len(hpid.__all__) == 47
    assert hpid.__all__ == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(hpid, name)]
    assert missing == []
