"""Exception types shared across the package."""


class HpidError(Exception):
    """Base class for every error raised by this package."""


class DomainError(HpidError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class InputError(HpidError, ValueError):
    """An argument is malformed (wrong shape, non-finite, wrong type)."""


class DegenerateProbeGaussianError(HpidError, ArithmeticError):
    """The energy-independent probe degenerates (its mean diverges as t -> 0).

    Callers should fall back to a wide probe centered at the origin.
    """


class AccuracyError(HpidError, ArithmeticError):
    """A numerical routine cannot meet its accuracy contract."""


class IntegrationError(HpidError, RuntimeError):
    """A trajectory produced a non-finite state.

    Carries the step index and the norm of the last finite state.
    """

    def __init__(self, step: int, state_norm: float, trajectory: int = 0):
        self.step = step
        self.state_norm = state_norm
        self.trajectory = trajectory
        super().__init__(
            f"trajectory {trajectory} diverged at step {step} "
            f"(last finite state norm {state_norm:.6g})"
        )


class FormatError(HpidError, ValueError):
    """A dataset file is malformed. The message names the byte offset or row."""


class ConfigError(HpidError, ValueError):
    """A run configuration is invalid or internally inconsistent."""
