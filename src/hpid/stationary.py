"""The universal stationary point of the bridge log-density in the target
variable.

The point y*, a function of (t, x) that does not depend on the energy,
and its x-independent curvature h(t, lambda) per eigen-axis define the
Gaussian probe used for importance sampling of the optimal drift.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProbeGaussianError, DomainError
from .kernels import Potential, _as_points, _h_probe, _log_sinhc, _ret, _validate_t

DEGENERATE_DENOM_TOL = 1e-12


@dataclass(frozen=True)
class ProbeGaussian:
    """Gaussian N(mean, C), C diagonal in the potential's eigenbasis.

    The universal probe at one time t: only its draws are used, because
    its density cancels against the kernel ratio in the drift weights.
    precision holds the inverse variances per eigen-axis: a float when the
    probe is isotropic, shape (d,) otherwise. mean may carry leading batch
    axes (..., d); the precision is shared because the curvature at y*
    does not depend on x. params supplies the eigenbasis.
    """

    mean: np.ndarray
    precision: float | np.ndarray
    params: Potential

    def __post_init__(self):
        h = np.asarray(self.precision)
        if not (np.all(np.isfinite(h)) and np.all(h > 0)):
            raise DomainError(f"probe precision must be positive, got {self.precision}")

    def draw(self, xi):
        """Map standard normals xi to probe samples, mean.shape[:-1] + (n, d):
        one (n, d) panel shared by every mean, or one (..., n, d) block each."""
        xi = np.asarray(xi, dtype=float)
        offset = self.params.from_eigenbasis(xi / np.sqrt(self.precision))
        return self.mean[..., None, :] + offset

    def spread(self, panel):
        """(scale, block) with draw(panel) == mean + scale * block for one
        (n, d) panel shared by every mean: an isotropic spread stays a
        scalar, per-axis spreads are applied to the panel once."""
        h = self.precision
        if np.ndim(h) == 0:
            return 1.0 / np.sqrt(h), self.params.from_eigenbasis(panel)
        return 1.0, self.params.from_eigenbasis(panel / np.sqrt(h))


def _probe_denominator(beta, t):
    """sinh(t sqrt(beta)) / sinh(sqrt(beta)) elementwise, t at beta = 0."""
    rb = np.sqrt(np.asarray(beta, dtype=float))
    # log-domain ratio: underflows cleanly to 0 instead of dividing infs
    return t * np.exp(_log_sinhc(t * rb) - _log_sinhc(rb))


def universal_probe(params: Potential, t: float, x) -> ProbeGaussian:
    """Energy-independent Gaussian probe at time t, centered at y* = x/D.

    Per eigen-axis, D = cosh((1-t)sqrt(lambda)) - sinh((1-t)sqrt(lambda))
    ctnh(sqrt(lambda)), computed as sinh(t sqrt(lambda))/sinh(sqrt(lambda))
    which is the same quantity without cancellation; lambda = 0 gives mean
    x/t, precision t/(1-t). Raises when D underflows (t too small):
    callers fall back to the wide N(0, I).
    """
    _validate_t(t, 0.0, 1.0, False, False)
    x = _as_points(params, "x", x)
    denom = _probe_denominator(params.eigvals, t)
    if np.abs(denom).min() < DEGENERATE_DENOM_TOL:
        raise DegenerateProbeGaussianError(
            f"probe denominator {np.abs(denom).min():.3e} at t={t}; "
            "use a wide probe instead"
        )
    mean = params.from_eigenbasis(params.to_eigenbasis(x) / denom)
    precision = _ret(_h_probe(params.eigvals, t))
    return ProbeGaussian(mean=mean, precision=precision, params=params)
