"""The universal stationary point of the bridge log-density in the target
variable.

The point y*, a function of (t, x) that does not depend on the energy,
and its x-independent curvature h(t, lambda) per eigen-axis define the
Gaussian probe used for importance sampling of the optimal drift.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProbeGaussianError, DomainError
from .kernels import (
    _LOG_2PI,
    BETA_ZERO_TOL,
    Potential,
    _as_points,
    _axes_sum,
    _h_probe,
    _log_sinh,
    _ret,
    _validate_t,
    _wsum,
)

DEGENERATE_DENOM_TOL = 1e-12


@dataclass(frozen=True)
class ProbeGaussian:
    """Gaussian N(mean, C), C diagonal in the potential's eigenbasis.

    precision holds the inverse variances per eigen-axis: a float when the
    probe is isotropic, shape (d,) otherwise. mean may carry leading batch
    axes (..., d); the precision is shared because the curvature at y*
    does not depend on x. params supplies the eigenbasis.
    """

    mean: np.ndarray
    precision: float | np.ndarray
    t: float
    params: Potential

    def __post_init__(self):
        h = np.asarray(self.precision)
        if not (np.all(np.isfinite(h)) and np.all(h > 0)):
            raise DomainError(f"probe precision must be positive, got {self.precision}")

    @property
    def sigma2(self):
        return 1.0 / self.precision

    def draw(self, xi):
        """Map standard normals xi of shape (..., n, d) to probe samples."""
        xi = np.asarray(xi, dtype=float)
        mean = self.mean
        if xi.ndim == mean.ndim + 1:
            mean = mean[..., None, :]
        return mean + self.params.from_eigenbasis(xi / np.sqrt(self.precision))

    def spread(self, panel):
        """(scale, block) with draw(panel) == mean + scale * block for one
        (n, d) panel shared by every mean: an isotropic spread stays a
        scalar, per-axis spreads are applied to the panel once."""
        h = self.precision
        if np.ndim(h) == 0:
            return 1.0 / np.sqrt(h), self.params.from_eigenbasis(panel)
        return 1.0, self.params.from_eigenbasis(panel / np.sqrt(h))

    def log_pdf(self, y):
        y = np.asarray(y, dtype=float)
        mean = self.mean
        if y.ndim == mean.ndim + 1:
            mean = mean[..., None, :]
        d = y.shape[-1]
        diff = self.params.to_eigenbasis(y - mean)
        h = self.precision
        # math.log for a float: numpy's log can differ from it in the last bit
        log_h = math.log(h) if np.ndim(h) == 0 else np.log(h)
        return 0.5 * _axes_sum(log_h - _LOG_2PI, d) - 0.5 * _wsum(h, (diff, diff))


def _probe_denominator(beta, t):
    """sinh(t sqrt(beta)) / sinh(sqrt(beta)) elementwise; t in the limit."""
    beta = np.asarray(beta, dtype=float)
    small = beta < BETA_ZERO_TOL
    rb = np.sqrt(np.where(small, 1.0, beta))
    # log-domain ratio: underflows cleanly to 0 instead of dividing infs
    d = np.exp(_log_sinh(t * rb) - _log_sinh(rb))
    return np.where(small, t, d)


def universal_probe(params: Potential, t: float, x) -> ProbeGaussian:
    """Energy-independent Gaussian probe at time t, centered at y* = x/D.

    Per eigen-axis, D = cosh((1-t)sqrt(lambda)) - sinh((1-t)sqrt(lambda))
    ctnh(sqrt(lambda)), computed as sinh(t sqrt(lambda))/sinh(sqrt(lambda))
    which is the same quantity without cancellation; lambda = 0 gives mean
    x/t, precision t/(1-t). Raises when D underflows (t too small):
    callers fall back to a wide probe.
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
    return ProbeGaussian(mean=mean, precision=precision, t=float(t), params=params)
