"""Stationary points of the bridge log-density in the target variable.

Two constructions, both functions of (t, x):

* the universal point y*, energy independent, with an x-independent
  curvature h(t, lambda) per eigen-axis — together they define the Gaussian
  probe used for importance sampling of the optimal drift;
* the non-universal point y_diamond, which folds the target energy into
  the optimality condition and is solved by damped Newton warm-started
  at y*. Its rescaling gives a deterministic drift approximation.

For multimodal energies the Newton solve returns the local solution
reached from y*, a local approximation of the global supremum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProbeGaussianError, DomainError, InputError
from .kernels import (
    _LOG_2PI,
    BETA_ZERO_TOL,
    Potential,
    ScalarBeta,
    _as_points,
    _axes_sum,
    _h_probe,
    _log_sinh,
    _ret,
    _scalar_beta,
    _validate_t,
    _wsum,
    drift_prefactors,
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


@dataclass(frozen=True)
class NonuniversalResult:
    y: np.ndarray  # stationary point, (d,)
    hessian_diag: np.ndarray  # scaled curvature diag at y, (d,)
    converged: bool
    iterations: int


def _dense_hessian(energy, y):
    """Full Hessian of the energy if obtainable, else None."""
    hess_fn = getattr(energy, "hessian", None)
    if callable(hess_fn):
        try:
            m = hess_fn(y)
        except NotImplementedError:
            m = None
        if m is not None:
            return np.asarray(m, dtype=float)
    hvp_fn = getattr(energy, "hvp", None)
    if callable(hvp_fn) and y.shape[-1] <= 256:
        try:
            cols = [
                np.asarray(hvp_fn(y, e), dtype=float) for e in np.eye(y.shape[-1])
            ]
        except NotImplementedError:
            return None
        return np.stack(cols, axis=1)
    return None


def _hessian_diag(energy, y):
    """Diagonal of the energy Hessian at y, by the cheapest available route."""
    m = _dense_hessian(energy, y)
    if m is not None:
        return np.diagonal(m).copy()
    d = y.shape[-1]
    out = np.empty(d)
    for i in range(d):
        eps = 1e-5 * (1.0 + abs(float(y[i])))
        e = np.zeros(d)
        e[i] = eps
        gp = np.asarray(energy.gradient(y + e), dtype=float)
        gm = np.asarray(energy.gradient(y - e), dtype=float)
        out[i] = (gp[i] - gm[i]) / (2.0 * eps)
    return out


def nonuniversal_point(
    params: ScalarBeta,
    t: float,
    x,
    energy,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> NonuniversalResult:
    """Energy-dependent stationary point y_diamond at (t, x).

    Solves grad E(y) + h(t) y = c1(t) x by damped Newton (gradient descent
    when the energy exposes no curvature), warm-started at the universal
    y*. Convergence: the residual mapped back to x units is within
    tol * (1 + |x|). Non-convergence returns the best iterate with
    converged=False; callers decide whether to fall back.

    Defined down to t = 0 (the integrator's first drift instant), where
    h = 0, the universal warm start is unavailable, and x seeds the solve.
    """
    _validate_t(t, 0.0, 1.0, True, False)
    x = _as_points(params, "x", x)
    if x.ndim != 1:
        raise InputError(f"x must be a single point, got shape {x.shape}")
    c1, c2 = drift_prefactors(params, t)
    h = float(_h_probe(np.asarray(_scalar_beta(params)), t))
    d = x.shape[0]

    if t == 0.0:
        y = np.array(x, dtype=float)
    else:
        try:
            y = np.array(universal_probe(params, t, x).mean, dtype=float)
        except DegenerateProbeGaussianError:
            y = np.array(x, dtype=float)

    # convex merit: E(y) + (h/2)|y|^2 - c1 x.y, gradient = residual
    def merit(v):
        return float(energy.value(v)) + 0.5 * h * float(v @ v) - c1 * float(x @ v)

    scale = tol * (1.0 + math.sqrt(float(x @ x)))
    grad = np.asarray(energy.gradient(y), dtype=float)
    converged = False
    iterations = 0
    for _ in range(max_iter):
        r = grad + h * y - c1 * x
        if np.linalg.norm(r) <= c1 * scale:
            converged = True
            break
        step = None
        hess = _dense_hessian(energy, y)
        if hess is not None:
            try:
                step = np.linalg.solve(hess + h * np.eye(d), -r)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and float(step @ r) >= 0.0:
                step = None  # not a descent direction; curvature indefinite
        if step is None:
            step = -r / max(h, 1.0)
        slope = float(step @ r)
        f0 = merit(y)
        alpha = 1.0
        for _ in range(30):
            y_new = y + alpha * step
            if merit(y_new) <= f0 + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            break  # no decrease found along step; keep best iterate
        iterations += 1
        y = y_new
        grad = np.asarray(energy.gradient(y), dtype=float)
    if not converged:
        r = grad + h * y - c1 * x
        converged = bool(np.linalg.norm(r) <= c1 * scale)

    hdiag = (_hessian_diag(energy, y) + h) / c1
    return NonuniversalResult(
        y=y, hessian_diag=hdiag, converged=converged, iterations=iterations
    )


def legendre_control(params: ScalarBeta, t: float, x, energy, max_iter: int = 50):
    """Deterministic drift from the rescaled non-universal point.

    u(t; x) = c1 (y_diamond - c2 x). Constant energy reduces y_diamond to
    y*, recovering the pure universal drift. Accepts x of shape (d,) or
    (batch, d); the Newton solve runs per point.
    """
    x = _as_points(params, "x", x)
    c1, c2 = drift_prefactors(params, t)
    if x.ndim == 1:
        res = nonuniversal_point(params, t, x, energy, max_iter=max_iter)
        return c1 * (res.y - c2 * x)
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty_like(flat)
    for i, row in enumerate(flat):
        res = nonuniversal_point(params, t, row, energy, max_iter=max_iter)
        out[i] = c1 * (res.y - c2 * row)
    return out.reshape(x.shape)
