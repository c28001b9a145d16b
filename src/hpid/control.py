"""Drift evaluators for the controlled bridge.

Three interchangeable ways to estimate the optimal drift at (t, x):

* ``uhis_control`` — self-normalized importance sampling against the
  energy-independent Gaussian probe. The N probe points, their weights
  and the weighted state x̂ reduce the drift to u = c1 (x̂ - c2 x).
* ``empirical_control`` — the target is a finite set of ground-truth
  vectors; softmax over per-sample kernel log-ratios replaces IS.
* ``quadrature_control`` — direct fixed-grid integration in 1 or 2
  dimensions; slow, but the reference the other two are tested against.

Evaluator classes at the bottom adapt each to the integrator protocol:
``noise_shape(dim)`` declares the standard normals a call needs (None for
deterministic evaluators), which the caller always passes as xi, and
``__call__(t, x, xi=None)`` returns a ControlOutput. All evaluators accept
x with leading batch axes; all three estimators take scalar or matrix beta.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AccuracyError,
    DegenerateProbeGaussianError,
    InputError,
)
from .kernels import (
    Potential,
    _as_points,
    _ret,
    _validate_t,
    drift_prefactors,
    log_kernel_ratio,
)
from .stationary import ProbeGaussian, universal_probe


@dataclass(frozen=True)
class UhisConfig:
    """Importance-sampling settings for the universal-probe drift estimate.

    n_is probe samples per evaluation. reuse_probe_noise makes the path
    integrator draw one (n_is, d) panel per step, shared by every
    trajectory, instead of per-trajectory blocks. Off by default because
    sharing correlates trajectories within a step. At t <= t_min, and
    whenever the probe denominator underflows, the probe falls back to
    N(0, wide_sigma2 I). Immutable and free of random state: the noise
    always comes from the caller, so a config can be shared by threads.
    """

    n_is: int
    reuse_probe_noise: bool = False
    t_min: float = 0.0
    wide_sigma2: float = 1.0

    def __post_init__(self):
        if self.n_is < 1:
            raise InputError(f"n_is must be >= 1, got {self.n_is}")
        if not (np.isfinite(self.wide_sigma2) and self.wide_sigma2 > 0):
            raise InputError(f"wide_sigma2 must be positive, got {self.wide_sigma2}")


@dataclass(frozen=True)
class EmpiricalTarget:
    """Ground-truth sample set defining the target distribution."""

    samples: np.ndarray  # (count, d)
    count: int = field(init=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if s.ndim != 2 or s.shape[0] < 1:
            raise InputError(f"samples must be a nonempty (S, d) array, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise InputError("samples contain non-finite values")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "count", int(s.shape[0]))

    @property
    def dim(self) -> int:
        return int(self.samples.shape[1])


@dataclass(frozen=True)
class ControlOutput:
    """One drift evaluation plus its importance-sampling diagnostics.

    weighted_state is x̂, the weight-averaged target point the drift
    recomposes from (u = c1 (x̂ - c2 x)); None only for opaque
    plain-function controls. ess and max_weight are per-point when x is
    batched.
    """

    drift: np.ndarray
    weighted_state: np.ndarray | None
    ess: float | np.ndarray
    max_weight: float | np.ndarray

    @property
    def low_ess(self):
        return self.ess < 1.5


def _softmax_weights(log_w):
    """Normalized weights from log_w (..., n) plus ESS and max diagnostics."""
    m = np.max(log_w, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise AccuracyError(
            "all importance weights vanished; energy is non-finite on every sample"
        )
    w = np.exp(log_w - m)
    w /= w.sum(axis=-1, keepdims=True)
    ess = 1.0 / np.einsum("...n,...n->...", w, w)
    return w, ess, w.max(axis=-1)


def _drift_output(params: Potential, t, x, xhat, ess, max_w) -> ControlOutput:
    """ControlOutput whose drift recomposes from the weighted state as
    c1 (x̂ - c2 x), axis by axis in the potential's eigenbasis."""
    c1, c2 = drift_prefactors(params, t)
    to = params.to_eigenbasis
    return ControlOutput(
        drift=params.from_eigenbasis(c1 * (to(xhat) - c2 * to(x))),
        weighted_state=xhat,
        ess=_ret(ess),
        max_weight=_ret(max_w),
    )


def _weighted_state(log_w, ys):
    """Softmax weights of log_w (..., n) and their average of ys (..., n, d)."""
    w, ess, max_w = _softmax_weights(log_w)
    xhat = np.einsum("...n,...nd->...d", w, ys)
    return xhat, ess, max_w


def _probe_or_wide(params, t, x, t_min, wide_sigma2):
    """Universal probe when it exists, else the wide fallback; flags which."""
    if t > t_min:
        try:
            return universal_probe(params, t, x), True
        except DegenerateProbeGaussianError:
            pass
    wide = ProbeGaussian(
        mean=np.zeros_like(x), precision=1.0 / wide_sigma2, t=float(t), params=params
    )
    return wide, False


def uhis_control(
    params: Potential, cfg: UhisConfig, t: float, x, energy, xi
) -> ControlOutput:
    """Importance-sampled optimal drift at (t, x) for an energy target.

    Draws n_is points from the universal probe and weights them by
    exp(-E(y)) alone: the kernel ratio over the probe density is constant
    in y, so it cancels in the self-normalized weights. Only the wide
    fallback probe carries that ratio explicitly. The drift recomposes
    from the weighted state. xi holds the standard normals behind the
    draws: one (n_is, d) panel shared by every point, or one block per
    point, shape x.shape[:-1] + (n_is, d).
    """
    _validate_t(t, 0.0, 1.0, True, False)
    x = _as_points(params, "x", x)
    shared = (cfg.n_is, params.dim)
    owned = x.shape[:-1] + shared
    got = None if xi is None else np.shape(xi)
    if got not in (shared, owned):
        raise InputError(
            f"xi must be one panel {shared} shared by every point or one block "
            f"per point {owned}, got {got}"
        )
    xi = np.asarray(xi, dtype=float)
    probe, universal = _probe_or_wide(params, t, x, cfg.t_min, cfg.wide_sigma2)
    panel_fn = getattr(energy, "panel_logw", None)
    if universal and x.ndim == 2 and xi.ndim == 2 and panel_fn is not None:
        # the weights are exp(-E) alone, so a shared panel never
        # materializes (B, N, d): y = mean + scale * panel row
        scale, panel = probe.spread(xi)
        log_w = np.asarray(panel_fn(probe.mean, scale, panel), dtype=float)
        w, ess, max_w = _softmax_weights(log_w)
        # einsum, not gemm: its reduction order is independent of the
        # batch shape, keeping rows bitwise stable under batch splits
        xhat = probe.mean + scale * np.einsum("...n,nd->...d", w, panel)
    else:
        ys = probe.draw(np.broadcast_to(xi, owned))
        energies = np.asarray(energy.value(ys), dtype=float)
        if universal:
            log_w = -energies
        else:
            log_w = (
                log_kernel_ratio(params, t, x[..., None, :], ys)
                - probe.log_pdf(ys)
                - energies
            )
        xhat, ess, max_w = _weighted_state(log_w, ys)
    return _drift_output(params, t, x, xhat, ess, max_w)


def empirical_control(
    params: Potential, target: EmpiricalTarget, t: float, x
) -> ControlOutput:
    """Optimal drift when the target is the empirical measure of samples.

    Softmax over the kernel log-ratio at each stored sample; exact (no
    Monte Carlo error) given the sample set.
    """
    _validate_t(t, 0.0, 1.0, True, False)
    x = _as_points(params, "x", x)
    if target.dim != params.dim:
        raise InputError(
            f"target dimension {target.dim} does not match params.dim {params.dim}"
        )
    log_w = log_kernel_ratio(params, t, x[..., None, :], target.samples)
    xhat, ess, max_w = _weighted_state(log_w, target.samples)
    return _drift_output(params, t, x, xhat, ess, max_w)


@dataclass(frozen=True)
class QuadratureGrid:
    """Fixed Simpson grid on [lo, hi]^d, n points per axis (n forced odd)."""

    lo: float = -12.0
    hi: float = 12.0
    n: int = 1601

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise InputError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.n < 3:
            raise InputError(f"need at least 3 nodes per axis, got {self.n}")
        if self.n % 2 == 0:
            object.__setattr__(self, "n", self.n + 1)


_BOUNDARY_MASS_TOL = 1e-8


def _simpson_weights(n: int, lo: float, hi: float) -> np.ndarray:
    s = np.ones(n)
    s[1:-1:2] = 4.0
    s[2:-1:2] = 2.0
    return s * ((hi - lo) / (n - 1) / 3.0)


def _quadrature_state(params: Potential, t: float, x, energy, grid: QuadratureGrid):
    """Weighted state by direct integration; 1D/2D reference path."""
    d = params.dim
    if d not in (1, 2):
        raise InputError(f"quadrature reference supports dim 1 or 2, got {d}")
    axis = np.linspace(grid.lo, grid.hi, grid.n)
    s1 = _simpson_weights(grid.n, grid.lo, grid.hi)
    if d == 1:
        ys = axis[:, None]  # (n, 1)
        log_s = np.log(s1)
        boundary = np.zeros(grid.n, dtype=bool)
        boundary[0] = boundary[-1] = True
    else:
        ga, gb = np.meshgrid(axis, axis, indexing="ij")
        ys = np.stack([ga.ravel(), gb.ravel()], axis=1)  # (n*n, 2)
        log_s = np.log(np.outer(s1, s1)).ravel()
        edge = np.zeros((grid.n, grid.n), dtype=bool)
        edge[0, :] = edge[-1, :] = True
        edge[:, 0] = edge[:, -1] = True
        boundary = edge.ravel()
    log_w = (
        log_kernel_ratio(params, t, x, ys)
        - np.asarray(energy.value(ys), dtype=float)
        + log_s
    )
    m = float(log_w.max())
    if not np.isfinite(m):
        raise AccuracyError("integrand is non-finite over the whole grid")
    r = np.exp(log_w - m)
    total = float(r.sum())
    if float(r[boundary].sum()) > _BOUNDARY_MASS_TOL * total:
        raise AccuracyError(
            f"integrand mass at the grid boundary exceeds {_BOUNDARY_MASS_TOL:g} "
            f"of the total; enlarge [{grid.lo}, {grid.hi}]"
        )
    w = r / total
    xhat = w @ ys
    ess = 1.0 / float(w @ w)
    return xhat, ess, float(w.max())


def quadrature_control(
    params: Potential, t: float, x, energy, grid: QuadratureGrid | None = None
) -> np.ndarray:
    """Reference drift by direct integration over a bounded grid (d <= 2)."""
    _validate_t(t, 0.0, 1.0, True, False)
    x = _as_points(params, "x", x)
    if x.ndim != 1:
        raise InputError(f"x must be a single point, got shape {x.shape}")
    if grid is None:
        grid = QuadratureGrid()
    xhat, ess, max_w = _quadrature_state(params, t, x, energy, grid)
    return _drift_output(params, t, x, xhat, ess, max_w).drift


class UhisControlEvaluator:
    """Integrator adapter around uhis_control (scalar or matrix potential)."""

    def __init__(self, params: Potential, energy, cfg: UhisConfig):
        self.params = params
        self.energy = energy
        self.cfg = cfg

    @property
    def reuse_probe_noise(self) -> bool:
        return self.cfg.reuse_probe_noise

    def noise_shape(self, dim: int):
        return (self.cfg.n_is, dim)

    def __call__(self, t, x, xi=None) -> ControlOutput:
        return uhis_control(self.params, self.cfg, t, x, self.energy, xi=xi)


class EmpiricalControlEvaluator:
    """Integrator adapter around empirical_control; deterministic."""

    def __init__(self, params: Potential, target: EmpiricalTarget):
        self.params = params
        self.target = target

    def noise_shape(self, dim: int):
        return None

    def __call__(self, t, x, xi=None) -> ControlOutput:
        return empirical_control(self.params, self.target, t, x)


class QuadratureControlEvaluator:
    """Deterministic reference drift by grid integration (d <= 2)."""

    def __init__(self, params: Potential, energy, grid: QuadratureGrid | None = None):
        self.params = params
        self.energy = energy
        self.grid = grid if grid is not None else QuadratureGrid()

    def noise_shape(self, dim: int):
        return None

    def __call__(self, t, x, xi=None) -> ControlOutput:
        x = _as_points(self.params, "x", x)
        flat = x.reshape(-1, x.shape[-1])
        xhat = np.empty_like(flat)
        ess = np.empty(flat.shape[0])
        max_w = np.empty(flat.shape[0])
        for i, row in enumerate(flat):
            xhat[i], ess[i], max_w[i] = _quadrature_state(
                self.params, t, row, self.energy, self.grid
            )
        lead = x.shape[:-1]
        xhat = xhat.reshape(x.shape)
        return _drift_output(
            self.params, t, x, xhat, ess.reshape(lead), max_w.reshape(lead)
        )


class FunctionControlEvaluator:
    """Wrap a plain drift function u(t, x); no IS diagnostics available."""

    def __init__(self, fn):
        self.fn = fn

    def noise_shape(self, dim: int):
        return None

    def __call__(self, t, x, xi=None) -> ControlOutput:
        u = np.asarray(self.fn(t, np.asarray(x, dtype=float)), dtype=float)
        return ControlOutput(drift=u, weighted_state=None, ess=1.0, max_weight=1.0)
