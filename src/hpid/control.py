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
from functools import reduce

import numpy as np

from .errors import (
    AccuracyError,
    DegenerateProbeGaussianError,
    InputError,
)
from .kernels import (
    Potential,
    _as_points,
    _dot,
    _ret,
    _row_tiles,
    _rows_matmul,
    _validate_t,
    drift_prefactors,
    log_kernel_ratio,
)
from .stationary import universal_probe


@dataclass(frozen=True)
class UhisConfig:
    """Importance-sampling settings for the universal-probe drift estimate.

    n_is probe samples per evaluation. reuse_probe_noise makes the path
    integrator draw one (n_is, d) panel per step, shared by every
    trajectory, instead of per-trajectory blocks. Off by default because
    sharing correlates trajectories within a step. At t <= t_min, and
    whenever the probe denominator underflows, the noise itself is the
    draw, from the wide N(0, I), and a shared panel is one row set for
    the whole batch. Immutable and free of random state: the noise
    always comes from the caller, so a config can be shared by threads.
    """

    n_is: int
    reuse_probe_noise: bool = False
    t_min: float = 0.0

    def __post_init__(self):
        if self.n_is < 1:
            raise InputError(f"n_is must be >= 1, got {self.n_is}")


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


_LOG_TINY = float(np.log(np.finfo(float).tiny))  # about -708.4


def _exp_weights(log_w):
    """Unnormalized softmax weights e = exp(log_w - row max), formed in
    place over log_w (..., n), their row sums T, the ESS T^2 / sum e^2 and
    the max weight 1 / T (the largest e is exp(0) = 1).

    A log-weight more than log(tiny) below its row max gets weight exactly
    0 and skips exp, which, like every product after it, is slow on
    subnormals; such a weight is far below the rounding step of T. Every
    other e is at least tiny, so e, contracted before any division by T,
    holds no subnormal. One min over the block gates the mask.
    """
    m = np.max(log_w, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise AccuracyError(
            "all importance weights vanished; energy is non-finite on every sample"
        )
    e = np.subtract(log_w, m, out=log_w)
    if e.min() < _LOG_TINY:
        small = e < _LOG_TINY
        np.exp(e, out=e, where=~small)
        e[small] = 0.0
    else:
        np.exp(e, out=e)
    total = e.sum(axis=-1)
    ess = total * total / np.einsum("...n,...n->...", e, e)
    return e, total, ess, 1.0 / total


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
    """Softmax weights of log_w (..., n) and their average of ys: one
    (n, d) row set shared by every index, or one (..., n, d) block each.

    log_w is consumed: its rows are turned into their unnormalized
    weights in place, one tile of kernels._KERNEL_TILE rows at a time, so
    no (..., n) temporary is made; the contraction takes them as they are
    and only its (..., d) result is divided by the row sum. Every row's
    bits are those of the untiled kernel; a one-hot row gives its point.
    """
    n, d = log_w.shape[-1], ys.shape[-1]
    lead = log_w.shape[:-1]
    flat = log_w.reshape(-1, n)
    m = flat.shape[0]
    blocks = ys if ys.ndim == 2 else ys.reshape(m, n, d)
    xhat = np.empty((m, d))
    ess = np.empty(m)
    max_w = np.empty(m)
    for rows in _row_tiles(m):
        e, total, ess[rows], max_w[rows] = _exp_weights(flat[rows])
        if ys.ndim == 2:
            _rows_matmul(e, ys, out=xhat[rows])
        else:
            np.einsum("bn,bnd->bd", e, blocks[rows], out=xhat[rows])
        xhat[rows] /= total[:, None]
    return xhat.reshape(lead + (d,)), ess.reshape(lead), max_w.reshape(lead)


def uhis_control(
    params: Potential, cfg: UhisConfig, t: float, x, energy, xi
) -> ControlOutput:
    """Importance-sampled optimal drift at (t, x) for an energy target.

    xi holds n_is standard normals per point: one (n_is, d) panel shared
    by every point, or one block per point, shape x.shape[:-1] + (n_is, d).
    Past t_min the universal probe maps them to its points and weights
    them by exp(-E(y)) alone: the kernel ratio over the probe density is
    constant in y, so it cancels in the self-normalized weights. At
    t <= t_min, or where the universal probe degenerates, the normals
    (in the eigenbasis) are themselves the points, a draw of the wide
    N(0, I) that does not depend on x, weighted by the kernel ratio over
    that density times exp(-E(y)); a shared panel is then one row set,
    weighed once for every point. The drift recomposes from the weighted
    state.
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
    probe = None
    if t > cfg.t_min:
        try:
            probe = universal_probe(params, t, x)
        except DegenerateProbeGaussianError:
            pass
    panel_fn = getattr(energy, "panel_logw", None)
    if probe is None:
        # the normals are taken in the eigenbasis, as the universal probe
        # takes them; N(0, I)'s normalizer is constant in y and cancels
        ys = params.from_eigenbasis(xi)
        log_w = (
            log_kernel_ratio(params, t, x[..., None, :], ys)
            + 0.5 * _dot(ys, ys)
            - np.asarray(energy.value(ys), dtype=float)
        )
        xhat, ess, max_w = _weighted_state(log_w, ys)
    elif x.ndim == 2 and xi.ndim == 2 and panel_fn is not None:
        # a shared panel never materializes (B, N, d): y = mean + scale * row
        scale, panel = probe.spread(xi)
        log_w = np.asarray(panel_fn(probe.mean, scale, panel), dtype=float)
        xbar, ess, max_w = _weighted_state(log_w, panel)
        xhat = probe.mean + scale * xbar
    else:
        ys = probe.draw(xi)
        log_w = -np.asarray(energy.value(ys), dtype=float)
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
_ENERGY_BLOCK = 65_536  # grid nodes per energy call while an evaluator is built


def _product_grid(grid: QuadratureGrid, d: int):
    """Nodes (n^d, d), log Simpson weights and boundary mask of the product
    grid in d = 1 or 2 dimensions."""
    if d not in (1, 2):
        raise InputError(f"quadrature reference supports dim 1 or 2, got {d}")
    axis = np.linspace(grid.lo, grid.hi, grid.n)
    s1 = np.ones(grid.n)
    s1[1:-1:2] = 4.0
    s1[2:-1:2] = 2.0
    s1 *= (grid.hi - grid.lo) / (grid.n - 1) / 3.0
    edge = np.zeros(grid.n, dtype=bool)
    edge[0] = edge[-1] = True
    nodes = np.stack([a.ravel() for a in np.meshgrid(*[axis] * d, indexing="ij")], 1)
    log_s = np.log(reduce(np.multiply.outer, [s1] * d)).ravel()
    boundary = reduce(np.logical_or.outer, [edge] * d).ravel()
    return nodes, log_s, boundary


def quadrature_control(
    params: Potential, t: float, x, energy, grid: QuadratureGrid | None = None
) -> np.ndarray:
    """Reference drift by direct integration over a bounded grid (d <= 2)."""
    _validate_t(t, 0.0, 1.0, True, False)
    x = _as_points(params, "x", x)
    if x.ndim != 1:
        raise InputError(f"x must be a single point, got shape {x.shape}")
    return QuadratureControlEvaluator(params, energy, grid)(t, x).drift


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
    """Deterministic reference drift by grid integration (d <= 2).

    The grid and -E on its nodes are built once, here; a row then costs
    one kernel ratio over the nodes and one softmax.
    """

    def __init__(self, params: Potential, energy, grid: QuadratureGrid | None = None):
        self.params = params
        self.energy = energy
        self.grid = grid if grid is not None else QuadratureGrid()
        self._nodes, self._log_s, self._boundary = _product_grid(self.grid, params.dim)
        neg_e = np.empty(len(self._nodes))
        for lo in range(0, len(neg_e), _ENERGY_BLOCK):
            block = slice(lo, lo + _ENERGY_BLOCK)
            neg_e[block] = energy.value(self._nodes[block])
        self._neg_e = np.negative(neg_e, out=neg_e)

    def noise_shape(self, dim: int):
        return None

    def __call__(self, t, x, xi=None) -> ControlOutput:
        x = _as_points(self.params, "x", x)
        xhat = np.empty_like(x)
        ess = np.empty(x.shape[:-1])
        max_w = np.empty(x.shape[:-1])
        for i in np.ndindex(x.shape[:-1]):
            log_w = log_kernel_ratio(self.params, t, x[i], self._nodes)
            log_w += self._neg_e
            log_w += self._log_s
            e, total, ess[i], max_w[i] = _exp_weights(log_w)
            if e[self._boundary].sum() > _BOUNDARY_MASS_TOL * total:
                raise AccuracyError(
                    "integrand mass at the grid boundary exceeds "
                    f"{_BOUNDARY_MASS_TOL:g} of the total; enlarge "
                    f"[{self.grid.lo}, {self.grid.hi}]"
                )
            xhat[i] = (e @ self._nodes) / total
        return _drift_output(self.params, t, x, xhat, ess, max_w)


class FunctionControlEvaluator:
    """Wrap a plain drift function u(t, x); no IS diagnostics available."""

    def __init__(self, fn):
        self.fn = fn

    def noise_shape(self, dim: int):
        return None

    def __call__(self, t, x, xi=None) -> ControlOutput:
        u = np.asarray(self.fn(t, np.asarray(x, dtype=float)), dtype=float)
        return ControlOutput(drift=u, weighted_state=None, ess=1.0, max_weight=1.0)
