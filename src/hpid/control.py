"""Drift evaluators for the controlled bridge.

Three interchangeable ways to estimate the optimal drift at (t, x), one
evaluator class each:

* ``UhisControlEvaluator`` — self-normalized importance sampling against
  the energy-independent Gaussian probe. The N probe points, their
  weights and the weighted state x̂ reduce the drift to u = c1 (x̂ - c2 x).
* ``EmpiricalControlEvaluator`` — the target is a finite set of
  ground-truth vectors; softmax over per-sample kernel log-ratios
  replaces IS.
* ``QuadratureControlEvaluator`` — direct fixed-grid integration in 1 or
  2 dimensions; slow, but the reference the other two are tested against.

The dataset rows, the wide step's normals and the quadrature nodes are
fixed row sets: one online softmax folds their column tiles of at most
kernels._COL_TILE rows, so a step holds B x _COL_TILE log-weights.

Each follows the integrator protocol: ``noise_shape(dim)`` declares the
standard normals a call needs (None for deterministic evaluators), which
the caller always passes as xi, and ``__call__(t, x, xi=None)`` returns
a ControlOutput. x may have leading batch axes, so build an evaluator
once and ask it about a whole batch; all take scalar or matrix beta.
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
    _COL_TILE,
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


LOW_ESS = 1.5  # an evaluation with a smaller ESS rests on about one draw or row


@dataclass(frozen=True)
class ControlOutput:
    """One drift evaluation plus its importance-sampling diagnostics.

    Every field is per point: drift and weighted_state have x's shape, ess
    and max_weight x.shape[:-1] (floats for one unbatched point).
    weighted_state is x̂, the weight-averaged target point the drift
    recomposes from (u = c1 (x̂ - c2 x)); NaN for plain-function controls.
    """

    drift: np.ndarray
    weighted_state: np.ndarray
    ess: float | np.ndarray
    max_weight: float | np.ndarray

    @property
    def low_ess(self):
        return self.ess < LOW_ESS


_LOG_FLOOR = float(np.log(np.finfo(float).tiny)) / 2  # about -354.2
_VANISHED = "all importance weights vanished; energy is non-finite on every sample"


def _flushed_exp(gaps):
    """exp(gaps) in place; a gap below log(tiny) / 2 gives exactly 0, so neither
    a weight nor its square in the ESS is subnormal, and exp stays in its vector
    loop (which it leaves below about -707.7, at 15-170 ns a value against 1).
    Such a weight is far below its row sum's rounding step. A clamp, exp and a
    multiply by the kept mask stay on vector loops; a masked exp would not."""
    if gaps.min() < _LOG_FLOOR:
        keep = gaps >= _LOG_FLOOR
        np.maximum(gaps, _LOG_FLOOR, out=gaps)
        np.exp(gaps, out=gaps)
        gaps *= keep
    else:
        np.exp(gaps, out=gaps)
    return gaps


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


def _weighted_state(tiles):
    """x̂, ESS and max weight of the softmax of each row of log-weights, folded
    over column tiles (log_w (..., n), ys), ys one (n, k) row set shared by
    every row or one (..., n, k) block each, by an online softmax (Milakov &
    Gimelshein, arXiv:1805.02867). log_w becomes its weights in place,
    kernels._KERNEL_TILE rows at a time. One column tile gives the untiled
    kernel's bits and a one-hot row its point; NaN, +inf or an all -inf row
    raises."""
    top = None
    for log_w, ys in tiles:
        n, k = log_w.shape[-1], ys.shape[-1]
        flat = log_w.reshape(-1, n)
        if top is None:
            lead, m = log_w.shape[:-1], flat.shape[0]
            top, total, sq, xsum = np.full(m, -np.inf), 0.0, 0.0, -0.0  # -0.0 + v is v
        new, shift, tile_sum, tile_sq = np.empty((4, m))
        part = np.empty((m, k))
        for rows in _row_tiles(m):
            new[rows] = np.maximum(top[rows], flat[rows].max(axis=-1))
            if not np.all(new[rows] < np.inf):
                raise AccuracyError(_VANISHED)
            shift[rows] = np.where(new[rows] > -np.inf, new[rows], 0.0)  # 0: no weight
            e = _flushed_exp(np.subtract(flat[rows], shift[rows, None], out=flat[rows]))
            tile_sum[rows] = e.sum(axis=-1)
            tile_sq[rows] = np.einsum("...n,...n->...", e, e)
            if ys.ndim == 2:
                _rows_matmul(e, ys, out=part[rows])
            else:
                np.einsum("bn,bnd->bd", e, ys.reshape(m, n, k)[rows], out=part[rows])
        keep = _flushed_exp(top - shift)  # moves the earlier sums onto the new max
        top = new
        total, sq = total * keep + tile_sum, sq * keep * keep + tile_sq
        xsum = xsum * keep[:, None] + part
    if not np.all(top > -np.inf):
        raise AccuracyError(_VANISHED)
    xsum /= total[:, None]
    ess, max_w = total * total / sq, 1.0 / total
    return xsum.reshape(lead + (k,)), ess.reshape(lead), max_w.reshape(lead)


def _row_set_tiles(params: Potential, t, x, points, *fixed):
    """Tiles (log_w, points) of x (..., d) against a row set, points (N, k)
    or one (..., N, k) block per x, at most _COL_TILE rows each: one
    log_kernel_ratio call on the first d columns, the others ride along to
    the contraction, plus the fixed per-row terms, (N,) or (..., N), in order."""
    for lo in range(0, points.shape[-2], _COL_TILE):
        tile = points[..., lo : lo + _COL_TILE, :]
        log_w = log_kernel_ratio(params, t, x[..., None, :], tile[..., : params.dim])
        for c in fixed:
            log_w += c[..., lo : lo + _COL_TILE]
        yield log_w, tile


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


def _product_grid(grid: QuadratureGrid, d: int):
    """Points (n^d, d + 1) of the product grid in d = 1 or 2 dimensions, the
    nodes and their boundary indicator, and the log Simpson weights."""
    if d not in (1, 2):
        raise InputError(f"quadrature reference supports dim 1 or 2, got {d}")
    axis = np.linspace(grid.lo, grid.hi, grid.n)
    s1 = np.ones(grid.n)
    s1[1:-1:2] = 4.0
    s1[2:-1:2] = 2.0
    s1 *= (grid.hi - grid.lo) / (grid.n - 1) / 3.0
    nodes = np.stack([a.ravel() for a in np.meshgrid(*[axis] * d, indexing="ij")], 1)
    edge = np.any((nodes == grid.lo) | (nodes == grid.hi), axis=1)
    log_s = np.log(reduce(np.multiply.outer, [s1] * d)).ravel()
    return np.column_stack([nodes, edge]), log_s


class UhisControlEvaluator:
    """Importance-sampled drift for an energy target (scalar or matrix potential)."""

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
        params, cfg, energy = self.params, self.cfg, self.energy
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
            fixed = 0.5 * _dot(ys, ys), -np.asarray(energy.value(ys), dtype=float)
            xhat, ess, max_w = _weighted_state(_row_set_tiles(params, t, x, ys, *fixed))
        elif x.ndim == 2 and xi.ndim == 2 and panel_fn is not None:
            # a shared panel never materializes (B, N, d): y = mean + scale * row
            scale, panel = probe.spread(xi)
            log_w = np.asarray(panel_fn(probe.mean, scale, panel), dtype=float)
            xbar, ess, max_w = _weighted_state([(log_w, panel)])
            xhat = probe.mean + scale * xbar
        else:
            ys = probe.draw(xi)
            log_w = -np.asarray(energy.value(ys), dtype=float)
            xhat, ess, max_w = _weighted_state([(log_w, ys)])
        return _drift_output(params, t, x, xhat, ess, max_w)


class EmpiricalControlEvaluator:
    """Optimal drift when the target is the empirical measure of samples.

    Softmax over the kernel log-ratio at each stored sample; exact (no
    Monte Carlo error) given the sample set, and deterministic.
    """

    def __init__(self, params: Potential, target: EmpiricalTarget):
        if target.dim != params.dim:
            raise InputError(
                f"target dimension {target.dim} does not match params.dim {params.dim}"
            )
        self.params = params
        self.target = target

    def noise_shape(self, dim: int):
        return None

    def __call__(self, t, x, xi=None) -> ControlOutput:
        _validate_t(t, 0.0, 1.0, True, False)
        x = _as_points(self.params, "x", x)
        tiles = _row_set_tiles(self.params, t, x, self.target.samples)
        xhat, ess, max_w = _weighted_state(tiles)
        return _drift_output(self.params, t, x, xhat, ess, max_w)


class QuadratureControlEvaluator:
    """Deterministic reference drift by grid integration (d <= 2).

    The grid and its node term log Simpson - E are built once, here; a call
    weighs its batch against the nodes as one row set, whose contracted
    edge indicator gives the weight on the grid boundary."""

    def __init__(self, params: Potential, energy, grid: QuadratureGrid | None = None):
        self.params = params
        self.energy = energy
        self.grid = grid if grid is not None else QuadratureGrid()
        self._points, self._node_term = _product_grid(self.grid, params.dim)
        for lo in range(0, len(self._points), _COL_TILE):
            tile = self._points[lo : lo + _COL_TILE, : params.dim]
            self._node_term[lo : lo + _COL_TILE] -= energy.value(tile)

    def noise_shape(self, dim: int):
        return None

    def __call__(self, t, x, xi=None) -> ControlOutput:
        x = _as_points(self.params, "x", x)
        tiles = _row_set_tiles(self.params, t, x, self._points, self._node_term)
        xhat, ess, max_w = _weighted_state(tiles)
        if np.any(xhat[..., -1] > _BOUNDARY_MASS_TOL):
            raise AccuracyError(
                "integrand mass at the grid boundary exceeds "
                f"{_BOUNDARY_MASS_TOL:g} of the total; enlarge "
                f"[{self.grid.lo}, {self.grid.hi}]"
            )
        return _drift_output(self.params, t, x, xhat[..., :-1], ess, max_w)


class FunctionControlEvaluator:
    """Wrap a plain drift function u(t, x). It has no weights, so each point
    reports a NaN weighted state and the ESS and max weight of one sure draw."""

    def __init__(self, fn):
        self.fn = fn

    def noise_shape(self, dim: int):
        return None

    def __call__(self, t, x, xi=None) -> ControlOutput:
        x = np.asarray(x, dtype=float)
        u = np.asarray(self.fn(t, x), dtype=float)
        one = _ret(np.ones(x.shape[:-1]))
        return ControlOutput(u, np.full(x.shape, np.nan), one, one)
