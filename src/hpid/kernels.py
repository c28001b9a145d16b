"""Closed-form Gaussian kernels for the quadratic potential V(x) = x^T B x / 2
on the unit time interval.

Two fundamental solutions appear everywhere downstream:

* G_minus(t; x; y): evolves backward from a delta function at time 1,
  so it couples the state x at time t to a terminal point y.
* G_plus(t; x; y): evolves forward from a delta function at time 0.

Both are Gaussians in (x, y), the imaginary-time kernel of a harmonic
oscillator. A symmetric positive semi-definite B decouples in its
eigenbasis into independent oscillators, one per eigenvalue, so every
operation here is written once, per eigen-axis. `ScalarBeta` (B = beta I)
is the isotropic case: its basis is the identity and its per-axis
coefficients are 0-d, which keeps the isotropic expressions (and their
bits) exactly. `MatrixBeta` carries the spectral form of a general B; all
matrix functions (sqrt, sinh, ctnh, log det) are computed spectrally,
never by series. Every coefficient is one formula in z = tau sqrt(lambda),
written through log(sinh z / z) and z ctnh z, which are finite at z = 0:
a flat axis (lambda = 0) is the free heat kernel as the exact z -> 0
value of the same expressions, not a separate path.

All values are computed and consumed in log domain; exponentiation only
happens inside downstream log-sum-exp reductions. Quadratic forms reach
~1e4 for d in the thousands, far past float64's exponent range.
"""

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import DomainError, InputError

_LOG_2PI = float(np.log(2.0 * np.pi))
_TINY = float(np.finfo(float).tiny)

_ROW_TILE = 16  # rows per GEMM in _rows_matmul
# rows per tile of the (B, N) weight kernels; a multiple of _ROW_TILE, so a
# tile's GEMMs see the same 16-row groups the whole block would
_KERNEL_TILE = 4 * _ROW_TILE
_COL_TILE = 4096  # rows of a fixed row set per column tile of those kernels

_EIG_REJECT = -1e-8  # eigenvalues below this reject the matrix
_SYM_TOL = 1e-10


def _rows_matmul(a, b, out=None):
    """a @ b for a of shape (..., k) and b (k, n), one GEMM per 16-row tile.

    BLAS rounds a row differently depending on how many rows its product
    has, so a plain a @ b can change a trajectory's bits with the batch
    split. Every GEMM here sees exactly _ROW_TILE rows (full tiles as one
    stacked matmul, the last partial tile zero-padded), so each result row
    depends bitwise on its own row of a and on b alone. b is made
    C-contiguous first (free when it already is): with a transposed b,
    BLAS rounds some rows differently by their place in the tile. Every
    product over trajectory rows goes through here. out, if given, is a
    C-contiguous (rows of a, n) array that receives the result.
    """
    a = np.asarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    k, n = b.shape
    flat = a.reshape(-1, k)
    m = flat.shape[0]
    full = m - m % _ROW_TILE
    if out is None:
        out = np.empty((m, n))
    if full:
        tiles = flat[:full].reshape(-1, _ROW_TILE, k)
        np.matmul(tiles, b, out=out[:full].reshape(-1, _ROW_TILE, n))
    if full < m:
        tail = np.zeros((_ROW_TILE, k))
        tail[: m - full] = flat[full:]
        out[full:] = (tail @ b)[: m - full]
    return out.reshape(a.shape[:-1] + (n,))


def _row_tiles(m):
    """Consecutive slices of at most _KERNEL_TILE rows covering range(m)."""
    return [slice(lo, min(lo + _KERNEL_TILE, m)) for lo in range(0, m, _KERNEL_TILE)]


@dataclass(frozen=True)
class ScalarBeta:
    """Isotropic potential strength beta (units 1/time^2) and dimension."""

    beta: float
    dim: int

    def __post_init__(self):
        if not np.isfinite(self.beta) or self.beta < 0:
            raise InputError(f"beta must be finite and >= 0, got {self.beta}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise InputError(f"dim must be a positive integer, got {self.dim}")

    @property
    def eigvals(self) -> float:
        """The one eigenvalue shared by every axis."""
        return self.beta

    def to_eigenbasis(self, v):
        return v

    def from_eigenbasis(self, v):
        return v


@dataclass(frozen=True)
class MatrixBeta:
    """Spectral form of a symmetric PSD potential matrix."""

    eigvals: np.ndarray  # (d,), nonnegative, ascending
    eigvecs: np.ndarray  # (d, d), columns are eigenvectors

    @property
    def dim(self) -> int:
        return int(self.eigvals.shape[0])

    def to_eigenbasis(self, v):
        """Coordinates of v (..., d) in the eigenbasis."""
        return _rows_matmul(v, self.eigvecs)

    def from_eigenbasis(self, v):
        return _rows_matmul(v, self.eigvecs.T)


# the potential interface every kernel-level operation is written against
Potential = ScalarBeta | MatrixBeta


def decompose(beta_matrix) -> MatrixBeta:
    """Spectral decomposition of a symmetric PSD matrix.

    Rejects asymmetric input and any eigenvalue below -1e-8 (relative to
    the largest entry, if that exceeds 1); negative rounding noise above it
    is clamped to zero. Small positive eigenvalues are kept as they are.
    """
    m = np.asarray(beta_matrix, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"potential matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("potential matrix contains non-finite values")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > _SYM_TOL * scale:
        raise InputError("potential matrix is not symmetric")
    m = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < _EIG_REJECT * scale:
        raise DomainError(
            f"potential matrix has negative eigenvalue {vals.min():.3e}; "
            "it must be positive semi-definite"
        )
    vals = np.maximum(vals, 0.0)
    return MatrixBeta(eigvals=vals, eigvecs=vecs)


def _log_sinhc(z):
    """log(sinh(z) / z) = z + log((1 - e^(-2z)) / (2z)) for z >= 0, without
    overflow. The ratio is exactly 1 below the smallest normal double, so
    raising z to that is the one z = 0 guard, and the result is 0 there."""
    z = np.asarray(z, dtype=float)
    zt = np.maximum(z, _TINY)
    return z + np.log(-np.expm1(-2.0 * zt) / (2.0 * zt))


def _z_ctnh(z):
    """z ctnh(z) elementwise for z >= 0, which is 1 at z = 0 (and, in
    float64, below the smallest normal double: the one z = 0 guard)."""
    zt = np.maximum(np.asarray(z, dtype=float), _TINY)
    return zt / np.tanh(zt)


def _abc(beta, tau):
    """Coefficients of a horizon-tau Gaussian kernel, elementwise in beta.

    Returns (A, B, logC) with A = sqrt(beta) ctnh(tau sqrt(beta)),
    B = sqrt(beta)/sinh(tau sqrt(beta)), and per-dimension normalizer
    logC = log(2 pi sinh(tau sqrt(beta))/sqrt(beta))/2, all written in
    z = tau sqrt(beta). At beta = 0 they are the heat kernel's A = B =
    1/tau, logC = log(2 pi tau)/2.
    """
    z = tau * np.sqrt(np.asarray(beta, dtype=float))
    ls = _log_sinhc(z)
    return _z_ctnh(z) / tau, np.exp(-ls) / tau, 0.5 * (_LOG_2PI + np.log(tau) + ls)


def _h_probe(beta, t):
    """Precision of the y-quadratic in log(G_minus/G_plus(1)), elementwise.

    Equal to sqrt(beta)(ctnh((1-t)sqrt(beta)) - ctnh(sqrt(beta))), but
    computed through the identity ctnh(a) - ctnh(b) =
    sinh(b-a)/(sinh(a) sinh(b)), which has no cancellation:
    h = sqrt(beta) sinh(t sqrt(beta)) / (sinh((1-t)sqrt(beta)) sinh(sqrt(beta))),
    that is t/(1-t) times a ratio of sinh(z)/z factors, 1 at beta = 0.
    """
    rb = np.sqrt(np.asarray(beta, dtype=float))
    ls = _log_sinhc(t * rb) - _log_sinhc((1.0 - t) * rb) - _log_sinhc(rb)
    return t / (1.0 - t) * np.exp(ls)


def _validate_t(t, lo, hi, lo_closed, hi_closed):
    if not np.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    ok_lo = t >= lo if lo_closed else t > lo
    ok_hi = t <= hi if hi_closed else t < hi
    if not (ok_lo and ok_hi):
        lob = "[" if lo_closed else "("
        hib = "]" if hi_closed else ")"
        raise DomainError(f"t must lie in {lob}{lo}, {hi}{hib}, got {t}")


def _as_points(params, name, v):
    """Validate a point array of shape (..., dim); a bare scalar is accepted
    for dim = 1."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape[-1] != params.dim:
        raise InputError(
            f"{name} must have trailing dimension {params.dim}, got shape {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise InputError(f"{name} contains non-finite values")
    return v


def _dot(x, y):
    return np.einsum("...i,...i->...", x, y)


def _wsum(w, *pairs):
    """sum_i w_i sum_(u, v) u_i v_i over the trailing (eigen-)axis.

    A 0-d w is isotropic and keeps the form w * sum(u . v), so scalar-beta
    results are bitwise those of the plain isotropic expressions.
    """
    if np.ndim(w) == 0:
        return w * reduce(add, (_dot(u, v) for u, v in pairs))
    return reduce(add, (np.einsum("i,...i,...i->...", w, u, v) for u, v in pairs))


def _axes_sum(c, dim):
    """sum_i c_i over the axes; a 0-d c stands for dim equal entries."""
    return dim * c if np.ndim(c) == 0 else c.sum()


def _ret(a):
    a = np.asarray(a)
    return float(a) if a.ndim == 0 else a


def _log_g(params: Potential, tau, x, y):
    """Shared quadratic form: both kernels differ only in the horizon tau."""
    x = params.to_eigenbasis(_as_points(params, "x", x))
    y = params.to_eigenbasis(_as_points(params, "y", y))
    a, b, log_c = _abc(params.eigvals, tau)
    out = (
        -0.5 * _wsum(a, (x, x), (y, y))
        + _wsum(b, (x, y))
        - _axes_sum(log_c, params.dim)
    )
    return _ret(out)


def _harmonic_step(params: Potential, dt: float):
    """f(x, y) = log G^beta_dt(x; y) - log G^0_dt(x; y) per row of (..., d): the
    exact factor from a free one-step transition to the harmonic one. x and
    y are given in the eigenbasis (params.to_eigenbasis), so a path rotates
    each of its states once. At beta = 0 both coefficient sets are
    identical and f is exactly zero."""
    a, b, log_c = _abc(params.eigvals, dt)
    a0, b0, log_c0 = _abc(0.0, dt)
    da, db = a - a0, b - b0
    dlc = _axes_sum(log_c - log_c0, params.dim)

    def factor(x, y):
        return -0.5 * _wsum(da, (x, x), (y, y)) + _wsum(db, (x, y)) - dlc

    return factor


def log_g_minus(params: Potential, t: float, x, y):
    """log G_minus(t; x; y) for t in [0, 1).

    For beta = 0 this is the log density of N(y | x, (1-t) I). x and y may
    carry leading batch axes; shapes broadcast against each other.
    """
    _validate_t(t, 0.0, 1.0, True, False)
    return _log_g(params, 1.0 - t, x, y)


def log_g_plus(params: Potential, t: float, x, y):
    """log G_plus(t; x; y) for t in (0, 1].

    For beta = 0 this is the log density of N(x | y, t I). Symmetric in
    (x, y).
    """
    _validate_t(t, 0.0, 1.0, False, True)
    return _log_g(params, t, x, y)


def log_kernel_ratio(params: Potential, t: float, x, y):
    """log[ G_minus(t; x; y) / G_plus(1; y; 0) ] for t in [0, 1).

    Evaluated from the combined closed form, never as a difference of two
    separately exponentiated kernels. As a function of y this is a concave
    quadratic with per-axis precision `_h_probe(eigval, t)`; the
    y-independent part is -A_minus |x|^2 / 2 plus a normalizer ratio.

    x of shape (..., 1, d) against one (N, d) row set y is the (..., N)
    block of a dataset or a shared panel, whole, as one GEMM per 16-row
    tile (`_rows_matmul`) of augmented operands: [B_minus x, 1, x-only
    term] (..., d + 2) against [y^T; -h |y|^2 / 2; 1] (d + 2, N), the
    latter built once per call in C order. Each row's bits then depend on
    its own x and on y alone. Other shapes broadcast elementwise.
    """
    _validate_t(t, 0.0, 1.0, True, False)
    x = params.to_eigenbasis(_as_points(params, "x", x))
    y = params.to_eigenbasis(_as_points(params, "y", y))
    am, bm, lcm = _abc(params.eigvals, 1.0 - t)
    _, _, lc1 = _abc(params.eigvals, 1.0)
    h = _h_probe(params.eigvals, t)  # equals am - a1, computed stably
    if x.ndim >= 2 and x.shape[-2] == 1 and y.ndim == 2:
        d = params.dim
        left = np.empty(x.shape[:-2] + (d + 2,))
        left[..., :d] = bm * x[..., 0, :]
        left[..., d] = 1.0
        left[..., d + 1] = -0.5 * _wsum(am, (x, x))[..., 0] + _axes_sum(lc1 - lcm, d)
        right = np.empty((d + 2, y.shape[0]))
        right[:d] = y.T
        right[d] = -0.5 * _wsum(h, (y, y))
        right[d + 1] = 1.0
        return _rows_matmul(left, right)
    out = (
        -0.5 * _wsum(am, (x, x))
        - 0.5 * _wsum(h, (y, y))
        + _wsum(bm, (x, y))
        + _axes_sum(lc1 - lcm, params.dim)
    )
    return _ret(out)


def drift_prefactors(params: Potential, t: float):
    """(c1, c2) such that the optimal drift is c1 (xhat - c2 x) per eigen-axis.

    c1 = sqrt(lambda)/sinh((1-t)sqrt(lambda)), c2 = cosh((1-t)sqrt(lambda));
    at lambda = 0 they are (1/(1-t), 1). Note c1 c2 = A_minus. Floats for a
    scalar beta, (d,) arrays in the eigenbasis for a matrix beta.
    """
    _validate_t(t, 0.0, 1.0, True, False)
    lam = np.asarray(params.eigvals, dtype=float)
    _, b, _ = _abc(lam, 1.0 - t)
    return _ret(b), _ret(np.cosh((1.0 - t) * np.sqrt(lam)))

