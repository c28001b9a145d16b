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
never by series. An axis with eigenvalue below 1e-12 takes a distinct
exact heat-kernel path rather than a limit of the hyperbolic
expressions, which would divide 0 by 0.

All values are computed and consumed in log domain; exponentiation only
happens inside downstream log-sum-exp reductions. Quadratic forms reach
~1e4 for d in the thousands, far past float64's exponent range.
"""

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import DomainError, InputError

# below this, beta is treated as exactly zero
BETA_ZERO_TOL = 1e-12

_LOG_2 = float(np.log(2.0))
_LOG_2PI = float(np.log(2.0 * np.pi))

_ROW_TILE = 16  # rows per GEMM in _rows_matmul
# rows per tile of the (B, N) weight kernels; a multiple of _ROW_TILE, so a
# tile's GEMMs see the same 16-row groups the whole block would
_KERNEL_TILE = 4 * _ROW_TILE

_EIG_CLAMP = 1e-12  # eigenvalues above -this are clamped to zero
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

    Rejects asymmetric input and any eigenvalue below -1e-8; eigenvalues in
    (-1e-12, 0) are clamped to zero so that numerically flat axes use the
    exact heat-kernel path.
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
    vals = np.where(vals < _EIG_CLAMP, 0.0, vals)
    return MatrixBeta(eigvals=vals, eigvecs=vecs)


def _log_sinh(a):
    """log(sinh(a)) for a > 0 without overflow: a + log(1 - e^(-2a)) - log 2."""
    a = np.asarray(a, dtype=float)
    return a + np.log(-np.expm1(-2.0 * a)) - _LOG_2


def _abc(beta, tau):
    """Coefficients of a horizon-tau Gaussian kernel, elementwise in beta.

    Returns (A, B, logC) with A = sqrt(beta) ctnh(tau sqrt(beta)),
    B = sqrt(beta)/sinh(tau sqrt(beta)), and per-dimension normalizer
    logC = log(2 pi sinh(tau sqrt(beta))/sqrt(beta))/2. Entries with
    beta < BETA_ZERO_TOL use the exact heat-kernel limit A = B = 1/tau,
    logC = log(2 pi tau)/2.
    """
    beta = np.asarray(beta, dtype=float)
    small = beta < BETA_ZERO_TOL
    rb = np.sqrt(np.where(small, 1.0, beta))
    arg = tau * rb
    ls = _log_sinh(np.where(small, 1.0, arg))
    a = np.where(small, 1.0 / tau, rb / np.tanh(arg))
    b = np.where(small, 1.0 / tau, rb * np.exp(-ls))
    log_c = np.where(
        small,
        0.5 * (_LOG_2PI + np.log(tau)),
        0.5 * (_LOG_2PI + ls - np.log(rb)),
    )
    return a, b, log_c


def _h_probe(beta, t):
    """Precision of the y-quadratic in log(G_minus/G_plus(1)), elementwise.

    Equal to sqrt(beta)(ctnh((1-t)sqrt(beta)) - ctnh(sqrt(beta))), but
    computed through the identity ctnh(a) - ctnh(b) =
    sinh(b-a)/(sinh(a) sinh(b)), which has no cancellation:
    h = sqrt(beta) sinh(t sqrt(beta)) / (sinh((1-t)sqrt(beta)) sinh(sqrt(beta))).
    The beta = 0 value is t/(1-t).
    """
    beta = np.asarray(beta, dtype=float)
    small = beta < BETA_ZERO_TOL
    rb = np.sqrt(np.where(small, 1.0, beta))
    if t == 0.0:
        return np.where(small, 0.0, 0.0) + 0.0
    log_h = (
        np.log(rb)
        + _log_sinh(np.where(small, 1.0, t * rb))
        - _log_sinh(np.where(small, 1.0, (1.0 - t) * rb))
        - _log_sinh(np.where(small, 1.0, rb))
    )
    return np.where(small, t / (1.0 - t), np.exp(log_h))


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
    """
    _validate_t(t, 0.0, 1.0, True, False)
    x = params.to_eigenbasis(_as_points(params, "x", x))
    y = params.to_eigenbasis(_as_points(params, "y", y))
    am, bm, lcm = _abc(params.eigvals, 1.0 - t)
    _, _, lc1 = _abc(params.eigvals, 1.0)
    h = _h_probe(params.eigvals, t)  # equals am - a1, computed stably
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
    the lambda = 0 limit is (1/(1-t), 1). Note c1 c2 = A_minus. Floats for a
    scalar beta, (d,) arrays in the eigenbasis for a matrix beta.
    """
    _validate_t(t, 0.0, 1.0, True, False)
    lam = np.asarray(params.eigvals, dtype=float)
    small = lam < BETA_ZERO_TOL
    _, b, _ = _abc(lam, 1.0 - t)
    c2 = np.where(small, 1.0, np.cosh((1.0 - t) * np.sqrt(np.where(small, 1.0, lam))))
    return _ret(b), _ret(c2)

