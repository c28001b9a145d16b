"""Built-in target energies, dataset IO, and exact target-side oracles.

Energy convention: targets are specified by E with density proportional
to exp(-E); any normalization constant is absorbed into E and cancels in
the self-normalized weights. For the Gaussian mixture the convention is

    E(y) = -log sum_k w_k exp(-|y - mu_k|^2 / (2 sigma2)),

so its partition function is Z = (sum_k w_k) (2 pi sigma2)^(d/2).

All energies evaluate batched: value maps (..., d) -> (...,). They are
immutable after construction and safe for concurrent evaluation.
"""

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .control import EmpiricalTarget
from .errors import AccuracyError, FormatError, InputError
from .kernels import _KERNEL_TILE, _row_tiles, _rows_matmul

DATASET_MAGIC = b"HPID"
DATASET_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")  # magic, version, count, dim


class Energy:
    """Target energy interface: exp(-E) is the unnormalized density.

    An energy needs only value. Energies whose algebra factorizes over an
    affine panel may also implement

        panel_logw(means, scale, panel) -> (B, N)

    equal to -E(means[i] + scale * panel[n]) up to an additive per-row
    constant, with means (B, d), scalar scale > 0, panel (N, d). The
    self-normalized drift estimate uses it, when present, to avoid
    materializing the (B, N, d) sample block: it is called once per
    integrator step for the whole batch, and must return a new writable
    array, which the caller turns into the weights in place. Row i must
    depend on means[i] alone, bitwise, so every product over the rows of
    means is formed with kernels._rows_matmul, never a plain matmul. The
    built-in energies allocate only the (B, N) result and build it in
    place, one tile of kernels._KERNEL_TILE rows at a time; the tile
    changes no bit.
    """

    dim: int

    def value(self, y):
        raise NotImplementedError


def _panel_quadratic(out, rows, panel_t, s, ssq, sigma2):
    """out = -(2 s rows @ panel_t + ssq) / (2 sigma2), formed in place;
    panel_t is the C-contiguous (d, N) transpose of the panel."""
    _rows_matmul(rows, panel_t, out=out)
    out *= 2.0 * s
    out += ssq
    np.negative(out, out=out)
    out /= 2.0 * sigma2


class GaussianEnergy(Energy):
    """E(y) = |y - mean|^2 / (2 sigma2); target N(mean, sigma2 I)."""

    def __init__(self, dim: int, sigma2: float = 1.0, mean=0.0):
        if dim < 1:
            raise InputError(f"dim must be >= 1, got {dim}")
        if not (np.isfinite(sigma2) and sigma2 > 0):
            raise InputError(f"sigma2 must be positive, got {sigma2}")
        self.dim = int(dim)
        self.sigma2 = float(sigma2)
        self.mean = np.broadcast_to(np.asarray(mean, dtype=float), (self.dim,)).copy()

    def value(self, y):
        diff = np.asarray(y, dtype=float) - self.mean
        return np.einsum("...i,...i->...", diff, diff) / (2.0 * self.sigma2)

    def panel_logw(self, means, scale, panel):
        # -E(m + s xi) = const(m) - (2 s (m - mu).xi + s^2 |xi|^2) / (2 sigma2)
        dm = np.asarray(means, dtype=float) - self.mean
        panel = np.asarray(panel, dtype=float)
        s = float(scale)
        ssq = s * s * np.einsum("ni,ni->n", panel, panel)
        panel_t = np.ascontiguousarray(panel.T)
        out = np.empty((dm.shape[0], panel.shape[0]))
        for rows in _row_tiles(dm.shape[0]):
            _panel_quadratic(out[rows], dm[rows], panel_t, s, ssq, self.sigma2)
        return out


class DoubleWellEnergy(Energy):
    """E(y) = stiffness * sum_i (y_i^2 - 1)^2; wells at every corner of {-1,1}^d."""

    def __init__(self, dim: int, stiffness: float = 1.0):
        if dim < 1:
            raise InputError(f"dim must be >= 1, got {dim}")
        if not (np.isfinite(stiffness) and stiffness > 0):
            raise InputError(f"stiffness must be positive, got {stiffness}")
        self.dim = int(dim)
        self.stiffness = float(stiffness)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return self.stiffness * ((y * y - 1.0) ** 2).sum(axis=-1)


@dataclass(frozen=True)
class GaussianMixtureEnergy(Energy):
    """Isotropic Gaussian mixture with shared variance."""

    centers: np.ndarray  # (M, d)
    sigma2: float
    weights: np.ndarray  # (M,), nonnegative, sums to 1
    dim: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        if c.ndim != 2 or c.shape[0] < 1:
            raise InputError(f"centers must be a nonempty (M, d) array, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise InputError("centers contain non-finite values")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise InputError(f"sigma2 must be positive, got {self.sigma2}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (c.shape[0],):
            raise InputError(
                f"weights must have shape ({c.shape[0]},), got {w.shape}"
            )
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise InputError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "dim", int(c.shape[1]))

    def _sq_dists(self, y):
        # |y|^2 - 2 y.mu + |mu|^2
        y = np.asarray(y, dtype=float)
        yy = np.einsum("...i,...i->...", y, y)
        cc = np.einsum("mi,mi->m", self.centers, self.centers)
        return yy[..., None] - 2.0 * _rows_matmul(y, self.centers.T) + cc

    def _log_resp(self, y):
        a = -self._sq_dists(y) / (2.0 * self.sigma2)
        with np.errstate(divide="ignore"):  # zero weights are legal
            a = a + np.log(self.weights)
        return a

    def value(self, y):
        return -logsumexp(self._log_resp(y), axis=-1)

    def panel_logw(self, means, scale, panel):
        # -E(y) = -|y|^2/(2 s2) + logsumexp_j[log w_j + (y.c_j - |c_j|^2/2)/s2];
        # with y = m_i + s xi_n the j-sum splits into a rank-M product, so the
        # whole (B, N) block is two small GEMMs plus one elementwise log, each
        # row tile formed in place as ((q + ash) + bsh) + log r.
        means = np.asarray(means, dtype=float)
        panel = np.asarray(panel, dtype=float)
        s = float(scale)
        s2 = self.sigma2
        c = self.centers
        cc = np.einsum("mi,mi->m", c, c)
        mc = _rows_matmul(means, c.T)
        with np.errstate(divide="ignore"):  # zero weights are legal
            amat = np.log(self.weights) + (mc - 0.5 * cc) / s2
        bmat = (s / s2) * (panel @ c.T)
        ash = amat.max(axis=1)
        bsh = bmat.max(axis=1)
        ea = np.exp(amat - ash[:, None])
        ebt = np.ascontiguousarray(np.exp(bmat - bsh[:, None]).T)
        ssq = s * s * np.einsum("ni,ni->n", panel, panel)
        panel_t = np.ascontiguousarray(panel.T)
        out = np.empty((means.shape[0], panel.shape[0]))
        r = np.empty((min(_KERNEL_TILE, means.shape[0]), panel.shape[0]))
        for rows in _row_tiles(means.shape[0]):
            q = out[rows]
            _panel_quadratic(q, means[rows], panel_t, s, ssq, s2)
            q += ash[rows, None]
            q += bsh
            rt = _rows_matmul(ea[rows], ebt, out=r[: len(q)])
            with np.errstate(divide="ignore"):  # underflown products drop out
                np.log(rt, out=rt)
            q += rt
        return out


def grid_mixture(
    side: int = 3, spacing: float = 5.0, sigma2: float = 0.5, dim: int = 2
) -> GaussianMixtureEnergy:
    """side x side grid of equal-weight components centered at the origin.

    Defaults give the reference experiment: 3x3 grid, spacing 5,
    sigma2 = 0.5 in two dimensions.
    """
    if dim != 2:
        raise InputError(f"grid mixture is two-dimensional, got dim={dim}")
    if side < 1:
        raise InputError(f"side must be >= 1, got {side}")
    axis = (np.arange(side) - (side - 1) / 2.0) * spacing
    ga, gb = np.meshgrid(axis, axis, indexing="ij")
    centers = np.stack([ga.ravel(), gb.ravel()], axis=1)
    m = side * side
    return GaussianMixtureEnergy(
        centers=centers, sigma2=sigma2, weights=np.full(m, 1.0 / m)
    )


def mixture_partition_oracle(m: GaussianMixtureEnergy, verify: bool = False) -> float:
    """Analytic Z = (sum w) (2 pi sigma2)^(d/2) for the mixture convention.

    verify=True cross-checks against adaptive quadrature (d <= 2) to 1e-8
    relative before the value is used as a reference.
    """
    z = float(m.weights.sum() * (2.0 * np.pi * m.sigma2) ** (m.dim / 2.0))
    if not verify:
        return z
    if m.dim > 2:
        raise InputError("quadrature verification supports dim 1 or 2")
    from scipy import integrate as sint

    pad = 14.0 * np.sqrt(m.sigma2)
    lo = float(m.centers.min()) - pad
    hi = float(m.centers.max()) + pad
    if m.dim == 1:
        zq, _ = sint.quad(
            lambda a: np.exp(-m.value(np.array([a]))),
            lo,
            hi,
            epsabs=1e-12,
            epsrel=1e-10,
            limit=400,
        )
    else:
        zq, _ = sint.dblquad(
            lambda b, a: np.exp(-m.value(np.array([a, b]))),
            lo,
            hi,
            lo,
            hi,
            epsabs=1e-12,
            epsrel=1e-10,
        )
    if abs(zq - z) > 1e-8 * abs(z):
        raise AccuracyError(
            f"analytic partition {z!r} disagrees with quadrature {zq!r}"
        )
    return z


def assign_modes(m: GaussianMixtureEnergy, samples) -> np.ndarray:
    """Index of the nearest mixture center for each sample row."""
    s = np.asarray(samples, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if s.shape[-1] != m.dim:
        raise InputError(
            f"samples must have trailing dimension {m.dim}, got {s.shape}"
        )
    return np.argmin(m._sq_dists(s), axis=-1)


def save_dataset(path: str, samples) -> None:
    """Write sample rows; binary container or CSV chosen by extension."""
    s = np.asarray(samples, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if s.ndim != 2 or s.shape[0] < 1:
        raise InputError(f"samples must be a nonempty (S, d) array, got {s.shape}")
    if str(path).lower().endswith(".csv"):
        np.savetxt(path, s, delimiter=",")
        return
    with open(path, "wb") as f:
        f.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, s.shape[0], s.shape[1]))
        f.write(np.ascontiguousarray(s, dtype="<f8").tobytes())


def _load_csv(path: str) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            toks = line.split(",")
            try:
                vals = [float(tok) for tok in toks]
            except ValueError:
                raise FormatError(f"{path}: row {lineno} is not numeric") from None
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise FormatError(
                    f"{path}: row {lineno} has {len(vals)} values, expected {width}"
                )
            rows.append(vals)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def load_dataset(path: str) -> EmpiricalTarget:
    """Read a sample container written by save_dataset (binary or CSV)."""
    if str(path).lower().endswith(".csv"):
        return EmpiricalTarget(samples=_load_csv(path))
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(
                f"{path}: truncated header, {len(head)} bytes at byte 0"
            )
        magic, version, count, dim = _HEADER.unpack(head)
        if magic != DATASET_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
        if version != DATASET_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at byte 4")
        if count < 1 or dim < 1:
            raise FormatError(
                f"{path}: invalid count={count} dim={dim} at byte 8"
            )
        payload = f.read()
        expected = count * dim * 8
        if len(payload) != expected:
            raise FormatError(
                f"{path}: expected {expected} payload bytes at byte {_HEADER.size}, "
                f"found {len(payload)}"
            )
    data = np.frombuffer(payload, dtype="<f8").reshape(count, dim)
    return EmpiricalTarget(samples=np.array(data, dtype=float))
