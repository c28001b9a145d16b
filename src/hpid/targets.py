"""Built-in target energies, dataset IO, the run directory's file
formats, and exact target-side oracles.

The binary container (datasets, terminals.bin, trajectories.bin) is a
24-byte header (magic, version, row count, width), then the rows as
row-major little-endian float64.

Energy convention: targets are specified by E with density proportional
to exp(-E); any normalization constant is absorbed into E and cancels in
the self-normalized weights. For the Gaussian mixture the convention is

    E(y) = -log sum_k w_k exp(-|y - mu_k|^2 / (2 sigma2)),

so its partition function is Z = (sum_k w_k) (2 pi sigma2)^(d/2).

All energies evaluate batched: value maps (..., d) -> (...,). They are
immutable after construction and safe for concurrent evaluation. The
mixture's value at a point depends on that point alone, bitwise: it sums
squared distances one axis at a time and takes its own max-shifted
log-sum-exp over the components, so importing this module loads no scipy.
"""

import json
import os
import struct
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .control import EmpiricalTarget
from .errors import FormatError, InputError
from .kernels import _KERNEL_TILE, _row_tiles, _rows_matmul

DATASET_MAGIC = b"HPID"
DATASET_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")  # magic, version, count, width


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
    built-in energies drop the per-row constants and form the quadratic
    part, column terms included, as one GEMM of augmented operands; the
    mixture adds its log-sum over the centers one tile of
    kernels._KERNEL_TILE rows at a time, in place, and the tile changes no bit.
    """

    dim: int

    def value(self, y):
        raise NotImplementedError


def _augmented(dm, s, sigma2, panel, column=0.0):
    """left (B, d + 1) = [-(s / sigma2) dm, 1] and the C-contiguous right
    (d + 1, N) = [panel^T; column - s^2 |panel|^2 / (2 sigma2)]: left @ right
    is the panel's quadratic part with its column term."""
    left = np.hstack([dm * (-s / sigma2), np.ones((len(dm), 1))])
    sq = np.einsum("ni,ni->n", panel, panel) * (-s * s / (2.0 * sigma2)) + column
    return left, np.vstack([panel.T, sq])


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
        return _rows_matmul(*_augmented(dm, float(scale), self.sigma2, panel))


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
        # (..., M) summed one axis at a time: elementwise, so a point's
        # distances do not depend on the points beside it
        y = np.asarray(y, dtype=float)
        if y.ndim < 1 or y.shape[-1] != self.dim:
            raise InputError(f"points must have trailing dimension {self.dim}, got {y.shape}")
        sq = np.zeros(y.shape[:-1] + (len(self.centers),))
        for i, c in enumerate(self.centers.T):
            diff = y[..., i, None] - c
            sq += np.square(diff, out=diff)
        return sq

    def value(self, y):
        # -log sum_j exp(a_j), a_j = log w_j - |y - c_j|^2 / (2 sigma2), shifted
        # by the largest a_j; where every a_j is -inf (an infinite coordinate)
        # the shift is 0 and E is +inf, and a NaN coordinate gives NaN
        a = self._sq_dists(y)
        a *= -0.5 / self.sigma2
        with np.errstate(divide="ignore"):  # zero weights are legal; so is a zero sum
            a += np.log(self.weights)
            top = a.max(axis=-1)
            shift = np.where(np.isfinite(top), top, 0.0)
            a -= shift[..., None]
            return -(np.log(np.exp(a, out=a).sum(axis=-1)) + shift)

    def panel_logw(self, means, scale, panel):
        # -E(y) = -|y|^2/(2 s2) + logsumexp_j[log w_j + (y.c_j - |c_j|^2/2)/s2];
        # with y = m_i + s xi_n the j-sum is a_ij + b_nj, shifted by row and
        # column maxes. Without the row constants a row tile is one augmented
        # GEMM (its column term carries bsh) plus log of a rank-M product.
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
        bsh = bmat.max(axis=1)
        ea = np.exp(amat - amat.max(axis=1)[:, None])
        ebt = np.ascontiguousarray(np.exp(bmat - bsh[:, None]).T)
        left, right = _augmented(means, s, s2, panel, bsh)
        out = np.empty((means.shape[0], panel.shape[0]))
        r = np.empty((min(_KERNEL_TILE, means.shape[0]), panel.shape[0]))
        for rows in _row_tiles(means.shape[0]):
            q = _rows_matmul(left[rows], right, out=out[rows])
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


def mixture_partition_oracle(m: GaussianMixtureEnergy) -> float:
    """Analytic Z = (sum w) (2 pi sigma2)^(d/2) for the mixture convention."""
    return float(m.weights.sum() * (2.0 * np.pi * m.sigma2) ** (m.dim / 2.0))


def assign_modes(m: GaussianMixtureEnergy, samples) -> np.ndarray:
    """Index of the nearest mixture center for each sample row."""
    s = np.asarray(samples, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    return np.argmin(m._sq_dists(s), axis=-1)


def save_dataset(path: str, samples) -> None:
    """Write sample rows; binary container or CSV chosen by extension."""
    s = np.asarray(samples, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if s.ndim != 2 or s.shape[0] < 1:
        raise InputError(f"samples must be a nonempty (S, d) array, got {s.shape}")
    if str(path).lower().endswith(".csv"):
        _write_csv(path, "", ",".join(["%.18e"] * s.shape[1]), s)
        return
    _write_container(path, s.shape[0], s.shape[1], [s])


def _write_container(path: str, count: int, width: int, blocks) -> None:
    """The container of count rows, written from (rows, width) blocks with no copy."""
    with open(path, "wb") as f:
        f.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, count, width))
        for block in blocks:
            f.write(np.ascontiguousarray(block, dtype="<f8").data)


def _read_container(path: str) -> np.ndarray:
    """The (count, width) rows of a container as one array, values unchecked."""
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header, {len(head)} bytes at byte 0")
        magic, version, count, dim = _HEADER.unpack(head)
        if magic != DATASET_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
        if version != DATASET_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at byte 4")
        if count < 1 or dim < 1:
            raise FormatError(f"{path}: invalid count={count} dim={dim} at byte 8")
        found, expected = os.fstat(f.fileno()).st_size - _HEADER.size, count * dim * 8
        if found != expected:
            raise FormatError(
                f"{path}: expected {expected} payload bytes at byte {_HEADER.size}, "
                f"found {found}"
            )
        return np.fromfile(f, dtype="<f8", count=count * dim).reshape(count, dim)


def _write_trajectories(path: str, times, records: list) -> None:
    """trajectories.bin of the paths of records, a list of (states (P, R, d),
    weighted states (P, R, d), ESS (P, R)) at the shared times (R,): each
    path, in order, as R rows [t, x, x_hat, ESS] of width 2d + 2."""
    count, d = sum(len(ess) for _, _, ess in records), records[0][0].shape[2]
    blocks = (
        np.column_stack([times, x[j], x_hat[j], ess[j]])
        for x, x_hat, ess in records
        for j in range(len(ess))
    )
    _write_container(path, count * len(times), 2 * d + 2, blocks)


def _read_trajectories(path: str, dim: int, ids: list):
    """(times (R,), states (P, R, dim), weighted states (P, R, dim), ESS (P, R))
    of a trajectories.bin of P = len(ids) paths, each named in errors by its id."""
    table = _read_container(path)
    w = 2 * dim + 2
    if table.shape[1] != w:
        raise FormatError(f"{path}: expected {w} columns for dim {dim}, got {table.shape[1]}")
    if table.shape[0] % len(ids):
        raise FormatError(f"{path}: {table.shape[0]} rows do not split into {len(ids)} paths")
    table = table.reshape(len(ids), -1, w)
    t = table[:, :, 0]
    bad = np.flatnonzero((t != t[0]).any(axis=1))
    if bad.size:
        raise FormatError(f"{path}: t column of path {ids[bad[0]]} differs from path {ids[0]}'s")
    # contiguous copies, laid out as the in-memory record
    states = np.ascontiguousarray(table[:, :, 1 : dim + 1])
    weighted = np.ascontiguousarray(table[:, :, dim + 1 : w - 1])
    return t[0], states, weighted, table[:, :, w - 1]


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
    return EmpiricalTarget(samples=_read_container(path))


# The text formats: _write_json writes every JSON file, _write_csv every table.
_CSV_BLOCK = 4096  # rows per %: one for every table a run writes


def _finite_or_null(v):
    """v with every non-finite float, at any depth, as None: JSON has no
    nan, and null marks a value that is absent or was never reached."""
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_finite_or_null(x) for x in v]
    return None if isinstance(v, float) and not np.isfinite(v) else v


def _write_json(path: str, doc: dict) -> None:
    """doc as strict JSON, keys sorted and indented by 2."""
    with open(path, "w") as f:
        json.dump(_finite_or_null(doc), f, indent=2, sort_keys=True, allow_nan=False)


def _write_csv(path, header: str, row_format: str, rows) -> None:
    """rows (a 2-d array, or a list of tuples) as CSV text, to path or, when
    path is None, to standard output: the header line unless it is empty,
    then one row_format line per row. A single % formats each block of
    _CSV_BLOCK rows, so memory stays bounded for any row count."""
    rows = np.asarray(rows, dtype=object) if isinstance(rows, list) else rows
    line = row_format + "\n"
    with nullcontext(sys.stdout) if path is None else open(path, "w") as f:
        if header:
            f.write(header + "\n")
        for lo in range(0, len(rows), _CSV_BLOCK):
            block = rows[lo : lo + _CSV_BLOCK]
            f.write(line * len(block) % tuple(block.ravel().tolist()))
