"""Counter-based random streams for reproducible parallel simulation.

Every random number in a run is addressed by (seed, step, purpose, row):
a Philox generator is keyed by (seed, step << 1 | purpose) and the row
index selects a fixed-width slice of its output stream. Workers that
process disjoint row ranges therefore produce bit-identical values to a
single worker, and trajectory i sees the same numbers no matter how many
trajectories run alongside it.

Normals are produced by inverse-CDF transform of uniforms because each
uniform consumes exactly one 64-bit draw; rejection-based normal samplers
consume a data-dependent count, which would break fixed-offset slicing.
The transform is scipy's `ndtri`, imported on the first draw rather than
with the package: a process that only reads results, parses a manifest
or prints --help never loads scipy. Where it is imported changes no bit.
"""

import numpy as np

from .errors import InputError

PURPOSE_INCREMENT = 0
PURPOSE_PROBE = 1

_U64 = 0xFFFFFFFFFFFFFFFF
# smallest uniform passed to ndtri: ndtri(2**-54) is -8.29 sigma, and the
# largest uniform, 1 - 2**-53, maps to +8.21 sigma
_U_FLOOR = 2.0 ** -54


def stream(seed: int, step: int, purpose: int) -> np.random.Generator:
    """Philox generator keyed by (seed, step, purpose)."""
    if purpose not in (PURPOSE_INCREMENT, PURPOSE_PROBE):
        raise InputError(f"unknown stream purpose {purpose}")
    # mask in python ints so negative seeds wrap instead of overflowing
    key = np.array(
        [seed & _U64, ((step << 1) | purpose) & _U64],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def normal_rows(
    seed: int,
    step: int,
    purpose: int,
    first_row: int,
    n_rows: int,
    row_width: int,
) -> np.ndarray:
    """Rows [first_row, first_row + n_rows) of the standard-normal table
    addressed by (seed, step, purpose), each row `row_width` wide.

    Any partition of the row range reproduces the same values, so the
    result is independent of how work is split across workers.
    """
    g = stream(seed, step, purpose)
    offset = first_row * row_width
    # Philox advance() counts 128-bit blocks, i.e. 4 doubles per unit
    blocks, rem = divmod(offset, 4)
    if blocks:
        g.bit_generator.advance(blocks)
    if rem:
        g.random(rem)
    return _normals(g.random(n_rows * row_width)).reshape(n_rows, row_width)


def normals_from(generator: np.random.Generator, shape) -> np.ndarray:
    """Standard normals drawn through the same inverse-CDF transform as
    `normal_rows`, for standalone (non-addressed) use."""
    return _normals(generator.random(int(np.prod(shape)))).reshape(shape)


def _normals(u: np.ndarray) -> np.ndarray:
    """Standard normals ndtri(u) of uniforms u in [0, 1), floored at _U_FLOOR."""
    from scipy.special import ndtri  # here, not at import: scipy loads slowly

    return ndtri(np.maximum(u, _U_FLOOR))
