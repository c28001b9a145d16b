"""Test-only energies and oracles shared by several test modules."""

import numpy as np
import pytest
from scipy.special import softmax

from hpid.targets import Energy


class OffsetEnergy(Energy):
    """base energy plus a constant; the sampler's output law is unchanged."""

    def __init__(self, base: Energy, offset: float):
        self.base = base
        self.offset = float(offset)
        self.dim = base.dim

    def value(self, y):
        return np.asarray(self.base.value(y), dtype=float) + self.offset


@pytest.fixture
def offset_energy():
    return OffsetEnergy


def _mixture_weighted_state(mixture, params, t, x):
    """Exact x̂ = E[y | x] for the isotropic Gaussian mixture, any dimension.

    In the potential's eigenbasis the kernel ratio is, as a function of y,
    exp(-h |y|^2 / 2 + b x . y) per axis, with b = sqrt(l) / sinh((1-t)
    sqrt(l)) and h = sqrt(l) (ctnh((1-t) sqrt(l)) - ctnh(sqrt(l))), l > 0 the
    axis eigenvalue. Times component j of exp(-E), a Gaussian of variance
    sigma2, it gives a Gaussian of precision P = 1/sigma2 + h and mean
    m_j = (c_j/sigma2 + b x)/P with log weight log w_j - |c_j|^2/(2 sigma2)
    + sum (c_j/sigma2 + b x)^2/(2P); x̂ is the weighted mean of the m_j.
    """
    lam = np.broadcast_to(np.asarray(params.eigvals, dtype=float), (params.dim,))
    r = np.sqrt(lam)
    b = r / np.sinh((1.0 - t) * r)
    h = r * (1.0 / np.tanh((1.0 - t) * r) - 1.0 / np.tanh(r))
    s2 = mixture.sigma2
    c = params.to_eigenbasis(mixture.centers)  # (M, d)
    lin = c / s2 + b * params.to_eigenbasis(x)[..., None, :]  # (..., M, d)
    prec = 1.0 / s2 + h
    log_pi = (
        np.log(mixture.weights)
        - np.einsum("md,md->m", c, c) / (2.0 * s2)
        + np.einsum("...md,...md->...m", lin, lin / prec) / 2.0
    )
    pi = softmax(log_pi, axis=-1)
    return params.from_eigenbasis(np.einsum("...m,...md->...d", pi, lin / prec))


@pytest.fixture
def mixture_weighted_state():
    return _mixture_weighted_state
