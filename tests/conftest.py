"""Test-only energies shared by several test modules."""

import numpy as np
import pytest

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
