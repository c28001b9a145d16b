import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from hpid.errors import HpidError
from hpid.rng import (
    PURPOSE_INCREMENT,
    PURPOSE_PROBE,
    normal_rows,
    normals_from,
    stream,
)


def test_stream_is_deterministic():
    a = stream(1, 5, PURPOSE_INCREMENT).random(8)
    b = stream(1, 5, PURPOSE_INCREMENT).random(8)
    assert_array_equal(a, b)


def test_streams_separate_by_step_and_purpose():
    base = stream(1, 5, PURPOSE_INCREMENT).random(8)
    assert not np.array_equal(base, stream(1, 6, PURPOSE_INCREMENT).random(8))
    assert not np.array_equal(base, stream(1, 5, PURPOSE_PROBE).random(8))
    assert not np.array_equal(base, stream(2, 5, PURPOSE_INCREMENT).random(8))


def test_unknown_purpose_rejected():
    with pytest.raises(ValueError):
        stream(0, 0, 2)


def test_unknown_purpose_is_a_package_error():
    with pytest.raises(HpidError):
        stream(0, 0, 2)


@given(
    split=st.integers(0, 16),
    width=st.integers(1, 7),
    seed=st.integers(0, 2**63 - 1),
)
def test_rows_are_partition_invariant(split, width, seed):
    # drawing [0, 16) in one call or as [0, split) + [split, 16) must agree,
    # so batch chunking cannot change a trajectory's noise
    whole = normal_rows(seed, 3, PURPOSE_INCREMENT, 0, 16, width)
    head = normal_rows(seed, 3, PURPOSE_INCREMENT, 0, split, width)
    tail = normal_rows(seed, 3, PURPOSE_INCREMENT, split, 16 - split, width)
    assert_array_equal(np.concatenate([head, tail]), whole)


def test_rows_shape_and_moments():
    block = normal_rows(0, 0, PURPOSE_INCREMENT, 0, 4000, 5)
    assert block.shape == (4000, 5)
    assert np.isfinite(block).all()
    assert abs(block.mean()) < 0.05
    assert abs(block.std() - 1.0) < 0.05


def test_normals_from_matches_row_draws():
    # both helpers invert the same uniforms
    a = normal_rows(9, 2, PURPOSE_PROBE, 0, 6, 3)
    b = normals_from(stream(9, 2, PURPOSE_PROBE), (6, 3))
    assert_array_equal(a, b)


def test_negative_seed_wraps_to_uint64():
    a = normal_rows(-1, 0, PURPOSE_INCREMENT, 0, 2, 2)
    b = normal_rows(2**64 - 1, 0, PURPOSE_INCREMENT, 0, 2, 2)
    assert_array_equal(a, b)
