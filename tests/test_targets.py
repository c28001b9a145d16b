import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from hpid.errors import FormatError, InputError
from hpid.targets import (
    DoubleWellEnergy,
    GaussianEnergy,
    GaussianMixtureEnergy,
    OffsetEnergy,
    assign_modes,
    grid_mixture,
    load_dataset,
    make_energy,
    mixture_partition_oracle,
    save_dataset,
)


def test_mixture_value_is_logsumexp_of_components():
    m = GaussianMixtureEnergy(
        centers=np.array([[2.0, 0.0], [-2.0, 1.0]]),
        sigma2=0.5,
        weights=np.array([0.3, 0.7]),
    )
    y = np.array([0.4, -0.6])
    comps = [
        np.log(w) - np.sum((y - c) ** 2) / (2 * 0.5)
        for w, c in zip(m.weights, m.centers)
    ]
    assert_allclose(m.value(y), -logsumexp(comps), rtol=1e-13)


def test_mixture_zero_weight_component_is_ignored():
    with_zero = GaussianMixtureEnergy(
        centers=np.array([[1.0], [50.0]]),
        sigma2=1.0,
        weights=np.array([1.0, 0.0]),
    )
    single = GaussianEnergy(dim=1, sigma2=1.0, mean=1.0)
    y = np.array([0.3])
    assert_allclose(with_zero.value(y), single.value(y), rtol=1e-12)


def test_mixture_validation():
    with pytest.raises(InputError):
        GaussianMixtureEnergy(
            centers=np.zeros((2, 1)), sigma2=1.0, weights=np.array([0.6, 0.6])
        )
    with pytest.raises(InputError):
        GaussianMixtureEnergy(
            centers=np.zeros((2, 1)), sigma2=-1.0, weights=np.array([0.5, 0.5])
        )
    with pytest.raises(InputError):
        GaussianMixtureEnergy(
            centers=np.zeros((2, 1)), sigma2=1.0, weights=np.array([1.5, -0.5])
        )


@pytest.mark.parametrize(
    "energy",
    [
        GaussianEnergy(dim=2, sigma2=0.4, mean=np.array([0.5, -0.2])),
        GaussianMixtureEnergy(
            centers=np.array([[1.5, 0.0], [-1.5, 1.0], [0.0, -1.0]]),
            sigma2=0.8,
            weights=np.array([0.2, 0.5, 0.3]),
        ),
    ],
)
def test_panel_logw_matches_direct_energy(energy):
    # panel_logw must equal -E(mean_i + scale * panel_n) up to a per-row
    # constant
    rng = np.random.default_rng(42)
    means = rng.normal(size=(4, 2))
    panel = rng.normal(size=(64, 2))
    scale = 0.73
    fast = energy.panel_logw(means, scale, panel)
    block = means[:, None, :] + scale * panel[None, :, :]
    direct = -np.asarray(energy.value(block), dtype=float)
    diff = fast - direct
    spread = diff.max(axis=1) - diff.min(axis=1)
    assert np.all(spread < 1e-9)


def test_panel_logw_survives_distant_means():
    # rows far from every center underflow the factorized product; the
    # resulting -inf entries must match the direct path's -inf pattern
    m = grid_mixture()
    means = np.array([[0.0, 0.0], [400.0, 400.0]])
    panel = np.random.default_rng(1).normal(size=(32, 2))
    fast = m.panel_logw(means, 0.5, panel)
    assert np.isfinite(fast[0]).all()
    block = means[:, None, :] + 0.5 * panel[None, :, :]
    direct = -np.asarray(m.value(block), dtype=float)
    diff = fast[1] - direct[1]
    finite = np.isfinite(direct[1])
    if finite.any():
        assert np.ptp(diff[finite]) < 1e-6


def test_offset_energy_shifts_value_only():
    base = DoubleWellEnergy(dim=2)
    off = OffsetEnergy(base, -3.5)
    y = np.array([0.7, -1.2])
    assert_allclose(off.value(y), base.value(y) - 3.5, rtol=1e-15)
    assert off.dim == 2


def test_grid_mixture_reference_layout():
    m = grid_mixture()
    assert m.centers.shape == (9, 2)
    assert m.sigma2 == 0.5
    assert_allclose(m.weights, np.full(9, 1.0 / 9.0))
    # centered on the origin with nearest-neighbor spacing 5
    assert_allclose(m.centers.mean(axis=0), [0.0, 0.0], atol=1e-12)
    d = np.linalg.norm(m.centers[:, None, :] - m.centers[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert_allclose(d.min(), 5.0)
    with pytest.raises(InputError):
        grid_mixture(dim=3)


def test_partition_oracle_closed_form_and_quadrature():
    m = grid_mixture()
    z = mixture_partition_oracle(m)
    assert_allclose(z, np.pi, rtol=1e-14)  # (2 pi 0.5)^(2/2)
    z = mixture_partition_oracle(m, verify=True)
    assert_allclose(z, np.pi, rtol=1e-14)
    m1 = GaussianMixtureEnergy(
        centers=np.array([[0.0], [3.0]]), sigma2=0.9, weights=np.array([0.5, 0.5])
    )
    zq = mixture_partition_oracle(m1, verify=True)
    assert_allclose(zq, np.sqrt(2 * np.pi * 0.9), rtol=1e-12)


def test_assign_modes_nearest_center():
    m = grid_mixture()
    samples = m.centers + 0.4  # still nearest to their own center
    assert np.array_equal(assign_modes(m, samples), np.arange(9))
    with pytest.raises(InputError):
        assign_modes(m, np.zeros((3, 5)))


def test_make_energy_registry():
    e = make_energy("gaussian", 2, sigma2=0.3)
    assert isinstance(e, GaussianEnergy) and e.sigma2 == 0.3
    e = make_energy("double-well", 1, stiffness=2.0)
    assert isinstance(e, DoubleWellEnergy)
    e = make_energy("gaussian-mixture", 2, centers=[[0.0, 0.0], [1.0, 1.0]], sigma2=0.5)
    assert isinstance(e, GaussianMixtureEnergy)
    assert_allclose(e.weights, [0.5, 0.5])
    with pytest.raises(InputError):
        make_energy("nope", 2)
    with pytest.raises(InputError):
        make_energy("gaussian-mixture", 3, centers=[[0.0, 0.0]], sigma2=0.5)


@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**31),
    ext=st.sampled_from(["bin", "csv"]),
)
@settings(max_examples=25, deadline=None)
def test_dataset_round_trip_is_exact(tmp_path_factory, rows, cols, seed, ext):
    path = tmp_path_factory.mktemp("ds") / f"data.{ext}"
    samples = np.random.default_rng(seed).normal(size=(rows, cols)) * 10.0
    save_dataset(str(path), samples)
    back = load_dataset(str(path))
    assert np.array_equal(back.samples, samples)


def test_dataset_header_fields(tmp_path):
    path = tmp_path / "d.bin"
    save_dataset(str(path), np.arange(6.0).reshape(3, 2))
    raw = path.read_bytes()
    assert raw[:4] == b"HPID"
    assert len(raw) == 24 + 3 * 2 * 8
    back = load_dataset(str(path))
    assert back.count == 3 and back.dim == 2


def test_dataset_error_messages_name_location(tmp_path):
    path = tmp_path / "d.bin"
    save_dataset(str(path), np.arange(6.0).reshape(3, 2))
    raw = path.read_bytes()

    bad = tmp_path / "truncated.bin"
    bad.write_bytes(raw[:30])
    with pytest.raises(FormatError, match="byte 24"):
        load_dataset(str(bad))

    bad = tmp_path / "magic.bin"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError, match="byte 0"):
        load_dataset(str(bad))

    bad = tmp_path / "version.bin"
    bad.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(FormatError, match="byte 4"):
        load_dataset(str(bad))

    bad = tmp_path / "short_header.bin"
    bad.write_bytes(raw[:10])
    with pytest.raises(FormatError, match="byte 0"):
        load_dataset(str(bad))


def test_csv_error_messages_name_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(FormatError, match="row 2"):
        load_dataset(str(path))
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match="row 2"):
        load_dataset(str(path))
    path.write_text("\n\n")
    with pytest.raises(FormatError, match="no data rows"):
        load_dataset(str(path))


def test_save_dataset_validation(tmp_path):
    with pytest.raises(InputError):
        save_dataset(str(tmp_path / "x.bin"), np.zeros((0, 2)))
    # a flat vector is promoted to a single column
    p = tmp_path / "flat.bin"
    save_dataset(str(p), np.array([1.0, 2.0]))
    assert load_dataset(str(p)).samples.shape == (2, 1)
