import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from hpid.errors import FormatError, InputError
from hpid.kernels import _rows_matmul, decompose
from hpid.stationary import universal_probe
from hpid.targets import (
    DoubleWellEnergy,
    GaussianEnergy,
    GaussianMixtureEnergy,
    _read_trajectories,
    _write_trajectories,
    assign_modes,
    grid_mixture,
    load_dataset,
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


def _untiled_panel_logw(energy, means, s, panel):
    # the whole-block expressions, in the operation order panel_logw keeps:
    # one product [-(s/s2) (m - mu), 1] @ [panel^T; v + column shift], the
    # per-row constants dropped, plus the mixture's log rank-M product
    s2 = energy.sigma2
    v = np.einsum("ni,ni->n", panel, panel) * (-s * s / (2.0 * s2))
    ones = np.ones((len(means), 1))
    if isinstance(energy, GaussianEnergy):
        left = np.hstack([(means - energy.mean) * (-s / s2), ones])
        return _rows_matmul(left, np.vstack([panel.T, v]))
    c = energy.centers
    cc = np.einsum("mi,mi->m", c, c)
    with np.errstate(divide="ignore"):
        amat = np.log(energy.weights) + (_rows_matmul(means, c.T) - 0.5 * cc) / s2
        bmat = (s / s2) * (panel @ c.T)
        ash, bsh = amat.max(axis=1), bmat.max(axis=1)
        r = _rows_matmul(np.exp(amat - ash[:, None]), np.exp(bmat - bsh[:, None]).T)
        q = _rows_matmul(np.hstack([means * (-s / s2), ones]), np.vstack([panel.T, v + bsh]))
        return q + np.log(r)


@pytest.mark.parametrize("B", [1, 15, 63, 64, 65, 130])
def test_panel_logw_tiles_change_no_bit(B):
    # the block equals the untiled whole-block expressions bit for bit,
    # wherever the row tiles fall
    rng = np.random.default_rng(B)
    means = 3.0 * rng.normal(size=(B, 2))
    means[-1] = [400.0, 400.0]  # far from every center: entries underflow
    panel = rng.normal(size=(300, 2))
    for energy in (GaussianEnergy(dim=2, sigma2=0.4, mean=[0.5, -0.2]), grid_mixture()):
        got = energy.panel_logw(means, 0.6, panel)
        assert got.shape == (B, 300)
        assert np.array_equal(got, _untiled_panel_logw(energy, means, 0.6, panel))


@pytest.mark.parametrize(
    "energy",
    [GaussianEnergy(dim=2, sigma2=0.4, mean=[0.5, -0.2]), grid_mixture()],
)
def test_panel_logw_matches_energy_on_a_matrix_beta_panel(energy):
    # a matrix beta's probe keeps scale 1.0 and spreads the panel per axis;
    # the block is still -E up to a per-row constant, with B off a multiple
    # of 16
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    params = decompose(q @ np.diag([0.3, 1.4]) @ q.T)
    probe = universal_probe(params, 0.6, rng.normal(size=(37, 2)))
    scale, panel = probe.spread(rng.normal(size=(200, 2)))
    assert scale == 1.0
    fast = energy.panel_logw(probe.mean, scale, panel)
    block = probe.mean[:, None, :] + panel[None, :, :]
    diff = fast - -np.asarray(energy.value(block), dtype=float)
    assert np.all(np.ptp(diff, axis=1) < 1e-9)


def test_offset_energy_shifts_value_only(offset_energy):
    base = DoubleWellEnergy(dim=2)
    off = offset_energy(base, -3.5)
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


def _grid_partition(m, n=201):
    """Z of the mixture by a trapezoid sum on an n^d grid over the box that
    reaches 14 standard deviations past the outermost centers."""
    pad = 14.0 * np.sqrt(m.sigma2)
    axis = np.linspace(m.centers.min() - pad, m.centers.max() + pad, n)
    nodes = np.stack(np.meshgrid(*[axis] * m.dim, indexing="ij"), axis=-1)
    f = np.exp(-m.value(nodes))
    for _ in range(m.dim):
        f = np.trapezoid(f, axis, axis=0)
    return float(f)


def test_partition_oracle_closed_form_and_quadrature():
    m = grid_mixture()
    z = mixture_partition_oracle(m)
    assert_allclose(z, np.pi, rtol=1e-14)  # (2 pi 0.5)^(2/2)
    assert_allclose(_grid_partition(m), z, rtol=1e-12)
    m1 = GaussianMixtureEnergy(
        centers=np.array([[0.0], [3.0]]), sigma2=0.9, weights=np.array([0.5, 0.5])
    )
    z1 = mixture_partition_oracle(m1)
    assert_allclose(z1, np.sqrt(2 * np.pi * 0.9), rtol=1e-12)
    assert_allclose(_grid_partition(m1), z1, rtol=1e-12)


def test_assign_modes_nearest_center():
    m = grid_mixture()
    samples = m.centers + 0.4  # still nearest to their own center
    assert np.array_equal(assign_modes(m, samples), np.arange(9))
    with pytest.raises(InputError):
        assign_modes(m, np.zeros((3, 5)))


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


def test_dataset_container_makes_no_copy_of_its_payload(tmp_path):
    # 20 MB of rows: saving allocates next to nothing beyond the input, and
    # loading holds one array of the payload (plus the finiteness mask)
    samples = np.random.default_rng(0).normal(size=(100_000, 25))
    path = str(tmp_path / "big.bin")
    tracemalloc.start()
    try:
        save_dataset(path, samples)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_dataset(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert save_peak < 1e6
    assert load_peak < 1.25 * samples.nbytes
    assert np.array_equal(back.samples, samples)


def test_trajectory_records_round_trip_bitwise(tmp_path):
    # three paths of 5 rows in d = 2, written as groups of one and two; the
    # middle path has no weighted state (NaN x_hat), and a negative zero and
    # a subnormal keep their bits too
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 0.8, 5)
    x, x_hat = rng.normal(size=(3, 5, 2)), rng.normal(size=(3, 5, 2))
    ess = rng.uniform(1.0, 9.0, (3, 5))
    x_hat[1] = np.nan
    x[0, 0, 0], x_hat[2, 1, 1] = -0.0, 5e-324
    path = tmp_path / "trajectories.bin"
    groups = [(x[:1], x_hat[:1], ess[:1]), (x[1:], x_hat[1:], ess[1:])]
    _write_trajectories(str(path), times, groups)
    assert path.stat().st_size == 24 + 3 * 5 * (2 * 2 + 2) * 8

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    back = _read_trajectories(str(path), 2, [4, 7, 9])
    for got, want in zip(back, (times, x, x_hat, ess)):
        assert np.array_equal(bits(got), bits(want))
    with pytest.raises(FormatError, match="expected 8 columns for dim 3, got 6"):
        _read_trajectories(str(path), 3, [4, 7, 9])
    with pytest.raises(FormatError, match="15 rows do not split into 2 paths"):
        _read_trajectories(str(path), 2, [4, 7])


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
