import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hpid.sampler as sampler_mod
from hpid.control import (
    EmpiricalControlEvaluator,
    EmpiricalTarget,
    QuadratureGrid,
    UhisConfig,
)
from hpid.errors import AccuracyError, ConfigError, IntegrationError
from hpid.kernels import ScalarBeta
from hpid.sampler import RunConfig, estimate_z_convergence, run
from hpid.sde import SdeConfig, integrate_batch
from hpid.targets import (
    DoubleWellEnergy,
    GaussianEnergy,
    _read_container,
    _write_container,
    grid_mixture,
    load_dataset,
    mixture_partition_oracle,
)


def _gauss_cfg(**kw):
    base = dict(
        n_samples=64,
        sde=SdeConfig(n_steps=20, seed=7),
        beta=0.0,
        energy=GaussianEnergy(dim=2, sigma2=1.0),
        control_mode="uhis",
        uhis=UhisConfig(n_is=128, reuse_probe_noise=True),
    )
    base.update(kw)
    return RunConfig(**base)


_DATASET_ROWS = np.array([[1.5, 0.0], [-1.5, 0.5], [0.0, -1.0]])


def _dataset_cfg(**kw):
    target = EmpiricalTarget(_DATASET_ROWS)
    base = dict(
        n_samples=32,
        sde=SdeConfig(n_steps=16, seed=3),
        beta=0.4,
        dataset=target,
        control_mode="empirical",
    )
    base.update(kw)
    return RunConfig(**base)


def test_validation_rules():
    with pytest.raises(ConfigError, match="exactly one"):
        run(RunConfig(n_samples=4, sde=SdeConfig(n_steps=4, seed=0)))
    with pytest.raises(ConfigError, match="exactly one"):
        run(_gauss_cfg(dataset=EmpiricalTarget(np.zeros((2, 2)))))
    with pytest.raises(ConfigError, match="empirical"):
        run(_dataset_cfg(control_mode="uhis"))
    with pytest.raises(ConfigError, match="control_mode"):
        run(_gauss_cfg(control_mode="empirical"))
    with pytest.raises(ConfigError, match="n_samples"):
        run(_gauss_cfg(n_samples=0))
    with pytest.raises(ConfigError, match="dim"):
        run(_gauss_cfg(beta=np.array([0.5, 0.5, 0.5])))
    with pytest.raises(ConfigError, match="'uhis', 'quadrature-oracle'"):
        run(_gauss_cfg(control_mode="legendre"))


def test_energy_run_estimates_partition():
    # beta=0, target N(0, I): Z = 2 pi in two dimensions
    s = run(_gauss_cfg(n_samples=256))
    assert s.terminals.shape == (256, 2)
    assert np.isfinite(s.terminals).all()
    assert s.z_estimate is not None and s.z_estimate > 0
    assert s.z_stderr > 0
    want = 2.0 * np.pi
    assert abs(s.z_estimate - want) < max(4.0 * s.z_stderr, 0.15 * want)
    assert s.min_ess >= 1.0
    assert s.ess_min.shape == (256,)


def test_dataset_run_has_no_partition_estimate():
    s = run(_dataset_cfg())
    assert s.z_estimate is None and s.z_stderr is None
    assert s.terminals.shape == (32, 2)
    assert np.isfinite(s.terminals).all()


def test_runs_are_reproducible_bitwise():
    a = run(_gauss_cfg())
    b = run(_gauss_cfg())
    assert np.array_equal(a.terminals, b.terminals)
    assert a.z_estimate == b.z_estimate
    assert a.config_hash == b.config_hash


_ENERGIES = {"mixture": grid_mixture(), "gaussian": GaussianEnergy(dim=2, sigma2=1.0)}


def _property_cfg(kind, n_samples, threads, energy="mixture", spread=1.0):
    """A short run: uhis with per-trajectory ("uhis") or shared
    ("uhis-shared") probe noise on an energy of _ENERGIES, or empirical
    on the dataset rows scaled by spread."""
    if kind == "empirical":
        return _dataset_cfg(
            n_samples=n_samples,
            sde=SdeConfig(n_steps=6, seed=3),
            threads=threads,
            dataset=EmpiricalTarget(spread * _DATASET_ROWS),
        )
    uhis = UhisConfig(n_is=16, reuse_probe_noise=kind == "uhis-shared")
    return _gauss_cfg(
        n_samples=n_samples,
        sde=SdeConfig(n_steps=6, seed=7),
        energy=_ENERGIES[energy],
        uhis=uhis,
        threads=threads,
    )


def _run_in_chunks(cfg, chunk):
    """run(cfg) with the working-set budget set to `chunk` trajectories; a
    dataset's chunk counts single rows, not whole 16-row tiles, and a shared
    panel costs n_is per trajectory (every energy of _ENERGIES has
    panel_logw), per-trajectory noise n_is * d."""
    if cfg.control_mode == "uhis":
        per_row = cfg.uhis.n_is * (1 if cfg.uhis.reuse_probe_noise else 2)
        budget = {"_CHUNK_ELEMENTS": chunk * per_row}
    else:
        budget = {"_CHUNK_ELEMENTS": chunk * sampler_mod._COL_TILE, "_ROW_TILE": 1}
    with mock.patch.multiple(sampler_mod, **budget):
        evaluator = sampler_mod._validate_and_build(cfg)[2]
        assert sampler_mod._chunk_size(evaluator, 2) == chunk
        return run(cfg)


@given(
    kind=st.sampled_from(["uhis", "uhis-shared", "empirical"]),
    energy=st.sampled_from(sorted(_ENERGIES)),
    n=st.integers(1, 8),
    extra=st.integers(1, 8),
    chunks=st.tuples(st.integers(1, 16), st.integers(1, 16)),
    threads=st.integers(1, 3),
    spread=st.just(1.0),
)
@example(
    kind="uhis-shared", energy="gaussian", n=3, extra=1, chunks=(1, 2), threads=1,
    spread=1.0,
)
# rows this far apart give softmax gaps below -708, whose weights are flushed
@example(
    kind="empirical", energy="mixture", n=5, extra=8, chunks=(2, 3), threads=2,
    spread=10.0,
)
@settings(max_examples=40, deadline=None)
def test_prefix_of_larger_run_is_identical(
    kind, energy, n, extra, chunks, threads, spread
):
    # trajectory i depends only on its own index, so growing the
    # population extends the sample set without disturbing it, whatever
    # the chunking and the thread count of either run
    small = _run_in_chunks(_property_cfg(kind, n, 1, energy, spread), chunks[0])
    large = _run_in_chunks(
        _property_cfg(kind, n + extra, threads, energy, spread), chunks[1]
    )
    assert np.array_equal(large.terminals[:n], small.terminals)
    assert np.array_equal(large.ess_min[:n], small.ess_min)


@given(
    kind=st.sampled_from(["uhis", "uhis-shared", "empirical"]),
    energy=st.sampled_from(sorted(_ENERGIES)),
    n=st.integers(1, 12),
    chunk=st.integers(1, 12),
    threads=st.integers(1, 3),
    spread=st.just(1.0),
)
@example(kind="uhis-shared", energy="gaussian", n=12, chunk=5, threads=3, spread=1.0)
# rows this far apart give softmax gaps below -708, whose weights are flushed
@example(kind="empirical", energy="mixture", n=12, chunk=5, threads=3, spread=10.0)
@settings(max_examples=40, deadline=None)
def test_thread_count_does_not_change_outputs(
    kind, energy, n, chunk, threads, spread
):
    a = _run_in_chunks(_property_cfg(kind, n, 1, energy, spread), chunk)
    b = _run_in_chunks(_property_cfg(kind, n, threads, energy, spread), chunk)
    assert np.array_equal(a.terminals, b.terminals)
    assert np.array_equal(a.ess_min, b.ess_min)
    assert a.z_estimate == b.z_estimate


def test_threads_get_a_chunk_each(monkeypatch):
    # n_is 1,000 at d 2 fits 2,000 trajectories in the working-set budget,
    # so 1,000 paths would be one chunk and a second thread idle; at two
    # threads the run is cut into whole 16-row tiles, one chunk per thread
    # at least, without changing a bit
    sizes = []
    inner = sampler_mod.integrate_batch

    def counting(*a, **k):
        sizes.append(k["n_trajectories"])
        return inner(*a, **k)

    monkeypatch.setattr(sampler_mod, "integrate_batch", counting)
    cfg = _gauss_cfg(
        n_samples=1000,
        sde=SdeConfig(n_steps=4, seed=7),
        beta=0.5,
        energy=grid_mixture(),
        uhis=UhisConfig(n_is=1000, reuse_probe_noise=True),
    )
    one = run(cfg)
    assert sizes == [1000]
    sizes.clear()
    two = run(dataclasses.replace(cfg, threads=2))
    assert len(sizes) >= 2 and sum(sizes) == 1000
    assert all(n % 16 == 0 for n in sizes[:-1])
    assert np.array_equal(one.terminals, two.terminals)
    assert one.z_estimate == two.z_estimate


def test_quadrature_oracle_mode():
    cfg = RunConfig(
        n_samples=8,
        sde=SdeConfig(n_steps=10, seed=5),
        beta=0.3,
        energy=GaussianEnergy(dim=1, sigma2=0.8),
        control_mode="quadrature-oracle",
        quadrature=QuadratureGrid(lo=-10.0, hi=10.0, n=401),
    )
    s = run(cfg)
    assert s.terminals.shape == (8, 1)
    assert s.z_estimate > 0


def _read_records(out, n_paths, d):
    """trajectories.bin of a run directory as (n_paths, R, 2d + 2)."""
    table = _read_container(str(out / "trajectories.bin"))
    assert table.shape[1] == 2 * d + 2
    return table.reshape(n_paths, -1, 2 * d + 2)


def test_output_directory_contents(tmp_path):
    out = tmp_path / "run"
    s = run(_dataset_cfg(out_dir=str(out), n_record=2))
    doc = json.loads((out / "summary.json").read_text())
    assert doc["status"] == "complete"
    assert doc["n_samples"] == 32 and doc["dim"] == 2
    assert doc["z_estimate"] is None
    assert doc["config_sha256"] == s.config_hash
    assert doc["config"]["sde"]["seed"] == 3
    assert doc["terminals"] == "terminals.bin"
    assert doc["trajectories"] == "trajectories.bin"
    assert doc["recorded"] == [0, 1]
    assert 0.0 <= doc["low_ess_fraction"] <= 1.0
    back = load_dataset(str(out / "terminals.bin"))
    assert np.array_equal(back.samples, s.terminals)
    # columns t, x0, x1, xhat0, xhat1, ess
    records = _read_records(out, 2, 2)
    assert records.shape == (2, 16, 6)
    assert np.all(np.diff(records[:, :, 0], axis=1) > 0)
    assert np.isfinite(records[:, :, 3:5]).all()
    assert np.all(records[:, :, 5] >= 1.0)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_trajectory_records_are_bitwise_equal_to_the_recorded_arrays(
    tmp_path, monkeypatch
):
    # chunks of 2 trajectories put recorded row 2 in the second chunk
    monkeypatch.setattr(sampler_mod, "_CHUNK_ELEMENTS", 2 * sampler_mod._COL_TILE)
    monkeypatch.setattr(sampler_mod, "_ROW_TILE", 1)
    cfg = _dataset_cfg(out_dir=str(tmp_path / "run"), n_record=3)
    run(cfg)
    params = ScalarBeta(beta=cfg.beta, dim=2)
    ref = integrate_batch(
        cfg.sde,
        EmpiricalControlEvaluator(params, cfg.dataset),
        dim=2,
        n_trajectories=cfg.n_samples,
        params=params,
        record="all",
    )
    records = _read_records(tmp_path / "run", 3, 2)
    for j in range(3):
        assert np.array_equal(_bits(records[j, :, 0]), _bits(ref.times)), j
        assert np.array_equal(_bits(records[j, :, 1:3]), _bits(ref.states[j])), j
        assert np.array_equal(_bits(records[j, :, 3:5]), _bits(ref.weighted_states[j])), j
        assert np.array_equal(_bits(records[j, :, 5]), _bits(ref.ess_series[j])), j
    # a control without a weighted state leaves NaN rows; the bytes are the
    # header, then the float64 values as they are held in memory
    blank = np.full_like(ref.states[0], np.nan)
    block = np.column_stack([ref.times, ref.states[0], blank, ref.ess_series[0]])
    path = str(tmp_path / "nan.bin")
    _write_container(path, len(block), 6, [block])
    raw = open(path, "rb").read()
    assert raw[24:] == block.astype("<f8").tobytes()
    assert np.array_equal(_bits(_read_container(path)), _bits(block))


def test_trajectories_bin_does_not_depend_on_threads_or_chunks(tmp_path, monkeypatch):
    cfg = _dataset_cfg(n_record=20)
    files = []
    for name, threads, chunk in (("one", 1, None), ("three", 3, None), ("small", 1, 3)):
        with monkeypatch.context() as m:
            if chunk is not None:
                m.setattr(sampler_mod, "_CHUNK_ELEMENTS", chunk * sampler_mod._COL_TILE)
                m.setattr(sampler_mod, "_ROW_TILE", 1)
            out = tmp_path / name
            run(dataclasses.replace(cfg, out_dir=str(out), threads=threads))
        assert json.loads((out / "summary.json").read_text())["recorded"] == list(range(20))
        files.append((out / "trajectories.bin").read_bytes())
    assert files[0] == files[1] == files[2]


def test_energy_output_manifest(tmp_path):
    out = tmp_path / "run"
    s = run(_gauss_cfg(out_dir=str(out)))
    doc = json.loads((out / "summary.json").read_text())
    assert doc["z_estimate"] == s.z_estimate
    assert doc["min_ess"] == pytest.approx(s.min_ess)
    assert doc["ess_min_median"] >= 1.0
    assert doc["trajectories"] is None
    assert doc["recorded"] == []
    assert not (out / "trajectories.bin").exists()


def test_one_sample_manifest_is_strict_json(tmp_path):
    # one path has no standard error; the manifest says null, not NaN
    out = tmp_path / "run"
    s = run(_gauss_cfg(n_samples=1, out_dir=str(out)))
    assert np.isnan(s.z_stderr)

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    doc = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert doc["z_stderr"] is None
    assert doc["z_estimate"] == s.z_estimate


def test_aborted_run_writes_manifest(tmp_path, monkeypatch):
    inner = sampler_mod.integrate_batch

    def explode(*a, **k):
        # chunks of 4 trajectories: trajectory 5 lies in the second chunk
        if k["first_trajectory"] > 0:
            raise IntegrationError(step=3, state_norm=12.5, trajectory=5)
        return inner(*a, **k)

    monkeypatch.setattr(sampler_mod, "integrate_batch", explode)
    monkeypatch.setattr(sampler_mod, "_chunk_size", lambda *a: 4)
    for threads in (1, 2):
        out = tmp_path / f"run{threads}"
        with pytest.raises(IntegrationError):
            run(_dataset_cfg(out_dir=str(out), threads=threads))
        doc = json.loads((out / "summary.json").read_text())
        assert doc["status"] == "aborted"
        assert doc["failed_step"] == 3
        assert doc["failed_trajectory"] == 5
        assert "diverged at step 3" in doc["error"]
        # the first chunk finished before the failing one
        assert doc["trajectories_completed"] == 4


def test_accuracy_failure_writes_manifest(tmp_path):
    # an estimator that cannot meet its contract mid-run aborts the run
    # like a diverged path does; it carries no step or trajectory
    class InfiniteEnergy(GaussianEnergy):
        def value(self, y):
            return np.full(np.shape(y)[:-1], np.inf)

    out = tmp_path / "run"
    cfg = _gauss_cfg(
        n_samples=4,
        energy=InfiniteEnergy(dim=2),
        uhis=UhisConfig(n_is=16),
        out_dir=str(out),
    )
    with pytest.raises(AccuracyError):
        run(cfg)
    doc = json.loads((out / "summary.json").read_text())
    assert doc["status"] == "aborted"
    assert "importance weights vanished" in doc["error"]
    assert doc["failed_step"] is None
    assert doc["failed_trajectory"] is None
    assert doc["trajectories_completed"] == 0


def test_dataset_chunks_bound_the_working_set(monkeypatch):
    # each step holds the (B, _COL_TILE) log-ratios of one column tile, so
    # a dataset of any size runs in chunks of _CHUNK_ELEMENTS // _COL_TILE
    # trajectories, in whole 16-row tiles
    wide = EmpiricalTarget(np.zeros((9000, 2)))
    chunks = {
        sampler_mod._chunk_size(sampler_mod._validate_and_build(cfg)[2], 2)
        for cfg in (_dataset_cfg(), _dataset_cfg(dataset=wide))
    }
    assert chunks == {sampler_mod._CHUNK_ELEMENTS // sampler_mod._COL_TILE // 16 * 16}
    whole = run(_dataset_cfg())
    sizes = []
    inner = sampler_mod.integrate_batch

    def spy(*a, **k):
        sizes.append(k["n_trajectories"])
        return inner(*a, **k)

    monkeypatch.setattr(sampler_mod, "integrate_batch", spy)
    monkeypatch.setattr(sampler_mod, "_CHUNK_ELEMENTS", 10 * sampler_mod._COL_TILE)
    monkeypatch.setattr(sampler_mod, "_ROW_TILE", 3)  # 10 rows: three whole tiles
    split = run(_dataset_cfg())
    assert sizes == [9, 9, 9, 5]
    assert np.array_equal(split.terminals, whole.terminals)
    assert np.array_equal(split.ess_min, whole.ess_min)


def test_shared_panel_chunks_do_not_depend_on_dim():
    # a shared panel weighed by panel_logw holds one (n_is,) log-weight row
    # per trajectory; per-trajectory noise, and an energy without
    # panel_logw, draw an (n_is, d) block each
    def chunk(energy, reuse):
        uhis = UhisConfig(n_is=1000, reuse_probe_noise=reuse)
        evaluator = sampler_mod._validate_and_build(_gauss_cfg(energy=energy, uhis=uhis))[2]
        return sampler_mod._chunk_size(evaluator, energy.dim)

    budget = sampler_mod._CHUNK_ELEMENTS
    assert chunk(grid_mixture(), True) == budget // 1000
    for d in (2, 25):
        assert chunk(GaussianEnergy(dim=d), True) == budget // 1000
        assert chunk(GaussianEnergy(dim=d), False) == budget // (1000 * d)
        assert chunk(DoubleWellEnergy(dim=d), True) == budget // (1000 * d)


_GRID_CENTERS = [[a, b] for a in (-5.0, 0.0, 5.0) for b in (-5.0, 0.0, 5.0)]


@pytest.mark.parametrize(
    "energy, desc, chash",
    [
        (
            grid_mixture(),
            {
                "class": "GaussianMixtureEnergy",
                "dim": 2,
                "centers": _GRID_CENTERS,
                "sigma2": 0.5,
                "weights": [1.0 / 9.0] * 9,
            },
            "452d3baaf26b682ff4819da7e25f65dc18d315b303d863c701be69f07cd3b513",
        ),
        (
            GaussianEnergy(dim=2, sigma2=1.0),
            {"class": "GaussianEnergy", "dim": 2, "sigma2": 1.0, "mean": [0.0, 0.0]},
            "67d64c8bda9d17448d980ddb9ec8227f9ec2892f3992b4ef2dce2fb1dda25b88",
        ),
    ],
    ids=["mixture", "gaussian"],
)
def test_energy_description_and_config_hash_are_frozen(energy, desc, chash):
    # the description and the run hash that keys it are frozen values:
    # any change would re-key every stored run of these targets
    assert sampler_mod._describe_energy(energy) == desc
    cfg = _gauss_cfg(
        n_samples=2,
        sde=SdeConfig(n_steps=4, seed=7),
        beta=0.5,
        energy=energy,
        uhis=UhisConfig(n_is=16, reuse_probe_noise=True),
    )
    assert run(cfg).config_hash == chash


def test_config_hash_tracks_content():
    a = run(_gauss_cfg(n_samples=2))
    b = run(_gauss_cfg(n_samples=2, sde=SdeConfig(n_steps=20, seed=8)))
    assert a.config_hash != b.config_hash
    assert len(a.config_hash) == 64


def test_mixture_partition_is_unbiased_at_strong_confinement():
    # the exact step factor leaves Z unbiased at any step count: at beta = 2
    # and K = 25 the mean over repeats sits within a few standard errors of
    # the oracle
    m = grid_mixture()
    cfg = RunConfig(
        n_samples=500,
        sde=SdeConfig(n_steps=25, seed=11),
        beta=2.0,
        energy=m,
        control_mode="uhis",
        uhis=UhisConfig(n_is=500, reuse_probe_noise=True),
    )
    rows = estimate_z_convergence(cfg, steps_list=[25], samples_list=[], n_repeats=6)
    z = np.array([r["z"] for r in rows])
    se = z.std(ddof=1) / np.sqrt(z.size)
    assert abs(z.mean() - mixture_partition_oracle(m)) < 4.0 * se


def test_convergence_sweep_rows():
    cfg = _gauss_cfg(n_samples=16, uhis=UhisConfig(n_is=64, reuse_probe_noise=True))
    rows = estimate_z_convergence(cfg, steps_list=[8, 16], samples_list=[12], n_repeats=2)
    assert len(rows) == 6
    assert {r["sweep"] for r in rows} == {"steps", "samples"}
    for r in rows:
        assert r["z"] > 0
    # the sweep is seeded deterministically
    again = estimate_z_convergence(cfg, steps_list=[8, 16], samples_list=[12], n_repeats=2)
    assert [r["z"] for r in rows] == [r["z"] for r in again]
    # steps sweep varies n_steps, holding n_samples fixed
    steps_rows = [r for r in rows if r["sweep"] == "steps"]
    assert sorted({r["setting"] for r in steps_rows}) == [8, 16]
    with pytest.raises(ConfigError):
        estimate_z_convergence(cfg, [], [], 2)
    with pytest.raises(ConfigError):
        estimate_z_convergence(cfg, [8], [], 0)


def test_convergence_sweep_refuses_a_dataset_target(monkeypatch):
    # a dataset target has no Z: the sweep refuses it before any run
    def no_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(sampler_mod, "run", no_run)
    with pytest.raises(ConfigError, match="no partition function"):
        estimate_z_convergence(_dataset_cfg(), [8], [], 1)
