import dataclasses
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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
from hpid.targets import GaussianEnergy, grid_mixture, load_dataset


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


def _dataset_cfg(**kw):
    target = EmpiricalTarget(np.array([[1.5, 0.0], [-1.5, 0.5], [0.0, -1.0]]))
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


def _property_cfg(kind, n_samples, threads, energy="mixture"):
    """A short run: uhis with per-trajectory ("uhis") or shared
    ("uhis-shared") probe noise on an energy of _ENERGIES, or empirical."""
    if kind == "empirical":
        return _dataset_cfg(
            n_samples=n_samples, sde=SdeConfig(n_steps=6, seed=3), threads=threads
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
    """run(cfg) with the working-set budget set to `chunk` trajectories."""
    n_rows = 3  # the dataset size S of _dataset_cfg
    per_trajectory = cfg.uhis.n_is * 2 if cfg.control_mode == "uhis" else n_rows
    with mock.patch.object(sampler_mod, "_CHUNK_ELEMENTS", chunk * per_trajectory):
        assert sampler_mod._chunk_size(cfg.control_mode, cfg, 2, n_rows) == chunk
        return run(cfg)


@given(
    kind=st.sampled_from(["uhis", "empirical"]),
    energy=st.sampled_from(sorted(_ENERGIES)),
    n=st.integers(1, 8),
    extra=st.integers(1, 8),
    chunks=st.tuples(st.integers(1, 16), st.integers(1, 16)),
    threads=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_prefix_of_larger_run_is_identical(kind, energy, n, extra, chunks, threads):
    # trajectory i depends only on its own index, so growing the
    # population extends the sample set without disturbing it, whatever
    # the chunking and the thread count of either run
    small = _run_in_chunks(_property_cfg(kind, n, 1, energy), chunks[0])
    large = _run_in_chunks(_property_cfg(kind, n + extra, threads, energy), chunks[1])
    assert np.array_equal(large.terminals[:n], small.terminals)
    assert np.array_equal(large.ess_min[:n], small.ess_min)


@given(
    kind=st.sampled_from(["uhis", "uhis-shared", "empirical"]),
    energy=st.sampled_from(sorted(_ENERGIES)),
    n=st.integers(1, 12),
    chunk=st.integers(1, 12),
    threads=st.integers(1, 3),
)
@example(kind="uhis-shared", energy="gaussian", n=12, chunk=5, threads=3)
@settings(max_examples=40, deadline=None)
def test_thread_count_does_not_change_outputs(kind, energy, n, chunk, threads):
    a = _run_in_chunks(_property_cfg(kind, n, 1, energy), chunk)
    b = _run_in_chunks(_property_cfg(kind, n, threads, energy), chunk)
    assert np.array_equal(a.terminals, b.terminals)
    assert np.array_equal(a.ess_min, b.ess_min)
    assert a.z_estimate == b.z_estimate


def test_early_exit_returns_weighted_terminals():
    s = run(_dataset_cfg(early_exit=True))
    assert s.early_terminals is not None
    assert s.early_terminals.shape == (32, 2)
    # the weighted state is a convex combination of the stored samples
    lo = np.array([[1.5, 0.0], [-1.5, 0.5], [0.0, -1.0]]).min(axis=0)
    hi = np.array([[1.5, 0.0], [-1.5, 0.5], [0.0, -1.0]]).max(axis=0)
    assert np.all(s.early_terminals >= lo - 1e-9)
    assert np.all(s.early_terminals <= hi + 1e-9)


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
    assert doc["trajectories"] == ["trajectory_0.csv", "trajectory_1.csv"]
    assert 0.0 <= doc["low_ess_fraction"] <= 1.0
    back = load_dataset(str(out / "terminals.bin"))
    assert np.array_equal(back.samples, s.terminals)
    rows = np.genfromtxt(out / "trajectory_0.csv", delimiter=",", names=True)
    assert rows.dtype.names == ("t", "x0", "x1", "xhat0", "xhat1", "ess")
    assert np.all(np.diff(rows["t"]) > 0)
    assert np.isfinite(rows["xhat0"]).all()
    assert np.all(rows["ess"] >= 1.0)


def _per_value_csv(times, states, weighted, ess):
    # reference: one f"{v:.17g}" per value, the format of every trajectory file
    d = states.shape[1]
    header = ["t"] + [f"x{j}" for j in range(d)] + [f"xhat{j}" for j in range(d)]
    lines = [",".join(header + ["ess"])]
    for r in range(times.shape[0]):
        row = [f"{times[r]:.17g}"]
        row += [f"{v:.17g}" for v in states[r]]
        row += [f"{v:.17g}" for v in weighted[r]]
        row.append(f"{ess[r]:.17g}")
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def test_trajectory_csvs_are_byte_identical_to_per_value_format(tmp_path, monkeypatch):
    # chunks of 2 trajectories put recorded row 2 in the second chunk
    monkeypatch.setattr(sampler_mod, "_CHUNK_ELEMENTS", 6)  # S = 3 rows
    cfg = _dataset_cfg(out_dir=str(tmp_path / "run"), n_record=3)
    run(cfg)
    params = ScalarBeta(beta=cfg.beta, dim=2)
    ref = integrate_batch(
        dataclasses.replace(cfg.sde, record_weighted_state=True),
        EmpiricalControlEvaluator(params, cfg.dataset),
        dim=2,
        n_trajectories=cfg.n_samples,
        params=params,
        record="all",
    )
    for j in range(3):
        got = (tmp_path / "run" / f"trajectory_{j}.csv").read_bytes()
        want = _per_value_csv(
            ref.times, ref.states[j], ref.weighted_states[j], ref.ess_series[j]
        )
        assert got == want, j
    # a control without a weighted state leaves NaN rows
    blank = np.full_like(ref.states[0], np.nan)
    path = str(tmp_path / "nan.csv")
    arrays = (ref.times, ref.states[0], blank, ref.ess_series[0])
    sampler_mod._write_trajectory_csv(path, *arrays)
    want = _per_value_csv(*arrays)
    assert open(path, "rb").read() == want


def test_energy_output_manifest(tmp_path):
    out = tmp_path / "run"
    s = run(_gauss_cfg(out_dir=str(out)))
    doc = json.loads((out / "summary.json").read_text())
    assert doc["z_estimate"] == s.z_estimate
    assert doc["min_ess"] == pytest.approx(s.min_ess)
    assert doc["ess_min_median"] >= 1.0
    assert doc["trajectories"] == []


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
    # each step holds (B, S) kernel log-ratios, so a dataset of S rows
    # runs in chunks of at most _CHUNK_ELEMENTS // S trajectories
    whole = run(_dataset_cfg())
    sizes = []
    inner = sampler_mod.integrate_batch

    def spy(*a, **k):
        sizes.append(k["n_trajectories"])
        return inner(*a, **k)

    monkeypatch.setattr(sampler_mod, "integrate_batch", spy)
    monkeypatch.setattr(sampler_mod, "_CHUNK_ELEMENTS", 30)  # S = 3 rows
    split = run(_dataset_cfg())
    assert sizes == [10, 10, 10, 2]
    assert np.array_equal(split.terminals, whole.terminals)
    assert np.array_equal(split.ess_min, whole.ess_min)


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
            "7fd3ada9bc6d87792bc0e828bd53f7353f93452d1d0e4aae9e49b4aa379f60ea",
        ),
        (
            GaussianEnergy(dim=2, sigma2=1.0),
            {"class": "GaussianEnergy", "dim": 2, "sigma2": 1.0, "mean": [0.0, 0.0]},
            "648a3eec0bd42fd93b2c0049d35ffed323f3c10cfb8bdc4526597ba06538334d",
        ),
    ],
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
