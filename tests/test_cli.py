import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hpid.sampler as sampler_mod
from hpid.cli import _threads, main
from hpid.errors import IntegrationError
from hpid.targets import _read_container, _write_container, load_dataset, save_dataset

GAUSS_INI = """\
[target]
kind = energy
energy = gaussian
dim = 1
sigma2 = 0.7

[run]
samples = 32
steps = 12
n_is = 64
reuse_probe_noise = true
"""

MIXTURE_INI = """\
[target]
kind = energy
energy = gaussian-mixture

[potential]
beta = 0.2

[run]
samples = 24
steps = 25
seed = 5
n_is = 300
reuse_probe_noise = true
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "hpid" in capsys.readouterr().out


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_sample_energy_and_echo_reproduces(tmp_path, capsys):
    cfg = _write(tmp_path, "m.ini", GAUSS_INI)
    out1 = tmp_path / "run1"
    assert main(["sample-energy", "--config", cfg, "--out", str(out1)]) == 0
    text = capsys.readouterr().out
    assert "wrote 32 samples (dim 1)" in text
    assert "Z estimate:" in text
    assert "config sha256:" in text

    doc = json.loads((out1 / "summary.json").read_text())
    assert doc["subcommand"] == "sample-energy"
    assert doc["cli_config"]["run"]["n_is"] == "64"
    assert f"config sha256: {doc['config_sha256']}\n" in text

    # feeding the echoed summary back reproduces the run bit for bit
    out2 = tmp_path / "run2"
    rc = main(
        ["sample-energy", "--config", str(out1 / "summary.json"), "--out", str(out2)]
    )
    assert rc == 0
    a = load_dataset(str(out1 / "terminals.bin")).samples
    b = load_dataset(str(out2 / "terminals.bin")).samples
    assert np.array_equal(a, b)
    # the echoed manifests agree on everything but the output path
    doc2 = json.loads((out2 / "summary.json").read_text())
    for section in ("target", "potential", "run"):
        a_sec = dict(doc["cli_config"][section])
        b_sec = dict(doc2["cli_config"][section])
        a_sec.pop("out", None)
        b_sec.pop("out", None)
        assert a_sec == b_sec


def test_rerun_elsewhere_prints_the_same_hash(tmp_path, capsys):
    # the printed hash keys the run, so the output directory is not part of it
    cfg = _write(tmp_path, "m.ini", GAUSS_INI)
    hashes = []
    for config, out in ((cfg, "run1"), (str(tmp_path / "run1" / "summary.json"), "run2")):
        assert main(["sample-energy", "--config", config, "--out", str(tmp_path / out)]) == 0
        hashes.append(capsys.readouterr().out.split("config sha256: ")[1].strip())
    assert hashes[0] == hashes[1]


def test_upper_case_json_config_reruns(tmp_path, capsys):
    cfg = _write(tmp_path, "m.ini", GAUSS_INI)
    assert main(["sample-energy", "--config", cfg, "--out", str(tmp_path / "run1")]) == 0
    upper = tmp_path / "S.JSON"
    upper.write_text((tmp_path / "run1" / "summary.json").read_text())
    assert main(["sample-energy", "--config", str(upper), "--out", str(tmp_path / "run2")]) == 0
    a = (tmp_path / "run1" / "terminals.bin").read_bytes()
    assert (tmp_path / "run2" / "terminals.bin").read_bytes() == a


def test_sample_energy_overrides(tmp_path, capsys):
    cfg = _write(tmp_path, "m.ini", GAUSS_INI)
    out = tmp_path / "run"
    rc = main(
        [
            "sample-energy",
            "--config",
            cfg,
            "--samples",
            "8",
            "--steps",
            "6",
            "--seed",
            "9",
            "--out",
            str(out),
            "--threads",
            "1",
        ]
    )
    assert rc == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["n_samples"] == 8
    assert doc["cli_config"]["run"]["steps"] == "6"
    assert doc["cli_config"]["run"]["seed"] == "9"


def test_sample_energy_requires_out(tmp_path, capsys):
    cfg = _write(tmp_path, "m.ini", GAUSS_INI)
    assert main(["sample-energy", "--config", cfg]) == 2
    assert "output directory" in capsys.readouterr().err


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    rc = main(["sample-energy", "--config", str(tmp_path / "nope.ini"), "--out", "x"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_manifest_key_is_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "m.ini", GAUSS_INI + "typo_key = 1\n")
    assert main(["sample-energy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["manifest", "flag", "summary"])
def test_retired_control_is_exit_2(tmp_path, capsys, source):
    # legendre was a fourth drift mode; a manifest, flag or stored
    # summary.json that still names it is refused, not silently remapped
    argv = ["sample-energy", "--out", str(tmp_path / "o")]
    if source == "manifest":
        argv += ["--config", _write(tmp_path, "m.ini", GAUSS_INI + "control = legendre\n")]
    elif source == "flag":
        argv += ["--config", _write(tmp_path, "m.ini", GAUSS_INI), "--control", "legendre"]
    else:
        echoed = {
            "target": {"kind": "energy", "energy": "gaussian", "dim": "1", "sigma2": "0.7"},
            "potential": {"beta": "0.0"},
            "run": {"samples": "32", "steps": "12", "seed": "0", "control": "legendre"},
        }
        doc = {"status": "complete", "cli_config": echoed}
        argv += ["--config", _write(tmp_path, "summary.json", json.dumps(doc))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "control must be one of ['uhis', 'oracle'], got 'legendre'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "source", ["early_exit", "record_weighted", "t_min", "wide_sigma2", "summary"]
)
def test_retired_run_key_is_exit_2(tmp_path, capsys, source):
    # early_exit and record_weighted changed no sample and no written file;
    # t_min and wide_sigma2 had one value outside the tests and are fixed
    # now; a manifest or stored summary.json that still sets any is refused
    argv = ["sample-energy", "--out", str(tmp_path / "o")]
    key = source
    if source == "summary":
        # the echo a run wrote before the keys were retired; its keys are
        # sorted, so early_exit is the first unknown one
        key = "early_exit"
        echoed = {
            "target": {"kind": "energy", "energy": "gaussian", "dim": "1",
                       "mean": "0.0", "sigma2": "0.7"},
            "potential": {"beta": "0.0"},
            "run": {"control": "uhis", "early_exit": "false", "n_is": "64",
                    "record": "0", "record_every": "1", "record_weighted": "false",
                    "reuse_probe_noise": "true", "samples": "32", "seed": "0",
                    "steps": "12", "t_min": "0.0", "wide_sigma2": "1.0"},
        }
        doc = {"status": "complete", "cli_config": echoed}
        argv += ["--config", _write(tmp_path, "summary.json", json.dumps(doc))]
    else:
        argv += ["--config", _write(tmp_path, "m.ini", GAUSS_INI + f"{source} = true\n")]
    assert main(argv) == 2
    assert f"error: unknown key '{key}' in [run]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_numerical_failure_is_exit_3(tmp_path, capsys):
    # quadrature window far narrower than the target's support
    ini = GAUSS_INI + "control = oracle\nquad_lo = -0.5\nquad_hi = 0.5\nquad_n = 81\n"
    cfg = _write(tmp_path, "m.ini", ini)
    rc = main(["sample-energy", "--config", cfg, "--samples", "2", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_aborted_run_reruns_from_its_summary(tmp_path, capsys, monkeypatch):
    # an aborted summary.json echoes the manifest as a complete one does,
    # so feeding it back reruns the same run into the same directory
    inner = sampler_mod.integrate_batch

    def explode(*a, **k):
        raise IntegrationError(step=3, state_norm=12.5, trajectory=0)

    monkeypatch.setattr(sampler_mod, "integrate_batch", explode)
    out = tmp_path / "o"
    cfg = _write(tmp_path, "m.ini", GAUSS_INI)
    assert main(["sample-energy", "--config", cfg, "--out", str(out), "--threads", "1"]) == 3
    aborted = json.loads((out / "summary.json").read_text())
    assert aborted["status"] == "aborted"
    assert aborted["subcommand"] == "sample-energy"
    assert aborted["cli_config"]["run"]["out"] == str(out)

    monkeypatch.setattr(sampler_mod, "integrate_batch", inner)
    argv = ["sample-energy", "--config", str(out / "summary.json"), "--threads", "1"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert f"wrote 32 samples (dim 1) to {out}" in text
    done = json.loads((out / "summary.json").read_text())
    assert done["status"] == "complete"
    assert f"config sha256: {done['config_sha256']}\n" in text
    for key in ("subcommand", "cli_config", "config", "config_sha256"):
        assert done[key] == aborted[key], key


def test_threads_env_fallback(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, "m.ini", GAUSS_INI)
    monkeypatch.setenv("HPID_THREADS", "junk")
    assert main(["sample-energy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "HPID_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("HPID_THREADS", "2")
    assert main(["sample-energy", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_default_threads_follow_the_affinity_mask(monkeypatch):
    # the host may have many CPUs while this process may run on one
    monkeypatch.delenv("HPID_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert _threads(None) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _threads(None) == 64


def test_sample_empirical_and_diagnose(tmp_path, capsys):
    rows = np.array([[6.0, 0.0], [-6.0, 0.5], [0.0, -6.0]])
    data = str(tmp_path / "gt.csv")
    save_dataset(data, rows)
    out = tmp_path / "run"
    rc = main(
        [
            "sample-empirical",
            "--data",
            data,
            "--beta",
            "0.8",
            "--steps",
            "20",
            "--samples",
            "8",
            "--seed",
            "4",
            "--out",
            str(out),
            "--record-weighted",
            "--threads",
            "1",
        ]
    )
    assert rc == 0
    assert "wrote 8 samples (dim 2)" in capsys.readouterr().out
    doc = json.loads((out / "summary.json").read_text())
    assert doc["subcommand"] == "sample-empirical"
    assert doc["recorded"] == list(range(8))
    assert doc["z_estimate"] is None

    diag = tmp_path / "diag"
    rc = main(
        [
            "diagnose",
            "--run",
            str(out),
            "--out",
            str(diag),
            "--bootstrap",
            "50",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "trajectories: 8" in text
    assert "weighted-state transition:" in text
    tdoc = json.loads((diag / "transition.json").read_text())
    assert tdoc["n_trajectories"] == 8
    assert tdoc["bootstrap_gap"]["n_resamples"] == 50
    curves = np.genfromtxt(diag / "autocorr.csv", delimiter=",", names=True)
    assert curves.dtype.names == ("t", "corr_state", "corr_weighted")
    assert curves.shape[0] == 20


def _recorded_run(tmp_path, capsys):
    rows = np.array([[6.0, 0.0], [-6.0, 0.5], [0.0, -6.0]])
    data = str(tmp_path / "gt.csv")
    save_dataset(data, rows)
    out = tmp_path / "run"
    argv = ["sample-empirical", "--data", data, "--beta", "0.8", "--steps", "10"]
    argv += ["--samples", "3", "--seed", "4", "--out", str(out), "--record-weighted"]
    assert main(argv + ["--threads", "1"]) == 0
    capsys.readouterr()
    return out


@pytest.mark.parametrize("name", ["terminals.bin", "trajectories.bin"])
def test_diagnose_missing_listed_file_is_exit_2(tmp_path, capsys, name):
    out = _recorded_run(tmp_path, capsys)
    (out / name).unlink()
    assert main(["diagnose", "--run", str(out), "--bootstrap", "0"]) == 2
    err = capsys.readouterr().err
    assert name in err and "missing" in err


@pytest.mark.parametrize(
    "recorded",
    [[0, 1, 3], [0, 1, 99], [0, 1, -1], [0, 1, 1.5], [0, 1, 1], 1],
    ids=["3", "99", "-1", "1.5", "duplicate", "bare-int"],
)
def test_diagnose_rejects_bad_recorded_indices(tmp_path, capsys, recorded):
    # a recorded index picks the terminal its rows pair with, so it must
    # be a sample of the run (3 here), an integer, and listed once, in a list
    out = _recorded_run(tmp_path, capsys)
    doc = json.loads((out / "summary.json").read_text())
    doc["recorded"] = recorded
    (out / "summary.json").write_text(json.dumps(doc))
    assert main(["diagnose", "--run", str(out), "--bootstrap", "0"]) == 2
    err = capsys.readouterr().err
    assert "trajectories.bin" in err and "0 <= i < 3" in err


def test_diagnose_rejects_differing_time_columns(tmp_path, capsys):
    out = _recorded_run(tmp_path, capsys)
    path = out / "trajectories.bin"
    table = _read_container(str(path)).reshape(3, -1, 6)
    table[2, 1, 0] = 0.5
    _write_container(str(path), 3 * table.shape[1], 6, list(table))
    assert main(["diagnose", "--run", str(out), "--bootstrap", "0"]) == 2
    err = capsys.readouterr().err
    assert "trajectories.bin" in err and "t column of path 2" in err


def test_diagnose_names_the_old_csv_format(tmp_path, capsys):
    # a run written before trajectories.bin listed one CSV per path
    out = _recorded_run(tmp_path, capsys)
    doc = json.loads((out / "summary.json").read_text())
    del doc["recorded"]
    doc["trajectories"] = [f"trajectory_{i}.csv" for i in range(3)]
    (out / "summary.json").write_text(json.dumps(doc))
    assert main(["diagnose", "--run", str(out), "--bootstrap", "0"]) == 2
    err = capsys.readouterr().err
    assert str(out / "summary.json") in err and "old format" in err


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _widen(path):
    table = _read_container(str(path))
    save_dataset(str(path), np.hstack([table, table[:, :1]]))


def _uneven(path):
    save_dataset(str(path), _read_container(str(path))[:-1])


@pytest.mark.parametrize(
    "damage, words",
    [
        (_truncate, "payload bytes"),
        (_widen, "expected 6 columns for dim 2, got 7"),
        (_uneven, "29 rows do not split into 3"),
    ],
    ids=["truncated", "wide", "uneven"],
)
def test_diagnose_rejects_a_damaged_trajectories_bin(tmp_path, capsys, damage, words):
    out = _recorded_run(tmp_path, capsys)
    damage(out / "trajectories.bin")
    assert main(["diagnose", "--run", str(out), "--bootstrap", "0"]) == 2
    err = capsys.readouterr().err
    assert str(out / "trajectories.bin") in err and words in err


def test_unwritable_out_is_exit_2(tmp_path, capsys):
    # an output directory under a regular file cannot be made: an input
    # error, not a numerical one
    rows = str(tmp_path / "rows.csv")
    save_dataset(rows, np.array([[1.0, 0.0], [-1.0, 0.0]]))
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["sample-empirical", "--data", rows, "--beta", "1.0", "--steps", "4"]
    argv += ["--samples", "2", "--seed", "0", "--out", str(blocker / "run")]
    assert main(argv + ["--threads", "1"]) == 2
    assert "Not a directory" in capsys.readouterr().err


def test_sample_empirical_missing_data(tmp_path, capsys):
    rc = main(
        [
            "sample-empirical",
            "--data",
            str(tmp_path / "nope.bin"),
            "--beta",
            "0.5",
            "--steps",
            "4",
            "--samples",
            "2",
            "--seed",
            "0",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def _sample_empirical(data, out, beta):
    argv = ["sample-empirical", "--data", data, "--beta", beta, "--steps", "12"]
    argv += ["--samples", "6", "--seed", "2", "--out", out, "--threads", "1"]
    return main(argv)


def test_sample_empirical_accepts_comma_list_beta(tmp_path):
    rows = np.array([[4.0, 0.0, 1.0], [-4.0, 0.5, 0.0], [0.0, -4.0, -1.0]])
    data = str(tmp_path / "gt.csv")
    save_dataset(data, rows)
    assert _sample_empirical(data, str(tmp_path / "diag"), "1.0,2.0,0.5") == 0
    # an isotropic list is the scalar potential, written per axis
    assert _sample_empirical(data, str(tmp_path / "list"), "0.7,0.7,0.7") == 0
    assert _sample_empirical(data, str(tmp_path / "scalar"), "0.7") == 0
    listed = load_dataset(str(tmp_path / "list" / "terminals.bin")).samples
    scalar = load_dataset(str(tmp_path / "scalar" / "terminals.bin")).samples
    assert_allclose(listed, scalar, rtol=1e-10, atol=1e-10)


def test_mixture_side_zero_is_exit_2(tmp_path, capsys):
    # side = 0 is no grid; it must not fall back to the 3 x 3 default
    text = MIXTURE_INI.replace("gaussian-mixture\n", "gaussian-mixture\nside = 0\n")
    cfg = _write(tmp_path, "m.ini", text)
    assert main(["sample-energy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "side must be >= 1, got 0" in capsys.readouterr().err


def test_negative_record_is_exit_2(tmp_path, capsys):
    # a negative count is a fault, not a request to record nothing
    cfg = _write(tmp_path, "m.ini", GAUSS_INI + "record = -3\n")
    assert main(["sample-energy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "record must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_diagnose_negative_bootstrap_is_exit_2(tmp_path, capsys):
    # refused before anything is written, not taken as "no bootstrap"
    out = _recorded_run(tmp_path, capsys)
    diag = tmp_path / "diag"
    argv = ["diagnose", "--run", str(out), "--out", str(diag), "--bootstrap", "-5"]
    assert main(argv) == 2
    assert "--bootstrap must be >= 0, got -5" in capsys.readouterr().err
    assert not diag.exists()


def test_diagnose_mixture_modes(tmp_path, capsys):
    cfg = _write(tmp_path, "m.ini", MIXTURE_INI)
    out = tmp_path / "run"
    assert main(["sample-energy", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 0
    text = capsys.readouterr().out
    assert "mode chi-square:" in text
    lines = (out / "modes.csv").read_text().strip().split("\n")
    assert lines[0] == "mode,count,expected"
    assert len(lines) == 10
    counts = [int(l.split(",")[1]) for l in lines[1:]]
    assert sum(counts) == 24


def test_diagnose_without_records_or_modes(tmp_path, capsys):
    cfg = _write(tmp_path, "m.ini", GAUSS_INI)
    out = tmp_path / "run"
    assert main(["sample-energy", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out)]) == 2
    assert "rerun with record > 0" in capsys.readouterr().err


def test_estimate_z_sweep(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "m.ini",
        GAUSS_INI.replace("samples = 32", "samples = 12").replace("steps = 12", "steps = 6"),
    )
    out = tmp_path / "sweep"
    rc = main(
        [
            "estimate-z",
            "--config",
            cfg,
            "--steps-list",
            "4,8",
            "--samples-list",
            "",
            "--repeats",
            "2",
            "--out",
            str(out),
            "--threads",
            "1",
        ]
    )
    assert rc == 0
    cap = capsys.readouterr()
    assert "wrote 4 rows" in cap.out
    assert "steps=4: median Z" in cap.err
    lines = (out / "zsweep.csv").read_text().strip().split("\n")
    assert lines[0] == "sweep,setting,repeat,z"
    assert len(lines) == 5
    for line in lines[1:]:
        sweep, setting, repeat, z = line.split(",")
        assert sweep == "steps"
        assert float(z) > 0


def test_estimate_z_bad_list(tmp_path, capsys):
    cfg = _write(tmp_path, "m.ini", GAUSS_INI)
    rc = main(["estimate-z", "--config", cfg, "--steps-list", "4,x"])
    assert rc == 2
    assert "is not an integer" in capsys.readouterr().err


def test_estimate_z_refuses_a_dataset_target(tmp_path, capsys):
    data = str(tmp_path / "gt.csv")
    save_dataset(data, np.array([[1.0, 0.0], [-1.0, 0.5]]))
    manifest = f"[target]\nkind = dataset\ndata = {data}\n\n[run]\nsamples = 4\nsteps = 4\n"
    cfg = _write(tmp_path, "d.ini", manifest)
    rc = main(["estimate-z", "--config", cfg, "--steps-list", "4", "--threads", "1"])
    assert rc == 2
    assert "no partition function" in capsys.readouterr().err


def test_oracle_check(tmp_path, capsys):
    out = str(tmp_path / "oracle.csv")
    rc = main(
        [
            "oracle-check",
            "--n-is",
            "20000",
            "--seed",
            "1",
            "--t-list",
            "0.3,0.6",
            "--x-list=-1.2,1.2",
            "--out",
            out,
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "wrote 4 comparisons" in text
    rel_line = [l for l in text.splitlines() if l.startswith("max relative")][0]
    assert float(rel_line.rsplit(" ", 1)[1]) < 0.15
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "t,x,u_is,u_quadrature,abs_err,rel_err"
    assert len(lines) == 5


def test_oracle_check_reports_untrustworthy_rows(capsys):
    # at t = 0.05 the probe for x = -1.5 sits far outside the wells: all the
    # weight lands on one draw; the x = 0.5 row is a usable estimate
    argv = ["oracle-check", "--n-is", "20000", "--seed", "3", "--t-list", "0.05"]
    assert main(argv + ["--x-list=-1.5,0.5"]) == 0
    text = capsys.readouterr().out
    assert "rows with ESS < 1.5: 1 of 2" in text
    ess_line = [l for l in text.splitlines() if l.startswith("min ESS")][0]
    assert float(ess_line.rsplit(" ", 1)[1]) < 1.5


def test_oracle_check_empty_grid(capsys):
    assert main(["oracle-check", "--t-list", "", "--x-list", "0.5"]) == 2
    assert "nonempty" in capsys.readouterr().err


def test_oracle_check_bad_list(capsys):
    assert main(["oracle-check", "--t-list", "0.1,x", "--x-list", "0.5"]) == 2
    assert "--t-list: 'x' is not a number" in capsys.readouterr().err
