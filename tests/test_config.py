import io
import json

import numpy as np
import pytest

from hpid.config import (
    _CONTROLS,
    _DATASET,
    _ENERGIES,
    _OUT,
    _POTENTIAL,
    _RUN,
    _SECTIONS,
    build_run_config,
    load_config_file,
    resolve,
)
from hpid.errors import ConfigError
from hpid.sampler import config_sha
from hpid.targets import DoubleWellEnergy, GaussianEnergy, GaussianMixtureEnergy


def config_text(normalized: dict) -> str:
    """Deterministic manifest text that parses back to the same mapping."""
    buf = io.StringIO()
    for section in _SECTIONS:
        keys = normalized.get(section, {})
        if not keys:
            continue
        buf.write(f"[{section}]\n")
        for key in sorted(keys):
            buf.write(f"{key} = {keys[key]}\n")
        buf.write("\n")
    return buf.getvalue()


def _energy_raw(**run):
    base_run = {"samples": "16", "steps": "8"}
    base_run.update(run)
    return {
        "target": {"kind": "energy", "energy": "gaussian", "dim": "2"},
        "run": base_run,
    }


def test_defaults_fill_in():
    r = resolve(_energy_raw())
    assert r["target"] == {
        "kind": "energy",
        "energy": "gaussian",
        "dim": "2",
        "sigma2": "1.0",
        "mean": "0.0",
    }
    assert r["potential"] == {"beta": "0.0"}
    assert r["run"]["control"] == "uhis"
    assert r["run"]["n_is"] == "1000"
    assert r["run"]["seed"] == "0"
    assert r["run"]["reuse_probe_noise"] == "false"
    assert "quad_n" not in r["run"]
    assert "out" not in r["run"]


def test_normalized_form_round_trips(tmp_path):
    r = resolve(_energy_raw(control="oracle", seed="3"))
    path = tmp_path / "m.ini"
    path.write_text(config_text(r))
    again = resolve(load_config_file(str(path)))
    assert again == r
    assert config_sha(again) == config_sha(r)
    # oracle keeps quadrature knobs, drops the importance-sampling ones
    assert r["run"]["quad_n"] == "1601"
    assert "n_is" not in r["run"]


# a value other than its default for every manifest key, written as its
# normalized echo: a key declared with the wrong type either fails to parse
# it or echoes it differently
_GIVEN = {
    "target": {
        "dim": "2",
        "sigma2": "0.75",
        "mean": "-0.5",
        "stiffness": "2.5",
        "side": "2",
        "spacing": "4.5",
        "data": "gt.bin",
    },
    "potential": {"beta": "0.25, 0.5"},
    "run": {
        "samples": "4",
        "steps": "3",
        "seed": "7",
        "record": "2",
        "record_every": "2",
        "out": "somewhere",
        "n_is": "17",
        "reuse_probe_noise": "true",
        "quad_lo": "-6.5",
        "quad_hi": "6.5",
        "quad_n": "201",
    },
}


@pytest.mark.parametrize("given", ["required", "every"])
@pytest.mark.parametrize(
    "target, control",
    [(name, c) for name, row in {**_ENERGIES, "dataset": _DATASET}.items() for c in row.controls],
)
def test_every_row_and_control_round_trips(tmp_path, target, control, given):
    row = _ENERGIES.get(target, _DATASET)
    keys = {
        "target": row.keys,
        "potential": _POTENTIAL,
        "run": {**_RUN, **_OUT, **_CONTROLS[control].keys},
    }
    raw = {
        section: {
            k: v
            for k, v in _GIVEN[section].items()
            if k in keys[section] and (given == "every" or isinstance(keys[section][k], type))
        }
        for section in _SECTIONS
    }
    raw["target"]["kind"] = "dataset" if row is _DATASET else "energy"
    if row is not _DATASET:
        raw["target"]["energy"] = target
    raw["run"]["control"] = control
    r = resolve(raw)
    if given == "every":
        assert r == raw
    path = tmp_path / "m.ini"
    path.write_text(config_text(r))
    again = resolve(load_config_file(str(path)))
    assert again == r
    cfg = build_run_config(again)
    assert cfg.control_mode == _CONTROLS[control].mode


def test_summary_json_echo_reads_back(tmp_path):
    r = resolve(_energy_raw())
    doc = {"status": "complete", "cli_config": r, "other": 1}
    path = tmp_path / "summary.json"
    # unknown top-level keys are fine; sections come from the echo
    path.write_text(json.dumps({**doc, "cli_config": r}))
    raw = load_config_file(str(path))
    assert resolve(raw) == r

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(r))
    assert resolve(load_config_file(str(bare))) == r

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config_file(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config_file(str(arr))
    with pytest.raises(ConfigError, match="not found"):
        load_config_file(str(tmp_path / "missing.ini"))


def test_json_values_of_any_type_reach_the_type_check(tmp_path):
    # a JSON manifest may give numbers and lists; a list entry that is not
    # a number fails as a bad value of its key
    path = tmp_path / "m.json"
    raw = _energy_raw()
    path.write_text(json.dumps({**raw, "potential": {"beta": [0.5, 1]}}))
    assert resolve(load_config_file(str(path)))["potential"]["beta"] == "0.5, 1.0"
    path.write_text(json.dumps({**raw, "potential": {"beta": [0.5, "x"]}}))
    with pytest.raises(ConfigError, match=r"\[potential\] beta = '0.5, x' is not a valid list"):
        resolve(load_config_file(str(path)))


def test_json_section_must_be_an_object(tmp_path):
    path = tmp_path / "run5.json"
    path.write_text(json.dumps({"run": 5}))
    with pytest.raises(ConfigError, match="'run'"):
        load_config_file(str(path))
    path.write_text(json.dumps({"cli_config": 5}))
    with pytest.raises(ConfigError, match="JSON object"):
        load_config_file(str(path))


def test_unknown_sections_and_keys(tmp_path):
    path = tmp_path / "m.ini"
    path.write_text("[tarket]\nkind = energy\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config_file(str(path))
    with pytest.raises(ConfigError, match="unknown key 'samples'"):
        resolve({"target": {"kind": "energy", "samples": "4"}})


def test_overrides_win_and_none_is_skipped():
    r = resolve(_energy_raw(), {("run", "steps"): 99, ("run", "seed"): None})
    assert r["run"]["steps"] == "99"
    assert r["run"]["seed"] == "0"
    r = resolve(_energy_raw(), {("potential", "beta"): "0.5, 1.5"})
    assert r["potential"]["beta"] == "0.5, 1.5"


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match=r"\[run\] steps = 'abc' is not a valid int"):
        resolve(_energy_raw(steps="abc"))
    with pytest.raises(ConfigError, match=r"\[run\] reuse_probe_noise"):
        resolve(_energy_raw(reuse_probe_noise="maybe"))
    with pytest.raises(ConfigError, match=r"\[potential\] beta"):
        resolve({**_energy_raw(), "potential": {"beta": "0.5,x"}})


def test_cross_field_rules():
    with pytest.raises(ConfigError, match="kind"):
        resolve({"target": {"kind": "both"}, "run": {"samples": "1", "steps": "1"}})
    with pytest.raises(ConfigError, match=r"\[run\] samples is required"):
        resolve({"target": {"kind": "energy", "energy": "gaussian", "dim": "1"}})
    with pytest.raises(ConfigError, match="energy must be one of"):
        resolve(
            {
                "target": {"kind": "energy", "energy": "quartic", "dim": "1"},
                "run": {"samples": "1", "steps": "1"},
            }
        )
    with pytest.raises(ConfigError, match="does not apply to kind = dataset"):
        resolve(
            {
                "target": {"kind": "dataset", "data": "d.csv", "dim": "2"},
                "run": {"samples": "1", "steps": "1"},
            }
        )
    with pytest.raises(ConfigError, match="control = empirical"):
        resolve(
            {
                "target": {"kind": "dataset", "data": "d.csv"},
                "run": {"samples": "1", "steps": "1", "control": "uhis"},
            }
        )
    with pytest.raises(ConfigError, match="2-dimensional"):
        resolve(
            {
                "target": {"kind": "energy", "energy": "gaussian-mixture", "dim": "3"},
                "run": {"samples": "1", "steps": "1"},
            }
        )
    with pytest.raises(ConfigError, match="stiffness applies to double-well"):
        resolve(
            {
                "target": {
                    "kind": "energy",
                    "energy": "gaussian",
                    "dim": "1",
                    "stiffness": "2.0",
                },
                "run": {"samples": "1", "steps": "1"},
            }
        )
    with pytest.raises(ConfigError, match="sigma2 applies to gaussian"):
        resolve(
            {
                "target": {
                    "kind": "energy",
                    "energy": "double-well",
                    "dim": "1",
                    "sigma2": "2.0",
                },
                "run": {"samples": "1", "steps": "1"},
            }
        )
    with pytest.raises(ConfigError, match="control must be one of"):
        resolve(_energy_raw(control="empirical"))


def test_build_gaussian_run_config():
    cfg = build_run_config(resolve(_energy_raw()), threads=2)
    assert cfg.n_samples == 16
    assert cfg.sde.n_steps == 8 and cfg.sde.seed == 0
    assert cfg.control_mode == "uhis"
    assert cfg.uhis.n_is == 1000
    assert cfg.threads == 2
    assert isinstance(cfg.energy, GaussianEnergy)
    assert cfg.energy.dim == 2
    assert cfg.beta == 0.0
    assert cfg.quadrature is None


def test_build_variants():
    r = resolve(
        {
            "target": {"kind": "energy", "energy": "double-well", "dim": "3", "stiffness": "2.5"},
            "potential": {"beta": "0.3, 0.7, 1.1"},
            "run": {"samples": "4", "steps": "6", "control": "uhis"},
        }
    )
    cfg = build_run_config(r)
    assert isinstance(cfg.energy, DoubleWellEnergy)
    assert cfg.control_mode == "uhis"
    np.testing.assert_array_equal(cfg.beta, [0.3, 0.7, 1.1])
    with pytest.raises(ConfigError, match=r"\['uhis', 'oracle'\], got 'legendre'"):
        resolve(
            {
                "target": {"kind": "energy", "energy": "double-well", "dim": "3"},
                "run": {"samples": "4", "steps": "6", "control": "legendre"},
            }
        )

    r = resolve(
        {
            "target": {"kind": "energy", "energy": "gaussian-mixture", "spacing": "4.0"},
            "run": {"samples": "4", "steps": "6"},
        }
    )
    cfg = build_run_config(r)
    assert isinstance(cfg.energy, GaussianMixtureEnergy)
    assert cfg.energy.centers.shape == (9, 2)
    assert np.ptp(cfg.energy.centers) == 8.0

    r = resolve(
        {
            "target": {"kind": "dataset", "data": "gt.bin"},
            "run": {
                "samples": "4",
                "steps": "6",
                "record": "2",
                "out": "somewhere",
            },
        }
    )
    cfg = build_run_config(r)
    assert cfg.dataset == "gt.bin" and cfg.energy is None
    assert cfg.control_mode == "empirical"
    assert cfg.n_record == 2
    assert cfg.out_dir == "somewhere"

    r = resolve(_energy_raw(control="oracle", quad_lo="-6.0", quad_hi="6.0", quad_n="201"))
    cfg = build_run_config(r)
    assert cfg.control_mode == "quadrature-oracle"
    assert (cfg.quadrature.lo, cfg.quadrature.hi, cfg.quadrature.n) == (-6.0, 6.0, 201)


def test_sha_ignores_insertion_order():
    a = resolve(_energy_raw())
    reordered = {s: dict(reversed(list(sec.items()))) for s, sec in reversed(a.items())}
    assert config_sha(reordered) == config_sha(a)
    assert config_sha(a) != config_sha(resolve(_energy_raw(seed="1")))
