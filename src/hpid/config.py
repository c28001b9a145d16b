"""Run manifests: sectioned key = value files that fully determine a run.

A manifest has three sections. [target] names what to sample (a built-in
energy or a dataset of ground-truth rows), [potential] sets the quadratic
confinement, [run] sets the engine parameters. Command-line overrides win
over file values. One table below gives, for each energy and each control,
its keys and its constructor; a key is written as its default, or as its
type when the manifest must give it. `resolve` validates against it, fills
defaults, and returns a normalized mapping of strings; the normalized form
is what runs echo into summary.json, and feeding it back reproduces the
run. `build_run_config` turns that form into a RunConfig.
"""

import configparser
import json
import os
from typing import Callable, NamedTuple

import numpy as np

from .control import QuadratureGrid, UhisConfig
from .errors import ConfigError
from .sampler import RunConfig
from .sde import SdeConfig
from .targets import DoubleWellEnergy, GaussianEnergy, grid_mixture

_SECTIONS = ("target", "potential", "run")
_ECHO = "cli_config"  # the summary.json key that holds a CLI run's manifest
_ENERGY_CONTROLS = ("uhis", "oracle")


class _Target(NamedTuple):
    """A [target] row: its keys, and a constructor from the parsed keys to
    the RunConfig fields that name the target."""

    keys: dict
    build: Callable
    controls: tuple = _ENERGY_CONTROLS  # the [run] controls it takes; first is the default


class _Control(NamedTuple):
    """A [run] control row: the sampler's control_mode, the control's own
    [run] keys, and a constructor from the parsed keys to its RunConfig
    fields."""

    mode: str
    keys: dict
    build: Callable = dict  # no RunConfig fields of its own


def _energy(cls):
    return lambda **keys: {"energy": cls(**keys)}


# built-in energies by [target] energy name; a row that gives dim a default
# has that dimension only
_ENERGIES = {
    "gaussian": _Target({"dim": int, "sigma2": 1.0, "mean": 0.0}, _energy(GaussianEnergy)),
    "double-well": _Target({"dim": int, "stiffness": 1.0}, _energy(DoubleWellEnergy)),
    "gaussian-mixture": _Target(
        {"dim": 2, "side": 3, "spacing": 5.0, "sigma2": 0.5}, _energy(grid_mixture)
    ),
}
_DATASET = _Target({"data": str}, lambda data: {"dataset": data}, ("empirical",))

# the [target] keys that pick a row, [potential], the [run] keys of every run,
# and each control by its manifest name
_KIND, _ENERGY = {"kind": str}, {"energy": str}
_POTENTIAL = {"beta": []}
_RUN = {"samples": int, "steps": int, "seed": 0, "record": 0, "record_every": 1, "control": ""}
_OUT = {"out": str}  # the one key with no default: kept only when given
_CONTROLS = {
    "uhis": _Control(
        "uhis",
        {"n_is": 1000, "reuse_probe_noise": False},
        lambda **keys: {"uhis": UhisConfig(**keys)},
    ),
    "oracle": _Control(
        "quadrature-oracle",
        {"quad_lo": -12.0, "quad_hi": 12.0, "quad_n": 1601},
        lambda quad_lo, quad_hi, quad_n: {
            "quadrature": QuadratureGrid(lo=quad_lo, hi=quad_hi, n=quad_n)
        },
    ),
    "empirical": _Control("empirical", {}),
}

# section -> key -> type of its value, for every key of the tables above
_TYPES = {
    section: {k: v if isinstance(v, type) else type(v) for t in tables for k, v in t.items()}
    for section, tables in (
        ("target", (_KIND, _ENERGY, _DATASET.keys, *(r.keys for r in _ENERGIES.values()))),
        ("potential", (_POTENTIAL,)),
        ("run", (_RUN, _OUT, *(r.keys for r in _CONTROLS.values()))),
    )
}


def _parse_typed(section: str, key: str, raw: str):
    kind = _TYPES[section][key]
    try:
        if kind is list:
            return [float(p) for p in raw.split(",") if p.strip()]
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return kind(raw.strip())
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}") from None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def load_config_file(path: str) -> dict:
    """Raw {section: {key: string}} from a manifest or an echoed summary.

    A .json file may be either a summary.json (its echoed manifest is
    read back) or a bare {section: {key: value}} object.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    if str(path).lower().endswith(".json"):
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: not valid JSON ({e})") from None
        if isinstance(doc, dict) and _ECHO in doc:
            doc = doc[_ECHO]
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected a JSON object")
    else:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as f:
                parser.read_file(f)
        except configparser.Error as e:
            raise ConfigError(f"{path}: {e}") from None
        doc = {section: dict(parser.items(section)) for section in parser.sections()}
    bad = [s for s in doc if s not in _SECTIONS]
    if bad:
        raise ConfigError(f"{path}: unknown section(s) {bad}; expected {list(_SECTIONS)}")
    for s, sec in doc.items():
        if not isinstance(sec, dict):
            raise ConfigError(f"{path}: section {s!r} must be an object")
    return {s: {str(k): _fmt(v) for k, v in sec.items()} for s, sec in doc.items()}


def resolve(raw: dict, overrides: dict | None = None) -> dict:
    """Validated, default-filled {section: {key: string}} manifest.

    `overrides` maps (section, key) to a string value and wins over the
    file. Only keys that apply to the chosen target kind and control are
    kept, so the result is a complete, minimal description of the run.
    """
    merged = {s: dict(raw.get(s, {})) for s in _SECTIONS}
    for (section, key), value in (overrides or {}).items():
        if value is not None:
            merged[section][key] = _fmt(value)

    for section, keys in merged.items():
        schema = _TYPES[section]
        for key in keys:
            if key not in schema:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; "
                    f"known keys: {sorted(schema)}"
                )

    out = {s: {} for s in _SECTIONS}

    def fill(section, keys):
        for key, default in keys.items():
            raw_val = merged[section].get(key)
            if raw_val is not None:
                out[section][key] = _parse_typed(section, key, raw_val)
            elif isinstance(default, type):
                raise ConfigError(f"[{section}] {key} is required")
            else:
                out[section][key] = default

    target = out["target"]
    fill("target", _KIND)
    if target["kind"] == "dataset":
        row, where = _DATASET, "kind = dataset"
    elif target["kind"] == "energy":
        fill("target", _ENERGY)
        row = _ENERGIES.get(target["energy"])
        if row is None:
            raise ConfigError(
                f"[target] energy must be one of {list(_ENERGIES)}, "
                f"got {target['energy']!r}"
            )
        where = f"energy = {target['energy']}"
    else:
        raise ConfigError(f"[target] kind must be 'energy' or 'dataset', got {target['kind']!r}")
    for key in merged["target"]:
        if key not in target and key not in row.keys:
            owners = [name for name, r in _ENERGIES.items() if key in r.keys]
            also = f"; {key} applies to {', '.join(owners)}" if owners else ""
            raise ConfigError(f"[target] {key} does not apply to {where}{also}")
    fill("target", row.keys)
    dim, fixed = target.get("dim"), row.keys.get("dim")
    if isinstance(fixed, int) and dim != fixed:
        raise ConfigError(f"[target] {where} is {fixed}-dimensional, got dim = {dim}")
    if dim is not None and dim < 1:
        raise ConfigError(f"[target] dim must be >= 1, got {dim}")

    # a blank beta or control means its default, as an absent one does
    fill("potential", _POTENTIAL)
    fill("run", _RUN)
    out["potential"]["beta"] = out["potential"]["beta"] or [0.0]
    control = out["run"]["control"] = out["run"]["control"] or row.controls[0]
    if control not in row.controls:
        raise ConfigError(
            f"[run] control must be one of {list(row.controls)}, got {control!r} "
            f"({where} takes control = {' or '.join(row.controls)})"
        )
    fill("run", _CONTROLS[control].keys)
    if merged["run"].get("out") is not None:
        fill("run", _OUT)

    return {s: {k: _fmt(v) for k, v in sec.items()} for s, sec in out.items()}


def build_run_config(normalized: dict, threads: int = 1) -> RunConfig:
    """RunConfig (plus constructed target) from a normalized manifest."""
    parsed = {s: {k: _parse_typed(s, k, v) for k, v in kv.items()} for s, kv in normalized.items()}
    target, run = parsed["target"], parsed["run"]
    kind = target.pop("kind")
    row = _DATASET if kind == "dataset" else _ENERGIES[target.pop("energy")]
    control = _CONTROLS[run["control"]]
    beta = parsed["potential"]["beta"]
    return RunConfig(
        n_samples=run["samples"],
        sde=SdeConfig(
            n_steps=run["steps"], seed=run["seed"], record_every=run["record_every"]
        ),
        beta=beta[0] if len(beta) == 1 else np.asarray(beta),
        control_mode=control.mode,
        out_dir=run.get("out"),
        threads=threads,
        n_record=run["record"],
        **row.build(**target),
        **control.build(**{k: run[k] for k in control.keys}),
    )
