"""Run manifests: sectioned key = value files that fully determine a run.

A manifest has three sections. [target] names what to sample (a built-in
energy or a dataset of ground-truth rows), [potential] sets the quadratic
confinement, [run] sets the engine parameters. Command-line overrides win
over file values. `resolve` validates against the schema, fills defaults,
and returns a normalized mapping of strings; the normalized form is what
runs echo into summary.json, and feeding it back reproduces the run.
"""

import configparser
import json
import os

import numpy as np

from .control import QuadratureGrid, UhisConfig
from .errors import ConfigError
from .sampler import RunConfig
from .sde import SdeConfig
from .targets import DoubleWellEnergy, GaussianEnergy, grid_mixture

_SECTIONS = ("target", "potential", "run")

# key -> (type, default); default None means "cross-field logic decides"
_TARGET_KEYS = {
    "kind": ("str", None),
    "energy": ("str", None),
    "dim": ("int", None),
    "sigma2": ("float", None),
    "mean": ("float", None),
    "stiffness": ("float", None),
    "side": ("int", None),
    "spacing": ("float", None),
    "data": ("str", None),
}
_POTENTIAL_KEYS = {"beta": ("floats", "0.0")}
_RUN_KEYS = {
    "samples": ("int", None),
    "steps": ("int", None),
    "seed": ("int", "0"),
    "control": ("str", None),
    "n_is": ("int", "1000"),
    "reuse_probe_noise": ("bool", "false"),
    "out": ("str", None),
    "record": ("int", "0"),
    "record_every": ("int", "1"),
    "quad_lo": ("float", "-12.0"),
    "quad_hi": ("float", "12.0"),
    "quad_n": ("int", "1601"),
}
_SCHEMA = {"target": _TARGET_KEYS, "potential": _POTENTIAL_KEYS, "run": _RUN_KEYS}

_ENERGIES = ("gaussian", "double-well", "gaussian-mixture")
_CONTROLS = ("uhis", "oracle")
# manifest name -> internal sampler mode
_CONTROL_MODES = {
    "uhis": "uhis",
    "oracle": "quadrature-oracle",
    "empirical": "empirical",
}


def _parse_typed(section: str, key: str, kind: str, raw: str):
    where = f"[{section}] {key}"
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "floats":
            return [float(p) for p in raw.split(",") if p.strip()]
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return raw.strip()
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not a valid {kind}") from None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def load_config_file(path: str) -> dict:
    """Raw {section: {key: string}} from a manifest or an echoed summary.

    A .json file may be either a summary.json (its echoed manifest is
    read back) or a bare {section: {key: value}} object.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    if path.endswith(".json"):
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: not valid JSON ({e})") from None
        if isinstance(doc, dict) and "cli_config" in doc:
            doc = doc["cli_config"]
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        bad = [s for s in doc if s not in _SECTIONS]
        if bad:
            raise ConfigError(
                f"{path}: unknown section(s) {bad}; expected {list(_SECTIONS)}"
            )
        for s, sec in doc.items():
            if not isinstance(sec, dict):
                raise ConfigError(f"{path}: section {s!r} must be an object")
        return {
            s: {str(k): _fmt(v) if not isinstance(v, str) else v
                for k, v in sec.items()}
            for s, sec in doc.items()
        }
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as f:
            parser.read_file(f)
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from None
    raw = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"{path}: unknown section [{section}]; expected {list(_SECTIONS)}"
            )
        raw[section] = dict(parser.items(section))
    return raw


def resolve(raw: dict, overrides: dict | None = None) -> dict:
    """Validated, default-filled {section: {key: string}} manifest.

    `overrides` maps (section, key) to a string value and wins over the
    file. Only keys that apply to the chosen target kind and control are
    kept, so the result is a complete, minimal description of the run.
    """
    merged = {s: dict(raw.get(s, {})) for s in _SECTIONS}
    for (section, key), value in (overrides or {}).items():
        if value is None:
            continue
        merged.setdefault(section, {})[key] = _fmt(value) if not isinstance(value, str) else value

    for section, keys in merged.items():
        schema = _SCHEMA[section]
        for key in keys:
            if key not in schema:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; "
                    f"known keys: {sorted(schema)}"
                )

    def get(section, key, required=False):
        schema_kind, default = _SCHEMA[section][key]
        raw_val = merged[section].get(key, default)
        if raw_val is None:
            if required:
                raise ConfigError(f"[{section}] {key} is required")
            return None
        return _parse_typed(section, key, schema_kind, raw_val)

    out = {s: {} for s in _SECTIONS}

    kind = get("target", "kind", required=True)
    if kind not in ("energy", "dataset"):
        raise ConfigError(
            f"[target] kind must be 'energy' or 'dataset', got {kind!r}"
        )
    out["target"]["kind"] = kind
    if kind == "dataset":
        out["target"]["data"] = get("target", "data", required=True)
        for key in ("energy", "dim", "sigma2", "mean", "stiffness", "side", "spacing"):
            if key in merged["target"]:
                raise ConfigError(f"[target] {key} does not apply to kind = dataset")
        control = get("run", "control") or "empirical"
        if control != "empirical":
            raise ConfigError(
                f"dataset targets use control = empirical, got {control!r}"
            )
    else:
        name = get("target", "energy", required=True)
        if name not in _ENERGIES:
            raise ConfigError(
                f"[target] energy must be one of {list(_ENERGIES)}, got {name!r}"
            )
        out["target"]["energy"] = name
        if "data" in merged["target"]:
            raise ConfigError("[target] data does not apply to kind = energy")
        if name == "gaussian-mixture":
            dim = get("target", "dim")
            if dim is not None and dim != 2:
                raise ConfigError("[target] the mixture grid is 2-dimensional")
            out["target"]["dim"] = 2
            out["target"]["side"] = get("target", "side") or 3
            out["target"]["spacing"] = s = get("target", "spacing")
            out["target"]["spacing"] = 5.0 if s is None else s
            s2 = get("target", "sigma2")
            out["target"]["sigma2"] = 0.5 if s2 is None else s2
            for key in ("mean", "stiffness"):
                if key in merged["target"]:
                    raise ConfigError(
                        f"[target] {key} does not apply to gaussian-mixture"
                    )
        else:
            dim = get("target", "dim", required=True)
            if dim < 1:
                raise ConfigError(f"[target] dim must be >= 1, got {dim}")
            out["target"]["dim"] = dim
            for key in ("side", "spacing"):
                if key in merged["target"]:
                    raise ConfigError(f"[target] {key} applies to gaussian-mixture only")
            if name == "gaussian":
                s2 = get("target", "sigma2")
                out["target"]["sigma2"] = 1.0 if s2 is None else s2
                mean = get("target", "mean")
                out["target"]["mean"] = 0.0 if mean is None else mean
                if "stiffness" in merged["target"]:
                    raise ConfigError("[target] stiffness applies to double-well only")
            else:
                a = get("target", "stiffness")
                out["target"]["stiffness"] = 1.0 if a is None else a
                for key in ("sigma2", "mean"):
                    if key in merged["target"]:
                        raise ConfigError(f"[target] {key} applies to gaussian only")
        control = get("run", "control") or "uhis"
        if control not in _CONTROLS:
            raise ConfigError(
                f"[run] control must be one of {list(_CONTROLS)}, got {control!r}"
            )

    beta = get("potential", "beta")
    out["potential"]["beta"] = beta if beta else [0.0]

    out["run"]["samples"] = get("run", "samples", required=True)
    out["run"]["steps"] = get("run", "steps", required=True)
    out["run"]["seed"] = get("run", "seed")
    out["run"]["control"] = control
    if control == "uhis":
        for key in ("n_is", "reuse_probe_noise"):
            out["run"][key] = get("run", key)
    elif control == "oracle":
        for key in ("quad_lo", "quad_hi", "quad_n"):
            out["run"][key] = get("run", key)
    o = get("run", "out")
    if o is not None:
        out["run"]["out"] = o
    for key in ("record", "record_every"):
        out["run"][key] = get("run", key)

    return {s: {k: _fmt(v) for k, v in sec.items()} for s, sec in out.items()}


def build_run_config(normalized: dict, threads: int = 1) -> RunConfig:
    """RunConfig (plus constructed target) from a normalized manifest."""
    def val(section, key, default=None):
        raw_val = normalized[section].get(key)
        if raw_val is None:
            return default
        kind = _SCHEMA[section][key][0]
        return _parse_typed(section, key, kind, raw_val)

    tgt = normalized["target"]
    energy = dataset = None
    if tgt["kind"] == "dataset":
        dataset = tgt["data"]
    else:
        name = tgt["energy"]
        if name == "gaussian-mixture":
            energy = grid_mixture(
                side=val("target", "side"),
                spacing=val("target", "spacing"),
                sigma2=val("target", "sigma2"),
            )
        elif name == "gaussian":
            energy = GaussianEnergy(
                val("target", "dim"),
                sigma2=val("target", "sigma2"),
                mean=val("target", "mean"),
            )
        else:
            energy = DoubleWellEnergy(
                val("target", "dim"), stiffness=val("target", "stiffness")
            )

    beta_list = val("potential", "beta", [0.0])
    beta = beta_list[0] if len(beta_list) == 1 else np.asarray(beta_list)

    control = val("run", "control")
    mode = _CONTROL_MODES[control]
    steps = val("run", "steps")
    record = val("run", "record", 0)
    sde = SdeConfig(
        n_steps=steps,
        seed=val("run", "seed", 0),
        record_every=val("run", "record_every", 1),
    )
    uhis = None
    if mode == "uhis":
        uhis = UhisConfig(
            n_is=val("run", "n_is", 1000),
            reuse_probe_noise=val("run", "reuse_probe_noise", False),
        )
    quad = None
    if mode == "quadrature-oracle":
        quad = QuadratureGrid(
            lo=val("run", "quad_lo", -12.0),
            hi=val("run", "quad_hi", 12.0),
            n=val("run", "quad_n", 1601),
        )
    return RunConfig(
        n_samples=val("run", "samples"),
        sde=sde,
        beta=beta,
        energy=energy,
        dataset=dataset,
        control_mode=mode,
        uhis=uhis,
        quadrature=quad,
        out_dir=val("run", "out"),
        threads=threads,
        n_record=record,
    )

