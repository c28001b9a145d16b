"""Run orchestration: S independent controlled trajectories in, samples out.

A run draws every trajectory from its own counter-based noise rows, so
the terminal array is bit-identical no matter how the population is
chunked or how many worker threads advance the chunks. Chunks exist only
to bound the per-step working set (probe draws dominate: n_is * d
doubles per trajectory per step).

Energy-mode runs also estimate the partition function from the same
trajectories. Each path carries its likelihood ratio against the
uncontrolled reference process (Girsanov sum for the drift, left-Riemann
sum for the quadratic potential), which combines with the terminal
factors into one unbiased-in-discrete-time weight per path:

    log z_s = girsanov_s - potential_s - E(x_K) - log G_plus(1; x_K; 0).

Averaging exp(log z_s) in a scaled domain gives the estimate and its
standard error. Under the exact optimal control the weight is constant
across paths (zero variance); under approximate control the variance,
not the mean, grows. The estimate is exact for beta = 0 at any step
count and carries an O(1/K) discretization bias otherwise.
"""

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .control import (
    EmpiricalControlEvaluator,
    EmpiricalTarget,
    QuadratureControlEvaluator,
    QuadratureGrid,
    UhisConfig,
    UhisControlEvaluator,
)
from .errors import AccuracyError, ConfigError, IntegrationError
from .kernels import ScalarBeta, decompose, log_g_plus
from .sde import SdeConfig, integrate_batch
from .targets import Energy, load_dataset, save_dataset

_ENERGY_MODES = ("uhis", "quadrature-oracle")
_CHUNK_ELEMENTS = 4_000_000  # per-step working-set budget (doubles)


@dataclass
class RunConfig:
    n_samples: int
    sde: SdeConfig
    beta: float | np.ndarray = 0.0
    energy: Energy | None = None
    dataset: EmpiricalTarget | str | None = None
    control_mode: str = "uhis"
    uhis: UhisConfig | None = None
    quadrature: QuadratureGrid | None = None
    out_dir: str | None = None
    threads: int = 1
    early_exit: bool = False
    n_record: int = 0  # leading trajectories written as CSV


@dataclass
class RunSummary:
    terminals: np.ndarray  # (S, d)
    z_estimate: float | None
    z_stderr: float | None
    seed: int
    n_steps: int
    ess_min: np.ndarray  # (S,) per-trajectory minimum ESS
    min_ess: float
    config: dict
    config_hash: str
    out_dir: str | None
    early_terminals: np.ndarray | None  # weighted state at the last step


def _resolve_beta(beta, dim: int):
    """The potential for a scalar, a per-axis list, or a full matrix beta."""
    b = np.asarray(beta, dtype=float)
    if b.ndim == 0:
        return ScalarBeta(beta=float(b), dim=dim)
    p = decompose(np.diag(b) if b.ndim == 1 else b)
    if p.dim != dim:
        raise ConfigError(f"beta has dim {p.dim}, target has dim {dim}")
    return p


def _describe_energy(e: Energy) -> dict:
    d = {"class": type(e).__name__, "dim": int(e.dim)}
    for k, v in vars(e).items():
        if k.startswith("_") or k == "dim":
            continue
        if isinstance(v, (int, float, str, bool)):
            d[k] = v
        elif isinstance(v, np.ndarray):
            d[k] = v.tolist()
    return d


def _canonical_config(cfg: RunConfig, params, dim: int, target_desc: dict) -> dict:
    beta = np.asarray(cfg.beta, dtype=float)
    c = {
        "n_samples": int(cfg.n_samples),
        "dim": dim,
        "beta": float(beta) if beta.ndim == 0 else beta.tolist(),
        "control_mode": cfg.control_mode,
        "target": target_desc,
        "sde": {
            "n_steps": int(cfg.sde.n_steps),
            "seed": int(cfg.sde.seed),
            "record_every": int(cfg.sde.record_every),
            "record_weighted_state": bool(cfg.sde.record_weighted_state),
        },
        "early_exit": bool(cfg.early_exit),
    }
    if cfg.uhis is not None and cfg.control_mode == "uhis":
        c["uhis"] = {
            "n_is": int(cfg.uhis.n_is),
            "reuse_probe_noise": bool(cfg.uhis.reuse_probe_noise),
            "t_min": float(cfg.uhis.t_min),
            "wide_sigma2": float(cfg.uhis.wide_sigma2),
        }
    if cfg.quadrature is not None and cfg.control_mode == "quadrature-oracle":
        g = cfg.quadrature
        c["quadrature"] = {"lo": g.lo, "hi": g.hi, "n": g.n}
    return c


def _config_hash(canonical: dict) -> str:
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _validate_and_build(cfg: RunConfig):
    """Returns (params, dim, evaluator, energy, target_desc)."""
    if cfg.n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {cfg.n_samples}")
    if cfg.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
    has_energy = cfg.energy is not None
    has_dataset = cfg.dataset is not None
    if has_energy == has_dataset:
        raise ConfigError("exactly one of energy or dataset must be given")
    mode = cfg.control_mode
    if has_dataset:
        if mode != "empirical":
            raise ConfigError(
                f"dataset targets require control_mode 'empirical', got {mode!r}"
            )
        target = (
            load_dataset(cfg.dataset) if isinstance(cfg.dataset, str) else cfg.dataset
        )
        dim = target.dim
        desc = {"kind": "dataset", "count": target.count, "dim": dim}
        if isinstance(cfg.dataset, str):
            desc["path"] = os.path.basename(cfg.dataset)
    else:
        if mode not in _ENERGY_MODES:
            raise ConfigError(
                f"energy targets require control_mode in {_ENERGY_MODES}, got {mode!r}"
            )
        dim = cfg.energy.dim
        desc = {"kind": "energy", **_describe_energy(cfg.energy)}

    params = _resolve_beta(cfg.beta, dim)

    if mode == "uhis":
        uhis = cfg.uhis if cfg.uhis is not None else UhisConfig(n_is=1000)
        if uhis.t_min <= 0.0:
            # probe degenerates inside the first step; widen exactly there
            uhis = dataclasses.replace(uhis, t_min=cfg.sde.dt)
        evaluator = UhisControlEvaluator(params, cfg.energy, uhis)
    elif mode == "quadrature-oracle":
        evaluator = QuadratureControlEvaluator(params, cfg.energy, cfg.quadrature)
    else:
        evaluator = EmpiricalControlEvaluator(params, target)
    energy = cfg.energy if has_energy else None
    return params, dim, evaluator, energy, desc


def _chunk_size(mode: str, cfg: RunConfig, dim: int, n_rows: int = 1) -> int:
    """Trajectories per chunk; n_rows is the dataset size S of an empirical run."""
    if mode == "uhis":
        n_is = cfg.uhis.n_is if cfg.uhis is not None else 1000
        return max(1, _CHUNK_ELEMENTS // max(1, n_is * dim))
    if mode == "quadrature-oracle":
        return 256  # per-row grid integrals; small chunks keep failures early
    return max(1, _CHUNK_ELEMENTS // n_rows)  # (B, S) kernel log-ratios


def _log_z_terms(params, energy, batch):
    e_term = np.asarray(energy.value(batch.terminals), dtype=float)
    g_term = log_g_plus(params, 1.0, batch.terminals, np.zeros(params.dim))
    return batch.log_girsanov - batch.potential_integral - e_term - g_term


def _write_aborted(cfg: RunConfig, canonical, err: Exception, done: int):
    if cfg.out_dir is None:
        return
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = {
        "status": "aborted",
        "error": str(err),
        "failed_step": getattr(err, "step", None),
        "failed_trajectory": getattr(err, "trajectory", None),
        "trajectories_completed": done,
        "config": canonical,
        "config_sha256": _config_hash(canonical),
    }
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def _write_outputs(cfg: RunConfig, summary: RunSummary, batches, starts):
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    save_dataset(os.path.join(out, "terminals.bin"), summary.terminals)
    traj_files = []
    for b, start in zip(batches, starts):
        for j, rel in enumerate(b.record_indices):
            name = f"trajectory_{start + int(rel)}.csv"
            traj_files.append(name)
            path = os.path.join(out, name)
            ws, ess = b.weighted_states[j], b.ess_series[j]
            _write_trajectory_csv(path, b.times, b.states[j], ws, ess)
    ess = summary.ess_min
    finite = ess[np.isfinite(ess)]
    doc = {
        "status": "complete",
        "config": summary.config,
        "config_sha256": summary.config_hash,
        "n_samples": int(summary.terminals.shape[0]),
        "dim": int(summary.terminals.shape[1]),
        "z_estimate": summary.z_estimate,
        "z_stderr": summary.z_stderr,
        "min_ess": summary.min_ess if np.isfinite(summary.min_ess) else None,
        "ess_min_median": float(np.median(finite)) if finite.size else None,
        "low_ess_fraction": float((finite < 1.5).mean()) if finite.size else None,
        "terminals": "terminals.bin",
        "trajectories": traj_files,
    }
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)


def _write_trajectory_csv(path: str, times, states, weighted, ess):
    """One row per recorded step: t, state, weighted state, ess."""
    d = states.shape[1]
    header = ",".join(
        ["t"] + [f"x{j}" for j in range(d)] + [f"xhat{j}" for j in range(d)] + ["ess"]
    )
    table = np.column_stack([times, states, weighted, ess])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def run(cfg: RunConfig) -> RunSummary:
    """Simulate cfg.n_samples independent trajectories and collect results."""
    params, dim, evaluator, energy, desc = _validate_and_build(cfg)
    canonical = _canonical_config(cfg, params, dim, desc)
    chash = _config_hash(canonical)
    S = cfg.n_samples
    chunk = _chunk_size(cfg.control_mode, cfg, dim, desc.get("count", 1))
    starts = list(range(0, S, chunk))
    # recorded rows are written with their weighted state
    sde_cfg = dataclasses.replace(cfg.sde, record_weighted_state=True)

    def _one(start: int):
        size = min(chunk, S - start)
        rec = [i - start for i in range(start, start + size) if i < cfg.n_record]
        return integrate_batch(
            sde_cfg,
            evaluator,
            dim,
            n_trajectories=size,
            first_trajectory=start,
            params=params,
            record=rec if rec else "none",
        )

    batches = []
    try:
        if cfg.threads > 1 and len(starts) > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                for b in pool.map(_one, starts):
                    batches.append(b)
        else:
            for s in starts:
                batches.append(_one(s))
    except (IntegrationError, AccuracyError) as err:
        # chunks are collected in order, so these precede the failing one
        done = sum(b.terminals.shape[0] for b in batches)
        _write_aborted(cfg, canonical, err, done=done)
        raise

    terminals = np.concatenate([b.terminals for b in batches], axis=0)
    ess_min = np.concatenate([b.ess_min_per for b in batches])
    min_ess = float(ess_min.min())

    z = z_se = None
    if energy is not None:
        log_z = np.concatenate([_log_z_terms(params, energy, b) for b in batches])
        m = float(log_z.max())
        scaled = np.exp(log_z - m)
        z = float(np.exp(m) * scaled.mean())
        if S > 1:
            z_se = float(np.exp(m) * scaled.std(ddof=1) / np.sqrt(S))
        else:
            z_se = float("nan")

    early = None
    if cfg.early_exit:
        if any(b.terminal_weighted is None for b in batches):
            raise ConfigError(
                "early_exit requires a control that reports its weighted state"
            )
        early = np.concatenate([b.terminal_weighted for b in batches], axis=0)

    summary = RunSummary(
        terminals=terminals,
        z_estimate=z,
        z_stderr=z_se,
        seed=cfg.sde.seed,
        n_steps=cfg.sde.n_steps,
        ess_min=ess_min,
        min_ess=min_ess,
        config=canonical,
        config_hash=chash,
        out_dir=cfg.out_dir,
        early_terminals=early,
    )
    if cfg.out_dir is not None:
        _write_outputs(cfg, summary, batches, starts)
    return summary


def estimate_z_convergence(
    cfg: RunConfig, steps_list, samples_list, n_repeats: int
) -> list[dict]:
    """Repeat runs across step-count and sample-count sweeps.

    Returns boxplot-ready rows {sweep, setting, repeat, z}; the steps
    sweep holds n_samples at cfg.n_samples, the samples sweep holds
    n_steps at cfg.sde.n_steps. Every (setting, repeat) cell gets its own
    seed derived from cfg.sde.seed.
    """
    steps_list = list(steps_list)
    samples_list = list(samples_list)
    if not steps_list and not samples_list:
        raise ConfigError("at least one sweep list must be nonempty")
    if n_repeats < 1:
        raise ConfigError(f"n_repeats must be >= 1, got {n_repeats}")

    rows = []
    setting_index = 0
    for sweep, values in (("steps", steps_list), ("samples", samples_list)):
        for value in values:
            for rep in range(n_repeats):
                seed = cfg.sde.seed + 1_000_003 * setting_index + rep
                if sweep == "steps":
                    sde_cfg = dataclasses.replace(
                        cfg.sde, n_steps=int(value), seed=seed
                    )
                    sub = dataclasses.replace(
                        cfg, sde=sde_cfg, out_dir=None, n_record=0
                    )
                else:
                    sde_cfg = dataclasses.replace(cfg.sde, seed=seed)
                    sub = dataclasses.replace(
                        cfg,
                        sde=sde_cfg,
                        n_samples=int(value),
                        out_dir=None,
                        n_record=0,
                    )
                out = run(sub)
                rows.append(
                    {
                        "sweep": sweep,
                        "setting": int(value),
                        "repeat": rep,
                        "z": out.z_estimate,
                    }
                )
            setting_index += 1
    return rows
