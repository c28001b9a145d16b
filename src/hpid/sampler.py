"""Run orchestration: S independent controlled trajectories in, samples out.

A run draws every trajectory from its own counter-based noise rows (or
one shared probe panel per step), and every product over trajectory rows
runs on fixed-size row tiles, so the terminal array is bit-identical no
matter how the population is chunked or how many worker threads advance
the chunks, for every drift evaluator and for scalar or matrix beta.
Chunks bound the per-step working set (for a shared probe panel that
the energy weighs by panel_logw the (B, n_is) log-weight block, for
per-trajectory noise or any other energy the n_is * d probe draws per
trajectory, and for a dataset or a quadrature grid the
B x kernels._COL_TILE log-weights of one column tile) and give every
worker thread at least one chunk.

A run with out_dir writes terminals.bin, summary.json and trajectories.bin
(t, x, x-hat and ESS rows, streamed one recorded path at a time) in the
formats of targets; one stopped by an _ABORTING error writes an
"aborted" summary.json before it raises.

Energy-mode runs also estimate the partition function from the same
trajectories. Each path's exact log weight against the uncontrolled
harmonic reference (see sde) combines with the terminal factors into one
weight per path:

    log z_s = log_weight_s - E(x_K) - log G_plus(1; x_K; 0).

Its mean is Z at any step count and any beta. Averaging exp(log z_s) in
a scaled domain gives the estimate and its standard error. Under the
exact optimal control the weight is constant across paths (zero
variance); under approximate control the variance grows, not the bias.
"""

import dataclasses
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .control import (
    LOW_ESS,
    EmpiricalControlEvaluator,
    EmpiricalTarget,
    QuadratureControlEvaluator,
    QuadratureGrid,
    UhisConfig,
    UhisControlEvaluator,
)
from .errors import AccuracyError, ConfigError, IntegrationError
from .kernels import _COL_TILE, _ROW_TILE, ScalarBeta, decompose, log_g_plus
from .sde import SdeConfig, integrate_batch
from .targets import Energy, _write_container, _write_json, load_dataset, save_dataset

_ENERGY_MODES = ("uhis", "quadrature-oracle")
_CHUNK_ELEMENTS = 4_000_000  # per-step working-set budget (doubles)
_ABORTING = (IntegrationError, AccuracyError)  # errors that leave an aborted summary


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
    n_record: int = 0  # leading trajectories written to trajectories.bin


@dataclass
class RunSummary:
    terminals: np.ndarray  # (S, d)
    z_estimate: float | None
    z_stderr: float | None
    ess_min: np.ndarray  # (S,) per-trajectory minimum ESS
    min_ess: float
    config: dict
    config_hash: str


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


def _canonical_config(cfg: RunConfig, dim: int, target_desc: dict) -> dict:
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
        },
    }
    if cfg.uhis is not None and cfg.control_mode == "uhis":
        c["uhis"] = {
            "n_is": int(cfg.uhis.n_is),
            "reuse_probe_noise": bool(cfg.uhis.reuse_probe_noise),
            "t_min": float(cfg.uhis.t_min),
        }
    if cfg.quadrature is not None and cfg.control_mode == "quadrature-oracle":
        c["quadrature"] = dataclasses.asdict(cfg.quadrature)
    return c


def config_sha(canonical: dict) -> str:
    """SHA-256 of a config mapping's sorted, compact JSON."""
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _validate_and_build(cfg: RunConfig):
    """Returns (params, dim, evaluator, energy, target_desc)."""
    if cfg.n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {cfg.n_samples}")
    if cfg.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
    if cfg.n_record < 0:
        raise ConfigError(f"record must be >= 0, got {cfg.n_record}")
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


def _chunk_size(evaluator, dim: int, threads: int = 1, n_samples: int = 0) -> int:
    """Trajectories per chunk for the built drift evaluator, a row set's in
    whole 16-row tiles; with threads > 1, also few enough that n_samples
    make at least `threads` chunks, rounded up to whole 16-row tiles."""
    if isinstance(evaluator, UhisControlEvaluator):
        # a shared panel weighed by panel_logw holds one (n_is,) log-weight
        # row per trajectory; any other probe draws an (n_is, d) block each
        shared = evaluator.reuse_probe_noise and hasattr(evaluator.energy, "panel_logw")
        per_row = evaluator.cfg.n_is * (1 if shared else dim)
        chunk = max(1, _CHUNK_ELEMENTS // max(1, per_row))
    else:
        chunk = max(1, _CHUNK_ELEMENTS // (_COL_TILE * _ROW_TILE)) * _ROW_TILE
    if threads > 1:
        tiles = max(1, -(-n_samples // (threads * _ROW_TILE)))
        chunk = min(chunk, tiles * _ROW_TILE)
    return chunk


def _log_z_terms(params, energy, batch):
    e_term = np.asarray(energy.value(batch.terminals), dtype=float)
    g_term = log_g_plus(params, 1.0, batch.terminals, np.zeros(params.dim))
    return batch.log_weight - e_term - g_term


def _write_summary(out_dir: str, canonical: dict, doc: dict) -> None:
    """summary.json: doc (the run's status and its fields), config, config_sha256."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {**doc, "config": canonical, "config_sha256": config_sha(canonical)}
    _write_json(os.path.join(out_dir, "summary.json"), doc)


def _write_outputs(out: str, summary: RunSummary, batches, starts):
    os.makedirs(out, exist_ok=True)
    save_dataset(os.path.join(out, "terminals.bin"), summary.terminals)
    recorded = [s + int(j) for b, s in zip(batches, starts) for j in b.record_indices]
    if recorded:
        # one (R, 2d + 2) block per recorded path, in sample order
        blocks = (
            np.column_stack([b.times, b.states[j], b.weighted_states[j], b.ess_series[j]])
            for b in batches
            for j in range(len(b.record_indices))
        )
        rows, d = len(recorded) * len(batches[0].times), summary.terminals.shape[1]
        _write_container(os.path.join(out, "trajectories.bin"), rows, 2 * d + 2, blocks)
    ess = summary.ess_min
    finite = ess[np.isfinite(ess)]
    doc = {
        "status": "complete",
        "n_samples": int(summary.terminals.shape[0]),
        "dim": int(summary.terminals.shape[1]),
        "z_estimate": summary.z_estimate,
        "z_stderr": summary.z_stderr,
        "min_ess": summary.min_ess,
        "ess_min_median": float(np.median(finite)) if finite.size else None,
        "low_ess_fraction": float((finite < LOW_ESS).mean()) if finite.size else None,
        "terminals": "terminals.bin",
        "trajectories": "trajectories.bin" if recorded else None,
        "recorded": recorded,
    }
    _write_summary(out, summary.config, doc)


def run(cfg: RunConfig) -> RunSummary:
    """Simulate cfg.n_samples independent trajectories and collect results."""
    params, dim, evaluator, energy, desc = _validate_and_build(cfg)
    canonical = _canonical_config(cfg, dim, desc)
    chash = config_sha(canonical)
    S = cfg.n_samples
    chunk = _chunk_size(evaluator, dim, cfg.threads, S)
    starts = list(range(0, S, chunk))

    def _one(start: int):
        size = min(chunk, S - start)
        rec = [i - start for i in range(start, start + size) if i < cfg.n_record]
        return integrate_batch(
            cfg.sde,
            evaluator,
            dim,
            n_trajectories=size,
            first_trajectory=start,
            params=params,
            record=rec if rec else "none",
        )

    batches = []
    try:
        # extend keeps, in order, the chunks finished before a failing one
        if cfg.threads > 1 and len(starts) > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                batches.extend(pool.map(_one, starts))
        else:
            batches.extend(map(_one, starts))
    except _ABORTING as err:
        if cfg.out_dir is not None:
            doc = {
                "status": "aborted",
                "error": str(err),
                "failed_step": getattr(err, "step", None),
                "failed_trajectory": getattr(err, "trajectory", None),
                "trajectories_completed": sum(b.terminals.shape[0] for b in batches),
            }
            _write_summary(cfg.out_dir, canonical, doc)
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

    summary = RunSummary(
        terminals=terminals,
        z_estimate=z,
        z_stderr=z_se,
        ess_min=ess_min,
        min_ess=min_ess,
        config=canonical,
        config_hash=chash,
    )
    if cfg.out_dir is not None:
        _write_outputs(cfg.out_dir, summary, batches, starts)
    return summary


def estimate_z_convergence(
    cfg: RunConfig, steps_list, samples_list, n_repeats: int
) -> list[dict]:
    """Repeat runs across step-count and sample-count sweeps.

    Returns boxplot-ready rows {sweep, setting, repeat, z}; the steps
    sweep holds n_samples at cfg.n_samples, the samples sweep holds
    n_steps at cfg.sde.n_steps. Every (setting, repeat) cell gets its own
    seed derived from cfg.sde.seed. Energy targets only: a dataset target
    has no partition function.
    """
    steps_list = list(steps_list)
    samples_list = list(samples_list)
    if not steps_list and not samples_list:
        raise ConfigError("at least one sweep list must be nonempty")
    if n_repeats < 1:
        raise ConfigError(f"n_repeats must be >= 1, got {n_repeats}")
    if cfg.dataset is not None:
        raise ConfigError("a dataset target has no partition function")

    rows = []
    setting_index = 0
    for sweep, values in (("steps", steps_list), ("samples", samples_list)):
        for value in values:
            steps, samples = (
                (int(value), cfg.n_samples)
                if sweep == "steps"
                else (cfg.sde.n_steps, int(value))
            )
            for rep in range(n_repeats):
                seed = cfg.sde.seed + 1_000_003 * setting_index + rep
                sde_cfg = dataclasses.replace(cfg.sde, n_steps=steps, seed=seed)
                sub = dataclasses.replace(
                    cfg, sde=sde_cfg, n_samples=samples, out_dir=None, n_record=0
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
