"""Command-line front end.

Subcommands:
  sample-energy     sample a built-in energy target from a manifest file
  sample-empirical  sample toward rows of a dataset file
  estimate-z        repeat runs across step/sample sweeps, tabulate Z
  diagnose          overlap curves and mode coverage for a recorded run
  oracle-check      UhisControlEvaluator vs QuadratureControlEvaluator,
                    one evaluator each, on a 1-d double well

Exit codes: 0 success; 2 bad configuration, schema, or input file (a
malformed summary.json or trajectories.bin, an unwritable --out);
3 numerical failure (diverged trajectory, accuracy contract missed).
A sampling run's summary.json, complete or aborted, echoes its resolved
manifest (subcommand, cli_config); passed back to sample-energy --config,
it reruns the run. The printed config sha256 is the run's config_sha256,
which does not depend on the output directory.

Worker threads come from --threads, else the HPID_THREADS environment
variable, else the number of CPUs the process may run on (its affinity
mask where the platform has one, else every CPU). Thread count never
changes results; it only changes wall time. With more than one worker,
run with OPENBLAS_NUM_THREADS=1: BLAS threads compete with the workers.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import (
    _ECHO,
    _ENERGY_CONTROLS,
    build_run_config,
    load_config_file,
    resolve,
)
from .control import LOW_ESS, QuadratureControlEvaluator, UhisConfig, UhisControlEvaluator
from .diagnostics import (
    autocorrelation,
    bootstrap_transition_gap,
    mode_assignment,
    transition_time,
    write_autocorr_csv,
    write_modes_csv,
    write_transition_json,
)
from .errors import (
    AccuracyError,
    ConfigError,
    DegenerateProbeGaussianError,
    DomainError,
    FormatError,
    InputError,
    IntegrationError,
)
from .kernels import ScalarBeta
from .rng import normals_from
from .sampler import _ABORTING, estimate_z_convergence, run
from .targets import (
    DoubleWellEnergy,
    GaussianMixtureEnergy,
    _read_trajectories,
    _write_csv,
    _write_json,
    load_dataset,
)


def _threads(flag):
    if flag is not None:
        v = flag
    elif os.environ.get("HPID_THREADS"):
        raw = os.environ["HPID_THREADS"]
        try:
            v = int(raw)
        except ValueError:
            raise ConfigError(f"HPID_THREADS={raw!r} is not an integer") from None
    elif hasattr(os, "sched_getaffinity"):
        v = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    else:
        v = os.cpu_count() or 1
    if v < 1:
        raise ConfigError(f"threads must be >= 1, got {v}")
    return v


def _list(text: str, flag: str, kind) -> list:
    """The comma-separated values of a flag, each parsed as kind (int or float)."""
    noun = "an integer" if kind is int else "a number"
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(kind(part))
        except ValueError:
            raise ConfigError(f"{flag}: {part!r} is not {noun}") from None
    return out


def _inject_echo(out_dir: str, subcommand: str, resolved: dict) -> None:
    """Add the subcommand and the resolved manifest to the run's summary.json."""
    path = os.path.join(out_dir, "summary.json")
    with open(path) as f:
        doc = json.load(f)
    _write_json(path, {**doc, "subcommand": subcommand, _ECHO: resolved})


def _run_manifest(subcommand: str, resolved: dict, threads: int) -> int:
    cfg = build_run_config(resolved, threads=threads)
    if cfg.out_dir is None:
        raise ConfigError(
            "an output directory is required (set [run] out or pass --out)"
        )
    try:
        summary = run(cfg)
    except _ABORTING:
        # an aborted summary carries the echo too, so it can be fed back
        _inject_echo(cfg.out_dir, subcommand, resolved)
        raise
    _inject_echo(cfg.out_dir, subcommand, resolved)
    s, d = summary.terminals.shape
    print(f"wrote {s} samples (dim {d}) to {cfg.out_dir}")
    if summary.z_estimate is not None:
        print(f"Z estimate: {summary.z_estimate:.6g} +- {summary.z_stderr:.3g}")
    print(f"min ESS: {summary.min_ess:.3g}")
    print(f"config sha256: {summary.config_hash}")
    return 0


def _cmd_sample_energy(args) -> int:
    raw = load_config_file(args.config)
    overrides = {
        ("potential", "beta"): args.beta,
        ("run", "steps"): args.steps,
        ("run", "n_is"): args.n_is,
        ("run", "samples"): args.samples,
        ("run", "seed"): args.seed,
        ("run", "out"): args.out,
        ("run", "control"): args.control,
    }
    resolved = resolve(raw, overrides)
    return _run_manifest("sample-energy", resolved, _threads(args.threads))


def _cmd_sample_empirical(args) -> int:
    if not os.path.exists(args.data):
        raise ConfigError(f"dataset file not found: {args.data}")
    raw = {
        "target": {"kind": "dataset", "data": args.data},
        "potential": {"beta": args.beta},
        "run": {
            "samples": str(args.samples),
            "steps": str(args.steps),
            "seed": str(args.seed),
            "out": args.out,
        },
    }
    if args.record_weighted:
        # record every trajectory so overlap diagnostics can be computed
        raw["run"]["record"] = str(args.samples)
    resolved = resolve(raw)
    return _run_manifest("sample-empirical", resolved, _threads(args.threads))


def _cmd_estimate_z(args) -> int:
    raw = load_config_file(args.config)
    resolved = resolve(raw)
    cfg = build_run_config(resolved, threads=_threads(args.threads))
    cfg = dataclasses.replace(cfg, out_dir=None, n_record=0)
    steps = _list(args.steps_list, "--steps-list", int)
    samples = _list(args.samples_list, "--samples-list", int)
    rows = estimate_z_convergence(cfg, steps, samples, args.repeats)
    table = [(r["sweep"], r["setting"], r["repeat"], r["z"]) for r in rows]
    path = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "zsweep.csv")
    _write_csv(path, "sweep,setting,repeat,z", "%s,%d,%d,%.17g", table)
    if path:
        print(f"wrote {len(rows)} rows to {path}")
    for sweep in ("steps", "samples"):
        settings = sorted({r["setting"] for r in rows if r["sweep"] == sweep})
        for s in settings:
            zs = np.array([r["z"] for r in rows if r["sweep"] == sweep and r["setting"] == s])
            q1, q3 = np.percentile(zs, [25, 75])
            print(
                f"{sweep}={s}: median Z {np.median(zs):.6g}, IQR {q3 - q1:.3g}",
                file=sys.stderr,
            )
    return 0


def _load_run_dir(run_dir: str):
    """(summary doc, terminal array) from a sampled output dir."""
    path = os.path.join(run_dir, "summary.json")
    if not os.path.exists(path):
        raise ConfigError(f"no summary.json in {run_dir}")
    try:
        with open(path) as f:
            doc = json.load(f)
    except ValueError as e:  # invalid JSON, or bytes that are not text
        raise FormatError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path} holds a JSON {type(doc).__name__}, not an object")
    if doc.get("status") != "complete":
        raise ConfigError(f"run in {run_dir} has status {doc.get('status')!r}")
    if not isinstance(doc.get("terminals"), str):
        raise FormatError(f"{path} lists terminals {doc.get('terminals')!r}, not a file name")
    target = load_dataset(_listed_file(run_dir, doc["terminals"]))
    return doc, target.samples


def _listed_file(run_dir: str, name: str) -> str:
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        raise FormatError(f"{path} is listed in summary.json but missing")
    return path


def _load_trajectories(run_dir: str, doc: dict, terminals: np.ndarray):
    """(times, states, weighted, terminals) of the run's trajectories.bin,
    or None when the run recorded none."""
    name = doc.get("trajectories")
    if not name:
        return None
    if not isinstance(name, str):
        path = os.path.join(run_dir, "summary.json")
        raise FormatError(f"{path} lists trajectories {name!r}, not a file name")
    path = _listed_file(run_dir, name)
    n = terminals.shape[0]
    # each recorded index pairs a block of rows with its terminal
    rows, seen = doc.get("recorded"), set()
    listed = isinstance(rows, list) and rows
    for i in rows if listed else [rows]:
        if not listed or type(i) is not int or not 0 <= i < n or i in seen:
            raise FormatError(
                f"{path}: recorded entry {i!r} is not a distinct sample index 0 <= i < {n}"
            )
        seen.add(i)
    t, states, weighted, _ = _read_trajectories(path, terminals.shape[1], rows)
    return t, states, weighted, terminals[rows]


def _mixture_from_doc(run_dir: str, doc: dict):
    """The mixture a run sampled, from the target its summary describes."""
    path = os.path.join(run_dir, "summary.json")
    desc = doc.get("config") or {}
    if isinstance(desc, dict):
        desc = desc.get("target") or {}
    if not isinstance(desc, dict):
        raise FormatError(f"{path}: config or its target is {desc!r}, not an object")
    if desc.get("class") != "GaussianMixtureEnergy":
        return None
    missing = ", ".join(k for k in ("centers", "sigma2", "weights") if k not in desc)
    if missing:
        raise FormatError(f"{path} describes a mixture target without {missing}")
    try:
        return GaussianMixtureEnergy(
            centers=np.asarray(desc["centers"], dtype=float),
            sigma2=float(desc["sigma2"]),
            weights=np.asarray(desc["weights"], dtype=float),
        )
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path} describes a mixture target that cannot be built: {e}") from None


def _cmd_diagnose(args) -> int:
    if args.bootstrap < 0:
        raise ConfigError(f"--bootstrap must be >= 0, got {args.bootstrap}")
    doc, terminals = _load_run_dir(args.run)
    recorded = _load_trajectories(args.run, doc, terminals)
    mixture = _mixture_from_doc(args.run, doc)
    if recorded is None and mixture is None:
        raise ConfigError(
            f"run in {args.run} recorded no trajectories and has no mode "
            "structure to report; rerun with record > 0"
        )
    out_dir = args.out or args.run
    os.makedirs(out_dir, exist_ok=True)
    if recorded is not None:
        series = autocorrelation(*recorded)
        boot = None
        if args.bootstrap > 0 and series.n_trajectories >= 2:
            boot = bootstrap_transition_gap(
                series, threshold=args.threshold, n_resamples=args.bootstrap
            )
        write_autocorr_csv(os.path.join(out_dir, "autocorr.csv"), series)
        path = os.path.join(out_dir, "transition.json")
        write_transition_json(path, series, threshold=args.threshold, bootstrap=boot)
        t_w = transition_time(series, args.threshold)
        print(f"trajectories: {series.n_trajectories}")
        print(f"weighted-state transition: {t_w:.6g}")
        if boot is not None:
            print(f"state transition: {t_w + boot['gap']:.6g} (gap {boot['gap']:.6g})")
    if mixture is not None:
        hist = mode_assignment(terminals, mixture)
        write_modes_csv(os.path.join(out_dir, "modes.csv"), hist)
        print(f"mode chi-square: {hist.chi2:.4g} over {hist.counts.size} modes")
    print(f"wrote diagnostics to {out_dir}")
    return 0


def _cmd_oracle_check(args) -> int:
    energy = DoubleWellEnergy(1, stiffness=args.stiffness)
    params = ScalarBeta(args.beta, 1)
    ts = _list(args.t_list, "--t-list", float)
    xs = _list(args.x_list, "--x-list", float)
    if not ts or not xs:
        raise ConfigError("--t-list and --x-list must be nonempty")
    uhis = UhisControlEvaluator(params, energy, UhisConfig(n_is=args.n_is))
    rng = np.random.default_rng(args.seed)
    quadrature = QuadratureControlEvaluator(params, energy)
    rows, outs = [], []
    for t in ts:
        u_qs = quadrature(t, np.array(xs)[:, None]).drift[:, 0]
        for x, u_q in zip(xs, u_qs.tolist()):
            outs.append(uhis(t, np.array([x]), normals_from(rng, (args.n_is, 1))))
            u_is = float(outs[-1].drift[0])
            err = abs(u_is - u_q)
            rel = err / abs(u_q) if abs(u_q) >= 0.05 else math.nan  # none for small controls
            rows.append((t, x, u_is, u_q, err, rel))
    header = "t,x,u_is,u_quadrature,abs_err,rel_err"
    _write_csv(args.out or None, header, "%g,%g,%.10g,%.10g,%.3g,%.3g", rows)
    if args.out:
        print(f"wrote {len(rows)} comparisons to {args.out}")
    table = np.array(rows)
    small = np.abs(table[:, 3]) < 0.05
    print(f"max relative control error: {np.max(table[~small, 5], initial=0.0):.4g}")
    print(f"max absolute error on small controls: {np.max(table[small, 4], initial=0.0):.4g}")
    print(f"min ESS: {min(float(o.ess) for o in outs):.4g}")
    # a row whose weight sits on one probe draw is not an estimate
    print(f"rows with ESS < {LOW_ESS}: {sum(bool(o.low_ess) for o in outs)} of {len(rows)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hpid",
        description="Sample target distributions by controlled diffusion.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    pe = sub.add_parser("sample-energy", help="sample a built-in energy target")
    pe.add_argument("--config", required=True, help="manifest file (or echoed summary.json)")
    pe.add_argument("--beta", help="override [potential] beta (scalar or comma list)")
    pe.add_argument("--steps", type=int, help="override [run] steps")
    pe.add_argument("--n-is", dest="n_is", type=int, help="override [run] n_is")
    pe.add_argument("--samples", type=int, help="override [run] samples")
    pe.add_argument("--seed", type=int, help="override [run] seed")
    pe.add_argument("--out", help="override [run] out")
    # no argparse choices: resolve() checks the name, so a bad one is a ConfigError
    pe.add_argument("--control", help=f"override [run] control: {', '.join(_ENERGY_CONTROLS)}")
    pe.add_argument("--threads", type=int, help="worker threads")
    pe.set_defaults(fn=_cmd_sample_energy)

    pd = sub.add_parser("sample-empirical", help="sample toward dataset rows")
    pd.add_argument("--data", required=True, help="dataset file (.csv or binary)")
    pd.add_argument("--beta", required=True, help="confinement (scalar or comma list)")
    pd.add_argument("--steps", required=True, type=int)
    pd.add_argument("--samples", required=True, type=int)
    pd.add_argument("--seed", required=True, type=int)
    pd.add_argument("--out", required=True)
    pd.add_argument(
        "--record-weighted",
        action="store_true",
        help="record every trajectory's state, weighted state and ESS, for diagnose",
    )
    pd.add_argument("--threads", type=int, help="worker threads")
    pd.set_defaults(fn=_cmd_sample_empirical)

    pz = sub.add_parser("estimate-z", help="partition-function sweeps")
    pz.add_argument("--config", required=True)
    pz.add_argument("--steps-list", default="25,50,100,200", help="comma list of K values")
    pz.add_argument("--samples-list", default="", help="comma list of S values")
    pz.add_argument("--repeats", type=int, default=8)
    pz.add_argument("--out", help="directory for zsweep.csv (default: print)")
    pz.add_argument("--threads", type=int, help="worker threads")
    pz.set_defaults(fn=_cmd_estimate_z)

    pg = sub.add_parser("diagnose", help="overlap curves for a recorded run")
    pg.add_argument("--run", required=True, help="output directory of a sample run")
    pg.add_argument("--threshold", type=float, default=0.5)
    pg.add_argument("--out", help="where to write diagnostics (default: run dir)")
    pg.add_argument("--bootstrap", type=int, default=1000, help="0 disables")
    pg.set_defaults(fn=_cmd_diagnose)

    po = sub.add_parser("oracle-check", help="control estimator vs quadrature")
    po.add_argument("--beta", type=float, default=0.5)
    po.add_argument("--stiffness", type=float, default=1.0)
    po.add_argument("--n-is", dest="n_is", type=int, default=100000)
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--t-list", default="0.05,0.25,0.45,0.65,0.85")
    po.add_argument("--x-list", default="-1.5,-0.5,0.5,1.5")
    po.add_argument("--out", help="CSV path (default: print)")
    po.set_defaults(fn=_cmd_oracle_check)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FormatError, InputError, DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (IntegrationError, AccuracyError, DegenerateProbeGaussianError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
