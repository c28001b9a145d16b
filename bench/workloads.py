"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks that decide whether its outputs are right.

Each workload has four steps. `setup` builds the inputs (and writes the
dataset file, where there is one). `operate` is the timed repetition; it
catches every error of an operation, because a failed operation is
counted, not fatal. `judge` checks the outputs after the clock stops.
`traffic` checks, on a traced repetition, that the layers the workload was
chosen for did the work and the layers it bypasses did none. `primer`
gives a short version of the workload that allocates arrays of the same
width; the benchmark runs it once, untimed, so that the allocator is warm
before the clock starts.
"""

import hashlib
import io
import json
import os
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import hpid
import hpid.cli
import hpid.sampler
from spans import wide_step_split


@dataclass
class Outcome:
    """What one repetition produced, as judged after the clock stopped."""

    attempted: int  # operations: each `run` or CLI call
    failed: int  # raised, exited non-zero, or failed its correctness check
    samples: int  # terminal samples produced
    digest: str  # sha256 of the terminals, in order
    info: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _error(e):
    return f"{type(e).__name__}: {e}"


@contextmanager
def _captured_runs():
    """Record every `hpid.sampler.run` made inside the block, in order.

    estimate_z_convergence returns only Z per setting; the terminals are
    needed for the digest. A run that raised is left as None.
    """
    inner = hpid.sampler.run
    summaries = []

    def capture(cfg):
        summaries.append(None)
        summaries[-1] = inner(cfg)
        return summaries[-1]

    hpid.sampler.run = capture
    try:
        yield summaries
    finally:
        hpid.sampler.run = inner


def _count_check(metrics, name, expected):
    got = metrics[name]
    if got != expected:
        return [f"{name} is {got}, expected {expected}"]
    return []


class MixtureSweepShared:
    name = "mixture-sweep-shared"
    why = (
        "shared probe panels over 7 short runs: panel_logw, softmax and per-run "
        "set-up do the work; log_kernel_ratio runs only on wide-probe steps"
    )

    def __init__(
        self,
        steps=(25, 50, 100, 200),
        samples=(250, 500, 1000),
        base_samples=500,
        base_steps=100,
        n_is=1000,
        z_tol=0.10,
    ):
        self.steps = list(steps)
        self.samples = list(samples)
        self.base_samples = base_samples
        self.base_steps = base_steps
        self.n_is = n_is
        self.z_tol = z_tol

    def primer(self):
        return MixtureSweepShared(
            steps=(4,), samples=(max(self.samples),), base_samples=self.base_samples,
            base_steps=4, n_is=self.n_is,
        )

    def setup(self, seed, workdir):
        energy = hpid.grid_mixture()
        cfg = hpid.RunConfig(
            n_samples=self.base_samples,
            sde=hpid.SdeConfig(n_steps=self.base_steps, seed=seed),
            beta=0.5,
            energy=energy,
            control_mode="uhis",
            uhis=hpid.UhisConfig(n_is=self.n_is, reuse_probe_noise=True),
            threads=1,
        )
        return {"cfg": cfg, "energy": energy}

    def operate(self, inputs, rep_dir):
        error = None
        with _captured_runs() as summaries:
            try:
                rows = hpid.estimate_z_convergence(
                    inputs["cfg"], self.steps, self.samples, 1
                )
            except Exception as e:
                rows, error = [], _error(e)
        return {"summaries": summaries, "rows": rows, "error": error}

    def judge(self, inputs, raw):
        done = [s for s in raw["summaries"] if s is not None]
        # an error before the first run still counts as one failed operation
        attempted = max(1, len(raw["summaries"]))
        out = Outcome(
            attempted=attempted,
            failed=attempted - len(done),
            samples=sum(s.terminals.shape[0] for s in done),
            digest=_digest(s.terminals for s in done),
        )
        if raw["error"]:
            out.problems.append(raw["error"])
        z_true = hpid.mixture_partition_oracle(inputs["energy"])
        out.info["z_oracle"] = z_true
        for sweep, values in (("steps", self.steps), ("samples", self.samples)):
            finest = max(values)
            for r in raw["rows"]:
                if r["sweep"] == sweep and r["setting"] == finest:
                    err = abs(r["z"] / z_true - 1.0)
                    out.info[f"z_rel_err_{sweep}={finest}"] = err
                    if not err < self.z_tol:
                        out.failed += 1
                        out.problems.append(
                            f"{sweep}={finest}: |Z/oracle - 1| = {err:.4f} >= {self.z_tol}"
                        )
        return out

    def traffic(self, tracer, metrics):
        # the probe is widened while t <= dt, and a wide probe takes the
        # generic kernel-ratio path; every later step uses the shared panel
        early, late = wide_step_split(tracer)
        return _count_check(metrics, "kernels.log_kernel_ratio.calls", early) + (
            _count_check(metrics, "targets.panel_logw.calls", late)
        )


class EmpiricalCliRecord:
    name = "empirical-cli-record"
    why = (
        "CLI sample-empirical with every path recorded, then diagnose: the output "
        "layer writes and reads back CSV; dataset log_kernel_ratio; no energy or probe"
    )

    # About 2 s per repetition, so that a run's median is taken over about
    # 20 of them. The many rows keep the share of CSV formatting, whose
    # speed swings most with the load on the machine, near a fifth.
    def __init__(self, rows=4000, dim=25, steps=100, samples=50, bootstrap=1000):
        self.rows = rows
        self.dim = dim
        self.steps = steps
        self.samples = samples
        self.bootstrap = bootstrap

    def primer(self):
        # full steps, a tenth of the paths: each trajectory CSV has full size
        return EmpiricalCliRecord(
            rows=self.rows, dim=self.dim, steps=self.steps,
            samples=max(2, self.samples // 10), bootstrap=self.bootstrap,
        )

    def setup(self, seed, workdir):
        rows = np.random.default_rng(seed).normal(size=(self.rows, self.dim)) * 5.0
        path = os.path.join(workdir, "rows.bin")
        hpid.save_dataset(path, rows)
        return {"rows": rows, "path": path, "seed": seed}

    def operate(self, inputs, rep_dir):
        out = os.path.join(rep_dir, "run")
        calls = [
            ["sample-empirical", "--data", inputs["path"], "--beta", "1.0",
             "--steps", str(self.steps), "--samples", str(self.samples),
             "--seed", str(inputs["seed"]), "--out", out, "--record-weighted",
             "--threads", "1"],
            ["diagnose", "--run", out, "--bootstrap", str(self.bootstrap)],
        ]
        codes = []
        log = io.StringIO()
        with redirect_stdout(log), redirect_stderr(log):
            for argv in calls:
                try:
                    codes.append(hpid.cli.main(argv))
                except Exception as e:
                    codes.append(_error(e))
        return {"out": out, "codes": codes, "log": log.getvalue()}

    def judge(self, inputs, raw):
        codes = raw["codes"]
        out = Outcome(attempted=2, failed=0, samples=0, digest=_digest([]))
        for problems in (
            self._judge_sample(inputs, out, codes[0], raw),
            self._judge_diagnose(out, codes[1], raw),
        ):
            out.failed += int(bool(problems))
            out.problems += problems
        return out

    def _judge_sample(self, inputs, out, code, raw):
        from scipy.spatial.distance import cdist, pdist

        if code != 0:
            return [f"sample-empirical exited {code}: {raw['log'][-300:]}"]
        try:
            terminals = hpid.load_dataset(os.path.join(raw["out"], "terminals.bin")).samples
        except (OSError, hpid.HpidError) as e:
            return [f"sample-empirical exited 0 but its terminals are unreadable: {_error(e)}"]
        out.samples = terminals.shape[0]
        out.digest = _digest([terminals])
        rows = inputs["rows"]
        if "radius" not in inputs:  # the same for every repetition
            inputs["radius"] = 0.5 * float(pdist(rows).min())
        radius = inputs["radius"]
        d = cdist(terminals, rows)
        hits = (d < radius).sum(axis=1)
        out.info.update(radius=radius, max_nearest=float(d.min(axis=1).max()))
        if not np.all(hits == 1):
            return [
                f"{int((hits != 1).sum())} terminals are not within {radius:.3g} "
                "of exactly one row"
            ]
        return []

    def _judge_diagnose(self, out, code, raw):
        if code != 0:
            return [f"diagnose exited {code}: {raw['log'][-300:]}"]
        try:
            with open(os.path.join(raw["out"], "transition.json")) as f:
                gap = json.load(f).get("bootstrap_gap") or {}
        except (OSError, ValueError) as e:
            return [f"diagnose exited 0 but transition.json is unreadable: {_error(e)}"]
        out.info.update(gap=gap.get("gap"), gap_p5=gap.get("p5"))
        if not (gap.get("p5") is not None and gap["p5"] >= 0.0):
            return [f"bootstrap_gap.p5 is {gap.get('p5')}, expected >= 0"]
        return []

    def traffic(self, tracer, metrics):
        return (
            _count_check(metrics, "targets.panel_logw.calls", 0)
            + _count_check(metrics, "targets.value.points", 0)
            + _count_check(
                metrics, "kernels.log_kernel_ratio.calls", metrics["control.eval.calls"]
            )
        )


WORKLOADS = {w.name: w for w in (MixtureSweepShared(), EmpiricalCliRecord())}

# the same workloads at a size that runs in seconds, for self-tests
SMOKE = {
    w.name: w
    for w in (
        MixtureSweepShared(steps=(4, 8), samples=(8, 16), base_samples=8, base_steps=4, n_is=50),
        EmpiricalCliRecord(rows=12, dim=5, steps=20, samples=6, bootstrap=50),
    )
}
