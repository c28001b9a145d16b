"""Outside-in spans around hpid's layers, and the per-layer metrics they give.

No file of the package is edited. A `Tracer` rebinds public names where
the calling module imported them (``hpid.sde.normal_rows``,
``hpid.control.log_kernel_ratio``, ...) or patches the method on its
class, so each call into a layer opens a span. The wrappers only time the
call and read the sizes of its arguments and result; they never touch the
arrays, so traced runs produce the same bits as untraced ones.

Spans nest through a single stack. The benchmark runs hpid with one worker
thread, so calls never overlap; a run with worker threads would need a
stack per thread.
"""

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "rng.normal_rows.calls": ("count", "lower"),
    "rng.normal_rows.self_s": ("s", "lower"),
    "rng.normal_rows.mb": ("MB", "lower"),
    "stationary.universal_probe.self_s": ("s", "lower"),
    "stationary.probe_draw.self_s": ("s", "lower"),
    "stationary.probe_draw.mb": ("MB", "lower"),
    "kernels.log_kernel_ratio.calls": ("count", "lower"),
    "kernels.log_kernel_ratio.self_s": ("s", "lower"),
    "kernels.log_kernel_ratio.pairs": ("count", "lower"),
    "targets.value.self_s": ("s", "lower"),
    "targets.value.points": ("count", "lower"),
    "targets.panel_logw.calls": ("count", "lower"),
    "targets.panel_logw.self_s": ("s", "lower"),
    "targets.panel_logw.entries": ("count", "lower"),
    "targets.dataset_io.s": ("s", "lower"),
    "control.eval.calls": ("count", "lower"),
    "control.eval.self_s": ("s", "lower"),
    "control.eval.pairs": ("count", "lower"),
    "control.ess_frac_p5": ("ratio", "higher"),
    "control.ess_frac_p50": ("ratio", "higher"),
    "sde.integrate_batch.calls": ("count", "lower"),
    "sde.integrate_batch.self_s": ("s", "lower"),
    "sde.step_ms_p50": ("ms", "lower"),
    "sde.step_ms_p99": ("ms", "lower"),
    "sampler.run.calls": ("count", "lower"),
    "sampler.run.self_s": ("s", "lower"),
    "sampler.out_mb": ("MB", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "diagnostics.autocorrelation.self_s": ("s", "lower"),
    "diagnostics.bootstrap_transition_gap.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children count once.
    """
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(
            (max(spans[j].start, s.start), min(spans[j].end, s.end)) for j in kids[i]
        ):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def _dir_mb(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file()) / 1e6


def _attrs_mb(args, kwargs, out):
    return {"mb": np.asarray(out).nbytes / 1e6}


def _size_as(key):
    return lambda args, kwargs, out: {key: np.size(out)}


def _attrs_control(args, kwargs, out):
    evaluator, t = args[0], args[1]
    cfg = getattr(evaluator, "cfg", None)
    n = cfg.n_is if cfg is not None else evaluator.target.count
    ess = np.atleast_1d(np.asarray(out.ess, dtype=float))
    return {"t": float(t), "pairs": ess.size * n, "ess_frac": ess / n}


def _attrs_integrate_batch(args, kwargs, out):
    return {"dt": args[0].dt}


def _attrs_run(args, kwargs, out):
    cfg = args[0]
    return {"mb": _dir_mb(cfg.out_dir) if cfg.out_dir is not None else 0.0}


def _patch_points():
    """(owner, attribute, span name, attrs fn) for every traced boundary."""
    import hpid.cli
    import hpid.control
    import hpid.sampler
    import hpid.sde
    import hpid.stationary
    import hpid.targets

    mixture = hpid.targets.GaussianMixtureEnergy
    return [
        (hpid.sde, "normal_rows", "rng.normal_rows", _attrs_mb),
        (hpid.control, "universal_probe", "stationary.universal_probe", None),
        (hpid.stationary.ProbeGaussian, "draw", "stationary.probe_draw", _attrs_mb),
        (hpid.control, "log_kernel_ratio", "kernels.log_kernel_ratio", _size_as("pairs")),
        (mixture, "value", "targets.value", _size_as("points")),
        (mixture, "panel_logw", "targets.panel_logw", _size_as("entries")),
        (hpid.sampler, "save_dataset", "targets.dataset_io", None),
        (hpid.sampler, "load_dataset", "targets.dataset_io", None),
        (hpid.cli, "load_dataset", "targets.dataset_io", None),
        (hpid.control.UhisControlEvaluator, "__call__", "control.eval", _attrs_control),
        (hpid.control.EmpiricalControlEvaluator, "__call__", "control.eval", _attrs_control),
        (hpid.sampler, "integrate_batch", "sde.integrate_batch", _attrs_integrate_batch),
        (hpid.sampler, "run", "sampler.run", _attrs_run),
        (hpid.cli, "run", "sampler.run", _attrs_run),
        (hpid.cli, "main", "cli.main", None),
        (hpid.cli, "autocorrelation", "diagnostics.autocorrelation", None),
        (hpid.cli, "bootstrap_transition_gap", "diagnostics.bootstrap_transition_gap", None),
    ]


class Tracer:
    """Collects spans in memory while its patches are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index].end = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if attrs is not None:
                self.spans[i].attrs = attrs(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield self.spans[i]
        finally:
            self.close(i)

    @contextmanager
    def installed(self):
        """Rebind every traced boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, attrs in _patch_points():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced repetition (all but trace.overhead_frac)."""
    spans = tracer.spans
    own = self_times(spans)
    calls, self_s, sums = {}, {}, {}
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        for k, v in s.attrs.items():
            if isinstance(v, (int, float)):
                key = f"{s.name}.{k}"
                sums[key] = sums.get(key, 0) + v

    # a step is the interval between consecutive control calls of one batch
    starts = {}
    for s in spans:
        if s.name == "control.eval" and s.parent is not None:
            starts.setdefault(s.parent, []).append(s.start)
    step_ms = [d * 1e3 for v in starts.values() for d in np.diff(v)]
    ess = [s.attrs["ess_frac"] for s in spans if s.name == "control.eval"]
    ess = np.concatenate(ess) if ess else np.array([np.nan])
    step_ms = np.asarray(step_ms) if step_ms else np.array([np.nan])

    m = {}
    for name in LAYER_METRICS:
        if name.endswith(".calls"):
            m[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            m[name] = self_s.get(name[: -len(".self_s")], 0.0)
    m["targets.dataset_io.s"] = self_s.get("targets.dataset_io", 0.0)
    for name in (
        "rng.normal_rows.mb",
        "stationary.probe_draw.mb",
        "kernels.log_kernel_ratio.pairs",
        "targets.value.points",
        "targets.panel_logw.entries",
        "control.eval.pairs",
    ):
        m[name] = sums.get(name, 0)
    m["sampler.out_mb"] = sums.get("sampler.run.mb", 0.0)
    m["control.ess_frac_p5"] = float(np.percentile(ess, 5))
    m["control.ess_frac_p50"] = float(np.percentile(ess, 50))
    m["sde.step_ms_p50"] = float(np.percentile(step_ms, 50))
    m["sde.step_ms_p99"] = float(np.percentile(step_ms, 99))
    m["_step_intervals"] = int(np.isfinite(step_ms).sum())
    return m


def wide_step_split(tracer: Tracer) -> tuple[int, int]:
    """(control calls at t <= dt, control calls at t > dt) of one repetition.

    With the default t_min the probe is widened on those first steps and
    the evaluator takes the generic kernel-ratio path even when a shared
    panel is available.
    """
    spans = tracer.spans
    early = late = 0
    for s in spans:
        if s.name == "control.eval" and s.parent is not None:
            dt = spans[s.parent].attrs.get("dt")
            if dt is not None and s.attrs["t"] <= dt:
                early += 1
            else:
                late += 1
    return early, late
