"""Self-tests of the benchmark harness: span arithmetic, tracing that leaves
the bits alone, and the output contract of bench/run.py.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hpid.sde  # noqa: E402
from spans import LAYER_METRICS, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import SMOKE  # noqa: E402

RUN = [sys.executable, os.path.join(BENCH, "run.py")]


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: [1, 6] counts once
        Span("c", 9.0, 12.0, parent=0),  # overhangs root: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_layer_metrics_from_synthetic_spans():
    ticks = iter(float(i) for i in range(100))
    tr = Tracer(clock=lambda: next(ticks))
    # each open and close reads the next tick: sampler.run spans [0, 15],
    # integrate_batch [1, 14], control calls [2, 5] and [8, 11]
    with tr.span("sampler.run"):
        with tr.span("sde.integrate_batch"):
            for _ in range(2):
                with tr.span("control.eval") as ev:
                    with tr.span("kernels.log_kernel_ratio") as k:
                        k.attrs = {"pairs": 6}
                    ev.attrs = {"t": 0.5, "pairs": 6, "ess_frac": [0.5, 1.0]}
                with tr.span("rng.normal_rows") as r:
                    r.attrs = {"mb": 0.25}
    m = layer_metrics(tr)
    assert m["control.eval.calls"] == 2
    assert m["control.eval.self_s"] == 2 * (3 - 1)
    assert m["kernels.log_kernel_ratio.self_s"] == 2
    assert m["kernels.log_kernel_ratio.pairs"] == 12
    assert m["rng.normal_rows.mb"] == 0.5
    assert m["sde.integrate_batch.self_s"] == 13 - 2 * 3 - 2 * 1
    assert m["sampler.run.self_s"] == 15 - 13
    assert m["sde.step_ms_p50"] == 6000.0
    assert m["control.ess_frac_p50"] == 0.75
    assert m["cli.main.self_s"] == 0.0


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_workload_traced_matches_untraced(name, tmp_path):
    wl = SMOKE[name]
    inputs = wl.setup(7, str(tmp_path))
    plain = wl.judge(inputs, wl.operate(inputs, str(tmp_path / "plain")))
    tracer = Tracer()
    with tracer.installed():
        traced_raw = wl.operate(inputs, str(tmp_path / "traced"))
    traced = wl.judge(inputs, traced_raw)
    assert hpid.sde.normal_rows.__module__ == "hpid.rng"  # patches undone
    assert plain.attempted >= 1 and plain.samples >= 1
    assert traced.digest == plain.digest
    m = layer_metrics(tracer)
    assert set(LAYER_METRICS) - set(m) == {"trace.overhead_frac"}
    assert m["control.eval.calls"] >= 1 and m["sde.integrate_batch.calls"] >= 1
    assert wl.traffic(tracer, m) == []


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
        [w["name"] for w in doc["workloads"]],
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMOKE))
def test_run_prints_declared_metrics(name, trace):
    end_to_end, per_layer, workloads = _declared()
    assert name in workloads
    p = subprocess.run(
        RUN + ["--workload", name, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = per_layer if trace else end_to_end
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "empirical-cli-record", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""
