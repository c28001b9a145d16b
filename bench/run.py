"""hpid benchmark: wall time, throughput, set-up time and memory of two
sampler workloads, with a separate traced run for the per-layer numbers.

    python3 bench/run.py --workload empirical-cli-record --seed 1 --seconds 60 --trace 0
    python3 bench/run.py            # every workload, untraced then traced, as a report

With --workload the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones. The line before it,
starting with "info: ", holds provenance, terminal digests and the
details of every correctness check. See bench/README.md.

The benchmark is a closed loop with one client: hpid runs with one worker
thread and one BLAS thread, and one operation is in flight at a time.
"""

import os

# before numpy is imported anywhere in this process or its children
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _v in THREAD_VARS:
    os.environ[_v] = "1"

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("mixture-sweep-shared", "empirical-cli-record")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_PROCESSES = 5
DEFAULT_SECONDS = 60
CHILD_TIMEOUT_S = 170


def _workload(name, smoke):
    import workloads

    return (workloads.SMOKE if smoke else workloads.WORKLOADS)[name]


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed):
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "hpid_threads": 1,
        "git_sha": _git_sha(),
        "seed": seed,
    }


def setup_seconds(args):
    """Time for one fresh process to import hpid and build and write the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", "setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--smoke"] if args.smoke else []
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
        try:
            line = p.stdout.readline().strip()
            took = time.perf_counter() - t0
            p.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            p.kill()
            raise
    if line != "ready" or p.returncode != 0:
        raise RuntimeError(f"set-up process exited {p.returncode} after {line!r}")
    return took


def role_setup(args):
    """The set-up that setup_s measures: import hpid, build and write the inputs."""
    wl = _workload(args.workload, args.smoke)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        wl.setup(args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def repetition(wl, inputs, workdir, traced):
    """One timed operation, judged after the clock stops."""
    from spans import Tracer, layer_metrics

    rep_dir = tempfile.mkdtemp(dir=workdir)
    tracer = Tracer() if traced else None
    with tracer.installed() if tracer else nullcontext():
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        raw = wl.operate(inputs, rep_dir)
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
    outcome = wl.judge(inputs, raw)
    shutil.rmtree(rep_dir)
    rep = {
        "wall_s": wall,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "minor_faults": r1.ru_minflt - r0.ru_minflt,
        "rss_mb": r1.ru_maxrss / 1024.0,
        **vars(outcome),
    }
    if tracer:
        rep["layers"] = layer_metrics(tracer)
        rep["problems"] = rep["problems"] + [
            f"traffic: {p}" for p in wl.traffic(tracer, rep["layers"])
        ]
    return rep


def measure(args):
    """Repetitions in this process, and set-up processes, for about args.seconds.

    Rounds continue while another one would still end within args.seconds;
    there is always at least one. Untraced, each round starts with one
    set-up process, and more follow the last round until there are
    SETUP_PROCESSES: spread over the run, their median sees the same
    drift in the machine's speed as the repetitions do. Before the clock
    starts, the workload's primer (a short version of the same operation)
    runs once: in a fresh process the first full-width operation pays the
    allocator's first-touch page faults, on the sweep about 10 times the
    faults of a later repetition and 20-40% more wall time, an amount that
    swings with the load on the machine. Traced, each round is an untraced repetition and a
    traced one, so the tracing overhead is measured under the same
    conditions. Returns (result, info).
    """
    from spans import LAYER_METRICS

    setups = []
    wl = _workload(args.workload, args.smoke)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        primer, primer_dir = wl.primer(), tempfile.mkdtemp(dir=workdir)
        primer.operate(primer.setup(args.seed, primer_dir), primer_dir)
        inputs = wl.setup(args.seed, workdir)
        reps = {False: [], True: []}
        begin = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            if not args.trace:
                setups.append(setup_seconds(args))
            for traced in (False, True) if args.trace else (False,):
                reps[traced].append(repetition(wl, inputs, workdir, traced))
            now = time.perf_counter()
            if now - begin + (now - round_start) > args.seconds:
                break
        while not args.trace and len(setups) < SETUP_PROCESSES:
            setups.append(setup_seconds(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = reps[False] + reps[True]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    seen = Counter(p for r in every for p in r["problems"])
    problems = [f"{p} (in {n} of {len(every)} repetitions)" for p, n in seen.items()]
    digests = sorted({r["digest"] for r in every})
    if len(digests) > 1:
        problems.append(f"terminal digests differ between repetitions: {digests}")

    plain = reps[False]
    wall_s = statistics.median([r["wall_s"] for r in plain])
    if args.trace:
        layers = [r["layers"] for r in reps[True]]
        metrics = {
            name: statistics.median_low([m[name] for m in layers])
            for name in LAYER_METRICS
            if name != "trace.overhead_frac"
        }
        traced_wall = statistics.median([r["wall_s"] for r in reps[True]])
        metrics["trace.overhead_frac"] = traced_wall / wall_s - 1.0
        units = {k: LAYER_METRICS[k][0] for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "samples_per_s": plain[0]["samples"] / wall_s,
            # through the first repetition: later ones can raise the peak a
            # little through fragmentation, and how many run depends on speed
            "peak_rss_mb": plain[0]["rss_mb"],
        }
        units = END_TO_END
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "repetitions": len(plain),
        "samples_per_repetition": plain[0]["samples"],
        "wall_s_untraced": [r["wall_s"] for r in plain],
        "wall_s_traced": [r["wall_s"] for r in reps[True]],
        "cpu_s_untraced": [r["cpu_s"] for r in plain],
        "minor_faults": [r["minor_faults"] for r in plain],
        "setup_s_samples": setups,
        "failed_frac": failed / attempted,
        "terminal_sha256": digests[0] if len(digests) == 1 else digests,
        "checks": plain[0]["info"],
        "problems": problems,
    }
    if args.trace:
        info["step_intervals"] = layers[0]["_step_intervals"]
    return result, info


def role_measure(args):
    result, info = measure(args)
    print("info: " + json.dumps(info, default=float))
    print(json.dumps(result))
    return 0


def _run_child(cmd):
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}: {p.stderr[-2000:]}")
    info = next((json.loads(x[6:]) for x in lines if x.startswith("info: ")), {})
    return json.loads(lines[-1]), info


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(args):
    """Every workload in its own fresh process, untraced then traced."""
    bad = 0
    for name in WORKLOAD_NAMES:
        wl = _workload(name, args.smoke)
        print(f"== {name} (seed {args.seed}, {args.seconds} s per run)\n   {wl.why}")
        digests = []
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            result, info = _run_child(cmd)
            if trace == 0:
                print(f"   provenance: {json.dumps(info['provenance'])}")
                print(
                    f"   end-to-end, untraced: median of {info['repetitions']} "
                    f"repetition(s) of {info['samples_per_repetition']} samples"
                )
            else:
                print(f"   per-layer, traced: {info['step_intervals']} step intervals")
            for k, m in result["metrics"].items():
                print(f"     {k:<45} {_fmt(m['value']):>14} {m['unit']}")
            if trace == 0:
                print(f"     {'failed_frac':<45} {_fmt(info['failed_frac']):>14} ratio "
                      f"({result['failed']} of {result['attempted']} operations)")
            print(f"   checks: {json.dumps(info['checks'], default=float)}")
            for p in info["problems"]:
                print(f"   PROBLEM: {p}")
            digests.append(info["terminal_sha256"])
            bad += not result["correct"]
        same = "equal" if digests[0] == digests[1] else "DIFFERENT"
        print(f"   terminal sha256 {digests[0]} (traced run: {same})\n")
        bad += digests[0] != digests[1]
    return 1 if bad else 0


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    p.add_argument("--role", choices=("setup",), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    # on SIGTERM, unwind as on an error: kill and reap the set-up child and
    # remove the scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "hpid", "__init__.py")):
        print(f"error: no hpid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.role == "setup":
        return role_setup(args)
    if args.workload is None:
        return report(args)
    return role_measure(args)


if __name__ == "__main__":
    sys.exit(main())
