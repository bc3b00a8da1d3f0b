"""carmafield benchmark: end-to-end metrics, or per-layer metrics traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload {fitcar1,cp,cov,closed,study,fit,all} \
        --seed N --seconds S --trace {0,1}

``--workload all`` runs the workloads BENCHMARK.json lists, each in a
child process of its own, one after another.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs each operation twice, untraced and with spans around
the package's public functions, reports the
per-layer metrics and the tracing overhead, and checks that a repeat of
the first operation reproduces the exact work counts.  Every operation
checks its outputs; a failed check counts as a failed operation.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread and one study worker, fixed before numpy loads.
THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "CARMA_FIELD_THREADS": "1",
}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"  # for oracles.random_spec, criterion 6's spec drawer
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5


class SpeedProbe:
    """Samples the machine's speed while the benchmark runs.

    On a shared host, machine speed drifts by half in phases of a few
    seconds, for the program and for pure Python alike.  While the
    probe is active, a timer signal every ``INTERVAL`` seconds runs a
    fixed pure-Python reference loop in the benchmark's own thread and
    records how long it took; ``timed`` also samples right before and
    after each interval it times.  Times are then reported in reference
    seconds: wall seconds scaled to a machine on which the loop takes
    ``LOOP_S``, using the mean speed sampled over that interval.  The
    probe costs about 0.7% of the run and does not depend on the
    program's code.

    While ``rss_peak`` is not None, every sample also reads the
    process's resident set size and keeps the largest.
    """

    INTERVAL = 0.1
    LOOP_N = 10_000
    LOOP_S = 0.00035

    def __init__(self):
        self.samples = []
        self.rss_peak = None

    def sample(self, *_):
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            total = 0
            for i in range(self.LOOP_N):
                total += i
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        if self.rss_peak is not None:
            self.rss_peak = max(self.rss_peak, rss_mb())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """Run ``fn(*args)``; return (result, wall seconds, reference seconds)."""
        first = len(self.samples)
        self.sample()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.sample()
        speed = statistics.fmean(self.LOOP_S / s for s in self.samples[first:])
        return result, wall, wall * speed


def rss_mb():
    """Resident set size of this process now, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise OSError("no VmRSS in /proc/self/status")


def environment(seed):
    """What every result records about the machine and the code."""
    import numpy
    import scipy

    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        commit = top[1] if len(top) == 2 and Path(top[0]) == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": dict(THREADS),
        "seed": seed,
        "src_lines": src_lines,
    }


def checked_op(workload, state, i):
    try:
        return workload.op(state, i)
    except Exception as exc:  # a failed operation, reported and counted
        return {"ok": False, "detail": f"{type(exc).__name__}: {exc}", "raised": True}


def run_ops(probe, workload, state, start, seconds=None, count=None):
    """Run operations back to back, from index ``start``, for ``seconds``
    or ``count`` operations."""
    ops = []
    t_end = time.perf_counter() + seconds if seconds is not None else None
    i = start
    while True:
        res, wall, ref = probe.timed(checked_op, workload, state, i)
        # stage timings inside the operation scale like the whole
        for key in [k for k in res if k.endswith("_s")]:
            res[key] *= ref / wall
        res["wall_s"], res["ref_s"] = wall, ref
        ops.append(res)
        i += 1
        if count is not None and len(ops) >= count:
            return ops
        if t_end is not None and time.perf_counter() >= t_end:
            return ops


def setup(probe, workload, seed, workdir):
    walls, refs = [], []
    for k in range(SETUP_REPEATS):
        sub = workdir / f"setup{k}"
        sub.mkdir(parents=True)
        state, wall, ref = probe.timed(workload.setup, seed, sub)
        walls.append(wall)
        refs.append(ref)
    return state, statistics.median(refs), statistics.median(walls)


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(probe, workload, seed, seconds, traced):
    """One workload run; returns (report lines, result dict)."""
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        state, setup_s, setup_wall = setup(probe, workload, seed, workdir)
        if traced:
            return measure_traced(probe, workload, state, seconds)
        # peak memory while operations run, set-up excluded
        probe.rss_peak = rss_mb()
        ops = run_ops(probe, workload, state, 0, seconds=seconds)
        peak_rss, probe.rss_peak = probe.rss_peak, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    walls = [o["wall_s"] for o in ops]
    refs = [o["ref_s"] for o in ops]
    done = [o for o in ops if not o.get("raised")]
    failed = sum(not o["ok"] for o in ops)
    named = workload.summary(state, done, sum(o["ref_s"] for o in done)) if done else {}
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(refs), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    raw = {
        "setup_wall_s": (setup_wall, "s"),
        "op_wall_s": (statistics.median(walls), "s"),
        "machine_slowdown": (statistics.median(w / r for w, r in zip(walls, refs)), "ratio"),
    }
    lines = [f"{name} = {v:.6g} {unit}" for name, (v, unit) in {**metrics, **raw, **named}.items()]
    lines.append(f"failed_frac = {failed / len(ops):.6g} ratio ({failed} of {len(ops)} operations)")
    t = tail(refs)
    lines.append(
        f"op_s p{t[0]:.0f} = {t[1]:.6g} s (n = {len(refs)})" if t
        else f"op_s tail: n = {len(refs)} operations, fewer than 11"
    )
    lines += [f"FAILED op {k}: {o['detail']}" for k, o in enumerate(ops) if not o["ok"]]
    return lines, {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "named": named,
        "op_wall_s": walls,
        "op_ref_s": refs,
    }


def measure_traced(probe, workload, state, seconds):
    """Pairs of one untraced and one traced run of the same operation,
    back to back for ``seconds`` and alternating which runs first, then
    a traced repeat of operation 0 for the determinism check."""
    import layers
    from tracing import Tracer, summarize, write_spans

    tracer = Tracer()

    def traced_op(span_op, i):
        with tracer.installed(layers.TARGETS):
            tracer.start_op(span_op)
            return run_ops(probe, workload, state, i, count=1)

    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        k = len(traced)
        if k % 2:
            traced += traced_op(k, k)
        plain += run_ops(probe, workload, state, k, count=1)
        if not k % 2:
            traced += traced_op(k, k)
    k = len(traced)
    repeat = traced_op(k, 0)
    first, again = layers.op_counts(tracer, 0), layers.op_counts(tracer, k)
    deterministic = first == again
    # span times in reference seconds, with each operation's own scale
    totals, nested = summarize(tracer.spans, {i: o["ref_s"] / o["wall_s"] for i, o in enumerate(traced)})
    counts = sum((tracer.counts[i] for i in range(k)), start=Counter())
    metrics = layers.layer_metrics(totals, nested, counts, k)
    overhead = sum(o["ref_s"] for o in traced) / sum(o["ref_s"] for o in plain) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    OUT.mkdir(exist_ok=True)
    write_spans(tracer.spans, OUT / f"spans-{workload.name}.tsv")
    ops = plain + traced + repeat
    failed = sum(not o["ok"] for o in ops) + (not deterministic)
    lines = [f"{name} = {v:.6g} {unit}" for name, (v, unit) in metrics.items()]
    lines.append(f"tracing overhead ({workload.name}) = {overhead:+.3f} "
                 f"(traced / untraced - 1 over {k} paired operations, {len(tracer.spans)} spans)")
    lines.append(f"determinism: {'ok' if deterministic else 'MISMATCH'} "
                 f"op 0 = {first}, repeat = {again}")
    lines += [f"FAILED op: {o['detail']}" for o in ops if not o["ok"]]
    return lines, {
        "correct": failed == 0,
        "attempted": len(ops) + 1,
        "failed": failed,
        "metrics": metrics,
    }


def run_workload(probe, workload, args, env):
    print(f"== {workload.name} ({'traced' if args.trace else 'untraced'}, "
          f"{args.seconds:g} s, seed {args.seed}): {workload.why}")
    lines, result = measure(probe, workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(f"  {line}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "workload": workload.name, **result}, indent=1, default=str)
    )
    return result


def run_children(names, args):
    """``all``: each workload in a child process of its own, so that one
    workload's memory and warm caches do not carry into the next."""
    results = {}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {child.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or all: the workloads BENCHMARK.json lists")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "carmafield" / "__init__.py", TESTS / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a carmafield checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    from workloads import WORKLOADS

    if args.workload == "all":
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in bench["workloads"]]
    else:
        names = [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    if args.workload == "all":
        print(json.dumps(run_children(names, args)))
        return 0
    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    with SpeedProbe() as probe:
        result = run_workload(probe, WORKLOADS[args.workload], args, env)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
