"""Alternated benchmark pairs of two checkouts, summarized for a BENCH file.

Usage (from anywhere):

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \
        --workload fitcar1,cp,cov --seeds 1801-1810 --seconds 35

Each checkout is a carmafield tree with its own ``perfbench/run.py``
(a ``git clone`` or ``git archive`` of the commit to measure).  For
every workload and seed, the script runs ``perfbench/run.py --workload
<w> --seed <s> --seconds <S> --trace 0`` once in each checkout, one
process at a time: the parent first on even pair indices, the change
first on odd ones.  Progress goes to standard error; standard output
gets one JSON object, the ``workloads`` block of a ``BENCH_<n>.json``:
per workload the seeds, and per end-to-end metric both sides' runs,
medians, quartiles (``statistics.quantiles(n=4)``), the parent's
interquartile range and the pairs in which the change is lower, then
the failed and attempted operations and the correctness flags.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("op_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


def seed_list(text):
    """Seeds from ``a-b`` ranges and single values, comma-separated."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(checkout, workload, seed, seconds):
    """One ``perfbench/run.py`` run in ``checkout``; its final JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    child = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"error: {workload} seed {seed} in {checkout} exited with {child.returncode}")
    return json.loads(lines[-1])


def summarize(seeds, results):
    """The BENCH layout of one workload; ``results[side]`` lists its runs."""
    block = {"seeds": seeds}
    for metric in METRICS:
        runs = {side: [round(r["metrics"][metric]["value"], 6) for r in results[side]]
                for side in SIDES}
        quartiles = {side: statistics.quantiles(runs[side], n=4) for side in SIDES}
        medians = {side: statistics.median(runs[side]) for side in SIDES}
        lower = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        block[metric] = {
            "parent_median": round(medians["parent"], 6),
            "change_median": round(medians["change"], 6),
            "change_vs_parent": f"{medians['change'] / medians['parent'] - 1.0:+.1%}",
            "parent_quartiles": [round(quartiles["parent"][0], 6), round(quartiles["parent"][2], 6)],
            "change_quartiles": [round(quartiles["change"][0], 6), round(quartiles["change"][2], 6)],
            "parent_iqr": round(quartiles["parent"][2] - quartiles["parent"][0], 6),
            "change_lower_in_pairs": f"{lower} of {len(seeds)}",
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
        }
    for key, total in (("failed", sum), ("attempted", sum), ("correct", all)):
        block[key] = {side: total(r[key] for r in results[side]) for side in SIDES}
    return block


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="workload names, comma-separated")
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="seeds, e.g. 1801-1810 or 1801,1805; one pair per seed")
    parser.add_argument("--seconds", type=float, default=35.0, help="seconds per run")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    workloads = {}
    for workload in args.workload.split(","):
        results = {side: [] for side in SIDES}
        for pair, seed in enumerate(args.seeds):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                result = run_once(checkouts[side], workload, seed, args.seconds)
                results[side].append(result)
                op_s = result["metrics"]["op_s"]["value"]
                print(f"{workload} seed {seed} {side}: op_s {op_s:.6g}", file=sys.stderr, flush=True)
        workloads[workload] = summarize(args.seeds, results)
    print(json.dumps(workloads, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
