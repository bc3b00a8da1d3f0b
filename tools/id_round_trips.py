"""Identification round trips of one checkout, summarized per seed.

Usage (from anywhere):

    python3 tools/id_round_trips.py --checkout CHECKOUT_DIR [--seeds 1-5] [--size 500]

``CHECKOUT_DIR`` is a carmafield tree (a ``git clone`` or ``git archive``
of the commit to check).  For every seed the script draws
``perfbench/workloads.id_pool(seed, size)`` -- criterion 6's menu of
identifiable specs -- and runs ``perfbench/workloads.round_trip`` on
each, in a subprocess whose ``PYTHONPATH`` is the checkout's ``src``,
``tests`` and ``perfbench``, so the checkout's own ``identify`` does
the recovery.  A round trip that raises counts as an infinite gap.
Standard output gets one line per seed: the number of gaps above
1e-7, the worst gap and the median gap.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import seed_list

GATE = 1e-7

CHILD = """
import math, sys
import numpy as np
import carmafield.errors
from workloads import id_pool, round_trip

seed, size, gate = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
gaps = []
for spec in id_pool(seed, size):
    try:
        gaps.append(round_trip(spec))
    except carmafield.errors.CarmaFieldError:
        gaps.append(math.inf)
gaps = np.asarray(gaps)
print(f"seed {seed}: {int(np.sum(~(gaps <= gate)))} of {gaps.size} over {gate:g}, "
      f"worst {np.max(gaps):.2e}, median {np.median(gaps):.2e}")
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, required=True, help="carmafield tree to run")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-5"),
                        help="id_pool seeds, e.g. 1-5 or 1,3")
    parser.add_argument("--size", type=int, default=500, help="specs per seed")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "carmafield").is_dir():
        parser.error(f"{checkout} has no src/carmafield")
    path = os.pathsep.join(str(checkout / part) for part in ("src", "tests", "perfbench"))
    env = dict(os.environ, PYTHONPATH=path)
    for seed in args.seeds:
        argv = [sys.executable, "-c", CHILD, str(seed), str(args.size), str(GATE)]
        child = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"error: seed {seed} exited with {child.returncode}")
        print(child.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
