"""How far ``fit`` ends above the multistart WLS floor on criterion 7's fields.

Usage (from anywhere):

    python3 tools/wss_floor.py --checkout CHECKOUT_DIR [--streams 0-49]

``CHECKOUT_DIR`` is a carmafield tree (a ``git clone`` or ``git archive``
of the commit to check).  For every stream of criterion 7's Gaussian
study (seed 777: a truncated-discretized field of the reference spec on
1000^2 cells at spacing 0.02, thinned to 500^2, 50 axis lags per axis,
quadratic weights, the study's own DE seed for case 1), a subprocess
whose ``PYTHONPATH`` is the checkout's ``src`` computes the variogram
and fits the CARMA(2,1) model with ``estimate.fit``.  The floor is
``tests/oracles.py::wls_multistart`` of this script's own tree, run on
the variogram the checkout computed, so two checkouts are measured
against the same reference.  Standard output gets one line per stream
(the fit's WSS, the floor, the fit's relative excess over it and which
side misses by more than 1e-3 relative), then two counts: the fits
above the floor by more than 1e-3 relative (the fit's misses) and the
floors above the fit by more than 1e-3 relative (the multistart's
misses).  The floor is itself a search from a fixed grid of starts: a
fit can end below it, and last-bit changes of the field can move it by
more than 1e-3.  Before a change in the first count between two
checkouts is read as a change in the fit, compare the streams' floors.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from bench_pairs import seed_list

ROOT = Path(__file__).resolve().parent.parent
GATE = 1e-3

CHILD = """
import sys
import numpy as np
from carmafield import estimate, model, simulate, workflows

spec = model.CarmaSpec(b=(4.8940, -1.1432), eigenvalues=((-1.7776, -2.0948), (-1.3057, -2.5142)))
out = sys.argv[1]
for stream in map(int, sys.argv[2:]):
    fine = simulate.simulate_truncated_discretized(
        spec, simulate.GaussianBasis(), 300, 1000, 0.02, seed=777, stream=stream)
    coarse = workflows._thin(fine, 2)
    emp = estimate.empirical_variogram(coarse, estimate.axis_lag_set(2, coarse.delta, 50))
    emp.to_csv(f"{out}/stream{stream}.csv")
    de_seed = np.random.SeedSequence(entropy=777, spawn_key=(stream, 977)).generate_state(1)[0]
    result = estimate.fit(emp, estimate.FitConfig(p=2, q=1, seed=int(de_seed) + 1))
    print(stream, repr(result.wss), flush=True)
"""


def fit_wss(checkout, streams, scratch):
    """``{stream: wss}`` of ``checkout``'s fits; the variograms go to ``scratch``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-c", CHILD, scratch] + [str(s) for s in streams]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"error: the fits in {checkout} exited with {child.returncode}")
    return {int(s): float(w) for s, w in (line.split() for line in child.stdout.splitlines())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, required=True, help="carmafield tree to fit with")
    parser.add_argument("--streams", type=seed_list, default=seed_list("0-49"),
                        help="criterion 7 streams, e.g. 0-49 or 21,25")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "carmafield").is_dir():
        parser.error(f"{checkout} has no src/carmafield")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import oracles
    from carmafield import estimate

    misses = Counter()
    with tempfile.TemporaryDirectory(prefix="wss-floor-") as scratch:
        fits = fit_wss(checkout, args.streams, scratch)
        print(f"{'stream':>6} {'fit wss':>14} {'floor':>14} {'excess':>10}  miss")
        for stream, wss in fits.items():
            emp = estimate.EmpiricalVariogram.from_csv(Path(scratch) / f"stream{stream}.csv")
            floor, _ = oracles.wls_multistart(emp, estimate.resolve_weights(emp, "quadratic"), 2, 1)
            excess = wss / floor - 1.0
            miss = "fit" if excess > GATE else "floor" if floor / wss - 1.0 > GATE else ""
            misses[miss] += 1
            print(f"{stream:>6} {wss:>14.8g} {floor:>14.8g} {excess:>10.2e}  {miss}", flush=True)
    print(f"fits above the floor by more than {GATE:g}: {misses['fit']} of {len(fits)}")
    print(f"floors above the fit by more than {GATE:g}: {misses['floor']} of {len(fits)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
