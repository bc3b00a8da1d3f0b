"""sha256 of every ``carma-field fit`` output of one checkout, on fixed fields.

Usage (from anywhere):

    python3 tools/fit_bytes.py --checkout CHECKOUT_DIR [--seeds 21-23] \
        [--n 300 --delta 0.04 --m 300]

``CHECKOUT_DIR`` is a carmafield tree (a ``git clone`` or ``git archive``
of the commit to check); its ``src`` is the ``PYTHONPATH`` of every run.
For every seed the script simulates a truncated-discretized ("TD")
field of the reference spec with Gaussian noise (``carma-field
simulate``), then fits it three times with ``carma-field fit``: with
the default model menu, with ``--models car1`` and with the p = 3
models ``--models car3,carma31``.  Standard output gets
one JSON object that maps ``seed<s>/<run>/<file>`` to the file's
sha256, for the field and for every fit output the run's manifest
lists; the manifests themselves are left out, since they echo the
output paths.  Two checkouts' objects are equal exactly when their
fits wrote the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import seed_list

# the reference spec of the package's tests and benchmarks
REF_B = "4.8940,-1.1432"
REF_EIGENVALUES = "-1.7776,-2.0948;-1.3057,-2.5142"
FITS = {"default": [], "car1": ["--models", "car1"], "p3": ["--models", "car3,carma31"]}


def carma_field(checkout, args):
    """Run ``carma-field ARGS`` with ``checkout``'s package; exit on failure."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "carmafield.cli"] + [str(a) for a in args]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"error: carma-field {' '.join(argv[3:])} exited with {child.returncode}")


def digests(run_dir, prefix):
    """sha256 of each output that ``run_dir``'s manifest lists."""
    out = {}
    for line in (run_dir / "manifest.txt").read_text().splitlines():
        if line.startswith("sha256:"):
            name = line[len("sha256:"):].split(" = ")[0]
            out[f"{prefix}/{name}"] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, required=True, help="carmafield tree to run")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("21-23"),
                        help="simulation seeds, e.g. 21-23 or 21,25")
    parser.add_argument("--n", type=int, default=300, help="lattice points per axis")
    parser.add_argument("--delta", type=float, default=0.04, help="lattice spacing")
    parser.add_argument("--m", type=int, default=300, help="TD truncation (kernel cells per axis)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "carmafield").is_dir():
        parser.error(f"{checkout} has no src/carmafield")
    table = {}
    with tempfile.TemporaryDirectory(prefix="fit-bytes-") as scratch:
        for seed in args.seeds:
            base = Path(scratch) / f"seed{seed}"
            carma_field(checkout, ["simulate", "--b", REF_B, "--eigenvalues", REF_EIGENVALUES,
                                   "--n", args.n, "--delta", args.delta, "--m", args.m,
                                   "--noise", "gaussian", "--seed", seed,
                                   "--output-dir", base / "sim"])
            table.update(digests(base / "sim", f"seed{seed}/sim"))
            for run, extra in FITS.items():
                carma_field(checkout, ["fit", "--input", base / "sim" / "field.carf",
                                       "--output-dir", base / run] + extra)
                table.update(digests(base / run, f"seed{seed}/{run}"))
            print(f"seed {seed} done", file=sys.stderr, flush=True)
    print(json.dumps(table, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
