"""sha256 of every ``carma-field fit`` and ``study`` output of one checkout, on fixed seeds.

Usage (from anywhere):

    python3 tools/fit_bytes.py --checkout CHECKOUT_DIR [--seeds 21-23] \
        [--n 300 --delta 0.04 --m 300]

``CHECKOUT_DIR`` is a carmafield tree (a ``git clone`` or ``git archive``
of the commit to check); its ``src`` is the ``PYTHONPATH`` of every run.
For every seed the script simulates a truncated-discretized ("TD")
field of the reference spec with Gaussian noise (``carma-field
simulate``), then fits it four times with ``carma-field fit``: with
the default model menu, with ``--models car1``, with the p = 3
models ``--models car3,carma31`` and with the default menu at
``--kappa2 4``.  It also runs a small ``carma-field study`` of the
reference spec with the seed as master seed (``STUDY``: two replications
of cases 1, 2 and 3 on a 60 x 60 grid), whose fits take kappa2 from the
noise, twice: at unit noise variance and at ``--sigma2 4``.  The runs at
kappa2 = 4 show a change that moves the unit b is reported in.  Every flag it passes is one that both older and
newer trees accept.  Standard output gets one JSON object that maps
``seed<s>/<run>/<file>`` to the file's sha256, for the field and for
every fit and study output the run's manifest lists; the manifests
themselves are left out, since they echo the output paths.  Two
checkouts' objects are equal exactly when their runs wrote the same
bytes.
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
FITS = {"default": [], "car1": ["--models", "car1"], "p3": ["--models", "car3,carma31"],
        "kappa2": ["--kappa2", 4]}
STUDIES = {"study": [], "study_sigma2": ["--sigma2", 4]}
STUDY = ["--n", 60, "--delta", 0.08, "--m", 40, "--lags", 8, "--replications", 2,
         "--cases", "1,2,3", "--generations", 40]


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
            for run, extra in STUDIES.items():
                carma_field(checkout, ["study", "--b", REF_B, "--eigenvalues", REF_EIGENVALUES,
                                       "--seed", seed, "--output-dir", base / run] + STUDY + extra)
                table.update(digests(base / run, f"seed{seed}/{run}"))
            print(f"seed {seed} done", file=sys.stderr, flush=True)
    print(json.dumps(table, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
