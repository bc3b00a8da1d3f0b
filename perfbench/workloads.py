"""The benchmark's workloads: inputs, one operation, output checks.

Every workload is a closed loop with one caller: the next operation
starts when the previous one has returned.  Inputs come only from the
workload seed; the program receives the generated inputs.  The
reference spec ("ref spec") is the CARMA(2,1) of the acceptance tests.

Each class docstring says why the workload was chosen, which layer it
stresses and which it bypasses.  ``setup`` generates inputs and warms
the code paths; ``op`` runs one operation and checks its outputs;
``summary`` turns the operations into the workload's named metrics;
its times are reference seconds (see ``run.py``).
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import carmafield.errors
import oracles  # tests/oracles.py: criterion 6's spec drawer
from carmafield import cli, estimate, gridio, identify, model, simulate, workflows

REF_B = (4.894, -1.1432)
REF_EIGS = ((-1.7776, -2.0948), (-1.3057, -2.5142))
# reference standard deviations of the six CARMA(2,1) estimates
TABLE2_STD = np.array([0.5124, 0.3962, 0.2377, 0.4183, 0.2323, 0.4048])


def ref_spec(kappa2=1.0):
    return model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS, kappa2=kappa2)


def sub_seed(seed, *key):
    """A 32-bit seed for one input, derived from the workload seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return int(ss.generate_state(1)[0])


class Study:
    """`workflows.run_simulation_study`, one replication per operation.

    Why: the ROADMAP's end-to-end workload at criterion 7's
    per-replication shape (ref spec, Gaussian noise, n=500, delta=0.04,
    fine_factor=2, m_steps=300, j_max=50, case 1, one worker).
    `estimate.fit` takes most of each replication (DE plus NM polish
    over about 10,000 objective evaluations), against about 0.1 s for
    the truncated-discretized (TD) simulation and 0.07 s for the
    variogram.
    Stresses: estimate (fit, DE, NM) and model (spec validation, axis
    variogram), so ROADMAP direction 3 shows here; simulate.td,
    simulate.increments and workflows.study show as a small share.
    Bypasses: cli, gridio, identify, the compound-Poisson simulators
    and the covariance sums.
    """

    name = "study"
    why = "criterion 7 study replication: fit-dominated, with TD simulation and variogram as a small share"

    def setup(self, seed, workdir):
        spec = ref_spec()
        # warm-up: a small simulation, its variogram and one objective
        small = simulate.simulate_truncated_discretized(
            spec, simulate.GaussianBasis(), 20, 40, 0.04, seed=1
        )
        emp = estimate.empirical_variogram(small, estimate.axis_lag_set(2, small.delta, 5))
        theta = estimate.ThetaCodec(p=2, q=1, d=2).from_spec(spec)
        estimate.wls_objective(theta, emp, estimate.resolve_weights(emp, "quadratic"), 2, 1)
        return {
            "seed": seed,
            "spec": spec,
            "base": workflows.StudyConfig(
                spec=spec, basis=simulate.GaussianBasis(), replications=1,
                n=500, delta=0.04, fine_factor=2, m_steps=300, j_max=50,
                cases=(1,),
            ),
        }

    def op(self, state, i):
        cfg = replace(state["base"], seed=sub_seed(state["seed"], i))
        errors = []
        result = workflows.run_simulation_study(cfg, log=errors.append)[1]
        est = result["estimates"]
        ok = result["failed"] == 0 and est.shape == (1, 6) and bool(np.all(np.isfinite(est)))
        detail = "; ".join(errors) or f"failed={result['failed']} shape={est.shape}"
        return {"ok": ok, "detail": "" if ok else detail, "estimate": est[0] if ok else None}

    def summary(self, state, ops, busy_s):
        spec = state["spec"]
        canonical = model.CarmaSpec(
            b=spec.b,
            eigenvalues=tuple(
                tuple(sorted(ax, key=lambda e: (-e.real, -e.imag)))
                for ax in spec.eigenvalues
            ),
        )
        truth = estimate.ThetaCodec(p=2, q=1, d=2).from_spec(canonical)
        est = np.asarray([o["estimate"] for o in ops if o["ok"]])
        rmse = np.sqrt(np.mean((est - truth[None, :]) ** 2, axis=0)) if est.size else np.full(6, np.nan)
        return {
            "study.reps_per_s": (len(ops) / busy_s, "replications/s"),
            "study.rmse_rel": (float(np.mean(rmse / TABLE2_STD)), "ratio"),
        }


def _parse_params(path):
    values = {}
    for line in Path(path).read_text().splitlines():
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    for key in ("b0", "wss", "aic", "p_params", "k_lags"):
        float(values[key])
    complex(values["lambda11"].replace(" ", ""))
    if values["converged"] not in ("True", "False"):
        raise ValueError(f"bad converged flag {values['converged']!r}")
    return values


class Fit:
    """In-process `cli.main(["fit", ...])`, one command per operation.

    Why: the ROADMAP's second end-to-end workload.  The fit layer runs
    once per model of the menu on 500^2 CARF fields simulated during
    set-up (ref spec, delta=0.04, m=300; operation i reads field i mod
    ``fields``), together with ingest, a full-field variogram (50 lags
    per axis, normalized field) and the writing of CSV files and the
    sha256 manifest.
    Stresses: cli, gridio, workflows.fit and workflows.overlay, estimate
    (variogram, fit, DE, NM) and model (spec validation, axis variogram).
    Bypasses: simulate (nothing is simulated in the timed part, so a
    simulate change should show no change here), identify and the
    covariance sums.

    Two menus run.  ``fit`` is the full car1,car2,carma21 menu (3, 5 and
    6 parameters).  Its NM polish work depends on the data: one command
    took 4 to 12.6 s across fields, so a run of a few commands cannot
    average it, and it stays outside BENCHMARK.json.  ``fitcar1`` runs
    the car1 menu alone, whose work varies by about 5% across fields;
    it exercises the same cli, ingest, variogram, objective, DE and NM
    code at about 0.4 s per command, over six fields.
    """

    def __init__(self, name, models, fields, why):
        self.name, self.fields, self.why = name, fields, why
        self.n_models = len(models.split(","))
        self.args = ["--lags", "50", "--models", models, "--normalize", "true"]

    def setup(self, seed, workdir):
        carfs = []
        for k in range(self.fields):
            field = simulate.simulate_truncated_discretized(
                ref_spec(), simulate.GaussianBasis(), 300, 500, 0.04,
                seed=sub_seed(seed, k),
            )
            carfs.append(workdir / f"field{k}.carf")
            gridio.write_carf(field, carfs[-1])
        small = simulate.simulate_truncated_discretized(
            ref_spec(), simulate.GaussianBasis(), 20, 40, 0.04, seed=1
        )
        gridio.write_carf(small, workdir / "warm.carf")
        # warm-up: the command's ingest, variogram and manifest, one objective
        rc = cli.main(["variogram", "--input", str(workdir / "warm.carf"),
                       "--output-dir", str(workdir / "warm"), "--lags", "5"])
        if rc != 0:
            raise RuntimeError(f"warm-up variogram exited with {rc}")
        emp = estimate.EmpiricalVariogram.from_csv(workdir / "warm" / "variogram.csv")
        estimate.wls_objective([1.0, -1.0, -1.0], emp, estimate.resolve_weights(emp, "quadratic"), 1, 0)
        return {"carfs": carfs, "out": workdir / "out"}

    def op(self, state, i):
        out = state["out"] / str(i)
        carf = state["carfs"][i % self.fields]
        argv = ["fit", "--input", str(carf), "--output-dir", str(out)] + self.args
        rc = cli.main(argv)
        if rc != 0:
            return {"ok": False, "detail": f"exit code {rc}"}
        try:
            listed = {}
            for line in (out / "manifest.txt").read_text().splitlines():
                if line.startswith("sha256:"):
                    name, digest = line[len("sha256:"):].split(" = ")
                    listed[name] = digest
            for name, digest in listed.items():
                if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
                    return {"ok": False, "detail": f"sha256 mismatch for {name}"}
            params = [n for n in listed if n.startswith("params_")]
            if len(params) != self.n_models:
                return {"ok": False, "detail": f"manifest lists {params}"}
            wss = [float(_parse_params(out / n)["wss"]) for n in params]
        except (OSError, ValueError, KeyError) as exc:
            return {"ok": False, "detail": f"output check: {exc!r}"}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return {"ok": True, "detail": "", "wss": wss}

    def summary(self, state, ops, busy_s):
        wss = [w for o in ops if o["ok"] for w in o["wss"]]
        wss_geo = float(np.exp(np.mean(np.log(wss)))) if wss else math.nan
        return {
            f"{self.name}.run_s": (float(np.median([o["ref_s"] for o in ops])), "s"),
            f"{self.name}.wss_geo": (wss_geo, "WSS units"),
        }


class CompoundPoisson:
    """`simulate.simulate_compound_poisson` plus its variogram, and
    `simulate_compound_poisson_at` at lattice points of the same draw.

    Why: the per-jump Python loop (about 1 s per field, ~8,000 jumps at
    ref spec with kappa2=5, intensity 5, normal jumps, n=100,
    delta=0.1, M=20) is what ROADMAP direction 2 replaces, and it does
    no work in the other workloads.  Point evaluation uses the same
    layer differently, so a rewrite that speeds up lattices but slows
    scattered points shows here.  An operation is one field (stream i),
    its 20-lag axis variogram and a batch of 300 lattice points of the
    same draw.  Checks: the point values equal the lattice values to
    within 1e-10; the field and its ordinates are finite; each axis lag
    j has exactly (n - j) * n pairs.
    Stresses: simulate.cp, simulate.cp_at, model.kernel_on_grid,
    estimate.variogram.
    Bypasses: the fit layer (estimate.fit, DE, NM), TD simulation,
    cli, gridio, identify and the covariance sums.
    """

    name = "cp"
    why = "compound-Poisson lattice field with its variogram plus 300 point evaluations of the same draw: simulate only, no fit"

    N, DELTA, M, J_MAX, POINTS = 100, 0.1, 20.0, 20, 300
    INTENSITY = 5.0

    def setup(self, seed, workdir):
        spec = ref_spec(kappa2=self.INTENSITY)
        basis = simulate.CompoundPoissonBasis(
            intensity=self.INTENSITY, jumps=simulate.NormalJumps()
        )
        rng = np.random.default_rng(sub_seed(seed, 0))
        idx = rng.integers(0, self.N, size=(self.POINTS, 2))
        lags = estimate.axis_lag_set(2, self.DELTA, self.J_MAX)
        taus = self.DELTA * np.arange(1, self.J_MAX + 1)
        pairs = np.tile((self.N - np.arange(1, self.J_MAX + 1)) * self.N, 2)
        truth = np.concatenate([model.axis_variogram(spec, a, taus) for a in range(2)])
        # warm-up: the same lattice in a smaller box (about 2,000 jumps)
        simulate.simulate_compound_poisson(spec, basis, 10.0, self.N, self.DELTA, seed=1)
        simulate.simulate_compound_poisson_at(spec, basis, 10.0, self.DELTA * (idx[:30] + 1.0), seed=1)
        return {
            "seed": sub_seed(seed, 1), "spec": spec, "basis": basis,
            "idx": idx, "points": self.DELTA * (idx + 1.0), "lags": lags,
            "truth": truth, "pairs": pairs,
        }

    def op(self, state, i):
        spec, basis, seed = state["spec"], state["basis"], state["seed"]
        t0 = time.perf_counter()
        field = simulate.simulate_compound_poisson(
            spec, basis, self.M, self.N, self.DELTA, seed=seed, stream=i
        )
        emp = estimate.empirical_variogram(field, state["lags"])
        t1 = time.perf_counter()
        at = simulate.simulate_compound_poisson_at(
            spec, basis, self.M, state["points"], seed=seed, stream=i
        )
        t2 = time.perf_counter()
        lattice = field.values[state["idx"][:, 0], state["idx"][:, 1]]
        gap = float(np.max(np.abs(at - lattice)))
        finite = bool(np.all(np.isfinite(field.values)) and np.all(np.isfinite(emp.ordinates)))
        pairs_ok = np.array_equal(emp.pair_counts, state["pairs"])
        ok = gap <= 1e-10 and finite and pairs_ok
        return {
            "ok": ok,
            "detail": "" if ok else f"point gap {gap:.3e}, finite {finite}, pair counts {pairs_ok}",
            "field_s": t1 - t0,
            "points_s": t2 - t1,
            "vario_err": float(np.max(np.abs(emp.ordinates - state["truth"]))),
        }

    def summary(self, state, ops, busy_s):
        return {
            "cp.fields_per_s": (len(ops) / sum(o["field_s"] for o in ops), "fields/s"),
            "cp.points_per_s": (self.POINTS * len(ops) / sum(o["points_s"] for o in ops), "points/s"),
            "cp.vario_err": (float(np.median([o["vario_err"] for o in ops])), "ordinate units"),
        }


# (p, q, d) menu of criterion 6's round trips; d=None draws 1..3
ID_MENU = [(1, 0, None), (2, 0, None), (3, 0, None), (2, 1, 2), (3, 1, 2)]


def id_delta(p):
    """Criterion 6's spacing: wider for p = 3."""
    return 0.35 if p == 3 else 0.2


def round_trip(spec):
    """Largest parameter gap of one identification round trip (inf if
    the recovered spec is not identifiable)."""
    p, q = spec.p, spec.q
    delta = id_delta(p)
    ords = identify.exact_axis_ordinates(spec, delta, 3 * p + 8)
    rec = identify.recover_spec(ords, p, q, spec.kappa2)
    if identify.check_identifiability(rec, delta).verdict != "identifiable":
        return math.inf
    gap = float(np.max(np.abs(np.asarray(rec.b[: q + 1]) - np.asarray(spec.b[: q + 1]))))
    for got, want in zip(rec.eigenvalues, spec.eigenvalues):
        got = sorted(got, key=lambda z: (z.real, z.imag))
        want = sorted(want, key=lambda z: (z.real, z.imag))
        gap = max(gap, float(np.max(np.abs(np.asarray(got) - np.asarray(want)))))
    return gap


def id_pool(seed, size):
    """``size`` real specs of criterion 6's menu, drawn by criterion 6's
    own `oracles.random_spec` and screened as criterion 6 screens them."""
    rng = np.random.default_rng(sub_seed(seed, 0))
    pool = []
    while len(pool) < size:
        p, q, d = ID_MENU[int(rng.integers(0, len(ID_MENU)))]
        cand = oracles.random_spec(rng, d=d, p=p, q=q, allow_complex=False, b0_positive=True)
        if identify.check_identifiability(cand, id_delta(p)).verdict == "identifiable":
            pool.append(cand)
    return pool


class Covariance:
    """`estimate.asymptotic_covariance`, one call per operation.

    Why: the only workload in BENCHMARK.json in which
    `covariance_v_matrix` (ROADMAP direction 4) and the Jacobian built
    from `model.variogram` calls do work.  The call is at the ref spec
    with variance-gamma noise, 5 axis lags per axis, delta=0.04 and
    quadratic weights; it has no random input, so every seed makes the
    same call.  Checks: Sigma is finite, symmetric and positive
    semi-definite.
    Stresses: estimate.cov and estimate.cov_v, model.variogram and
    model.autocovariance_grid.
    Bypasses: simulation, the fit layer (DE, NM), cli, gridio and
    identify.

    This is the first half of `closed`.  It is listed on its own
    because `closed` fails on every seed (see `Closed`); `closed`
    replaces it in BENCHMARK.json once `identify` passes its round trips.
    """

    name = "cov"
    why = "asymptotic covariance at the ref spec (variance-gamma, 5 lags per axis): lattice sums only, no simulation, DE or identify"

    J_MAX, DELTA = 5, 0.04

    def setup(self, seed, workdir):
        spec = ref_spec()
        weights = np.tile(estimate.weights_quadratic(self.J_MAX), 2)
        basis = simulate.VarianceGammaBasis()
        # warm-up: the same covariance call on a coarse lattice
        estimate.asymptotic_covariance(
            spec, estimate.axis_lag_set(2, 0.5, self.J_MAX), weights, basis, 0.5
        )
        return {"spec": spec, "lags": estimate.axis_lag_set(2, self.DELTA, self.J_MAX),
                "weights": weights, "basis": basis}

    def covariance(self, state):
        """One covariance call; returns (failures, seconds)."""
        t0 = time.perf_counter()
        sigma = estimate.asymptotic_covariance(
            state["spec"], state["lags"], state["weights"], state["basis"], self.DELTA
        )
        seconds = time.perf_counter() - t0
        scale = float(np.max(np.abs(sigma)))
        if not np.all(np.isfinite(sigma)):
            return ["sigma not finite"], seconds
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * scale):
            return ["sigma not symmetric"], seconds
        if np.min(np.linalg.eigvalsh(sigma)) < -1e-10 * scale:
            return ["sigma not positive semi-definite"], seconds
        return [], seconds

    def op(self, state, i):
        failures, cov_s = self.covariance(state)
        return {"ok": not failures, "detail": "; ".join(failures), "cov_s": cov_s}

    def summary(self, state, ops, busy_s):
        return {f"{self.name}.cov_s": (float(np.median([o["cov_s"] for o in ops])), "s")}


class Closed(Covariance):
    """Closed forms: `cov`'s covariance call, then a batch of 100
    identification round trips, per operation.

    Why: the only workload in which `identify` (ROADMAP direction 5)
    does work, beside the covariance sums of `cov`.  Each round trip
    runs `identify.exact_axis_ordinates`, then `recover_spec`, then
    `check_identifiability`, over a seeded pool of real specs with
    (p, q) in {(1,0), (2,0), (3,0), (2,1), (3,1)} at criterion 6's
    spacings (delta 0.2, or 0.35 when p = 3), drawn by `id_pool`.
    Checks: those of `cov`, and every round trip recovers the
    parameters to within 1e-7.
    Stresses: as `cov`, plus identify (ordinates, recovery, check).
    Bypasses: simulation, the fit layer (DE, NM), cli and gridio.

    About one draw in 200 fails its round trip, so a pool of 500 fails
    on almost every seed, and `closed` stays out of BENCHMARK.json
    until `identify` is fixed.  Two causes, both in `identify`:
    - q = 1 with b0 near zero (|b0| < 0.06): `_extract_b_from_monomials`
      takes b0 = sqrt(b0^2) and b1 = b0 b1 / b0, which divides the
      monomial error by b0 (gaps 4e-7 to 7e-6, or InconsistentMonomials);
      below |b0| ~ 0.003 it sets b0 to zero and b1 > 0 (gaps up to 1.5).
      Unwinding from b1^2 instead (|b1| >= 0.4 by construction), with
      the sign of b1 taken from b0 b1, brings these gaps to 1e-9 or less.
    - p = 3 with two eigenvalues of an axis about 0.3 apart: the
      eigenvalues or the axis weights come back with errors of 1e-7 to
      1e-6, whatever b is.
    """

    name = "closed"
    why = ("asymptotic covariance at the ref spec plus 100 identification round trips: "
           "lattice sums and identify only, no simulation or DE")

    POOL, BATCH = 500, 100

    def setup(self, seed, workdir):
        return {**super().setup(seed, workdir), "pool": id_pool(seed, self.POOL)}

    def op(self, state, i):
        failures, cov_s = self.covariance(state)
        t1 = time.perf_counter()
        pool, worst = state["pool"], 0.0
        for k in range(self.BATCH):
            idx = (i * self.BATCH + k) % len(pool)
            try:
                gap = round_trip(pool[idx])
            except carmafield.errors.CarmaFieldError as exc:
                gap = math.inf
                failures.append(f"spec {idx}: {type(exc).__name__}")
            else:
                if not gap < 1e-7:
                    failures.append(f"spec {idx}: gap {gap:.3e}")
            worst = max(worst, gap)
        return {"ok": not failures, "detail": "; ".join(failures),
                "cov_s": cov_s, "identify_s": time.perf_counter() - t1, "gap": worst}

    def summary(self, state, ops, busy_s):
        return {
            **super().summary(state, ops, busy_s),
            "closed.identify_per_s": (
                self.BATCH * len(ops) / sum(o["identify_s"] for o in ops), "round trips/s"),
            "closed.identify_err": (max(o["gap"] for o in ops), "abs"),
        }


WORKLOADS = {w.name: w for w in (
    Study(),
    Fit("fit", "car1,car2,carma21", 4,
        "carma-field fit over the car1,car2,carma21 menu on 500^2 fields: cli, ingest, variogram, three fits, manifest"),
    Fit("fitcar1", "car1", 6,
        "carma-field fit of car1 on 500^2 fields: cli, ingest, variogram, objective, DE and NM, manifest; no simulation"),
    CompoundPoisson(),
    Covariance(),
    Closed(),
)}
