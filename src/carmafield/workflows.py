"""Higher-level pipelines behind the command line front end.

Everything here is importable and testable without argv plumbing: data
diagnostics, normalization, the fit-and-select workflow over a model
menu, and the replicated simulation study (simulate on a fine grid,
thin, estimate, tabulate).
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import estimate, model, simulate
from .errors import CarmaFieldError, ConfigError, ValidationError, ZeroVariance
from .simulate import LatticeField

__all__ = [
    "normalize",
    "diagnose",
    "MODEL_MENU",
    "check_menu",
    "run_fit_workflow",
    "StudyConfig",
    "run_simulation_study",
    "worker_count",
]

# (p, q) by menu name; the workflow fits each and ranks by AIC
MODEL_MENU = {
    "car1": (1, 0),
    "car2": (2, 0),
    "car3": (3, 0),
    "carma21": (2, 1),
    "carma31": (3, 1),
}


def worker_count(n_tasks):
    """Worker pool size, capped by the CARMA_FIELD_THREADS variable."""
    cap = os.environ.get("CARMA_FIELD_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise ConfigError(
            f"CARMA_FIELD_THREADS must be an integer, got {cap!r}"
        ) from None
    return max(1, min(limit, n_tasks))


def _scaled_moments(values):
    """Mean and standard deviation of the values scaled by a power of two.

    The power of two takes the largest magnitude into [0.5, 1), so no
    square overflows, and scaling by it is exact: the moments equal
    numpy's own (the same sums in the same order) wherever numpy's
    squares stay finite and normal, and are more accurate elsewhere.
    Returns (exponent, mean, std), the moments of
    ``np.ldexp(values, -exponent)``; ``np.ldexp(m, exponent)`` restores
    the units.  One work array is squared in place, as ``np.std`` does.
    """
    exponent = int(np.frexp(max(-values.min(), values.max()))[1])
    work = np.ldexp(values, -exponent)
    mean = float(work.mean())
    work -= mean
    np.square(work, out=work)
    return exponent, mean, math.sqrt(float(work.mean()))


def normalize(field):
    """Affine rescale to sample mean zero and variance one.

    The applied shift and scale are recorded in the provenance so the
    original values are recoverable.
    """
    exponent, mean, std = _scaled_moments(field.values)
    if std == 0.0:
        raise ZeroVariance("cannot normalize a field with zero variance")
    prov = dict(field.provenance)
    prov["normalize_shift"] = float(np.ldexp(mean, exponent))
    prov["normalize_scale"] = float(np.ldexp(std, exponent))
    values = np.ldexp(field.values, -exponent)
    values -= mean
    values /= std
    return LatticeField(delta=field.delta, values=values, provenance=prov)


def diagnose(field, bins=100):
    """Stationarity and marginal diagnostics of a lattice field.

    Returns a dict with per-axis marginal means (mean over all other
    axes), a density histogram with a standard-normal reference column,
    sample statistics, and any warnings (for instance a degenerate
    histogram on constant data).  A value range that is not finite, or
    too narrow for ``bins`` distinct bin edges, raises ValidationError.
    """
    if bins < 1:
        raise ValidationError(f"the histogram needs at least 1 bin, got {bins}")
    values = field.values
    low, high = float(values.min()), float(values.max())
    # numpy's own test for equal-width bins, checked before it raises;
    # numpy widens a one-value range by 0.5 either way
    first, last = (low - 0.5, high + 0.5) if low == high else (low, high)
    if not (math.isfinite(last - first)
            and np.all(np.diff(np.linspace(first, last, bins + 1)) > 0)):
        raise ValidationError(f"the field's value range [{low!r}, {high!r}] cannot "
                              f"be split into {bins} finite bins")
    axis_means = []
    for ax in range(values.ndim):
        other = tuple(i for i in range(values.ndim) if i != ax)
        axis_means.append(values.mean(axis=other) if other else values.copy())
    exponent, mean, std = _scaled_moments(values)
    mean, std = float(np.ldexp(mean, exponent)), float(np.ldexp(std, exponent))
    warnings = []
    if std == 0.0:
        warnings.append("zero variance: histogram is degenerate")
    counts, edges = np.histogram(values.ravel(), bins=bins, density=std > 0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # exp(-800) is already 0.0, so the clip only keeps the square finite
    reference = np.exp(-0.5 * np.clip(centers, -40, 40) ** 2) / math.sqrt(2.0 * math.pi)
    return {
        "axis_means": axis_means,
        "histogram_centers": centers,
        "histogram_density": counts.astype(float),
        "normal_reference": reference,
        "mean": mean,
        "std": std,
        "min": low,
        "max": high,
        "count": int(values.size),
        "warnings": warnings,
    }


def check_menu(models):
    """Raise ``ConfigError`` unless ``models`` names one or more distinct
    entries of ``MODEL_MENU``."""
    if not models or len(set(models)) != len(models):
        raise ConfigError(f"need one or more distinct models, got {list(models)}")
    unknown = [m for m in models if m not in MODEL_MENU]
    if unknown:
        raise ConfigError(f"unknown models {unknown}; menu: {sorted(MODEL_MENU)}")


def run_fit_workflow(emp, models, **options):
    """Fit every model of the menu to one empirical variogram and rank.

    Parameters
    ----------
    emp : EmpiricalVariogram
    models : sequence of menu names (keys of ``MODEL_MENU``)
    options : the other ``estimate.FitConfig`` fields, with its defaults

    Returns
    -------
    (fits, ranked) : dict name -> FitResult, list of (name, FitResult)
    """
    check_menu(models)
    fits = {}
    for name in models:
        p, q = MODEL_MENU[name]
        config = estimate.FitConfig(p=p, q=q, **options)
        try:
            fits[name] = estimate.fit(emp, config)
        except CarmaFieldError as exc:
            raise type(exc)(f"fit stage failed for model {name}: {exc}") from exc
    ranked_results = estimate.model_select(list(fits.values()))
    by_id = {id(v): k for k, v in fits.items()}
    ranked = [(by_id[id(r)], r) for r in ranked_results]
    return fits, ranked


def overlay_tables(emp, fits):
    """Per-axis overlay data: lag, empirical ordinate, fitted ordinates.

    One table per axis that has axis lags (``emp.axes``), its rows in
    ascending lag order.  Returns a dict axis -> (header, rows) ready
    for CSV emission.
    """
    tables = {}
    names = list(fits)
    for axis, (rows, _) in emp.axes[0].items():
        taus = emp.lags[rows, axis]
        cols = [taus, emp.ordinates[rows]]
        for name in names:
            cols.append(model.axis_variogram(fits[name].spec, axis, taus))
        header = ["lag", "empirical"] + [f"fitted_{n}" for n in names]
        tables[axis] = (header, np.column_stack(cols))
    return tables


# -- simulation study ---------------------------------------------------------

# the four weighting cases: (weight scheme, share); a case fits the first
# j_max // share lags per axis, at the default j_max = 50 fifty or 25
STUDY_CASES = {
    1: ("quadratic", 1),
    2: ("quadratic", 2),
    3: ("exponential", 1),
    4: ("exponential", 2),
}


@dataclass
class StudyConfig:
    """Replicated simulation study around a known ground truth.

    Fields are simulated with the truncated-discretized scheme on a
    grid ``fine_factor`` times finer than the estimation grid, then
    thinned back, mirroring the reference protocol at desk scale.  The
    fits report b in the noise's unit: spec.kappa2 must be basis.kappa2.
    ``j_max`` axis lags are estimated per axis, and each case in ``cases``
    fits its share of them (``STUDY_CASES``), at least two per axis.
    """

    spec: model.CarmaSpec
    basis: object
    replications: int = 50
    n: int = 500
    delta: float = 0.04
    fine_factor: int = 2
    m_steps: int = 300
    j_max: int = 50
    cases: tuple = (1,)
    seed: int = 12345
    generations: int = 300
    population_factor: int = 10

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        if self.fine_factor < 1:
            raise ConfigError(f"fine_factor must be at least 1, got {self.fine_factor}")
        if self.m_steps < 1:
            raise ConfigError(f"m_steps must be at least 1, got {self.m_steps}")
        bad = [c for c in self.cases if c not in STUDY_CASES]
        if bad:
            raise ConfigError(f"unknown study cases {bad}")
        if not self.cases or len(set(self.cases)) != len(self.cases):
            raise ConfigError(f"need one or more distinct study cases, got {list(self.cases)}")
        # the fits use real blocks, one table row per eigenvalue
        if np.any(np.abs(np.imag(self.spec.eigenvalues)) > model.CONJUGATE_TOL):
            raise ConfigError("the study fits real eigenvalues; the truth has complex ones")
        estimate._check_noise_variance(self.spec, self.basis, ConfigError)
        # the checks of the master seed, the grid size, the spacing, the
        # lag count and the search settings, made once here rather than
        # in every replication; the fine grid scales n and delta as scalars
        simulate.substream(self.seed)
        for name in ("n", "delta"):
            if np.ndim(getattr(self, name)) != 0:
                raise ConfigError(f"the study takes one {name} for every axis, "
                                  f"got {getattr(self, name)!r}")
        model._per_axis(self.n, self.spec.d, "n")
        estimate.axis_lag_set(self.spec.d, self.delta, self.j_max)
        # every case's weight scheme needs two lags per axis, and the last
        # lag must stay inside the estimation grid
        least = 2 * max(STUDY_CASES[c][1] for c in self.cases)
        if not least <= self.j_max < self.n:
            raise ConfigError(f"the lag count per axis must lie in [{least}, n) with "
                              f"n = {self.n} for cases {list(self.cases)}, got {self.j_max}")
        estimate.FitConfig(p=self.spec.p, q=self.spec.q, generations=self.generations,
                           population_factor=self.population_factor)


def _thin(field, factor):
    if factor == 1:
        return field
    sl = tuple(slice(factor - 1, None, factor) for _ in range(field.d))
    return LatticeField(
        delta=tuple(d * factor for d in field.delta),
        values=np.ascontiguousarray(field.values[sl]),
        provenance=dict(field.provenance, thinned_by=factor),
    )


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def _study_replication(args):
    """One replication: simulate fine, thin, estimate per case.

    Returns (replication index, {case: theta or None}, error strings).
    """
    cfg, rep = args
    errors = []
    thetas = {}
    try:
        fine = simulate.simulate_truncated_discretized(
            cfg.spec,
            cfg.basis,
            cfg.m_steps,
            cfg.n * cfg.fine_factor,
            cfg.delta / cfg.fine_factor,
            seed=cfg.seed,
            stream=rep,
        )
        coarse = _thin(fine, cfg.fine_factor)
        lags = estimate.axis_lag_set(cfg.spec.d, coarse.delta, cfg.j_max)
        emp_full = estimate.empirical_variogram(coarse, lags)
    except CarmaFieldError as exc:
        return rep, {c: None for c in cfg.cases}, [f"simulation: {_describe(exc)}"]
    de_seed = int(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(rep, 977)).generate_state(1)[0]
    )
    for case in cfg.cases:
        scheme, share = STUDY_CASES[case]
        keep = np.concatenate([rows[steps <= cfg.j_max // share]
                               for rows, steps in emp_full.axes[0].values()])
        emp = estimate.EmpiricalVariogram(
            lags=emp_full.lags[keep],
            ordinates=emp_full.ordinates[keep],
            pair_counts=emp_full.pair_counts[keep],
            delta=emp_full.delta,
        )
        config = estimate.FitConfig(
            p=cfg.spec.p,
            q=cfg.spec.q,
            kappa2=cfg.spec.kappa2,
            weights=scheme,
            seed=de_seed + case,
            generations=cfg.generations,
            population_factor=cfg.population_factor,
        )
        try:
            thetas[case] = estimate.fit(emp, config).theta_star
        except CarmaFieldError as exc:
            thetas[case] = None
            errors.append(f"case {case}: {_describe(exc)}")
    return rep, thetas, errors


def run_simulation_study(cfg, log=None):
    """Run the replicated study and tabulate estimator quality per case.

    Replications are farmed out to a process pool (size capped by
    CARMA_FIELD_THREADS); every replication draws its own substream of
    the master seed, so results do not depend on scheduling.  ``log``
    (default: a line on stderr) is called once per replication, in
    replication order, as soon as it and every earlier one have
    finished; a failed replication's line names each error's class.

    Returns
    -------
    dict case -> {"table": list of rows, "estimates": ndarray,
                  "failed": int}
        Table rows are (parameter, true value, mean, bias, std, rmse).
    """
    log = log or (lambda msg: print(msg, file=sys.stderr))
    codec = estimate.ThetaCodec(p=cfg.spec.p, q=cfg.spec.q, d=cfg.spec.d)
    truth = codec.from_spec(cfg.spec.canonical())
    tasks = [(cfg, rep) for rep in range(cfg.replications)]
    workers = worker_count(len(tasks))
    results = {}

    def logged(finished):
        for item in finished:
            rep, _, errors = item
            status = "; ".join(errors) if errors else "done"
            log(f"replication {rep + 1}/{len(tasks)}: {status}")
            yield item

    if workers == 1:
        collected = list(logged(map(_study_replication, tasks)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            collected = list(logged(pool.map(_study_replication, tasks)))
    names = estimate.parameter_names(cfg.spec)
    for case in cfg.cases:
        thetas = [thetas_by_case[case] for _, thetas_by_case, _ in collected]
        good = np.asarray([t for t in thetas if t is not None])
        failed = sum(1 for t in thetas if t is None)
        if good.size == 0:
            raise ValidationError(f"case {case}: every replication failed")
        mean = good.mean(axis=0)
        std = good.std(axis=0, ddof=1) if good.shape[0] > 1 else np.zeros_like(mean)
        bias = mean - truth
        rmse = np.sqrt(np.mean((good - truth[None, :]) ** 2, axis=0))
        table = [
            (names[i], truth[i], mean[i], bias[i], std[i], rmse[i])
            for i in range(len(names))
        ]
        results[case] = {"table": table, "estimates": good, "failed": failed}
    return results
