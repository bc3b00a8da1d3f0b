"""Which functions the traced run wraps, and the per-layer metrics.

Span names follow ``<module>.<layer>``.  Counts come from arguments and
public return values: ``FitResult.diagnostics``,
``EmpiricalVariogram.pair_counts`` and the ``OptimizeResult`` that the
two scipy optimizers return to ``estimate``.  Counts marked computed are
derived from arguments, not measured inside the program.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy import fft as sfft

from carmafield import cli, estimate, gridio, identify, model, simulate, workflows


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _td_cells(args, kwargs, result):
    # simulate_truncated_discretized(spec, basis, m_steps, n, delta, seed, ...)
    m_steps = int(_arg(args, kwargs, 2, "m_steps"))
    n = result.n
    return {
        "simulate.td.noise_cells": math.prod(ni + m_steps for ni in n),
        "simulate.td.fft_cells": math.prod(sfft.next_fast_len(ni + m_steps) for ni in n),
    }


def cp_jumps(basis, m_radius, d, seed, stream):
    """Jump count of one compound-Poisson draw, recomputed from the
    public substream: the first variate the simulator takes."""
    rng = simulate.substream(seed, stream)
    return int(rng.poisson(basis.intensity * (2.0 * m_radius) ** d))


def _cp_jumps(args, kwargs, result):
    # simulate_compound_poisson(spec, basis, m_radius, n, delta, seed, stream)
    stream = kwargs.get("stream", args[6] if len(args) > 6 else 0)
    jumps = cp_jumps(_arg(args, kwargs, 1, "basis"), _arg(args, kwargs, 2, "m_radius"),
                     result.d, _arg(args, kwargs, 5, "seed"), stream)
    return {"simulate.cp.jumps": jumps}


def _cp_points(args, kwargs, result):
    return {"simulate.cp_at.points": int(np.size(result))}


def _pairs(args, kwargs, result):
    return {"estimate.variogram.pairs": int(np.sum(result.pair_counts))}


def _fit_diag(args, kwargs, result):
    return {"estimate.converged": int(bool(result.diagnostics.get("converged")))}


def _de_counts(args, kwargs, result):
    return {"estimate.de.evals": int(result.nfev), "estimate.de.generations": int(result.nit)}


def _nm_counts(args, kwargs, result):
    return {"estimate.nm.evals": int(result.nfev), "estimate.nm.iters": int(result.nit)}


def _read_bytes(args, kwargs, result):
    return {"gridio.read.bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}


def _written_bytes(args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv"))
    out = Path(argv[argv.index("--output-dir") + 1]) if "--output-dir" in argv else None
    if out is None or not out.is_dir():
        return {}
    return {"cli.bytes_written": sum(f.stat().st_size for f in out.iterdir() if f.is_file())}


# (owner, attribute, span name, observer)
TARGETS = [
    (cli, "main", "cli.fit", _written_bytes),
    (workflows, "run_simulation_study", "workflows.study", None),
    (workflows, "run_fit_workflow", "workflows.fit", None),
    (workflows, "overlay_tables", "workflows.overlay", None),
    (gridio, "ingest_grid", "gridio.read", _read_bytes),
    (simulate, "simulate_truncated_discretized", "simulate.td", _td_cells),
    (simulate, "sample_increments", "simulate.increments", None),
    (simulate, "simulate_compound_poisson", "simulate.cp", _cp_jumps),
    (simulate, "simulate_compound_poisson_at", "simulate.cp_at", _cp_points),
    (estimate, "empirical_variogram", "estimate.variogram", _pairs),
    (estimate, "fit", "estimate.fit", _fit_diag),
    (estimate.optimize, "differential_evolution", "estimate.de", _de_counts),
    (estimate.optimize, "minimize", "estimate.nm", _nm_counts),
    (estimate, "asymptotic_covariance", "estimate.cov", None),
    (estimate, "covariance_v_matrix", "estimate.cov_v", None),
    (model.CarmaSpec, "__post_init__", "model.spec", None),
    (model, "axis_variogram", "model.axis_variogram", None),
    (model, "variogram", "model.variogram", None),
    (model, "autocovariance_grid", "model.autocovariance_grid", None),
    (model, "kernel_on_grid", "model.kernel_on_grid", None),
    (identify, "recover_spec", "identify.recover", None),
    (identify, "check_identifiability", "identify.check", None),
    (identify, "exact_axis_ordinates", "identify.ordinates", None),
]

CALLS = ["model.spec", "model.axis_variogram", "model.variogram",
         "model.kernel_on_grid", "estimate.fit", "identify.recover"]
SELF = ["model.spec", "model.axis_variogram", "model.variogram",
        "model.autocovariance_grid", "model.kernel_on_grid", "simulate.td",
        "simulate.increments", "simulate.cp", "simulate.cp_at",
        "estimate.variogram", "estimate.fit", "estimate.de", "estimate.nm",
        "estimate.cov", "estimate.cov_v", "identify.recover",
        "identify.check", "identify.ordinates", "workflows.study",
        "workflows.fit", "workflows.overlay", "gridio.read", "cli.fit"]
COUNTS = ["simulate.td.noise_cells", "simulate.td.fft_cells",
          "simulate.cp.jumps", "simulate.cp_at.points",
          "estimate.variogram.pairs", "estimate.de.evals",
          "estimate.de.generations", "estimate.nm.evals", "estimate.nm.iters",
          "gridio.read.bytes", "cli.bytes_written"]
# exact work counts, produced by the program itself, that two repeats
# with one seed must reproduce: the optimizers' evaluation counts, the
# variogram's pair counts and the calls into the model layer (for cp,
# one kernel_on_grid call per jump that reaches the lattice or a point)
DETERMINISTIC_SPANS = ["model.axis_variogram", "model.variogram",
                       "model.autocovariance_grid", "model.kernel_on_grid"]
DETERMINISTIC = ["estimate.de.evals", "estimate.nm.evals", "estimate.variogram.pairs"] + [
    f"{name}.calls" for name in DETERMINISTIC_SPANS]


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith(("bytes", "bytes_written")):
        return "bytes"
    return "count"


def layer_metrics(totals, nested, counts, n_ops):
    """Per-layer metrics, each a total over the traced operations
    divided by their number (ratios are ratios of totals)."""

    def span(name, key):
        return totals[name][key] if name in totals else 0

    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = span(name, "calls") / n_ops
    for name in SELF:
        out[f"{name}.self_s"] = span(name, "self_s") / n_ops
    for name in COUNTS:
        out[name] = counts.get(name, 0) / n_ops
    jumps = counts.get("simulate.cp.jumps", 0)
    hits = nested.get(("simulate.cp", "model.kernel_on_grid"), 0)
    out["simulate.cp.hit_ratio"] = hits / jumps if jumps else 0.0
    fits = span("estimate.fit", "calls")
    out["estimate.converged_frac"] = counts.get("estimate.converged", 0) / fits if fits else 0.0
    evals = counts.get("estimate.de.evals", 0) + counts.get("estimate.nm.evals", 0)
    busy = span("estimate.de", "total_s") + span("estimate.nm", "total_s")
    out["estimate.objective_us"] = 1e6 * busy / evals if evals else 0.0
    return {name: (value, _unit(name)) for name, value in out.items()}


def op_counts(tracer, op):
    """The deterministic counts of one traced operation."""
    counts = dict(tracer.counts[op])
    for name in DETERMINISTIC_SPANS:
        counts[f"{name}.calls"] = sum(1 for s in tracer.spans if s[4] == op and s[0] == name)
    return {name: counts.get(name, 0) for name in DETERMINISTIC}
