"""Command line front end.

Usage: ``carma-field <subcommand> [--config PATH] [flag overrides...]``.
Subcommands: simulate, variogram, fit, recover, select, diagnose,
study.  Options come from a flat ``key = value`` config file (``#``
comments allowed) mirrored one-to-one by command line flags; flags win.
A subcommand accepts only the keys it reads, and a key that only
another branch of it reads (a noise family's key under another
family, a field key of ``fit --from-variogram``); any other key is a
``ConfigError``.  Each setting has one source: ``simulate`` and
``study`` take kappa2 from the noise keys, and a grid file carries its
format and spacing (``delta`` is refused unless the grid is a bare matrix).
Every run writes a manifest (config echo, versions, output checksums)
into the output directory and never mutates its inputs.

Exit codes: 0 success, 1 validation error, 2 numeric failure, 3 I/O
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from . import __version__, estimate, gridio, identify, model, simulate, svgplot, workflows
from .errors import ConfigError, NumericError, ValidationError

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _load_config_file(path):
    options = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        options[key.strip()] = value.strip()
    return options


class RunConfig:
    """Merged options of one subcommand run (file values, then flags)."""

    def __init__(self, command, options):
        self.command = command
        self.options = options

    def get(self, key, default=None):
        return self.options.get(key, default)

    def require(self, key):
        if key not in self.options or self.options[key] in (None, ""):
            raise ConfigError(f"missing required option '{key}'")
        return self.options[key]

    def _parse(self, key, default, kind, what):
        raw = self.get(key, default)
        if raw is None:
            raise ConfigError(f"missing required option '{key}'")
        try:
            return kind(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"option '{key}' must be {what}, got {raw!r}") from None

    def get_float(self, key, default=None):
        return self._parse(key, default, float, "a number")

    def get_int(self, key, default=None):
        return self._parse(key, default, int, "an integer")

    def get_bool(self, key, default=False):
        raw = self.get(key, None)
        if raw is None:
            return default
        text = str(raw).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"option '{key}' must be a boolean, got {raw!r}")

    def get_list(self, key, kind, default=None):
        def parts(raw):
            return [kind(part.strip()) for part in raw.split(",") if part.strip()]

        return self._parse(key, default, parts, f"a list of {kind.__name__} values")

    def refuse(self, keys, branch):
        """ConfigError if any of ``keys`` is set: ``branch`` does not read them."""
        unread = sorted(set(keys) & set(self.options))
        if unread:
            raise ConfigError(f"{self.command} {branch} does not read {', '.join(unread)}")

    def output_dir(self):
        out = Path(self.get("output_dir", "."))
        out.mkdir(parents=True, exist_ok=True)
        return out


def _parse_complex(text):
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ConfigError(f"cannot parse complex number {text!r}") from None


def _model_from_config(cfg, kappa2):
    b = cfg.get_list("b", float)
    eig_text = cfg.require("eigenvalues")
    axes = [axis.strip() for axis in eig_text.split(";") if axis.strip()]
    eigenvalues = tuple(
        tuple(_parse_complex(v) for v in axis.split(",")) for axis in axes
    )
    return model.CarmaSpec(b=tuple(b), eigenvalues=eigenvalues, kappa2=kappa2)


def _basis_from_config(cfg):
    # each family reads only its own noise keys; the others are refused
    family = cfg.get("noise", "gaussian").lower()
    if family == "gaussian":
        cfg.refuse(_NOISE_KEYS - {"noise", "sigma2"}, "with gaussian noise")
        return simulate.GaussianBasis(sigma2=cfg.get_float("sigma2", 1.0))
    if family in ("vg", "variance-gamma", "variancegamma"):
        cfg.refuse(_NOISE_KEYS - {"noise", "vg_variance", "vg_shape"},
                   "with variance-gamma noise")
        return simulate.VarianceGammaBasis(
            variance=cfg.get_float("vg_variance", 1.0),
            shape=cfg.get_float("vg_shape", 1.0),
        )
    if family in ("cp", "compound-poisson", "compoundpoisson"):
        law_name = cfg.get("cp_jumps", "rademacher").lower()
        if law_name not in _JUMP_KEYS:
            raise ConfigError(f"unknown jump law {law_name!r}")
        cfg.refuse(_NOISE_KEYS - {"noise", "cp_intensity", "cp_jumps"} - _JUMP_KEYS[law_name],
                   f"with compound-Poisson noise and {law_name} jumps")
        if law_name == "normal":
            law = simulate.NormalJumps(
                mean=cfg.get_float("jump_mean", 0.0),
                std=cfg.get_float("jump_std", 1.0),
            )
        elif law_name == "rademacher":
            law = simulate.RademacherJumps()
        else:
            law = simulate.UniformJumps(
                low=cfg.get_float("jump_low", -1.0),
                high=cfg.get_float("jump_high", 1.0),
            )
        return simulate.CompoundPoissonBasis(
            intensity=cfg.get_float("cp_intensity", 1.0), jumps=law
        )
    raise ConfigError(f"unknown noise family {cfg.get('noise')!r}")


def _write_manifest(cfg, out_dir, outputs, facts=()):
    lines = [f"command = {cfg.command}"]
    for key in sorted(cfg.options):
        lines.append(f"{key} = {cfg.options[key]}")
    lines.append(f"carmafield_version = {__version__}")
    lines.append(f"numpy_version = {np.__version__}")
    lines.append(f"scipy_version = {scipy.__version__}")
    lines.extend(f"{name} = {value:.17g}" for name, value in facts)
    for name in sorted(outputs):
        digest = hashlib.sha256(Path(out_dir, name).read_bytes()).hexdigest()
        lines.append(f"sha256:{name} = {digest}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                f"{v:.17g}" if isinstance(v, float) else str(v) for v in row
            ]
            fh.write(",".join(cells) + "\n")


def _ingest(cfg):
    delta = cfg.get_float("delta") if cfg.get("delta") is not None else None
    return gridio.ingest_grid(cfg.require("input"), delta=delta)


# -- subcommand handlers ------------------------------------------------------

def _cmd_simulate(cfg):
    basis = _basis_from_config(cfg)
    spec = _model_from_config(cfg, basis.kappa2)
    out = cfg.output_dir()
    algorithm = cfg.get("algorithm", "grid").lower()
    n = cfg.get_int("n")
    delta = cfg.get_float("delta")
    seed = cfg.get_int("seed", 0)
    if algorithm in ("grid", "discretized", "fft"):
        field = simulate.simulate_truncated_discretized(
            spec, basis, cfg.get_int("m"), n, delta, seed=seed
        )
    elif algorithm in ("cp", "compound-poisson"):
        field = simulate.simulate_compound_poisson(
            spec, basis, cfg.get_float("m"), n, delta, seed=seed
        )
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    outputs = ["field.carf"]
    gridio.write_carf(field, out / "field.carf")
    if cfg.get_bool("csv"):
        gridio.write_field_csv(field, out / "field.csv")
        outputs.append("field.csv")
    if cfg.get_bool("plot") and field.d == 2:
        svgplot.heatmap(field.values, out / "field.svg", title="simulated field")
        outputs.append("field.svg")
    _write_manifest(cfg, out, outputs)
    return 0


def _cmd_variogram(cfg):
    out = cfg.output_dir()
    field = _ingest(cfg)
    j_max = cfg.get_int("lags", 50)
    lags = estimate.axis_lag_set(field.d, field.delta, j_max)
    emp = estimate.empirical_variogram(field, lags)
    emp.to_csv(out / "variogram.csv")
    outputs = ["variogram.csv"]
    if cfg.get_bool("plot"):
        tables = workflows.overlay_tables(emp, {})
        for axis, (header, rows) in tables.items():
            svgplot.line_plot(
                {"empirical": (rows[:, 0], rows[:, 1])},
                out / f"variogram_axis{axis + 1}.svg",
                title=f"empirical variogram, axis {axis + 1}",
                xlabel="lag",
                ylabel="ordinate",
            )
            outputs.append(f"variogram_axis{axis + 1}.svg")
    _write_manifest(cfg, out, outputs)
    return 0


def _cmd_fit(cfg):
    if cfg.get("from_variogram"):
        cfg.refuse(_FIELD_KEYS, "with from_variogram")
    models = cfg.get_list("models", str, "car1,car2,carma21")
    workflows.check_menu(models)
    out = cfg.output_dir()
    facts = ()
    if cfg.get("from_variogram"):
        delta = cfg.get_float("delta") if cfg.get("delta") is not None else None
        emp = estimate.EmpiricalVariogram.from_csv(cfg.get("from_variogram"), delta=delta)
    else:
        field = _ingest(cfg)
        if cfg.get_bool("normalize"):
            field = workflows.normalize(field)
            # the unit of the fit's outputs
            facts = [(k, field.provenance[k]) for k in ("normalize_shift", "normalize_scale")]
        j_max = cfg.get_int("lags", 50)
        lags = estimate.axis_lag_set(field.d, field.delta, j_max)
        emp = estimate.empirical_variogram(field, lags)
        emp.to_csv(out / "variogram.csv")
    fits, ranked = workflows.run_fit_workflow(
        emp,
        models,
        weights=cfg.get("weights", "quadratic"),
        kappa2=cfg.get_float("kappa2", 1.0),
        seed=cfg.get_int("seed", 0),
        generations=cfg.get_int("generations", 300),
        population_factor=cfg.get_int("population", 10),
    )
    outputs = []
    if not cfg.get("from_variogram"):
        outputs.append("variogram.csv")
    for name, result in fits.items():
        result.to_kv(out / f"params_{name}.txt")
        outputs.append(f"params_{name}.txt")
    _write_csv(
        out / "summary.csv",
        ["model", "wss", "p_params", "k_lags", "aic"],
        [
            (name, r.wss, r.p_params, r.k_lags, r.aic)
            for name, r in ranked
        ],
    )
    outputs.append("summary.csv")
    tables = workflows.overlay_tables(emp, fits)
    for axis, (header, rows) in tables.items():
        fname = f"overlay_axis{axis + 1}.csv"
        _write_csv(out / fname, header, [tuple(map(float, row)) for row in rows])
        outputs.append(fname)
        if cfg.get_bool("plot"):
            series = {"empirical": (rows[:, 0], rows[:, 1])}
            for j, name in enumerate(fits, start=2):
                series[name] = (rows[:, 0], rows[:, j])
            svg = f"overlay_axis{axis + 1}.svg"
            svgplot.line_plot(
                series,
                out / svg,
                title=f"variogram fits, axis {axis + 1}",
                xlabel="lag",
                ylabel="ordinate",
            )
            outputs.append(svg)
    _write_manifest(cfg, out, outputs, facts)
    return 0


def _cmd_recover(cfg):
    out = cfg.output_dir()
    emp = estimate.EmpiricalVariogram.from_csv(cfg.require("input"))
    p = cfg.get_int("p")
    q = cfg.get_int("q", 0)
    kappa2 = cfg.get_float("kappa2", 1.0)
    axes, others = emp.axes
    if others.size:
        raise ValidationError("recovery needs ordinates on the principal axes")
    ordinates = []
    for axis in range(emp.lags.shape[1]):
        if axis not in axes:
            raise ValidationError(f"no ordinates on axis {axis + 1}")
        rows, steps = axes[axis]
        if not np.array_equal(steps, np.arange(1, steps.size + 1)):
            raise ValidationError(f"axis {axis + 1} ordinates must cover j = 1..J")
        ordinates.append(
            identify.AxisOrdinates(
                axis=axis,
                delta=float(emp.lags[rows[0], axis]),
                values=(0.0,) + tuple(emp.ordinates[rows].tolist()),
            )
        )
    spec = identify.recover_spec(ordinates, p, q, kappa2)
    report = identify.check_identifiability(spec, [o.delta for o in ordinates])
    lines = estimate.parameter_lines(spec) + [
        f"verdict = {report.verdict}",
        f"dstar_nonzero = {list(report.dstar_nonzero)}",
        f"imag_in_band = {list(report.imag_in_band)}",
        f"product_condition = {report.product_condition}",
    ]
    (out / "recovered.txt").write_text("\n".join(lines) + "\n")
    _write_manifest(cfg, out, ["recovered.txt"])
    return 0


def _cmd_select(cfg):
    out = cfg.output_dir()
    path = cfg.require("input")
    rows = []
    with open(path) as fh:
        header = [h.strip() for h in fh.readline().strip().split(",")]
        needed = ["model", "wss", "p_params", "k_lags"]
        if header[: len(needed)] != needed:
            raise ValidationError(
                f"selection input must start with columns {needed}"
            )
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            try:
                wss, p_params, k_lags = float(cells[1]), int(cells[2]), int(cells[3])
            except (IndexError, ValueError):
                raise ValidationError(
                    f"{path} line {lineno}: need a model name, a number and "
                    "two integers"
                ) from None
            if not (np.isfinite(wss) and wss >= 0 and p_params >= 0 and k_lags >= 1):
                raise ValidationError(
                    f"{path} line {lineno}: need wss >= 0, p_params >= 0 "
                    "and k_lags >= 1"
                )
            rows.append(SimpleNamespace(
                model=cells[0], wss=wss, p_params=p_params, k_lags=k_lags,
                aic=estimate.aic_value(wss, p_params, k_lags),
            ))
    ranked = estimate.model_select(rows)
    _write_csv(
        out / "selection.csv",
        ["model", "wss", "p_params", "k_lags", "aic"],
        [(r.model, r.wss, r.p_params, r.k_lags, r.aic) for r in ranked],
    )
    _write_manifest(cfg, out, ["selection.csv"])
    return 0


def _cmd_diagnose(cfg):
    out = cfg.output_dir()
    field = _ingest(cfg)
    report = workflows.diagnose(field, bins=cfg.get_int("bins", 100))
    outputs = []
    for ax, means in enumerate(report["axis_means"], start=1):
        fname = f"axis_means_{ax}.csv"
        _write_csv(out / fname, ["index", "mean"],
                   [(i + 1, float(v)) for i, v in enumerate(means)])
        outputs.append(fname)
    _write_csv(
        out / "histogram.csv",
        ["bin_center", "density", "normal_reference"],
        [
            (float(c), float(h), float(r))
            for c, h, r in zip(
                report["histogram_centers"],
                report["histogram_density"],
                report["normal_reference"],
            )
        ],
    )
    outputs.append("histogram.csv")
    stats = [
        f"mean = {report['mean']:.17g}",
        f"std = {report['std']:.17g}",
        f"min = {report['min']:.17g}",
        f"max = {report['max']:.17g}",
        f"count = {report['count']}",
    ] + [f"warning = {w}" for w in report["warnings"]]
    (out / "stats.txt").write_text("\n".join(stats) + "\n")
    outputs.append("stats.txt")
    if cfg.get_bool("plot"):
        svgplot.line_plot(
            {
                "data": (report["histogram_centers"], report["histogram_density"]),
                "normal": (report["histogram_centers"], report["normal_reference"]),
            },
            out / "histogram.svg",
            title="marginal density",
            xlabel="value",
            ylabel="density",
        )
        outputs.append("histogram.svg")
    _write_manifest(cfg, out, outputs)
    return 0


def _cmd_study(cfg):
    basis = _basis_from_config(cfg)
    spec = _model_from_config(cfg, basis.kappa2)
    out = cfg.output_dir()
    study = workflows.StudyConfig(
        spec=spec,
        basis=basis,
        replications=cfg.get_int("replications", 50),
        n=cfg.get_int("n", 500),
        delta=cfg.get_float("delta", 0.04),
        fine_factor=cfg.get_int("fine_factor", 2),
        m_steps=cfg.get_int("m", 300),
        j_max=cfg.get_int("lags", 50),
        cases=tuple(cfg.get_list("cases", int, "1")),
        seed=cfg.get_int("seed", 12345),
        generations=cfg.get_int("generations", 300),
        population_factor=cfg.get_int("population", 10),
    )
    results = workflows.run_simulation_study(study)
    outputs = []
    names = estimate.parameter_names(spec)
    for case, data in results.items():
        fname = f"study_case{case}.csv"
        _write_csv(
            out / fname,
            ["parameter", "true_value", "mean", "bias", "std", "rmse"],
            [tuple(row) for row in data["table"]],
        )
        outputs.append(fname)
        ename = f"estimates_case{case}.csv"
        _write_csv(
            out / ename,
            names,
            [tuple(map(float, row)) for row in data["estimates"]],
        )
        outputs.append(ename)
        if data["failed"]:
            print(
                f"case {case}: {data['failed']} replication(s) failed and "
                "were excluded",
                file=sys.stderr,
            )
    _write_manifest(cfg, out, outputs)
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "variogram": _cmd_variogram,
    "fit": _cmd_fit,
    "recover": _cmd_recover,
    "select": _cmd_select,
    "diagnose": _cmd_diagnose,
    "study": _cmd_study,
}

# the config keys each subcommand reads, through its handler and helpers
_MODEL_KEYS = {"b", "eigenvalues"}
_NOISE_KEYS = {"noise", "sigma2", "vg_variance", "vg_shape", "cp_intensity",
               "cp_jumps", "jump_mean", "jump_std", "jump_low", "jump_high"}
# the jump keys each compound-Poisson jump law reads
_JUMP_KEYS = {"normal": {"jump_mean", "jump_std"}, "rademacher": set(),
              "uniform": {"jump_low", "jump_high"}}
_INGEST_KEYS = {"input", "delta"}
# the keys only fit's field branch reads, not its from_variogram branch
_FIELD_KEYS = {"input", "normalize", "lags"}
_COMMAND_KEYS = {
    "simulate": {"output_dir", *_MODEL_KEYS, *_NOISE_KEYS, "algorithm", "n",
                 "delta", "m", "seed", "csv", "plot"},
    "variogram": {"output_dir", *_INGEST_KEYS, "lags", "plot"},
    "fit": {"output_dir", *_INGEST_KEYS, "from_variogram", "normalize", "lags",
            "models", "weights", "kappa2", "seed", "generations", "population",
            "plot"},
    "recover": {"output_dir", "input", "p", "q", "kappa2"},
    "select": {"output_dir", "input"},
    "diagnose": {"output_dir", *_INGEST_KEYS, "bins", "plot"},
    "study": {"output_dir", *_MODEL_KEYS, *_NOISE_KEYS, "replications", "n",
              "delta", "fine_factor", "m", "lags", "cases", "seed",
              "generations", "population"},
}

_NEGATIVE_VALUE = re.compile(r"^-\d")


@lru_cache(maxsize=None)
def _build_parser():
    # built once per process (parse_args returns a fresh namespace per call);
    # each subcommand has a flag per config key it reads, so argparse
    # rejects any other flag; no abbreviations, or a flag of another
    # command could pass as the prefix of one of this command's
    parser = _Parser(prog="carma-field", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None)
        for flag in sorted(_COMMAND_KEYS[name]):
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, default=None)
        # values like "-1.7,-2.1;-1.3,-2.5" must parse as arguments,
        # not flags
        p._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def run(argv=None):
    args = _build_parser().parse_args(argv)
    options = {}
    if args.config:
        options.update(_load_config_file(args.config))
    for flag in sorted(_COMMAND_KEYS[args.command]):
        value = getattr(args, flag)
        if value is not None:
            options[flag] = value
    # only a config file can hold a key the command does not read
    unread = sorted(set(options) - _COMMAND_KEYS[args.command])
    if unread:
        raise ConfigError(f"{args.command} does not read {', '.join(unread)}")
    cfg = RunConfig(args.command, options)
    return _HANDLERS[args.command](cfg)


def main(argv=None):
    try:
        return run(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
