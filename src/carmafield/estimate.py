"""Variogram estimation and weighted-least-squares model fitting.

The empirical variogram is the method-of-moments average of squared
increments over all lattice pairs at each lag.  Parameters are fitted
by minimizing the weighted squared gap between empirical and model
ordinates over a compact box: a seeded differential-evolution global
search followed by a derivative-free simplex polish.  The sampling
covariance of the fitted parameters at the optimum is available from
the delta-method sandwich built on the variogram estimator's own
asymptotic covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import model
from .errors import (
    InvalidSpec,
    LagOutOfRange,
    MixedLagSets,
    NonIdentifiableLagSet,
    NumericError,
    SingularDesign,
    ValidationError,
)

__all__ = [
    "EmpiricalVariogram",
    "FitConfig",
    "FitResult",
    "ThetaCodec",
    "parameter_names",
    "parameter_lines",
    "axis_lag_set",
    "empirical_variogram",
    "weights_quadratic",
    "weights_exponential",
    "resolve_weights",
    "wls_objective",
    "fit",
    "aic_value",
    "covariance_v_matrix",
    "variogram_estimator_covariance",
    "asymptotic_covariance",
    "model_select",
]

DESIGN_COND_MAX = 1e12
LAG_INTEGER_TOL = 1e-6

# Fit search box [0, B_MAX] x [-B_MAX, B_MAX]^q x [EIG_MIN, 0]^{dp}, with
# imaginary parts of complex eigenvalue blocks in [0, IM_MAX].
B_MAX = 10.0
EIG_MIN = -10.0
IM_MAX = 10.0
# differential evolution and its Nelder-Mead polish
DE_CROSSOVER = 0.9
DE_DIFFERENTIAL_WEIGHT = 0.8
DE_TOL = 0.01
POLISH_TOL = 1e-10
# relative step of the central-difference Jacobian in theta
JACOBIAN_REL_STEP = 1e-5


# -- empirical variogram --------------------------------------------------------

@dataclass
class EmpiricalVariogram:
    """Matheron ordinates at a list of lags on a regular lattice.

    ``lags`` holds physical lag vectors (multiples of the spacing),
    ``pair_counts`` the exact number of lattice pairs entering each
    average.
    """

    lags: np.ndarray
    ordinates: np.ndarray
    pair_counts: np.ndarray
    delta: tuple
    n: tuple

    def __post_init__(self):
        self.lags = np.atleast_2d(np.asarray(self.lags, dtype=float))
        self.ordinates = np.asarray(self.ordinates, dtype=float)
        self.pair_counts = np.asarray(self.pair_counts, dtype=np.int64)
        if np.any(self.ordinates < 0):
            raise ValidationError("variogram ordinates must be non-negative")
        if np.any(self.pair_counts <= 0):
            raise ValidationError("pair counts must be positive")

    @property
    def k(self):
        return self.lags.shape[0]

    def to_csv(self, path):
        d = self.lags.shape[1]
        header = ",".join(f"lag{i + 1}" for i in range(d)) + ",ordinate,pair_count"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row, ordi, cnt in zip(self.lags, self.ordinates, self.pair_counts):
                cells = [f"{v:.17g}" for v in row] + [f"{ordi:.17g}", str(int(cnt))]
                fh.write(",".join(cells) + "\n")

    @classmethod
    def from_csv(cls, path, delta=None, n=None):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header[-2:] != ["ordinate", "pair_count"]:
                raise ValidationError(f"unexpected variogram header in {path}")
            d = len(header) - 2
            lags, ords, counts = [], [], []
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                cells = line.strip().split(",")
                try:
                    lag = [float(v) for v in cells[:d]]
                    ordinate, count = float(cells[d]), int(cells[d + 1])
                except (IndexError, ValueError):
                    raise ValidationError(
                        f"{path} line {lineno}: need {d} lags, an ordinate "
                        "and an integer pair count"
                    ) from None
                lags.append(lag)
                ords.append(ordinate)
                counts.append(count)
        if not lags:
            raise ValidationError(f"variogram CSV {path} has no rows")
        lags = np.asarray(lags)
        if delta is None:
            # infer the spacing as the smallest nonzero lag per axis
            delta = []
            fallback = float(np.min(np.abs(lags[lags != 0.0]))) if np.any(lags) else 1.0
            for i in range(d):
                col = np.abs(lags[:, i])
                col = col[col > 0]
                delta.append(float(np.min(col)) if col.size else fallback)
        return cls(
            lags=lags,
            ordinates=np.asarray(ords),
            pair_counts=np.asarray(counts),
            delta=(float(delta),) * d if np.isscalar(delta) else tuple(delta),
            n=tuple(n) if n is not None else (0,) * d,
        )


def axis_lag_set(d, delta, j_max):
    """Lags {j * delta * e_i : i = 1..d, j = 1..j_max}, axis-major order."""
    delta = (delta,) * d if np.isscalar(delta) else tuple(delta)
    lags = []
    for i in range(d):
        for j in range(1, j_max + 1):
            row = [0.0] * d
            row[i] = j * delta[i]
            lags.append(row)
    return np.asarray(lags)


def _lag_steps(delta, lags):
    """Integer step vectors for physical lags; validates divisibility."""
    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    steps = lags / np.asarray(delta)[None, :]
    rounded = np.rint(steps)
    if not np.all(np.abs(steps - rounded) <= LAG_INTEGER_TOL):
        raise ValidationError("lags must be integer multiples of the spacing")
    return rounded.astype(int)


def empirical_variogram(field, lags):
    """Method-of-moments variogram of a lattice field at the given lags.

    For each lag t the ordinate is the mean of (Y(s+t) - Y(s))^2 over
    every lattice pair at that offset; the pair count is the product of
    (n_i - |t_i|/delta_i).

    Raises
    ------
    LagOutOfRange
        If some |t_i| reaches the lattice extent.
    """
    values = field.values
    steps = _lag_steps(field.delta, lags)
    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    ordinates = np.empty(steps.shape[0])
    counts = np.empty(steps.shape[0], dtype=np.int64)
    for row, kvec in enumerate(steps):
        if np.any(np.abs(kvec) >= values.shape):
            raise LagOutOfRange(f"lag {lags[row]} exceeds the lattice extent")
        src, dst = [], []
        for k, size in zip(kvec, values.shape):
            if k >= 0:
                src.append(slice(0, size - k))
                dst.append(slice(k, size))
            else:
                src.append(slice(-k, size))
                dst.append(slice(0, size + k))
        diff = values[tuple(dst)] - values[tuple(src)]
        ordinates[row] = float(np.mean(diff * diff)) if diff.size else 0.0
        counts[row] = int(np.prod([s - abs(k) for k, s in zip(kvec, values.shape)]))
    return EmpiricalVariogram(
        lags=lags,
        ordinates=ordinates,
        pair_counts=counts,
        delta=field.delta,
        n=field.n,
    )


# -- weights ---------------------------------------------------------------------

def weights_quadratic(j_max):
    """Quadratically decreasing weights ((0.1 (j-1) + J - j) / (J - 1))^2."""
    if j_max < 2:
        raise ValidationError("need at least two lags per axis")
    j = np.arange(1, j_max + 1, dtype=float)
    return ((0.1 * (j - 1) + j_max - j) / (j_max - 1)) ** 2


def weights_exponential(j_max, delta):
    """Exponentially increasing weights exp(j * delta)."""
    if j_max < 2:
        raise ValidationError("need at least two lags per axis")
    return np.exp(np.arange(1, j_max + 1) * float(delta))


def _axis_structure(emp):
    """Classify lags: (axis, j) for axis lags, None otherwise."""
    steps = _lag_steps(emp.delta, emp.lags)
    classes = []
    for kvec in steps:
        nz = np.nonzero(kvec)[0]
        if nz.size == 1 and kvec[nz[0]] > 0:
            classes.append((int(nz[0]), int(kvec[nz[0]])))
        else:
            classes.append(None)
    return classes


def resolve_weights(emp, scheme):
    """Per-lag weights from a scheme name or an explicit array.

    Named schemes ("quadratic", "exponential") assign the j-th axis lag
    the j-th weight regardless of axis, which requires a pure axis lag
    set.
    """
    if not isinstance(scheme, str):
        w = np.asarray(scheme, dtype=float)
        if w.shape != (emp.k,):
            raise ValidationError("custom weights must match the lag count")
        if np.any(w <= 0):
            raise ValidationError("weights must be strictly positive")
        return w
    classes = _axis_structure(emp)
    if any(c is None for c in classes):
        raise ValidationError(
            "named weight schemes need axis lags; pass explicit weights"
        )
    j_max = max(j for _, j in classes)
    if scheme == "quadratic":
        table = weights_quadratic(j_max)
    elif scheme == "exponential":
        delta_by_axis = emp.delta
        table = {
            axis: weights_exponential(j_max, delta_by_axis[axis])
            for axis in range(len(emp.delta))
        }
        return np.asarray([table[a][j - 1] for a, j in classes])
    else:
        raise ValidationError(f"unknown weight scheme {scheme!r}")
    return np.asarray([table[j - 1] for _, j in classes])


# -- parameter vector codec -------------------------------------------------------

@dataclass(frozen=True)
class ThetaCodec:
    """Mapping between flat parameter vectors and CarmaSpec objects.

    The vector is (b_0, ..., b_q) followed by per-axis eigenvalue
    blocks.  A real block contributes one coordinate; a complex block
    contributes (real part, imaginary part) and expands to a conjugate
    pair, so conjugacy is structural and the optimizer never sees an
    invalid configuration.
    """

    p: int
    q: int
    d: int
    kappa2: float = 1.0
    blocks: tuple = None  # per axis, e.g. ("r", "r") or ("c",)

    def __post_init__(self):
        if self.blocks is None:
            blocks = tuple(("r",) * self.p for _ in range(self.d))
            object.__setattr__(self, "blocks", blocks)
        for axis_blocks in self.blocks:
            width = sum(1 if b == "r" else 2 for b in axis_blocks)
            if width != self.p:
                raise ValidationError("blocks must cover p eigenvalues per axis")

    @property
    def dim(self):
        return self.q + 1 + self.d * self.p

    def to_spec(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.dim:
            raise ValidationError(f"theta must have {self.dim} entries")
        b = tuple(theta[: self.q + 1])
        pos = self.q + 1
        eigenvalues = []
        for axis_blocks in self.blocks:
            axis = []
            for kind in axis_blocks:
                if kind == "r":
                    axis.append(complex(theta[pos]))
                    pos += 1
                else:
                    re, im = theta[pos], abs(theta[pos + 1])
                    axis.extend([complex(re, im), complex(re, -im)])
                    pos += 2
            eigenvalues.append(tuple(axis))
        return model.CarmaSpec(b=b, eigenvalues=tuple(eigenvalues),
                               kappa2=self.kappa2)

    def from_spec(self, spec):
        theta = list(spec.b[: self.q + 1])
        for axis_blocks, axis in zip(self.blocks, spec.eigenvalues):
            eigs = list(axis)
            for kind in axis_blocks:
                if kind == "r":
                    lam = eigs.pop(0)
                    theta.append(lam.real)
                else:
                    lam = eigs.pop(0)
                    eigs.remove(lam.conjugate())
                    theta.append(lam.real)
                    theta.append(abs(lam.imag))
        return np.asarray(theta)

    def default_bounds(self):
        """The fit's search box, one (low, high) pair per coordinate."""
        bounds = [(0.0, B_MAX)]
        bounds += [(-B_MAX, B_MAX)] * self.q
        for axis_blocks in self.blocks:
            for kind in axis_blocks:
                if kind == "r":
                    bounds.append((EIG_MIN, 0.0))
                else:
                    bounds.append((EIG_MIN, 0.0))
                    bounds.append((0.0, IM_MAX))
        return bounds


def parameter_names(spec):
    """Names b0..b_q, then lambda<axis><k> per eigenvalue, 1-based."""
    names = [f"b{i}" for i in range(spec.q + 1)]
    for i in range(1, spec.d + 1):
        for k in range(1, spec.p + 1):
            names.append(f"lambda{i}{k}")
    return names


def parameter_lines(spec):
    """``name = value`` lines of a parameter file, in ``parameter_names`` order.

    Values print with 17 significant digits; a complex eigenvalue as
    ``re+imj``.
    """
    values = list(spec.b[: spec.q + 1])
    values += [lam for axis in spec.eigenvalues for lam in axis]
    lines = []
    for name, value in zip(parameter_names(spec), map(complex, values)):
        text = f"{value.real:.17g}"
        if value.imag != 0:
            text += f"{value.imag:+.17g}j"
        lines.append(f"{name} = {text}")
    return lines


# -- objective and fit --------------------------------------------------------------

class _WlsProblem:
    """Precomputed lag structure for fast repeated objective evaluation."""

    def __init__(self, emp, weights, codec):
        self.emp = emp
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (emp.k,):
            raise ValidationError("weights length must equal the lag count")
        if np.any(self.weights <= 0):
            raise ValidationError("weights must be strictly positive")
        self.codec = codec
        classes = _axis_structure(emp)
        self.axis_groups = {}
        self.general_rows = [i for i, c in enumerate(classes) if c is None]
        for i, cls in enumerate(classes):
            if cls is not None:
                axis, j = cls
                self.axis_groups.setdefault(axis, []).append((i, j * emp.delta[axis]))

    def model_ordinates(self, spec):
        out = np.empty(self.emp.k)
        for axis, rows in self.axis_groups.items():
            idx = [r for r, _ in rows]
            taus = np.asarray([t for _, t in rows])
            out[idx] = model.axis_variogram(spec, axis, taus)
        for r in self.general_rows:
            out[r] = model.variogram(spec, self.emp.lags[r])
        return out

    def objective(self, theta):
        try:
            spec = self.codec.to_spec(theta)
            resid = self.emp.ordinates - self.model_ordinates(spec)
        except (ValidationError, NumericError, InvalidSpec):
            return float("inf")
        return float(np.sum(self.weights * resid * resid))


def wls_objective(theta, emp, weights, p, q, kappa2=1.0, blocks=None):
    """Weighted sum of squared variogram gaps at one parameter vector.

    Model evaluation failures (for instance coincident eigenvalues
    proposed by an optimizer) yield +inf so search steers away.
    """
    codec = ThetaCodec(p=p, q=q, d=emp.lags.shape[1], kappa2=kappa2,
                       blocks=blocks)
    return _WlsProblem(emp, weights, codec).objective(theta)


@dataclass
class FitConfig:
    """Options for the two-stage WLS fit.

    The defaults reproduce the reference setup: quadratic lag weights,
    population of 10 per parameter and 300 generations.  The parameter
    box and the remaining search settings are module constants
    (``B_MAX``, ``EIG_MIN``, ``IM_MAX``, ``DE_*``, ``POLISH_TOL``).
    """

    p: int
    q: int
    kappa2: float = 1.0
    weights: object = "quadratic"
    blocks: tuple = None
    population_factor: int = 10
    generations: int = 300
    seed: int = 0
    require_identifiable_lags: bool = True


def _check_lag_menu(emp, p, q, strict):
    """Identifiability status of the lag set for the chosen order.

    Every order needs the axis lags j = 1..2p+1 that
    ``identify.recover_axis_eigenvalues`` needs.
    """
    classes = _axis_structure(emp)
    d = emp.lags.shape[1]
    if any(c is None for c in classes):
        return "unverified (non-axis lags present)"
    needed = 2 * p + 1
    by_axis = {}
    for axis, j in classes:
        by_axis.setdefault(axis, set()).add(j)
    missing = []
    for axis in range(d):
        have = by_axis.get(axis, set())
        lacking = [j for j in range(1, needed + 1) if j not in have]
        if lacking:
            missing.append((axis, lacking))
    if missing:
        msg = (
            f"order ({p},{q}) needs axis lags j=1..{needed} on every axis; "
            + "; ".join(f"axis {a} lacks {l}" for a, l in missing)
        )
        if strict:
            raise NonIdentifiableLagSet(msg)
        return f"insufficient ({msg})"
    return "axis-verified"


@dataclass
class FitResult:
    """Fitted parameters with goodness-of-fit and diagnostics."""

    theta_star: np.ndarray
    spec: model.CarmaSpec
    wss: float
    aic: float
    p_params: int
    k_lags: int
    sigma: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)

    def to_kv(self, path):
        lines = parameter_lines(self.spec) + [
            f"wss = {self.wss:.17g}",
            f"aic = {self.aic:.17g}",
            f"p_params = {self.p_params}",
            f"k_lags = {self.k_lags}",
            f"converged = {self.diagnostics.get('converged', True)}",
        ]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def aic_value(wss, p_params, k_lags):
    """Akaike criterion 2 P + K log(WSS / K)."""
    if wss <= 0.0:
        return float("-inf")
    return 2.0 * p_params + k_lags * math.log(wss / k_lags)


def fit(emp, config):
    """Two-stage WLS fit of CARMA parameters to an empirical variogram.

    Differential evolution over the parameter box (seeded, hence
    deterministic) followed by a Nelder-Mead polish from the best
    candidate.  Output eigenvalues are in canonical order (descending
    real part, then descending imaginary part).

    Raises
    ------
    NonIdentifiableLagSet
        When the lag set is axis-only but misses the minimum required
        for the order (disable with
        ``config.require_identifiable_lags=False``).
    """
    codec = ThetaCodec(p=config.p, q=config.q, d=emp.lags.shape[1],
                       kappa2=config.kappa2, blocks=config.blocks)
    lag_status = _check_lag_menu(emp, config.p, config.q,
                                 config.require_identifiable_lags)
    weights = resolve_weights(emp, config.weights)
    problem = _WlsProblem(emp, weights, codec)
    bounds = codec.default_bounds()
    de = optimize.differential_evolution(
        problem.objective,
        bounds=bounds,
        maxiter=config.generations,
        popsize=config.population_factor,
        mutation=DE_DIFFERENTIAL_WEIGHT,
        recombination=DE_CROSSOVER,
        tol=DE_TOL,
        seed=config.seed,
        init="latinhypercube",
        polish=False,
    )
    polish = optimize.minimize(
        problem.objective,
        de.x,
        method="Nelder-Mead",
        bounds=bounds,
        options={
            "xatol": POLISH_TOL,
            "fatol": POLISH_TOL * max(1.0, abs(de.fun)),
            "maxiter": 20000,
            "maxfev": 20000,
        },
    )
    theta, value = (polish.x, polish.fun) if polish.fun <= de.fun else (de.x, de.fun)
    spec = codec.to_spec(theta).canonical()
    theta = codec.from_spec(spec)
    p_params = codec.dim
    result = FitResult(
        theta_star=theta,
        spec=spec,
        wss=float(value),
        aic=aic_value(float(value), p_params, emp.k),
        p_params=p_params,
        k_lags=emp.k,
        diagnostics={
            "converged": bool(de.success),
            "de_generations": int(de.nit),
            "de_evaluations": int(de.nfev),
            "polish_iterations": int(polish.nit),
            "lag_set": lag_status,
        },
    )
    return result


# -- asymptotic covariance ------------------------------------------------------------

def _variogram_jacobian(codec, theta0, lags):
    """Central finite differences of the model ordinates in theta."""
    theta0 = np.asarray(theta0, dtype=float)
    k = lags.shape[0]
    jac = np.empty((k, theta0.size))

    def ordinates(theta):
        spec = codec.to_spec(theta)
        return np.asarray([model.variogram(spec, lag) for lag in lags])

    for i in range(theta0.size):
        h = JACOBIAN_REL_STEP * max(abs(theta0[i]), 1.0)
        up = theta0.copy()
        dn = theta0.copy()
        up[i] += h
        dn[i] -= h
        jac[:, i] = (ordinates(up) - ordinates(dn)) / (2.0 * h)
    return jac


def _gamma_pair_sums(m, dl, shifts):
    """T[m1, m2, m3, m4, r] = sum_k I(m1, m2, k dl) I(m3, m4, (k + n_r) dl).

    I is the per-axis factor of ``model.autocovariance``, k runs over Z
    and n = ``shifts`` counts steps.  For k >= max(0, -n) both arguments
    are >= 0, for k < min(0, -n) both are negative: two geometric tails
    with ratios exp((m2 + m4) dl) and exp((m1 + m3) dl).  The |n| terms
    in between are summed directly, as their ratio can be exactly 1.
    """
    m1, m2, m3, m4 = m
    pos, neg = np.maximum(shifts, 0), np.maximum(-shifts, 0)

    def terms(k):  # the summand times (m1 + m2) (m3 + m4), in one exponent
        j = k + shifts
        first = np.where(k >= 0, m2 * k, -m1 * k)
        return np.exp(dl * (first + np.where(j >= 0, m4 * j, -m3 * j)))

    up = terms(neg) / -np.expm1(dl * (m2 + m4))
    down = terms(-pos - 1) / -np.expm1(dl * (m1 + m3))
    # the offsets in between, k = -pos ... neg - 1: one shift-vector per step
    mid = 0.0
    for step in range(np.max(np.abs(shifts), initial=0)):
        k = step - pos
        mid = mid + np.where(k < neg, terms(k), 0.0)
    return (up + down + mid) / ((m1 + m2) * (m3 + m4))


def _quartic_lattice_sums(m, dl, si, sj):
    """Per-axis quartic sums Q[m1, m2, m3, m4, r] over the lag pairs r.

    Q = sum_k of the integral of exp(m1 u + m2 (u + t_i) + m3 (u + k dl)
    + m4 (u + k dl + t_j)) over u >= low, with t = s dl,
    low = max(c, e - k dl), c = max(0, -t_i) and e = max(0, -t_j): the
    integral is exp(m2 t_i + m4 t_j + (m3 + m4) k dl + S low) / (-S),
    S = m1 + m2 + m3 + m4: two geometric tails split at k* = (e - c) / dl,
    ratios exp((m1 + m2) dl) downward and exp((m3 + m4) dl) upward.  At k*
    the four arguments c, c + t_i, e, e + t_j are >= 0: no overflow.
    """
    m1, m2, m3, m4 = m
    c, e = np.maximum(-si, 0), np.maximum(-sj, 0)
    at_split = np.exp(dl * (m1 * c + m2 * (c + si) + m3 * e + m4 * (e + sj)))
    tails = 1.0 / -np.expm1(dl * (m1 + m2)) + 1.0 / np.expm1(-dl * (m3 + m4))
    return at_split * tails / -(m1 + m2 + m3 + m4)


def covariance_v_matrix(spec, tlist, basis, lattice_delta):
    """Covariance matrix V of the autocovariance estimator, summed exactly.

    Entry (i, j) sums, over the whole lattice, gamma(l) gamma(l + t_i - t_j)
    + gamma(l + t_i) gamma(l - t_j), plus (for non-Gaussian noise) the
    fourth-order kernel-product integral weighted by the excess
    kappa4 - 3 kappa2^2.  Every factor is exponential in the lattice
    index, so per axis each sum is a few geometric series, summed in
    closed form: nothing is truncated.  Every lag in ``tlist`` must lie
    on the lattice, a whole number of spacings on each axis.
    """
    d = spec.d
    if abs(basis.kappa2 - spec.kappa2) > 1e-9 * max(1.0, spec.kappa2):
        raise ValidationError("the basis variance must equal the spec's kappa2")
    delta = (lattice_delta,) * d if np.isscalar(lattice_delta) else lattice_delta
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (d,) or not np.all(np.isfinite(delta) & (delta > 0)):
        raise ValidationError(f"need d = {d} positive spacings, got {lattice_delta!r}")
    tlist = np.atleast_2d(np.asarray(tlist, dtype=float))
    if tlist.ndim != 2 or tlist.shape[1] != d:
        raise ValidationError(f"lags need d = {d} columns, got shape {tlist.shape}")
    steps = _lag_steps(delta, tlist)
    rows, cols = np.triu_indices(len(steps))
    excess = basis.kappa4 - 3.0 * basis.kappa2 ** 2
    quartic = abs(excess) > 1e-12 * max(1.0, basis.kappa2 ** 2)
    factors = []
    for axis, dl, si, sj in zip(spec.eigenvalues, delta, steps[rows].T, steps[cols].T):
        # copy c's view: eigenvalues along dimension c, then the lag pairs
        lam = np.asarray(axis, dtype=complex)
        m = [lam.reshape((1,) * c + (-1,) + (1,) * (4 - c)) for c in range(4)]
        # both autocovariance products are one lattice sum, shifted by
        # t_i - t_j and by -t_i - t_j
        both = np.concatenate([si - sj, -si - sj])
        shifts, where = np.unique(both, return_inverse=True)
        blocks = [_gamma_pair_sums(m, dl, shifts)[..., where]]
        if quartic:
            blocks.append(_quartic_lattice_sums(m, dl, si, sj))
        factors.append(np.concatenate(blocks, axis=-1))
    # the quartic integral uses the bare kernel (no kappa2 factor)
    sums = model._contract(model._coeff_tensor(spec), factors, copies=4, pointwise=True)
    sums = sums.reshape(-1, rows.size)
    total = spec.kappa2 ** 2 * (sums[0] + sums[1])
    if quartic:
        total = total + excess * sums[2]
    vmat = np.empty((len(steps), len(steps)))
    vmat[rows, cols] = vmat[cols, rows] = model._real(total, "estimator covariance")
    return vmat


def variogram_estimator_covariance(spec, lags, basis, lattice_delta):
    """Asymptotic covariance F V F' of the variogram estimator.

    F is the delta-method Jacobian of (g_0, ..., g_K) -> (2 (g_0 - g_i)),
    applied to the autocovariance estimator's covariance V with the
    zero lag prepended.
    """
    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    k = lags.shape[0]
    tlist = np.vstack([np.zeros((1, lags.shape[1])), lags])
    vmat = covariance_v_matrix(spec, tlist, basis, lattice_delta)
    fmat = np.zeros((k, k + 1))
    fmat[:, 0] = 2.0
    fmat[:, 1:] = -2.0 * np.eye(k)
    return fmat @ vmat @ fmat.T


def asymptotic_covariance(spec, lags, weights, basis, lattice_delta,
                          blocks=None):
    """Sandwich covariance of the WLS parameter estimator at the truth.

    Combines the variogram estimator's covariance with the weighted
    Jacobian of the model ordinates.  Scaled for N^{d/2} (theta* -
    theta0): divide by N^d for the covariance of theta* itself.

    Raises
    ------
    SingularDesign
        If the weighted normal matrix is numerically singular.
    """
    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    weights = np.asarray(weights, dtype=float)
    codec = ThetaCodec(p=spec.p, q=spec.q, d=spec.d, kappa2=spec.kappa2,
                       blocks=blocks)
    theta0 = codec.from_spec(spec)
    jac = _variogram_jacobian(codec, theta0, lags)
    wmat = np.diag(weights)
    normal = jac.T @ wmat @ jac
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > DESIGN_COND_MAX:
        raise SingularDesign(f"normal matrix condition {cond:.3e}")
    bmat = np.linalg.inv(normal)
    fvf = variogram_estimator_covariance(spec, lags, basis, lattice_delta)
    sigma = bmat @ jac.T @ wmat @ fvf @ wmat @ jac @ bmat
    return 0.5 * (sigma + sigma.T)


# -- model selection ---------------------------------------------------------------

def model_select(fits):
    """Rank fits by ascending AIC, ties broken by fewer parameters.

    All fits must share one lag set.
    """
    fits = list(fits)
    if not fits:
        raise ValidationError("no fits to select from")
    klags = {f.k_lags for f in fits}
    if len(klags) > 1:
        raise MixedLagSets(f"fits use different lag counts: {sorted(klags)}")
    return sorted(fits, key=lambda f: (f.aic, f.p_params))
