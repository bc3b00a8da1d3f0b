"""Variogram estimation and weighted-least-squares model fitting.

The empirical variogram is the method-of-moments average of squared
increments over all lattice pairs at each lag.  It is computed without
forming the increments: each lag's sum of squares is two box sums of
the squared field less twice the lag's cross product, and one FFT
autocorrelation gives the cross products of every lag that moves on the
same axes.  It agrees with the direct sum to about 1e-13 relative (the
expansion cancels where the increments are small against the field's
spread).  Which lag lies on which principal axis, and at how many
steps, is worked out once per variogram (``EmpiricalVariogram.axes``,
from ``_axis_layout``): the weights, the lag-set check, the model
ordinates, the overlay tables, recovery and the study read it there.
Parameters are fitted by minimizing the weighted squared gap
between empirical and model ordinates over a compact box: a seeded
differential-evolution global search over the direction of b and the
eigenvalues, with b's scale profiled out in closed form (variable
projection), followed by a bounded least-squares polish in all
parameters (trust-region reflective).  The search is the package's own
best1bin driver with a Latin-hypercube start and deferred updating.  It
draws scipy's random stream in scipy's order, so it returns what
``scipy.optimize.differential_evolution`` returns with the same settings,
bit for bit, and fit bytes do not depend on scipy's private DE internals,
which the ``scipy>=1.10`` requirement does not pin.  Both stages work on
one ``_WlsProblem`` and its batched evaluator: differential evolution
scores each generation in one call of its profiled score, and the polish
one residual vector per call and its finite-difference Jacobian as one
batch.  The sandwich covariance of the WLS estimator
(``asymptotic_covariance``) follows the fit's rules: the same evaluator
and Jacobian, in the theta layout of the spec.  A real spectrum, the
default codec's only kind, is evaluated in real arithmetic throughout
(see ``model``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize
from scipy.fft import next_fast_len

from . import model
from .errors import (
    InvalidSpec,
    LagOutOfRange,
    MixedLagSets,
    NumericError,
    SingularDesign,
    ValidationError,
    ZeroVariance,
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
    "asymptotic_covariance",
    "model_select",
]

DESIGN_COND_MAX = 1e12
LAG_INTEGER_TOL = 1e-6
# spectrum cells held by one slab of the empirical variogram's transforms
FFT_SLAB_CELLS = 1 << 15

# Fit search box [0, B_MAX] x [-B_MAX, B_MAX]^q x [EIG_MIN, 0]^{dp}, with
# imaginary parts of complex eigenvalue blocks in [0, IM_MAX]; B_MAX bounds sqrt(kappa2) b.
B_MAX = 10.0
EIG_MIN = -10.0
IM_MAX = 10.0
# differential evolution
DE_CROSSOVER = 0.9
DE_DIFFERENTIAL_WEIGHT = 0.8
DE_TOL = 0.01
# relative step of the central-difference Jacobian in theta
JACOBIAN_REL_STEP = 1e-5


# -- empirical variogram --------------------------------------------------------

@dataclass
class EmpiricalVariogram:
    """Matheron ordinates at a list of lags on a regular lattice.

    ``lags`` holds k physical lag vectors (multiples of the spacing),
    ``ordinates`` one average per lag and ``pair_counts`` the exact
    number of lattice pairs entering each average.  ``delta``, the
    spacing, is checked by ``model._per_axis`` as a field's is.  ``axes``
    is the lags' layout on the principal axes (``_axis_layout``).
    """

    lags: np.ndarray
    ordinates: np.ndarray
    pair_counts: np.ndarray
    delta: tuple

    def __post_init__(self):
        self.lags = np.atleast_2d(np.asarray(self.lags, dtype=float))
        self.ordinates = np.asarray(self.ordinates, dtype=float)
        self.pair_counts = np.asarray(self.pair_counts, dtype=np.int64)
        k = self.lags.shape[0]
        if (self.lags.ndim != 2 or self.ordinates.shape != (k,)
                or self.pair_counts.shape != (k,)):
            raise ValidationError(
                f"need one ordinate and one pair count per lag: lags "
                f"{self.lags.shape}, ordinates {self.ordinates.shape}, "
                f"pair counts {self.pair_counts.shape}"
            )
        if not self.lags.shape[1]:
            raise ValidationError("variogram lags need one column per axis, got none")
        if not (np.all(np.isfinite(self.lags)) and np.all(np.isfinite(self.ordinates))):
            raise ValidationError("variogram lags and ordinates must be finite")
        if np.any(self.ordinates < 0):
            raise ValidationError("variogram ordinates must be non-negative")
        if np.any(self.pair_counts <= 0):
            raise ValidationError("pair counts must be positive")
        self.delta = model._per_axis(self.delta, self.lags.shape[1], "delta")

    @property
    def k(self):
        return self.lags.shape[0]

    @functools.cached_property
    def axes(self):
        return _axis_layout(self.delta, self.lags)

    def to_csv(self, path):
        d = self.lags.shape[1]
        header = ",".join(f"lag{i + 1}" for i in range(d)) + ",ordinate,pair_count"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row, ordi, cnt in zip(self.lags, self.ordinates, self.pair_counts):
                cells = [f"{v:.17g}" for v in row] + [f"{ordi:.17g}", str(int(cnt))]
                fh.write(",".join(cells) + "\n")

    @classmethod
    def from_csv(cls, path, delta=None):
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
            # the smallest nonzero lag per axis, else of any axis, else 1
            delta = np.where(lags != 0.0, np.abs(lags), np.inf).min(axis=0)
            delta[np.isinf(delta)] = delta.min() if np.isfinite(delta).any() else 1.0
        return cls(
            lags=lags,
            ordinates=np.asarray(ords),
            pair_counts=np.asarray(counts),
            delta=delta,
        )


def axis_lag_set(d, delta, j_max):
    """Lags {j * delta * e_i : i = 1..d, j = 1..j_max}, axis-major order.

    Raises
    ------
    ValidationError
        If ``j_max`` is below 1.
    """
    if j_max < 1:
        raise ValidationError(f"the lag count per axis must be at least 1, got {j_max}")
    delta = model._per_axis(delta, d, "delta")
    lags = []
    for i in range(d):
        for j in range(1, j_max + 1):
            row = [0.0] * d
            row[i] = j * delta[i]
            lags.append(row)
    return np.asarray(lags)


def _lag_steps(delta, lags):
    """Integer step vectors for physical lags; validates shape and divisibility."""
    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    if lags.ndim != 2 or lags.shape[1] != len(delta):
        raise ValidationError(f"lags need d = {len(delta)} columns, got shape {lags.shape}")
    steps = lags / np.asarray(delta)[None, :]
    rounded = np.rint(steps)
    if not np.all(np.abs(steps - rounded) <= LAG_INTEGER_TOL):
        raise ValidationError("lags must be integer multiples of the spacing")
    return rounded.astype(int)


def _axis_layout(delta, lags):
    """The lags grouped by the principal axis they lie on (``_step_layout``).

    Raises
    ------
    ValidationError
        If the lags are not whole multiples of the spacing.
    """
    return _step_layout(_lag_steps(delta, lags))


def _step_layout(steps):
    """The lags of integer ``steps`` grouped by the principal axis they lie on.

    Returns ``({axis: (rows, steps)}, other_rows)``.  An axis lag moves
    a positive number of steps along one axis only; per axis, in
    ascending axis order, ``rows`` are its lags' row indices and
    ``steps`` their steps, both in ascending step order (equal steps in
    row order).  ``other_rows`` holds every other lag (the zero lag, a
    negative step, a lag on several axes) in row order.
    """
    moved = steps != 0
    on_axis = (np.count_nonzero(moved, axis=1) == 1) & (steps.sum(axis=1) > 0)
    axis = np.argmax(moved, axis=1)
    layout = {}
    for a in np.unique(axis[on_axis]).tolist():
        rows = np.flatnonzero(on_axis & (axis == a))
        order = np.argsort(steps[rows, a], kind="stable")
        layout[a] = (rows[order], steps[rows[order], a])
    return layout, np.flatnonzero(~on_axis)


def empirical_variogram(field, lags):
    """Method-of-moments variogram of a lattice field at the given lags.

    For each lag t the ordinate is the mean of (Y(s+t) - Y(s))^2 over
    every lattice pair at that offset; the pair count is the product of
    (n_i - |t_i|/delta_i).

    The sum of squared increments is computed as Q(dst) + Q(src)
    - 2 sum_s Y(s+t) Y(s), where dst and src are the boxes of the later
    and earlier pair ends and Q(box) is the sum of Y^2 over a box.  The
    lags are grouped by the set of axes they move on, and each group
    takes one FFT path (Wiener-Khinchin; Marcotte 1996): the field is
    transformed along the group's axes, zero-padded past the group's
    widest step, its power spectrum is summed over the other axes, and
    one inverse transform gives the cross term of every lag in the
    group, a negative step at its wrapped index.  The two Q of a lag
    are corner lookups in a summed-area table of Y^2 summed over the
    other axes, which for axis lags is one cumulative sum.  Y is the
    field shifted by its own cell value nearest its mean (the first in
    row-major order): the variogram is shift-invariant, the shift keeps
    the squares near the field's spread, and a constant field becomes
    exactly zero.  The nearest cell is found slab by slab, and each
    slab is shifted as it is squared and transformed, so no shifted
    copy of the field is kept.  When the group leaves some axis out,
    its transforms run over slabs of the other axes, of about
    ``FFT_SLAB_CELLS`` spectrum cells each, so the transients stay
    bounded: axis lags of a 500^2 field hold about half the field's
    bytes above the field.  A group that moves on every axis (any lag
    in d = 1, mixed lags on all axes) transforms the whole zero-padded
    field at once, with transients of up to about 11 times the field's
    bytes at d = 2.  No step calls BLAS, so the bytes do not depend on
    its thread count.  The expansion cancels where increments
    are small against the field's spread, so ordinates agree with the direct
    sum of squared differences to about 1e-13 relative rather than to
    the last bit.
    After rounding each ordinate is clamped at 0, and the zero lag is
    exactly 0.

    Raises
    ------
    LagOutOfRange
        If some |t_i| reaches the lattice extent.
    """
    values = field.values
    shape = np.asarray(values.shape)
    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    steps = _lag_steps(field.delta, lags)
    outside = np.any(np.abs(steps) >= shape, axis=1)
    if np.any(outside):
        raise LagOutOfRange(f"lag {lags[np.argmax(outside)]} exceeds the lattice extent")
    shift = _value_nearest_mean(values)
    # group code: bit i set when the lag moves on axis i; code 0 (the
    # zero lag) keeps its sum of 0
    codes = np.sum((steps != 0) << np.arange(values.ndim), axis=1)
    sums = np.zeros(steps.shape[0])
    for code in np.unique(codes[codes > 0]).tolist():
        rows = np.flatnonzero(codes == code)
        axes = tuple(i for i in range(values.ndim) if code >> i & 1)
        sums[rows] = _group_square_sums(values, shift, axes, steps[np.ix_(rows, axes)])
    counts = np.prod(shape - np.abs(steps), axis=1).astype(np.int64)
    return EmpiricalVariogram(
        lags=lags,
        ordinates=np.maximum(sums / counts, 0.0),
        pair_counts=counts,
        delta=field.delta,
    )


def _value_nearest_mean(values):
    """The first cell value, in row-major order, nearest the field's mean.

    The distances are taken over slabs of leading-axis rows of about
    ``FFT_SLAB_CELLS`` cells, so no field-sized buffer is made.
    """
    mean = values.mean()
    rows = max(1, FFT_SLAB_CELLS * values.shape[0] // values.size)
    best = nearest = None
    for k in range(0, values.shape[0], rows):
        slab = values[k:k + rows]
        gap = slab - mean
        np.abs(gap, out=gap)
        i = np.argmin(gap)
        if best is None or gap.flat[i] < best:
            best, nearest = gap.flat[i], slab.flat[i]
    return nearest


def _group_square_sums(values, shift, axes, steps):
    """Sum of (Y(s+t) - Y(s))^2 over all pairs, for lags moving on ``axes``.

    Y is ``values - shift``, formed one slab at a time.  ``steps`` holds
    one row per lag: its nonzero steps on ``axes``.
    """
    others = tuple(i for i in range(values.ndim) if i not in axes)
    sizes = np.array([values.shape[a] for a in axes])
    # zero padding past the widest step keeps each product clear of the wrap
    lengths = [next_fast_len(int(n + w), real=True)
               for n, w in zip(sizes, np.abs(steps).max(axis=0))]
    slabs = [values]
    if others:
        cells = math.prod(lengths[:-1]) * (lengths[-1] // 2 + 1)
        cells *= math.prod(values.shape[i] for i in others[1:])
        width = max(1, FFT_SLAB_CELLS // cells)
        slabs = [values[(slice(None),) * others[0] + (slice(k, k + width),)]
                 for k in range(0, values.shape[others[0]], width)]
    # power spectrum along axes and Y^2, each summed over the other axes
    # (taken as they are when there is none); the spectrum's float view
    # holds (real, imaginary) pairs on its last axis, squared in place
    # (no temporaries) and added after the sum over the other axes.
    # numpy 1.x returns a transform along a leading axis as a strided
    # view, which has no float view until made contiguous.  A slab's
    # buffers are released before the next slab's are made.
    power = marginal = 0.0
    for slab in slabs:
        y = slab - shift
        spectrum = np.ascontiguousarray(np.fft.rfftn(y, lengths, axes=axes))
        squares = spectrum.view(np.float64)
        np.square(squares, out=squares)
        half = tuple(spectrum.shape[a] for a in axes)
        if others:
            squares = np.sum(squares, axis=others)
        power = power + squares.reshape(half + (-1,)).sum(axis=-1)
        np.square(y, out=y)
        marginal = marginal + np.sum(y, axis=others) if others else y
        del y, spectrum, squares
    products = np.fft.irfftn(power, lengths, axes=range(len(axes)))
    cross = products[tuple((steps % lengths).T)]
    # table[k] = sum of the marginal over the box [0, k_1) x ... x [0, k_m)
    table = np.zeros(sizes + 1)
    table[(slice(1, None),) * len(axes)] = marginal
    for axis in range(len(axes)):
        np.cumsum(table, axis=axis, out=table)
    # rows [0, k) are the dst boxes [lo, hi) and rows [k, 2k) the src boxes
    ahead, behind = np.maximum(steps, 0), np.maximum(-steps, 0)
    lo = np.concatenate([ahead, behind])
    hi = np.concatenate([sizes - behind, sizes - ahead])
    boxes = np.zeros(lo.shape[0])
    for corner in itertools.product((False, True), repeat=len(axes)):
        index = tuple(hi[:, i] if c else lo[:, i] for i, c in enumerate(corner))
        boxes += (-1) ** (len(axes) - sum(corner)) * table[index]
    k = steps.shape[0]
    return boxes[:k] + boxes[k:] - 2.0 * cross


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


def _checked_weights(weights, k):
    """``weights`` as a float array of shape (k,), finite and strictly positive."""
    try:
        w = np.asarray(weights, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("weights must be numbers") from None
    if w.shape != (k,):
        raise ValidationError(f"weights need shape ({k},), one per lag, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    if np.any(w <= 0):
        raise ValidationError("weights must be strictly positive")
    return w


def resolve_weights(emp, scheme):
    """Per-lag weights from a scheme name or an explicit array.

    Named schemes ("quadratic", "exponential") give the lag j steps
    along an axis the j-th weight, on every axis (the exponential
    table with that axis's spacing), so they require a pure axis lag
    set; the steps come from ``emp.axes``.
    """
    if not isinstance(scheme, str):
        return _checked_weights(scheme, emp.k)
    axes, others = emp.axes
    if others.size:
        raise ValidationError(
            "named weight schemes need axis lags; pass explicit weights"
        )
    j_max = max(int(steps[-1]) for _, steps in axes.values())
    if scheme == "quadratic":
        tables = dict.fromkeys(axes, weights_quadratic(j_max))
    elif scheme == "exponential":
        tables = {axis: weights_exponential(j_max, emp.delta[axis]) for axis in axes}
    else:
        raise ValidationError(f"unknown weight scheme {scheme!r}")
    weights = np.empty(emp.k)
    for axis, (rows, steps) in axes.items():
        weights[rows] = tables[axis][steps - 1]
    return weights


# -- parameter vector codec -------------------------------------------------------

@dataclass(frozen=True)
class ThetaCodec:
    """Mapping between flat parameter vectors and CarmaSpec objects.

    The vector is (b_0, ..., b_q) followed by per-axis eigenvalue
    blocks.  A real block contributes one coordinate; a complex block
    contributes (real part, imaginary part) and expands to a conjugate
    pair, so conjugacy is structural and the optimizer never sees an
    invalid configuration.  ``to_spec`` gives specs at unit kappa2.
    """

    p: int
    q: int
    d: int
    blocks: tuple = None  # per axis, e.g. ("r", "r") or ("c",)

    def __post_init__(self):
        if self.blocks is None:
            blocks = tuple(("r",) * self.p for _ in range(self.d))
            object.__setattr__(self, "blocks", blocks)
        for axis_blocks in self.blocks:
            width = sum(1 if b == "r" else 2 for b in axis_blocks)
            if width != self.p:
                raise ValidationError("blocks must cover p eigenvalues per axis")
        # per eigenvalue, in (axis, k) order, the theta column of its real
        # part; per complex block, its first eigenvalue's place and the
        # column of its imaginary part
        real_columns, pair_places, imag_columns = [], [], []
        pos = self.q + 1
        for kind in itertools.chain.from_iterable(self.blocks):
            if kind == "c":
                pair_places.append(len(real_columns))
                imag_columns.append(pos + 1)
                real_columns.append(pos)
            real_columns.append(pos)
            pos += 1 if kind == "r" else 2
        for name, value in (("_real_columns", real_columns), ("_pair_places", pair_places),
                            ("_imag_columns", imag_columns)):
            object.__setattr__(self, name, np.array(value, dtype=np.intp))

    @property
    def dim(self):
        return self.q + 1 + self.d * self.p

    def expand(self, thetas):
        """b and eigenvalues of S parameter rows.

        ``thetas`` has shape (S, dim).  Returns b as an (S, p) array,
        zero-padded past b_q, and the eigenvalues as an (S, d, p) array
        of ``model._eigenvalue_array``'s dtype (float64 when every block
        is real: then they are the theta columns themselves, one
        ``take``); a complex block's imaginary part enters by its magnitude.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.dim:
            raise ValidationError(f"theta must have {self.dim} entries per row")
        rows = thetas.shape[0]
        b = np.zeros((rows, self.p))
        b[:, : self.q + 1] = thetas[:, : self.q + 1]
        re = thetas.take(self._real_columns, axis=1).reshape(rows, self.d, self.p)
        if not self._imag_columns.size:
            return b, re
        im = np.zeros((rows, self.d * self.p))
        im[:, self._pair_places] = np.abs(thetas.take(self._imag_columns, axis=1))
        im[:, self._pair_places + 1] = -im[:, self._pair_places]
        return b, model._eigenvalue_array(re + 1j * im.reshape(re.shape))

    def to_spec(self, theta):
        b, lam = self.expand(np.reshape(theta, (1, -1)))
        eigenvalues = tuple(tuple(complex(v) for v in axis) for axis in lam[0])
        return model.CarmaSpec(b=tuple(b[0, : self.q + 1]), eigenvalues=eigenvalues)

    def from_spec(self, spec):
        """The theta of ``spec``: per axis, in the spec's order, its real
        eigenvalues (|imag| <= ``model.CONJUGATE_TOL``) fill the real
        blocks and its conjugate pairs, by their member with positive
        imaginary part, the complex blocks (else ValidationError)."""
        theta = list(spec.b[: self.q + 1])
        for axis, (axis_blocks, eigs) in enumerate(zip(self.blocks, spec.eigenvalues), 1):
            kinds = {"r": [lam for lam in eigs if abs(lam.imag) <= model.CONJUGATE_TOL],
                     "c": [lam for lam in eigs if lam.imag > model.CONJUGATE_TOL]}
            if any(len(kinds[kind]) != axis_blocks.count(kind) for kind in kinds):
                raise ValidationError(f"axis {axis} has {len(kinds['r'])} real eigenvalues and "
                                      f"{len(kinds['c'])} conjugate pairs, not {axis_blocks}")
            for kind in axis_blocks:
                lam = kinds[kind].pop(0)
                theta += [lam.real] if kind == "r" else [lam.real, lam.imag]
        return np.asarray(theta)

    def default_bounds(self):
        """The fit's search box, one (low, high) pair per coordinate."""
        bounds = [(0.0, B_MAX)]
        bounds += [(-B_MAX, B_MAX)] * self.q
        for kind in itertools.chain.from_iterable(self.blocks):
            bounds.append((EIG_MIN, 0.0))
            if kind == "c":
                bounds.append((0.0, IM_MAX))
        return bounds


def _spec_codec(spec):
    """The codec of ``spec``'s own order: per axis, a real eigenvalue is a
    real block and a conjugate pair a complex block at its first member
    (an eigenvalue's partner is the one nearest its conjugate)."""
    blocks = []
    for axis in spec.eigenvalues:
        partners = [min(range(len(axis)), key=lambda j: abs(axis[j] - lam.conjugate()))
                    for lam in axis]
        blocks.append(tuple("r" if partner == i else "c"
                            for i, partner in enumerate(partners) if partner >= i))
    return ThetaCodec(p=spec.p, q=spec.q, d=spec.d, blocks=tuple(blocks))


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

def _columns(rows):
    """Output columns ``rows`` as a slice where they are contiguous and ascending."""
    rows = np.asarray(rows)
    if np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size)):
        return slice(int(rows[0]), int(rows[0]) + rows.size)
    return rows


class _Ordinates:
    """Model variogram ordinates at fixed lags and unit kappa2, for S rows at once.

    Calling it with an (S, dim) array of theta returns the (S, k)
    ordinates and a mask of the rows where the model is undefined, whose
    ordinates are NaN: a row fails where ``codec.to_spec`` or the model
    functions would raise (see ``model._spec_rows`` and ``model._real``).
    ``layout`` is ``_axis_layout(delta, lags)``: each axis lag is
    evaluated by its axis's exponential sum at the distance
    ``steps * delta[axis]``, every other lag through gamma, so a lag
    takes the same formula in the fit, its polish and the covariance's
    Jacobian.

    At construction each axis keeps the output columns of its lags (a
    slice where they are contiguous, as in an axis-major lag set) and
    their distances as a column.  A call
    on S rows of a real codec then makes about 30 array passes at
    p = 1, whatever S: 3 to expand the codec, about 14 in
    ``model._spec_rows``, 3 plus one einsum per axis for the axis
    weights, 7 per axis group (the exponentials in place, one batched
    matmul, the scaling, the store and the row mask; real values pass
    ``model._real_rows`` untouched) and 4 to mark the failed rows.
    """

    def __init__(self, codec, lags, delta, layout):
        self.codec = codec
        self.k = lags.shape[0]
        axes, general = layout
        self.axis_groups = [(axis, _columns(rows), (steps * delta[axis])[:, None])
                            for axis, (rows, steps) in axes.items()]
        self.general = _columns(general) if general.size else None
        # gamma at the zero lag, then at the general lags
        self.gamma_lags = np.vstack([np.zeros((1, lags.shape[1])), lags[general]])

    def __call__(self, thetas):
        b, lam = self.codec.expand(thetas)
        tensor, lam, ok = model._spec_rows(b, lam)
        out = np.empty((b.shape[0], self.k))
        if self.axis_groups:
            dstar = model._axis_weights(tensor, lam)
        for axis, columns, spans in self.axis_groups:
            vals = model._axis_sums(dstar[axis], lam[:, axis], spans)
            out[:, columns], row_ok = model._real_rows(vals)
            ok &= row_ok
        if self.general is not None:
            vals = model._gammas(tensor, lam, self.gamma_lags)
            gam, row_ok = model._real_rows(vals)
            out[:, self.general] = 2.0 * (gam[:, :1] - gam[:, 1:])
            ok &= row_ok
        out[~ok] = np.nan
        return out, ~ok


def _variogram_jacobian(ordinates, theta0, bounds=None):
    """Finite differences of the model ordinates in theta.

    The differences are central.  A coordinate steps one-sided from
    theta0 itself where its step would leave the box ``bounds`` (a
    (2, dim) array of lows and highs, None for no box), or where theta0
    is defined and the step leaves the model's domain (for instance by
    moving an eigenvalue within ``model.MIN_EIGENVALUE_GAP`` of its
    neighbour).  The 2 dim perturbed vectors and theta0 are one call of
    ``ordinates``.

    Raises
    ------
    NumericError
        If a perturbed vector leaves the model's domain and no
        one-sided step replaces it.
    """
    theta0 = np.asarray(theta0, dtype=float)
    n = theta0.size
    h = JACOBIAN_REL_STEP * np.maximum(np.abs(theta0), 1.0)
    low, high = (-np.inf, np.inf) if bounds is None else bounds
    up = np.where(theta0 + h > high, 0.0, h)
    down = np.where(theta0 - h < low, 0.0, h)
    ords, failed = ordinates(np.vstack([theta0 + np.diag(up), theta0 - np.diag(down), theta0]))
    # a failed step is taken back to theta0; a coordinate left with no
    # step on either side stays failed
    back = failed[:2 * n] & ~failed[2 * n]
    ords[:2 * n][back] = ords[2 * n]
    up, down = np.where(back[:n], 0.0, up), np.where(back[n:], 0.0, down)
    failed = (failed[:2 * n] & ~back) | (back & np.tile(up + down == 0.0, 2))
    if failed.any():
        raise NumericError(
            f"the model is undefined at {int(failed.sum())} of the {2 * n} "
            f"perturbed parameter vectors (relative step {JACOBIAN_REL_STEP:g})"
        )
    return ((ords[:n] - ords[n:2 * n]) / (up + down)[:, None]).T


class _WlsProblem:
    """The WLS objective over a fixed empirical variogram, for S rows at once.

    One ``ordinates`` call scores a whole DE generation or a polish step
    in a few batched contractions.  ``objective`` scores theta rows and
    ``profiled`` the search's rows, with b's scale profiled out
    (variable projection); rows where the model is undefined score +inf,
    so the search steers away.  ``box`` is the codec's theta box as a
    (2, dim) array of lows and highs, ``bounds`` the search's box.

    The kernel is linear in b, so psi(.; r u, lam) = r^2 psi(.; u, lam).
    For a direction u and eigenvalues lam, with m = psi(.; u, lam), the
    WSS of r u is a quadratic in s = r^2, least at
    s = sum w psi_hat m / sum w m^2 (Golub & Pereyra 1973).  A searched
    row holds q angles of u, then the codec's eigenvalue coordinates:
    one coordinate fewer than theta.  u is the hyperspherical point
    u_k = cos(a_k) prod_{j<k} sin(a_j), u_q = prod_j sin(a_j), on the
    half-sphere u_0 >= 0 (``bounds``): u = (1,) at q = 0.  s is clipped
    to [0, B_MAX^2 / max_i u_i^2], so r u lies in the box, and a row
    scores the exact WSS of (r u, lam) from one batched ``ordinates``
    call at b = u for all rows.  It is summed as sum w (psi_hat - s m)^2:
    the expanded sum w psi_hat^2 - 2 s sum w psi_hat m + s^2 sum w m^2
    cancels to rounding noise where the WSS is near 0, as in a noiseless
    fit.
    """

    def __init__(self, emp, weights, codec):
        self.emp = emp
        self.weights = _checked_weights(weights, emp.k)
        self.ordinates = _Ordinates(codec, emp.lags, emp.delta, emp.axes)
        self.q = codec.q
        # u_0 = cos(a_0) >= 0; for q >= 2 the other angles are those of
        # the standard hyperspherical point of S^(q-1)
        angles = [(-0.5 * math.pi, 0.5 * math.pi)] * min(self.q, 1)
        if self.q >= 2:
            angles = ([(0.0, 0.5 * math.pi)] + [(0.0, math.pi)] * (self.q - 2)
                      + [(-math.pi, math.pi)])
        full = codec.default_bounds()
        self.box = np.transpose(full)
        self.bounds = angles + full[self.q + 1:]
        self.weighted_data = self.weights * emp.ordinates

    def _wss(self, ords, failed):
        """The WSS of each row of model ordinates ``ords``, which it overwrites."""
        resid = np.subtract(self.emp.ordinates, ords, out=ords)
        return np.where(failed, np.inf, np.square(resid, out=resid) @ self.weights)

    def objective(self, thetas):
        """WSS of each row of an (S, dim) array of theta (one row if 1-d)."""
        return self._wss(*self.ordinates(np.atleast_2d(np.asarray(thetas, dtype=float))))

    def _scaled(self, rows):
        """Theta at b = u, the clipped squared scale and the WSS of each row."""
        q = self.q
        thetas = np.empty((rows.shape[0], rows.shape[1] + 1))
        thetas[:, q + 1:] = rows[:, q:]
        u = thetas[:, : q + 1]
        u[:, q] = 1.0
        if q:
            u[:, :q] = np.cos(rows[:, :q])
            u[:, 1:] *= np.cumprod(np.sin(rows[:, :q]), axis=1)
        m, failed = self.ordinates(thetas)
        scale = m @ self.weighted_data
        scale /= np.square(m) @ self.weights
        np.maximum(scale, 0.0, out=scale)
        np.minimum(scale, B_MAX ** 2 / np.max(np.square(u), axis=1) if q else B_MAX ** 2,
                   out=scale)
        m *= scale[:, None]
        return thetas, scale, self._wss(m, failed)

    def profiled(self, rows):
        """WSS of each row of an (S, dim - 1) array at its best scale."""
        return self._scaled(np.asarray(rows, dtype=float))[2]

    def theta(self, row):
        """The theta (r u, lam) of one searched row, in the box."""
        thetas, scale, _ = self._scaled(np.asarray(row, dtype=float)[None])
        thetas[0, : self.q + 1] *= math.sqrt(scale[0])
        return np.clip(thetas[0], *self.box)


def wls_objective(theta, emp, weights, p, q, blocks=None):
    """Weighted sum of squared variogram gaps at one parameter vector, unit kappa2.

    Model evaluation failures (for instance coincident eigenvalues
    proposed by an optimizer) yield +inf so search steers away.
    """
    codec = ThetaCodec(p=p, q=q, d=emp.lags.shape[1], blocks=blocks)
    return float(_WlsProblem(emp, weights, codec).objective(theta)[0])


@dataclass
class FitConfig:
    """Options for the two-stage WLS fit.

    The defaults reproduce the reference setup: quadratic lag weights,
    population of 10 per searched coordinate and 300 generations (the
    search profiles b's scale out, so it has one coordinate fewer than
    theta: see ``_WlsProblem``).  The search is best1bin differential
    evolution from a Latin-hypercube start with deferred updating
    (``_differential_evolution``): every trial of a generation is built
    from the previous generation, and ``seed`` drives the random stream
    of scipy's ``differential_evolution``.  The
    parameter box and the remaining search settings are module constants
    (``B_MAX``, ``EIG_MIN``, ``IM_MAX``, ``DE_*``); the polish uses
    scipy's default tolerances.  ``kappa2``, the unit b is reported in,
    must be finite and positive, the seed must lie in [0, 2**32), and
    the population factor and the generations must be positive.
    """

    p: int
    q: int
    kappa2: float = 1.0
    weights: object = "quadratic"
    blocks: tuple = None
    population_factor: int = 10
    generations: int = 300
    seed: int = 0

    def __post_init__(self):
        self.kappa2 = model._positive(self.kappa2, "kappa2", InvalidSpec)
        if not 0 <= self.seed < 2 ** 32:
            raise ValidationError(f"seed must lie in [0, 2**32), got {self.seed}")
        if self.population_factor < 1 or self.generations < 1:
            raise ValidationError(
                f"population factor and generations must be positive, got "
                f"{self.population_factor} and {self.generations}"
            )


def _check_lag_menu(emp, p, q):
    """The ``lag_set`` status of ``emp``'s lags for the order (p, q).

    Every order needs the axis lags j = 1..2p+1 on every axis that
    ``identify.recover_axis_eigenvalues`` needs.
    """
    axes, others = emp.axes
    if others.size:
        return "unverified (non-axis lags present)"
    needed = 2 * p + 1
    missing = []
    for axis in range(len(emp.delta)):
        have = axes[axis][1] if axis in axes else ()
        lacking = [j for j in range(1, needed + 1) if j not in have]
        if lacking:
            missing.append((axis, lacking))
    if missing:
        return (
            f"insufficient (order ({p},{q}) needs axis lags j=1..{needed} on every axis; "
            + "; ".join(f"axis {a} lacks {l}" for a, l in missing) + ")"
        )
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


def _differential_evolution(objective, bounds, config):
    """Minimize ``objective`` over the box by differential evolution.

    ``objective`` maps an (S, dim) array of rows to their S scores.
    Bit for bit ``scipy.optimize.differential_evolution`` with best1bin,
    a Latin-hypercube start, deferred updating, no polish and the
    ``DE_*`` settings: it draws ``RandomState(config.seed)`` in scipy's
    order (the tests check it against scipy).  A generation on S
    members costs S ``shuffle`` calls, which pick the difference
    vectors and are the stream's own cost, one ``objective`` call on
    the (S, dim) trial rows and about 30 whole-array passes,
    whatever S: 15 for mutation and crossover, 4 to find the
    coordinates outside the box (2 more to redraw them, only when
    there are some: an empty draw would take nothing from the stream),
    3 to map the trials into the box, 3 for the update, 1 to find the
    best member (2 more to swap it into row 0, only when it moved) and
    4 for the stop test.  The search stops when no energy is +inf and
    their standard deviation is at most ``DE_TOL`` times the magnitude
    of their mean, computed as ``np.std`` and ``np.mean`` compute them
    (``_de_converged``).

    Returns the best row, the generations run, whether the stop test
    was met and the rows scored, S (generations + 1).
    """
    rng = np.random.RandomState(config.seed)
    low, high = np.asarray(bounds, dtype=float).T
    centre, width = 0.5 * (low + high), np.fabs(low - high)
    dim = low.size
    size = max(5, config.population_factor * dim)
    members = np.arange(size)
    # members live in the unit box: one draw in each of `size` strata per
    # coordinate, then one permutation of the strata per coordinate
    strata = ((1.0 / size) * rng.uniform(size=(size, dim))
              + np.linspace(0.0, 1.0, size, endpoint=False)[:, None])
    orders = np.array([rng.permutation(size) for _ in range(dim)])
    population = strata[orders.T, np.arange(dim)]
    energies = objective(centre + (population - 0.5) * width)

    def promote():  # the best member to row 0, where it is not already
        best = energies.argmin()
        if best:
            population[[0, best]] = population[[best, 0]]
            energies[0], energies[best] = energies[best], energies[0]

    promote()
    index, picks = np.arange(size), np.empty((size, 3), dtype=np.intp)
    head = index[:3]  # a view: the first three after each shuffle
    converged = False
    for generation in range(1, config.generations + 1):
        for row in range(size):
            rng.shuffle(index)
            picks[row] = head
        # the first two picks that are not the member itself
        first = picks[:, 0] == members
        r0 = np.where(first, picks[:, 1], picks[:, 0])
        r1 = np.where(first | (picks[:, 1] == members), picks[:, 2], picks[:, 1])
        mutant = population[0] + DE_DIFFERENTIAL_WEIGHT * (population[r0] - population[r1])
        fill = rng.randint(dim, size=size)
        cross = rng.uniform(size=(size, dim)) < DE_CROSSOVER
        cross[members, fill] = True
        trial = np.where(cross, mutant, population)
        outside = (trial > 1) | (trial < 0)
        redraws = np.count_nonzero(outside)
        if redraws:  # an empty draw would take nothing from the stream
            trial[outside] = rng.uniform(size=redraws)
        scores = objective(centre + (trial - 0.5) * width)
        better = scores <= energies
        np.copyto(population, trial, where=better[:, None])
        np.copyto(energies, scores, where=better)
        promote()
        if _de_converged(energies):
            converged = True
            break
    return centre + (population[0] - 0.5) * width, generation, converged, size * (generation + 1)


def _de_converged(energies):
    """``not isinf(e).any() and std(e) <= DE_TOL * |mean(e)|``, as numpy computes it.

    The sums are ``np.std``'s and ``np.mean``'s own: one pairwise
    ``add.reduce`` of the energies, divided by their count, and one of
    the squared deviations.  An infinite energy makes the mean infinite
    or NaN, so the energies are scanned for one only then.
    """
    size = energies.size
    mean = np.add.reduce(energies) / size
    if not math.isfinite(mean) and np.isinf(energies).any():
        return False
    spread = energies - mean
    np.square(spread, out=spread)
    return math.sqrt(np.add.reduce(spread) / size) <= DE_TOL * abs(mean)


def fit(emp, config):
    """Two-stage WLS fit of CARMA parameters to an empirical variogram.

    Differential evolution (seeded, hence deterministic;
    ``_differential_evolution``) searches the direction of b and the
    eigenvalues, one coordinate fewer than theta: b's scale is profiled
    out, each row scored at its best scale inside the box
    (``_WlsProblem.profiled``).  A trust-region reflective least-squares
    polish of sqrt(w) (gamma_hat - gamma(theta)) then runs in full theta,
    in the parameter box, from the best row at its scale.  Each generation
    is one batched evaluation with deferred updating; the polish scores
    its residuals with the same evaluator and takes
    ``asymptotic_covariance``'s Jacobian, stepping one-sided where a
    central step would leave the box or the model's domain.  Both stages
    fit sqrt(kappa2) b at unit kappa2 (the variogram identifies only
    kappa2 b b'), so the box and the steps do not depend on b's unit.  Output
    eigenvalues are in canonical order (descending real part, then
    descending imaginary part), placed in the blocks by kind.

    ``diagnostics`` holds ``de_generations``, ``de_evaluations`` and
    ``polish_evaluations`` (parameter rows scored by each stage; the
    polish's count includes the one row that gives its start's scale),
    ``polish_iterations`` (Jacobians), ``de_converged`` (differential
    evolution's stop test was met), ``polish_converged`` (the polish
    reported success), ``converged`` (both; the params file's
    ``converged`` line) and the lag-set status ``lag_set``.

    Raises
    ------
    ZeroVariance
        Before the search, when every ordinate is 0 (a constant field):
        no b fits it, since b = 0 is outside the model.
    NumericError
        When a coordinate of the polish's Jacobian has no step on either
        side inside the model's domain.
    """
    d = emp.lags.shape[1]
    codec = ThetaCodec(p=config.p, q=config.q, d=d, blocks=config.blocks)
    lag_status = _check_lag_menu(emp, config.p, config.q)
    weights = resolve_weights(emp, config.weights)
    if not np.any(emp.ordinates):
        raise ZeroVariance("cannot fit an all-zero variogram: the field has no variance")
    problem = _WlsProblem(emp, weights, codec)
    best, de_generations, de_converged, de_evaluations = _differential_evolution(
        problem.profiled, problem.bounds, config)
    # residuals sqrt(w) (gamma_hat - gamma(theta)) are NaN where the model
    # is undefined, which shrinks the trust region
    root_w = np.sqrt(problem.weights)
    box = problem.box
    polish = optimize.least_squares(
        lambda theta: root_w * (emp.ordinates - problem.ordinates(theta[None])[0][0]),
        problem.theta(best),
        jac=lambda theta: -root_w[:, None] * _variogram_jacobian(problem.ordinates, theta, box),
        bounds=box,
        method="trf",
    )
    theta = polish.x.copy()
    theta[: codec.q + 1] /= math.sqrt(config.kappa2)
    spec = replace(codec.to_spec(theta).canonical(), kappa2=config.kappa2)
    theta = codec.from_spec(spec)
    wss = 2.0 * float(polish.cost)
    p_params = codec.dim
    result = FitResult(
        theta_star=theta,
        spec=spec,
        wss=wss,
        aic=aic_value(wss, p_params, emp.k),
        p_params=p_params,
        k_lags=emp.k,
        diagnostics={
            "converged": de_converged and bool(polish.success),
            "de_converged": de_converged,
            "de_generations": de_generations,
            "de_evaluations": de_evaluations,
            "polish_iterations": int(polish.njev),
            # the start's scale, the residual vectors and the Jacobians' rows
            "polish_evaluations": int(1 + polish.nfev + (2 * codec.dim + 1) * polish.njev),
            "polish_converged": bool(polish.success),
            "lag_set": lag_status,
        },
    )
    return result


# -- asymptotic covariance ------------------------------------------------------------

def _gamma_pair_sums(m, dl, shifts):
    """T[m1, m2, m3, m4, r] = sum_k I(m1, m2, k dl) I(m3, m4, (k + n_r) dl).

    I is the per-axis factor of ``model.autocovariance``, k runs over Z
    and n = ``shifts`` counts steps.  For k >= max(0, -n) both arguments
    are >= 0, for k < min(0, -n) both are negative: two geometric tails
    with ratios exp((m2 + m4) dl) and exp((m1 + m3) dl).  The |n| terms
    in between are summed directly, as their ratio can be exactly 1:
    all of them at once, step s (k = s - max(0, n)) on a trailing axis,
    zero past a shift's own |n| steps, and added in step order by one
    cumulative sum.
    """
    m1, m2, m3, m4 = m
    pos, neg = np.maximum(shifts, 0), np.maximum(-shifts, 0)

    def terms(k, n, m):  # the summand times (m1 + m2) (m3 + m4), in one exponent
        m1, m2, m3, m4 = m
        j = k + n
        first = np.where(k >= 0, m2 * k, -m1 * k)
        return np.exp(dl * (first + np.where(j >= 0, m4 * j, -m3 * j)))

    up = terms(neg, shifts, m) / -np.expm1(dl * (m2 + m4))
    down = terms(-pos - 1, shifts, m) / -np.expm1(dl * (m1 + m3))
    total = up + down
    steps = np.max(np.abs(shifts), initial=0)
    if steps:
        k = np.arange(steps) - pos[:, None]
        mid = terms(k, shifts[:, None], [mc[..., None] for mc in m])
        total = total + np.where(k < neg[:, None], mid, 0.0).cumsum(axis=-1)[..., -1]
    return total / ((m1 + m2) * (m3 + m4))


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
    on the lattice, a whole number of spacings on each axis.  The sums
    take the dtype of the spec's eigenvalues: real for a real spectrum.

    Each axis's sums are whole-array passes over (eigenvalues^4, lag
    pairs): the terms between the two tails of every shift sit on one
    step axis, added in step order by one cumulative sum, so the cost
    has no per-step Python loop.  The four tensor copies are then
    contracted with every axis's factor pairwise, in einsum's greedy
    order, computed once per layout and operand shapes and cached
    (``model._contract``): about five times fewer products than the
    single ten-index einsum at p = 2, d = 2.

    Raises
    ------
    NumericError
        If V, finite at unit kappa2, overflows when scaled by kappa2^2.
    """
    delta = model._per_axis(lattice_delta, spec.d, "lattice_delta")
    vmat = _v_matrix(spec, _lag_steps(delta, tlist), basis, delta)
    # kappa2 twice, not kappa2^2, so V stays where kappa2^2 underflows
    with np.errstate(over="ignore"):
        vmat = spec.kappa2 * (spec.kappa2 * vmat)
    if not np.all(np.isfinite(vmat)):
        raise NumericError(f"estimator covariance V overflows at kappa2 = {spec.kappa2:.3e}")
    return vmat


def _check_noise_variance(spec, basis, error=ValidationError):
    """Raise ``error`` unless basis.kappa2 is spec.kappa2 to 1e-9 (relative above 1)."""
    if abs(basis.kappa2 - spec.kappa2) > 1e-9 * max(1.0, spec.kappa2):
        raise error("the basis variance must equal the spec's kappa2")


def _v_matrix(spec, steps, basis, delta):
    """``covariance_v_matrix`` / kappa2^2 at lags of integer ``steps`` on the spacing
    ``delta``: the Gaussian sums plus the quartic sums times the basis's
    ``quartic_weight`` (kappa4 - 3 kappa2^2) / kappa2^2, 0 for Gaussian
    noise; no basis forms kappa2^2 for it."""
    _check_noise_variance(spec, basis)
    rows, cols = np.triu_indices(len(steps))
    weight = basis.quartic_weight
    quartic = abs(weight) > 1e-12
    tensor, lams = model._expansion(spec)
    factors = []
    for lam, dl, si, sj in zip(lams, delta, steps[rows].T, steps[cols].T):
        # copy c's view: eigenvalues along dimension c, then the lag pairs
        m = [lam.reshape((1,) * c + (-1,) + (1,) * (4 - c)) for c in range(4)]
        # both autocovariance products are one lattice sum, shifted by
        # t_i - t_j and by -t_i - t_j
        both = np.concatenate([si - sj, -si - sj])
        shifts, where = np.unique(both, return_inverse=True)
        blocks = [_gamma_pair_sums(m, dl, shifts)[..., where]]
        if quartic:
            blocks.append(_quartic_lattice_sums(m, dl, si, sj))
        factors.append(np.concatenate(blocks, axis=-1))
    sums = model._contract(tensor, factors, copies=4, pointwise=True)
    sums = sums.reshape(-1, rows.size)
    total = sums[0] + sums[1]
    if quartic:
        total = total + weight * sums[2]
    vmat = np.empty((len(steps), len(steps)))
    vmat[rows, cols] = vmat[cols, rows] = model._real(total, "estimator covariance")
    return vmat


def asymptotic_covariance(spec, lags, weights, basis, lattice_delta):
    """Sandwich covariance of the WLS parameter estimator at the truth.

    Sigma = B J' W (F V F') W J B, B = (J' W J)^-1, scaled for N^{d/2}
    (theta* - theta0): divide by N^d for the covariance of theta*.  J is
    the fit's Jacobian (``_variogram_jacobian``, one-sided next to the
    model's domain edge) at the lags laid out on the lattice of
    ``lattice_delta``, in the theta layout of the spec's own eigenvalue
    order (``_spec_codec``).  F V F' = 4 (V_00 - V_0j - V_i0 + V_ij) is
    the covariance of the variogram estimator 2 (g_0 - g_i), from V of
    the autocovariance estimator g at the zero lag and the lags.  J and
    V are taken at unit kappa2, so kappa2 does not enter Sigma.

    Sigma inherits the conditioning of the weighted normal matrix
    J' W J, whose inverse enters it twice.  At the ref spec with 5 axis
    lags per axis and delta = 0.04 its condition number is 3.0e9, so
    Sigma there has about four significant digits (3.2e7 at 50 lags per
    axis); the variogram covariance and J are far more accurate.

    Raises
    ------
    ValidationError
        If the weights are not one finite, strictly positive value per
        lag, or a lag is not a whole multiple of the spacing.
    NumericError
        If a coordinate of the Jacobian has no step on either side
        inside the model's domain.
    SingularDesign
        If the weighted normal matrix is numerically singular.
    """
    lags = np.atleast_2d(np.asarray(lags, dtype=float))
    weights = _checked_weights(weights, lags.shape[0])
    codec = _spec_codec(spec)
    delta = model._per_axis(lattice_delta, spec.d, "lattice_delta")
    steps = _lag_steps(delta, lags)
    ordinates = _Ordinates(codec, lags, delta, _step_layout(steps))
    jac = _variogram_jacobian(ordinates, codec.from_spec(spec))
    wjac = weights[:, None] * jac
    normal = jac.T @ wjac
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > DESIGN_COND_MAX:
        raise SingularDesign(f"normal matrix condition {cond:.3e}")
    bmat = np.linalg.inv(normal)
    vmat = _v_matrix(spec, np.vstack([np.zeros_like(steps[:1]), steps]), basis, delta)
    fvf = 4.0 * (vmat[0, 0] - vmat[:1, 1:] - vmat[1:, :1] + vmat[1:, 1:])
    sigma = bmat @ wjac.T @ fvf @ wjac @ bmat
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
