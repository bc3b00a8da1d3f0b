"""Closed-form second-order theory of causal CARMA random fields.

A CARMA(p, q) random field on R^d is a moving average of a mean-zero
Lévy basis against the kernel

    g(s) = b' exp(A_1 s_1) ... exp(A_d s_d) e_p   for s >= 0,  else 0,

where the A_i are p x p companion matrices with stable, pairwise
distinct eigenvalues and b = (b_0, ..., b_{p-1}) with b_q != 0 and
b_i = 0 for i > q.  This module reaches the kernel in two forms:

- the companion form, the definition itself: ``_companion`` builds each
  A_i, ``kernel_eval`` chains their matrix exponentials and
  ``spectral_density`` their resolvents b' (i w_1 - A_1)^{-1} ...
  (i w_d - A_d)^{-1} e_p;
- the eigen form, for everything else: the kernel's eigen-expansion,
  whose coefficient tensor gives the kernel grid, autocovariance and
  variogram in closed form.  ``kernel_eval`` is independent of it, so
  it cross-checks those closed forms.

One batched core, ``_spec_rows``, turns S parameter rows (b,
eigenvalues) into the expansion's coefficient tensors, and
``_row_rules`` holds the rules a row must meet.  A ``CarmaSpec`` is
checked by those rules and evaluated as a cached batch of one through
the same core, so the fit's batched objective and the spec-level
functions share one implementation.

The eigenvalues' dtype is the arithmetic's: ``_eigenvalue_array`` makes
a real spectrum a float64 array and any other a complex128 one, and the
eigenvalue differences, the coefficient tensor, the exponential factors
and every contraction downstream inherit it.  A real spectrum is
therefore computed in real arithmetic, with no imaginary half;
``_real`` guards the results of a complex one.

All functions here are pure and the spec object is immutable, so the
module is safe for concurrent use without locking.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import linalg

from .errors import (
    DuplicateEigenvalue,
    IllConditionedVandermonde,
    InvalidSpec,
    NonConjugateSet,
    ValidationError,
)

__all__ = [
    "CarmaSpec",
    "canonical_order",
    "kernel_eval",
    "kernel_coefficients",
    "kernel_on_grid",
    "autocovariance",
    "autocovariance_grid",
    "variogram",
    "axis_variogram_coefficients",
    "axis_variogram",
    "spectral_density",
]

# Tolerances (absolute unless noted).  IMAG_TOL guards the imaginary
# residue of public real-valued results.
IMAG_TOL = 1e-9
CONJUGATE_TOL = 1e-9
MIN_EIGENVALUE_GAP = 1e-6

# einsum labels in ascending character order: a label's rank is its
# index, which fixes the order in which einsum sums over labels
_LABELS = string.ascii_uppercase + string.ascii_lowercase


def _check_conjugate_closed(eigs, tol=CONJUGATE_TOL):
    """Verify the list is closed under conjugation (greedy pairing)."""
    pending = [complex(e) for e in eigs if abs(complex(e).imag) > tol]
    while pending:
        lam = pending.pop()
        match = None
        for k, other in enumerate(pending):
            if abs(other - lam.conjugate()) <= tol * max(1.0, abs(lam)):
                match = k
                break
        if match is None:
            raise NonConjugateSet(
                f"eigenvalue {lam} has no complex-conjugate partner"
            )
        pending.pop(match)


def _residue(values, axis=None):
    """Imaginary residue of ``values`` and whether it is tolerable.

    The residue is the largest imaginary magnitude; it is tolerable up
    to ``IMAG_TOL`` times the largest real magnitude (at least 1).
    ``axis`` selects the dimensions to reduce, None for all of them.
    """
    resid = np.abs(values.imag).max(axis=axis, initial=0.0)
    scale = np.abs(values.real).max(axis=axis, initial=1.0)
    return resid, ~(resid > IMAG_TOL * scale)


def _real(values, what):
    """Real part of a closed-form result that must be real.

    Conjugate index tuples make every closed form real up to rounding;
    an imaginary residue above tolerance (see ``_residue``) means the
    eigen-expansion is unreliable.  Scalars come back as float, arrays
    as their real part.  Real input (a real spectrum's results) passes
    through untouched, with no scan: the same array, or a 0-d one as a
    float.
    """
    values = np.asarray(values)
    if values.dtype.kind != "c":
        return values if values.ndim else float(values)
    resid, ok = _residue(values)
    if not ok:
        raise IllConditionedVandermonde(
            f"{what} has imaginary residue {resid:.3e} above {IMAG_TOL:.0e}"
        )
    return values.real if values.ndim else float(values.real)


def _real_rows(values):
    """``_real`` row by row: the real part, and which rows pass the guard.

    Real ``values`` pass through untouched, and every row passes.
    """
    if values.dtype.kind != "c":
        return values, np.ones(values.shape[0], dtype=bool)
    return values.real, _residue(values, axis=tuple(range(1, values.ndim)))[1]


def _per_axis(value, d, name):
    """``value`` as d floats, one per axis; a scalar applies to every axis.

    The one check for per-axis spacings and sizes: there must be d
    entries, each finite and positive.
    """
    values = (value,) * d if np.ndim(value) == 0 else tuple(value)
    values = tuple(float(v) for v in values)
    if len(values) != d or not all(math.isfinite(v) and v > 0 for v in values):
        raise ValidationError(
            f"{name} needs {d} finite positive entries, got {value!r}"
        )
    return values


def canonical_order(eigs):
    """Eigenvalues by descending real part, then descending imaginary part."""
    return tuple(sorted(eigs, key=lambda e: (-e.real, -e.imag)))


@lru_cache(maxsize=None)
def _pair_indices(p):
    return np.triu_indices(p, 1)


@lru_cache(maxsize=None)
def _other_indices(p):
    """Row k lists the indices l != k of 0, ..., p - 1, shape (p, p - 1); read-only."""
    indices = np.array([[l for l in range(p) if l != k] for k in range(p)])
    indices.flags.writeable = False
    return indices


def _row_rules(b, lam):
    """The rules every parameter row must meet, and the rows meeting each.

    ``b`` has shape (S, p) and ``lam`` shape (S, d, p).  Returns one
    (holds, error class, message) triple per rule, ``holds`` an (S,)
    mask: b finite and not identically zero, eigenvalues finite with
    strictly negative real part, and no two eigenvalues of an axis
    closer than ``MIN_EIGENVALUE_GAP``.
    """
    rules = [
        (np.isfinite(b).all(axis=1) & (b != 0.0).any(axis=1), InvalidSpec,
         "b must be finite and not identically zero"),
        (((lam.real < 0.0) & np.isfinite(lam)).all(axis=(1, 2)), InvalidSpec,
         "eigenvalues must be finite with strictly negative real part"),
    ]
    if b.shape[1] > 1:
        first, second = _pair_indices(b.shape[1])
        gaps = np.abs(lam[..., first] - lam[..., second])
        rules.append(((gaps >= MIN_EIGENVALUE_GAP).all(axis=(1, 2)), DuplicateEigenvalue,
                      "two eigenvalues of an axis are closer than MIN_EIGENVALUE_GAP"))
    return rules


def _check_kappa2(kappa2):
    """``kappa2`` as a float; the noise variance must be finite and positive."""
    kappa2 = float(kappa2)
    if not (math.isfinite(kappa2) and kappa2 > 0):
        raise InvalidSpec(f"kappa2 must be finite and positive, got {kappa2!r}")
    return kappa2


def _check_spec(b, eigenvalues, kappa2):
    """Checked parts of one parameter set: (b padded to p, eigenvalues, kappa2).

    Applies the shape rules, ``_row_rules`` to the one row, conjugate
    closure per axis and ``_check_kappa2``.

    Raises
    ------
    InvalidSpec, DuplicateEigenvalue, NonConjugateSet
    """
    eiglists = tuple(tuple(complex(e) for e in axis) for axis in eigenvalues)
    if not eiglists or any(len(axis) == 0 for axis in eiglists):
        raise InvalidSpec("need at least one eigenvalue per axis")
    p = len(eiglists[0])
    if any(len(axis) != p for axis in eiglists):
        raise InvalidSpec("all axes must have the same number of eigenvalues")
    b = tuple(float(v) for v in b)
    if len(b) > p:
        raise InvalidSpec(f"b has {len(b)} entries but p = {p}")
    b = b + (0.0,) * (p - len(b))
    for holds, error, message in _row_rules(np.array([b]), np.array([eiglists])):
        if not holds[0]:
            raise error(f"{message}: b = {b}, eigenvalues = {eiglists}")
    for axis in eiglists:
        _check_conjugate_closed(axis)
    return b, eiglists, _check_kappa2(kappa2)


@dataclass(frozen=True)
class CarmaSpec:
    """Full parameterization of a causal CARMA(p, q) random field.

    Parameters
    ----------
    b : sequence of float
        Moving-average coefficients (b_0, ..., b_{p-1}).  A sequence
        shorter than p is zero-padded on the right.
    eigenvalues : sequence of sequences of complex
        One list per axis with the p eigenvalues of that axis's
        companion matrix.  Each list must have finite entries with
        strictly negative real parts, pairwise at least
        ``MIN_EIGENVALUE_GAP`` apart, and be closed under complex
        conjugation.
    kappa2 : float
        Variance of the driving noise per unit volume, finite and
        positive.
    """

    b: tuple
    eigenvalues: tuple
    kappa2: float = 1.0

    def __post_init__(self):
        parts = _check_spec(self.b, self.eigenvalues, self.kappa2)
        for name, value in zip(("b", "eigenvalues", "kappa2"), parts):
            object.__setattr__(self, name, value)

    @property
    def d(self):
        return len(self.eigenvalues)

    @property
    def p(self):
        return len(self.b)

    @property
    def q(self):
        return max(i for i, v in enumerate(self.b) if v != 0.0)

    def canonical(self):
        """The same spec with every axis in ``canonical_order``."""
        return CarmaSpec(
            b=self.b,
            eigenvalues=tuple(canonical_order(axis) for axis in self.eigenvalues),
            kappa2=self.kappa2,
        )

    def max_real_part(self):
        """Slowest decay rate, max over all eigenvalues of Re(lambda) (< 0)."""
        return max(e.real for axis in self.eigenvalues for e in axis)


@lru_cache(maxsize=128)
def _companion(eigs):
    """Real companion matrix of prod(z - lam_k) over one axis's eigenvalues.

    With prod(z - lam_k) = z^p + a_1 z^{p-1} + ... + a_p, the matrix has
    ones on the superdiagonal and (-a_p, ..., -a_1) as its last row.  A
    conjugate-closed axis makes the a_k real up to rounding; the real
    part is kept.  ``eigs`` is a tuple, as in ``CarmaSpec.eigenvalues``;
    the cached matrix is read-only.
    """
    coeffs = np.poly(np.asarray(eigs)).real  # [1, a_1, ..., a_p]
    amat = np.eye(len(coeffs) - 1, k=1)
    amat[-1] = -coeffs[:0:-1]
    amat.flags.writeable = False
    return amat


def _eigenvalue_array(eigenvalues):
    """Eigenvalues as an array whose dtype every later step inherits.

    float64 when every imaginary part is exactly 0, complex128 otherwise.
    """
    lam = np.asarray(eigenvalues, dtype=complex)
    return lam if lam.imag.any() else lam.real.copy()


def _coeff_tensors(b, lam):
    """Coefficient tensors of S rows in closed form, shape (S, p, ..., p).

    With P_i^{(k)} the spectral projector onto the k-th eigenvalue of
    axis i, the coefficient for (k_1, ..., k_d) is
    b' P_1^{(k_1)} ... P_d^{(k_d)} e_p.  Written out with
    b(z) = b_0 + b_1 z + ... + b_{p-1} z^{p-1}, a_i(z) = prod_k (z - lam_{i,k})
    and the Lagrange basis l_{i,k}(z) = prod_{l != k} (z - lam_{i,l}) /
    a_i'(lam_{i,k}), that is the chain

        b(lam_{1,k_1}) l_{1,k_1}(lam_{2,k_2}) ... l_{d-1,k_{d-1}}(lam_{d,k_d})
            / a_d'(lam_{d,k_d}),

    Brockwell's b(lam_k) / a'(lam_k) at d = 1.  Only products of
    eigenvalue differences are divided, and the gap rule keeps them
    nonzero.  ``b`` has shape (S, p) and ``lam`` shape (S, d, p); the
    tensors take ``lam``'s dtype.  At p = 1 every factor but b_0 is 1.
    """
    rows, d, p = lam.shape
    if p == 1:
        return b.astype(lam.dtype).reshape((rows,) + (1,) * d)
    others = _other_indices(p)
    # a_i'(lam_{i,k}) = prod_{l != k} (lam_{i,k} - lam_{i,l}), shape (S, d, p)
    slopes = (lam[..., None] - lam[..., others]).prod(axis=-1)
    # l_{i,k}(lam_{i+1,m}) over [k, m], shape (S, d - 1, p, p)
    diffs = lam[:, 1:, None, None, :] - lam[:, :-1, others, None]
    lagrange = diffs.prod(axis=-2) / slopes[:, :-1, :, None]
    # b(lam_{1,k}) by Horner's rule
    first = b[:, -1:]
    for j in range(p - 2, -1, -1):
        first = first * lam[:, 0] + b[:, j:j + 1]
    batch = d  # the einsum label of the rows, after the d axis labels
    operands = [first, [batch, 0]]
    for i in range(1, d):
        operands += [lagrange[:, i - 1], [batch, i - 1, i]]
    operands += [1.0 / slopes[:, -1], [batch, d - 1], [batch, *range(d)]]
    return np.einsum(*operands)


def _spec_rows(b, lam):
    """Coefficient tensors of S parameter rows: the one route from parameters.

    ``b`` has shape (S, p) and ``lam``, conjugate-closed per axis, shape
    (S, d, p); the tensors take ``lam``'s dtype.  A row fails where it
    breaks a rule of ``_row_rules``, and is computed on a stand-in valid
    row, so every later step stays finite.  Returns the (S, p, ..., p)
    tensors (see ``_coeff_tensors``), ``lam`` with the stand-ins and the
    mask of rows that passed.
    """
    p = b.shape[1]
    ok = np.ones(b.shape[0], dtype=bool)
    for holds, _, _ in _row_rules(b, lam):
        ok &= holds
    if not ok.all():
        b = np.where(ok[:, None], b, 1.0)
        lam = np.where(ok[:, None, None], lam, -np.arange(1.0, p + 1))
    return _coeff_tensors(b, lam), lam, ok


@lru_cache(maxsize=128)
def _expansion(spec):
    """A spec as a batch of one through ``_spec_rows``.

    Returns its (p,)*d coefficient tensor (see ``_coeff_tensors``) and
    its (d, p) eigenvalues (see ``_eigenvalue_array``).
    """
    tensor, lam, _ = _spec_rows(
        np.asarray(spec.b, dtype=float)[None],
        _eigenvalue_array(spec.eigenvalues)[None],
    )
    return tensor[0], lam[0]


@lru_cache(maxsize=None)
def _subscripts(copies, ndims, keep_axis, pointwise, batch):
    """einsum subscripts for ``_contract`` (see there for the layout).

    Copy c's index on axis i is label c * d + i; free labels follow.
    The batch label, if any, is the last label.
    """
    d = len(ndims)
    subs = [_LABELS[c * d:(c + 1) * d] for c in range(copies)]
    out = "" if keep_axis is None else _LABELS[(copies - 1) * d + keep_axis]
    free = copies * d
    if pointwise:
        out += _LABELS[free:free + ndims[0] - copies]
    for i, ndim in enumerate(ndims):
        trailing = _LABELS[free:free + ndim - copies]
        subs.append(_LABELS[i:copies * d:d] + trailing)
        if not pointwise:
            out += trailing
            free += len(trailing)
    if batch:
        subs, out = [_LABELS[-1] + s for s in subs], _LABELS[-1] + out
    return ",".join(subs) + "->" + out


@lru_cache(maxsize=64)
def _pairwise_steps(subs, shapes):
    """``subs`` split into pairwise einsum steps, in einsum's greedy order.

    Each step is (positions, subscripts): pop the operands at those
    positions (descending), contract them, and append the result.  An
    intermediate keeps, in label order, the labels still needed later.
    Greedy, not einsum's optimal search: the covariance takes as long
    either way, and the optimal search grows the heap by about 3.5 MiB
    on its first call.
    """
    dummies = [np.broadcast_to(0.0, shape) for shape in shapes]
    path = np.einsum_path(subs, *dummies, optimize="greedy")[0][1:]
    inputs, out = subs.split("->")
    terms = inputs.split(",")
    steps = []
    for positions in path:
        positions = tuple(sorted(positions, reverse=True))
        picked = [terms.pop(i) for i in positions]
        needed = set("".join(terms) + out)
        result = "".join(sorted(set("".join(picked)) & needed)) if terms else out
        terms.append(result)
        steps.append((positions, ",".join(picked) + "->" + result))
    return tuple(steps)


def _contract(tensor, factors, copies=1, keep_axis=None, pointwise=False,
              batch=False):
    """Contract copies of a coefficient tensor C with one factor per axis.

    Returns sum over K^1, ..., K^copies of C[K^1] ... C[K^copies] times
    prod_i factors[i][K^1_i, ..., K^copies_i, ...]: the leading
    ``copies`` dimensions of ``factors[i]`` index the eigenvalues of
    axis i.  Trailing dimensions stay free, one set per axis in axis
    order (a tensor-product grid) or, with ``pointwise``, one set
    shared by every axis (scattered points).  ``keep_axis`` also leaves
    the last copy's index on that axis free, ahead of the trailing
    dimensions.  With ``batch``, the tensor and every factor carry one
    more leading dimension, S rows contracted side by side, and the
    result leads with it.  One or two copies run as one einsum; more
    (the estimator covariance's four) run pairwise, in the order that
    ``_pairwise_steps`` caches.
    """
    ndims = tuple(f.ndim - batch for f in factors)
    subs = _subscripts(copies, ndims, keep_axis, pointwise, batch)
    operands = [tensor] * copies + list(factors)
    if copies <= 2:
        return np.einsum(subs, *operands)
    for positions, step in _pairwise_steps(subs, tuple(op.shape for op in operands)):
        operands.append(np.einsum(step, *[operands.pop(i) for i in positions]))
    return operands[0]


def kernel_coefficients(spec):
    """Coefficients of the kernel's separable eigen-expansion.

    Returns
    -------
    complex ndarray of shape (p,) * d
        Entry [k_1, ..., k_d] multiplies exp(lam_{1,k_1} s_1) ...
        exp(lam_{d,k_d} s_d); summing over all index tuples gives the
        kernel for s >= 0.  The weights of conjugate index tuples are
        conjugate, so the sum is real.  The array is a copy.
    """
    return _expansion(spec)[0].astype(complex)


def kernel_eval(spec, s):
    """Kernel value g(s) = b' exp(A_1 s_1) ... exp(A_d s_d) e_p, by definition.

    The matrix exponentials of the companion matrices (``_companion``)
    use no eigen-expansion, so they keep full accuracy at close
    eigenvalues and cross-check the closed forms.  Zero whenever any coordinate of ``s``
    is negative; non-finite coordinates are rejected.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.size != spec.d:
        raise InvalidSpec(f"point has {s.size} coordinates, spec has d = {spec.d}")
    if not np.all(np.isfinite(s)):
        raise ValidationError("kernel coordinates must be finite")
    if np.any(s < 0):
        return 0.0
    w = np.asarray(spec.b, dtype=float)
    for axis, si in zip(spec.eigenvalues, s):
        w = w @ linalg.expm(_companion(axis) * si)
    return float(w[-1])


def kernel_on_grid(spec, axes_points):
    """Kernel values on a tensor-product grid of coordinates.

    Parameters
    ----------
    axes_points : sequence of 1-D arrays
        Coordinates per axis.  Negative coordinates give zero rows, so
        the array is the kernel sampled on the full product grid.

    Returns
    -------
    ndarray of shape (len(axes_points[0]), ..., len(axes_points[d-1]))
    """
    if len(axes_points) != spec.d:
        raise InvalidSpec("one coordinate array per axis required")
    tensor, lams = _expansion(spec)
    factors = []
    for lam, pts in zip(lams, axes_points):
        pts = np.asarray(pts, dtype=float)
        # negative coordinates are zeroed below; exp(0) cannot overflow.
        # complex exp: truncated-discretized fields are pinned to its bits,
        # and numpy's float64 exp rounds some entries differently
        emat = np.exp(np.outer(lam, np.maximum(pts, 0.0)).astype(complex))
        if not np.iscomplexobj(lam):
            emat = emat.real
        emat[:, pts < 0] = 0.0
        factors.append(emat)
    return _real(_contract(tensor, factors), "kernel grid")


def _pair_sums(lam):
    """lam_k + lam_l over the last axis of ``lam``, shape (..., p, p)."""
    return lam[..., :, None] + lam[..., None, :]


def _lag_rows(spec, t):
    """Lags as a (k, d) array, and whether ``t`` was a single lag."""
    t = np.asarray(t, dtype=float)
    single = t.ndim <= 1
    rows = np.atleast_1d(t)[None, :] if single else t
    if rows.ndim != 2 or rows.shape[1] != spec.d:
        raise InvalidSpec(f"lags of shape {t.shape} need d = {spec.d} coordinates")
    return rows, single


def _gamma_factors(lam, pts):
    """Per-axis factor I(lam, lam', tau) of gamma, shape (..., p, p, len(pts)).

    ``lam`` is an array of one axis's eigenvalues along its last
    dimension, after any leading batch dimensions.
    """
    pts = np.asarray(pts, dtype=float)
    pos = np.exp(lam[..., None, :, None] * np.where(pts >= 0, pts, 0.0))
    neg = np.exp(-lam[..., :, None, None] * np.where(pts < 0, pts, 0.0))
    return np.where(pts >= 0, pos, neg) / -_pair_sums(lam)[..., None]


def _rows_of(spec):
    """A spec as a batch of one row: its coefficient tensor and eigenvalues."""
    tensor, lam = _expansion(spec)
    return tensor[None], lam[None]


def _gammas(tensor, lam, kappa2, lags):
    """gamma of S rows at (k, d) lags, shape (S, k), in the tensor's dtype.

    ``tensor`` holds the rows' coefficient tensors and ``lam`` their
    (S, d, p) eigenvalues.
    """
    mats = [_gamma_factors(lam[:, i], col) for i, col in enumerate(lags.T)]
    return kappa2 * _contract(tensor, mats, copies=2, pointwise=True, batch=True)


def _axis_weights(tensor, lam):
    """dstar of ``axis_variogram_coefficients`` for S rows, every axis.

    Returns d arrays of shape (S, p).
    """
    mats = 1.0 / (-_pair_sums(lam))
    factors = [mats[:, i] for i in range(lam.shape[1])]
    return [_contract(tensor, factors, copies=2, keep_axis=i, batch=True)
            for i in range(lam.shape[1])]


def _axis_sums(dstar, lam, kappa2, spans):
    """2 kappa2 sum_k dstar_k (1 - exp(lam_k |tau|)) for S rows, shape (S, k).

    ``dstar`` and ``lam`` are one axis's (S, p) weights and eigenvalues,
    ``spans`` the k distances |tau| as a (k, 1) column.  The p products
    are added in eigenvalue order, elementwise, so a row's bytes depend
    neither on the memory layout of the operands nor on the batch it
    sits in (a batched matmul rounds differently in BLAS and in numpy's
    own loop).
    """
    growth = spans * lam[:, None, :]
    np.exp(growth, out=growth)
    np.subtract(1.0, growth, out=growth)
    total = growth[..., 0] * dstar[:, None, 0]
    for k in range(1, lam.shape[-1]):
        total += growth[..., k] * dstar[:, None, k]
    return 2.0 * kappa2 * total


def autocovariance(spec, t):
    """Autocovariance gamma(t) of the field, lags of any sign.

    Integrating the kernel eigen-expansion against its shift gives,
    per axis,

        I(lam, lam', tau) = exp(lam' tau) / (-(lam + lam'))   tau >= 0
                            exp(-lam tau) / (-(lam + lam'))   tau < 0,

    and gamma(t) = kappa2 * sum over eigenvalue-tuple pairs of the
    coefficient products times the per-axis factors.  ``t`` is one lag
    (a float comes back) or a (k, d) array of lags (k values come back).
    """
    rows, single = _lag_rows(spec, t)
    vals = _real(_gammas(*_rows_of(spec), spec.kappa2, rows)[0], "autocovariance")
    return float(vals[0]) if single else vals


def autocovariance_grid(spec, axes_points):
    """gamma on a tensor-product grid of lags (vectorized over the grid)."""
    if len(axes_points) != spec.d:
        raise InvalidSpec("one lag array per axis required")
    tensor, lams = _expansion(spec)
    mats = [_gamma_factors(lam, pts) for lam, pts in zip(lams, axes_points)]
    vals = spec.kappa2 * _contract(tensor, mats, copies=2)
    return _real(vals, "autocovariance")


def variogram(spec, t):
    """Variogram psi(t) = 2 (gamma(0) - gamma(t)), one lag or (k, d) lags."""
    rows, single = _lag_rows(spec, t)
    gam = autocovariance(spec, np.vstack([np.zeros((1, spec.d)), rows]))
    vals = 2.0 * (gam[0] - gam[1:])
    return float(vals[0]) if single else vals


def _check_axis(spec, axis):
    if not 0 <= axis < spec.d:
        raise InvalidSpec(f"axis {axis} out of range for d = {spec.d}")


def axis_variogram_coefficients(spec, axis):
    """Exponential-sum weights of the variogram on one principal axis.

    The variogram restricted to axis i is a one-dimensional exponential
    sum psi(tau e_i) = 2 kappa2 sum_k dstar_k (1 - exp(lam_{i,k} |tau|)).
    The weights arise from the full second-order expansion by summing
    out every other axis.

    Parameters
    ----------
    axis : int
        Axis index, 0-based.

    Returns
    -------
    list of (eigenvalue, weight) pairs, both complex, aligned with the
    spec's eigenvalue order on that axis.
    """
    _check_axis(spec, axis)
    weights = _axis_weights(*_rows_of(spec))[axis][0].astype(complex)
    return list(zip(spec.eigenvalues[axis], weights))


def axis_variogram(spec, axis, taus):
    """Variogram ordinates psi(tau e_axis) for an array of taus."""
    _check_axis(spec, axis)
    tensor, lam = _rows_of(spec)
    dstar = _axis_weights(tensor, lam)[axis]
    spans = np.abs(np.atleast_1d(np.asarray(taus, dtype=float)))[:, None]
    return _real(_axis_sums(dstar, lam[:, axis], spec.kappa2, spans)[0], "axis variogram")


def spectral_density(spec, omega):
    """Spectral density f(w) = kappa2 / (2 pi)^d * |b' R_1 ... R_d e_p|^2.

    R_i = (i w_i I - A_i)^{-1} is the resolvent of axis i's companion
    matrix; the chain is one batched linear solve per axis.  Accepts a
    single frequency vector or an array of shape (..., d).

    Strictly negative eigenvalue real parts keep every resolvent
    defined at every finite frequency; non-finite frequencies are
    rejected.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ValidationError("frequencies must be finite")
    scalar = omega.ndim == 1
    omega = np.atleast_2d(omega)
    if omega.shape[-1] != spec.d:
        raise InvalidSpec("frequency must have d components")
    vec = np.broadcast_to(
        np.asarray(spec.b, dtype=complex), omega.shape[:-1] + (spec.p,)
    )
    eye = np.eye(spec.p)
    for i, axis in enumerate(spec.eigenvalues):
        shifted = 1j * omega[..., i, None, None] * eye - _companion(axis)
        # row vector times R_i: solve with the transposed matrix
        vec = np.linalg.solve(np.swapaxes(shifted, -1, -2), vec[..., None])[..., 0]
    dens = spec.kappa2 / (2.0 * np.pi) ** spec.d * np.abs(vec[..., -1]) ** 2
    return float(dens[0]) if scalar else dens
