"""Constructive parameter recovery from axis variogram ordinates.

On each principal axis the variogram is a finite exponential sum, and
its first differences have no constant term:

    psi_{j+1} - psi_j = sum_k c_k z_k^j,   z_k = exp(lambda_k delta),
    c_k = 2 kappa2 dstar_k (1 - z_k).

A rank-p matrix pencil of those differences (Hua & Sarkar 1990) gives
the roots z_k, hence the eigenvalues of the companion matrices; the
axis weights dstar_k then follow by linear least squares, and they are
linear in the monomials b_i b_j.  The rank of that monomial system
decides whether b is identifiable, for every order (p, q) and
dimension d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import model
from .errors import (
    InconsistentMonomials,
    NegativeVarianceEstimate,
    RankDeficient,
    SingularHankel,
    UnstableRoot,
    ValidationError,
)

__all__ = [
    "AxisOrdinates",
    "IdentifiabilityReport",
    "recover_axis_eigenvalues",
    "recover_axis_weights",
    "recover_b",
    "recover_spec",
    "check_identifiability",
    "exact_axis_ordinates",
]

# the Hankel matrix of the differences has rank below p when its p-th
# singular value is at most this share of its largest
HANKEL_COND_MAX = 1e12
DSTAR_NONZERO_TOL = 1e-10
# singular values of the monomial system below this share of its
# largest entry count as zero in the rank test
RANK_RTOL = 1e-10
# relative tolerance of both consistency checks in ``recover_b``
MONOMIAL_RTOL = 1e-5


@dataclass(frozen=True)
class AxisOrdinates:
    """Variogram ordinates psi(j * delta * e_axis) for j = 0..J.

    ``axis`` is 0-based.  ``delta`` must be positive and finite, the
    ordinates finite; the first must be zero and none may be negative.
    """

    axis: int
    delta: float
    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if len(values) < 2:
            raise ValidationError("need ordinates for at least j = 0, 1")
        if not np.all(np.isfinite(values)):
            raise ValidationError("variogram ordinates must be finite")
        scale = max(abs(v) for v in values)
        if abs(values[0]) > 1e-12 * max(1.0, scale):
            raise ValidationError("psi(0) must be zero")
        if any(v < -1e-12 * max(1.0, scale) for v in values):
            raise ValidationError("variogram ordinates must be non-negative")
        if not 0 < self.delta < np.inf:
            raise ValidationError("delta must be positive and finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "delta", float(self.delta))


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Outcome of the identifiability checks.

    ``product_condition`` is True when the monomial system of
    ``recover_b`` has full column rank (for CARMA(2,1) on R^2, when the
    eigenvalue products of the two axes differ).  The verdict is
    "identifiable" or "not identifiable".
    """

    dstar_nonzero: tuple
    imag_in_band: tuple
    product_condition: bool
    verdict: str


def recover_axis_eigenvalues(ordinates, p):
    """Recover one axis's p eigenvalues from its variogram ordinates.

    Forms the Hankel matrix of the J first differences of the scaled
    ordinates, W = max(p, J // 3) + 1 columns wide, and keeps its
    leading p right singular vectors B.  The roots z = exp(lambda
    delta) are the eigenvalues of the real p x p pencil matrix
    pinv(B[:-1]) B[1:], so real roots come out real and complex ones in
    exact conjugate pairs; lambda = log(z) / delta.

    Requires ordinates for j = 0..2p+1 at least.  More ordinates widen
    the pencil and noticeably improve the attainable accuracy (the
    small-lag ordinates suffer heavy cancellation).

    Raises
    ------
    SingularHankel
        The Hankel matrix has rank below p: its p-th singular value is
        at most 1 / ``HANKEL_COND_MAX`` of its largest (typically a
        violated hypothesis such as a vanishing axis weight).
    UnstableRoot
        A recovered root lies on or outside the unit circle, or is real
        and not positive (the edge of the aliasing band).
    """
    values = np.asarray(ordinates.values, dtype=float)
    if values.size < 2 * p + 2:
        raise ValidationError(
            f"order p = {p} needs ordinates j = 0..{2 * p + 1}, "
            f"got {values.size - 1}"
        )
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        raise SingularHankel("all ordinates vanish")
    steps = np.diff(values / scale)
    hank = sliding_window_view(steps, max(p, steps.size // 3) + 1)
    _, sing, vh = np.linalg.svd(hank, full_matrices=False)
    if not sing[p - 1] > sing[0] / HANKEL_COND_MAX:
        raise SingularHankel(
            f"Hankel matrix of rank below {p} (singular values {sing[0]:.3e}, "
            f"{sing[p - 1]:.3e})"
        )
    basis = vh[:p].T
    roots = np.linalg.eigvals(np.linalg.pinv(basis[:-1]) @ basis[1:])
    if np.any(np.abs(roots) >= 1.0) or np.any((roots.imag == 0) & (roots.real <= 0)):
        raise UnstableRoot(
            f"recovered roots {roots} must lie strictly inside the unit circle, "
            "off the non-positive real axis"
        )
    return model.canonical_order(map(complex, np.log(roots) / ordinates.delta))


def recover_axis_weights(ordinates, eigenvalues, kappa2):
    """Exponential-sum weights dstar for known eigenvalues.

    Fits the first differences of the ordinates by least squares on the
    columns z_k^j, z_k = exp(lambda_k delta), and maps each coefficient
    c_k to dstar_k = c_k / (2 kappa2 (1 - z_k)).
    """
    steps = np.diff(np.asarray(ordinates.values, dtype=float))
    roots = np.exp(np.asarray(eigenvalues, dtype=complex) * ordinates.delta)
    design = roots[None, :] ** np.arange(steps.size)[:, None]
    coeffs, *_ = np.linalg.lstsq(design, steps.astype(complex), rcond=None)
    return coeffs / (2.0 * kappa2 * (1.0 - roots))


def _monomials(q):
    """Index pairs (i, j), i <= j, of the monomials b_i b_j for order q."""
    return [(i, j) for i in range(q + 1) for j in range(i, q + 1)]


def _quadratic_form_rows(eigenvalues_per_axis, kappa2, q):
    """Real system mapping the monomials b_i b_j (i <= j) to the axis weights.

    The axis weights are quadratic forms in b.  Column (i, i) is probed
    with the unit vector e_i, column (i, j) with e_i + e_j less both
    unit probes; the probes are scored as one batch of parameter rows.
    Real and imaginary parts of the d * p complex weights are stacked,
    so the monomials solve a real least-squares problem.  Eigenvalues
    or a kappa2 that ``CarmaSpec`` rejects raise its errors.
    """
    _, eigs, _ = model._check_spec((1.0,), eigenvalues_per_axis, kappa2)
    d, p = len(eigs), len(eigs[0])
    if not 0 <= q < p:
        raise ValidationError(f"need 0 <= q < p, got q = {q} for p = {p}")
    pairs = _monomials(q)
    probes = np.zeros((len(pairs), p))
    for row, (i, j) in enumerate(pairs):
        probes[row, [i, j]] = 1.0
    lam = np.broadcast_to(np.asarray(eigs, dtype=complex), (len(pairs), d, p))
    tensor, lam, _ = model._spec_rows(probes, lam)
    weights = np.concatenate(model._axis_weights(tensor, lam), axis=1)
    unit = {i: w for (i, j), w in zip(pairs, weights) if i == j}
    rows = np.stack(
        [w if i == j else w - unit[i] - unit[j] for (i, j), w in zip(pairs, weights)],
        axis=1,
    )
    return np.concatenate([rows.real, rows.imag])


def _rank(rows):
    """Numerical rank of a monomial system."""
    tol = RANK_RTOL * float(np.max(np.abs(rows)))
    return int(np.linalg.matrix_rank(rows, tol=tol))


def recover_b(dstar_per_axis, eigenvalues_per_axis, kappa2, q):
    """Recover (b_0, ..., b_q) from the axis weights of every axis.

    The d * p axis weights are linear in the monomials b_i b_j
    (i <= j); the system is solved by least squares, and b is unwound
    from the leading eigenpair (mu, v) of the symmetric matrix
    U_ij = b_i b_j as sqrt(mu) v, with the first entry above tolerance
    made positive (the b_0 >= 0 convention).  Any (p, q, d) works whose
    monomial system has full column rank; for CARMA(2,1) on R^2 that is
    the eigenvalue product condition lambda_11 lambda_12 !=
    lambda_21 lambda_22, and d = 1 with q >= 1 never qualifies.

    Raises
    ------
    RankDeficient
        The monomial system lacks full column rank, so b is not
        identifiable from the axis ordinates.
    NegativeVarianceEstimate
        U has no positive eigenvalue.
    InconsistentMonomials
        The weights are not fitted by any monomials, or the monomials
        are not those of one vector b.
    """
    rows = _quadratic_form_rows(eigenvalues_per_axis, kappa2, q)
    rank = _rank(rows)
    if rank < rows.shape[1]:
        raise RankDeficient(
            f"monomial system has rank {rank} < {rows.shape[1]}; the "
            "moving-average vector is not identifiable from axis ordinates"
        )
    rhs = np.concatenate([np.asarray(d, dtype=complex) for d in dstar_per_axis])
    rhs = np.concatenate([rhs.real, rhs.imag])
    u, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    mono = np.zeros((q + 1, q + 1))
    for (i, j), v in zip(_monomials(q), u):
        mono[i, j] = mono[j, i] = v
    mus, vecs = np.linalg.eigh(mono)
    mu = float(mus[-1])
    if not mu > 0:
        raise NegativeVarianceEstimate(
            f"leading eigenvalue {mu:.3e} of the monomial matrix is not positive"
        )
    b = np.sqrt(mu) * vecs[:, -1]
    lead = int(np.flatnonzero(np.abs(b) > MONOMIAL_RTOL * np.max(np.abs(b)))[0])
    b = b * np.sign(b[lead])
    resid = float(np.linalg.norm(rows @ u - rhs))
    if resid > MONOMIAL_RTOL * max(float(np.linalg.norm(rhs)), 1e-30):
        raise InconsistentMonomials(
            f"axis weights are not consistent with any b (residual {resid:.3e})"
        )
    gap = float(np.max(np.abs(mono - np.outer(b, b))))
    if gap > MONOMIAL_RTOL * mu:
        raise InconsistentMonomials(
            f"monomials b_i b_j are not those of one vector b (gap {gap:.3e})"
        )
    return tuple(float(v) for v in b)


def recover_spec(ordinates_per_axis, p, q, kappa2):
    """Full pipeline: axis ordinates -> CarmaSpec of order (p, q).

    Eigenvalues per axis from the matrix pencil, the axis weights for
    those eigenvalues, then b from ``recover_b``.  The order must meet
    0 <= q < p and kappa2 must be finite and positive; both are checked
    before any recovery step.
    """
    if not 0 <= q < p:
        raise ValidationError(f"need 0 <= q < p, got q = {q} for p = {p}")
    kappa2 = model._check_kappa2(kappa2)
    eigs = tuple(
        recover_axis_eigenvalues(ords, p) for ords in ordinates_per_axis
    )
    dstar = [
        recover_axis_weights(ords, ax_eigs, kappa2)
        for ords, ax_eigs in zip(ordinates_per_axis, eigs)
    ]
    b = recover_b(dstar, eigs, kappa2, q)
    return model.CarmaSpec(b=b, eigenvalues=eigs, kappa2=kappa2)


def exact_axis_ordinates(spec, delta, j_max):
    """Model ordinates psi(j delta e_i), j = 0..j_max, for every axis."""
    out = []
    for axis in range(spec.d):
        taus = delta * np.arange(j_max + 1)
        vals = model.axis_variogram(spec, axis, taus)
        vals[0] = 0.0
        out.append(AxisOrdinates(axis=axis, delta=delta, values=tuple(vals)))
    return out


def check_identifiability(spec, delta):
    """Evaluate the identifiability conditions at spacing delta.

    ``delta`` is one spacing per axis, or a scalar for all axes; each
    must be finite and positive.
    Flags: no axis weight may vanish, every eigenvalue's imaginary part
    must lie in its axis's half-open aliasing band [-pi/delta,
    pi/delta), and the monomial system of ``recover_b`` must have full
    column rank (``product_condition``).
    """
    deltas = model._per_axis(delta, spec.d, "delta")
    dstar = model._axis_weights(*model._rows_of(spec))
    dstar_ok = [all(abs(w) > DSTAR_NONZERO_TOL for w in weights[0])
                for weights in dstar]
    band_ok = [all(-np.pi / step <= lam.imag < np.pi / step for lam in axis)
               for axis, step in zip(spec.eigenvalues, deltas)]
    rows = _quadratic_form_rows(spec.eigenvalues, spec.kappa2, spec.q)
    product_ok = _rank(rows) == rows.shape[1]
    ok = all(dstar_ok) and all(band_ok) and product_ok
    return IdentifiabilityReport(
        dstar_nonzero=tuple(dstar_ok),
        imag_in_band=tuple(band_ok),
        product_condition=product_ok,
        verdict="identifiable" if ok else "not identifiable",
    )
