"""Constructive parameter recovery from exact axis variogram ordinates.

On each principal axis the variogram is a finite exponential sum, so
the sampled ordinates psi(j * delta * e_i) satisfy a linear recurrence
whose characteristic roots are exp(lambda * delta).  Solving the
associated Hankel system (a Prony-type step, with an artificial root at
1 carrying the variogram's limit value) recovers the eigenvalues of the
companion matrices; the moving-average vector then follows from the
exponential-sum weights, which are linear in the monomials b_i b_j.
The rank of that monomial system decides whether b is identifiable,
for every order (p, q) and dimension d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import (
    InconsistentMonomials,
    NegativeVarianceEstimate,
    RankDeficient,
    RootOutsideBand,
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

HANKEL_COND_MAX = 1e12
# The recovered root standing in for exp(0) = 1 moves with ordinate
# noise (relative noise 1e-6 displaces it by ~1e-4), so the gate is a
# dominance test, not a tight equality test.
ARTIFACT_ROOT_TOL = 1e-3
IMAG_ZERO_TOL = 1e-9
DSTAR_NONZERO_TOL = 1e-10
# singular values of the monomial system below this share of its
# largest entry count as zero in the rank test
RANK_RTOL = 1e-10
# relative tolerance of both consistency checks in ``recover_b``
MONOMIAL_RTOL = 1e-5


@dataclass(frozen=True)
class AxisOrdinates:
    """Variogram ordinates psi(j * delta * e_axis) for j = 0..J.

    ``axis`` is 0-based.  The first ordinate must be zero and none may
    be negative.
    """

    axis: int
    delta: float
    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if len(values) < 2:
            raise ValidationError("need ordinates for at least j = 0, 1")
        scale = max(abs(v) for v in values)
        if abs(values[0]) > 1e-12 * max(1.0, scale):
            raise ValidationError("psi(0) must be zero")
        if any(v < -1e-12 * max(1.0, scale) for v in values):
            raise ValidationError("variogram ordinates must be non-negative")
        if not self.delta > 0:
            raise ValidationError("delta must be positive")
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


def _symmetrize_conjugates(eigs):
    """Zero small imaginary parts and enforce exact conjugate pairing."""
    out = []
    pending = []
    for e in map(complex, eigs):
        if abs(e.imag) < IMAG_ZERO_TOL:
            out.append(complex(e.real, 0.0))
        else:
            pending.append(e)
    while pending:
        lam = pending.pop()
        best, dist = None, np.inf
        for k, other in enumerate(pending):
            gap = abs(other - lam.conjugate())
            if gap < dist:
                best, dist = k, gap
        if best is None or dist > 1e-6 * max(1.0, abs(lam)):
            raise UnstableRoot(
                f"recovered eigenvalue {lam} has no conjugate partner"
            )
        partner = pending.pop(best)
        mean = 0.5 * (lam + partner.conjugate())
        out.extend([mean, mean.conjugate()])
    return out


def recover_axis_eigenvalues(ordinates, p):
    """Recover one axis's p eigenvalues from exact variogram ordinates.

    Builds the (p+1)-column Hankel system in the ordinates (the extra
    column carries the artificial unit root for the variogram limit),
    solves for the recurrence coefficients, roots the monic
    degree-(p+1) polynomial via its companion matrix, discards the root
    standing in for exp(0) = 1 and maps the rest through the principal
    logarithm divided by delta.

    Requires ordinates for j = 0..2p+1 at least; that minimum gives the
    square Hankel system, while additional ordinates extend it to a
    least-squares system of the same structure and noticeably improve
    the attainable accuracy (the small-lag ordinates suffer heavy
    cancellation, so the minimal system sits close to the float64 noise
    floor).

    Raises
    ------
    SingularHankel
        Condition number above ``HANKEL_COND_MAX`` (typically a violated
        hypothesis such as a vanishing axis weight).
    UnstableRoot
        No root close enough to 1, or a recovered root on or outside
        the unit circle.
    RootOutsideBand
        A recovered imaginary part escapes [-pi/delta, pi/delta).
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
    phi = values / scale
    # one recurrence row per available window; square system for the
    # minimal j = 0..2p+1, least squares (same structure) beyond that
    n_rows = values.size - p - 1
    hank = np.empty((n_rows, p + 1))
    rhs = np.empty(n_rows)
    for r in range(n_rows):
        hank[r, :] = phi[r : r + p + 1]
        rhs[r] = -phi[r + p + 1]
    cond = np.linalg.cond(hank)
    if not np.isfinite(cond) or cond > HANKEL_COND_MAX:
        raise SingularHankel(f"Hankel condition {cond:.3e}")
    rcoef, *_ = np.linalg.lstsq(hank, rhs, rcond=None)
    roots = np.roots(np.concatenate(([1.0], rcoef[::-1])))
    # drop the unit root introduced by the variogram limit; it must be
    # both close to 1 and clearly closer than any genuine root
    dist = np.abs(roots - 1.0)
    order = np.argsort(dist)
    k_unit = int(order[0])
    separated = dist[order[0]] < 0.5 * dist[order[1]] if roots.size > 1 else True
    if dist[k_unit] > ARTIFACT_ROOT_TOL or not separated:
        raise UnstableRoot(
            f"no recovered root stands in for exp(0) = 1 "
            f"(closest: {roots[k_unit]})"
        )
    roots = np.delete(roots, k_unit)
    if np.any(np.abs(roots) >= 1.0) or np.any(np.abs(roots) <= 1e-300):
        raise UnstableRoot("recovered roots must lie strictly inside the unit circle")
    logs = np.log(roots.astype(complex))
    # principal branch returns Im in (-pi, pi]; fold the closed endpoint
    im = np.where(logs.imag > np.pi - 1e-12, logs.imag - 2 * np.pi, logs.imag)
    lam = (logs.real + 1j * im) / ordinates.delta
    band = np.pi / ordinates.delta
    if np.any(lam.imag < -band - 1e-9) or np.any(lam.imag >= band + 1e-9):
        raise RootOutsideBand("recovered eigenvalue outside the aliasing band")
    return model.canonical_order(_symmetrize_conjugates(lam))


def recover_axis_weights(ordinates, eigenvalues, kappa2):
    """Exponential-sum weights dstar for known eigenvalues.

    Solves the (overdetermined) generation system over all available
    ordinates, with the unit root included; its coefficient is the
    large-lag variogram value, which must come out real.
    """
    values = np.asarray(ordinates.values, dtype=float)
    lam = np.asarray(eigenvalues, dtype=complex)
    roots = np.concatenate(([1.0 + 0j], np.exp(lam * ordinates.delta)))
    j = np.arange(values.size)
    design = roots[None, :] ** j[:, None]
    coeffs, *_ = np.linalg.lstsq(design, values.astype(complex), rcond=None)
    limit = coeffs[0]
    if abs(limit.imag) > 1e-8 * max(1.0, abs(limit.real)):
        raise UnstableRoot("variogram limit came out complex")
    return -coeffs[1:] / (2.0 * kappa2)


def _monomials(q):
    """Index pairs (i, j), i <= j, of the monomials b_i b_j for order q."""
    return [(i, j) for i in range(q + 1) for j in range(i, q + 1)]


def _quadratic_form_rows(eigenvalues_per_axis, kappa2, q):
    """Real system mapping the monomials b_i b_j (i <= j) to the axis weights.

    The axis weights are quadratic forms in b.  Column (i, i) is probed
    with the unit vector e_i, column (i, j) with e_i + e_j less both
    unit probes.  Real and imaginary parts of the d * p complex weights
    are stacked, so the monomials solve a real least-squares problem.
    """
    eigs = tuple(tuple(e) for e in eigenvalues_per_axis)
    p = len(eigs[0])
    if not 0 <= q < p:
        raise ValidationError(f"need 0 <= q < p, got q = {q} for p = {p}")

    def weights(*idx):
        b = np.zeros(p)
        b[list(idx)] = 1.0
        spec = model.CarmaSpec(b=b, eigenvalues=eigs, kappa2=kappa2)
        return np.concatenate([
            [w for _, w in model.axis_variogram_coefficients(spec, axis)]
            for axis in range(spec.d)
        ])

    unit = [weights(i) for i in range(q + 1)]
    rows = np.stack(
        [unit[i] if i == j else weights(i, j) - unit[i] - unit[j]
         for i, j in _monomials(q)],
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

    Eigenvalues per axis from the Hankel step, the axis weights for
    those eigenvalues, then b from ``recover_b``.
    """
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

    ``delta`` is one spacing per axis, or a scalar for all axes.
    Flags: no axis weight may vanish, every eigenvalue's imaginary part
    must lie in its axis's half-open aliasing band [-pi/delta,
    pi/delta), and the monomial system of ``recover_b`` must have full
    column rank (``product_condition``).
    """
    deltas = np.broadcast_to(np.asarray(delta, dtype=float), (spec.d,))
    dstar_ok = []
    band_ok = []
    for axis in range(spec.d):
        band = np.pi / deltas[axis]
        pairs = model.axis_variogram_coefficients(spec, axis)
        dstar_ok.append(all(abs(w) > DSTAR_NONZERO_TOL for _, w in pairs))
        band_ok.append(
            all(-band <= lam.imag < band for lam, _ in pairs)
        )
    rows = _quadratic_form_rows(spec.eigenvalues, spec.kappa2, spec.q)
    product_ok = _rank(rows) == rows.shape[1]
    ok = all(dstar_ok) and all(band_ok) and product_ok
    return IdentifiabilityReport(
        dstar_nonzero=tuple(dstar_ok),
        imag_in_band=tuple(band_ok),
        product_condition=product_ok,
        verdict="identifiable" if ok else "not identifiable",
    )
