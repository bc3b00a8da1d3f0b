"""Constructive parameter recovery from exact axis variogram ordinates.

On each principal axis the variogram is a finite exponential sum, so
the sampled ordinates psi(j * delta * e_i) satisfy a linear recurrence
whose characteristic roots are exp(lambda * delta).  Solving the
associated Hankel system (a Prony-type step, with an artificial root at
1 carrying the variogram's limit value) recovers the eigenvalues of the
companion matrices; the moving-average vector then follows from the
exponential-sum weights, which are quadratic forms in b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import (
    ConditionViolated,
    InconsistentMonomials,
    InvalidSpec,
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
    "recover_b_car",
    "recover_b_carma21",
    "recover_b_carma31",
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
PRODUCT_CONDITION_RTOL = 1e-10
MONOMIAL_RTOL = 1e-8
SYSTEM_RESIDUAL_RTOL = 1e-6


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
    """Outcome of the closed-form identifiability checks.

    ``product_condition`` is None when the order menu does not require
    it.  The verdict is one of "identifiable", "not identifiable",
    "unknown-order".
    """

    dstar_nonzero: tuple
    imag_in_band: tuple
    product_condition: bool | None
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
    ordinates, with the unit root included.  Returns ``(dstar, limit)``
    where ``limit`` is the recovered large-lag variogram value (twice
    the field variance).
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
    dstar = -coeffs[1:] / (2.0 * kappa2)
    return dstar, limit.real


def recover_b_car(ordinates_per_axis, eigenvalues_per_axis, kappa2):
    """Recover b_0 of a CAR(p) field from axis ordinates.

    The variogram limit equals twice the field variance, and the
    variance scales with b_0^2, so b_0 is the square root of the ratio
    against the unit-b_0 model (sign fixed by the b_0 >= 0 convention).
    """
    limits = []
    for ords, eigs in zip(ordinates_per_axis, eigenvalues_per_axis):
        _, limit = recover_axis_weights(ords, eigs, kappa2)
        limits.append(limit)
    gamma0 = 0.5 * float(np.mean(limits))
    p = len(eigenvalues_per_axis[0])
    unit = model.CarmaSpec(
        b=(1.0,) + (0.0,) * (p - 1),
        eigenvalues=tuple(tuple(e) for e in eigenvalues_per_axis),
        kappa2=kappa2,
    )
    gamma0_unit = model.autocovariance(unit, np.zeros(unit.d))
    ratio = gamma0 / gamma0_unit
    if not ratio > 0:
        raise NegativeVarianceEstimate(
            f"variance ratio {ratio:.3e} is not positive"
        )
    return float(np.sqrt(ratio))


def _quadratic_form_rows(eigenvalues_per_axis, kappa2):
    """Rows (alpha, beta, delta) with dstar = alpha b0^2 + beta b0 b1 + delta b1^2.

    The axis weights are quadratic forms in b; their coefficients are
    probed with the unit vectors (1,0), (0,1) and their sum.
    """
    eigs = tuple(tuple(e) for e in eigenvalues_per_axis)
    p = len(eigs[0])
    pad = (0.0,) * (p - 2)

    def weights(bvec):
        spec = model.CarmaSpec(b=bvec + pad, eigenvalues=eigs, kappa2=kappa2)
        per_axis = []
        for axis in range(spec.d):
            per_axis.append(
                np.asarray(
                    [w for _, w in model.axis_variogram_coefficients(spec, axis)]
                )
            )
        return np.concatenate(per_axis)

    alpha = weights((1.0, 0.0))
    delta = weights((0.0, 1.0))
    beta = weights((1.0, 1.0)) - alpha - delta
    return np.stack([alpha, beta, delta], axis=1)


def _extract_b_from_monomials(u, scale, rtol=MONOMIAL_RTOL):
    """Map (b0^2, b0 b1, b1^2) back to (b0, b1) with consistency checks."""
    u1, u2, u3 = (float(np.real(v)) for v in u)
    tol = rtol * max(abs(u1), abs(u3), scale)
    if u1 < -tol:
        raise InconsistentMonomials(f"recovered b0^2 = {u1:.3e} is negative")
    if u1 <= tol:
        # b0 = 0: sign of b1 is not pinned by the variogram; report +root
        if u3 < -tol:
            raise InconsistentMonomials(f"recovered b1^2 = {u3:.3e} is negative")
        return 0.0, float(np.sqrt(max(u3, 0.0)))
    b0 = float(np.sqrt(u1))
    b1 = u2 / b0
    if abs(u3 - b1 * b1) > rtol * max(abs(u3), b1 * b1, scale):
        raise InconsistentMonomials(
            f"b1^2 = {u3:.3e} inconsistent with (b0 b1 / b0)^2 = {b1 * b1:.3e}"
        )
    return b0, b1


def recover_b_carma21(dstar_per_axis, eigenvalues_per_axis, kappa2,
                      rtol=MONOMIAL_RTOL):
    """Recover (b_0, b_1) of a CARMA(2,1) field on R^2 from axis weights.

    The four axis weights are quadratic forms in b, linear in the
    monomials (b0^2, b0 b1, b1^2); the 4 x 3 system is solved as least
    squares (using all four equations symmetrically) and the monomials
    are unwound.  Needs the eigenvalue product condition
    lambda_11 lambda_12 != lambda_21 lambda_22, which is necessary as
    well as sufficient here.
    """
    eigs = [list(map(complex, e)) for e in eigenvalues_per_axis]
    if len(eigs) != 2 or any(len(e) != 2 for e in eigs):
        raise ValidationError("CARMA(2,1) recovery needs two axes with p = 2")
    prod1 = eigs[0][0] * eigs[0][1]
    prod2 = eigs[1][0] * eigs[1][1]
    if abs(prod1 - prod2) <= PRODUCT_CONDITION_RTOL * max(abs(prod1), abs(prod2)):
        raise ConditionViolated(
            f"eigenvalue products coincide ({prod1:.6g} vs {prod2:.6g}); "
            "the moving-average vector is not identifiable from axis ordinates"
        )
    rows = _quadratic_form_rows(eigs, kappa2)
    rhs = np.concatenate([np.asarray(d, dtype=complex) for d in dstar_per_axis])
    u, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    resid = float(np.linalg.norm(rows @ u - rhs))
    scale = float(np.linalg.norm(rhs))
    if resid > max(SYSTEM_RESIDUAL_RTOL, rtol) * max(scale, 1e-30):
        raise InconsistentMonomials(
            f"axis weights are not consistent with any b (residual {resid:.3e})"
        )
    return _extract_b_from_monomials(u, float(np.max(np.abs(u))), rtol=rtol)


def recover_b_carma31(dstar_per_axis, eigenvalues_per_axis, kappa2,
                      rtol=MONOMIAL_RTOL):
    """Recover (b_0, b_1) of a CARMA(3,1) field on R^2 from axis weights.

    Same monomial construction as the CARMA(2,1) case but with six
    equations; the 6 x 3 system always has full column rank under the
    model hypotheses, so no product condition is needed.
    """
    eigs = [list(map(complex, e)) for e in eigenvalues_per_axis]
    if len(eigs) != 2 or any(len(e) != 3 for e in eigs):
        raise ValidationError("CARMA(3,1) recovery needs two axes with p = 3")
    rows = _quadratic_form_rows(eigs, kappa2)
    rank = np.linalg.matrix_rank(rows, tol=1e-10 * float(np.max(np.abs(rows))))
    if rank < 3:
        raise RankDeficient(f"monomial system has rank {rank} < 3")
    rhs = np.concatenate([np.asarray(d, dtype=complex) for d in dstar_per_axis])
    u, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    resid = float(np.linalg.norm(rows @ u - rhs))
    scale = float(np.linalg.norm(rhs))
    if resid > max(SYSTEM_RESIDUAL_RTOL, rtol) * max(scale, 1e-30):
        raise InconsistentMonomials(
            f"axis weights are not consistent with any b (residual {resid:.3e})"
        )
    return _extract_b_from_monomials(u, float(np.max(np.abs(u))), rtol=rtol)


def recover_spec(ordinates_per_axis, p, q, kappa2):
    """Full pipeline: axis ordinates -> CarmaSpec for the supported menu.

    Supported orders: CAR(p) in any dimension, CARMA(2,1) and
    CARMA(3,1) on R^2.
    """
    d = len(ordinates_per_axis)
    eigs = tuple(
        recover_axis_eigenvalues(ords, p) for ords in ordinates_per_axis
    )
    if q == 0:
        b0 = recover_b_car(ordinates_per_axis, eigs, kappa2)
        b = (b0,)
    elif (p, q) == (2, 1) and d == 2:
        dstar = [
            recover_axis_weights(ords, ax_eigs, kappa2)[0]
            for ords, ax_eigs in zip(ordinates_per_axis, eigs)
        ]
        b = recover_b_carma21(dstar, eigs, kappa2, rtol=1e-5)
    elif (p, q) == (3, 1) and d == 2:
        dstar = [
            recover_axis_weights(ords, ax_eigs, kappa2)[0]
            for ords, ax_eigs in zip(ordinates_per_axis, eigs)
        ]
        b = recover_b_carma31(dstar, eigs, kappa2, rtol=1e-5)
    else:
        raise ValidationError(
            f"no closed-form recovery for (p, q) = ({p}, {q}) in d = {d}"
        )
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
    """Evaluate the closed-form identifiability conditions at spacing delta.

    Flags: no axis weight may vanish, every eigenvalue's imaginary part
    must lie in the half-open aliasing band [-pi/delta, pi/delta), and
    for CARMA(2,1) on R^2 the two eigenvalue products must differ.  For
    orders outside the supported menu the verdict is "unknown-order"
    with the generic flags still reported.
    """
    band = np.pi / delta
    dstar_ok = []
    band_ok = []
    for axis in range(spec.d):
        pairs = model.axis_variogram_coefficients(spec, axis)
        dstar_ok.append(all(abs(w) > DSTAR_NONZERO_TOL for _, w in pairs))
        band_ok.append(
            all(-band <= lam.imag < band for lam, _ in pairs)
        )
    product_ok = None
    p, q, d = spec.p, spec.q, spec.d
    if (p, q) == (2, 1) and d == 2:
        prod1 = spec.eigenvalues[0][0] * spec.eigenvalues[0][1]
        prod2 = spec.eigenvalues[1][0] * spec.eigenvalues[1][1]
        product_ok = bool(
            abs(prod1 - prod2)
            > PRODUCT_CONDITION_RTOL * max(abs(prod1), abs(prod2))
        )
    supported = q == 0 or ((p, q) == (2, 1) and d == 2) or ((p, q) == (3, 1) and d == 2)
    if not supported:
        verdict = "unknown-order"
    else:
        ok = all(dstar_ok) and all(band_ok) and product_ok is not False
        verdict = "identifiable" if ok else "not identifiable"
    return IdentifiabilityReport(
        dstar_nonzero=tuple(dstar_ok),
        imag_in_band=tuple(band_ok),
        product_condition=product_ok,
        verdict=verdict,
    )
