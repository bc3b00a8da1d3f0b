"""Independent reference computations used by the test suite.

Everything here deliberately avoids the closed-form integration paths
in the package: quadrature oracles are built on Gauss-Laguerre /
Gauss-Legendre / adaptive 1-D rules over pointwise kernel values,
convolution oracles and the compound-Poisson field are literal loops,
the autocovariance has a state-space form (matrix exponentials and
Lyapunov solves, no eigen-expansion), the empirical variogram is
summed from squared differences lag by lag,
the explicit CARMA(2,1) coefficient tables are transcribed directly,
the kernel's coefficient tensor is built from its spectral projectors
in exact rational arithmetic, and the estimator covariance V is summed lattice offset by lattice
offset over a truncated window (its per-axis gamma pair sums also step
by step, for a bit-for-bit check of the package's array sum).  The
WLS floor that the fit's search should reach comes from polishes
started on a fixed grid, with no global search.
"""

import itertools
import math
import string
from fractions import Fraction

import numpy as np
from scipy import integrate, linalg, optimize

from carmafield import model
from carmafield.errors import NumericError


def random_spec(rng, d=None, p=None, allow_complex=True, q=None, b0_positive=False):
    """Random valid CarmaSpec with well-separated, well-scaled eigenvalues."""
    d = int(d if d is not None else rng.integers(1, 4))
    p = int(p if p is not None else rng.integers(1, 4))
    axes = []
    for _ in range(d):
        while True:
            eigs = []
            n_complex_pairs = 0
            if allow_complex and p >= 2 and rng.random() < 0.4:
                n_complex_pairs = 1
            n_real = p - 2 * n_complex_pairs
            reals = -rng.uniform(0.4, 2.5, size=n_real)
            eigs.extend(complex(v) for v in reals)
            for _ in range(n_complex_pairs):
                re = -rng.uniform(0.4, 2.2)
                im = rng.uniform(0.4, 1.4)
                eigs.extend([complex(re, im), complex(re, -im)])
            gaps = [
                abs(a - b)
                for i, a in enumerate(eigs)
                for b in eigs[i + 1 :]
            ]
            if not gaps or min(gaps) > 0.25:
                break
        axes.append(tuple(eigs))
    if q is None:
        q = int(rng.integers(0, p))
    b = rng.uniform(-2.0, 2.0, size=q + 1)
    b[q] = rng.uniform(0.4, 2.0) * (1 if rng.random() < 0.5 else -1)
    if b0_positive:
        b[0] = abs(b[0]) if b[0] != 0 else 0.7
        if q == 0:
            b[0] = abs(b[q]) if b[q] > 0 else -b[q]
    kappa2 = float(rng.uniform(0.5, 2.0))
    return model.CarmaSpec(b=tuple(b), eigenvalues=tuple(axes), kappa2=kappa2)


def _laguerre_autocov(spec, t, n_nodes):
    """Tensor Gauss-Laguerre estimate of kappa2 * int g(s) g(s+t) ds."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nodes, weights = np.polynomial.laguerre.laggauss(n_nodes)
    axes_a, axes_b, axis_w = [], [], []
    for i in range(spec.d):
        rate = 2.0 * abs(max(e.real for e in spec.eigenvalues[i]))
        lower = max(0.0, -t[i])
        x = lower + nodes / rate
        axes_a.append(x)
        axes_b.append(x + t[i])
        axis_w.append(weights * np.exp(nodes) / rate)
    ga = model.kernel_on_grid(spec, axes_a)
    gb = model.kernel_on_grid(spec, axes_b)
    prod = ga * gb
    for w in axis_w:
        prod = np.tensordot(w, prod, axes=([0], [0]))
    return spec.kappa2 * float(prod)


def autocovariance_quadrature(spec, t, rtol=1e-8):
    """Adaptive quadrature oracle for the autocovariance.

    d = 1 uses scipy's adaptive rule on pointwise kernel values; higher
    dimensions refine a tensor Gauss-Laguerre rule until two successive
    node counts agree to ``rtol``.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if spec.d == 1:
        lower = max(0.0, -float(t[0]))
        span = 40.0 / abs(spec.max_real_part())

        def integrand(s):
            return model.kernel_eval(spec, (s,)) * model.kernel_eval(spec, (s + t[0],))

        val, _ = integrate.quad(
            integrand, lower, lower + span, epsabs=1e-13, epsrel=1e-11, limit=400
        )
        return spec.kappa2 * val
    prev = None
    for n_nodes in (32, 48, 72, 108, 160):
        val = _laguerre_autocov(spec, t, n_nodes)
        if prev is not None and abs(val - prev) <= rtol * max(abs(val), 1e-12):
            return val
        prev = val
    return prev


def _gauss_panels(breaks, order):
    """Gauss-Legendre nodes and weights on a sequence of panels."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def mse_discretization_quadrature(spec, delta, m_steps, order=12):
    """Quadrature oracle for ``simulate.mse_discretization``.

    kappa2 * integral of (g - g_step)^2 by per-cell Gauss-Legendre, with
    one spacing per axis (a scalar serves every axis).

    Inside the kernel box the integrand is smooth per cell; beyond the
    box the step function vanishes and the integrand is g^2, integrated
    on geometrically growing panels out to the decay horizon.
    """
    d = spec.d
    deltas = np.broadcast_to(np.asarray(delta, dtype=float), (d,))
    kernel = model.kernel_on_grid(spec, [dl * np.arange(m_steps + 1) for dl in deltas])
    per_axis_nodes, per_axis_weights, per_axis_cells = [], [], []
    slowest = abs(spec.max_real_part())
    for dl in deltas:
        box_edge = (m_steps + 1) * dl
        horizon = box_edge + 0.5 * math.log(1e18) / slowest
        breaks = list(dl * np.arange(m_steps + 2))
        step = max(dl, 0.25 / slowest)
        edge = box_edge
        while edge < horizon:
            edge = min(edge + step, horizon)
            breaks.append(edge)
            step *= 1.6
        nodes, weights = _gauss_panels(np.asarray(breaks), order)
        per_axis_nodes.append(nodes)
        per_axis_weights.append(weights)
        idx = np.floor(nodes / dl).astype(int)
        idx[nodes >= box_edge] = -1  # outside the kernel box
        per_axis_cells.append(idx)
    gvals = model.kernel_on_grid(spec, per_axis_nodes)
    inside = np.ones(gvals.shape, dtype=bool)
    cell_idx = []
    for i in range(d):
        shape = [1] * d
        shape[i] = -1
        inside &= (per_axis_cells[i] >= 0).reshape(shape)
        cell_idx.append(np.clip(per_axis_cells[i], 0, m_steps))
    gstep = kernel[np.ix_(*cell_idx)]
    diff2 = (gvals - np.where(inside, gstep, 0.0)) ** 2
    for i in range(d):
        diff2 = np.tensordot(per_axis_weights[i], diff2, axes=([0], [0]))
    return spec.kappa2 * float(diff2)


def cp_field_direct(spec, basis, m_radius, n, delta, seed, stream=0):
    """Compound-Poisson lattice field summed jump by jump, with no cutoff.

    Redraws the jumps of ``simulate.simulate_compound_poisson`` and adds
    w * g(x - s) for every jump at every lattice point x, with g from
    ``model.kernel_eval`` (companion-matrix exponentials, independent of
    the eigen-expansion the simulator uses).
    """
    from carmafield import simulate

    n = (n,) * spec.d if np.ndim(n) == 0 else tuple(n)
    delta = (delta,) * spec.d if np.ndim(delta) == 0 else tuple(delta)
    sites, heights = simulate._draw_jumps(
        basis, m_radius, spec.d, simulate.substream(seed, stream)
    )
    out = np.zeros(n)
    for idx in np.ndindex(*n):
        x = np.asarray([(k + 1) * dl for k, dl in zip(idx, delta)])
        out[idx] = sum(
            w * model.kernel_eval(spec, x - s) for s, w in zip(sites, heights)
        )
    return out


def cp_points_direct(spec, basis, m_radius, points, seed, stream=0):
    """Compound-Poisson field at arbitrary points, summed jump by jump.

    The same draw as ``cp_field_direct``, w * g(x - s) with g from
    ``model.kernel_eval`` (companion-matrix exponentials, independent of
    the eigen-expansion), at each row x of ``points``.
    """
    from carmafield import simulate

    sites, heights = simulate._draw_jumps(
        basis, m_radius, spec.d, simulate.substream(seed, stream)
    )
    return np.asarray([
        sum(w * model.kernel_eval(spec, x - s) for s, w in zip(sites, heights))
        for x in np.asarray(points, dtype=float)
    ])


def _companion(eigs):
    """Companion matrix of prod (z - lam): last row -a_p, ..., -a_1."""
    coeffs = np.real(np.poly(np.asarray(eigs, dtype=complex)))
    p = coeffs.size - 1
    mat = np.eye(p, k=1)
    mat[-1] = -coeffs[:0:-1]
    return mat


def autocovariance_state_space(spec, t):
    """gamma(t) from the state-space form of the kernel, no eigenvalues.

    With g(s) = b' E_1(s_1) ... E_d(s_d) e_p, E_i(s) = expm(A_i s) for
    the companion matrix A_i of axis i, integrating one axis at a time
    gives gamma(t) = kappa2 b' op_1(... op_d(e_p e_p') ...) b, where
    L_i(X) solves A_i Z + Z A_i' = -X and op_i(Y) = L_i(Y E_i(t_i)')
    for t_i >= 0, E_i(|t_i|) L_i(Y) for t_i < 0 (Van Loan 1978).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    p = spec.p
    y = np.zeros((p, p))
    y[-1, -1] = 1.0
    for axis, ti in reversed(list(zip(spec.eigenvalues, t))):
        a = _companion(axis)
        e = linalg.expm(a * abs(ti))
        if ti >= 0:
            y = linalg.solve_continuous_lyapunov(a, -(y @ e.T))
        else:
            y = e @ linalg.solve_continuous_lyapunov(a, -y)
    b = np.zeros(p)
    b[: len(spec.b)] = spec.b
    return spec.kappa2 * float(b @ y @ b)


def _inverse_exact(mat):
    """Inverse of a square matrix of fractions by Gauss-Jordan elimination."""
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * c for a, c in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def kernel_coefficients_exact(spec):
    """Kernel coefficients of a real spectrum, in exact rational arithmetic.

    The spectral projector onto the k-th eigenvalue of axis i is
    P_i^{(k)} = V_i E_k V_i^{-1}, with V_i[j, k] = lam_{i,k}^j inverted
    by Gauss-Jordan elimination over fractions of the float inputs.
    Entry K of the (p,)*d float array is b' P_1^{(K_1)} ... P_d^{(K_d)} e_p,
    rounded once.
    """
    if any(e.imag != 0.0 for axis in spec.eigenvalues for e in axis):
        raise ValueError("the exact reference takes real spectra only")
    p = spec.p
    projectors = []
    for axis in spec.eigenvalues:
        lam = [Fraction(e.real) for e in axis]
        vmat = [[v ** j for v in lam] for j in range(p)]
        vinv = _inverse_exact(vmat)
        projectors.append([[[vmat[r][k] * vinv[k][c] for c in range(p)]
                            for r in range(p)] for k in range(p)])
    out = np.empty((p,) * spec.d)
    for index in np.ndindex(*out.shape):
        row = [Fraction(v) for v in spec.b]
        for axis_projectors, k in zip(projectors, index):
            proj = axis_projectors[k]
            row = [sum(row[r] * proj[r][c] for r in range(p)) for c in range(p)]
        out[index] = float(row[-1])
    return out


def kernel_series_car1(lam, s, terms=60):
    """exp(lam * s) via its power series (independent of libm exp)."""
    total, term = 0.0, 1.0
    for k in range(1, terms + 1):
        total += term
        term *= lam * s / k
    return total


def direct_convolution(kernel, noise, n_out):
    """Literal nested-loop evaluation of the truncated moving average.

    out[t - 1] = sum_j kernel[j] * noise[t - 1 + M - j]  (per axis),
    matching the lattice layout of the FFT path.
    """
    kshape = kernel.shape
    out = np.zeros(n_out)
    m = kshape[0] - 1
    for t_idx in np.ndindex(*n_out):
        acc = 0.0
        for j_idx in np.ndindex(*kshape):
            z_idx = tuple(t + m - j for t, j in zip(t_idx, j_idx))
            acc += kernel[j_idx] * noise[z_idx]
        out[t_idx] = acc
    return out


def td_field_kernel_grid(spec, basis, m_steps, n, delta, seed, stream=0):
    """Truncated-discretized field through the sampled kernel grid.

    Redraws the noise of ``simulate.simulate_truncated_discretized`` and
    convolves it with ``model.kernel_on_grid`` on {0, ..., M}^d spacings:
    both arrays' zero-padded ``rfftn``, one full ``irfftn``, then the
    window [M, M + n_i) on every axis.  No separable spectrum and no cut
    inverse transform enter.
    """
    from scipy import fft as sfft

    from carmafield import simulate

    n = (n,) * spec.d if np.ndim(n) == 0 else tuple(n)
    delta = (delta,) * spec.d if np.ndim(delta) == 0 else tuple(delta)
    kernel = model.kernel_on_grid(spec, [dl * np.arange(m_steps + 1) for dl in delta])
    noise = simulate.sample_increments(
        basis, math.prod(delta), tuple(ni + m_steps for ni in n),
        simulate.substream(seed, stream),
    )
    fshape = [sfft.next_fast_len(ni + m_steps) for ni in n]
    conv = sfft.irfftn(sfft.rfftn(kernel, fshape) * sfft.rfftn(noise, fshape), fshape)
    return conv[tuple(slice(m_steps, m_steps + ni) for ni in n)]


# -- explicit CARMA(2,1) second-order formulas (d = 2, real eigenvalues) -----

def carma21_variogram_reference(b0, b1, l11, l12, l21, l22, t1, t2, kappa2=1.0):
    """Full variogram from the explicit orthant coefficient table."""

    def d_same(lk, lko, ll, llo):
        num = (lko - ll) * (b0 + b1 * lk) * (
            b0 * (2 * lk + lko + ll) + b1 * lk * (lko - ll)
        )
        den = 4 * lk * ll * (lk - lko) * (lk + lko) * (ll - llo) * (ll + llo)
        return num / den

    def d_mixed(lk, lko, ll, llo):
        num = (lko + ll) * (b0 + b1 * lk) * (
            b0 * (2 * lk + lko - ll) + b1 * lk * (lko + ll)
        )
        den = 4 * lk * ll * (lk - lko) * (lk + lko) * (ll - llo) * (ll + llo)
        return num / den

    pick = d_same if t1 * t2 >= 0 else d_mixed
    total = 0.0
    for lk, lko in ((l11, l12), (l12, l11)):
        for ll, llo in ((l21, l22), (l22, l21)):
            total += pick(lk, lko, ll, llo) * (
                1.0 - np.exp(lk * abs(t1)) * np.exp(ll * abs(t2))
            )
    return 2.0 * kappa2 * total


def carma21_axis_reference(b0, b1, l11, l12, l21, l22, kappa2=1.0):
    """Axis exponential-sum weights: ((d1(l11), d1(l12)), (d2(l21), d2(l22)))."""
    d1_l11 = (
        (b0 + b1 * l11)
        * (b0 * (2 * l11 * l12 + l12 ** 2 + l21 * l22) + b1 * l11 * (l12 ** 2 - l21 * l22))
        / (4 * l11 * l21 * l22 * (l12 - l11) * (l11 + l12) * (l21 + l22))
    )
    d1_l12 = (
        (b0 + b1 * l12)
        * (b0 * (l11 ** 2 + 2 * l11 * l12 + l21 * l22) + b1 * l12 * (l11 ** 2 - l21 * l22))
        / (4 * l12 * l21 * l22 * (l11 - l12) * (l11 + l12) * (l21 + l22))
    )
    d2_l21 = (
        b0 ** 2 * (l11 ** 2 + 3 * l11 * l12 + l12 ** 2 - l21 ** 2)
        + 2 * b0 * b1 * l11 * l12 * (l11 + l12)
        + b1 ** 2 * l11 * l12 * (l11 * l12 - l21 ** 2)
    ) / (4 * l11 * l12 * l21 * (l11 + l12) * (l22 - l21) * (l21 + l22))
    d2_l22 = (
        b0 ** 2 * (l11 ** 2 + 3 * l11 * l12 + l12 ** 2 - l22 ** 2)
        + 2 * b0 * b1 * l11 * l12 * (l11 + l12)
        + b1 ** 2 * l11 * l12 * (l11 * l12 - l22 ** 2)
    ) / (4 * l11 * l12 * l22 * (l11 + l12) * (l21 - l22) * (l21 + l22))
    return (d1_l11, d1_l12), (d2_l21, d2_l22)


def empirical_variogram_direct(field, lags, dtype=float):
    """Matheron variogram summed lag by lag from squared differences.

    Each ordinate is the mean of (Y(s+t) - Y(s))^2 over the two
    overlapping slices of the field, with no box sums and no cross
    product; the check on ``estimate.empirical_variogram``.  The
    differences and their mean are taken in ``dtype`` (``np.longdouble``
    for an extended-precision reference).
    """
    from carmafield import estimate
    from carmafield.errors import LagOutOfRange

    values = field.values.astype(dtype)
    steps = estimate._lag_steps(field.delta, lags)
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
    return estimate.EmpiricalVariogram(
        lags=lags,
        ordinates=ordinates,
        pair_counts=counts,
        delta=field.delta,
    )


def synthetic_variogram(spec, delta, j_max, n=500):
    """EmpiricalVariogram carrying exact theoretical ordinates."""
    from carmafield import estimate

    lags = estimate.axis_lag_set(spec.d, delta, j_max)
    ordinates = np.concatenate(
        [
            model.axis_variogram(spec, axis, delta * np.arange(1, j_max + 1))
            for axis in range(spec.d)
        ]
    )
    counts = np.asarray(
        [int(np.prod([n - abs(v) / delta for v in row])) for row in lags]
    )
    return estimate.EmpiricalVariogram(
        lags=lags,
        ordinates=ordinates,
        pair_counts=counts,
        delta=(delta,) * spec.d,
    )


# the multistart oracle's grid of starts: b0, each of b1..b_q, and per
# eigenvalue pattern the ends of ``np.linspace(first, last, p)``, the
# same pattern on every axis
MULTISTART_B0 = (2.0, 5.0, 8.0)
MULTISTART_B = (-4.0, -1.0, 2.0)
MULTISTART_EIGENVALUES = ((-1.0, -3.0), (-0.5, -5.0))


def wls_multistart(emp, weights, p, q):
    """Lowest WSS that trust-region polishes reach from a fixed grid of starts.

    Each start of the grid (``MULTISTART_*``: 3^(q+1) b vectors times 2
    eigenvalue patterns, real blocks) is polished as ``estimate.fit``
    polishes its search's best: scipy's ``least_squares(method="trf")``
    on sqrt(w) (psi_hat - psi(theta)) in the fit's box, with the
    package's batched ordinates and finite-difference Jacobian.  No
    differential evolution and no profiled scale enters, so the minimum
    is a floor that the fit's search should reach.  A start whose
    Jacobian cannot be taken is skipped.  Returns (wss, theta) of the
    lowest polish.
    """
    from carmafield import estimate

    codec = estimate.ThetaCodec(p=p, q=q, d=emp.lags.shape[1])
    ordinates = estimate._Ordinates(codec, emp.lags, emp.delta, emp.axes)
    box = np.transpose(codec.default_bounds())
    root_w = np.sqrt(weights)
    best = (math.inf, None)
    for b0, *b, (first, last) in itertools.product(
            MULTISTART_B0, *[MULTISTART_B] * q, MULTISTART_EIGENVALUES):
        start = np.concatenate([[b0], b, np.tile(np.linspace(first, last, p), codec.d)])
        try:
            polish = optimize.least_squares(
                lambda theta: root_w * (emp.ordinates - ordinates(theta[None])[0][0]),
                start,
                jac=lambda theta: -root_w[:, None] * estimate._variogram_jacobian(
                    ordinates, theta, box),
                bounds=box,
                method="trf",
            )
        except NumericError:
            continue
        if 2.0 * polish.cost < best[0]:
            best = (2.0 * float(polish.cost), polish.x)
    return best


def random_carma21_real(rng):
    """Random real-eigenvalue CARMA(2,1) spec on R^2."""
    while True:
        l11, l12 = -rng.uniform(0.4, 2.5, size=2)
        l21, l22 = -rng.uniform(0.4, 2.5, size=2)
        if abs(l11 - l12) > 0.25 and abs(l21 - l22) > 0.25:
            break
    b0 = rng.uniform(0.3, 3.0)
    b1 = rng.uniform(-2.0, 2.0)
    if abs(b1) < 0.2:
        b1 = 0.5
    kappa2 = float(rng.uniform(0.5, 2.0))
    return model.CarmaSpec(
        b=(b0, b1),
        eigenvalues=((l11, l12), (l21, l22)),
        kappa2=kappa2,
    )


# lattice sums of the brute-force V stop where the autocovariance
# factors fall below this fraction of the variance
LATTICE_CUTOFF_TOL = 1e-12


def _quartic_axis_sums(spec, ti, tj, ell_values):
    """Per-axis tensors sum_l f(mu_1..mu_4; 0, t_i, l, l + t_j)."""
    tensors = []
    for axis in range(spec.d):
        lam = np.asarray(spec.eigenvalues[axis], dtype=complex)
        p = lam.size
        m1 = lam.reshape(p, 1, 1, 1)
        m2 = lam.reshape(1, p, 1, 1)
        m3 = lam.reshape(1, 1, p, 1)
        m4 = lam.reshape(1, 1, 1, p)
        a2 = float(ti[axis])
        total = np.zeros((p, p, p, p), dtype=complex)
        for ell in ell_values[axis]:
            a3 = float(ell)
            a4 = float(ell + tj[axis])
            low = max(0.0, -a2, -a3, -a4)
            s = m1 + m2 + m3 + m4
            total += np.exp(m2 * a2 + m3 * a3 + m4 * a4 + s * low) / (-s)
        tensors.append(total)
    return tensors


def _four_copy_sum(coeff, tensors):
    """sum over K1..K4 of C[K1] C[K2] C[K3] C[K4] prod_i T_i[K1_i, .., K4_i].

    One einsum over all indices at once, without a contraction order,
    so that the package's pairwise contraction has a reference.
    """
    d = coeff.ndim
    labels = string.ascii_uppercase
    copies = [labels[c * d:(c + 1) * d] for c in range(4)]
    axes = [labels[i:4 * d:d] for i in range(d)]
    return np.einsum(",".join(copies + axes) + "->", *[coeff] * 4, *tensors)


def gamma_pair_sums_stepwise(m, dl, shifts):
    """``estimate._gamma_pair_sums`` with its middle terms added step by step.

    The two geometric tails are the package's; the |n| middle terms of
    each shift are added one step at a time, in step order, the
    reference for the package's single cumulative sum over a step axis.
    """
    m1, m2, m3, m4 = m
    pos, neg = np.maximum(shifts, 0), np.maximum(-shifts, 0)

    def terms(k):
        j = k + shifts
        first = np.where(k >= 0, m2 * k, -m1 * k)
        return np.exp(dl * (first + np.where(j >= 0, m4 * j, -m3 * j)))

    up = terms(neg) / -np.expm1(dl * (m2 + m4))
    down = terms(-pos - 1) / -np.expm1(dl * (m1 + m3))
    mid = 0.0
    for step in range(np.max(np.abs(shifts), initial=0)):
        k = step - pos
        mid = mid + np.where(k < neg, terms(k), 0.0)
    return (up + down + mid) / ((m1 + m2) * (m3 + m4))


def covariance_v_direct(spec, tlist, basis, lattice_delta):
    """Brute-force V of the autocovariance estimator on a truncated lattice.

    The two autocovariance products are summed from a gamma grid wide
    enough for every shift, the quartic term offset by offset; both
    stop at the radius where the autocovariance factors drop below
    ``LATTICE_CUTOFF_TOL`` relative to the field variance.
    """
    tlist = np.atleast_2d(np.asarray(tlist, dtype=float))
    k = tlist.shape[0] - 1
    d = spec.d
    delta = (lattice_delta,) * d if np.isscalar(lattice_delta) else tuple(lattice_delta)
    decay = abs(spec.max_real_part())
    max_lag = float(np.max(np.abs(tlist))) if tlist.size else 0.0
    radius = max_lag + math.log(1.0 / LATTICE_CUTOFF_TOL) / decay
    steps = [int(math.ceil(radius / dl)) for dl in delta]
    axes_sum = [dl * np.arange(-s, s + 1) for dl, s in zip(delta, steps)]
    # gamma on a grid wide enough for every shifted factor: a shift
    # t_i - t_j reaches twice the largest |t| when the signs differ
    max_shift = [
        2 * int(round(np.max(np.abs(tlist[:, i])) / delta[i])) for i in range(d)
    ]
    axes_big = [
        dl * np.arange(-(s + ms), s + ms + 1)
        for dl, s, ms in zip(delta, steps, max_shift)
    ]
    gamma_big = model.autocovariance_grid(spec, axes_big)

    def gamma_view(shift_steps):
        slices = tuple(
            slice(s + ms + sh - s, s + ms + sh + s + 1)
            for s, ms, sh in zip(steps, max_shift, shift_steps)
        )
        return gamma_big[slices]

    def steps_of(vec):
        return [int(round(vec[i] / delta[i])) for i in range(d)]

    excess = basis.kappa4 - 3.0 * basis.kappa2 ** 2
    if abs(excess) > 1e-12 * max(1.0, basis.kappa2 ** 2):
        # the quartic integral uses the bare kernel (no kappa2 factor)
        coeff = model._expansion(spec)[0]
    vmat = np.empty((k + 1, k + 1))
    gamma0_view = gamma_view([0] * d)
    for i in range(k + 1):
        for j in range(i, k + 1):
            ti, tj = tlist[i], tlist[j]
            sij = steps_of(ti - tj)
            si = steps_of(ti)
            sj = steps_of(-tj)
            total = float(
                np.sum(gamma0_view * gamma_view(sij))
                + np.sum(gamma_view(si) * gamma_view(sj))
            )
            if abs(excess) > 1e-12 * max(1.0, basis.kappa2 ** 2):
                tensors = _quartic_axis_sums(spec, ti, tj, axes_sum)
                quartic = _four_copy_sum(coeff, tensors)
                total += excess * float(np.real(quartic))
            vmat[i, j] = vmat[j, i] = total
    return vmat
