"""Independent reference computations used by the test suite.

Everything here deliberately avoids the closed-form integration paths
in the package: quadrature oracles are built on Gauss-Laguerre /
adaptive 1-D rules over pointwise kernel values, convolution oracles
are literal nested loops, the explicit CARMA(2,1) coefficient
tables are transcribed directly, and the estimator covariance V is
summed lattice offset by lattice offset over a truncated window.
"""

import math

import numpy as np
from scipy import integrate

from carmafield import model


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
        n=(n,) * spec.d,
    )


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
        coeff = model._coeff_tensor(spec)
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
                quartic = model._contract(coeff, tensors, copies=4)
                total += excess * float(np.real(quartic))
            vmat[i, j] = vmat[j, i] = total
    return vmat
