"""Lattice simulation of CARMA random fields and the associated errors.

Two schemes are provided.  For compound Poisson noise the field is a
finite sum over jumps of the driving basis inside a truncation box
[-M, M]^d, which can be sampled exactly.  For general noise the moving
average integral is truncated and discretized, turning the field into a
finite-order moving average of i.i.d. cell increments, evaluated as a
d-dimensional FFT convolution of the kernel array with the noise array.
Both approximation errors have closed forms which are exposed here.

Randomness comes from numpy's counter-based Philox generator; every
public sampler takes a ``seed`` plus a ``stream`` index and derives a
substream via ``SeedSequence(seed, spawn_key=(stream,))``, so outputs
are reproducible no matter how replications are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from . import model
from .errors import (
    GridOutsideTruncation,
    KernelArrayOverflow,
    NonFiniteValue,
    ValidationError,
)

__all__ = [
    "GaussianBasis",
    "CompoundPoissonBasis",
    "VarianceGammaBasis",
    "NormalJumps",
    "RademacherJumps",
    "UniformJumps",
    "LatticeField",
    "substream",
    "sample_increments",
    "simulate_compound_poisson",
    "simulate_compound_poisson_at",
    "simulate_truncated_discretized",
    "mse_truncation_cp",
    "mse_discretization",
]

# Kernel values below this relative size are treated as zero when
# bucketing compound-Poisson jumps by decay radius.
JUMP_CUTOFF = 1e-14
# cells of the truncated-discretized kernel array; the noise array may
# hold four times as many
MAX_KERNEL_CELLS = 1 << 26


def substream(seed, stream=0):
    """Philox generator for one reproducible substream of a master seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


# -- jump laws for compound Poisson bases ------------------------------------

@dataclass(frozen=True)
class NormalJumps:
    mean: float = 0.0
    std: float = 1.0

    @property
    def first_moment(self):
        return self.mean

    @property
    def second_moment(self):
        return self.mean ** 2 + self.std ** 2

    @property
    def fourth_moment(self):
        m, s = self.mean, self.std
        return m ** 4 + 6 * m ** 2 * s ** 2 + 3 * s ** 4

    def sample(self, rng, n):
        return rng.normal(self.mean, self.std, size=n)


@dataclass(frozen=True)
class RademacherJumps:
    """Fair +/-1 jumps."""

    first_moment = 0.0
    second_moment = 1.0
    fourth_moment = 1.0

    def sample(self, rng, n):
        return rng.integers(0, 2, size=n) * 2.0 - 1.0


@dataclass(frozen=True)
class UniformJumps:
    low: float = -1.0
    high: float = 1.0

    @property
    def first_moment(self):
        return 0.5 * (self.low + self.high)

    @property
    def second_moment(self):
        a, b = self.low, self.high
        return (a * a + a * b + b * b) / 3.0

    @property
    def fourth_moment(self):
        a, b = self.low, self.high
        return (b ** 5 - a ** 5) / (5.0 * (b - a))

    def sample(self, rng, n):
        return rng.uniform(self.low, self.high, size=n)


# -- driving bases ------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBasis:
    """Gaussian noise with variance ``sigma2`` per unit volume."""

    sigma2: float = 1.0

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValidationError("sigma2 must be positive")

    @property
    def kappa2(self):
        return self.sigma2

    @property
    def kappa4(self):
        # fourth moment of a unit-volume increment; the excess
        # kappa4 - 3 kappa2^2 vanishes for Gaussian noise
        return 3.0 * self.sigma2 ** 2

    def sample_increments(self, cell_volume, shape, rng):
        return rng.normal(0.0, math.sqrt(cell_volume * self.sigma2), size=shape)


@dataclass(frozen=True)
class CompoundPoissonBasis:
    """Compound Poisson noise: ``intensity`` jumps per unit volume, law F.

    The jump law must have mean zero so the basis is centered, which
    the second-order theory assumes throughout.
    """

    intensity: float
    jumps: object = field(default_factory=RademacherJumps)

    def __post_init__(self):
        if not self.intensity > 0:
            raise ValidationError("intensity must be positive")
        if abs(self.jumps.first_moment) > 1e-12:
            raise ValidationError("jump law must have mean zero")

    @property
    def kappa2(self):
        return self.intensity * self.jumps.second_moment

    @property
    def kappa4(self):
        return self.intensity * self.jumps.fourth_moment + 3.0 * self.kappa2 ** 2

    def sample_increments(self, cell_volume, shape, rng):
        lam = self.intensity * cell_volume
        counts = rng.poisson(lam, size=shape)
        total = int(counts.sum())
        out = np.zeros(int(np.prod(shape)))
        if total:
            draws = self.jumps.sample(rng, total)
            owner = np.repeat(np.arange(out.size), counts.ravel())
            out = np.bincount(owner, weights=draws, minlength=out.size)
        out -= lam * self.jumps.first_moment
        return out.reshape(shape)


@dataclass(frozen=True)
class VarianceGammaBasis:
    """Symmetric variance-gamma noise, mean zero, ``variance`` per unit volume.

    Parameterized as Brownian motion subordinated by a gamma process
    whose variance rate is ``shape``; the excess kurtosis of a
    unit-volume increment is 3 * shape.
    """

    variance: float = 1.0
    shape: float = 1.0

    def __post_init__(self):
        if not self.variance > 0 or not self.shape > 0:
            raise ValidationError("variance and shape must be positive")

    @property
    def kappa2(self):
        return self.variance

    @property
    def kappa4(self):
        return 3.0 * self.variance ** 2 * (1.0 + self.shape)

    def sample_increments(self, cell_volume, shape, rng):
        subord = rng.gamma(cell_volume / self.shape, self.shape, size=shape)
        return rng.normal(0.0, 1.0, size=shape) * np.sqrt(self.variance * subord)


def sample_increments(basis, cell_volume, shape, rng):
    """i.i.d. cell increments with characteristics scaled by the volume."""
    if not cell_volume > 0:
        raise ValidationError("cell_volume must be positive")
    return basis.sample_increments(cell_volume, shape, rng)


# -- lattice container ---------------------------------------------------------

@dataclass
class LatticeField:
    """Field values on the lattice {delta, ..., n*delta}^d (row-major).

    ``values[k1 - 1, ..., kd - 1]`` is the value at (k1 d1, ..., kd dd).
    """

    delta: tuple
    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        delta = self.delta
        if np.isscalar(delta):
            delta = (float(delta),) * self.values.ndim
        self.delta = tuple(float(v) for v in delta)
        if len(self.delta) != self.values.ndim:
            raise ValidationError("one spacing per axis required")
        if any(v <= 0 for v in self.delta):
            raise ValidationError("spacings must be positive")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteValue("field contains non-finite values")

    @property
    def d(self):
        return self.values.ndim

    @property
    def n(self):
        return self.values.shape


def _per_axis(value, d, name):
    if np.isscalar(value):
        return (value,) * d
    value = tuple(value)
    if len(value) != d:
        raise ValidationError(f"{name} needs one entry per axis")
    return value


# -- Algorithm for compound Poisson noise --------------------------------------

def _draw_jumps(basis, m_radius, d, rng):
    volume = (2.0 * m_radius) ** d
    n_jumps = int(rng.poisson(basis.intensity * volume))
    sites = rng.uniform(-m_radius, m_radius, size=(n_jumps, d))
    heights = basis.jumps.sample(rng, n_jumps)
    return sites, heights


def _decay_radius(spec):
    return math.log(1.0 / JUMP_CUTOFF) / abs(spec.max_real_part())


def simulate_compound_poisson(spec, basis, m_radius, n, delta, seed, stream=0):
    """Exact lattice realization under truncated compound Poisson noise.

    Draws a Poisson number of jumps uniformly on [-M, M]^d and sums
    kernel translates.  Jumps farther from a lattice point than the
    radius where the kernel has decayed below ``JUMP_CUTOFF`` are
    skipped.

    Parameters
    ----------
    m_radius : float
        Truncation radius M; the lattice must fit inside [-M, M]^d.
    n, delta : int/float or per-axis tuples
        Lattice size and spacing per axis.
    """
    if not isinstance(basis, CompoundPoissonBasis):
        raise ValidationError("this scheme requires a compound Poisson basis")
    d = spec.d
    n = tuple(int(v) for v in _per_axis(n, d, "n"))
    delta = tuple(float(v) for v in _per_axis(delta, d, "delta"))
    if any(ni * di > m_radius for ni, di in zip(n, delta)):
        raise GridOutsideTruncation(
            f"lattice extent {max(ni * di for ni, di in zip(n, delta))} "
            f"exceeds truncation radius {m_radius}"
        )
    rng = substream(seed, stream)
    sites, heights = _draw_jumps(basis, m_radius, d, rng)
    values = np.zeros(n)
    r_cut = _decay_radius(spec)
    for site, w in zip(sites, heights):
        los, his, coords = [], [], []
        empty = False
        for i in range(d):
            lo = max(1, math.ceil(site[i] / delta[i] - 1e-12))
            hi = min(n[i], math.floor((site[i] + r_cut) / delta[i]))
            if lo > hi:
                empty = True
                break
            los.append(lo)
            his.append(hi)
            coords.append(delta[i] * np.arange(lo, hi + 1) - site[i])
        if empty:
            continue
        block = model.kernel_on_grid(spec, coords)
        slices = tuple(slice(lo - 1, hi) for lo, hi in zip(los, his))
        values[slices] += w * block
    prov = {
        "algorithm": "compound-poisson",
        "seed": int(seed),
        "stream": int(stream),
        "m_radius": float(m_radius),
        "intensity": basis.intensity,
    }
    return LatticeField(delta=delta, values=values, provenance=prov)


def simulate_compound_poisson_at(spec, basis, m_radius, points, seed, stream=0):
    """Same scheme evaluated at an arbitrary finite set of points.

    ``points`` has shape (npoints, d); all points must lie inside the
    truncation box.  Returns a 1-D array of field values.
    """
    if not isinstance(basis, CompoundPoissonBasis):
        raise ValidationError("this scheme requires a compound Poisson basis")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != spec.d:
        raise ValidationError("points must have d columns")
    if np.any(np.abs(points) > m_radius):
        raise GridOutsideTruncation("evaluation points exceed the truncation box")
    rng = substream(seed, stream)
    sites, heights = _draw_jumps(basis, m_radius, spec.d, rng)
    tensor = model._coeff_tensor(spec)
    r_cut = _decay_radius(spec)
    out = np.zeros(points.shape[0])
    if sites.shape[0] == 0:
        return out
    for ipt, point in enumerate(points):
        diffs = point[None, :] - sites
        mask = np.all(diffs >= 0, axis=1) & np.all(diffs <= r_cut, axis=1)
        if not np.any(mask):
            continue
        dm = diffs[mask]
        mats = [
            np.exp(np.outer(dm[:, i], np.asarray(spec.eigenvalues[i]))).T
            for i in range(spec.d)
        ]
        gvals = model._contract(tensor, mats, pointwise=True).real
        out[ipt] = float(gvals @ heights[mask])
    return out


# -- Algorithm for general noise ------------------------------------------------

def simulate_truncated_discretized(
    spec,
    basis,
    m_steps,
    n,
    delta,
    seed,
    stream=0,
):
    """Truncated, discretized moving average driven by cell increments.

    The kernel is sampled on {0, delta, ..., M delta}^d and convolved
    (zero-padded FFT, no circular wrap-around reaches the retained
    window) with i.i.d. increments carrying the basis characteristics
    scaled by the cell volume.

    The lattice field is a finite moving average, so its variance is
    kappa2 * delta^d * sum_K g(K delta)^2 over the retained kernel cells.
    The left-endpoint samples make this larger than gamma(0) at first
    order in delta, while ``mse_discretization`` is of second order in
    delta.

    Parameters
    ----------
    m_steps : int
        Kernel truncation M in grid steps per axis.
    """
    d = spec.d
    m_steps = int(m_steps)
    if m_steps < 1:
        raise ValidationError("m_steps must be at least 1")
    n = tuple(int(v) for v in _per_axis(n, d, "n"))
    delta = tuple(float(v) for v in _per_axis(delta, d, "delta"))
    if (m_steps + 1) ** d > MAX_KERNEL_CELLS:
        raise KernelArrayOverflow(
            f"kernel array of {(m_steps + 1) ** d} cells exceeds the budget "
            f"of {MAX_KERNEL_CELLS}"
        )
    if int(np.prod([ni + m_steps for ni in n])) > 4 * MAX_KERNEL_CELLS:
        raise KernelArrayOverflow("noise array exceeds the memory budget")
    kernel = model.kernel_on_grid(
        spec, [di * np.arange(m_steps + 1) for di in delta]
    )
    rng = substream(seed, stream)
    volume = float(np.prod(delta))
    noise_shape = tuple(ni + m_steps for ni in n)
    noise = sample_increments(basis, volume, noise_shape, rng)
    fshape = [sfft.next_fast_len(ni + m_steps) for ni in n]
    spectrum = sfft.rfftn(kernel, fshape) * sfft.rfftn(noise, fshape)
    conv = sfft.irfftn(spectrum, fshape)
    window = tuple(slice(m_steps, m_steps + ni) for ni in n)
    prov = {
        "algorithm": "truncated-discretized",
        "seed": int(seed),
        "stream": int(stream),
        "m_steps": m_steps,
        "basis": repr(basis),
    }
    return LatticeField(delta=delta, values=np.ascontiguousarray(conv[window]),
                        provenance=prov)


# -- mean squared errors ---------------------------------------------------------

def mse_truncation_cp(spec, m_radius):
    """Mean squared error of the compound Poisson truncation at radius M.

    Exact double eigen-sum: the error is the noise variance times the
    squared-kernel mass outside [0, M]^d, which is O(exp(-2 |l_max| M)).
    """
    full, boxed = [], []
    for axis in spec.eigenvalues:
        lam = np.asarray(axis, dtype=complex)
        s = lam[:, None] + lam[None, :]
        full.append(1.0 / (-s))
        boxed.append(-np.expm1(s * m_radius) / (-s))
    tensor = model._coeff_tensor(spec)
    full_mass, boxed_mass = (
        spec.kappa2 * complex(model._contract(tensor, mats, copies=2))
        for mats in (full, boxed)
    )
    return max(model._real(full_mass - boxed_mass, "truncation error"), 0.0)


def _mse_discretization_closed(spec, delta, m_steps):
    term_a, term_b, term_c = [], [], []
    for axis in spec.eigenvalues:
        lam = np.asarray(axis, dtype=complex)
        pair = lam[:, None] + lam[None, :]
        s = pair * delta
        geom = np.expm1((m_steps + 1) * s) / np.expm1(s)
        term_a.append(1.0 / (-pair))
        # lam rows: kernel factor; columns: step-function factor
        term_b.append(geom * (np.expm1(lam[:, None] * delta) / lam[:, None]))
        term_c.append(delta * geom)
    tensor = model._coeff_tensor(spec)
    a, b, c = (
        spec.kappa2 * complex(model._contract(tensor, mats, copies=2))
        for mats in (term_a, term_b, term_c)
    )
    return max(model._real(a - 2.0 * b + c, "discretization error"), 0.0)


def _gauss_panels(breaks, order):
    """Gauss-Legendre nodes and weights on a sequence of panels."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _mse_discretization_quadrature(spec, delta, m_steps, order=12):
    """kappa2 * integral of (g - g_step)^2 by per-cell Gauss-Legendre.

    Inside the kernel box the integrand is smooth per cell; beyond the
    box the step function vanishes and the integrand is g^2, integrated
    on geometrically growing panels out to the decay horizon.
    """
    d = spec.d
    box_edge = (m_steps + 1) * delta
    kernel = model.kernel_on_grid(spec, [delta * np.arange(m_steps + 1)] * d)
    per_axis_nodes, per_axis_weights, per_axis_cells = [], [], []
    slowest = abs(spec.max_real_part())
    horizon = box_edge + 0.5 * math.log(1e18) / slowest
    for _ in range(d):
        breaks = list(delta * np.arange(m_steps + 2))
        step = max(delta, 0.25 / slowest)
        edge = box_edge
        while edge < horizon:
            edge = min(edge + step, horizon)
            breaks.append(edge)
            step *= 1.6
        nodes, weights = _gauss_panels(np.asarray(breaks), order)
        per_axis_nodes.append(nodes)
        per_axis_weights.append(weights)
        idx = np.floor(nodes / delta).astype(int)
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


def mse_discretization(spec, delta, m_steps, method="auto"):
    """Mean squared error of the truncated-discretized scheme.

    Exact closed form when every eigenvalue is real; otherwise (or on
    request) high-order panel quadrature of kappa2 * integral of
    (g - g_step)^2.  Decreases to zero as delta -> 0 with
    delta * m_steps -> infinity.

    Parameters
    ----------
    method : {"auto", "closed", "quadrature"}
    """
    if not delta > 0:
        raise ValidationError("delta must be positive")
    if int(m_steps) < 1:
        raise ValidationError("m_steps must be at least 1")
    all_real = all(
        abs(e.imag) == 0.0 for axis in spec.eigenvalues for e in axis
    )
    if method == "auto":
        method = "closed" if all_real else "quadrature"
    if method == "closed":
        if not all_real:
            raise ValidationError(
                "closed form covers real eigenvalues only; use quadrature"
            )
        return _mse_discretization_closed(spec, float(delta), int(m_steps))
    if method == "quadrature":
        return _mse_discretization_quadrature(spec, float(delta), int(m_steps))
    raise ValidationError(f"unknown method {method!r}")
