"""Lattice simulation of CARMA random fields and the associated errors.

Two schemes are provided.  For compound Poisson noise the field is a
finite sum over the jumps of the driving basis inside a truncation box
[-M, M]^d.  On a lattice that sum is exact inside the box: the kernel's
eigen-components are separable, so each jump is deposited into one
lattice cell and a first-order exponential recursion along each axis
carries it to every point.  The only error left is the box truncation,
``mse_truncation_cp``.  The same draw can be evaluated at arbitrary
points (``simulate_compound_poisson_at``) by a two-level dominance sum.
An anchor group of points weights the jumps below its upper corner
once, by the kernel's eigen-components carried to that corner; groups
are halved until the corner-to-point factor stays below
exp(``TILE_MAX_EXPONENT``).  Inside a group, mask tiles of at most
``TILE_PAIRS`` point-jump pairs sum those weights into each point in
one matrix product with the orthant mask.  It uses no lattice cells or
recursion, so it checks the lattice field independently.

For general noise the moving average integral is truncated and
discretized, turning the field into a finite-order moving average of
i.i.d. cell increments, evaluated as a d-dimensional FFT convolution of
the sampled kernel with the noise array, with error
``mse_discretization``.  The kernel's spectrum comes from its separable
eigen-expansion, and the inverse transform computes only the retained
window's rows.  Both errors have closed forms.

The compound-Poisson sums run in the dtype of the spec's eigenvalues
(``model._eigenvalue_array``): real arithmetic for a real spectrum, and
complex only where some eigenvalue is complex.

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
    IllConditionedVandermonde,
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

# cells of the truncated-discretized kernel's support {0, ..., M}^d (the
# noise array may hold four times as many) and expected compound-Poisson
# jumps
MAX_KERNEL_CELLS = 1 << 26

# point evaluation: point-jump pairs per mask tile, and the largest
# exponent of the factor that carries an anchor group's sums from its
# corner to a point
TILE_PAIRS = 1 << 18
TILE_MAX_EXPONENT = 600.0


def substream(seed, stream=0):
    """Philox generator for one reproducible substream of a master seed.

    Raises
    ------
    ValidationError
        If ``seed`` is negative.
    """
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


# -- jump laws for compound Poisson bases ------------------------------------

@dataclass(frozen=True)
class NormalJumps:
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValidationError(f"jump mean must be finite, got {self.mean}")
        model._positive(self.std, "jump std")

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

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)
                and self.low < self.high):
            raise ValidationError(
                f"jump bounds must be finite with low < high, got {self.low} "
                f"and {self.high}"
            )

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
        model._positive(self.sigma2, "sigma2")

    @property
    def kappa2(self):
        return self.sigma2

    @property
    def kappa4(self):
        # fourth moment of a unit-volume increment
        return 3.0 * (self.sigma2 * self.sigma2)

    # (kappa4 - 3 kappa2^2) / kappa2^2: no excess for Gaussian noise
    quartic_weight = 0.0

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
        model._positive(self.intensity, "intensity")
        if abs(self.jumps.first_moment) > 1e-12:
            raise ValidationError("jump law must have mean zero")

    @property
    def kappa2(self):
        return self.intensity * self.jumps.second_moment

    @property
    def kappa4(self):
        return self.intensity * self.jumps.fourth_moment + 3.0 * (self.kappa2 * self.kappa2)

    @property
    def quartic_weight(self):
        # intensity E[W^4] / kappa2^2, with no kappa2^2 to overflow or underflow
        return self.jumps.fourth_moment / self.jumps.second_moment / self.kappa2

    def sample_increments(self, cell_volume, shape, rng):
        lam = self.intensity * cell_volume
        # the same jump budget as the lattice scheme; it also keeps the
        # Poisson mean of a cell far below what numpy can draw
        if lam * math.prod(shape) > MAX_KERNEL_CELLS:
            raise KernelArrayOverflow(
                f"expected jump count {lam * math.prod(shape):.3e} of the noise "
                f"array exceeds the budget of {MAX_KERNEL_CELLS}"
            )
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
        model._positive(self.variance, "variance")
        model._positive(self.shape, "shape")

    @property
    def kappa2(self):
        return self.variance

    @property
    def kappa4(self):
        return 3.0 * (self.variance * self.variance) * (1.0 + self.shape)

    @property
    def quartic_weight(self):
        return 3.0 * self.shape

    def sample_increments(self, cell_volume, shape, rng):
        subord = rng.gamma(cell_volume / self.shape, self.shape, size=shape)
        return rng.normal(0.0, 1.0, size=shape) * np.sqrt(self.variance * subord)


def sample_increments(basis, cell_volume, shape, rng):
    """i.i.d. cell increments with characteristics scaled by the volume."""
    model._positive(cell_volume, "cell_volume")
    return basis.sample_increments(cell_volume, shape, rng)


# -- lattice container ---------------------------------------------------------

@dataclass
class LatticeField:
    """Field values on the lattice {delta, ..., n*delta}^d (row-major).

    ``values[k1 - 1, ..., kd - 1]`` is the value at (k1 d1, ..., kd dd).
    Every axis has at least one point, and every value is finite.
    """

    delta: tuple
    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.delta = model._per_axis(self.delta, self.values.ndim, "delta")
        if 0 in self.values.shape:
            raise ValidationError(f"field has an axis of length 0: shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteValue("field contains non-finite values")

    @property
    def d(self):
        return self.values.ndim

    @property
    def n(self):
        return self.values.shape


# -- Algorithm for compound Poisson noise --------------------------------------

def _draw_jumps(basis, m_radius, d, rng):
    model._positive(m_radius, "truncation radius")
    # the expected jump count intensity * (2M)^d, compared in logarithms
    # so that a huge radius cannot overflow
    log_jumps = math.log(basis.intensity) + d * math.log(2.0 * m_radius)
    if log_jumps > math.log(MAX_KERNEL_CELLS):
        raise KernelArrayOverflow(
            f"expected jump count in [-{m_radius}, {m_radius}]^{d} exceeds "
            f"the budget of {MAX_KERNEL_CELLS}"
        )
    volume = (2.0 * m_radius) ** d
    n_jumps = int(rng.poisson(basis.intensity * volume))
    sites = rng.uniform(-m_radius, m_radius, size=(n_jumps, d))
    heights = basis.jumps.sample(rng, n_jumps)
    return sites, heights


def simulate_compound_poisson(spec, basis, m_radius, n, delta, seed, stream=0):
    """Exact lattice realization under truncated compound Poisson noise.

    Draws a Poisson number of jumps uniformly on [-M, M]^d and sums
    their kernel translates at every lattice point, with no cutoff: the
    field is exact inside the box, and its only error is the box
    truncation that ``mse_truncation_cp`` measures.

    Each eigen-component C[K] prod_i exp(lam_{i,K_i} s_i) of the kernel
    is separable, so the sum is a per-axis exponential recursion.  A
    jump at s enters the first lattice cell c at or after it,
    c_i = max(1, ceil(s_i / delta_i)), with the phase
    prod_i exp(lam_{i,K_i} (c_i delta_i - s_i)); then along each axis
    z[k] = exp(lam delta) z[k - 1] + deposit[k], and the field is the
    real part of sum_K C[K] z_K.  Phases, deposits and the recursion
    take the eigenvalues' dtype, so a real spectrum is summed in real
    arithmetic.

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
    n = tuple(int(v) for v in model._per_axis(n, d, "n"))
    delta = model._per_axis(delta, d, "delta")
    if any(ni * di > m_radius for ni, di in zip(n, delta)):
        raise GridOutsideTruncation(
            f"lattice extent {max(ni * di for ni, di in zip(n, delta))} "
            f"exceeds truncation radius {m_radius}"
        )
    rng = substream(seed, stream)
    sites, heights = _draw_jumps(basis, m_radius, d, rng)
    cells = np.maximum(1.0, np.ceil(sites / np.asarray(delta)))
    # a jump past the lattice end on some axis reaches no lattice point
    reach = np.all(cells <= np.asarray(n), axis=1)
    cells, sites, heights = cells[reach].astype(int), sites[reach], heights[reach]
    flat = np.ravel_multi_index(tuple((cells - 1).T), n)
    size = math.prod(n)
    tensor, lams = model._expansion(spec)
    # phases[i][k, j]: eigenvalue k of axis i carried from jump j to its cell
    phases = [
        np.exp(np.outer(lam, cells[:, i] * di - sites[:, i]))
        for i, (lam, di) in enumerate(zip(lams, delta))
    ]
    # z[K]: the deposits of component K, then the recursion's sums
    z = np.empty((spec.p,) * d + n, dtype=lams.dtype)
    for idx in np.ndindex(*z.shape[:d]):
        w = heights * np.prod([phases[i][k] for i, k in enumerate(idx)], axis=0)
        # one bincount per float column: the real part, then any imaginary
        deposit = z[idx].reshape(size, 1).view(float)
        for col, weights in enumerate(w.reshape(-1, 1).view(float).T):
            deposit[:, col] = np.bincount(flat, weights, size)
    # z[k] = r z[k - 1] + deposit[k] along each lattice axis, r = exp(lam
    # delta) per component, by doubling: after the pass with shift s,
    # z[k] holds the deposits k - 2s < j <= k, each times r^(k - j)
    for i, (lam, di) in enumerate(zip(lams, delta)):
        zi = np.moveaxis(z, d + i, 0)
        ratio = np.exp(lam * di).reshape((-1,) + (1,) * (2 * d - i - 2))
        shift = 1
        while shift < n[i]:
            zi[shift:] += ratio ** shift * zi[:-shift]
            shift *= 2
    values = np.tensordot(tensor, z, axes=d)
    values = np.ascontiguousarray(model._real(values, "compound-Poisson field"))
    prov = {
        "algorithm": "compound-poisson",
        "seed": int(seed),
        "stream": int(stream),
        "m_radius": float(m_radius),
        "intensity": basis.intensity,
    }
    return LatticeField(delta=delta, values=values, provenance=prov)


def _below(coords, points):
    """mask[t, j]: jump j lies at or below points[t] on every axis.

    ``coords`` holds the jump coordinates as d contiguous rows, so each
    axis compares one unit-stride row.
    """
    mask = points[:, :1] >= coords[0]
    for i in range(1, points.shape[1]):
        mask &= points[:, i:i + 1] >= coords[i]
    return mask


def _components(offsets, lams):
    """out[t, K] = prod_i exp(lams[i, K_i] * offsets[t, i]), K row-major.

    ``lams`` is the (d, p) eigenvalue array, whose dtype ``out`` takes.
    """
    out = np.ones((offsets.shape[0], 1), dtype=lams.dtype)
    for i, lam in enumerate(lams):
        out = out[:, :, None] * np.exp(np.outer(offsets[:, i], lam))[:, None, :]
        out = out.reshape(offsets.shape[0], -1)
    return out


def simulate_compound_poisson_at(spec, basis, m_radius, points, seed, stream=0):
    """Same scheme evaluated at an arbitrary finite set of points.

    ``points`` is a finite array of shape (npoints, d) (one point may be
    given as a 1-D array of length d); all points must lie inside the
    truncation box.  Returns a 1-D array of field values, in the order
    of ``points``.

    Each value is the direct sum over every jump in the orthant below
    the point, computed as an anchored dominance sum on two levels.
    The points are sorted lexicographically.  An anchor group with
    upper corner a (the per-axis maximum of its points) weights each
    jump s <= a once, with W[j, K] = h_j prod_i exp(lam_{i,K_i}
    (a_i - s_{j,i})), which is at most |h_j| in modulus.  The point
    factor prod_i exp(lam_{i,K_i} (x_i - a_i)) carries those weights
    from a to a point x; it grows like exp(sum_i r_i (a_i - x_i)), r_i
    the largest decay rate of axis i, so a group is halved while the
    exponent could exceed ``TILE_MAX_EXPONENT``, and a one-point group
    is the plain per-point sum.  Inside a group the points are cut into
    mask tiles of at most ``TILE_PAIRS`` point-jump pairs; one matrix
    product with a tile's orthant mask (s_j <= x on every axis) sums
    the group's weights into each of its points; it runs on the float
    view of the weights, real and imaginary parts side by side when the
    spectrum is complex.  No lattice cells, phases or recursion enter,
    so the result is an independent check on
    ``simulate_compound_poisson``.
    """
    if not isinstance(basis, CompoundPoissonBasis):
        raise ValidationError("this scheme requires a compound Poisson basis")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != spec.d:
        raise ValidationError(
            f"points must have shape (npoints, {spec.d}), got {points.shape}"
        )
    if not np.all(np.isfinite(points)):
        raise ValidationError("evaluation points must be finite")
    if np.any(np.abs(points) > m_radius):
        raise GridOutsideTruncation("evaluation points exceed the truncation box")
    rng = substream(seed, stream)
    sites, heights = _draw_jumps(basis, m_radius, spec.d, rng)
    out = np.zeros(points.shape[0])
    if sites.shape[0] == 0 or points.shape[0] == 0:
        return out
    tensor, lams = model._expansion(spec)
    coeff = tensor.ravel()
    rates = -lams.real.min(axis=1)
    coords = np.ascontiguousarray(sites.T)
    size = max(1, TILE_PAIRS // sites.shape[0])
    groups = [np.lexsort(points.T[::-1])]
    while groups:
        group = groups.pop()
        x = points[group]
        anchor = x.max(axis=0)
        if group.size > 1 and rates @ (anchor - x.min(axis=0)) > TILE_MAX_EXPONENT:
            half = group.size // 2
            groups += [group[:half], group[half:]]
            continue
        below = _below(coords, anchor[None])[0]
        if not below.any():
            continue
        # compress keeps the rows contiguous; coords[:, below] would not
        kept = coords.compress(below, axis=1)
        weights = heights[below, None] * _components(anchor - kept.T, lams)
        for start in range(0, group.size, size):
            tile, xt = group[start:start + size], x[start:start + size]
            mask = _below(kept, xt).astype(float)
            sums = (mask @ weights.view(float)).view(weights.dtype)
            out[tile] = ((sums * _components(xt - anchor, lams)) @ coeff).real
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

    The sampled kernel is a sum of p^d separable exponentials, so its
    spectrum is formed from p short 1-D transforms per axis contracted
    with the coefficient tensor (``_kernel_spectrum``); the kernel grid
    itself is never built.  The inverse transform runs the complex
    inverse along each leading axis and keeps only the window's rows
    [M, M + n_i) before the next, then the real inverse along the last
    axis on those rows alone, cut to [M, M + n_last).

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
    n = tuple(int(v) for v in model._per_axis(n, d, "n"))
    delta = model._per_axis(delta, d, "delta")
    if (m_steps + 1) ** d > MAX_KERNEL_CELLS:
        raise KernelArrayOverflow(
            f"kernel array of {(m_steps + 1) ** d} cells exceeds the budget "
            f"of {MAX_KERNEL_CELLS}"
        )
    if int(np.prod([ni + m_steps for ni in n])) > 4 * MAX_KERNEL_CELLS:
        raise KernelArrayOverflow("noise array exceeds the memory budget")
    rng = substream(seed, stream)
    volume = float(np.prod(delta))
    noise_shape = tuple(ni + m_steps for ni in n)
    noise = sample_increments(basis, volume, noise_shape, rng)
    fshape = [sfft.next_fast_len(ni + m_steps) for ni in n]
    spectrum = sfft.rfftn(noise, fshape, overwrite_x=True)
    tensor, lams = model._expansion(spec)
    spectrum *= _kernel_spectrum(tensor, lams, delta, m_steps, fshape)
    # the window's rows [M, M + n_i) of each leading axis, then its last axis
    for axis, ni in enumerate(n[:-1]):
        spectrum = sfft.ifft(spectrum, axis=axis, overwrite_x=True)
        spectrum = spectrum[(slice(None),) * axis + (slice(m_steps, m_steps + ni),)]
    values = sfft.irfft(spectrum, fshape[-1])[..., m_steps:m_steps + n[-1]]
    prov = {
        "algorithm": "truncated-discretized",
        "seed": int(seed),
        "stream": int(stream),
        "m_steps": m_steps,
        "basis": repr(basis),
    }
    return LatticeField(delta=delta, values=np.ascontiguousarray(values),
                        provenance=prov)


def _kernel_spectrum(tensor, lams, delta, m_steps, fshape):
    """The kernel grid's ``rfftn`` to ``fshape``, from the separable expansion.

    The grid g[k] = sum_K C[K] prod_i exp(lam_{i,K_i} k_i delta_i), k_i =
    0..M, is never formed: its transform is sum_K C[K] prod_i F_i[K_i],
    F_i holding the p 1-D transforms of axis i's samples, zero-padded to
    ``fshape[i]`` (``rfft`` on the last axis of a real spectrum).

    A complex spectrum's grid is real only up to rounding, so its
    transform X is contracted in full and split into the Hermitian part
    (X[f] + conj X[-f]) / 2, the transform of the grid's real part, and
    the defect (X[f] - conj X[-f]) / 2, that of i times its imaginary
    part.  By Parseval each part's 2-norm is sqrt(N) times the 2-norm of
    its grid (N cells in ``fshape``), so the guard is ``model._real``'s
    with 2-norms for maxima: the imaginary residue may reach
    ``IMAG_TOL`` times the real part's norm (at least 1).  The Hermitian
    part's first L // 2 + 1 entries on the last axis are returned.

    Raises
    ------
    IllConditionedVandermonde
        If the imaginary residue exceeds that tolerance.
    """
    steps = np.arange(m_steps + 1)
    real = not np.iscomplexobj(lams)
    last = len(fshape) - 1
    # one axis at a time, p products per cell: one einsum over every
    # label (model._contract) would take p^d
    spectrum = tensor
    for i, (lam, di, size) in enumerate(zip(lams, delta, fshape)):
        transform = sfft.rfft if real and i == last else sfft.fft
        factor = transform(np.exp(np.outer(lam, di * steps)), size)
        spectrum = np.einsum("A...,Af->...f", spectrum, factor)
    if real:
        return spectrum
    mirror = np.conj(np.roll(np.flip(spectrum), 1, axis=tuple(range(last + 1))))
    resid = np.linalg.norm(spectrum - mirror) / 2
    spectrum += mirror
    spectrum *= 0.5
    scale = max(math.sqrt(math.prod(fshape)), np.linalg.norm(spectrum))
    if resid > model.IMAG_TOL * scale:
        raise IllConditionedVandermonde(
            f"kernel grid has imaginary residue {resid / scale:.3e} (2-norm, "
            f"relative) above {model.IMAG_TOL:.0e}"
        )
    return spectrum[..., :fshape[last] // 2 + 1]


# -- mean squared errors ---------------------------------------------------------

def mse_truncation_cp(spec, m_radius):
    """Mean squared error of the compound Poisson truncation at radius M.

    Exact double eigen-sum: the error is the noise variance times the
    squared-kernel mass outside [0, M]^d, which is O(exp(-2 |l_max| M)).
    """
    tensor, lams = model._expansion(spec)
    full, boxed = [], []
    for lam in lams:
        s = lam[:, None] + lam[None, :]
        full.append(1.0 / (-s))
        boxed.append(-np.expm1(s * m_radius) / (-s))
    full_mass, boxed_mass = (model._contract(tensor, mats, copies=2) for mats in (full, boxed))
    return spec.kappa2 * max(model._real(full_mass - boxed_mass, "truncation error"), 0.0)


def mse_discretization(spec, delta, m_steps):
    """Mean squared error of the truncated-discretized scheme.

    Exact closed form of kappa2 * integral of (g - g_step)^2, for real
    and complex eigenvalues alike: per axis, the integral of the squared
    kernel, its cross term with the step function on the kernel box and
    the step function's own mass are geometric sums.  ``delta`` holds one
    spacing per axis (a scalar serves every axis), as the simulator's
    does.  Decreases to zero as delta -> 0 with delta * m_steps -> infinity.
    """
    delta = model._per_axis(delta, spec.d, "delta")
    m_steps = int(m_steps)
    if m_steps < 1:
        raise ValidationError("m_steps must be at least 1")
    tensor, lams = model._expansion(spec)
    term_a, term_b, term_c = [], [], []
    for lam, dl in zip(lams, delta):
        pair = lam[:, None] + lam[None, :]
        s = pair * dl
        geom = np.expm1((m_steps + 1) * s) / np.expm1(s)
        term_a.append(1.0 / (-pair))
        # lam rows: kernel factor; columns: step-function factor
        term_b.append(geom * (np.expm1(lam[:, None] * dl) / lam[:, None]))
        term_c.append(dl * geom)
    a, b, c = (model._contract(tensor, mats, copies=2) for mats in (term_a, term_b, term_c))
    return spec.kappa2 * max(model._real(a - 2.0 * b + c, "discretization error"), 0.0)
