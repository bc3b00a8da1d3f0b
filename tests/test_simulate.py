"""Simulation schemes, increment sampling, and error formulas."""

import numpy as np
import pytest

from carmafield import model, simulate
from carmafield.errors import (
    GridOutsideTruncation,
    IllConditionedVandermonde,
    KernelArrayOverflow,
    ValidationError,
)

import oracles


def car1_2d(b0=1.0, lam=(-1.0, -1.0)):
    return model.CarmaSpec(b=(b0,), eigenvalues=((lam[0],), (lam[1],)))


class TestIncrements:
    def test_gaussian_variance_scaling(self):
        rng = simulate.substream(7, 0)
        basis = simulate.GaussianBasis(sigma2=1.0)
        draws = simulate.sample_increments(basis, 0.25, (1_000_000,), rng)
        assert 0.2475 < float(np.var(draws)) < 0.2525

    def test_variance_gamma_unit_variance_and_kurtosis(self):
        rng = simulate.substream(8, 0)
        basis = simulate.VarianceGammaBasis(variance=1.0, shape=1.0)
        draws = simulate.sample_increments(basis, 1.0, (1_000_000,), rng)
        assert float(np.var(draws)) == pytest.approx(1.0, rel=0.02)
        kurt = float(np.mean(draws ** 4) / np.var(draws) ** 2 - 3.0)
        assert kurt > 1.0  # model value 3 * shape = 3

    def test_variance_gamma_kappa4(self):
        basis = simulate.VarianceGammaBasis(variance=1.0, shape=0.5)
        assert basis.kappa4 - 3 * basis.kappa2 ** 2 == pytest.approx(1.5)

    def test_compound_poisson_centered(self):
        rng = simulate.substream(9, 0)
        basis = simulate.CompoundPoissonBasis(
            intensity=2.0, jumps=simulate.RademacherJumps()
        )
        draws = simulate.sample_increments(basis, 1.0, (200_000,), rng)
        # variance c * E[W^2] = 2, so the mean's 3-sigma band is wide
        assert abs(float(np.mean(draws))) < 3.0 * np.sqrt(2.0 / draws.size)
        assert float(np.var(draws)) == pytest.approx(2.0, rel=0.05)

    def test_jump_law_must_be_centered(self):
        with pytest.raises(ValidationError):
            simulate.CompoundPoissonBasis(
                intensity=1.0, jumps=simulate.NormalJumps(mean=0.5)
            )

    def test_gaussian_excess_kurtosis_zero(self):
        basis = simulate.GaussianBasis(sigma2=2.0)
        assert basis.kappa4 - 3.0 * basis.kappa2 ** 2 == 0.0

    @pytest.mark.parametrize("make, name", [
        (lambda: simulate.GaussianBasis(sigma2=np.inf), "sigma2"),
        (lambda: simulate.VarianceGammaBasis(variance=np.inf), "variance"),
        (lambda: simulate.VarianceGammaBasis(shape=np.inf), "shape"),
        (lambda: simulate.sample_increments(simulate.GaussianBasis(), np.inf, (4,),
                                            simulate.substream(1)), "cell_volume"),
    ], ids=["sigma2", "vg-variance", "vg-shape", "cell-volume"])
    def test_an_infinite_setting_is_refused(self, make, name):
        with pytest.raises(ValidationError, match=f"{name} must be finite and positive"):
            make()


# (spec, basis, m_radius, n, delta, seed): real CAR(1) and complex
# CAR(2) on R^2, a CARMA(2,1) on R^1 and a CARMA(2,1) on R^3 with
# per-axis sizes and spacings
CP_CASES = [
    pytest.param(
        car1_2d(), simulate.CompoundPoissonBasis(2.0, simulate.NormalJumps()),
        6.0, 6, 0.4, 11, id="car1-r2",
    ),
    pytest.param(
        model.CarmaSpec(b=(1.0,), eigenvalues=((-0.9 + 2.1j, -0.9 - 2.1j), (-1.5, -0.6))),
        simulate.CompoundPoissonBasis(1.5, simulate.RademacherJumps()),
        4.0, 8, 0.3, 3, id="complex-car2-r2",
    ),
    pytest.param(
        model.CarmaSpec(b=(1.0, -0.5), eigenvalues=((-0.8, -2.0),)),
        simulate.CompoundPoissonBasis(3.0, simulate.UniformJumps()),
        10.0, 40, 0.2, 5, id="carma21-r1",
    ),
    pytest.param(
        model.CarmaSpec(
            b=(0.8, 0.5),
            eigenvalues=((-1.0, -2.0), (-1.2 + 0.8j, -1.2 - 0.8j), (-0.7, -1.6)),
        ),
        simulate.CompoundPoissonBasis(1.0, simulate.NormalJumps()),
        3.0, (4, 5, 3), (0.5, 0.3, 0.7), 9, id="carma21-r3",
    ),
]


class TestCompoundPoisson:
    def test_vanishing_intensity_gives_zero_field(self):
        spec = car1_2d()
        basis = simulate.CompoundPoissonBasis(
            intensity=1e-9, jumps=simulate.RademacherJumps()
        )
        out = simulate.simulate_compound_poisson(spec, basis, 5.0, 8, 0.5, seed=3)
        assert np.all(out.values == 0.0)
        at = simulate.simulate_compound_poisson_at(
            spec, basis, 5.0, [(1.0, 2.0)] * 3, seed=3
        )
        assert np.array_equal(at, np.zeros(3))

    def test_deterministic_given_seed(self):
        spec = car1_2d()
        basis = simulate.CompoundPoissonBasis(
            intensity=3.0, jumps=simulate.NormalJumps()
        )
        a = simulate.simulate_compound_poisson(spec, basis, 8.0, 12, 0.5, seed=42)
        b = simulate.simulate_compound_poisson(spec, basis, 8.0, 12, 0.5, seed=42)
        assert np.array_equal(a.values, b.values)
        c = simulate.simulate_compound_poisson(spec, basis, 8.0, 12, 0.5, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_grid_must_fit_truncation(self):
        spec = car1_2d()
        basis = simulate.CompoundPoissonBasis(
            intensity=1.0, jumps=simulate.RademacherJumps()
        )
        with pytest.raises(GridOutsideTruncation):
            simulate.simulate_compound_poisson(spec, basis, 3.0, 10, 0.5, seed=0)

    @pytest.mark.parametrize("spec, basis, m_radius, n, delta, seed", CP_CASES)
    def test_lattice_matches_direct_sum(self, spec, basis, m_radius, n, delta, seed):
        field = simulate.simulate_compound_poisson(spec, basis, m_radius, n, delta, seed)
        direct = oracles.cp_field_direct(spec, basis, m_radius, n, delta, seed)
        assert np.any(direct != 0.0)
        np.testing.assert_allclose(field.values, direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec, basis, m_radius, n, delta, seed", CP_CASES)
    def test_lattice_matches_pointwise_evaluation(
        self, spec, basis, m_radius, n, delta, seed
    ):
        field = simulate.simulate_compound_poisson(spec, basis, m_radius, n, delta, seed)
        idx = np.argwhere(np.ones(field.n, dtype=bool))
        pts = (idx + 1) * np.asarray(field.delta)
        vals = simulate.simulate_compound_poisson_at(spec, basis, m_radius, pts, seed)
        np.testing.assert_allclose(vals, field.values[tuple(idx.T)], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("spec, basis, m_radius, n, delta, seed", CP_CASES)
    def test_points_match_direct_sum(self, spec, basis, m_radius, n, delta, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-m_radius, m_radius, size=(12, spec.d))
        # box corners, and points with one coordinate on the box edge
        edges = np.vstack([
            np.full(spec.d, m_radius),
            np.full(spec.d, -m_radius),
            np.where(np.arange(spec.d) == 0, m_radius, pts[0]),
            np.where(np.arange(spec.d) == spec.d - 1, -m_radius, pts[1]),
        ])
        pts = np.vstack([pts, edges])
        vals = simulate.simulate_compound_poisson_at(spec, basis, m_radius, pts, seed)
        direct = oracles.cp_points_direct(spec, basis, m_radius, pts, seed)
        assert np.count_nonzero(direct) > pts.shape[0] // 2
        np.testing.assert_allclose(vals, direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tile_pairs", [simulate.TILE_PAIRS, 1 << 10, 1])
    def test_points_with_split_tiles(self, monkeypatch, tile_pairs):
        # a decay rate of 60 over a spread of 24 would carry a group's
        # sums by exp(1440), so the anchor groups must be halved (to four
        # groups of 10 points); with 1 << 10 pairs and about 300 jumps a
        # group spans four mask tiles of at most 3 points, and with one
        # pair per tile every point is a tile of its own
        monkeypatch.setattr(simulate, "TILE_PAIRS", tile_pairs)
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-60.0,), (-1.0,)))
        basis = simulate.CompoundPoissonBasis(0.5, simulate.NormalJumps())
        pts = np.random.default_rng(6).uniform(-12.0, 12.0, size=(40, 2))
        vals = simulate.simulate_compound_poisson_at(spec, basis, 12.0, pts, 4)
        direct = oracles.cp_points_direct(spec, basis, 12.0, pts, 4)
        assert np.count_nonzero(np.abs(direct) > 1e-6) >= 20
        np.testing.assert_allclose(vals, direct, rtol=0, atol=1e-12)

    def test_no_points_give_an_empty_array(self):
        basis = simulate.CompoundPoissonBasis(intensity=1.0)
        vals = simulate.simulate_compound_poisson_at(
            car1_2d(), basis, 3.0, np.zeros((0, 2)), 0
        )
        assert vals.shape == (0,)

    @pytest.mark.parametrize("points", [
        [(0.1, np.nan)],
        [(0.1, np.inf)],
        np.zeros((2, 1, 2)),
        np.zeros((3, 3)),
    ], ids=["nan", "inf", "3-d", "columns"])
    def test_points_must_be_finite_rows(self, points):
        basis = simulate.CompoundPoissonBasis(intensity=1.0)
        with pytest.raises(ValidationError):
            simulate.simulate_compound_poisson_at(car1_2d(), basis, 3.0, points, 0)

    @pytest.mark.parametrize("m_radius", [np.nan, np.inf, -1.0, 0.0, 1e300])
    def test_truncation_radius_checked_before_drawing(self, m_radius):
        spec = car1_2d()
        basis = simulate.CompoundPoissonBasis(intensity=1.0)
        error = KernelArrayOverflow if m_radius == 1e300 else ValidationError
        with pytest.raises(error):
            simulate.simulate_compound_poisson(spec, basis, m_radius, 4, 0.1, seed=0)
        with pytest.raises(error):
            simulate.simulate_compound_poisson_at(spec, basis, m_radius, [(0.1, 0.1)], 0)

    def test_sample_variance_near_model_variance(self):
        spec = car1_2d()
        basis = simulate.CompoundPoissonBasis(
            intensity=2.0, jumps=simulate.NormalJumps()
        )
        spec_k2 = model.CarmaSpec(
            b=spec.b, eigenvalues=spec.eigenvalues, kappa2=basis.kappa2
        )
        gamma0 = model.autocovariance(spec_k2, (0.0, 0.0))
        assert simulate.mse_truncation_cp(spec_k2, 40.0) < 1e-4 * gamma0
        field = simulate.simulate_compound_poisson(
            spec, basis, 40.0, 100, 0.35, seed=5
        )
        assert float(np.var(field.values)) == pytest.approx(gamma0, rel=0.10)


class TestTruncatedDiscretized:
    def test_deterministic_given_seed(self):
        spec = car1_2d()
        basis = simulate.GaussianBasis()
        a = simulate.simulate_truncated_discretized(spec, basis, 20, 16, 0.25, seed=1)
        b = simulate.simulate_truncated_discretized(spec, basis, 20, 16, 0.25, seed=1)
        assert np.array_equal(a.values, b.values)

    def test_fft_equals_direct_convolution_2d(self):
        spec = oracles.random_spec(np.random.default_rng(3), d=2, p=2)
        basis = simulate.GaussianBasis()
        m, n, delta = 8, 16, 0.3
        out = simulate.simulate_truncated_discretized(spec, basis, m, n, delta, seed=9)
        kernel = model.kernel_on_grid(spec, [delta * np.arange(m + 1)] * 2)
        rng = simulate.substream(9, 0)
        noise = simulate.sample_increments(basis, delta ** 2, (n + m, n + m), rng)
        direct = oracles.direct_convolution(kernel, noise, (n, n))
        np.testing.assert_allclose(out.values, direct, atol=1e-8)

    def test_fft_equals_direct_convolution_3d(self):
        spec = oracles.random_spec(np.random.default_rng(4), d=3, p=1)
        basis = simulate.GaussianBasis()
        m, n, delta = 4, 8, 0.4
        out = simulate.simulate_truncated_discretized(spec, basis, m, n, delta, seed=2)
        kernel = model.kernel_on_grid(spec, [delta * np.arange(m + 1)] * 3)
        rng = simulate.substream(2, 0)
        noise = simulate.sample_increments(basis, delta ** 3, (n + m,) * 3, rng)
        direct = oracles.direct_convolution(kernel, noise, (n, n, n))
        np.testing.assert_allclose(out.values, direct, atol=1e-8)

    # (b, eigenvalues per axis, n, delta, M): real and complex spectra at
    # d = 1, 2, 3, with non-square n, per-axis delta, M > n and n = 1
    ORACLE_CASES = {
        "d1-real": ((1.0, 0.4), ((-0.8, -2.1),), (37,), (0.1,), 50),
        "d1-complex-n1": ((1.0, -0.3), ((-1.0 + 2.0j, -1.0 - 2.0j),), (1,), (0.15,), 20),
        "d2-real": ((4.894, -1.1432), ((-1.7776, -2.0948), (-1.3057, -2.5142)),
                    (30, 17), (0.1, 0.25), 40),
        "d2-complex": ((1.0, 0.6), ((-0.9 + 1.5j, -0.9 - 1.5j), (-1.2, -0.4)),
                       (12, 25), (0.3, 0.2), 10),
        "d3-real": ((1.0, 0.5), ((-1.1, -0.6), (-0.9, -2.0), (-1.5, -0.7)),
                    (5, 7, 1), (0.2, 0.3, 0.25), 6),
        "d3-complex": ((1.0, -0.2), ((-1.0 + 2.0j, -1.0 - 2.0j), (-0.5 + 1.0j, -0.5 - 1.0j),
                                     (-2.0, -0.7)), (4, 6, 5), (0.2, 0.3, 0.25), 8),
    }

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_the_kernel_grid_path(self, case):
        # the separable spectrum and the cut inverse against the kernel
        # grid's full zero-padded transforms (tests/oracles.py)
        b, eigs, n, delta, m = self.ORACLE_CASES[case]
        spec = model.CarmaSpec(b=b, eigenvalues=eigs)
        basis = simulate.GaussianBasis()
        out = simulate.simulate_truncated_discretized(spec, basis, m, n, delta, seed=31, stream=2)
        ref = oracles.td_field_kernel_grid(spec, basis, m, n, delta, seed=31, stream=2)
        assert out.values.shape == n
        scale = float(np.std(ref)) if ref.size > 1 else abs(float(ref.ravel()[0]))
        assert np.max(np.abs(out.values - ref)) <= 1e-12 * scale

    def test_complex_spectrum_residue_is_refused(self, monkeypatch):
        spec = model.CarmaSpec(b=(1.0, 0.6), eigenvalues=((-0.9 + 1.5j, -0.9 - 1.5j), (-1.2, -0.4)))
        tensor, lams = model._expansion(spec)
        # a coefficient off its conjugate partner: the kernel is no longer real
        bad = tensor.copy()
        bad[0, 0] += 1e-3j * np.abs(tensor).max()
        monkeypatch.setattr(model, "_expansion", lambda _: (bad, lams))
        with pytest.raises(IllConditionedVandermonde, match="imaginary residue"):
            simulate.simulate_truncated_discretized(spec, simulate.GaussianBasis(), 10, 12, 0.3, seed=1)
        with pytest.raises(IllConditionedVandermonde, match="imaginary residue"):
            model.kernel_on_grid(spec, [0.3 * np.arange(11)] * 2)

    def test_kernel_budget_guard(self):
        spec = car1_2d()
        with pytest.raises(KernelArrayOverflow):
            # 8193^2 kernel cells exceed the 2^26 budget; the guard
            # raises before anything is allocated
            simulate.simulate_truncated_discretized(
                spec, simulate.GaussianBasis(), 8192, 8, 0.1, seed=0
            )

    def test_empirical_variogram_matches_discrete_truth(self):
        # the simulated lattice process is a finite MA field whose
        # variogram is exactly kappa2 * delta^d * sum (K[j+h] - K[j])^2
        spec = car1_2d()
        basis = simulate.GaussianBasis()
        m, n, delta = 60, 120, 0.1
        kernel = model.kernel_on_grid(spec, [delta * np.arange(m + 1)] * 2)
        embedded = np.zeros((m + 3, m + 3))  # zero margin catches edge terms
        embedded[1 : m + 2, 1 : m + 2] = kernel
        diffs = embedded[1:, :] - embedded[:-1, :]
        truth = basis.kappa2 * delta ** 2 * float(np.sum(diffs ** 2))
        reps = 24
        vals = []
        for rep in range(reps):
            field = simulate.simulate_truncated_discretized(
                spec, basis, m, n, delta, seed=77, stream=rep
            )
            diff = field.values[1:, :] - field.values[:-1, :]
            vals.append(float(np.mean(diff ** 2)))
        vals = np.asarray(vals)
        se = float(np.std(vals, ddof=1) / np.sqrt(reps))
        assert abs(float(np.mean(vals)) - truth) < 3.0 * se
        # and the discrete truth is itself close to the model variogram
        psi = model.variogram(spec, (delta, 0.0))
        mse = simulate.mse_discretization(spec, delta, m)
        assert abs(truth - psi) < 4.0 * (mse + 2.0 * np.sqrt(mse * psi))


class TestTruncationError:
    def test_car1_closed_value(self):
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0,),))
        assert simulate.mse_truncation_cp(spec, 2.0) == pytest.approx(
            np.exp(-4.0) / 2.0, rel=1e-12
        )
        assert simulate.mse_truncation_cp(spec, 2.0) == pytest.approx(0.00916, abs=5e-6)

    def test_monotone_decreasing_to_zero(self, rng):
        spec = oracles.random_spec(rng, d=2)
        values = [simulate.mse_truncation_cp(spec, m) for m in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4 * values[0]

    def test_decay_rate(self):
        spec = car1_2d(lam=(-1.0, -2.0))
        # rate exp(-2 |lambda_max| M) with lambda_max = -1
        v1 = simulate.mse_truncation_cp(spec, 3.0)
        v2 = simulate.mse_truncation_cp(spec, 4.0)
        assert v2 / v1 == pytest.approx(np.exp(-2.0), rel=0.2)


class TestDiscretizationError:
    def test_closed_vs_quadrature(self):
        spec = model.CarmaSpec(
            b=(1.3, -0.6), eigenvalues=((-0.9, -2.1), (-1.4, -2.6))
        )
        closed = simulate.mse_discretization(spec, 0.25, 8)
        quad = oracles.mse_discretization_quadrature(spec, 0.25, 8)
        assert closed == pytest.approx(quad, rel=1e-8)

    @pytest.mark.parametrize("delta, m", [(0.25, 8), (0.1, 40), (0.05, 200)])
    def test_closed_vs_quadrature_complex_eigenvalues(self, delta, m):
        spec = model.CarmaSpec(
            b=(1.3, -0.6), eigenvalues=((-0.9 + 2.1j, -0.9 - 2.1j), (-1.4, -2.6))
        )
        closed = simulate.mse_discretization(spec, delta, m)
        quad = oracles.mse_discretization_quadrature(spec, delta, m)
        assert closed == pytest.approx(quad, rel=1e-10)

    def test_one_spacing_per_axis(self):
        spec = model.CarmaSpec(
            b=(1.3, -0.6), eigenvalues=((-0.9 + 2.1j, -0.9 - 2.1j), (-1.4, -2.6))
        )
        assert (simulate.mse_discretization(spec, (0.1, 0.1), 40)
                == simulate.mse_discretization(spec, 0.1, 40))
        closed = simulate.mse_discretization(spec, (0.1, 0.2), 40)
        quad = oracles.mse_discretization_quadrature(spec, (0.1, 0.2), 40)
        assert closed == pytest.approx(quad, rel=1e-10)
        for delta in ((0.1,), (0.1, 0.1, 0.1), np.inf, (0.1, -0.2)):
            with pytest.raises(ValidationError, match="delta"):
                simulate.mse_discretization(spec, delta, 40)

    def test_m_limit_reaches_pure_discretization_floor(self):
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0,),))
        delta = 0.1
        vals = [
            simulate.mse_discretization(spec, delta, m) for m in (5, 20, 80, 320)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # plateau: doubling m beyond the decay horizon changes nothing
        assert vals[-1] == pytest.approx(
            simulate.mse_discretization(spec, delta, 640), rel=1e-12
        )

    def test_first_order_in_delta(self):
        # halving delta (with delta * m fixed) halves the L2 error,
        # i.e. quarters the mean squared error
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0,),))
        prev = None
        for k in range(3):
            delta = 0.1 / 2 ** k
            val = simulate.mse_discretization(spec, delta, int(10.0 / delta))
            if prev is not None:
                assert np.sqrt(prev / val) == pytest.approx(2.0, rel=0.05)
            prev = val


class TestStationarity:
    def test_mean_and_variance_bands_500sq(self):
        spec = car1_2d(b0=1.0, lam=(-1.0, -1.0))
        basis = simulate.GaussianBasis()
        n, delta, m = 500, 0.1, 150
        gamma0 = model.autocovariance(spec, (0.0, 0.0))
        # the lattice field is a finite moving average of i.i.d. cell
        # increments; its variance is kappa2 * delta^d * sum g(K delta)^2,
        # which exceeds gamma0 at first order in delta
        kernel = model.kernel_on_grid(spec, [delta * np.arange(m + 1)] * 2)
        var_td = basis.kappa2 * delta ** 2 * float(np.sum(kernel ** 2))
        # reverse triangle inequality in L2: the gap between the standard
        # deviations of the lattice and continuous fields is bounded by the
        # root mean squared error of the scheme
        assert (np.sqrt(var_td) - np.sqrt(gamma0)) ** 2 <= (
            simulate.mse_discretization(spec, delta, m)
        )
        field = simulate.simulate_truncated_discretized(
            spec, basis, m, n, delta, seed=2718
        )
        # exact variance of the lattice average from the autocovariance
        offsets = delta * np.arange(-(n - 1), n)
        gam = model.autocovariance_grid(spec, [offsets, offsets])
        tri = (n - np.abs(np.arange(-(n - 1), n), dtype=float)) / n
        var_mean = float(tri @ gam @ tri) / (n * n)
        assert abs(float(np.mean(field.values))) < 4.0 * np.sqrt(var_mean)
        assert float(np.var(field.values)) == pytest.approx(var_td, rel=0.05)


class TestLatticeField:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            simulate.LatticeField(delta=0.1, values=np.array([[1.0, np.nan]]))

    def test_scalar_delta_broadcast(self):
        field = simulate.LatticeField(delta=0.5, values=np.zeros((3, 4)))
        assert field.delta == (0.5, 0.5)
        assert field.n == (3, 4)
