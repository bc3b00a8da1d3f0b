"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the suite uses fixed seeds throughout and is sized for a small
workstation (the replicated study runs on a process pool capped by
CARMA_FIELD_THREADS).
"""

import time

import numpy as np
import pytest

from carmafield import estimate, gridio, identify, model, simulate, workflows

import oracles

REF_B = (4.8940, -1.1432)
REF_EIGS = ((-1.7776, -2.0948), (-1.3057, -2.5142))

# reference estimation results (Gaussian noise, 100 lags, quadratic
# weights): per-parameter mean and standard deviation over 500 runs
TABLE2_MEAN = np.array([4.7882, -1.2784, -1.6283, -2.3193, -1.3136, -2.5231])
TABLE2_STD = np.array([0.5124, 0.3962, 0.2377, 0.4183, 0.2323, 0.4048])

pytestmark = pytest.mark.acceptance


def report(criterion, message):
    print(f"\n[acceptance {criterion}] PASS: {message}")


def test_criterion_01_closed_form_vs_quadrature(rng):
    spec_count, lag_count = 100, 20
    worst_gamma = worst_psi = 0.0
    for k in range(spec_count):
        spec = oracles.random_spec(rng)
        gamma0 = model.autocovariance(spec, np.zeros(spec.d))
        quad0 = oracles.autocovariance_quadrature(spec, np.zeros(spec.d))
        for _ in range(lag_count):
            t = rng.uniform(-2.0, 2.0, size=spec.d)
            closed = model.autocovariance(spec, t)
            quad = oracles.autocovariance_quadrature(spec, t)
            worst_gamma = max(worst_gamma, abs(closed - quad) / abs(quad))
            psi = model.variogram(spec, t)
            psi_quad = 2.0 * (quad0 - quad)
            if abs(psi_quad) > 1e-9 * gamma0:
                worst_psi = max(worst_psi, abs(psi - psi_quad) / abs(psi_quad))
    assert worst_gamma < 1e-6
    assert worst_psi < 1e-6
    report(1, f"{spec_count} specs x {lag_count} lags; worst relative "
              f"gap gamma {worst_gamma:.2e}, psi {worst_psi:.2e}")


def test_criterion_02_explicit_carma21_formulas(rng):
    worst_full = worst_axis = 0.0
    for _ in range(20):
        spec = oracles.random_carma21_real(rng)
        (l11, l12), (l21, l22) = spec.eigenvalues
        b0, b1 = spec.b
        for _ in range(50):
            t = rng.uniform(-2.5, 2.5, size=2)
            ref = oracles.carma21_variogram_reference(
                b0, b1, l11.real, l12.real, l21.real, l22.real,
                t[0], t[1], spec.kappa2,
            )
            worst_full = max(worst_full, abs(model.variogram(spec, t) - ref))
        ref1, ref2 = oracles.carma21_axis_reference(
            b0, b1, l11.real, l12.real, l21.real, l22.real
        )
        got1 = np.real([w for _, w in model.axis_variogram_coefficients(spec, 0)])
        got2 = np.real([w for _, w in model.axis_variogram_coefficients(spec, 1)])
        worst_axis = max(
            worst_axis,
            float(np.max(np.abs(got1 - np.asarray(ref1)))),
            float(np.max(np.abs(got2 - np.asarray(ref2)))),
        )
    assert worst_full < 1e-9
    assert worst_axis < 1e-9
    report(2, f"full variogram gap {worst_full:.2e}, axis weight gap "
              f"{worst_axis:.2e} over 20 specs x 50 lags")


def test_criterion_03_non_identifiable_counterexample():
    eigs = ((-2.0, -6.0), (-2.0, -6.0))
    spec_a = model.CarmaSpec(b=(2.0, 4.0), eigenvalues=eigs)
    spec_b = model.CarmaSpec(
        b=(20.0 / np.sqrt(7.0), 9.0 / np.sqrt(7.0)), eigenvalues=eigs
    )
    taus = 0.05 * np.arange(1, 41)
    worst = 0.0
    for axis in range(2):
        gap = np.abs(
            model.axis_variogram(spec_a, axis, taus)
            - model.axis_variogram(spec_b, axis, taus)
        )
        worst = max(worst, float(np.max(gap)))
    assert worst < 1e-10
    off_axis = abs(
        model.variogram(spec_a, (0.5, -0.25)) - model.variogram(spec_b, (0.5, -0.25))
    )
    assert off_axis > 1e-3
    for spec in (spec_a, spec_b):
        verdict = identify.check_identifiability(spec, 0.05)
        assert verdict.verdict == "not identifiable"
        assert verdict.product_condition is False
    report(3, f"axis ordinates agree to {worst:.2e} at 40 lags, full "
              f"variograms differ by {off_axis:.2e} off-axis, verdict "
              "'not identifiable'")


def test_criterion_04_truncation_and_discretization_errors():
    # coupled Monte-Carlo estimate of the truncation error of the jump
    # scheme: with nested boxes, E[(Y_big - Y_M)^2] equals the formula
    # difference exactly
    lam1, lam2 = -1.0, -1.0
    b0, intensity = 1.0, 5.0
    spec = model.CarmaSpec(
        b=(b0,), eigenvalues=((lam1,), (lam2,)), kappa2=intensity
    )
    m_big = 8.0
    reps = 10_000
    rng = simulate.substream(20240817, 0)
    diffs = {m: np.empty(reps) for m in (1.0, 2.0, 4.0)}
    for rep in range(reps):
        n_jumps = rng.poisson(intensity * (2 * m_big) ** 2)
        sites = rng.uniform(-m_big, m_big, size=(n_jumps, 2))
        heights = rng.normal(size=n_jumps)
        for m in diffs:
            outside = ~np.all(np.abs(sites) <= m, axis=1)
            s = sites[outside]
            keep = np.all(s <= 0.0, axis=1)  # kernel support of g(0 - s)
            s = s[keep]
            g = b0 * np.exp(lam1 * (-s[:, 0]) + lam2 * (-s[:, 1]))
            diffs[m][rep] = float(g @ heights[outside][keep])
    lines = []
    for m, vals in diffs.items():
        sq = vals ** 2
        mc = float(np.mean(sq))
        se = float(np.std(sq, ddof=1) / np.sqrt(reps))
        formula = simulate.mse_truncation_cp(spec, m) - simulate.mse_truncation_cp(
            spec, m_big
        )
        assert abs(mc - formula) < 3.0 * se, (m, mc, formula, se)
        lines.append(f"M={m:g}: |mc-formula|/se={abs(mc - formula) / se:.2f}")
    # discretization error: monotone along a (delta down, delta*m up)
    # ladder, and the two evaluation routes agree
    spec2 = model.CarmaSpec(
        b=(1.3, -0.6), eigenvalues=((-0.9, -2.1), (-1.4, -2.6))
    )
    ladder = [(0.4, 10), (0.2, 30), (0.1, 90), (0.05, 270)]
    values = [simulate.mse_discretization(spec2, d, m) for d, m in ladder]
    assert all(a > b for a, b in zip(values, values[1:]))
    closed = simulate.mse_discretization(spec2, 0.25, 8)
    quad = oracles.mse_discretization_quadrature(spec2, 0.25, 8)
    assert closed == pytest.approx(quad, rel=1e-8)
    report(4, "; ".join(lines) + f"; ladder {[f'{v:.3e}' for v in values]}; "
              f"closed/quadrature gap {abs(closed - quad) / closed:.2e}")


def test_criterion_05_fft_convolution_correctness():
    basis = simulate.GaussianBasis()
    worst = 0.0
    for d, n, m, p, seed in ((2, 16, 8, 2, 31), (3, 8, 4, 1, 32)):
        spec = oracles.random_spec(np.random.default_rng(seed), d=d, p=p)
        delta = 0.3
        out = simulate.simulate_truncated_discretized(
            spec, basis, m, n, delta, seed=seed
        )
        kernel = model.kernel_on_grid(spec, [delta * np.arange(m + 1)] * d)
        rng = simulate.substream(seed, 0)
        noise = simulate.sample_increments(basis, delta ** d, (n + m,) * d, rng)
        direct = oracles.direct_convolution(kernel, noise, (n,) * d)
        gap = float(np.max(np.abs(out.values - direct)))
        assert gap < 1e-8
        worst = max(worst, gap)
    report(5, f"16^2 and 8^3 grids, max |fft - direct| = {worst:.2e}")


def test_criterion_06_noiseless_inversion(rng):
    # WLS fit from exact ordinates for the three reference-style orders
    cases = [
        ("car1", model.CarmaSpec(b=(1.2268,), eigenvalues=((-0.4622,), (-0.5159,)))),
        ("car2", model.CarmaSpec(
            b=(4.9991,), eigenvalues=((-1.7963, -1.2859), (-1.4212, -2.2212)))),
        ("carma21", model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)),
    ]
    fit_gaps = []
    for name, spec in cases:
        emp = oracles.synthetic_variogram(spec, 0.04, 50)
        config = estimate.FitConfig(p=spec.p, q=spec.q, seed=17)
        result = estimate.fit(emp, config)
        codec = estimate.ThetaCodec(p=spec.p, q=spec.q, d=2)
        truth = codec.from_spec(
            model.CarmaSpec(
                b=spec.b,
                eigenvalues=tuple(
                    tuple(sorted(ax, key=lambda e: (-e.real, -e.imag)))
                    for ax in spec.eigenvalues
                ),
                kappa2=spec.kappa2,
            )
        )
        gap = float(np.max(np.abs(result.theta_star - truth)))
        assert gap < 1e-4, (name, gap)
        fit_gaps.append(f"{name}: {gap:.2e}")
    # closed-form recovery round trip over the identifiable menu
    count, worst = 0, 0.0
    menu = [(1, 0, None), (2, 0, None), (3, 0, None), (2, 1, 2), (3, 1, 2)]
    while count < 100:
        p, q, d = menu[int(rng.integers(0, len(menu)))]
        spec = oracles.random_spec(
            rng, d=d, p=p, q=q, allow_complex=False, b0_positive=True
        )
        # documented spacing range: wider spacing for higher order keeps
        # the pencil's roots exp(lambda * delta) separated from each other
        delta = 0.35 if p == 3 else 0.2
        if identify.check_identifiability(spec, delta).verdict != "identifiable":
            continue
        count += 1
        ords = identify.exact_axis_ordinates(spec, delta, 3 * p + 8)
        rec = identify.recover_spec(ords, p, q, spec.kappa2)
        gap = float(
            np.max(np.abs(np.asarray(rec.b[: q + 1]) - np.asarray(spec.b[: q + 1])))
        )
        for got, want in zip(rec.eigenvalues, spec.eigenvalues):
            got = sorted(got, key=lambda z: (z.real, z.imag))
            want = sorted(want, key=lambda z: (z.real, z.imag))
            gap = max(gap, float(np.max(np.abs(np.asarray(got) - np.asarray(want)))))
        assert gap < 1e-7
        worst = max(worst, gap)
    report(6, "; ".join(fit_gaps) + f"; identify round-trip worst gap "
              f"{worst:.2e} over 100 specs")


@pytest.mark.slow
def test_criterion_07_desk_scale_study():
    # NOTE: the mean-band clause of this criterion is expected to fail
    # (see the printed table).  At the stated desk scale (N = 500) the
    # estimator's finite-sample bias exceeds the reference bands, which
    # are centered on means obtained at N = 1000; re-running at N =
    # 1000 with the reference simulation fidelity puts 4/6 parameters
    # dead-center but leaves the close eigenvalue pair outside in the
    # opposite direction, because this implementation's (spec-mandated)
    # deep two-stage optimizer tracks the global WLS minimum more
    # tightly than the reference software, removing most of the
    # reference's bias and spread on exactly that pair.  No honest
    # configuration satisfies all six bands; the noise-law clause does
    # hold and is asserted independently first.
    start = time.perf_counter()
    spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
    band_half = 3.0 * TABLE2_STD / np.sqrt(50.0)
    results = {}
    for label, basis, seed in (
        ("gaussian", simulate.GaussianBasis(), 777),
        ("variance-gamma", simulate.VarianceGammaBasis(), 778),
    ):
        cfg = workflows.StudyConfig(
            spec=spec,
            basis=basis,
            replications=50,
            n=500,
            delta=0.04,
            fine_factor=2,
            m_steps=300,
            j_max=50,
            cases=(1,),
            seed=seed,
        )
        results[label] = workflows.run_simulation_study(cfg)[1]
        assert results[label]["failed"] == 0
    truth = np.array([4.8940, -1.1432, -1.7776, -2.0948, -1.3057, -2.5142])
    rmse = {
        label: np.sqrt(np.mean((res["estimates"] - truth[None, :]) ** 2, axis=0))
        for label, res in results.items()
    }
    rel_gap = np.abs(rmse["gaussian"] - rmse["variance-gamma"]) / np.minimum(
        rmse["gaussian"], rmse["variance-gamma"]
    )
    est_g = results["gaussian"]["estimates"]
    mean_gap = np.abs(est_g.mean(axis=0) - TABLE2_MEAN)
    names = estimate.parameter_names(spec)
    print(f"\n[acceptance 7] desk-scale study, Gaussian case 1 "
          f"(both studies {time.perf_counter() - start:.1f} s wall time):")
    print(f"  {'param':<9}{'mean':>9}{'ref mean':>10}{'band half':>11}"
          f"{'gap/band':>10}{'rmse gap':>10}")
    for i, name in enumerate(names):
        print(f"  {name:<9}{est_g.mean(axis=0)[i]:>9.4f}{TABLE2_MEAN[i]:>10.4f}"
              f"{band_half[i]:>11.4f}{mean_gap[i] / band_half[i]:>10.2f}"
              f"{rel_gap[i]:>10.2f}")
    assert np.all(rel_gap < 0.5), rel_gap
    print(f"[acceptance 7] noise-law RMSE clause PASS "
          f"(max relative gap {float(np.max(rel_gap)):.2f} < 0.5)")
    assert np.all(mean_gap <= band_half), (
        "mean-band clause failed; see Known defects in ROADMAP.md for the "
        "full analysis (reference bands are incompatible with the "
        "desk-scale estimator bias and with a tightly converged "
        "optimizer at N = 1000)"
    )
    report(7, "means within bands and noise-law RMSE gap below 50%")


def test_criterion_08_reference_aic_arithmetic():
    # the recorded WSS values are rounded to five digits, which bounds
    # the reconstructible AIC to ~2.5e-3 absolute; agreement is
    # asserted at 1e-4 relative, plus inverse-map consistency
    table = [
        (7.6132e-2, 3, -712.0453),
        (2.5769e-2, 5, -816.3761),
        (2.0113e-2, 6, -839.1583),
    ]
    worst = 0.0
    for wss, p_params, aic in table:
        got = estimate.aic_value(wss, p_params, 100)
        assert got == pytest.approx(aic, rel=1e-4)
        worst = max(worst, abs(got - aic) / abs(aic))
        implied = 100.0 * np.exp((aic - 2 * p_params) / 100.0)
        assert implied == pytest.approx(wss, rel=5e-5)
    report(8, f"worst relative AIC gap {worst:.2e} (inverse WSS consistent "
              "to five digits)")


def test_criterion_09_consistency_ladder():
    # exact jump-scheme simulation in d = 1, so the estimator's target
    # is the model variogram itself (truncation error ~ exp(-80))
    lam, intensity, delta = -1.0, 5.0, 0.25
    spec = model.CarmaSpec(b=(1.0,), eigenvalues=((lam,),), kappa2=intensity)
    basis = simulate.CompoundPoissonBasis(
        intensity=intensity, jumps=simulate.NormalJumps()
    )
    lags = estimate.axis_lag_set(1, delta, 10)
    truth = model.axis_variogram(spec, 0, delta * np.arange(1, 11))
    medians = []
    for n in (100, 200, 400):
        m_radius = n * delta + 40.0
        errors = []
        for rep in range(20):
            field = simulate.simulate_compound_poisson(
                spec, basis, m_radius, n, delta, seed=606, stream=rep
            )
            emp = estimate.empirical_variogram(field, lags)
            errors.append(float(np.max(np.abs(emp.ordinates - truth))))
        medians.append(float(np.median(errors)))
    assert medians[0] > medians[1] > medians[2], medians
    report(9, f"median max-lag errors {[f'{m:.4f}' for m in medians]} over "
              "N in (100, 200, 400)")


def test_criterion_10_bit_reproducibility(tmp_path):
    spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
    digests = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        out.mkdir()
        field = simulate.simulate_truncated_discretized(
            spec, simulate.GaussianBasis(), 150, 200, 0.04, seed=99
        )
        gridio.write_carf(field, out / "field.carf")
        emp = estimate.empirical_variogram(
            field, estimate.axis_lag_set(2, 0.04, 10)
        )
        emp.to_csv(out / "vario.csv")
        result = estimate.fit(
            emp,
            estimate.FitConfig(p=1, q=0, seed=5, generations=60,
                               population_factor=8),
        )
        result.to_kv(out / "fit.txt")
        cp = simulate.simulate_compound_poisson(
            spec,
            simulate.CompoundPoissonBasis(intensity=2.0,
                                          jumps=simulate.NormalJumps()),
            12.0, 16, 0.25, seed=4,
        )
        gridio.write_carf(cp, out / "cp.carf")
        digests.append(
            tuple(
                (name, (out / name).read_bytes())
                for name in ("field.carf", "vario.csv", "fit.txt", "cp.carf")
            )
        )
    assert digests[0] == digests[1]
    # differential evolution meets its stop test, but the polish of this
    # misspecified car1 fit stops at its evaluation cap
    assert result.diagnostics["de_converged"] and not result.diagnostics["polish_converged"]
    assert "converged = False" in (tmp_path / "run0" / "fit.txt").read_text().splitlines()
    report(10, "simulate/variogram/fit pipelines bit-identical across runs")
