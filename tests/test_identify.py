"""Closed-form recovery round trips and identifiability checks."""

import numpy as np
import pytest

from carmafield import identify, model
from carmafield.errors import (
    DuplicateEigenvalue,
    InconsistentMonomials,
    InvalidSpec,
    NonConjugateSet,
    NegativeVarianceEstimate,
    RankDeficient,
    SingularHankel,
    UnstableRoot,
    ValidationError,
)

import oracles

REF_B = (4.8940, -1.1432)
REF_EIGS = ((-1.7776, -2.0948), (-1.3057, -2.5142))


def sorted_eigs(eigs):
    return sorted(eigs, key=lambda z: (z.real, z.imag))


def axis_weights(ords, eigs, kappa2):
    return [
        identify.recover_axis_weights(o, e, kappa2) for o, e in zip(ords, eigs)
    ]


class TestAxisOrdinates:
    def test_rejects_nonzero_origin(self):
        with pytest.raises(ValidationError):
            identify.AxisOrdinates(axis=0, delta=0.1, values=(0.5, 1.0, 1.5, 2.0))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            identify.AxisOrdinates(axis=0, delta=0.1, values=(0.0, -1.0, 1.5, 2.0))

    @pytest.mark.parametrize("delta, values", [
        (np.inf, (0.0, 1.0, 1.5, 2.0, 2.2, 2.3)),
        (np.nan, (0.0, 1.0, 1.5, 2.0, 2.2, 2.3)),
        (0.1, (0.0, np.nan, 1.5, 2.0, 2.2, 2.3)),
        (0.1, (0.0, 1.0, 1.5, np.inf, 2.2, 2.3)),
    ])
    def test_rejects_non_finite(self, delta, values):
        # before the check, recovery from these ended in numpy's LinAlgError
        with pytest.raises(ValidationError):
            identify.AxisOrdinates(axis=0, delta=delta, values=values)


class TestEigenvalueRecovery:
    def test_car1_exact(self):
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0,),))
        ords = identify.exact_axis_ordinates(spec, 0.04, 3)[0]
        eigs = identify.recover_axis_eigenvalues(ords, 1)
        assert eigs[0] == pytest.approx(-1.0, abs=1e-10)

    def test_reference_carma21_axis1(self):
        # minimal ordinate set j = 0..5
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        ords = identify.exact_axis_ordinates(spec, 0.2, 5)[0]
        eigs = identify.recover_axis_eigenvalues(ords, 2)
        np.testing.assert_allclose(
            sorted_eigs(eigs), sorted_eigs([-1.7776, -2.0948]), atol=1e-8
        )

    def test_reference_carma21_small_spacing_more_ordinates(self):
        # at the estimation spacing 0.04 the minimal system sits at the
        # cancellation noise floor; extra ordinates restore accuracy
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        ords = identify.exact_axis_ordinates(spec, 0.04, 12)[0]
        eigs = identify.recover_axis_eigenvalues(ords, 2)
        np.testing.assert_allclose(
            sorted_eigs(eigs), sorted_eigs([-1.7776, -2.0948]), atol=1e-7
        )

    def test_complex_pair_inside_band(self):
        spec = model.CarmaSpec(
            b=(1.0, 0.4), eigenvalues=((-1 + 2j, -1 - 2j),)
        )
        ords = identify.exact_axis_ordinates(spec, 0.5, 5)[0]
        eigs = identify.recover_axis_eigenvalues(ords, 2)
        assert eigs[0] == eigs[1].conjugate()
        np.testing.assert_allclose(
            sorted_eigs(eigs), sorted_eigs([-1 + 2j, -1 - 2j]), atol=1e-9
        )

    def test_needs_enough_ordinates(self):
        spec = model.CarmaSpec(b=(1.0, 0.5), eigenvalues=((-1.0, -2.0),))
        ords = identify.exact_axis_ordinates(spec, 0.1, 4)[0]  # needs j <= 5
        with pytest.raises(ValidationError):
            identify.recover_axis_eigenvalues(ords, 2)

    def test_non_positive_real_root_is_unstable(self):
        # psi_j = 1 - (-0.5)^j: a root at -0.5 sits on the edge of the
        # aliasing band, where its logarithm has no conjugate partner
        values = 1.0 - (-0.5) ** np.arange(6)
        ords = identify.AxisOrdinates(axis=0, delta=0.1, values=tuple(values))
        with pytest.raises(UnstableRoot):
            identify.recover_axis_eigenvalues(ords, 1)

    def test_vanishing_weight_gives_singular_hankel(self):
        # second-axis weight vanishes when l21^2 = l11^2 + 3 l11 l12 + l12^2
        l11, l12 = -1.0, -2.0
        l21 = -np.sqrt(l11 ** 2 + 3 * l11 * l12 + l12 ** 2)
        spec = model.CarmaSpec(
            b=(1.0,), eigenvalues=((l11, l12), (l21, -1.5))
        )
        pairs = model.axis_variogram_coefficients(spec, 1)
        assert min(abs(w) for _, w in pairs) < 1e-12
        ords = identify.exact_axis_ordinates(spec, 0.2, 5)[1]
        with pytest.raises(SingularHankel):
            identify.recover_axis_eigenvalues(ords, 2)


class TestBRecovery:
    def test_car1_b0(self):
        spec = model.CarmaSpec(b=(2.0,), eigenvalues=((-1.0,),))
        ords = identify.exact_axis_ordinates(spec, 0.1, 3)
        eigs = [identify.recover_axis_eigenvalues(o, 1) for o in ords]
        (b0,) = identify.recover_b(axis_weights(ords, eigs, 1.0), eigs, 1.0, 0)
        assert b0 == pytest.approx(2.0, abs=1e-10)

    def test_car2_round_trip(self, rng):
        for _ in range(5):
            spec = oracles.random_spec(rng, d=2, p=2, q=0, b0_positive=True)
            ords = identify.exact_axis_ordinates(spec, 0.15, 5)
            eigs = [identify.recover_axis_eigenvalues(o, 2) for o in ords]
            (b0,) = identify.recover_b(
                axis_weights(ords, eigs, spec.kappa2), eigs, spec.kappa2, 0
            )
            assert b0 == pytest.approx(abs(spec.b[0]), abs=1e-8)

    def test_negative_variance_rejected(self):
        # ordinates rising then sagging toward a negative fitted limit
        r1, r2 = np.exp(-0.05), np.exp(-2.0)
        j = np.arange(6)
        values = -1.0 + 2.0 * r1 ** j - 1.0 * r2 ** j
        ords = identify.AxisOrdinates(axis=0, delta=1.0, values=tuple(values))
        eigs = [(-0.05, -2.0)]
        with pytest.raises(NegativeVarianceEstimate):
            identify.recover_b(axis_weights([ords], eigs, 1.0), eigs, 1.0, 0)

    def test_carma21_reference_round_trip(self):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        ords = identify.exact_axis_ordinates(spec, 0.2, 5)
        eigs = [identify.recover_axis_eigenvalues(o, 2) for o in ords]
        b0, b1 = identify.recover_b(axis_weights(ords, eigs, 1.0), eigs, 1.0, 1)
        assert b0 == pytest.approx(4.8940, abs=1e-8)
        assert b1 == pytest.approx(-1.1432, abs=1e-8)

    def test_carma21_condition_violated(self):
        eigs = [(-2.0, -6.0), (-2.0, -6.0)]
        dstar = [(1.0, 1.0), (1.0, 1.0)]
        with pytest.raises(RankDeficient):
            identify.recover_b(dstar, eigs, 1.0, 1)

    def test_carma21_corrupted_weights_rejected(self):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        dstar = [
            np.asarray([w for _, w in model.axis_variogram_coefficients(spec, a)])
            for a in range(2)
        ]
        dstar[0] = dstar[0] * np.array([1.0, -1.0])  # flip one weight
        with pytest.raises(InconsistentMonomials):
            identify.recover_b(dstar, REF_EIGS, 1.0, 1)

    def test_carma31_round_trip(self, rng):
        for _ in range(4):
            spec = oracles.random_spec(rng, d=2, p=3, q=1,
                                       allow_complex=False, b0_positive=True)
            dstar = [
                np.asarray(
                    [w for _, w in model.axis_variogram_coefficients(spec, a)]
                )
                for a in range(2)
            ]
            b0, b1 = identify.recover_b(
                dstar, spec.eigenvalues, spec.kappa2, 1
            )
            assert b0 == pytest.approx(spec.b[0], abs=1e-7)
            assert b1 == pytest.approx(spec.b[1], abs=1e-7)
            # monomial identity b0^2 * b1^2 = (b0 b1)^2
            assert (b0 * b0) * (b1 * b1) == pytest.approx((b0 * b1) ** 2, rel=1e-8)

    def test_carma21_small_b0_keeps_b1_sign(self):
        # b1 = (b0 b1) / b0 amplified the monomial error by 1 / b0, and a
        # b0^2 below tolerance was snapped to 0 with b1 reported positive
        spec = model.CarmaSpec(b=(0.0014, -0.76), eigenvalues=REF_EIGS)
        ords = identify.exact_axis_ordinates(spec, 0.2, 14)
        rec = identify.recover_spec(ords, 2, 1, 1.0)
        np.testing.assert_allclose(rec.b, spec.b, rtol=0, atol=1e-9)


class TestFullPipeline:
    def test_carma21_round_trip_3d(self, rng):
        for _ in range(3):
            spec = oracles.random_spec(
                rng, d=3, p=2, q=1, allow_complex=False, b0_positive=True
            )
            assert identify.check_identifiability(spec, 0.2).verdict == "identifiable"
            ords = identify.exact_axis_ordinates(spec, 0.2, 14)
            rec = identify.recover_spec(ords, 2, 1, spec.kappa2)
            np.testing.assert_allclose(rec.b, spec.b, rtol=0, atol=1e-7)
            for got, want in zip(rec.eigenvalues, spec.eigenvalues):
                np.testing.assert_allclose(
                    sorted_eigs(got), sorted_eigs(want), atol=1e-7
                )

    def test_carma21_on_the_line_is_rank_deficient(self):
        # one axis gives p = 2 weights for 3 monomials
        spec = model.CarmaSpec(b=(1.0, 0.3), eigenvalues=((-1.0, -2.0),))
        report = identify.check_identifiability(spec, 0.2)
        assert report.product_condition is False
        assert report.verdict == "not identifiable"
        ords = identify.exact_axis_ordinates(spec, 0.2, 14)
        with pytest.raises(RankDeficient):
            identify.recover_spec(ords, 2, 1, 1.0)

    def test_round_trip_menu(self, rng):
        count = 0
        while count < 20:
            menu = [(1, 0, None), (2, 0, None), (3, 0, None), (2, 1, 2), (3, 1, 2)]
            p, q, d = menu[int(rng.integers(0, len(menu)))]
            spec = oracles.random_spec(
                rng, d=d, p=p, q=q, allow_complex=False, b0_positive=True
            )
            delta = 0.35 if p == 3 else 0.2
            report = identify.check_identifiability(spec, delta)
            if report.verdict != "identifiable":
                continue
            count += 1
            ords = identify.exact_axis_ordinates(spec, delta, 3 * p + 8)
            rec = identify.recover_spec(ords, p, q, spec.kappa2)
            np.testing.assert_allclose(
                np.asarray(rec.b[: q + 1]), np.asarray(spec.b[: q + 1]), atol=1e-7
            )
            for got, want in zip(rec.eigenvalues, spec.eigenvalues):
                np.testing.assert_allclose(
                    sorted_eigs(got), sorted_eigs(want), atol=1e-7
                )

    # two p = 3 specs of criterion 6's menu that missed the 1e-7 gate
    # by 1.9e-7 and 1.75e-7 while the coefficients came from an inverted
    # Vandermonde matrix, and missed 1e-8 by 3.1e-8 and 7.5e-8 while the
    # roots came from a recurrence with an artificial unit root
    @pytest.mark.parametrize("spec", [
        model.CarmaSpec(
            b=(0.7506797814644077, -0.9926672698839774, 0.0),
            eigenvalues=((-0.7883309362283, -0.42668626479911304, -2.119725404149027),
                         (-1.2386034848501808, -1.53740069165125, -2.097552929614362)),
            kappa2=1.9400923788799473),
        model.CarmaSpec(
            b=(1.505464930572686, -1.7734345471521018, 0.0),
            eigenvalues=((-2.247228884906838, -1.5129059776349068, -1.7848757460104325),
                         (-1.2134245142347233, -1.9724094743619691, -2.476291188478131)),
            kappa2=1.5969033887229551),
    ], ids=["pool2-171", "pool2-384"])
    def test_round_trip_of_fixed_specs(self, spec):
        p, q, delta = spec.p, spec.q, 0.35
        assert identify.check_identifiability(spec, delta).verdict == "identifiable"
        ords = identify.exact_axis_ordinates(spec, delta, 3 * p + 8)
        rec = identify.recover_spec(ords, p, q, spec.kappa2)
        np.testing.assert_allclose(
            np.asarray(rec.b[: q + 1]), np.asarray(spec.b[: q + 1]), rtol=0, atol=1e-8
        )
        for got, want in zip(rec.eigenvalues, spec.eigenvalues):
            np.testing.assert_allclose(
                sorted_eigs(got), sorted_eigs(want), rtol=0, atol=1e-8
            )

    def test_noise_sensitivity_documented_band(self, rng):
        # relative ordinate noise 1e-6 moves the recovered eigenvalues
        # by O(1e-4) on a well-separated spec: median ~1.5e-4, and the
        # worst case stays a small factor above the linearized optimum
        # (~3e-4 sigma for the faster-decaying eigenvalue).  Criterion
        # 7's lag set (delta 0.04, 50 lags) on the reference spec's
        # first axis takes relative noise 1e-4 at median ~1.5e-2.
        cases = [
            (model.CarmaSpec(b=(1.0, 0.5), eigenvalues=((-0.8, -2.4), (-1.0, -2.0))),
             0.5, 20, 1e-6, 1e-3, 2.5e-3),
            (model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS), 0.04, 50, 1e-4, 0.05, 0.15),
        ]
        for spec, delta, j_max, level, median_band, max_band in cases:
            clean = identify.exact_axis_ordinates(spec, delta, j_max)
            errors = []
            for _ in range(20):
                vals = np.asarray(clean[0].values)
                vals = vals * (1.0 + level * rng.uniform(-1, 1, size=vals.size))
                vals[0] = 0.0
                noisy = identify.AxisOrdinates(axis=0, delta=delta, values=tuple(vals))
                eigs = identify.recover_axis_eigenvalues(noisy, 2)
                truth = sorted_eigs(spec.eigenvalues[0])
                got = sorted_eigs(eigs)
                errors.append(max(abs(g - t) for g, t in zip(got, truth)))
            assert np.median(errors) < median_band
            assert max(errors) < max_band


class TestMonomialSystem:
    def test_polarization_reproduces_axis_weights(self, rng):
        # the weights are a quadratic form in b, so the probed system
        # applied to the monomials b_i b_j gives back the spec's weights
        for _ in range(30):
            spec = oracles.random_spec(rng, d=int(rng.integers(1, 4)))
            rows = identify._quadratic_form_rows(spec.eigenvalues, spec.kappa2, spec.q)
            mono = [spec.b[i] * spec.b[j] for i, j in identify._monomials(spec.q)]
            weights = np.concatenate([
                [w for _, w in model.axis_variogram_coefficients(spec, axis)]
                for axis in range(spec.d)
            ])
            np.testing.assert_allclose(
                rows @ mono, np.concatenate([weights.real, weights.imag]),
                rtol=0.0, atol=1e-11 * np.max(np.abs(weights)),
            )

    @pytest.mark.parametrize("eigs, kappa2, error", [
        (((-1.0, -1.0 - 1e-8),), 1.0, DuplicateEigenvalue),
        (((-1.0 + 1j, -2.0),), 1.0, NonConjugateSet),
        (((-1.0, 0.5),), 1.0, InvalidSpec),
        (((-1.0, -2.0),), np.inf, InvalidSpec),
    ], ids=["duplicate", "non-conjugate", "unstable", "inf-kappa2"])
    def test_rejects_what_the_spec_rejects(self, eigs, kappa2, error):
        with pytest.raises(error):
            model.CarmaSpec(b=(1.0,), eigenvalues=eigs, kappa2=kappa2)
        with pytest.raises(error):
            identify.recover_b([(0.1, 0.2)], eigs, kappa2, 0)


class TestIdentifiabilityReport:
    def test_reference_identifiable(self):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        report = identify.check_identifiability(spec, 0.04)
        assert report.verdict == "identifiable"
        assert report.product_condition is True
        # the two eigenvalue products differ: 3.7237 vs 3.2828
        p1 = REF_EIGS[0][0] * REF_EIGS[0][1]
        p2 = REF_EIGS[1][0] * REF_EIGS[1][1]
        assert abs(p1 - p2) > 0.4

    def test_counterexample_not_identifiable(self):
        spec = model.CarmaSpec(b=(2.0, 4.0),
                               eigenvalues=((-2.0, -6.0), (-2.0, -6.0)))
        report = identify.check_identifiability(spec, 0.04)
        assert report.product_condition is False
        assert report.verdict == "not identifiable"

    def test_band_boundary_half_open(self):
        delta = 0.5
        band = np.pi / delta
        spec = model.CarmaSpec(
            b=(1.0, 0.3),
            eigenvalues=((complex(-1.0, band), complex(-1.0, -band)),),
        )
        report = identify.check_identifiability(spec, delta)
        assert report.imag_in_band == (False,)

    def test_unknown_order(self):
        # CARMA(3,2) on R^2: 6 monomials, rank 5
        spec = model.CarmaSpec(
            b=(1.0, 0.5, 0.25), eigenvalues=((-1.0, -2.0, -3.0), (-0.5, -1.5, -2.5))
        )
        report = identify.check_identifiability(spec, 0.1)
        assert report.verdict == "not identifiable"
        assert report.product_condition is False

    @pytest.mark.parametrize("delta", [(0.1, 0.1, 0.1), 0.0, -0.1, np.nan, np.inf])
    def test_spacing_must_be_finite_positive_per_axis(self, delta):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        with pytest.raises(ValidationError):
            identify.check_identifiability(spec, delta)
