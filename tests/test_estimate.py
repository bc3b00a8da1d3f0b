"""Matheron estimator, WLS fitting, covariances and model selection."""

import numpy as np
import pytest
from scipy import integrate, optimize

from carmafield import estimate, model, simulate, workflows
from carmafield.errors import (
    InvalidSpec,
    LagOutOfRange,
    MixedLagSets,
    NumericError,
    ValidationError,
    ZeroVariance,
)

import oracles

REF_B = (4.8940, -1.1432)
REF_EIGS = ((-1.7776, -2.0948), (-1.3057, -2.5142))


class TestEmpiricalVariogram:
    def test_constant_field(self):
        field = simulate.LatticeField(delta=1.0, values=np.full((6, 6), 3.7))
        emp = estimate.empirical_variogram(field, [(1.0, 0.0), (0.0, 2.0)])
        assert np.all(emp.ordinates == 0.0)

    def test_zero_lag(self):
        field = simulate.LatticeField(delta=0.5, values=np.arange(12.0).reshape(3, 4))
        emp = estimate.empirical_variogram(field, [(0.0, 0.0)])
        assert emp.ordinates[0] == 0.0
        assert emp.pair_counts[0] == 12

    def test_hand_enumerated_4x4(self):
        # row-major 1..16: a unit step along axis 1 changes the value
        # by 1, along axis 0 by 4; 12 pairs each
        field = simulate.LatticeField(
            delta=1.0, values=np.arange(1.0, 17.0).reshape(4, 4)
        )
        emp = estimate.empirical_variogram(field, [(1.0, 0.0), (0.0, 1.0)])
        assert emp.ordinates[0] == pytest.approx(16.0)
        assert emp.ordinates[1] == pytest.approx(1.0)
        assert list(emp.pair_counts) == [12, 12]

    def test_brute_force_random_lags(self, rng):
        values = rng.normal(size=(7, 9))
        field = simulate.LatticeField(delta=0.25, values=values)
        for kvec in [(2, 1), (-3, 2), (0, -4), (5, 0)]:
            lag = (0.25 * kvec[0], 0.25 * kvec[1])
            emp = estimate.empirical_variogram(field, [lag])
            acc = []
            for i in range(7):
                for j in range(9):
                    i2, j2 = i + kvec[0], j + kvec[1]
                    if 0 <= i2 < 7 and 0 <= j2 < 9:
                        acc.append((values[i2, j2] - values[i, j]) ** 2)
            assert emp.ordinates[0] == pytest.approx(np.mean(acc), rel=1e-12)
            assert emp.pair_counts[0] == len(acc)
            assert emp.pair_counts[0] == (7 - abs(kvec[0])) * (9 - abs(kvec[1]))

    @pytest.mark.parametrize(
        "case", ["d1", "d2-axis", "d2-mixed", "d3", "shifted-1e3", "smooth-td",
                 "widest-n-1", "d3-axis", "d2-two-slabs", "d3-slabs",
                 "strided-spectrum"]
    )
    def test_matches_direct_sum(self, case, monkeypatch):
        # the FFT cross terms and box sums against the slice-by-slice sum
        # of squared differences, axis and mixed-sign lags, d = 1..3
        rng = np.random.default_rng(sum(map(ord, case)))
        delta = 0.25
        if case == "d1":
            values = rng.normal(size=40)
            steps = [(1,), (7,), (-3,), (39,), (0,)]
        elif case == "d2-axis":
            values = rng.normal(size=(30, 40))
            steps = [(j, 0) for j in range(1, 11)] + [(0, j) for j in range(1, 11)]
        elif case == "d2-mixed":
            values = rng.normal(size=(30, 40))
            steps = [(2, -3), (-5, 7), (29, -39), (-1, -1), (4, 4), (0, 0)]
        elif case == "d3":
            values = rng.normal(size=(9, 11, 13))
            steps = [(1, 0, 0), (0, 2, 0), (0, 0, 3), (2, -1, 4), (-3, 5, -2), (8, 10, 12)]
        elif case == "widest-n-1":
            # each group's widest step is n_i - 1 on each of its axes
            values = rng.normal(size=(30, 40))
            steps = [(1, 0), (2, 0), (29, 0), (0, 1), (0, 39), (29, -39), (-29, 39),
                     (1, 1), (-3, 2)]
        elif case == "d3-axis":
            values = rng.normal(size=(9, 11, 13))
            steps = ([(j, 0, 0) for j in range(1, 9)] + [(0, j, 0) for j in range(1, 11)]
                     + [(0, 0, j) for j in range(1, 13)])
        elif case == "d2-two-slabs":
            # 400^2: each axis group's transforms take several slabs of
            # the default budget
            values = rng.normal(size=(400, 400))
            steps = [(j, 0) for j in range(1, 11)] + [(0, j) for j in range(1, 11)] + [(3, -5)]
        elif case == "d3-slabs":
            # a budget of 40 spectrum cells: one slab per index, or a few
            monkeypatch.setattr(estimate, "FFT_SLAB_CELLS", 40)
            values = rng.normal(size=(9, 11, 13))
            steps = [(1, 0, 0), (0, 4, 0), (0, 0, 12), (2, -1, 0), (-3, 0, 5),
                     (0, 10, -2), (8, -10, 12), (1, 1, 1)]
        elif case == "strided-spectrum":
            # numpy 1.x returns a transform along a leading axis as a
            # strided view; the power sum must not rely on the layout
            rfftn = np.fft.rfftn
            monkeypatch.setattr(np.fft, "rfftn",
                                lambda *a, **k: np.asfortranarray(rfftn(*a, **k)))
            values = rng.normal(size=(9, 11, 13))
            steps = [(1, 0, 0), (0, 4, 0), (0, 0, 12), (2, -1, 0), (8, -10, 12)]
        elif case == "shifted-1e3":
            values = rng.normal(size=(30, 40)) + 1e3
            steps = [(1, 0), (0, 3), (-4, 6), (12, 0)]
        else:
            # smooth field at a small spacing: increments small against
            # the spread, where the expansion cancels most
            spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0, -1.5), (-1.2, -2.0)))
            delta = 0.01
            values = simulate.simulate_truncated_discretized(
                spec, simulate.GaussianBasis(sigma2=1.0),
                m_steps=600, n=80, delta=delta, seed=3,
            ).values
            steps = [(j, 0) for j in range(1, 11)] + [(0, j) for j in range(1, 11)]
        field = simulate.LatticeField(delta=delta, values=values)
        lags = delta * np.asarray(steps, dtype=float)
        got = estimate.empirical_variogram(field, lags)
        want = oracles.empirical_variogram_direct(field, lags)
        np.testing.assert_allclose(got.ordinates, want.ordinates, rtol=1e-10, atol=0.0)
        np.testing.assert_array_equal(got.pair_counts, want.pair_counts)
        np.testing.assert_array_equal(got.lags, want.lags)

    @pytest.mark.parametrize("case", ["td-500", "smooth-td"])
    def test_accuracy_against_extended_precision(self, case):
        # against the direct sum in np.longdouble; the bound was fixed
        # before the first run
        if case == "td-500":
            spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
            field = simulate.simulate_truncated_discretized(
                spec, simulate.GaussianBasis(), 300, 500, 0.04, seed=17
            )
            lags = estimate.axis_lag_set(2, field.delta, 50)
        else:
            spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0, -1.5), (-1.2, -2.0)))
            field = simulate.simulate_truncated_discretized(
                spec, simulate.GaussianBasis(sigma2=1.0), m_steps=600, n=80, delta=0.01, seed=3,
            )
            lags = estimate.axis_lag_set(2, field.delta, 10)
        got = estimate.empirical_variogram(field, lags)
        want = oracles.empirical_variogram_direct(field, lags, dtype=np.longdouble)
        np.testing.assert_allclose(got.ordinates, want.ordinates, rtol=1e-12, atol=0.0)

    def test_near_constant_field(self, rng):
        # increments at the last bits of the values: the expansion may
        # round below zero, the ordinates must not
        values = 1e6 + 1e-9 * rng.normal(size=(20, 20))
        field = simulate.LatticeField(delta=1.0, values=values)
        lags = [(1.0, 0.0), (0.0, 1.0), (3.0, -2.0), (0.0, 0.0)]
        emp = estimate.empirical_variogram(field, lags)
        assert np.all(np.isfinite(emp.ordinates))
        assert np.all(emp.ordinates >= 0.0)
        assert emp.ordinates[-1] == 0.0
        # rows constant along axis 1: every increment there is exactly
        # zero, and the expansion rounds to either side of it (below
        # zero at several lags for this draw)
        profile = np.random.default_rng(7).normal(size=(50, 1))
        stripes = np.repeat(1e3 * profile, 60, axis=1)
        field = simulate.LatticeField(delta=1.0, values=stripes)
        emp = estimate.empirical_variogram(field, [(0.0, float(j)) for j in range(1, 10)])
        assert np.all(emp.ordinates >= 0.0)
        assert np.all(emp.ordinates <= 1e-12 * np.var(stripes))

    def test_lag_out_of_range(self):
        field = simulate.LatticeField(delta=1.0, values=np.zeros((4, 4)))
        with pytest.raises(LagOutOfRange):
            estimate.empirical_variogram(field, [(4.0, 0.0)])

    def test_lags_need_one_entry_per_axis(self):
        # a one-column lag on a 2-D field was read as the diagonal lag
        field = simulate.LatticeField(delta=0.5, values=np.arange(20.0).reshape(4, 5))
        for lags in ([[0.5]], [[0.5, 0.0, 0.5]], np.zeros((1, 2, 2))):
            with pytest.raises(ValidationError):
                estimate.empirical_variogram(field, lags)

    def test_axis_lag_set_needs_a_lag(self):
        for j_max in (0, -3):
            with pytest.raises(ValidationError, match=f"at least 1, got {j_max}"):
                estimate.axis_lag_set(2, 0.5, j_max)
        np.testing.assert_array_equal(estimate.axis_lag_set(2, 0.5, 1), [[0.5, 0.0], [0.0, 0.5]])

    def test_spacing_needs_one_entry_per_axis(self, tmp_path):
        with pytest.raises(ValidationError):
            estimate.axis_lag_set(2, (0.5,), 2)
        path = tmp_path / "vario.csv"
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        oracles.synthetic_variogram(spec, 0.2, 5).to_csv(path)
        with pytest.raises(ValidationError):
            estimate.EmpiricalVariogram.from_csv(path, delta=(0.2, 0.2, 0.2))

    def test_one_ordinate_and_pair_count_per_lag(self, tmp_path):
        lags = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
        ok = dict(lags=lags, ordinates=[1.0, 2.0, 3.0], pair_counts=[4, 5, 6],
                  delta=(0.5, 0.5))
        estimate.EmpiricalVariogram(**ok)
        for change in (dict(ordinates=[1.0, 2.0]), dict(pair_counts=[4, 5, 6, 7]),
                       dict(ordinates=[[1.0, 2.0, 3.0]]),
                       dict(pair_counts=[[4], [5], [6]]),
                       dict(lags=lags[None])):
            with pytest.raises(ValidationError):
                estimate.EmpiricalVariogram(**{**ok, **change})

    def test_lags_need_an_axis_column(self, tmp_path):
        with pytest.raises(ValidationError, match="one column per axis"):
            estimate.EmpiricalVariogram(lags=np.empty((2, 0)), ordinates=[0.5, 0.8],
                                        pair_counts=[100, 90], delta=())
        path = tmp_path / "vario.csv"
        path.write_text("ordinate,pair_count\n0.5,100\n0.8,90\n")
        with pytest.raises(ValidationError, match="one column per axis"):
            estimate.EmpiricalVariogram.from_csv(path)

    def test_csv_round_trip(self, tmp_path, rng):
        field = simulate.LatticeField(delta=0.5, values=rng.normal(size=(8, 8)))
        emp = estimate.empirical_variogram(
            field, estimate.axis_lag_set(2, 0.5, 3)
        )
        path = tmp_path / "vario.csv"
        emp.to_csv(path)
        back = estimate.EmpiricalVariogram.from_csv(path, delta=emp.delta)
        np.testing.assert_array_equal(back.lags, emp.lags)
        np.testing.assert_array_equal(back.ordinates, emp.ordinates)
        np.testing.assert_array_equal(back.pair_counts, emp.pair_counts)


def _axis_class(steps):
    """(axis, step) of a lag that moves a positive number of steps along
    one axis only, else None."""
    moved = np.flatnonzero(steps)
    if moved.size == 1 and steps[moved[0]] > 0:
        return int(moved[0]), int(steps[moved[0]])
    return None


class TestAxisLayout:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_a_per_lag_classification(self, rng, d):
        delta = tuple(rng.uniform(0.02, 0.5, size=d))
        for _ in range(25):
            k = int(rng.integers(1, 30))
            steps = np.zeros((k, d), dtype=int)
            for row, kind in enumerate(rng.integers(0, 4, size=k)):
                if kind == 0:  # an axis lag
                    steps[row, rng.integers(d)] = rng.integers(1, 9)
                elif kind == 1:  # a negative step on one axis
                    steps[row, rng.integers(d)] = -rng.integers(1, 9)
                elif kind == 2:  # any steps, mixed signs and axes
                    steps[row] = rng.integers(-4, 5, size=d)
                # kind 3 leaves the zero lag
            # repeat some rows, then shuffle them all
            steps = steps[rng.permutation(np.concatenate([np.arange(k),
                                                          rng.integers(0, k, size=k // 3)]))]
            lags = steps * np.asarray(delta)
            axes, others = estimate._axis_layout(delta, lags)
            classes = [_axis_class(row) for row in steps]
            assert list(axes) == sorted(axes)
            placed = np.concatenate([rows for rows, _ in axes.values()] + [others])
            np.testing.assert_array_equal(np.sort(placed), np.arange(len(steps)))
            np.testing.assert_array_equal(others, [r for r, c in enumerate(classes) if c is None])
            for axis, (rows, axis_steps) in axes.items():
                assert [classes[r] for r in rows] == [(axis, s) for s in axis_steps.tolist()]
                # ascending steps, equal steps in row order
                assert np.all(np.diff(axis_steps) >= 0)
                assert np.all(np.diff(rows)[np.diff(axis_steps) == 0] > 0)
            assert {c[0] for c in classes if c is not None} == set(axes)

    def test_read_once_from_the_variogram(self):
        lags = np.array([[0.0, 0.5], [0.5, 0.0], [0.0, 0.25], [0.5, 0.5]])
        emp = estimate.EmpiricalVariogram(lags=lags, ordinates=[1.0, 2.0, 3.0, 4.0],
                                          pair_counts=[4, 5, 6, 7], delta=(0.5, 0.25))
        axes, others = emp.axes
        assert emp.axes is emp.axes
        assert list(axes) == [0, 1]
        np.testing.assert_array_equal(axes[0][0], [1])
        np.testing.assert_array_equal(axes[1][0], [2, 0])
        np.testing.assert_array_equal(axes[1][1], [1, 2])
        np.testing.assert_array_equal(others, [3])
        # a lag off the lattice is refused when the layout is read, not before
        off = estimate.EmpiricalVariogram(lags=[[0.3, 0.0]], ordinates=[1.0], pair_counts=[4],
                                          delta=(0.5, 0.25))
        with pytest.raises(ValidationError, match="multiples of the spacing"):
            off.axes


class TestWeights:
    def test_quadratic_endpoints_j50(self):
        w = estimate.weights_quadratic(50)
        assert w[0] == pytest.approx(1.0)
        assert w[-1] == pytest.approx(0.01)

    def test_quadratic_endpoints_j25(self):
        w = estimate.weights_quadratic(25)
        assert w[0] == pytest.approx(1.0)
        assert w[-1] == pytest.approx(0.01)

    def test_exponential_value(self):
        w = estimate.weights_exponential(50, 0.04)
        assert w[0] == pytest.approx(np.exp(0.04))
        assert w[0] == pytest.approx(1.0408, abs=1e-4)

    def test_resolved_by_axis_step(self, rng):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        emp = oracles.synthetic_variogram(spec, 0.04, 5)
        w = estimate.resolve_weights(emp, "quadratic")
        table = estimate.weights_quadratic(5)
        np.testing.assert_allclose(w, np.concatenate([table, table]))
        # a lag keeps its weight wherever its row sits
        order = rng.permutation(emp.k)
        shuffled = estimate.EmpiricalVariogram(
            lags=emp.lags[order], ordinates=emp.ordinates[order],
            pair_counts=emp.pair_counts[order], delta=emp.delta,
        )
        for scheme in ("quadratic", "exponential"):
            np.testing.assert_array_equal(estimate.resolve_weights(shuffled, scheme),
                                          estimate.resolve_weights(emp, scheme)[order])


class TestObjective:
    def setup_method(self):
        self.spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        self.emp = oracles.synthetic_variogram(self.spec, 0.04, 50)
        self.weights = estimate.resolve_weights(self.emp, "quadratic")
        self.codec = estimate.ThetaCodec(p=2, q=1, d=2)
        self.theta0 = self.codec.from_spec(self.spec)

    def objective(self, theta):
        return estimate.wls_objective(theta, self.emp, self.weights, p=2, q=1)

    def test_zero_at_truth(self):
        assert self.objective(self.theta0) == pytest.approx(0.0, abs=1e-22)

    def test_nonnegative_and_local_minimum(self, rng):
        for _ in range(10):
            theta = self.theta0 + rng.uniform(-0.5, 0.5, size=6)
            if theta[0] < 0:
                theta[0] = 0.1
            theta[2:] = np.minimum(theta[2:], -0.05)
            assert self.objective(theta) >= 0.0
        for k in range(6):
            for sign in (-1, 1):
                bump = self.theta0.copy()
                bump[k] += sign * 1e-3
                assert self.objective(bump) > 0.0

    def test_invalid_spec_is_inf(self):
        theta = self.theta0.copy()
        theta[2] = theta[3]  # coincident eigenvalues
        assert self.objective(theta) == np.inf

    def test_label_swap_invariance(self):
        swapped = self.theta0[[0, 1, 3, 2, 4, 5]]
        assert self.objective(swapped) == pytest.approx(
            self.objective(self.theta0), abs=1e-20
        )


def _lag_menu(d, delta):
    """Axis lags j = 1..4 on every axis, then general lags of mixed signs."""
    steps = [[1] * d, [-2] + [1] * (d - 1), [0] * (d - 1) + [-3]]
    return estimate.EmpiricalVariogram(
        lags=np.vstack([estimate.axis_lag_set(d, delta, 4), delta * np.array(steps)]),
        ordinates=np.zeros(4 * d + 3), pair_counts=np.ones(4 * d + 3),
        delta=(delta,) * d,
    )


def _per_theta(codec, theta, emp):
    """The model ordinates of one theta, lag by lag, from the spec functions."""
    spec = codec.to_spec(theta)
    out = []
    for lag in emp.lags:
        nz = np.flatnonzero(lag)
        if nz.size == 1 and lag[nz[0]] > 0:
            out.append(model.axis_variogram(spec, int(nz[0]), lag[nz[0]])[0])
        else:
            out.append(model.variogram(spec, lag))
    return np.asarray(out)


class TestBatchedOrdinates:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_batch_matches_spec_functions(self, rng, d, p):
        for _ in range(4):
            spec = oracles.random_spec(rng, d=d, p=p)
            codec = estimate._spec_codec(spec)
            emp = _lag_menu(d, 0.3)
            problem = estimate._WlsProblem(emp, np.ones(emp.k), codec)
            # the spec, and three rows with b scaled and eigenvalues moved
            theta0 = codec.from_spec(spec)
            thetas = np.vstack([theta0] + [theta0 * rng.uniform(0.9, 1.1, theta0.size)
                                          for _ in range(3)])
            ords, failed = problem.ordinates(thetas)
            assert not failed.any()
            for theta, row in zip(thetas, ords):
                np.testing.assert_allclose(row, _per_theta(codec, theta, emp),
                                           rtol=1e-12, atol=0.0)

    def test_failed_rows_match_spec_exceptions(self):
        codec = estimate.ThetaCodec(p=3, q=1, d=2)
        emp = _lag_menu(2, 0.2)
        problem = estimate._WlsProblem(emp, np.ones(emp.k), codec)
        valid = np.array([1.2, 0.4, -0.5, -1.1, -2.0, -0.7, -1.6, -2.4])
        edge = valid.copy()
        edge[2] = 0.0  # an eigenvalue of 0 on the box edge
        close = valid.copy()
        close[3] = close[2] - 0.5 * model.MIN_EIGENVALUE_GAP
        zero_b = valid.copy()
        zero_b[:2] = 0.0
        # gaps of 2e-6 pass the gap check, so the row is defined
        vander = valid.copy()
        vander[2:5] = [-1.0, -1.0 - 2e-6, -1.0 - 4e-6]
        thetas = np.vstack([valid, edge, close, zero_b, vander, valid])
        ords, failed = problem.ordinates(thetas)
        expected = []
        for theta in thetas:
            try:
                _per_theta(codec, theta, emp)
            except (ValidationError, NumericError):
                expected.append(True)
            else:
                expected.append(False)
        assert expected == [False, True, True, True, False, False]
        np.testing.assert_array_equal(failed, expected)
        assert np.all(np.isnan(ords[failed]))
        wss = problem.objective(thetas)
        np.testing.assert_array_equal(np.isinf(wss), expected)
        assert problem.objective(vander) == wss[4]
        assert problem.objective(valid) == wss[0]

    def test_jacobian_matches_per_theta_differences(self, rng):
        for d, p in [(1, 1), (2, 2), (2, 3), (3, 2)]:
            spec = oracles.random_spec(rng, d=d, p=p)
            codec = estimate._spec_codec(spec)
            emp = _lag_menu(d, 0.25)
            theta0 = codec.from_spec(spec)
            ordinates = estimate._Ordinates(codec, emp.lags, emp.delta, emp.axes)
            jac = estimate._variogram_jacobian(ordinates, theta0)
            for i in range(theta0.size):
                h = estimate.JACOBIAN_REL_STEP * max(abs(theta0[i]), 1.0)
                up, dn = theta0.copy(), theta0.copy()
                up[i] += h
                dn[i] -= h
                want = (_per_theta(codec, up, emp) - _per_theta(codec, dn, emp)) / (2.0 * h)
                np.testing.assert_allclose(jac[:, i], want, rtol=1e-12, atol=0.0)

    def test_jacobian_outside_the_domain_raises(self):
        codec = estimate.ThetaCodec(p=1, q=0, d=1)
        lags = np.array([[0.5], [1.0]])
        ordinates = estimate._Ordinates(codec, lags, (0.5,), estimate._axis_layout((0.5,), lags))
        # theta0 itself is undefined (eigenvalue +1e-6): no step is taken back to it
        with pytest.raises(NumericError):
            estimate._variogram_jacobian(ordinates, np.array([1.0, 1e-6]))
        # a step of 1e-5 moves the eigenvalue -1e-6 to a positive real part,
        # so it steps one-sided from theta0
        theta = np.array([1.0, -1e-6])
        jac = estimate._variogram_jacobian(ordinates, theta)
        back = theta.copy()
        back[1] -= estimate.JACOBIAN_REL_STEP
        (at, below), failed = ordinates(np.vstack([theta, back]))
        assert not failed.any()
        np.testing.assert_array_equal(jac[:, 1], (at - below) / estimate.JACOBIAN_REL_STEP)

    def test_jacobian_steps_one_sided_at_the_box_edge(self):
        # theta + h crosses lambda = 0, where the model is undefined
        spec = model.CarmaSpec(b=(1.3,), eigenvalues=((-0.8,), (-1.4,)))
        emp = oracles.synthetic_variogram(spec, 0.1, 10)
        codec = estimate.ThetaCodec(p=1, q=0, d=2)
        problem = estimate._WlsProblem(emp, np.ones(emp.k), codec)
        box = np.transpose(codec.default_bounds())
        theta = np.array([1.0, -5e-6, -1.0])
        jac = estimate._variogram_jacobian(problem.ordinates, theta, box)
        assert np.all(np.isfinite(jac))
        # without the box the step leaves the model's domain instead: the
        # same one-sided step
        unbounded = estimate._variogram_jacobian(problem.ordinates, theta)
        assert unbounded.tobytes() == jac.tobytes()
        back = theta.copy()
        back[1] -= estimate.JACOBIAN_REL_STEP
        (at, below), _ = problem.ordinates(np.vstack([theta, back]))
        np.testing.assert_array_equal(jac[:, 1], (at - below) / estimate.JACOBIAN_REL_STEP)
        # an interior theta keeps its central steps, bit for bit
        interior = np.array([1.0, -0.5, -1.0])
        assert (estimate._variogram_jacobian(problem.ordinates, interior, box).tobytes()
                == estimate._variogram_jacobian(problem.ordinates, interior).tobytes())

    def test_jacobian_steps_one_sided_at_the_gap_edge(self):
        # theta's first-axis gap is one step of lambda12 plus half of
        # MIN_EIGENVALUE_GAP: lambda11 - h and lambda12 + h each end
        # within the gap of the other eigenvalue, where the model is undefined
        spec = model.CarmaSpec(b=(1.3,), eigenvalues=((-1.5, -2.5), (-1.2, -2.0)))
        emp = oracles.synthetic_variogram(spec, 0.1, 10)
        codec = estimate.ThetaCodec(p=2, q=0, d=2)
        problem = estimate._WlsProblem(emp, np.ones(emp.k), codec)
        box = np.transpose(codec.default_bounds())
        lam12 = (-1.5 - 0.5 * model.MIN_EIGENVALUE_GAP) / (1.0 - estimate.JACOBIAN_REL_STEP)
        theta = np.array([1.0, -1.5, lam12, -1.2, -2.0])
        h = estimate.JACOBIAN_REL_STEP * np.maximum(np.abs(theta), 1.0)
        assert abs(abs(theta[2] - theta[1]) - h[2]) < model.MIN_EIGENVALUE_GAP
        jac = estimate._variogram_jacobian(problem.ordinates, theta, box)
        # the box plays no part: the same steps without it
        unbounded = estimate._variogram_jacobian(problem.ordinates, theta)
        assert unbounded.tobytes() == jac.tobytes()
        ahead, behind = theta.copy(), theta.copy()
        ahead[1] += h[1]
        behind[2] -= h[2]
        (at, forward, backward), failed = problem.ordinates(np.vstack([theta, ahead, behind]))
        assert not failed.any()
        np.testing.assert_array_equal(jac[:, 1], (forward - at) / h[1])
        np.testing.assert_array_equal(jac[:, 2], (at - backward) / h[2])
        # the other coordinates keep their central steps
        central = np.vstack([theta + np.diag(h), theta - np.diag(h)])
        ords, _ = problem.ordinates(central)
        for i in (0, 3, 4):
            np.testing.assert_array_equal(jac[:, i], (ords[i] - ords[5 + i]) / (2.0 * h[i]))


class TestCodec:
    def test_real_round_trip(self):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        codec = estimate.ThetaCodec(p=2, q=1, d=2)
        theta = codec.from_spec(spec)
        back = codec.to_spec(theta)
        assert back.b == spec.b
        assert back.eigenvalues == spec.eigenvalues

    def test_complex_block_round_trip(self):
        spec = model.CarmaSpec(
            b=(1.0, 0.5),
            eigenvalues=((-1 + 2j, -1 - 2j), (-0.5, -2.0)),
        )
        codec = estimate.ThetaCodec(p=2, q=1, d=2, blocks=(("c",), ("r", "r")))
        theta = codec.from_spec(spec)
        np.testing.assert_allclose(theta, [1.0, 0.5, -1.0, 2.0, -0.5, -2.0])
        back = codec.to_spec(theta)
        assert back.eigenvalues == spec.eigenvalues

    def test_expand_dtype(self):
        thetas = np.array([[1.0, 0.5, -1.0, 2.0, -0.5, -2.0]])
        real = estimate.ThetaCodec(p=2, q=1, d=2)
        mixed = estimate.ThetaCodec(p=2, q=1, d=2, blocks=(("c",), ("r", "r")))
        assert real.expand(thetas)[1].dtype == np.float64
        lam = mixed.expand(thetas)[1]
        assert lam.dtype == np.complex128
        np.testing.assert_array_equal(lam[0, 0], [-1.0 + 2.0j, -1.0 - 2.0j])

    def test_from_spec_places_eigenvalues_by_kind(self):
        # the pair stands first on the axis, its block second
        spec = model.CarmaSpec(b=(1.0, 0.5), eigenvalues=((-0.5 + 1.5j, -0.5 - 1.5j, -2.0),))
        codec = estimate.ThetaCodec(p=3, q=1, d=1, blocks=(("r", "c"),))
        np.testing.assert_array_equal(codec.from_spec(spec), [1.0, 0.5, -2.0, -0.5, 1.5])

    def test_real_codec_refuses_a_complex_spec(self):
        spec = model.CarmaSpec(b=(1.0, 0.5), eigenvalues=((-1 + 2j, -1 - 2j),))
        with pytest.raises(ValidationError, match="axis 1 has 0 real eigenvalues and 1 conj"):
            estimate.ThetaCodec(p=2, q=1, d=1).from_spec(spec)

    def test_pair_conjugate_within_the_tolerance(self):
        # the spec accepts a pair whose members are conjugate within CONJUGATE_TOL
        partner = complex(-1.0, -2.0 - 0.5 * model.CONJUGATE_TOL)
        spec = model.CarmaSpec(b=(1.0, 0.5), eigenvalues=((partner, -1.0 + 2.0j),))
        codec = estimate.ThetaCodec(p=2, q=1, d=1, blocks=(("c",),))
        np.testing.assert_array_equal(codec.from_spec(spec), [1.0, 0.5, -1.0, 2.0])

    def test_default_bounds_shape(self):
        codec = estimate.ThetaCodec(p=2, q=1, d=2)
        bounds = codec.default_bounds()
        assert len(bounds) == codec.dim == 6
        assert bounds[0][0] == 0.0  # b0 >= 0 sign normalization


class TestFit:
    def test_noiseless_recovery(self):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        emp = oracles.synthetic_variogram(spec, 0.04, 50)
        config = estimate.FitConfig(p=2, q=1, weights="quadratic", seed=11)
        result = estimate.fit(emp, config)
        codec = estimate.ThetaCodec(p=2, q=1, d=2)
        truth = codec.from_spec(spec)
        np.testing.assert_allclose(result.theta_star, truth, atol=1e-4)
        assert result.wss < 1e-12
        assert result.diagnostics["lag_set"] == "axis-verified"

    def test_mixed_blocks_fit_places_the_pair_by_kind(self):
        # fit canonicalizes the spec, which puts the pair ahead of the real
        # eigenvalue that the config's blocks put first
        spec = model.CarmaSpec(b=(1.0, 0.5), eigenvalues=((-0.5 + 1.5j, -0.5 - 1.5j, -2.0),))
        emp = oracles.synthetic_variogram(spec, 0.1, 10)
        config = estimate.FitConfig(p=3, q=1, blocks=(("r", "c"),), seed=4, generations=20)
        result = estimate.fit(emp, config)
        codec = estimate.ThetaCodec(p=3, q=1, d=1, blocks=config.blocks)
        assert codec.to_spec(result.theta_star).canonical() == result.spec

    def test_diagnostics_count_evaluated_rows(self, monkeypatch):
        scored = []
        call = estimate._Ordinates.__call__
        monkeypatch.setattr(estimate._Ordinates, "__call__",
                            lambda self, thetas: scored.append(len(thetas)) or call(self, thetas))
        spec = model.CarmaSpec(b=(1.3,), eigenvalues=((-0.8,), (-1.4,)))
        emp = oracles.synthetic_variogram(spec, 0.1, 10)
        result = estimate.fit(emp, estimate.FitConfig(p=1, q=0, seed=2))
        diag = result.diagnostics
        # one population of 10 per searched coordinate (dim - 1: b's scale is
        # profiled out), drawn once and then once a generation
        assert diag["de_evaluations"] == 10 * (3 - 1) * (diag["de_generations"] + 1)
        assert diag["polish_evaluations"] > diag["polish_iterations"] > 0
        assert diag["de_evaluations"] + diag["polish_evaluations"] == sum(scored)
        assert diag["polish_converged"] is True

    def test_reported_wss_is_exact_at_a_double_root(self):
        # criterion 7's Gaussian replication 5 with the study's own DE
        # seed: the least-squares minimum over real eigenvalues is a
        # double root, where the eigen-expansion cancels
        emp, config = _criterion_7_fit(5)
        result = estimate.fit(emp, config)
        assert result.diagnostics["polish_converged"] is True
        # the exact WSS at theta_star, from the state-space form
        gamma0 = oracles.autocovariance_state_space(result.spec, (0.0, 0.0))
        exact = np.array([2.0 * (gamma0 - oracles.autocovariance_state_space(result.spec, lag))
                          for lag in emp.lags])
        resid = emp.ordinates - exact
        wss = float(np.sum(estimate.resolve_weights(emp, "quadratic") * resid * resid))
        assert result.wss == pytest.approx(wss, rel=1e-6)

    # the search ends in a second basin along the ridge, b1 near 0 against
    # about -2 at the floor, 8.9%, 6.3% and 0.83% above it (ROADMAP, Known
    # defects)
    _HIGHER_BASIN = pytest.mark.xfail(strict=True, reason="the fit stops in a higher "
                                      "basin on the (b0, b1) ridge")

    @pytest.mark.parametrize("stream", [
        21, 24, pytest.param(25, marks=_HIGHER_BASIN), pytest.param(30, marks=_HIGHER_BASIN),
        pytest.param(32, marks=_HIGHER_BASIN), 38,
    ])
    def test_reaches_the_multistart_floor_on_the_ridge(self, stream):
        # criterion 7's Gaussian fields on which polishes from other starts
        # once found a lower WSS than the fit's, every one along the
        # (b0, b1) ridge.  The oracle's grid and the tolerance (1e-3
        # relative) were fixed before the first run.
        emp, config = _criterion_7_fit(stream)
        result = estimate.fit(emp, config)
        floor, _ = oracles.wls_multistart(emp, estimate.resolve_weights(emp, "quadratic"), 2, 1)
        assert result.wss <= floor * (1.0 + 1e-3)

    def test_all_zero_variogram_raises_before_the_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(estimate, "_differential_evolution", no_search)
        emp = oracles.synthetic_variogram(model.CarmaSpec(b=(1.3,), eigenvalues=((-0.8,),)),
                                          0.1, 10)
        emp.ordinates[:] = 0.0
        with pytest.raises(ZeroVariance):
            estimate.fit(emp, estimate.FitConfig(p=1, q=0))

    def test_seeded_carma21_fit_is_bit_identical(self):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        emp = oracles.synthetic_variogram(spec, 0.04, 10)
        # a deterministic perturbation, so the optimum is not the truth
        emp.ordinates *= 1.0 + 0.02 * np.sin(np.arange(emp.k))
        config = estimate.FitConfig(p=2, q=1, seed=9, generations=40)
        first, second = estimate.fit(emp, config), estimate.fit(emp, config)
        assert first.theta_star.tobytes() == second.theta_star.tobytes()
        assert first.wss == second.wss
        assert first.diagnostics == second.diagnostics

    def test_canonical_eigenvalue_order(self):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        emp = oracles.synthetic_variogram(spec, 0.04, 50)
        config = estimate.FitConfig(p=2, q=1, seed=3, generations=120)
        result = estimate.fit(emp, config)
        for axis in result.spec.eigenvalues:
            assert axis[0].real >= axis[1].real

    @pytest.mark.parametrize("kappa2", [np.inf, np.nan, 0.0, -1.0])
    def test_bad_kappa2_raises_before_the_search(self, kappa2, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(estimate, "_differential_evolution", no_search)
        spec = model.CarmaSpec(b=(1.3,), eigenvalues=((-0.8,), (-1.4,)))
        emp = oracles.synthetic_variogram(spec, 0.1, 10)
        with pytest.raises(InvalidSpec):
            estimate.fit(emp, estimate.FitConfig(p=1, q=0, kappa2=kappa2))
        with pytest.raises(InvalidSpec):
            estimate.ThetaCodec(p=1, q=0, d=2, kappa2=kappa2)

    def test_insufficient_lag_set_is_reported(self):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        emp = oracles.synthetic_variogram(spec, 0.04, 4)  # needs j = 1..5
        result = estimate.fit(emp, estimate.FitConfig(p=2, q=1, generations=5))
        assert result.diagnostics["lag_set"] == (
            "insufficient (order (2,1) needs axis lags j=1..5 on every axis; "
            "axis 0 lacks [5]; axis 1 lacks [5])"
        )


def _criterion_7_fit(stream):
    """Criterion 7's Gaussian variogram of ``stream`` (case 1) and the study's fit config."""
    spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
    fine = simulate.simulate_truncated_discretized(
        spec, simulate.GaussianBasis(), 300, 1000, 0.02, seed=777, stream=stream
    )
    coarse = workflows._thin(fine, 2)
    emp = estimate.empirical_variogram(coarse, estimate.axis_lag_set(2, coarse.delta, 50))
    de_seed = np.random.SeedSequence(entropy=777, spawn_key=(stream, 977)).generate_state(1)[0]
    return emp, estimate.FitConfig(p=2, q=1, seed=int(de_seed) + 1)


class TestProfiledScore:
    """The search's WSS with b's scale profiled out, against the full objective."""

    @pytest.mark.parametrize("p, q, blocks", [
        (1, 0, None), (2, 1, None), (3, 2, None), (2, 1, (("c",), ("r", "r"))),
        (3, 2, (("r", "c"), ("c", "r"))),
    ])
    def test_equals_the_objective_at_the_best_scale(self, p, q, blocks, rng):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        emp = oracles.synthetic_variogram(spec, 0.04, 10)
        emp.ordinates *= 1.0 + 0.3 * np.sin(np.arange(emp.k))
        codec = estimate.ThetaCodec(p=p, q=q, d=2, blocks=blocks)
        problem = estimate._WlsProblem(emp, estimate.resolve_weights(emp, "quadratic"), codec)
        low, high = np.transpose(problem.bounds)
        rows = rng.uniform(low, high, size=(200, low.size))
        # eigenvalues at least 0.5 apart on each axis, where the model keeps
        # its accuracy (closer ones cancel: see ROADMAP, Known defects)
        _, lam = codec.expand(np.hstack([np.ones((200, 1)), rows]))
        gaps = np.abs(lam[:, :, :, None] - lam[:, :, None, :]) + np.where(np.eye(p), np.inf, 0)
        rows = rows[np.min(gaps, axis=(1, 2, 3)) >= 0.5][:30]
        scores = problem.profiled(rows)
        assert np.all(np.isfinite(scores))
        for row, score in zip(rows, scores):
            theta = problem.theta(row)
            u = theta[: q + 1] / np.linalg.norm(theta[: q + 1])
            assert u[0] >= 0.0
            np.testing.assert_allclose(score, problem.objective(theta), rtol=1e-10)
            # the scale is the best one in the box: a step either way that
            # stays inside scores higher
            for factor in (0.99, 1.01):
                bumped = theta.copy()
                bumped[: q + 1] *= factor
                if np.max(np.abs(bumped[: q + 1])) <= estimate.B_MAX:
                    assert problem.objective(bumped) > score

    def test_a_scale_past_the_box_is_clipped_onto_its_face(self):
        # data 400 times a model's: the best scale of b = (20, ...) leaves
        # the box [0, B_MAX] x [-B_MAX, B_MAX]
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        emp = oracles.synthetic_variogram(spec, 0.04, 10)
        emp.ordinates *= 400.0
        codec = estimate.ThetaCodec(p=2, q=1, d=2)
        problem = estimate._WlsProblem(emp, estimate.resolve_weights(emp, "quadratic"), codec)
        row = np.concatenate([[-0.3], codec.from_spec(spec)[2:]])
        theta = problem.theta(row)
        np.testing.assert_allclose(np.max(np.abs(theta[:2])), estimate.B_MAX, rtol=1e-15)
        np.testing.assert_allclose(theta[:2] / np.linalg.norm(theta[:2]),
                                   [np.cos(-0.3), np.sin(-0.3)], rtol=1e-14)
        np.testing.assert_allclose(problem.profiled(row[None])[0], problem.objective(theta),
                                   rtol=1e-10)

    def test_undefined_rows_score_inf(self):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        emp = oracles.synthetic_variogram(spec, 0.04, 10)
        codec = estimate.ThetaCodec(p=2, q=1, d=2)
        problem = estimate._WlsProblem(emp, estimate.resolve_weights(emp, "quadratic"), codec)
        rows = np.array([[0.2, -1.0, -1.0, -1.3, -2.5], [0.2, -1.0, -2.0, -1.3, -2.5]])
        scores = problem.profiled(rows)
        assert scores[0] == np.inf and np.isfinite(scores[1])


class TestDifferentialEvolution:
    """The package's driver against scipy's, with ``fit``'s settings."""

    def setup_method(self):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        self.emp = oracles.synthetic_variogram(spec, 0.04, 10)
        # a deterministic perturbation, so the optimum is not the truth
        self.emp.ordinates *= 1.0 + 0.02 * np.sin(np.arange(self.emp.k))

    def run_both(self, config, bounds=None):
        """Both drivers on one problem; returns the package's stop flag and
        the scores its objective returned, call by call."""
        codec = estimate.ThetaCodec(p=config.p, q=config.q, d=2, blocks=config.blocks)
        bounds = codec.default_bounds() if bounds is None else bounds
        weights = estimate.resolve_weights(self.emp, config.weights)
        problem = estimate._WlsProblem(self.emp, weights, codec)
        scores, theirs = [], []

        def objective(rows):
            out = problem.objective(rows)
            scores.append(out.copy())  # the driver updates its energies in place
            return out

        def reference(columns):
            theirs.append(columns.shape[1])
            return problem.objective(columns.T)

        x, generations, converged, rows_scored = estimate._differential_evolution(
            objective, bounds, config)
        ref = optimize.differential_evolution(
            reference, bounds=bounds,
            maxiter=config.generations, popsize=config.population_factor,
            mutation=estimate.DE_DIFFERENTIAL_WEIGHT, recombination=estimate.DE_CROSSOVER,
            tol=estimate.DE_TOL, seed=config.seed, init="latinhypercube", polish=False,
            vectorized=True, updating="deferred",
        )
        assert x.tobytes() == ref.x.tobytes()
        assert generations == ref.nit
        assert converged == ref.success
        assert rows_scored == sum(theirs)
        return converged, scores

    @pytest.mark.parametrize("p, q, blocks, seed", [
        (1, 0, None, 0), (1, 0, None, 7), (2, 0, None, 5), (2, 1, None, 0),
        (2, 0, (("c",), ("c",)), 1),
    ])
    def test_matches_scipy(self, p, q, blocks, seed):
        self.run_both(estimate.FitConfig(p=p, q=q, blocks=blocks, seed=seed))

    def test_matches_scipy_through_undefined_rows(self):
        # an eigenvalue box reaching past 0: rows with a positive
        # eigenvalue score +inf, from the first population on
        config = estimate.FitConfig(p=1, q=0, seed=3)
        bounds = [(0.0, estimate.B_MAX), (estimate.EIG_MIN, 1.0), (estimate.EIG_MIN, 1.0)]
        _, scores = self.run_both(config, bounds)
        assert np.isinf(scores[0]).any()
        assert any(np.isinf(s).any() for s in scores[1:])

    def test_generation_cap_matches_scipy(self):
        config = estimate.FitConfig(p=2, q=1, seed=4, generations=5)
        converged, scores = self.run_both(config)
        assert not converged
        assert len(scores) == 1 + config.generations


class TestDeStopTest:
    """Differential evolution's stop decision against ``np.std`` and ``np.mean``."""

    @staticmethod
    def reference(energies):
        return bool(not np.isinf(energies).any()
                    and np.std(energies) <= estimate.DE_TOL * np.abs(np.mean(energies)))

    def vectors(self, size, rng):
        """Energy vectors of ``size`` members: (name, vector) pairs."""
        half = np.where(np.arange(size) % 2, 1.0, -1.0)
        if size % 2:
            half[-1] = 0.0
        # mean 1 and a spread of exactly DE_TOL, then one ulp either side
        at = 1.0 + estimate.DE_TOL * half * np.sqrt(size / np.count_nonzero(half))
        cases = [
            ("equal", np.full(size, 3.25)),
            ("one-inf", np.r_[rng.uniform(1.0, 1.001, size - 1), np.inf]),
            ("all-inf", np.full(size, np.inf)),
            ("nan", np.r_[np.ones(size - 1), np.nan]),
            ("overflowing-sum", np.full(size, 1.5e308)),
            ("threshold", at),
            ("threshold-down", np.nextafter(at, 1.0)),
            ("threshold-up", np.nextafter(at, np.where(at > 1.0, 2.0, 0.0))),
            ("wide", rng.uniform(1.0, 2.0, size)),
            ("tight", rng.uniform(1.0, 1.0 + 1e-3, size)),
        ]
        for scale in (1e300, 1e-300):
            cases += [(f"{name}*{scale:g}", vec * scale) for name, vec in cases[5:]]
        return cases

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("size", [5, 30])
    def test_matches_numpy(self, size, rng):
        decisions = set()
        for name, energies in self.vectors(size, rng):
            want = self.reference(energies)
            got = estimate._de_converged(energies.copy())
            assert got == want, name
            decisions.add(want)
        assert decisions == {True, False}

    def test_threshold_cases_reach_both_decisions(self, rng):
        # the spread at the threshold is resolved by its last bit
        cases = dict(self.vectors(30, rng))
        near = [self.reference(cases[k]) for k in ("threshold-down", "threshold", "threshold-up")]
        assert True in near and False in near

    def test_leaves_the_energies_alone(self, rng):
        energies = rng.uniform(1.0, 1.001, 30)
        before = energies.copy()
        estimate._de_converged(energies)
        assert energies.tobytes() == before.tobytes()


class TestAic:
    # Reference AIC values correspond to unrounded sums of squares; the
    # 5-digit WSS inputs determine the criterion only to ~2.5e-3
    # absolute, so agreement is asserted relatively, plus an inverse
    # consistency check (implied WSS rounds back to the recorded one).
    TABLE = [
        (7.6132e-2, 3, -712.0453),
        (2.5769e-2, 5, -816.3761),
        (2.0113e-2, 6, -839.1583),
    ]

    def test_reference_values(self):
        for wss, p_params, aic in self.TABLE:
            assert estimate.aic_value(wss, p_params, 100) == pytest.approx(
                aic, rel=1e-4
            )

    def test_reference_values_inverse_consistency(self):
        for wss, p_params, aic in self.TABLE:
            implied = 100.0 * np.exp((aic - 2 * p_params) / 100.0)
            assert implied == pytest.approx(wss, rel=5e-5)

    def _fit_result(self, wss, p_params, k):
        return estimate.FitResult(
            theta_star=np.zeros(p_params),
            spec=model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0,),)),
            wss=wss,
            aic=estimate.aic_value(wss, p_params, k),
            p_params=p_params,
            k_lags=k,
        )

    def test_ranking_matches_reference_table(self):
        fits = [
            self._fit_result(7.6132e-2, 3, 100),
            self._fit_result(2.5769e-2, 5, 100),
            self._fit_result(2.0113e-2, 6, 100),
        ]
        ranked = estimate.model_select(fits)
        assert ranked[0].p_params == 6  # the (2,1) model wins
        for result, want in zip(ranked, (-839.1583, -816.3761, -712.0453)):
            assert result.aic == pytest.approx(want, rel=1e-4)

    def test_single_fit_unchanged(self):
        fit = self._fit_result(0.5, 3, 10)
        assert estimate.model_select([fit]) == [fit]

    def test_tie_broken_by_fewer_parameters(self):
        a = self._fit_result(0.5, 3, 10)
        b = self._fit_result(0.5, 5, 10)
        assert estimate.model_select([b, a])[0] is a

    def test_mixed_lag_sets_rejected(self):
        a = self._fit_result(0.5, 3, 10)
        b = self._fit_result(0.5, 3, 20)
        with pytest.raises(MixedLagSets):
            estimate.model_select([a, b])


def _dense_sandwich(codec, spec, lags, weights, basis, delta, vmat=None):
    """Sigma from explicit F and W matrices, in the theta layout of ``codec``."""
    layout = estimate._axis_layout((delta,) * spec.d, lags)
    ordinates = estimate._Ordinates(codec, lags, (delta,) * spec.d, layout)
    jac = estimate._variogram_jacobian(ordinates, codec.from_spec(spec))
    if vmat is None:
        tlist = np.vstack([np.zeros((1, spec.d)), lags])
        vmat = estimate.covariance_v_matrix(spec, tlist, basis, delta)
    k = lags.shape[0]
    fmat = np.hstack([np.full((k, 1), 2.0), -2.0 * np.eye(k)])
    wmat = np.diag(weights)
    bmat = np.linalg.inv(jac.T @ wmat @ jac)
    sigma = bmat @ jac.T @ wmat @ (fmat @ vmat @ fmat.T) @ wmat @ jac @ bmat
    return 0.5 * (sigma + sigma.T)


class TestEstimatorCovariance:
    def test_jacobian_matches_analytic_car1(self):
        # psi(tau) = kappa2 b0^2 (1 - exp(l tau)) / (-l)
        b0, lam, tau = 1.3, -0.8, 0.7
        spec = model.CarmaSpec(b=(b0,), eigenvalues=((lam,),))
        codec = estimate.ThetaCodec(p=1, q=0, d=1)
        lags = np.array([[tau]])
        ordinates = estimate._Ordinates(codec, lags, (tau,), estimate._axis_layout((tau,), lags))
        jac = estimate._variogram_jacobian(ordinates, codec.from_spec(spec))
        d_b0 = 2 * b0 * (1 - np.exp(lam * tau)) / (-lam)
        d_lam = b0 ** 2 * (
            tau * np.exp(lam * tau) / lam + (1 - np.exp(lam * tau)) / lam ** 2
        )
        assert jac[0, 0] == pytest.approx(d_b0, rel=1e-5)
        assert jac[0, 1] == pytest.approx(d_lam, rel=1e-5)

    def test_v_matrix_gaussian_against_direct_sum(self):
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0,),))
        basis = simulate.GaussianBasis(sigma2=1.0)
        delta = 0.5
        tlist = np.array([[0.0], [delta]])
        vmat = estimate.covariance_v_matrix(spec, tlist, basis, delta)
        ells = delta * np.arange(-200, 201)
        gam = np.asarray([model.autocovariance(spec, (l,)) for l in ells])

        def gamma_of(x):
            return model.autocovariance(spec, (x,))

        v01 = sum(
            g * gamma_of(l + 0.0 - delta) + gamma_of(l) * gamma_of(l - delta)
            for g, l in zip(gam, ells)
        )
        v00 = sum(2.0 * g * g for g in gam)
        assert vmat[0, 0] == pytest.approx(v00, rel=1e-9)
        assert vmat[0, 1] == pytest.approx(v01, rel=1e-9)

    def test_v_matrix_quartic_term_against_quadrature(self):
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.0,),))
        cp = simulate.CompoundPoissonBasis(
            intensity=1.0, jumps=simulate.RademacherJumps()
        )
        gauss = simulate.GaussianBasis(sigma2=1.0)
        assert cp.kappa2 == 1.0
        excess = cp.kappa4 - 3.0 * cp.kappa2 ** 2
        assert excess == pytest.approx(1.0)
        delta = 0.5
        tlist = np.array([[0.0], [delta]])
        v_cp = estimate.covariance_v_matrix(spec, tlist, cp, delta)
        v_g = estimate.covariance_v_matrix(spec, tlist, gauss, delta)
        # the difference isolates the quartic kernel-product sums
        ells = delta * np.arange(-80, 81)

        def quartic(ti, tj):
            total = 0.0
            for ell in ells:
                lo = max(0.0, -ti, -ell, -ell - tj)
                val, _ = integrate.quad(
                    lambda s: np.exp(-s)
                    * np.exp(-(s + ti))
                    * np.exp(-(s + ell))
                    * np.exp(-(s + ell + tj)),
                    lo,
                    lo + 25.0,
                    epsabs=1e-13,
                )
                total += val
            return total

        assert v_cp[0, 0] - v_g[0, 0] == pytest.approx(
            excess * quartic(0.0, 0.0), rel=1e-8
        )
        assert v_cp[0, 1] - v_g[0, 1] == pytest.approx(
            excess * quartic(0.0, delta), rel=1e-8
        )

    def test_v_matrix_quartic_term_3d_car1_factorises(self):
        # a CAR(1) kernel is b0 prod_i exp(lam_i s_i), so the quartic
        # lattice sum over Z^3 is b0^4 times a product of 1-D sums
        b0, lams, delta = 1.3, (-1.0, -1.5, -2.0), 0.5
        spec = model.CarmaSpec(b=(b0,), eigenvalues=tuple((lam,) for lam in lams))
        vg = simulate.VarianceGammaBasis()
        excess = vg.kappa4 - 3.0 * vg.kappa2 ** 2
        tlist = np.array([[0.0, 0.0, 0.0], [delta, 0.0, 0.0]])
        v_vg = estimate.covariance_v_matrix(spec, tlist, vg, delta)
        v_g = estimate.covariance_v_matrix(spec, tlist, simulate.GaussianBasis(), delta)
        ells = delta * np.arange(-80, 81)

        def axis_sum(lam, ti, tj):
            total = 0.0
            for ell in ells:
                lo = max(0.0, -ti, -ell, -ell - tj)
                val, _ = integrate.quad(
                    lambda s: np.exp(lam * (4.0 * s + ti + 2.0 * ell + tj)),
                    lo,
                    lo + 40.0,
                    epsabs=1e-14,
                )
                total += val
            return total

        for i, j in [(0, 0), (0, 1), (1, 1)]:
            quartic = b0 ** 4 * np.prod(
                [axis_sum(lam, tlist[i, a], tlist[j, a]) for a, lam in enumerate(lams)]
            )
            assert v_vg[i, j] - v_g[i, j] == pytest.approx(excess * quartic, rel=1e-8)

    @pytest.mark.parametrize(
        "basis", [simulate.GaussianBasis(), simulate.VarianceGammaBasis()],
        ids=["gaussian", "variance-gamma"],
    )
    @pytest.mark.parametrize(
        "spec, delta",
        [
            (model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS), 0.04),
            (
                model.CarmaSpec(
                    b=(1.2, 0.7), eigenvalues=((-0.9 + 2.1j, -0.9 - 2.1j), (-1.1, -2.3))
                ),
                0.1,
            ),
        ],
        ids=["ref-carma21", "complex-carma21"],
    )
    def test_v_matrix_matches_direct_lattice_sum(self, spec, delta, basis):
        lags = estimate.axis_lag_set(2, delta, 3)
        # two off-axis lags, one with a negative step
        tlist = np.vstack([np.zeros((1, 2)), lags, delta * np.array([[1, 2], [2, -1]])])
        vmat = estimate.covariance_v_matrix(spec, tlist, basis, delta)
        direct = oracles.covariance_v_direct(spec, tlist, basis, delta)
        np.testing.assert_allclose(vmat, direct, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize(
        "basis", [simulate.GaussianBasis(), simulate.VarianceGammaBasis()],
        ids=["gaussian", "variance-gamma"],
    )
    @pytest.mark.parametrize(
        "spec",
        [
            model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS),
            model.CarmaSpec(
                b=(1.2, 0.7), eigenvalues=((-0.9 + 2.1j, -0.9 - 2.1j), (-1.1, -2.3))
            ),
        ],
        ids=["ref-carma21", "complex-carma21"],
    )
    def test_v_matrix_on_long_lags_matches_direct_lattice_sum(self, spec, basis):
        # off-axis lags of both signs; the shifts t_i - t_j and -t_i - t_j
        # reach 24 steps on axis 0 and 22 on axis 1
        delta = 0.25
        steps = np.array([[0, 0], [10, 0], [0, 11], [4, -3], [-6, 9], [12, -10]])
        vmat = estimate.covariance_v_matrix(spec, delta * steps, basis, delta)
        direct = oracles.covariance_v_direct(spec, delta * steps, basis, delta)
        np.testing.assert_allclose(vmat, direct, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize(
        "shifts", [[0], [-1, 0, 1], [-25, -7, -1, 0, 1, 3, 25]],
        ids=["zero", "unit", "long"],
    )
    @pytest.mark.parametrize(
        "lam", [[-1.7776, -2.0948], [-0.9 + 2.1j, -0.9 - 2.1j]], ids=["real", "complex"],
    )
    def test_gamma_pair_sums_equal_the_stepwise_sum(self, lam, shifts):
        lam = model._eigenvalue_array(lam)
        m = [lam.reshape((1,) * c + (-1,) + (1,) * (4 - c)) for c in range(4)]
        shifts = np.asarray(shifts)
        for dl in (0.04, 0.3):
            got = estimate._gamma_pair_sums(m, dl, shifts)
            want = oracles.gamma_pair_sums_stepwise(m, dl, shifts)
            assert got.dtype == want.dtype == lam.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "basis", [simulate.GaussianBasis(sigma2=0.598),
                  simulate.VarianceGammaBasis(variance=0.598)],
        ids=["gaussian", "variance-gamma"],
    )
    def test_v_matrix_close_eigenvalues_mixed_b(self, basis):
        # close eigenvalues and b of mixed signs: the four-copy contraction
        # cancels more than gamma does, so the small entries (1.8e-4 against
        # 0.28) sit about 3e-9 from the brute force; this bounds that loss
        spec = model.CarmaSpec(
            b=(0.6786, -1.2827), eigenvalues=((-1.8535, -2.1536),), kappa2=0.598
        )
        tlist = np.array([[0.0], [0.6], [0.9], [-1.2]])
        vmat = estimate.covariance_v_matrix(spec, tlist, basis, 0.3)
        direct = oracles.covariance_v_direct(spec, tlist, basis, 0.3)
        np.testing.assert_allclose(vmat, direct, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize(
        "tlist, delta",
        [
            ([[0.0, 0.0], [0.5, 0.0]], -0.5),
            ([[0.0, 0.0], [0.5, 0.0]], 0.0),
            ([[0.0, 0.0], [0.5, 0.0]], (0.5,)),
            ([[0.0], [0.5]], 0.5),
            ([[0.0, 0.0], [0.74, 0.0]], 0.5),
        ],
        ids=["negative-spacing", "zero-spacing", "spacing-per-axis",
             "lag-columns", "off-lattice-lag"],
    )
    def test_v_matrix_rejects_bad_input(self, tlist, delta):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        with pytest.raises(ValidationError):
            estimate.covariance_v_matrix(
                spec, np.asarray(tlist), simulate.VarianceGammaBasis(), delta
            )

    def test_sigma_at_the_100_lag_menu(self):
        spec = model.CarmaSpec(b=REF_B, eigenvalues=REF_EIGS)
        lags = estimate.axis_lag_set(2, 0.04, 50)
        weights = np.tile(estimate.weights_quadratic(50), 2)
        sigma = estimate.asymptotic_covariance(
            spec, lags, weights, simulate.VarianceGammaBasis(), 0.04
        )
        scale = np.max(np.abs(sigma))
        assert np.all(np.isfinite(sigma))
        np.testing.assert_allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * scale)
        assert np.min(np.linalg.eigvalsh(sigma)) > -1e-10 * scale

    def test_sigma_shape_and_symmetry(self):
        # two lags: the weighted design needs K >= number of parameters
        # for its normal matrix to be invertible
        spec = model.CarmaSpec(b=(1.3,), eigenvalues=((-0.8,),))
        basis = simulate.GaussianBasis(sigma2=1.0)
        lags = np.array([[0.5], [1.0]])
        sigma = estimate.asymptotic_covariance(spec, lags, [1.0, 0.8], basis, 0.5)
        assert sigma.shape == (2, 2)
        np.testing.assert_allclose(sigma, sigma.T)
        eig = np.linalg.eigvalsh(sigma)
        assert np.all(eig > -1e-10)

    @pytest.mark.parametrize(
        "weights",
        [[1.0], [[1.0, 0.8]], [1.0, 0.0], [1.0, -0.8], [1.0, np.nan], ["a", "b"]],
        ids=["short", "2-d", "zero", "negative", "nan", "text"],
    )
    def test_bad_weights_rejected(self, weights):
        spec = model.CarmaSpec(b=(1.3,), eigenvalues=((-0.8,),))
        lags = np.array([[0.5], [1.0]])
        with pytest.raises(ValidationError):
            estimate.asymptotic_covariance(
                spec, lags, weights, simulate.GaussianBasis(), 0.5
            )
        emp = estimate.EmpiricalVariogram(
            lags=lags, ordinates=[0.5, 0.8], pair_counts=[10, 9], delta=(0.5,)
        )
        with pytest.raises(ValidationError):
            estimate.wls_objective([1.3, -0.8], emp, weights, p=1, q=0)

    def test_indexed_sandwich_matches_dense_matrices(self, monkeypatch, rng):
        # any V, symmetric or not: F V F' taken by indexing and W applied by
        # broadcasting give the explicit matrix products
        spec = model.CarmaSpec(b=(1.3,), eigenvalues=((-0.8,),))
        lags = estimate.axis_lag_set(1, 0.5, 4)
        weights = estimate.weights_quadratic(4)
        vmat = rng.normal(size=(5, 5))
        monkeypatch.setattr(estimate, "_v_matrix", lambda *args: vmat)
        basis = simulate.GaussianBasis()
        sigma = estimate.asymptotic_covariance(spec, lags, weights, basis, 0.5)
        want = _dense_sandwich(estimate.ThetaCodec(p=1, q=0, d=1), spec, lags, weights,
                               basis, 0.5, vmat)
        np.testing.assert_allclose(sigma, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("eigenvalues, blocks", [
        (((-0.9 + 2.1j, -0.9 - 2.1j), (-1.3, -2.4)), (("c",), ("r", "r"))),
        (((-1.0 - 2.0j, -3.0, -1.0 + 2.0j),), (("c", "r"),)),
    ], ids=["pair-first", "pair-around-a-real"])
    def test_sigma_reads_the_theta_layout_from_the_spec(self, eigenvalues, blocks):
        spec = model.CarmaSpec(b=(1.0, 0.5), eigenvalues=eigenvalues)
        assert estimate._spec_codec(spec).blocks == blocks
        lags = estimate.axis_lag_set(spec.d, 0.1, 10)
        weights = np.tile(estimate.weights_quadratic(10), spec.d)
        basis = simulate.GaussianBasis()
        sigma = estimate.asymptotic_covariance(spec, lags, weights, basis, 0.1)
        codec = estimate.ThetaCodec(p=spec.p, q=spec.q, d=spec.d, blocks=blocks)
        want = _dense_sandwich(codec, spec, lags, weights, basis, 0.1)
        # the normal matrix's condition (2.7e8 and 4.6e10) magnifies rounding
        # differences (W J against diag(w) J); a wrong layout moves Sigma by O(1)
        np.testing.assert_allclose(sigma, want, rtol=0.0, atol=1e-6 * np.max(np.abs(want)))

    def test_sigma_at_the_gap_edge(self):
        # lambda12 is one step plus half of MIN_EIGENVALUE_GAP from lambda11:
        # the Jacobian steps one-sided on both
        lam12 = (-1.5 - 0.5 * model.MIN_EIGENVALUE_GAP) / (1.0 - estimate.JACOBIAN_REL_STEP)
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-1.5, lam12), (-1.2, -2.0)))
        lags = estimate.axis_lag_set(2, 0.1, 10)
        weights = np.tile(estimate.weights_quadratic(10), 2)
        sigma = estimate.asymptotic_covariance(spec, lags, weights, simulate.GaussianBasis(), 0.1)
        scale = np.max(np.abs(sigma))
        assert np.all(np.isfinite(sigma))
        np.testing.assert_array_equal(sigma, sigma.T)
        assert np.min(np.linalg.eigvalsh(sigma)) > -1e-10 * scale

    def test_sigma_next_to_a_zero_eigenvalue(self):
        # a central step of lambda = -5e-6 crosses 0: it steps one-sided.
        # Sigma is not checked for PSD here: V's lattice sums reach 4e16
        # and cancel in F V F', which is left with rounding noise
        spec = model.CarmaSpec(b=(1.0,), eigenvalues=((-5e-6,),))
        lags = estimate.axis_lag_set(1, 0.1, 10)
        sigma = estimate.asymptotic_covariance(spec, lags, estimate.weights_quadratic(10),
                                               simulate.GaussianBasis(), 0.1)
        assert np.all(np.isfinite(sigma))
        np.testing.assert_array_equal(sigma, sigma.T)

    def test_single_lag_design_is_singular(self):
        from carmafield.errors import SingularDesign

        spec = model.CarmaSpec(b=(1.3,), eigenvalues=((-0.8,),))
        basis = simulate.GaussianBasis(sigma2=1.0)
        with pytest.raises(SingularDesign):
            estimate.asymptotic_covariance(spec, np.array([[0.5]]), [1.0],
                                           basis, 0.5)

    @pytest.mark.slow
    def test_monte_carlo_trace_band_car1(self):
        # desk-scale sanity of the sandwich: empirical covariance of
        # N^{d/2} (theta* - theta0) should match Sigma in trace within
        # a factor of 2
        b0, lam = 1.0, -1.0
        spec = model.CarmaSpec(b=(b0,), eigenvalues=((lam,),))
        basis = simulate.GaussianBasis(sigma2=1.0)
        delta, n, j_max = 0.5, 400, 3
        lags = estimate.axis_lag_set(1, delta, j_max)
        weights = estimate.weights_quadratic(j_max)
        sigma = estimate.asymptotic_covariance(spec, lags, weights, basis, delta)
        reps = 150
        estimates = []
        for rep in range(reps):
            field = simulate.simulate_truncated_discretized(
                spec, basis, m_steps=40, n=n, delta=delta, seed=321, stream=rep
            )
            emp = estimate.empirical_variogram(field, lags)
            config = estimate.FitConfig(
                p=1, q=0, weights="quadratic", seed=rep,
                generations=60, population_factor=8,
            )
            estimates.append(estimate.fit(emp, config).theta_star)
        estimates = np.asarray(estimates)
        scaled = np.sqrt(n) * (estimates - np.array([b0, lam])[None, :])
        emp_trace = float(np.trace(np.cov(scaled.T)))
        ratio = emp_trace / float(np.trace(sigma))
        assert 0.5 < ratio < 2.0
