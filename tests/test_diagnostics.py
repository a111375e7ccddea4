import math

import numpy as np
import pytest
from scipy import stats

from rqf import diagnostics, flows, noise
from rqf.diagnostics import (
    _ks_marginals,
    attractor_detect,
    coordinate_marginal_cdf,
    ks_critical_value,
    ks_two_sample,
    lyapunov_benettin,
    sync_metric,
    uniformity_check,
)
from rqf.errors import NumericalError
from rqf.geometry import random_unit_vector

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


class TestSyncMetric:
    def test_polar_and_antipolar_zero(self):
        assert sync_metric(E1, E1) == 0.0
        assert sync_metric(E1, -E1) == 0.0

    def test_orthogonal_max(self):
        assert sync_metric(E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_symmetries_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = random_unit_vector(4, rng)
            y = random_unit_vector(4, rng)
            m = sync_metric(x, y)
            assert sync_metric(y, x) == m
            assert sync_metric(-x, y) == m

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = sync_metric(random_unit_vector(3, rng), random_unit_vector(3, rng))
            assert 0.0 <= m <= math.pi / 2 + 1e-15

    def test_nan_stays_nan(self):
        # the clamp once turned NaN into -1, a metric of 0: a synchronized pair
        assert math.isnan(sync_metric([1.0, 0.0], [math.nan, 0.0]))


class TestKsTwoSample:
    def test_identical_samples_zero(self):
        a = np.arange(100.0)
        stat, p = ks_two_sample(a, a.copy())
        assert stat == 0.0

    def test_disjoint_supports_one(self):
        stat, _ = ks_two_sample(np.zeros(50), np.ones(50))
        assert stat == 1.0

    def test_self_calibration(self):
        # same-law draws pass at the 1% level in nearly all repetitions
        rng = np.random.default_rng(3)
        crit = ks_critical_value(5000, 5000, 0.01)
        passes = 0
        for _ in range(100):
            stat, p = ks_two_sample(rng.random(5000), rng.random(5000))
            passes += (p > 0.01) and (stat < crit)
        assert passes >= 98

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.array([]), np.ones(3))


class TestUniformityCheck:
    def test_exact_uniform_passes(self):
        rng = np.random.default_rng(4)
        samples = np.stack([random_unit_vector(3, rng) for _ in range(10_000)])
        report = uniformity_check(samples)
        assert report.passed
        assert report.mean_norm < report.mean_norm_bound

    def test_point_mass_flagged(self):
        samples = np.broadcast_to(E1, (500, 3)).copy()
        report = uniformity_check(samples)
        assert not report.passed
        assert report.mean_norm == pytest.approx(1.0)

    def test_marginal_cdf_endpoints(self):
        for n in (2, 3, 6):
            assert coordinate_marginal_cdf(-1.0, n) == pytest.approx(0.0, abs=1e-12)
            assert coordinate_marginal_cdf(0.0, n) == pytest.approx(0.5, abs=1e-12)
            assert coordinate_marginal_cdf(1.0, n) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_coordinate_uniform_for_n3(self):
        # Archimedes: on S^2 each coordinate is uniform on [-1, 1]
        u = np.linspace(-1, 1, 9)
        assert np.allclose(coordinate_marginal_cdf(u, 3), (u + 1) / 2, atol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            uniformity_check(np.broadcast_to(E1, (50, 3)))


def _tilted_sphere_samples(seed, count, n, tilt):
    # uniform on S^{n-1} at tilt 1; a tilt below 1 pushes each coordinate
    # outward, away from the uniform marginals
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return np.sign(x) * np.abs(x) ** tilt


class TestScipyEquivalence:
    """rqf.diagnostics computes KS without scipy.stats; these compare it to scipy.stats."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
    def test_marginal_cdf_is_the_beta_cdf(self, n):
        rng = np.random.default_rng(31)
        u = np.concatenate([rng.uniform(-1.0, 1.0, 20_000), [-1.0, 0.0, 1.0, -1.0 - 2**-52, 1.0 + 2**-52]])
        a = (n - 1) / 2.0
        assert np.array_equal(coordinate_marginal_cdf(u, n), stats.beta.cdf((u + 1.0) / 2.0, a, a))

    def test_ks_matches_kstest(self):
        in_band = out_of_band = 0
        decisions = set()
        for count in (141, 400, 2000, 10_000):
            for n, tilt in ((3, 1.0), (5, 1.0), (3, 0.97), (3, 0.9)):
                x = _tilted_sphere_samples(count + n, count, n, tilt)
                report = uniformity_check(x)
                d, p = _ks_marginals(x)
                assert report.ks_pvalues == p.tolist()
                exact_p = []
                for i in range(n):
                    cdf = lambda u: stats.beta.cdf((u + 1.0) / 2.0, (n - 1) / 2.0, (n - 1) / 2.0)
                    exact = stats.kstest(x[:, i], cdf)
                    approx = stats.kstest(x[:, i], cdf, method="approx")
                    assert d[i] == exact.statistic
                    assert p[i] == approx.pvalue
                    if count * d[i] ** 2 >= 2.2:
                        assert p[i] == exact.pvalue
                        in_band += 1
                    else:
                        out_of_band += 1
                    exact_p.append(exact.pvalue)
                expected = (report.mean_norm < report.mean_norm_bound
                            and report.cov_dev_diag < report.cov_dev_diag_bound
                            and report.cov_dev_off < report.cov_dev_off_bound
                            and min(exact_p) > report.level / n)
                assert report.passed == expected
                decisions.add(expected)
        # both bands, and both decisions, were exercised
        assert in_band > 0 and out_of_band > 0
        assert decisions == {True, False}


class TestAttractorDetect:
    def test_single_point_cluster(self):
        states = np.broadcast_to(E1, (25, 3)).copy()
        sm = attractor_detect(states, diameter_tol=1e-6)
        assert sm.k == 1
        assert sm.masses == [1.0]
        assert sm.diameters[0] == 0.0
        assert np.allclose(np.abs(sm.poles[0]), E1)

    def test_exact_split(self):
        states = np.concatenate([np.broadcast_to(E1, (10, 3)), np.broadcast_to(-E1, (10, 3))])
        sm = attractor_detect(states, diameter_tol=1e-6)
        assert sm.k == 2
        assert sorted(sm.masses) == [0.5, 0.5]
        assert np.dot(sm.poles[0], sm.poles[1]) == pytest.approx(-1.0, abs=1e-12)

    def test_antipodal_equivariance(self):
        rng = np.random.default_rng(5)
        a = random_unit_vector(3, rng)
        cloud = []
        for _ in range(30):
            v = rng.standard_normal(3) * 1e-4
            side = a if rng.random() < 0.6 else -a
            cloud.append((side + v) / np.linalg.norm(side + v))
        cloud = np.asarray(cloud)
        sm1 = attractor_detect(cloud, 1e-2)
        sm2 = attractor_detect(-cloud, 1e-2)
        assert sm1.k == sm2.k == 2
        assert sm1.masses == sm2.masses[::-1]
        assert np.allclose(sm1.poles[0], -sm2.poles[1], atol=1e-12)
        assert sm1.diameters == pytest.approx(sm2.diameters[::-1], abs=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_tolerance_rejected(self, tol):
        # a NaN tolerance once returned k = 1 for three orthogonal states
        with pytest.raises(ValueError, match="diameter_tol must be positive"):
            attractor_detect(np.eye(3), tol)

    def test_scattered_cloud_flagged(self):
        rng = np.random.default_rng(6)
        cloud = np.stack([random_unit_vector(3, rng) for _ in range(40)])
        sm = attractor_detect(cloud, diameter_tol=1e-3)
        assert sm.k == 0

    def test_masses_always_sum_to_one(self):
        rng = np.random.default_rng(7)
        cloud = np.stack([random_unit_vector(4, rng) for _ in range(9)])
        sm = attractor_detect(cloud, diameter_tol=10.0)
        assert abs(sum(sm.masses) - 1.0) < 1e-12

    def test_pure_bias_ensemble_is_single_cluster(self):
        # vector-noise-only ensembles collapse to one point, so detection
        # reports k = 1 in at least 95% of realizations at T = 20
        reps = 100
        grid = flows.sphere_grid(16, 3)
        fin = flows.batch_finals(grid, 20.0, 1e-2, 606, reps, sigma_q=0.0, sigma_w=1.0)
        singles = sum(attractor_detect(fin[r], 1e-2).k == 1 for r in range(reps))
        assert singles >= 0.95 * reps


class TestLyapunovBenettin:
    def test_frozen_dynamics_zero_exponent(self):
        est = lyapunov_benettin("sphere", {"n": 3, "sigma_q": 0.0}, 5.0, 1e-2, 0.1, seed=1)
        assert abs(est.lambda_) < 1e-6

    def test_phase_model_minus_one(self):
        est = lyapunov_benettin("phase", None, 500.0, 1e-3, 0.1, seed=2)
        assert est.lambda_ == pytest.approx(-1.0, abs=0.2)
        assert est.stderr < 0.12

    def test_sphere_two_matches_phase(self):
        a = lyapunov_benettin("phase", None, 400.0, 1e-3, 0.1, seed=3)
        b = lyapunov_benettin("sphere", {"n": 2}, 400.0, 1e-3, 0.1, seed=4)
        assert abs(a.lambda_ - b.lambda_) < 2 * math.hypot(a.stderr, b.stderr) + 0.05

    def test_renorm_interval_halving_consistent(self):
        a = lyapunov_benettin("phase", None, 300.0, 1e-3, 0.1, seed=5)
        b = lyapunov_benettin("phase", None, 300.0, 1e-3, 0.05, seed=5)
        assert abs(a.lambda_ - b.lambda_) <= 2 * (a.stderr + b.stderr)

    def test_deterministic_given_seed(self):
        a = lyapunov_benettin("phase", None, 50.0, 1e-3, 0.1, seed=6)
        b = lyapunov_benettin("phase", None, 50.0, 1e-3, 0.1, seed=6)
        assert a.lambda_ == b.lambda_

    def test_generic_sphere_model_runs(self):
        est = lyapunov_benettin("sphere", {"n": 3}, 30.0, 1e-3, 0.1, seed=7)
        assert est.lambda_ < 0.0  # synchronizing regime

    def test_vector_noise_sphere_exponent_negative(self):
        # pure vector noise synchronizes pairs too (criterion 11), so the
        # companion must contract
        est = lyapunov_benettin("sphere", {"n": 3, "sigma_q": 0.0, "sigma_w": 1.0}, 30.0, 1e-2, 0.1, seed=8)
        assert est.lambda_ < 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            lyapunov_benettin("phase", None, 10.0, 1e-2, 1e-3)
        with pytest.raises(ValueError):
            lyapunov_benettin("unknown", None, 10.0, 1e-3, 0.1)

    @pytest.mark.parametrize("T, dt, renorm_interval", [(math.inf, 1e-2, 0.1), (math.nan, 1e-2, 0.1),
                                                        (1.0, math.nan, 0.1), (1.0, 1e-2, math.nan)])
    def test_non_finite_times_rejected_by_name(self, T, dt, renorm_interval):
        # an infinite T once raised OverflowError, and a NaN "cannot convert float NaN"
        with pytest.raises(ValueError, match="T, dt and renorm_interval must be finite"):
            lyapunov_benettin("phase", None, T, dt, renorm_interval)

    def test_unexpected_parameters_rejected(self):
        # a misspelt key once ran silently on its default, and the phase
        # model dropped every parameter it was given
        with pytest.raises(ValueError, match="unexpected sphere parameters: sigmaw$"):
            lyapunov_benettin("sphere", {"n": 3, "sigmaw": 1.0}, 4.0, 0.01, 0.2, seed=1)
        with pytest.raises(ValueError, match="unexpected phase parameters: n, sigma_q$"):
            lyapunov_benettin("phase", {"n": 7, "sigma_q": 5.0}, 4.0, 0.01, 0.2, seed=1)
        empty = lyapunov_benettin("phase", {}, 4.0, 0.01, 0.2, seed=1)
        assert empty == lyapunov_benettin("phase", None, 4.0, 0.01, 0.2, seed=1)

    @pytest.mark.parametrize("delta0", [0.0, -1e-8, 1e-17, 1e-200])
    @pytest.mark.parametrize("model, params", [("phase", None), ("sphere", {"n": 2}), ("sphere", {"n": 3})])
    def test_unresolvable_delta0_rejected(self, model, params, delta0):
        # each estimator once divided by delta0 = 0 (n = 2 recursed without
        # end), blamed renorm_interval for a negative one or one lost to
        # rounding (1e-17), and n = 2 divided by its underflowed 1e-200
        with pytest.raises(ValueError, match="delta0"):
            lyapunov_benettin(model, params, 1.0, 1e-2, 0.1, delta0=delta0)

    @pytest.mark.parametrize("model, params", [("phase", None), ("sphere", {"n": 2}), ("sphere", {"n": 3})])
    def test_collapsed_separation_names_seed_stream_and_step(self, model, params):
        # a 40-unit interval lets the pair synchronize to rounding; each
        # estimator once reported only the ratio
        with pytest.raises(NumericalError, match=r"separation ratio .* at step 4000 \(seed 3, stream 0\)"):
            lyapunov_benettin(model, params, 80.0, 1e-2, 40.0, seed=3)

    @pytest.mark.parametrize("n", [2.7, 2.0, "2"])
    def test_non_integer_dimension_rejected(self, n):
        # int() once ran n = 2.7 as n = 2
        with pytest.raises(TypeError, match="n must be an integer"):
            lyapunov_benettin("sphere", {"n": n}, 1.0, 1e-2, 0.1)

    @pytest.mark.parametrize("params", [{"n": 2, "sign": 3.0}, {"n": 3, "sigma_q": -1.0},
                                        {"n": 3, "sigma_w": -0.5}])
    def test_invalid_sign_or_sigma_rejected(self, params):
        with pytest.raises(ValueError, match="sign|sigma"):
            lyapunov_benettin("sphere", params, 1.0, 1e-2, 0.1)


class TestHeunLift:
    @pytest.mark.parametrize("spi, intervals", [(7, 600), (128, 32), (1500, 3)])
    def test_streamed_interval_products_match_step_by_step(self, spi, intervals):
        # intervals that end inside, exactly at and across the 1024-step
        # slices: each log growth is that of the product taken one step at a
        # time.  At dt = 1e-3 an interval is at most 1.5 units; over 15 the
        # product's conditioning lets the two orders of rounding part by 3e-9
        path = noise.NoisePath(41, 3, 1e-3, spi * intervals)
        logs = np.empty(intervals)
        diagnostics._benettin_lift(path, logs, spi, -1.0)
        expected, b, frame = [], np.eye(3), np.eye(3)[:, :2]
        for k, dq in enumerate(noise.symmetrize(path.matrix_increments, -1.0), 1):
            b = (np.eye(3) + dq + dq @ dq / 2) @ b
            b /= np.abs(b).max()
            if k % spi == 0:
                frame, r = np.linalg.qr(b @ frame)
                expected.append(math.log(abs(r[1, 1] / r[0, 0])))
                b = np.eye(3)
        np.testing.assert_allclose(logs, expected, rtol=1e-10)

    def test_an_interval_of_1500_units_raises_without_overflow(self):
        # 15,000 steps in one product: rescaled, it collapses to rounding
        # and raises on a finite ratio, not on inf or NaN
        with pytest.raises(NumericalError, match=r"separation ratio \d\.\d{3}e-\d+ left .* "
                                                 r"at step 15000 \(seed 3, stream 0\)"):
            lyapunov_benettin("sphere", {"n": 2}, 3000.0, 0.1, 1500.0, seed=3)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_lift_agrees_with_the_sphere_heun_step(self, n):
        # two discretisations of one SDE on one noise path
        T, dt, renorm = 200.0, 1e-3, 0.1
        lift = lyapunov_benettin("sphere", {"n": n}, T, dt, renorm, seed=11)
        spi, intervals = diagnostics._benettin_grid(T, dt, renorm)
        logs = np.empty(intervals)
        diagnostics._benettin_sphere(noise.NoisePath(11, n, dt, spi * intervals), logs, spi, 1e-8, -1.0, 0.0)
        assert abs(lift.lambda_ - logs.mean() / (spi * dt)) < 0.01


def test_pullback_pole_directions_uniform():
    # poles a(w) mapped to the first-coordinate-positive hemisphere have
    # mean resultant length E|u_1| = 1/2 on S^2 when a(w) is uniform
    reps = 500
    grid = flows.sphere_grid(16, 3)
    fin = flows.batch_finals(grid, 10.0, 2e-3, 31415, reps)
    poles = np.empty((reps, 3))
    for r in range(reps):
        second = fin[r].T @ fin[r] / fin[r].shape[0]
        axis = np.linalg.eigh(second)[1][:, -1]
        poles[r] = axis * np.sign(axis[0] if axis[0] != 0 else 1.0)
    resultant = np.linalg.norm(poles.mean(axis=0))
    se = math.sqrt(1.0 / 12.0 / reps)  # Var|u_1| = 1/3 - 1/4
    assert abs(resultant - 0.5) < 3 * se + 2 * math.sqrt(2.0 / 3.0 / reps)
