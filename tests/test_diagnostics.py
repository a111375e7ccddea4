import math

import numpy as np
import pytest

from rqf import flows
from rqf.diagnostics import (
    attractor_detect,
    coordinate_marginal_cdf,
    ks_critical_value,
    ks_two_sample,
    lyapunov_benettin,
    sync_metric,
    uniformity_check,
)
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
