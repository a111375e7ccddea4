import math

import numpy as np
import pytest

from rqf import flows, noise, zprocess
from rqf.diagnostics import ks_critical_value, ks_two_sample
from rqf.errors import NumericalError
from rqf.geometry import random_unit_vector

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


class TestSimulateRqf:
    def test_zero_horizon(self):
        traj = flows.simulate_rqf(E1, 0.0, 1e-3, 1)
        assert traj.states.shape == (1, 3)
        assert np.array_equal(traj.states[0], E1)

    def test_deterministic_given_seed(self):
        a = flows.simulate_rqf(E1, 0.5, 1e-2, 9)
        b = flows.simulate_rqf(E1, 0.5, 1e-2, 9)
        assert np.array_equal(a.states, b.states)

    def test_step_count_and_uniform_times(self):
        traj = flows.simulate_rqf(E1, 1.0, 1e-2, 1)
        assert len(traj.times) == 101
        assert np.allclose(np.diff(traj.times), 1e-2)

    def test_states_stay_unit(self):
        traj = flows.simulate_rqf(E1, 1.0, 1e-2, 3)
        assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) < 1e-12

    def test_dt_larger_than_horizon_rejected(self):
        with pytest.raises(ValueError):
            flows.simulate_rqf(E1, 0.5, 1.0, 1)

    def test_mean_inner_product_decay(self):
        # the generator of the matrix-noise flow is a quarter of the
        # Laplace-Beltrami operator, so E<X_t, x0> = exp(-(n-1) t / 4);
        # the often-quoted exp(-(n-1) t / 2) belongs to the vector-noise
        # motion, which runs at twice this clock (see the time-change test)
        reps = 4000
        fin = flows.batch_finals(E1[None, :], 1.0, 1e-3, 6001, reps)
        inner = fin[:, 0] @ E1
        se = inner.std(ddof=1) / math.sqrt(reps)
        assert abs(inner.mean() - math.exp(-0.5)) < 3 * se

    def test_time_change_equivalence_with_vector_noise(self):
        # law of <X_t, x0> matches the vector-noise motion at time t/2
        reps = 4000
        rqf_t1 = flows.batch_finals(E1[None, :], 1.0, 1e-3, 6002, reps)[:, 0] @ E1
        bm_t05 = flows.batch_finals(E1[None, :], 0.5, 1e-3, 6003, reps, sigma_q=0.0, sigma_w=1.0)[:, 0] @ E1
        stat, _ = ks_two_sample(rqf_t1, bm_t05)
        assert stat < ks_critical_value(reps, reps, 0.01)


class TestSimulateCoupled:
    def test_equal_initials_stay_bit_identical(self):
        ens = flows.simulate_coupled([E1, E1], 1.0, 1e-3, 12)
        a, b = ens.members
        assert np.array_equal(a.states, b.states)

    def test_antipodal_initials_stay_antipodal_bit_exact(self):
        ens = flows.simulate_coupled([E1, -E1], 1.0, 1e-3, 12)
        a, b = ens.members
        assert np.array_equal(a.states, -b.states)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            flows.simulate_coupled([E1, np.array([1.0, 0.0])], 1.0, 1e-3, 1)

    def test_orthogonal_pair_synchronizes(self):
        # |<X_T, Y_T>| > 0.999 at T=20 in at least 99% of realizations;
        # the scalar inner-product simulation gives the same verdict
        reps = 2000
        fin = flows.batch_finals(np.stack([E1, E2]), 20.0, 1e-3, 777, reps)
        inner = np.abs(np.einsum("ri,ri->r", fin[:, 0], fin[:, 1]))
        assert np.mean(inner > 0.999) >= 0.99
        oracle = zprocess.simulate_z_finals(0.0, 20.0, 1e-3, 778, reps)
        assert np.mean(np.abs(oracle) > 0.999) >= 0.99

    def test_monotone_synchronization_in_mean(self):
        # ensemble mean of min(dist, pi - dist) is non-increasing along the
        # run (paired comparison across checkpoints of the same paths)
        reps = 2000
        cps = [0.25, 0.5, 1.0, 2.0, 3.0]
        snap = flows.batch_finals(np.stack([E1, E2]), 3.0, 2e-3, 555, reps, checkpoints=cps)
        inner = np.einsum("kri,kri->kr", snap[:, :, 0], snap[:, :, 1])
        d = np.arccos(np.clip(inner, -1.0, 1.0))
        metric = np.minimum(d, np.pi - d)
        for k in range(len(cps) - 1):
            diff = metric[k + 1] - metric[k]
            assert diff.mean() <= 3 * diff.std(ddof=1) / math.sqrt(reps)

    def test_z_law_dimension_independent(self):
        # law of <X_t, Y_t> from z0 = 0 agrees between n = 2 and n = 5
        reps = 5000
        a2 = np.array([1.0, 0.0])
        b2 = np.array([0.0, 1.0])
        fin2 = flows.batch_finals(np.stack([a2, b2]), 1.0, 1e-3, 4100, reps)
        z2 = np.einsum("ri,ri->r", fin2[:, 0], fin2[:, 1])
        a5 = np.zeros(5)
        a5[0] = 1.0
        b5 = np.zeros(5)
        b5[1] = 1.0
        fin5 = flows.batch_finals(np.stack([a5, b5]), 1.0, 1e-3, 4200, reps)
        z5 = np.einsum("ri,ri->r", fin5[:, 0], fin5[:, 1])
        stat, _ = ks_two_sample(z2, z5)
        assert stat < ks_critical_value(reps, reps, 0.01)


class TestSimulateBias:
    def test_frozen_warns(self):
        with pytest.warns(UserWarning):
            flows.simulate_bias(E1, 0.1, 1e-2, 1, 0.0, 0.0)

    def test_frozen_constant(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = flows.simulate_bias(E1, 0.1, 1e-2, 1, 0.0, 0.0)
        assert np.array_equal(traj.states, np.broadcast_to(E1, traj.states.shape))

    def test_sigma_w_zero_bit_identical_to_rqf(self):
        a = flows.simulate_bias(E1, 1.0, 1e-3, 31, 1.0, 0.0)
        b = flows.simulate_rqf(E1, 1.0, 1e-3, 31)
        assert np.array_equal(a.states, b.states)

    def test_pure_bias_pair_reaches_singleton(self):
        # vector-noise-only coupled pairs collapse to one point (polar
        # branch only), dist < 0.01 by T = 20 in at least 95% of runs
        reps = 1000
        fin = flows.batch_finals(
            np.stack([E1, E2]), 20.0, 1e-2, 880, reps, sigma_q=0.0, sigma_w=1.0
        )
        inner = np.einsum("ri,ri->r", fin[:, 0], fin[:, 1])
        dist = np.arccos(np.clip(inner, -1.0, 1.0))
        assert np.mean(dist < 0.01) >= 0.95
        assert np.sum((np.pi - dist) < 0.01) == 0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            flows.simulate_bias(E1, 0.1, 1e-2, 1, -0.5, 0.0)


class TestNormPreservation:
    def test_renorm_defect_small_on_s4(self):
        # empirical bound: per-step defect below 10 dt for dt <= 1e-3
        rng = np.random.default_rng(17)
        x0 = random_unit_vector(5, rng)
        for dt in (1e-3, 5e-4):
            steps = int(round(2.0 / dt))
            path = noise.generate_path(901, 5, dt, steps, materialize=False)
            states = x0[None, :].copy()
            max_defect = flows._advance(states, path, -1.0, 0.0)
            assert max_defect < 10 * dt


class TestNonFiniteReporting:
    def test_nan_increment_names_its_step(self):
        db = np.zeros((100, 3, 3))
        db[37, 1, 2] = np.nan
        path = noise.ArrayPath(dt=1e-2, matrix_increments=db)
        with pytest.raises(NumericalError, match=r"noise increment at step 37\b"):
            flows.simulate_rqf(E1, 1.0, 1e-2, 0, path=path)

    def test_nan_vector_increment_in_second_block(self):
        db = np.zeros((1500, 3, 3))
        dw = np.zeros((1500, 3))
        dw[1200, 0] = np.inf
        path = noise.ArrayPath(dt=1e-3, matrix_increments=db, vector_increments=dw)
        with pytest.raises(NumericalError, match=r"step 1200\b"):
            flows.simulate_bias(E1, 1.5, 1e-3, 0, 1.0, 1.0, path=path)

    def test_keyed_path_names_seed_and_stream(self):
        class KeyedPath(noise.ArrayPath):
            seed = 11
            stream = 4

        db = np.zeros((20, 3, 3))
        db[5] = np.nan
        with pytest.raises(NumericalError, match=r"step 5 \(seed 11, stream 4\)"):
            flows.simulate_rqf(E1, 0.2, 1e-2, 11, path=KeyedPath(dt=1e-2, matrix_increments=db))

    def test_overflowing_state_names_its_step(self):
        db = np.zeros((30, 3, 3))
        db[12] = 1e200
        path = noise.ArrayPath(dt=1e-2, matrix_increments=db)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match=r"state at step 12\b"):
            flows.simulate_coupled([E1, E2], 0.3, 1e-2, 0, path=path)


class TestBatchFinals:
    @pytest.mark.parametrize("sigma_w", [0.0, 0.5])
    def test_block_seam_matches_single_runs_bit_exact(self, sigma_w):
        # 1536 steps cross the 1024-step noise block; checkpoints sit on
        # both sides of the seam, and two replicates per chunk give three
        # chunks
        dt = 2.0**-10
        initials = [E1, E2]
        chunk_bytes = 2 * noise.BLOCK_STEPS * (9 + 3) * 8
        snaps = flows.batch_finals(
            np.stack(initials), 1.5, dt, 41, 5, sigma_w=sigma_w, chunk_bytes=chunk_bytes,
            checkpoints=[1.0, 1025 * dt, 1.5],
        )
        for r in range(5):
            ens = flows.simulate_coupled(initials, 1.5, dt, 41, sigma_w=sigma_w, stream=r)
            record = np.stack([member.states for member in ens.members], axis=1)
            assert np.array_equal(snaps[:, r], record[[1024, 1025, 1536]])

    def test_matches_single_run_bit_exact(self):
        fin = flows.batch_finals(E1[None, :], 0.5, 1e-3, 77, 5)
        for r in range(5):
            single = flows.simulate_rqf(E1, 0.5, 1e-3, 77, stream=r)
            assert np.array_equal(fin[r, 0], single.final)

    def test_matches_single_run_with_vector_noise(self):
        # batched and single-realization kernels use different einsum
        # orderings, so agreement is to rounding, not bitwise
        fin = flows.batch_finals(np.stack([E1, E2]), 0.5, 1e-3, 99, 4, sigma_q=0.7, sigma_w=1.3)
        for r in range(4):
            ens = flows.simulate_coupled([E1, E2], 0.5, 1e-3, 99, sigma_q=0.7, sigma_w=1.3, stream=r)
            assert np.allclose(fin[r], ens.final_states, atol=1e-12)

    def test_thread_count_does_not_change_result(self):
        a = flows.batch_finals(E1[None, :], 0.2, 1e-3, 78, 8, threads=1, chunk_bytes=1 << 16)
        b = flows.batch_finals(E1[None, :], 0.2, 1e-3, 78, 8, threads=4, chunk_bytes=1 << 16)
        assert np.array_equal(a, b)

    def test_repeated_checkpoint_filled_each_time(self):
        snap = flows.batch_finals(E1[None, :], 0.3, 1e-3, 79, 3, checkpoints=[0.1, 0.1, 0.3])
        assert np.array_equal(snap[0], snap[1])

    def test_checkpoints_final_matches(self):
        snap = flows.batch_finals(E1[None, :], 0.3, 1e-3, 79, 3, checkpoints=[0.0, 0.1, 0.3])
        fin = flows.batch_finals(E1[None, :], 0.3, 1e-3, 79, 3)
        assert np.array_equal(snap[-1], fin)
        assert np.array_equal(snap[0], np.broadcast_to(E1, snap[0].shape))


class TestSimulatePhase:
    def test_zero_noise_constant(self):
        path = noise.ArrayPath(dt=1e-2, matrix_increments=np.zeros((50, 2, 2)))
        traj = flows.simulate_phase(1.2, 0.5, 1e-2, 0, path=path)
        assert np.array_equal(traj.angles, np.full(51, 1.2))

    def test_pi_shift_equivariance(self):
        # the fields are pi-periodic; the offset survives up to trig roundoff
        a = flows.simulate_phase(0.7, 1.0, 1e-3, 91)
        b = flows.simulate_phase(0.7 + math.pi, 1.0, 1e-3, 91)
        gap = np.remainder(b.angles - a.angles, 2.0 * math.pi)
        assert np.max(np.abs(gap - math.pi)) < 1e-9

    def test_angles_wrapped(self):
        traj = flows.simulate_phase(6.2, 2.0, 1e-2, 92)
        assert np.all((traj.angles >= 0) & (traj.angles < 2 * math.pi))

    def test_matches_two_dimensional_flow_in_law(self):
        # angle(X_T) from the n = 2 flow vs the circle reduction, matched
        # seeds; the reduction was derived for the ascent orientation
        reps = 5000
        phi0 = 0.3
        x0 = np.array([math.cos(phi0), math.sin(phi0)])
        fin = flows.batch_finals(x0[None, :], 1.0, 1e-3, 4500, reps, sign=1.0)
        sphere_angles = flows.circle_angle(fin[:, 0])
        phase_angles = flows.phase_finals(phi0, 1.0, 1e-3, 4500, reps)
        stat, _ = ks_two_sample(sphere_angles, phase_angles)
        assert stat < ks_critical_value(reps, reps, 0.01)

    def test_phase_finals_matches_single(self):
        finals = flows.phase_finals(0.3, 0.5, 1e-3, 93, 4)
        for r in range(4):
            traj = flows.simulate_phase(0.3, 0.5, 1e-3, 93, stream=r)
            assert finals[r] == pytest.approx(traj.final, abs=1e-12)


class TestSphereGridAndPullback:
    def test_grid_shapes(self):
        for n in (2, 3, 5):
            g = flows.sphere_grid(40, n, seed=1)
            assert g.shape == (40, n)
            assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)) < 1e-12

    def test_zero_horizon_returns_grid(self):
        grid = flows.sphere_grid(10, 3)
        res = flows.pullback_run(grid, 0.0, 1e-3, 5, diameter_tol=10.0)
        assert np.allclose(res.final_states, grid)

    def test_bipolar_configuration_forms(self):
        # single realization: two antipodal clusters, tight diameters
        grid = flows.sphere_grid(100, 3)
        res = flows.pullback_run(grid, 15.0, 1e-3, 3001)
        sm = res.summary
        assert sm.k == 2
        assert max(sm.diameters) < 1e-3
        assert float(np.dot(sm.poles[0], sm.poles[1])) < -0.999
        assert abs(sum(sm.masses) - 1.0) < 1e-12

    def test_mass_fractions_average_half(self):
        # over many realizations the two basins carry equal mass on average
        reps = 500
        grid = flows.sphere_grid(64, 3)
        fin = flows.batch_finals(grid, 8.0, 2e-3, 902, reps)
        fractions = np.empty(reps)
        for r in range(reps):
            second = fin[r].T @ fin[r] / fin[r].shape[0]
            axis = np.linalg.eigh(second)[1][:, -1]
            fractions[r] = np.mean(fin[r] @ axis >= 0)
        se = fractions.std(ddof=1) / math.sqrt(reps)
        assert abs(fractions.mean() - 0.5) < 3 * se
