import math
import threading
import tracemalloc

import numpy as np
import pytest

from rqf import flows, noise, zprocess
from rqf.diagnostics import ks_critical_value, ks_two_sample
from rqf.errors import NumericalError
from rqf.geometry import random_unit_vector, unit_vector
from rqf.integrators import _heun_step

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

    @pytest.mark.parametrize("T, dt", [(math.inf, 0.01), (1.0, math.inf), (math.nan, 0.01), (1.0, math.nan)])
    def test_non_finite_horizon_or_step_rejected(self, T, dt):
        for run in (lambda: flows.batch_finals(E1[None], T, dt, 1, 2), lambda: zprocess.simulate_z(0.0, T, dt, 1)):
            with pytest.raises(ValueError, match="T and dt must be finite"):
                run()

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

    def test_longer_path_uses_its_first_steps(self):
        db = np.random.default_rng(23).normal(scale=0.1, size=(20, 3, 3))
        long = flows.simulate_rqf(E1, 0.1, 1e-2, 0, path=noise.ArrayPath(dt=1e-2, matrix_increments=db))
        short = flows.simulate_rqf(E1, 0.1, 1e-2, 0, path=noise.ArrayPath(dt=1e-2, matrix_increments=db[:10]))
        assert long.states.shape == (11, 3)
        assert np.array_equal(long.states, short.states)
        # a keyed path longer than the run matches the run's own path
        keyed = noise.generate_path(24, 3, 1e-2, 2000, with_vector=True, materialize=False)
        ens = flows.simulate_coupled([E1], 0.1, 1e-2, 24, sigma_w=0.5, path=keyed)
        assert ens.noise.steps == 10
        assert np.array_equal(ens.final_states, flows.simulate_coupled([E1], 0.1, 1e-2, 24, sigma_w=0.5).final_states)

    def test_supplied_path_with_another_dt_rejected(self):
        # 100 steps of dt = 1e-3 would otherwise drive a run to t = 1.0
        path = noise.generate_path(0, 3, 1e-3, 100, materialize=False)
        with pytest.raises(ValueError, match="dt"):
            flows.simulate_rqf(E1, 1.0, 1e-2, 0, path=path)
        phase_path = noise.ArrayPath(dt=1e-3, matrix_increments=np.zeros((100, 2, 2)))
        with pytest.raises(ValueError, match="dt"):
            flows.simulate_phase(0.3, 1.0, 1e-2, 0, path=phase_path)


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

    def test_supplied_path_without_vector_increments_rejected(self):
        path = noise.ArrayPath(dt=1e-2, matrix_increments=np.zeros((10, 3, 3)))
        with pytest.raises(ValueError, match="vector increments"):
            flows.simulate_bias(E1, 0.1, 1e-2, 1, 1.0, 0.5, path=path)


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

    def test_phase_nan_increment_names_its_step(self):
        # the circle runner reads its noise through the same intake
        db = np.zeros((20, 2, 2))
        db[10, 0, 1] = np.nan
        with pytest.raises(NumericalError, match=r"noise increment at step 10\b"):
            flows.simulate_phase(0.3, 0.2, 1e-2, 0, path=noise.ArrayPath(dt=1e-2, matrix_increments=db))

    def test_overflowing_state_names_its_step(self):
        db = np.zeros((30, 3, 3))
        db[12] = 1e200
        path = noise.ArrayPath(dt=1e-2, matrix_increments=db)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match=r"state at step 12\b"):
            flows.simulate_coupled([E1, E2], 0.3, 1e-2, 0, path=path)


class _StackedPath:
    """Keyed stand-in for a replicate read: dB of shape (R, steps, n, n) in 1024-step blocks."""

    seed = 11
    stream = 4

    def __init__(self, db):
        self.db = db

    def blocks(self):
        for pos in range(0, self.db.shape[1], noise.BLOCK_STEPS):
            yield self.db[:, pos : pos + noise.BLOCK_STEPS], None


def _reference_advance(states, path, q_scale, w_scale):
    # the loop spelled out step by step: worst defect per step, in floats
    worst = 0.0
    vector = bool(np.any(w_scale != 0.0))
    for dq_block, dw_block in noise._increments(path, q_scale):
        for j in range(dq_block.shape[-3]):
            out, norms = _heun_step(states, dq_block[..., j, :, :], dw_block[..., j, :] if vector else None, w_scale)
            worst = max(worst, float(norms.max()) - 1.0, 1.0 - float(norms.min()))
            states = out / norms
    return states, worst


class TestNormCheck:
    # each step's norms are checked before the states are renormalized, so
    # no on_step hook sees a state whose norm was NaN or infinite; the worst
    # defect is reduced per block.  (A zero norm cannot be reached through a
    # step: the field is tangent, so the corrected state has norm >= 1 up
    # to rounding.)  A noise entry of 1e40 leaves the corrected state finite
    # with a squared norm past the float range (infinite norm), 1e200
    # overflows the state itself (NaN norm).

    @staticmethod
    def _hook(seen):
        def on_step(k, states):
            assert np.isfinite(states).all() and (np.linalg.norm(states, axis=-1) > 0.5).all()
            seen.append(k)

        return on_step

    @pytest.mark.parametrize("size", [1e40, 1e200], ids=["inf-norm", "nan-norm"])
    @pytest.mark.parametrize("bad_step", [500, noise.BLOCK_STEPS - 1, noise.BLOCK_STEPS + 3])
    def test_bad_norm_raises_at_its_step_before_the_hook(self, size, bad_step):
        db = np.zeros((1500, 3, 3))
        db[bad_step] = size
        path = noise.ArrayPath(dt=1e-3, matrix_increments=db)
        seen = []
        states = np.stack([E1, E2])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match=rf"non-finite or zero state at step {bad_step}$"):
            flows._advance(states, path, -1.0, 0.0, self._hook(seen))
        assert seen[-1] == bad_step
        assert np.isfinite(states).all()

    @pytest.mark.parametrize("size", [1e40, 1e200], ids=["inf-norm", "nan-norm"])
    def test_bad_norm_in_one_replicate_names_its_stream(self, size):
        db = np.zeros((64, 1100, 3, 3))
        db[37, 700] = size
        seen = []
        states = np.broadcast_to(E1, (64, 1, 3)).copy()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match=r"state at step 700 \(seed 11, stream 41\)$"):
            flows._advance(states, _StackedPath(db), -1.0, 0.0, self._hook(seen))
        assert seen[-1] == 700

    @pytest.mark.parametrize("case", ["one path", "replicates with dW"])
    def test_max_defect_equals_per_step_reference_bit_exact(self, case):
        if case == "one path":
            path = noise.generate_path(902, 5, 0.02, 1500, materialize=False)
            initial = np.stack([unit_vector(np.arange(1.0, 6.0)), unit_vector(np.ones(5))])
            q_scale, w_scale = -1.0, 0.0
        else:
            path = noise._Replicates(903, 0, 7, 0.05, 1100, 300, noise._draws(3, True))
            initial = np.broadcast_to(np.stack([E1, E2, unit_vector(np.ones(3))]), (7, 3, 3))
            q_scale, w_scale = -0.7, -np.array([[0.0], [0.5], [4.0]])
        expected, worst = _reference_advance(initial.copy(), path, q_scale, w_scale)
        states = initial.copy()
        got = flows._advance(states, path, q_scale, w_scale)
        assert worst > 1e-6
        assert got == worst
        assert np.array_equal(states, expected)

    @pytest.mark.parametrize("at", [0, noise.BLOCK_STEPS - 1, noise.BLOCK_STEPS, 2 * noise.BLOCK_STEPS - 1])
    @pytest.mark.parametrize("side", ["high", "low"])
    def test_max_defect_of_one_step_at_a_block_edge(self, at, side):
        # one nonzero increment at the first or last step of a block; the
        # members are those whose norm after it lies above 1 (or below), so
        # the run's worst defect is that step's, on that side
        rng = np.random.default_rng(31)
        db = np.zeros((2 * noise.BLOCK_STEPS, 3, 3))
        db[at] = noise.symmetrize(rng.standard_normal((3, 3)) * 0.3)
        pool = rng.standard_normal((64, 3))
        pool /= np.linalg.norm(pool, axis=-1, keepdims=True)
        _, norms = _heun_step(pool, -db[at], None, 0.0)
        initial = pool[(norms[:, 0] > 1.0) == (side == "high")]
        assert len(initial) >= 8
        path = noise.ArrayPath(dt=1e-3, matrix_increments=db)
        _, worst = _reference_advance(initial.copy(), path, -1.0, 0.0)
        assert worst > 1e-4
        assert flows._advance(initial.copy(), path, -1.0, 0.0) == worst


class TestBatchFinals:
    def test_every_step_checkpointed_across_spans_bit_exact(self):
        # as in `rqf simulate`: a checkpoint at every step, in spans of
        # 2 + 1 replicates
        dt = 1e-3
        pair = np.stack([E1, E2])
        snaps = flows.batch_finals(pair, 0.05, dt, 44, 3, chunk_bytes=7200, checkpoints=dt * np.arange(51))
        assert len(noise._spans(44, 3, dt, 50, noise._draws(3, False), 7200)) == 2
        for r in range(3):
            ens = flows.simulate_coupled(pair, 0.05, dt, 44, stream=r)
            assert np.array_equal(snaps[:, r], np.stack([member.states for member in ens.members], axis=1))

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

    @pytest.mark.parametrize("sigma_w", [0.0, 0.5])
    @pytest.mark.parametrize("chunk_bytes", [8, 2 * 64 * 72])
    def test_narrow_slices_match_single_runs_bit_exact(self, chunk_bytes, sigma_w):
        # 8 bytes force 1-step slices of one replicate each; 9216 bytes give
        # two spans (2 + 1 replicates) with 48- or 64-step slices; 1100
        # steps cross the 1024-step block seam
        dt = 1e-3
        initials = [E1, E2]
        fin = flows.batch_finals(np.stack(initials), 1.1, dt, 43, 3, sigma_w=sigma_w, chunk_bytes=chunk_bytes)
        for r in range(3):
            ens = flows.simulate_coupled(initials, 1.1, dt, 43, sigma_w=sigma_w, stream=r)
            assert np.array_equal(fin[r], ens.final_states)

    @pytest.mark.parametrize("replicates, chunk_bytes", [(-1, 1 << 20), (3, 0), (3, -8)])
    def test_invalid_replicates_or_chunk_bytes_rejected(self, replicates, chunk_bytes):
        with pytest.raises(ValueError):
            flows.batch_finals(E1[None, :], 0.1, 1e-2, 81, replicates, chunk_bytes=chunk_bytes)

    @pytest.mark.parametrize("replicates, steps, count", [(100_000, 10, 18), (2000, 300, 3), (7, 1100, 1),
                                                          (100, 10**8, 1), (8, 300, 1)])
    def test_spans_cover_replicates_within_chunk_bytes(self, replicates, steps, count):
        # slices hold at least min(steps, 64) steps and never run past the
        # run; a 10-step run gets whole-run slices, not 64-step ones; no
        # horizon is refused
        per_step, chunk_bytes = 72, 1 << 22
        draws = noise._draws(3, False)
        assert noise._step_bytes(draws) == per_step
        spans = noise._spans(88, replicates, 1e-2, steps, draws, chunk_bytes)
        assert len(spans) == count
        assert [span.stream for span in spans] == [0] + [span.stream + span.count for span in spans[:-1]]
        assert spans[-1].stream + spans[-1].count == replicates
        for span in spans:
            assert (span.seed, span.dt, span.steps, span.draws) == (88, 1e-2, steps, draws)
            assert span.count * span.size * per_step <= chunk_bytes
            assert min(steps, noise._MIN_SLICE) <= span.size <= steps

    def test_horizon_over_a_gib_of_draws_matches_coupled_bit_exact(self):
        # 2,100 steps at n = 256 draw 1.1 GB in all, in 8-step slices of 4 MiB
        n, dt, steps = 256, 2.0**-10, 2100
        assert steps * noise._step_bytes(noise._draws(n, False)) > noise.DEFAULT_MEM_CAP
        x0 = random_unit_vector(n, np.random.default_rng(3))
        fin = flows.batch_finals(x0[None, :], steps * dt, dt, 57, 1, chunk_bytes=1 << 22)
        assert np.array_equal(fin[0], flows.simulate_coupled([x0], steps * dt, dt, 57, stream=0).final_states)

    def test_checkpoints_below_one_step_round_up(self):
        # t = 0, dt/2 and dt map to steps 0, 1 and 1 by the step-count rule
        dt = 1e-2
        snap = flows.batch_finals(E1[None, :], 0.1, dt, 80, 2, checkpoints=[0.0, dt / 2, dt])
        single = flows.simulate_rqf(E1, 0.1, dt, 80, stream=1)
        assert np.array_equal(snap[0, 1, 0], single.states[0])
        assert np.array_equal(snap[1, 1, 0], single.states[1])
        assert np.array_equal(snap[2, 1, 0], single.states[1])

    def test_normalised_initials_match_coupled_bit_exact(self):
        # both runners pass their initials through unit_vector, so each is
        # handed the grid point as drawn (its computed norm is not exactly 1)
        x = flows.sphere_grid(400, 3)[23]
        assert np.linalg.norm(x) != 1.0
        fin = flows.batch_finals(x[None], 0.3, 1e-3, 76, 3)
        for r in range(3):
            assert np.array_equal(fin[r], flows.simulate_coupled([x], 0.3, 1e-3, 76, stream=r).final_states)

    @pytest.mark.parametrize("n", [3, 4])
    def test_raw_grid_matches_coupled_bit_exact(self, n):
        grid = flows.sphere_grid(16, n, seed=5)
        fin = flows.batch_finals(grid, 0.2, 1e-2, 74, 2)
        for r in range(2):
            assert np.array_equal(fin[r], flows.simulate_coupled(grid, 0.2, 1e-2, 74, stream=r).final_states)

    def test_antipodal_grid_splits_exactly(self):
        # a grid with its negation: member i + g is -(member i) bit for bit in
        # every replicate; half the grid is off the sphere, so both branches
        # of unit_vector must stay odd; 9216 bytes give spans of 2 replicates
        grid = flows.sphere_grid(20, 3)
        half = np.concatenate([grid, 2.5 * grid])
        g = len(half)
        chunk_bytes = 2 * 64 * noise._step_bytes(noise._draws(3, False))
        assert len(noise._spans(75, 5, 1e-2, 100, noise._draws(3, False), chunk_bytes)) == 3
        fin = flows.batch_finals(np.concatenate([half, -half]), 1.0, 1e-2, 75, 5, chunk_bytes=chunk_bytes)
        assert np.array_equal(fin[:, g:], -fin[:, :g])

    @pytest.mark.parametrize("scales", [{"sign": 3.0}, {"sigma_q": -1.0}, {"sigma_w": -0.5}])
    def test_invalid_sign_or_sigma_rejected(self, scales):
        with pytest.raises(ValueError, match="sign|sigma"):
            flows.batch_finals(E1[None, :], 0.1, 1e-2, 82, 2, **scales)

    def test_per_member_sigma_w_matches_one_run_per_ratio(self):
        # a bias scan as one run: member pair i of the tiled pair has
        # sigma_w = ratios[i] and equals a run of that ratio alone, bit for
        # bit; the ratio-0 pair equals the run without vector noise.  1100
        # steps cross the block seam, and 12288 bytes give spans of 2 + 1
        # replicates
        ratios = np.array([0.0, 0.5, 4.0])
        pair = np.stack([E1, E2])
        chunk_bytes = 2 * 64 * noise._step_bytes(noise._draws(3, True))
        assert len(noise._spans(84, 3, 1e-3, 1100, noise._draws(3, True), chunk_bytes)) == 2
        scan = flows.batch_finals(np.tile(pair, (3, 1)), 1.1, 1e-3, 84, 3,
                                  sigma_w=np.repeat(ratios, 2), chunk_bytes=chunk_bytes)
        for i, ratio in enumerate(ratios):
            assert np.array_equal(scan[:, 2 * i : 2 * i + 2], flows.batch_finals(pair, 1.1, 1e-3, 84, 3, sigma_w=ratio))
        assert np.array_equal(scan[:, :2], flows.batch_finals(pair, 1.1, 1e-3, 84, 3))

    @pytest.mark.parametrize("sigma_w", [[0.5, -0.5], [0.5, np.nan], [0.5, 0.5, 0.5], [0.5], [[0.5, 0.5]]])
    def test_invalid_per_member_sigma_w_rejected(self, sigma_w):
        # a negative or NaN entry, or not one value per initial state
        with pytest.raises(ValueError, match="sigma_w"):
            flows.batch_finals(np.stack([E1, E2]), 0.1, 1e-2, 82, 2, sigma_w=sigma_w)

    def test_per_member_sigma_w_only_in_batch_finals(self):
        with pytest.raises(ValueError, match="sigma_w"):
            flows.simulate_coupled([E1, E2], 0.1, 1e-2, 82, sigma_w=[0.5, 0.5])

    def test_matches_single_run_bit_exact(self):
        fin = flows.batch_finals(E1[None, :], 0.5, 1e-3, 77, 5)
        for r in range(5):
            single = flows.simulate_rqf(E1, 0.5, 1e-3, 77, stream=r)
            assert np.array_equal(fin[r, 0], single.final)

    def test_matches_single_run_with_vector_noise(self):
        fin = flows.batch_finals(np.stack([E1, E2]), 0.5, 1e-3, 99, 4, sigma_q=0.7, sigma_w=1.3)
        for r in range(4):
            ens = flows.simulate_coupled([E1, E2], 0.5, 1e-3, 99, sigma_q=0.7, sigma_w=1.3, stream=r)
            assert np.array_equal(fin[r], ens.final_states)

    def test_thread_count_does_not_change_result(self):
        a = flows.batch_finals(E1[None, :], 0.2, 1e-3, 78, 8, threads=1, chunk_bytes=1 << 16)
        b = flows.batch_finals(E1[None, :], 0.2, 1e-3, 78, 8, threads=4, chunk_bytes=1 << 16)
        assert np.array_equal(a, b)

    def test_repeated_checkpoint_filled_each_time(self):
        snap = flows.batch_finals(E1[None, :], 0.3, 1e-3, 79, 3, checkpoints=[0.1, 0.1, 0.3])
        assert np.array_equal(snap[0], snap[1])

    # a non-finite time was once rounded onto the step grid before its range was checked
    @pytest.mark.parametrize("bad", [-1e-12, -0.05, 0.3 + 1e-3, 1.0, math.inf, -math.inf, math.nan])
    def test_checkpoints_outside_horizon_rejected(self, bad):
        with pytest.raises(ValueError, match=r"checkpoints must lie in \[0, T=0.3\]"):
            flows.batch_finals(E1[None, :], 0.3, 1e-3, 79, 2, checkpoints=[0.0, bad])

    def test_checkpoints_on_the_step_grid_accepted(self):
        # T * 24 / 24 and 300 * dt round onto the final step
        T, dt = 0.3, 1e-3
        snap = flows.batch_finals(E1[None, :], T, dt, 79, 2, checkpoints=[T * 24 / 24.0, 300 * dt, T])
        assert np.array_equal(snap[0], snap[2]) and np.array_equal(snap[1], snap[2])

    def test_checkpoints_final_matches(self):
        snap = flows.batch_finals(E1[None, :], 0.3, 1e-3, 79, 3, checkpoints=[0.0, 0.1, 0.3])
        fin = flows.batch_finals(E1[None, :], 0.3, 1e-3, 79, 3)
        assert np.array_equal(snap[-1], fin)
        assert np.array_equal(snap[0], np.broadcast_to(E1, snap[0].shape))


PAIR = np.stack([E1, E2])

# batched runs, each of whose replicate reads is read ahead: one wide span
# whose 1100 steps cross the block seam, spans of 2 + 1 replicates on
# 64-step slices, 1-step slices that cannot be halved, a bias scan with one
# sigma_w per member and checkpoints on both sides of the seam, and the
# circle model
AHEAD_RUNS = {
    "wide": lambda: flows.batch_finals(PAIR, 1.1, 1e-3, 43, 3),
    "spans": lambda: flows.batch_finals(PAIR, 1.1, 1e-3, 43, 3, chunk_bytes=2 * 64 * 72),
    "one-step": lambda: flows.batch_finals(PAIR, 0.05, 1e-3, 43, 3, chunk_bytes=8),
    "scan": lambda: flows.batch_finals(np.tile(PAIR, (3, 1)), 1.1, 1e-3, 84, 3,
                                       sigma_w=np.repeat([0.0, 0.5, 4.0], 2), chunk_bytes=2 * 64 * 96,
                                       checkpoints=[0.3, 1.024, 1.025, 1.1]),
    "phase": lambda: flows.phase_finals(0.3, 1.1, 1e-3, 85, 5),
}


class TestReadAhead:
    @pytest.mark.parametrize("run", AHEAD_RUNS.values(), ids=AHEAD_RUNS.keys())
    def test_read_ahead_equals_serial_bit_exact(self, monkeypatch, run):
        # the serial side passes each read through on the calling thread
        before = threading.active_count()
        ahead = noise._ahead
        monkeypatch.setattr(noise, "_ahead", lambda slices: slices)
        serial = run()
        reads = []
        monkeypatch.setattr(noise, "_ahead", lambda slices: reads.append(slices) or ahead(slices))
        assert np.array_equal(run(), serial)
        assert reads
        assert threading.active_count() == before

    def test_non_finite_increment_on_the_helper_names_the_serial_step(self, monkeypatch):
        # NaN in dB of replicate 4 at step 700; 13824 bytes give spans of
        # 3 + 3 replicates on 64-step slices, read ahead in 32-step halves
        real = noise._slice
        poisoned_on = []

        def poisoned(seed, stream, rngs, start, take, *rest):
            db, dw = real(seed, stream, rngs, start, take, *rest)
            if stream <= 4 < stream + len(rngs) and start <= 700 < start + take:
                db[4 - stream, 700 - start, 0, 1] = np.nan
                poisoned_on.append(threading.current_thread())
            return db, dw

        monkeypatch.setattr(noise, "_slice", poisoned)
        before = threading.active_count()
        messages = []
        ahead = noise._ahead
        for read in (lambda slices: slices, ahead):  # serial on this thread, then ahead
            monkeypatch.setattr(noise, "_ahead", read)
            with pytest.raises(NumericalError) as err:
                flows.batch_finals(E1[None], 1.1, 1e-3, 86, 6, chunk_bytes=3 * 64 * 72)
            messages.append(str(err.value))
            assert threading.active_count() == before
        assert messages == ["non-finite noise increment at step 700 (seed 86, stream 4)"] * 2
        assert poisoned_on[0] is threading.main_thread()
        assert poisoned_on[1] is not threading.main_thread()

    def test_run_shorter_than_a_slice_is_read_ahead_in_halves(self, monkeypatch):
        # 8 replicates of 300 steps fit one 128 MiB slice, which ends with the
        # run: it is read in two 150-step halves, both drawn on the helper
        # while this thread steps, and keeps the single runs' bits
        real, drawn = noise._slice, []
        monkeypatch.setattr(noise, "_slice", lambda *a: drawn.append((a[3], a[4], threading.current_thread()))
                            or real(*a))
        fin = flows.batch_finals(E1[None], 3.0, 0.01, 5, 8)
        assert [(start, take) for start, take, _ in drawn] == [(0, 150), (150, 150)]
        assert threading.main_thread() not in [thread for *_, thread in drawn]
        for r in range(8):
            assert np.array_equal(fin[r], flows.simulate_coupled([E1], 3.0, 0.01, 5, stream=r).final_states)

    def test_noise_in_flight_within_its_stated_bound(self):
        # 2000 replicates of 300 steps in 4 MiB chunks: spans of 667 on 87-step
        # slices of 4.18 MB, read ahead in 43-step halves.  The peak allows
        # the stated bound, the reader's generators (under 1.5 KB each), the
        # output and a few state-sized arrays of the Heun step
        chunk_bytes, width = 1 << 22, 667
        first = noise._spans(87, 2000, 0.01, 300, noise._draws(3, False), chunk_bytes)[0]
        assert (first.stream, first.stream + first.count, first.size) == (0, width, 87)
        tracemalloc.start()
        try:
            out = flows.batch_finals(E1[None], 3.0, 0.01, 87, 2000, chunk_bytes=chunk_bytes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * chunk_bytes + width * 1536 + out.nbytes + 16 * width * 3 * 8


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

    @pytest.mark.parametrize("phi0", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_angle_rejected(self, phi0):
        # checked as unit_vector checks sphere states; both runners once
        # returned NaN angles
        with pytest.raises(ValueError, match="phi0 must be finite"):
            flows.phase_finals(phi0, 0.1, 1e-2, 0, 3)
        with pytest.raises(ValueError, match="phi0 must be finite"):
            flows.simulate_phase(phi0, 0.1, 1e-2, 0)

    def test_phase_finals_spans_match_one_span(self, monkeypatch):
        # 96 bytes of dB per slice: one replicate per span, one step per slice
        one = flows.phase_finals(0.3, 0.05, 1e-3, 94, 5)
        monkeypatch.setattr(flows, "_PHASE_CHUNK_BYTES", 96)
        narrow = flows.phase_finals(0.3, 0.05, 1e-3, 94, 5)
        assert np.array_equal(one, narrow)

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

    @pytest.mark.parametrize("n", [4, 5])
    def test_seeded_grid_shares_no_normals_with_the_noise(self, n):
        # the grid has its own key domain; keyed like replicate 0's first dB
        # block, its points were the normalised rows of the first increment
        grid = flows.sphere_grid(2 * n, n, seed=7)
        rows = noise.NoisePath(7, n, 1e-2, 1).matrix_increment(0)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        for sign in (1.0, -1.0):
            gaps = np.linalg.norm(grid[:, None, :] - sign * rows[None, :, :], axis=-1)
            assert gaps.min() > 1e-6

    def test_zero_horizon_returns_grid(self):
        grid = flows.sphere_grid(10, 3)
        res = flows.pullback_run(grid, 0.0, 1e-3, 5, diameter_tol=10.0)
        assert np.allclose(res.final_states, grid)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="diameter_tol must be positive"):
            flows.pullback_run(flows.sphere_grid(10, 3), 0.1, 1e-2, 5, diameter_tol=math.nan)

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
