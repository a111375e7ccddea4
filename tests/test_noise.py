import ast
import math
import os
import pathlib
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from rqf import diagnostics, flows, noise, zprocess
from rqf.errors import NumericalError, ResourceCapError
from rqf.noise import (
    BLOCK_STEPS,
    ArrayPath,
    NoisePath,
    generate_path,
    scalar_increments,
    shift_path,
    symmetrize,
)


class TestGeneratePath:
    def test_empty_path(self):
        p = generate_path(1, 3, 0.1, 0)
        assert p.steps == 0
        assert p.matrix_increments.shape == (0, 3, 3)

    def test_same_seed_bit_identical(self):
        a = generate_path(42, 3, 1e-2, 500, with_vector=True)
        b = generate_path(42, 3, 1e-2, 500, with_vector=True)
        assert np.array_equal(a.matrix_increments, b.matrix_increments)
        assert np.array_equal(a.vector_increments, b.vector_increments)

    def test_different_seed_differs(self):
        a = generate_path(42, 3, 1e-2, 10)
        b = generate_path(43, 3, 1e-2, 10)
        assert not np.array_equal(a.matrix_increments, b.matrix_increments)

    def test_vector_flag_does_not_change_matrix_noise(self):
        a = generate_path(7, 4, 1e-3, 300, with_vector=False)
        b = generate_path(7, 4, 1e-3, 300, with_vector=True)
        assert np.array_equal(a.matrix_increments, b.matrix_increments)

    def test_entry_variance_within_band(self):
        # spec band for Var(dB_11): dt = 1e-2 over 1e5 draws
        p = generate_path(2024, 2, 1e-2, 100_000)
        b11 = np.concatenate([db[:, 0, 0] for db, _ in p.blocks()])
        assert 0.0097 <= b11.var() <= 0.0103

    def test_memory_cap(self):
        # a 328 GB path is built and streamed: only reading it whole raises
        p = generate_path(1, 64, 1e-3, 10_000_000)
        db, _ = next(p.blocks())
        assert db.shape[1:] == (64, 64)
        with pytest.raises(ResourceCapError):
            p.matrix_increments

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_path(1, 3, 0.0, 10)
        with pytest.raises(ValueError):
            generate_path(1, 3, 0.1, -1)

    def test_blocks_match_materialized(self):
        p = generate_path(9, 2, 0.5, 2100, with_vector=True)
        db = np.concatenate([b for b, _ in p.blocks()])
        dw = np.concatenate([w for _, w in p.blocks()])
        assert np.array_equal(db, p.matrix_increments)
        assert np.array_equal(dw, p.vector_increments)



# keyed reads whose one slice is over the 1 GiB cap: a single path's
# one-step slice from n = 11,586 (11,585 with dW), an explicit 9.8 GB chunk,
# and a scalar table one step over a GiB
OVER_CAP_READS = {
    "one-step": lambda: list(NoisePath(0, 11586, 0.1, 1).blocks()),
    "one-step-dw": lambda: list(NoisePath(0, 11585, 0.1, 1, with_vector=True).blocks()),
    "chunk": lambda: next(noise._read(0, 0, 0, 300_000, 300_000, noise._draws(64, False), 0.1)),
    "scalar": lambda: scalar_increments(0, 2**27 + 1, 0.1),
}


class TestCapWhereAllocated:
    @pytest.mark.parametrize("read", OVER_CAP_READS.values(), ids=OVER_CAP_READS.keys())
    def test_slice_over_the_cap_raises_before_any_draw(self, monkeypatch, read):
        def drawn(*args):
            raise AssertionError("a generator was built for a slice over the cap")

        monkeypatch.setattr(noise, "_block_generator", drawn)
        with pytest.raises(ResourceCapError, match="needs .* bytes at once"):
            read()

    def test_cap_counts_every_stream_and_draw_of_a_slice(self, monkeypatch):
        # with a cap of 10 steps of one n = 3 stream with dW, one stream
        # reads 10-step slices and two replicates 5-step slices, and no more
        draws = noise._draws(3, True)
        monkeypatch.setattr(noise, "DEFAULT_MEM_CAP", 10 * noise._step_bytes(draws))
        assert next(noise._read(0, 0, 0, 20, 10, draws, 0.1))[0].shape == (10, 3, 3)
        assert next(noise._Replicates(0, 0, 2, 0.1, 20, 5, draws).blocks())[1].shape == (2, 5, 3)
        for read in (noise._read(0, 0, 0, 20, 11, draws, 0.1),
                     noise._Replicates(0, 0, 2, 0.1, 20, 6, draws).blocks()):
            with pytest.raises(ResourceCapError):
                next(read)

    @pytest.mark.parametrize("offset", [1000, 1023])
    def test_offset_read_draws_its_prefix_within_the_slice(self, offset):
        # a read that starts part way into a block skips its first rows by
        # drawing them into the slice itself, so the cap on the slice bounds
        # them too: one 32 KB step, not a 32 MB prefix
        path = shift_path(NoisePath(37, 64, 0.1, 3000), offset)
        tracemalloc.start()
        try:
            path.matrix_increment(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * noise._step_bytes(noise._draws(64, False))


def _whole_block_reference(path):
    # every block drawn whole, dB from its matrix-domain generator and dW
    # from its vector-domain one, and cut to the steps the path covers
    first, last = path.offset // BLOCK_STEPS, (path.offset + path.steps - 1) // BLOCK_STEPS
    db, dw = [], []
    for j in range(first, last + 1):
        rng = noise._block_generator(path.seed, path.stream, j, noise._MATRIX_DOMAIN)
        db.append(rng.standard_normal((BLOCK_STEPS, path.n, path.n)))
        rng = noise._block_generator(path.seed, path.stream, j, noise._VECTOR_DOMAIN)
        dw.append(rng.standard_normal((BLOCK_STEPS, path.n)))
    lo = path.offset - first * BLOCK_STEPS
    cut = slice(lo, lo + path.steps)
    sqrt_dt = np.sqrt(path.dt)
    return np.concatenate(db)[cut] * sqrt_dt, np.concatenate(dw)[cut] * sqrt_dt


class TestStreamingReader:
    @pytest.mark.parametrize("with_vector", [False, True])
    @pytest.mark.parametrize("offset", [0, 5, 1023, 1024])
    @pytest.mark.parametrize("chunk", [1, 7, 1024, 1500])
    def test_blocks_equal_whole_block_draws(self, chunk, offset, with_vector):
        path = shift_path(NoisePath(31, 3, 0.01, 2600, with_vector, stream=6), offset)
        ref_db, ref_dw = _whole_block_reference(path)
        chunks = list(noise._read(31, 6, offset, path.steps, chunk, noise._draws(3, with_vector), 0.01))
        assert [len(db) for db, _ in chunks] == [min(chunk, path.steps - p) for p in range(0, path.steps, chunk)]
        assert np.array_equal(np.concatenate([db for db, _ in chunks]), ref_db)
        assert np.array_equal(np.concatenate([db for db, _ in path.blocks()]), ref_db)
        if with_vector:
            assert np.array_equal(np.concatenate([dw for _, dw in chunks]), ref_dw)
        else:
            assert all(dw is None for _, dw in chunks)

    @pytest.mark.parametrize("offset", [0, 5, 1023, 1024])
    def test_single_increments_equal_whole_block_draws(self, offset):
        path = shift_path(NoisePath(32, 3, 0.01, 2600, True, stream=2), offset)
        ref_db, ref_dw = _whole_block_reference(path)
        for k in (0, 1, 1018, 1019, 1023, 1024, path.steps - 1):
            assert np.array_equal(path.matrix_increment(k), ref_db[k])
            assert np.array_equal(path.vector_increment(k), ref_dw[k])

    @pytest.mark.parametrize("offset", [0, 5, 1024])
    def test_vector_path_reads_the_matrix_only_db(self, offset):
        # dW has its own key domain, so reading it leaves every dB bit as is
        with_dw, without = (noise._read(34, 5, offset, 2600 - offset, 700, noise._draws(3, vector), 0.01)
                            for vector in (True, False))
        for (db, dw), (db0, dw0) in zip(with_dw, without):
            assert np.array_equal(db, db0)
            assert dw.shape == (len(db), 3) and dw0 is None

    def test_vector_noise_uncorrelated_with_matrix_noise(self):
        # every dW coordinate against every dB entry of the same (seed, stream)
        path = generate_path(35, 3, 1.0, 20_000, with_vector=True, stream=2)
        db = path.matrix_increments.reshape(path.steps, 9)
        dw = path.vector_increments
        rho = np.corrcoef(dw.T, db.T)[:3, 3:]
        assert np.abs(rho).max() < 4 / np.sqrt(path.steps)
        # and no dW value is a dB draw of the first blocks, as it would be if
        # both came from one generator
        assert not np.isin(dw[:BLOCK_STEPS].ravel(), db[: 2 * BLOCK_STEPS].ravel()).any()

    @pytest.mark.parametrize("n, with_vector, size", [(3, True, 1024), (127, True, 1024), (128, True, 1016),
                                                      (1024, False, 16), (1024, True, 15)])
    def test_default_chunk_holds_at_most_one_budget(self, monkeypatch, n, with_vector, size):
        # a block, or as many steps as fit in 128 MiB; the spy draws nothing
        takes = []
        monkeypatch.setattr(noise, "_slice", lambda *args: takes.append(args[4]) or (None, None))
        path = NoisePath(36, n, 0.01, 2 * size + 1, with_vector)
        list(path.blocks())
        assert takes == [size, size, 1]
        assert size * noise._step_bytes(noise._draws(n, with_vector)) <= 1 << 27

    def test_invalid_chunk_and_index(self):
        # blocks() takes no chunk: a path's slices follow the one slice rule
        path = NoisePath(33, 2, 0.1, 10)
        with pytest.raises(TypeError):
            path.blocks(5)
        with pytest.raises(IndexError):
            path.matrix_increment(10)
        with pytest.raises(ValueError):
            path.vector_increment(0)


def _scalar_reference(seed, stream, stop, dt):
    # whole blocks drawn from the scalar-domain generator, cut to ``stop`` steps
    blocks = [
        noise._block_generator(seed, stream, j, noise._SCALAR_DOMAIN).standard_normal(BLOCK_STEPS)
        for j in range(-(-stop // BLOCK_STEPS))
    ]
    return np.concatenate(blocks or [np.empty(0)])[:stop] * np.sqrt(dt)


class TestScalarReads:
    @pytest.mark.parametrize("steps", [0, 1, 1023, 1024, 1025, 2600])
    def test_scalar_increments_equal_whole_block_draws(self, steps):
        assert np.array_equal(scalar_increments(12, steps, 0.01, stream=4), _scalar_reference(12, 4, steps, 0.01))

    def test_scalar_block_equals_whole_block_draw(self):
        ref = _scalar_reference(12, 4, 3 * BLOCK_STEPS, 0.01)
        for j in range(3):
            assert np.array_equal(noise.scalar_block(12, 4, j, 0.01), ref[j * BLOCK_STEPS : (j + 1) * BLOCK_STEPS])

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -1.0, 0.0])
    def test_non_finite_or_non_positive_dt_rejected_by_name(self, dt):
        # each keyed slice is scaled by sqrt(dt): NaN gave NaN increments,
        # -1 NaN with a RuntimeWarning, and 0 a block of zeros
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            scalar_increments(0, 3, dt)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            noise.scalar_block(0, 0, 0, dt)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            NoisePath(0, 3, dt, 4)

    @pytest.mark.parametrize("start", [0, 5, 1023, 1024])
    @pytest.mark.parametrize("chunk", [1, 7, 1024, 1500])
    def test_reader_slices_equal_whole_block_draws(self, chunk, start):
        steps = 2600 - start
        reader = noise._read(12, 4, start, steps, chunk, noise._SCALAR_DRAWS, 0.01)
        slices = [next(reader)[0] for _ in range(0, steps, chunk)]
        assert [len(s) for s in slices] == [min(chunk, steps - p) for p in range(0, steps, chunk)]
        assert np.array_equal(np.concatenate(slices), _scalar_reference(12, 4, 2600, 0.01)[start:])
        # a read delivered to its end holds no generator
        assert reader.gi_frame.f_locals["rngs"] == [[]]
        assert next(reader, None) is None

    def test_lockstep_rows_equal_single_reads(self):
        # 300-step slices of four replicates; the fourth slice crosses the seam
        slices = list(noise._Replicates(12, 3, 4, 0.01, 1100, 300, noise._SCALAR_DRAWS).blocks())
        assert [db.shape for db, _ in slices] == [(4, 300)] * 3 + [(4, 200)]
        assert all(dw is None for _, dw in slices)
        stacked = np.concatenate([db for db, _ in slices], axis=1)
        for i in range(4):
            assert np.array_equal(stacked[i], scalar_increments(12, 1100, 0.01, stream=3 + i))

    def test_lockstep_read_from_an_offset_crosses_the_seam(self):
        # three streams with dW from step 1000 in 30-step slices: the first
        # slice crosses step 1024, and each stream skips its prefix once
        slices = list(noise._read(21, 5, 1000, 100, 30, noise._draws(3, True), 0.01, count=3))
        assert [db.shape for db, _ in slices] == [(3, 30, 3, 3)] * 3 + [(3, 10, 3, 3)]
        assert [dw.shape for _, dw in slices] == [(3, 30, 3)] * 3 + [(3, 10, 3)]
        db = np.concatenate([db for db, _ in slices], axis=1)
        dw = np.concatenate([dw for _, dw in slices], axis=1)
        for i in range(3):
            ref_db, ref_dw = _whole_block_reference(shift_path(NoisePath(21, 3, 0.01, 1100, True, stream=5 + i), 1000))
            assert np.array_equal(db[i], ref_db)
            assert np.array_equal(dw[i], ref_dw)

    def test_suspended_reader_holds_no_slice(self):
        reader = noise._Replicates(12, 3, 4, 0.01, 1100, 300, noise._draws(2, True)).blocks()
        db, dw = next(reader)
        refs = [weakref.ref(db), weakref.ref(dw)]
        del db, dw
        assert all(ref() is None for ref in refs)
        assert next(reader)[0].shape == (4, 300, 2, 2)


class TestIntake:
    def test_increments_are_the_symmetrized_blocks(self):
        path = NoisePath(40, 3, 0.01, 1500, True, stream=2)
        for (dq, dw), (db, dw0) in zip(noise._increments(path), path.blocks()):
            assert np.array_equal(dq, symmetrize(db))
            assert np.array_equal(dw, dw0)
        for (dq, dw), (db, dw0) in zip(noise._increments(path, -0.5), path.blocks()):
            assert np.array_equal(dq, symmetrize(db, -0.5))
            assert np.array_equal(dw, dw0)

    def test_non_finite_dw_names_seed_stream_and_step(self):
        # a stack of two keyed replicates whose second one has NaN in dW at step 7
        db, dw = np.zeros((2, 20, 3, 3)), np.zeros((2, 20, 3))
        dw[1, 7, 0] = np.nan
        path = SimpleNamespace(seed=3, stream=5, blocks=lambda: iter([(db, dw)]))
        with pytest.raises(NumericalError, match=r"at step 7 \(seed 3, stream 6\)$"):
            list(noise._increments(path))

    @pytest.mark.parametrize("run", [
        lambda: zprocess.simulate_z_finals([0.0, 0.5], 0.5, 1e-2, 7, 30),
        lambda: flows.simulate_coupled(np.eye(3)[:2], 0.5, 1e-2, 7, sigma_w=0.5),
        lambda: flows.simulate_phase(0.3, 0.5, 1e-2, 7),
        lambda: diagnostics.lyapunov_benettin("phase", None, 1.0, 1e-2, 0.1, seed=7),
        lambda: diagnostics.lyapunov_benettin("sphere", {"n": 2}, 1.0, 1e-2, 0.1, seed=7),
        lambda: diagnostics.lyapunov_benettin("sphere", {"n": 3, "sigma_w": 0.5}, 1.0, 1e-2, 0.1, seed=7),
    ], ids=["z-table", "coupled", "phase", "lyapunov-phase", "lyapunov-sphere2", "lyapunov-sphere"])
    def test_single_path_and_z_table_reads_stay_on_the_calling_thread(self, monkeypatch, run):
        # only sphere and circle batches fork workers: these reads are drawn
        # and stepped by the calling process, however many CPUs it has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a single path or the z table forked"))
        run()


class TestSubstreams:
    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (2**64, ValueError), (1.5, TypeError)])
    def test_seed_outside_64_bits_rejected(self, seed, error):
        # the key holds 64 seed bits; 2^64 once drew seed 0's increments,
        # -1 those of 2^64 - 1, and 1.5 those of its truncation, 1
        with pytest.raises(error, match="seed|integer"):
            NoisePath(seed, 3, 0.1, 5).matrix_increments
        with pytest.raises(error, match="seed|integer"):
            scalar_increments(seed, 5, 0.1)
        with pytest.raises(error, match="seed|integer"):
            flows.batch_finals(np.eye(3)[:1], 0.5, 0.1, seed, 2)
        with pytest.raises(error, match="seed|integer"):
            zprocess.simulate_z_finals(0.0, 0.5, 0.1, seed, 2)

    def test_seed_range_ends_are_distinct_keys(self):
        low, high = (NoisePath(seed, 3, 0.1, 5).matrix_increments for seed in (0, 2**64 - 1))
        assert not np.array_equal(low, high)

    def test_streams_reproducible_and_distinct(self):
        a = generate_path(5, 2, 1e-2, 64, stream=0)
        b = generate_path(5, 2, 1e-2, 64, stream=1)
        b2 = generate_path(5, 2, 1e-2, 64, stream=1)
        assert np.array_equal(b.matrix_increments, b2.matrix_increments)
        assert not np.array_equal(a.matrix_increments, b.matrix_increments)

    def test_stream_correlation_negligible(self):
        a = generate_path(5, 2, 1.0, 20_000, stream=0).matrix_increments[:, 0, 0]
        b = generate_path(5, 2, 1.0, 20_000, stream=1).matrix_increments[:, 0, 0]
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 4 / np.sqrt(a.size)

    def test_scalar_increments_reproducible(self):
        a = scalar_increments(11, 5000, 1e-2, stream=3)
        b = scalar_increments(11, 5000, 1e-2, stream=3)
        assert np.array_equal(a, b)
        assert abs(a.var() - 1e-2) < 3 * 1e-2 * np.sqrt(2 / 5000)

    def test_scalar_stream_independent_from_matrix_stream(self):
        mat = generate_path(11, 2, 1e-2, 1024, stream=0).matrix_increments[:, 0, 0]
        sca = scalar_increments(11, 1024, 1e-2, stream=0)
        assert not np.array_equal(mat, sca)


class TestSymmetrize:
    def test_zero(self):
        assert np.array_equal(symmetrize(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_symmetric_unchanged(self):
        m = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(symmetrize(m), m)

    def test_direct_formula(self):
        out = symmetrize(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert np.array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_exactly_symmetric_and_linear(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((10, 4, 4))
        s = symmetrize(b)
        assert np.array_equal(s, np.swapaxes(s, -1, -2))
        assert np.allclose(symmetrize(2.5 * b), 2.5 * s)

    def test_goe_scaling(self):
        # Var(dQ_ii) -> dt and Var(dQ_ij) -> dt/2 within 3 standard errors
        dt = 1e-2
        p = generate_path(77, 2, dt, 100_000)
        dq = np.concatenate([symmetrize(db) for db, _ in p.blocks()])
        n_draws = dq.shape[0]
        se_var = lambda v: v * np.sqrt(2.0 / n_draws)
        assert abs(dq[:, 0, 0].var() - dt) < 3 * se_var(dt)
        assert abs(dq[:, 0, 1].var() - dt / 2) < 3 * se_var(dt / 2)
        ratio = dq[:, 0, 1].var() / dq[:, 0, 0].var()
        assert abs(ratio - 0.5) < 3 * 0.5 * np.sqrt(4.0 / n_draws)

    def test_distinct_entries_uncorrelated(self):
        p = generate_path(78, 3, 1.0, 100_000)
        dq = np.concatenate([symmetrize(db) for db, _ in p.blocks()])
        pairs = [((0, 0), (1, 1)), ((0, 1), (0, 2)), ((0, 0), (0, 1))]
        for (i, j), (k, l) in pairs:
            rho = np.corrcoef(dq[:, i, j], dq[:, k, l])[0, 1]
            assert abs(rho) < 4 / np.sqrt(dq.shape[0])

    def test_scale_is_exact_for_unit_signs(self):
        # the steppers fold q_scale into the intake: +-1 give the bits of the
        # halved sum, negated for -1; any other scale those of the halved sum
        # times the scale
        rng = np.random.default_rng(5)
        b = rng.standard_normal((10, 4, 4))
        s = symmetrize(b)
        assert np.array_equal(symmetrize(b, 1.0), s)
        assert np.array_equal(symmetrize(b, -1.0), -s)
        assert np.array_equal(symmetrize(b, -0.7), s * -0.7)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetrize(np.ones((2, 3)))


class TestShiftPath:
    def test_zero_shift_identity(self):
        p = generate_path(3, 2, 1e-2, 100)
        v = shift_path(p, 0)
        assert np.array_equal(v.matrix_increments, p.matrix_increments)

    def test_shifted_increments_bit_exact(self):
        p = generate_path(3, 2, 1e-2, 2100)
        v = shift_path(p, 5)
        assert np.array_equal(v.matrix_increments[0], p.matrix_increments[5])
        assert np.array_equal(v.matrix_increments, p.matrix_increments[5:])

    def test_composition_law(self):
        p = generate_path(3, 2, 1e-2, 2100)
        ab = shift_path(shift_path(p, 1030), 40)
        once = shift_path(p, 1070)
        assert ab.offset == once.offset and ab.steps == once.steps
        assert np.array_equal(ab.matrix_increments, once.matrix_increments)

    def test_out_of_range(self):
        p = generate_path(3, 2, 1e-2, 10)
        with pytest.raises(ValueError):
            shift_path(p, 11)
        with pytest.raises(ValueError):
            shift_path(p, -1)


class TestArrayPath:
    def test_blocks_roundtrip(self):
        steps = 2 * noise.BLOCK_STEPS + 6
        db = np.arange(4.0 * steps).reshape(steps, 2, 2)
        p = ArrayPath(dt=0.1, matrix_increments=db)
        blocks = [b for b, _ in p.blocks()]
        assert [len(b) for b in blocks] == [noise.BLOCK_STEPS, noise.BLOCK_STEPS, 6]
        assert np.array_equal(np.concatenate(blocks), db)
        assert p.steps == steps and p.n == 2 and not p.with_vector

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_blocks_reject_chunk_below_one(self, chunk):
        # blocks() takes no chunk at all, as NoisePath.blocks: its slices
        # are BLOCK_STEPS long, so any chunk is refused
        p = ArrayPath(dt=0.1, matrix_increments=np.zeros((6, 2, 2)))
        with pytest.raises(TypeError):
            p.blocks(chunk)


def test_noise_path_header_roundtrip():
    p = generate_path(99, 3, 1e-3, 7, with_vector=True, stream=2)
    h = p.header()
    q = NoisePath(h["seed"], h["n"], h["dt"], h["steps"], h["with_vector"], h["stream"], h["offset"])
    assert np.array_equal(q.matrix_increments, p.matrix_increments)


def test_only_noise_builds_keys_or_symmetrizes():
    # every draw and every dQ comes from rqf.noise: no other module may
    # construct a numpy generator or bit generator, or symmetrize dB itself
    offenders = []
    for source in sorted(pathlib.Path(noise.__file__).parent.glob("*.py")):
        if source.name == "noise.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in {"Philox", "Generator", "default_rng", "symmetrize"}:
                    offenders.append(f"{source.name}:{node.lineno} {name}")
    assert not offenders


def test_no_threads_and_one_fork_site():
    # rqf starts no thread: no module imports threading or concurrent.futures,
    # and os.fork is called once, in the one function that forks a batch's workers
    def is_fork(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "fork"
                and getattr(node.func.value, "id", None) == "os")

    imports, forks, forking = [], 0, []
    for source in sorted(pathlib.Path(noise.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                imports += [f"{source.name}:{node.lineno}" for name in names
                            if name.split(".")[0] in ("threading", "concurrent")]
            forks += is_fork(node)
            if isinstance(node, ast.FunctionDef) and any(map(is_fork, ast.walk(node))):
                forking.append(f"{source.name}:{node.name}")
    assert imports == []
    assert forks == 1 and forking == ["flows.py:_fork"]


def test_one_function_refuses_resources():
    # every ResourceCapError in rqf is raised by noise._fits, and _fits is
    # called only where keyed noise is allocated (_slice), where a batch is
    # cut into row groups that are capped as the whole read (split), and for
    # the Fokker-Planck eigenvectors
    raisers, callers = [], []
    for source in sorted(pathlib.Path(noise.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        func = node.func
                        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                        if name == "ResourceCapError":
                            raisers.append(f"{source.name}:{fn.name}")
                        elif name == "_fits":
                            callers.append(f"{source.name}:{fn.name}")
    assert raisers == ["noise.py:_fits"]
    assert sorted(callers) == ["noise.py:_slice", "noise.py:split", "zprocess.py:fokker_planck_evolve"]


def test_every_noise_budget_is_a_named_constant():
    # the inventory of byte budgets that cut keyed reads: every noise._spans
    # call and every chunk_bytes= argument names a module constant, or the
    # calling function's own chunk_bytes parameter (shown with its default),
    # so a literal budget or a new budget constant cannot go in unnoticed
    budgets = []
    for source in sorted(pathlib.Path(noise.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(source.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args.args + fn.args.kwonlyargs
            defaults = dict(zip([a.arg for a in args][::-1], (fn.args.defaults + fn.args.kw_defaults)[::-1]))
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                spans = (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "_spans"
                given = (node.args[5:6] if spans else []) + [k.value for k in node.keywords if k.arg == "chunk_bytes"]
                for budget in map(ast.unparse, given):
                    if budget == "chunk_bytes" and "chunk_bytes" in defaults:
                        budget = "chunk_bytes=" + ast.unparse(defaults["chunk_bytes"])
                    budgets.append((f"{source.name}:{fn.name}", budget))
    assert sorted(budgets) == [
        ("cli.py:_exp_bias_scan", "_CHUNK_BYTES"),
        ("cli.py:_exp_uniformity", "_CHUNK_BYTES"),
        ("flows.py:batch_finals", "chunk_bytes=noise._SLICE_BYTES"),
        ("flows.py:phase_finals", "_PHASE_CHUNK_BYTES"),
        ("noise.py:blocks", "_SLICE_BYTES"),
        ("zprocess.py:simulate_z_finals", "_Z_CHUNK_BYTES"),
    ]
