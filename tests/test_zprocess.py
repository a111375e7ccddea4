import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqf import noise, zprocess
from rqf.zprocess import (
    DensityGrid,
    fokker_planck_evolve,
    hit_up_probability,
    l1_density_distance,
    max_stable_dt,
    scale,
    sigma_z,
    simulate_z,
    simulate_z_finals,
    z_diffusion,
    z_drift,
)


class TestClosedForms:
    def test_values_at_origin(self):
        assert z_drift(0.0) == 0.0
        assert z_diffusion(0.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert sigma_z(0.0) == 1.0

    def test_boundary_degeneracy(self):
        for z in (1.0, -1.0):
            assert z_drift(z) == 0.0
            assert z_diffusion(z) == 0.0
            assert sigma_z(z) == 0.0

    def test_drift_arithmetic(self):
        assert z_drift(0.5) == pytest.approx(0.75, abs=1e-15)

    @given(st.floats(-1, 1, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_sigma_is_half_squared_diffusion(self, z):
        assert sigma_z(z) == pytest.approx(z_diffusion(z) ** 2 / 2.0, abs=1e-14)


class TestScaleFunction:
    def test_reference_values_c0(self):
        assert scale(1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert scale(-1.0) == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert scale(0.5) == pytest.approx(0.5 - 0.125 / 3.0, abs=1e-15)

    @given(st.floats(-0.99, 0.99, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_zero_at_reference_point(self, c):
        assert scale(c, c) == 0.0

    def test_strictly_increasing(self):
        for c in (-0.9, 0.0, 0.7):
            zs = np.linspace(-1.0, 1.0, 2001)
            vals = np.array([scale(z, c) for z in zs])
            assert np.all(np.diff(vals) > 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            scale(1.5)
        with pytest.raises(ValueError):
            scale(0.0, c=1.0)


class TestHitUpProbability:
    def test_symmetry_point(self):
        assert hit_up_probability(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_closed_form_value(self):
        assert hit_up_probability(0.5) == pytest.approx(0.84375, abs=1e-15)

    def test_boundary_values(self):
        assert hit_up_probability(-1.0) == pytest.approx(0.0, abs=1e-15)
        assert hit_up_probability(1.0) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(-1, 1, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_odd_symmetry(self, z0):
        assert hit_up_probability(z0) + hit_up_probability(-z0) == pytest.approx(1.0, abs=1e-12)

    def test_independent_of_reference_point(self):
        for z0 in (-0.7, 0.1, 0.9):
            vals = [
                (scale(z0, c) - scale(-1.0, c)) / (scale(1.0, c) - scale(-1.0, c))
                for c in (-0.5, 0.0, 0.8)
            ]
            assert max(vals) - min(vals) < 1e-12
            assert vals[0] == pytest.approx(hit_up_probability(z0), abs=1e-12)

    def test_monte_carlo_agreement(self):
        reps = 5000
        finals = simulate_z_finals(0.5, 20.0, 1e-3, 10101, reps)
        p_hat = np.mean(finals >= 0.999)
        se = math.sqrt(0.84375 * (1 - 0.84375) / reps)
        assert abs(p_hat - 0.84375) < 3 * se


class TestSimulateZ:
    def test_boundary_start_stays(self):
        traj = simulate_z(1.0, 1.0, 1e-2, 5)
        assert np.all(traj.values == 1.0)

    def test_deterministic_and_in_range(self):
        a = simulate_z(0.2, 2.0, 1e-3, 6)
        b = simulate_z(0.2, 2.0, 1e-3, 6)
        assert np.array_equal(a.values, b.values)
        assert np.all(np.abs(a.values) <= 1.0)

    def test_absorbs_by_t20(self):
        reps = 2000
        finals = simulate_z_finals(0.0, 20.0, 1e-3, 7, reps)
        assert np.mean(np.abs(finals) > 0.999) >= 0.99

    def test_batch_matches_single(self):
        # 1100 steps cross the 1024-step noise block
        finals = simulate_z_finals(0.3, 11.0, 1e-2, 8, 5)
        for r in range(5):
            assert finals[r] == simulate_z(0.3, 11.0, 1e-2, 8, stream=r).final

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            simulate_z(1.5, 1.0, 1e-2, 1)


class TestDensityGrid:
    def test_delta_single_cell(self):
        g = DensityGrid.delta(0.0, 401)
        assert g.masses.sum() == 1.0
        assert np.count_nonzero(g.masses) == 1
        idx = np.argmax(g.masses)
        assert abs(g.centers[idx]) < g.h

    def test_uniform_valid(self):
        g = DensityGrid.uniform(101)
        assert abs(g.masses.sum() - 1.0) < 1e-12

    def test_rejects_negative_or_unnormalized(self):
        with pytest.raises(ValueError):
            DensityGrid(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            DensityGrid(np.array([0.5, 0.1, 0.6]))
        with pytest.raises(ValueError):  # a NaN mass once passed both checks
            DensityGrid(np.array([math.nan, 0.5, 0.5]))


class TestFokkerPlanck:
    def test_symmetric_initial_stays_symmetric(self):
        g = DensityGrid.delta(0.0, 201)
        out = fokker_planck_evolve(g, 1.0)
        assert np.max(np.abs(out.masses - out.masses[::-1])) < 1e-9

    def test_nonnegative_solution(self):
        g = DensityGrid.delta(0.5, 201)
        out = fokker_planck_evolve(g, 0.7)
        assert np.all(out.masses >= 0)

    def test_boundary_mass_nondecreasing_after_t1(self):
        # both boundaries are attractive: the mass in |z| > 0.99 grows
        g = fokker_planck_evolve(DensityGrid.delta(0.0, 201), 1.0)
        prev = None
        for _ in range(4):
            tail = g.masses[np.abs(g.centers) > 0.99].sum()
            if prev is not None:
                assert tail >= prev - 1e-12
            prev = tail
            g = fokker_planck_evolve(g, 0.5)

    def test_matches_monte_carlo_histogram(self):
        # sampling-noise floor over 401 cells at N=1e5 is ~0.044, so the
        # Monte Carlo side uses a fine step to keep its own bias small
        grid = fokker_planck_evolve(DensityGrid.delta(0.0, 401), 0.5)
        samples = simulate_z_finals(0.0, 0.5, 2.5e-4, 103, 100_000)
        assert l1_density_distance(grid, samples) < 0.05

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_l1_distance_rejects_non_finite_samples(self, bad):
        # a histogram drops NaN and clips inf into an edge cell, so either
        # would give a finite but wrong distance
        with pytest.raises(ValueError, match="samples must be finite"):
            l1_density_distance(DensityGrid.uniform(11), np.array([0.0, bad, 0.5]))

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_non_finite_horizon_rejected_by_name(self, T):
        # the spectral solve once blamed the cell count
        with pytest.raises(ValueError, match="T must be finite and >= 0"):
            fokker_planck_evolve(DensityGrid.uniform(21), T)

    @pytest.mark.parametrize("m", [3, 4, 21, 51, 401])
    def test_generator_conserves_mass_and_sign(self, m):
        # A moves mass only between cells (zero column sums, positive
        # off-diagonals), and one explicit Euler step I + dt A keeps every
        # cell nonnegative at the stability bound and at no larger step, so
        # the bound is the exact one
        right, left = zprocess._fp_rates(DensityGrid.uniform(m))
        assert right.min() > 0 and left.min() > 0
        a = _dense_generator(m)
        assert np.abs(a.sum(axis=0)).max() <= 1e-12 * np.abs(a).max()
        dt = max_stable_dt(m)
        assert (np.eye(m) + dt * a).min() >= 0.0
        assert (np.eye(m) + 1.001 * dt * a).min() < 0.0

    def test_zero_horizon_copy(self):
        g = DensityGrid.delta(0.2, 101)
        out = fokker_planck_evolve(g, 0.0)
        assert np.array_equal(out.masses, g.masses)


def _dense_generator(m):
    right, left = zprocess._fp_rates(DensityGrid.uniform(m))
    a = np.diag(right, -1) + np.diag(left, 1)
    return a - np.diag(a.sum(axis=0))


class TestSpectralFokkerPlanck:
    @pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
    def test_matches_dense_matrix_exponential(self, T):
        from scipy.linalg import expm

        p0 = DensityGrid.delta(0.3, 101)
        exact = expm(_dense_generator(101) * T) @ p0.masses
        assert np.abs(fokker_planck_evolve(p0, T).masses - exact).sum() < 1e-10

    def test_fine_grid_tiny_horizon_is_a_valid_density(self):
        # roundoff negatives of the eigenvector sum are clipped, not rejected
        out = fokker_planck_evolve(DensityGrid.delta(0.9, 2001), 1e-5)
        assert isinstance(out, DensityGrid)
        assert abs(out.masses.sum() - 1.0) < 1e-9

    def test_spectral_gap(self):
        assert zprocess.spectral_gap(401) == pytest.approx(2.966, abs=1e-3)


class TestZFinalsTable:
    def test_array_z0_rows_equal_scalar_calls(self, monkeypatch):
        # 1100 steps cross a noise block; four blocks' bytes per slice give
        # spans of 4, 4 and 2 replicates
        z0s = np.array([-0.5, 0.0, 0.3])
        one = simulate_z_finals(z0s, 11.0, 1e-2, 31, 10)
        chunk_bytes = 4 * 8 * noise.BLOCK_STEPS
        monkeypatch.setattr(zprocess, "_Z_CHUNK_BYTES", chunk_bytes)
        spans = noise._spans(31, 10, 1e-2, 1100, noise._SCALAR_DRAWS, chunk_bytes, noise.BLOCK_STEPS)
        assert [(span.stream, span.stream + span.count) for span in spans] == [(0, 4), (4, 8), (8, 10)]
        table = simulate_z_finals(z0s, 11.0, 1e-2, 31, 10)
        assert table.shape == (3, 10)
        assert np.array_equal(table, one)
        for row, z0 in zip(table, z0s):
            assert np.array_equal(row, simulate_z_finals(z0, 11.0, 1e-2, 31, 10))
            assert all(row[r] == simulate_z(z0, 11.0, 1e-2, 31, stream=r).final for r in range(10))

    def test_long_horizon_spans_without_drawing(self, monkeypatch):
        # a replicate of 2^27 + 10 steps draws over 1 GiB in all, but its
        # reads hold one block at a time, so the run is cut, not refused
        monkeypatch.setattr(noise, "_block_generator", None)
        steps = 2**27 + 10
        spans = noise._spans(1, 2, 1.0 / steps, steps, noise._SCALAR_DRAWS, zprocess._Z_CHUNK_BYTES, noise.BLOCK_STEPS)
        assert [(s.stream, s.count, s.steps, s.size) for s in spans] == [(0, 2, steps, noise.BLOCK_STEPS)]

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError):
            simulate_z_finals(np.array([0.0, 1.5]), 1.0, 1e-2, 1, 4)
