import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqf.errors import NumericalError
from rqf.geometry import random_unit_vector
from rqf.integrators import (
    _heun_step,
    dominant_eigenspace,
    dqf_exact,
    heun_step_bias,
    heun_step_rqf,
)
from rqf.noise import symmetrize
from rqf.zprocess import em_step_z


def _random_dq(rng, n, dt):
    return symmetrize(rng.standard_normal((n, n)) * np.sqrt(dt))


class TestHeunStepRqf:
    def test_zero_increment_fixed_point(self):
        x = np.array([0.6, 0.8, 0.0])
        res = heun_step_rqf(x, np.zeros((3, 3)))
        assert np.array_equal(res.state, x)
        assert res.renorm_defect == 0.0

    def test_output_on_sphere(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = random_unit_vector(4, rng)
            res = heun_step_rqf(x, _random_dq(rng, 4, 1e-2))
            assert abs(np.linalg.norm(res.state) - 1.0) < 1e-12

    def test_odd_in_state_bit_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = random_unit_vector(3, rng)
            dq = _random_dq(rng, 3, 1e-2)
            assert np.array_equal(heun_step_rqf(-x, dq).state, -heun_step_rqf(x, dq).state)

    def test_non_finite_increment_rejected(self):
        x = np.array([1.0, 0.0])
        dq = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericalError):
            heun_step_rqf(x, dq)

    def test_sign_validated(self):
        with pytest.raises(ValueError):
            heun_step_rqf(np.array([1.0, 0.0]), np.zeros((2, 2)), sign=0.5)


class TestStackedStep:
    # the batched step gives every replicate of an (R, m, n) stack the bits
    # of that replicate's (m, n) members stepped alone, which is what keeps
    # replicate r of batch_finals equal to simulate_coupled(stream=r); with
    # m = 1 that is row by row.  (A member split off a larger stack is not
    # covered: for n >= 4 its matmul takes another BLAS route.)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 64])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("vector", ["none", "scalar", "per-member"])
    def test_stack_equals_replicates_bit_exact(self, n, m, vector):
        rng = np.random.default_rng(1000 + n)
        replicates = 6
        states = rng.standard_normal((replicates, m, n))
        states /= np.linalg.norm(states, axis=-1, keepdims=True)
        # step 2 of a 4-step block, as the trajectory loop slices it
        dq = symmetrize(rng.standard_normal((replicates, 4, n, n)) * 0.1, -1.0)[:, 2]
        dw = None if vector == "none" else (rng.standard_normal((replicates, 4, n)) * 0.1)[:, 2]
        w_scale = {"none": 0.0, "scalar": -0.5, "per-member": -np.array([[0.0], [0.5], [4.0]])[:m]}[vector]
        out, norms = _heun_step(states, dq, dw, w_scale)
        assert out.shape == (replicates, m, n) and norms.shape == (replicates, m, 1)
        for r in range(replicates):
            one, one_norms = _heun_step(states[r], dq[r], None if dw is None else dw[r], w_scale)
            assert np.array_equal(one, out[r]) and np.array_equal(one_norms, norms[r])


class TestHeunStepBias:
    def test_both_zero_fixed_point(self):
        x = np.array([0.0, 1.0, 0.0])
        res = heun_step_bias(x, np.zeros((3, 3)), np.zeros(3), 0.0, 0.0)
        assert np.array_equal(res.state, x)

    def test_reduces_to_rqf_bit_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = random_unit_vector(3, rng)
            dq = _random_dq(rng, 3, 1e-2)
            dw = rng.standard_normal(3) * 0.1
            a = heun_step_bias(x, dq, dw, 1.0, 0.0)
            b = heun_step_rqf(x, dq, sign=-1.0)
            assert np.array_equal(a.state, b.state)

    def test_vector_noise_breaks_odd_symmetry(self):
        # P_{-x} dw = P_x dw, so the +-x pairing is lost for sigma_q = 0
        rng = np.random.default_rng(4)
        x = random_unit_vector(3, rng)
        dw = rng.standard_normal(3) * 0.1
        zero = np.zeros((3, 3))
        a = heun_step_bias(x, zero, dw, 0.0, 1.0).state
        b = heun_step_bias(-x, zero, dw, 0.0, 1.0).state
        assert not np.allclose(b, -a)

    def test_negative_sigma_rejected(self):
        x = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            heun_step_bias(x, np.zeros((2, 2)), np.zeros(2), -1.0, 0.0)


class TestEmStepZ:
    def test_boundaries_fixed_for_any_increment(self):
        for db in (-0.7, 0.0, 1.3):
            assert em_step_z(1.0, db, 1e-2) == 1.0
            assert em_step_z(-1.0, db, 1e-2) == -1.0

    def test_origin_no_drift(self):
        assert em_step_z(0.0, 0.0, 1e-2) == 0.0

    def test_drift_arithmetic(self):
        assert em_step_z(0.5, 0.0, 0.01) == pytest.approx(0.5075, abs=1e-15)

    def test_clamped_to_interval(self):
        rng = np.random.default_rng(5)
        z = 0.0
        for _ in range(2000):
            z = em_step_z(z, rng.standard_normal() * 0.3, 1e-2)
            assert -1.0 <= z <= 1.0

    @pytest.mark.parametrize("z, db, dt, name", [(0.5, 0.1, math.nan, "dt"), (0.5, 0.1, math.inf, "dt"),
                                                 (0.5, 0.1, 0.0, "dt"), (math.nan, 0.1, 0.01, "z"),
                                                 (1.5, 0.1, 0.01, "z"), (0.5, math.nan, 0.01, "db")])
    def test_non_finite_or_out_of_range_input_rejected_by_name(self, z, db, dt, name):
        # a NaN dt or z once returned -1.0, and dt = inf returned 1.0
        with pytest.raises(ValueError, match=f"^{name} must be"):
            em_step_z(z, db, dt)

    @given(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-100, 100, allow_nan=False),
        st.floats(1e-6, 1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_interval_preserved_for_any_input(self, z, db, dt):
        assert -1.0 <= em_step_z(z, db, dt) <= 1.0


class TestDqfExact:
    def test_zero_matrix_identity(self):
        x0 = np.array([0.6, 0.0, 0.8])
        for t in (0.0, 1.0, 10.0):
            assert np.allclose(dqf_exact(np.zeros((3, 3)), x0, t), x0, atol=1e-14)

    def test_eigenvector_is_critical_point(self):
        m = np.diag([2.0, 1.0])
        e2 = np.array([0.0, 1.0])
        for t in (0.5, 3.0, 40.0):
            assert np.allclose(dqf_exact(m, e2, t), e2, atol=1e-14)

    def test_diagonal_closed_form(self):
        m = np.diag([2.0, 1.0])
        x0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        got = dqf_exact(m, x0, 1.0)
        e = np.e
        expected = np.array([e**2, e]) / np.sqrt(e**4 + e**2)
        assert np.allclose(got, expected, atol=1e-14)

    def test_matches_zero_noise_heun(self):
        # deterministic drift fed as increments M dt reproduces the flow;
        # exp(tM) x0 solves the ascent orientation (field +P_x M x), so the
        # step uses sign = +1
        rng = np.random.default_rng(20260810)
        g = rng.standard_normal((5, 5))
        m = (g + g.T) / 2.0
        x0 = random_unit_vector(5, rng)
        dt = 1e-4
        x = x0.copy()
        for _ in range(50_000):
            x = heun_step_rqf(x, m * dt, sign=1.0).state
        assert np.linalg.norm(x - dqf_exact(m, x0, 5.0)) < 1e-6

    def test_converges_to_top_eigenvector(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((5, 5))
        m = (g + g.T) / 2.0
        w, v = np.linalg.eigh(m)
        gap = w[-1] - w[-2]
        x0 = random_unit_vector(5, rng)
        xt = dqf_exact(m, x0, 50.0 / gap)
        top = v[:, -1] * np.sign(v[:, -1] @ x0)
        assert np.linalg.norm(xt - top) < 1e-8

    def test_long_time_no_overflow(self):
        m = np.diag([30.0, 0.0])
        out = dqf_exact(m, np.array([1.0, 1.0]) / np.sqrt(2), 1e4)
        assert np.allclose(out, [1.0, 0.0], atol=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            dqf_exact(np.zeros((2, 2)), np.array([1.0, 0.0]), -1.0)
        with pytest.raises(ValueError):
            dqf_exact(np.zeros((2, 2)), np.array([1.0, 0.0]), [0.0, -1.0])

    @pytest.mark.parametrize("t", [math.inf, math.nan, [0.5, math.inf]])
    def test_non_finite_time_rejected_by_name(self, t):
        # an infinite time once raised NumericalError blaming x0
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            dqf_exact(np.eye(3), np.array([1.0, 0.0, 0.0]), t)

    def test_times_array_matches_one_call_per_time_bit_exact(self, monkeypatch):
        # one decomposition serves every sample time, and each row has the
        # bits of the one-time call (t = 0 included)
        rng = np.random.default_rng(23)
        g = rng.standard_normal((4, 4))
        m = (g + g.T) / 2.0
        x0 = random_unit_vector(4, rng)
        times = np.linspace(0.0, 20.0, 201)
        single = [dqf_exact(m, x0, t) for t in times]
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        rows = dqf_exact(m, x0, times)
        assert len(calls) == 1
        assert rows.shape == (201, 4)
        assert all(np.array_equal(row, one) for row, one in zip(rows, single))
        assert dqf_exact(m, x0, []).shape == (0, 4)


class TestDominantEigenspace:
    def test_simple_gap(self):
        lam, vec, proj = dominant_eigenspace(np.diag([3.0, 1.0, 0.0]))
        assert lam == 3.0
        assert abs(abs(vec[0]) - 1.0) < 1e-14
        assert np.allclose(proj, np.diag([1.0, 0.0, 0.0]))

    def test_degenerate_top_reports_projector(self):
        lam, vec, proj = dominant_eigenspace(np.diag([2.0, 2.0, 1.0]))
        assert vec is None
        assert np.allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_weak_consistency_order():
    # one-step mean and covariance against the generator of the simulated
    # flow (quarter Laplace-Beltrami: mean -(n-1)/4 dt x0, covariance
    # dt/2 P_x0); log-log error slope under halving must be >= 1.4.
    #
    # The halved speed relative to the vector-noise Brownian motion is a
    # property of the symmetrized matrix noise: Var(dQ_ij) = dt/2 off the
    # diagonal gives quadratic variation P/2 dt, not P dt.
    n = 3
    x0 = np.array([1.0, 0.0, 0.0])
    proj = np.diag([0.0, 1.0, 1.0])
    errs = []
    dts = [0.4, 0.2, 0.1, 0.05]
    for i, dt in enumerate(dts):
        rng = np.random.Generator(np.random.Philox(key=300 + i))
        big = 200_000
        dq = symmetrize(rng.standard_normal((big, n, n)) * np.sqrt(dt))
        states = np.broadcast_to(x0, (big, n)).copy()

        def field(st):
            dqy = np.einsum("cij,cj->ci", dq, st)
            s = np.einsum("ci,ci->c", st, dqy)
            return -(dqy - s[:, None] * st)

        f1 = field(states)
        f2 = field(states + f1)
        out = states + 0.5 * (f1 + f2)
        out /= np.linalg.norm(out, axis=1)[:, None]
        d = out - x0
        mean_err = np.linalg.norm(d.mean(axis=0) - (-(n - 1) / 4.0 * dt * x0))
        cov_err = np.abs(d.T @ d / big - dt / 2.0 * proj).max()
        errs.append(mean_err + cov_err)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 1.4
