"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Three criteria (2, 4, 7) encode constants that the flow defined here cannot
produce; they are implemented exactly as stated and left red rather than
loosened.  The measured facts behind each red criterion:

* criterion 2: the symmetrized matrix noise has Var(dQ_ij) = dt/2 off the
  diagonal, which makes the one-point motion a Brownian motion at HALF the
  speed of the vector-noise motion dX = -P dW (quadratic variation P/2 dt
  vs P dt, mean inner-product decay exp(-(n-1)t/4) vs exp(-(n-1)t/2)), so
  equal-time laws differ by a factor-2 time change;
* criterion 4: the inner product of a coupled pair is a diffusion with
  drift -z(1-z^2) (measured and derived from the pair generator), while the
  scalar reference process is defined with drift +2z(1-z^2); same diffusion
  coefficient, different laws;
* criterion 7: the pair-separation contraction rate near the attractor is
  the Lyapunov exponent -1, so after T=15 the slowest of 100 grid points
  frequently sits above a 1e-3 diameter (the stated 99% rate needs roughly
  T >= 30 at that tolerance).
"""

import math

import numpy as np
import pytest

from rqf import diagnostics, flows, integrators, noise, zprocess
from rqf.cli import RunConfig, run
from rqf.geometry import random_unit_vector

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_noise_statistics():
    dt = 1e-2
    draws = 100_000
    path = noise.generate_path(20_101, 2, dt, draws)
    dq = np.concatenate([noise.symmetrize(db) for db, _ in path.blocks()])
    var_diag = dq[:, 0, 0].var()
    var_off = dq[:, 0, 1].var()
    se_diag = dt * math.sqrt(2.0 / draws)
    se_off = (dt / 2) * math.sqrt(2.0 / draws)
    ok = abs(var_diag - dt) < 3 * se_diag and abs(var_off - dt / 2) < 3 * se_off
    _report(1, ok, f"Var(dQ_11)={var_diag:.6f} (dt={dt}), Var(dQ_12)={var_off:.6f} (dt/2={dt/2})")
    assert ok


def test_criterion_02_one_point_brownian_law():
    reps, dt = 10_000, 1e-3
    rqf_inner = flows.batch_finals(E1[None, :], 1.0, dt, 20_201, reps)[:, 0] @ E1
    bm_inner = flows.batch_finals(E1[None, :], 1.0, dt, 20_202, reps, sigma_q=0.0, sigma_w=1.0)[:, 0] @ E1
    stat, _ = diagnostics.ks_two_sample(rqf_inner, bm_inner)
    crit = diagnostics.ks_critical_value(reps, reps, 0.01)
    target = math.exp(-1.0)
    se = rqf_inner.std(ddof=1) / math.sqrt(reps)
    mean_ok = abs(rqf_inner.mean() - target) < 3 * se
    ks_ok = stat < crit
    _report(
        2,
        ks_ok and mean_ok,
        f"KS={stat:.4f} (crit {crit:.4f}); mean <X_1,x0>={rqf_inner.mean():.4f} "
        f"(target e^-1={target:.4f}, 3SE={3 * se:.4f}; the flow itself gives e^-1/2={math.exp(-0.5):.4f})",
    )
    assert ks_ok, "equal-time laws differ by the factor-2 time change of the matrix noise"
    assert mean_ok


def test_criterion_03_uniform_invariant_measure():
    reps = 10_000
    finals = flows.batch_finals(E1[None, :], 30.0, 1e-2, 20_301, reps)[:, 0, :]
    report = diagnostics.uniformity_check(finals, level=0.01)
    _report(
        3,
        report.passed,
        f"|mean|={report.mean_norm:.4f} (<{report.mean_norm_bound:.4f}), "
        f"min KS p={min(report.ks_pvalues):.3f} (>{0.01 / 3:.4f})",
    )
    assert report.passed


def test_criterion_04_z_process_reduction():
    reps, dt = 5000, 1e-3
    scalar = zprocess.simulate_z_finals(0.0, 1.0, dt, 20_401, reps)
    crit = diagnostics.ks_critical_value(reps, reps, 0.01)

    a5 = np.zeros(5)
    a5[0] = 1.0
    b5 = np.zeros(5)
    b5[1] = 1.0
    fin5 = flows.batch_finals(np.stack([a5, b5]), 1.0, dt, 20_402, reps)
    z5 = np.einsum("ri,ri->r", fin5[:, 0], fin5[:, 1])
    stat5, _ = diagnostics.ks_two_sample(z5, scalar)

    a2 = np.array([1.0, 0.0])
    b2 = np.array([0.0, 1.0])
    fin2 = flows.batch_finals(np.stack([a2, b2]), 1.0, dt, 20_403, reps)
    z2 = np.einsum("ri,ri->r", fin2[:, 0], fin2[:, 1])
    stat2, _ = diagnostics.ks_two_sample(z2, scalar)
    cross, _ = diagnostics.ks_two_sample(z2, z5)

    ok = stat5 < crit and stat2 < crit
    _report(
        4,
        ok,
        f"KS(sphere n=5 vs scalar)={stat5:.4f}, KS(n=2 vs scalar)={stat2:.4f} (crit {crit:.4f}); "
        f"KS(n=2 vs n=5)={cross:.4f} so the sphere law is dimension-independent, but its drift is "
        f"-z(1-z^2), not +2z(1-z^2)",
    )
    assert ok, "the coupled-pair inner product does not follow the stated scalar SDE"


def test_criterion_05_boundary_absorption_and_splitting():
    reps, dt, horizon = 5000, 1e-3, 20.0
    target = zprocess.hit_up_probability(0.5)
    finals = zprocess.simulate_z_finals(0.5, horizon, dt, 20_501, reps)
    p_hat = np.mean(finals >= 0.999)
    se = math.sqrt(target * (1 - target) / reps)
    up_ok = abs(p_hat - target) < 3 * se

    finals0 = zprocess.simulate_z_finals(0.0, horizon, dt, 20_502, reps)
    p0 = np.mean(finals0 >= 0.999)
    se0 = math.sqrt(0.25 / reps)
    split_ok = abs(p0 - 0.5) < 3 * se0 and np.mean(np.abs(finals0) > 0.999) > 0.99
    ok = up_ok and split_ok
    _report(5, ok, f"P(Z->+1|z0=0.5)={p_hat:.4f} (target {target}); split from 0: {p0:.4f}")
    assert ok


def test_criterion_06_fokker_planck_oracle():
    cells, reps = 401, 100_000
    grid = zprocess.fokker_planck_evolve(zprocess.DensityGrid.delta(0.0, cells), 0.5)
    drift = abs(float(grid.masses.sum()) - 1.0)
    samples = zprocess.simulate_z_finals(0.0, 0.5, 2.5e-4, 103, reps)
    l1 = zprocess.l1_density_distance(grid, samples)
    ok = l1 < 0.05 and drift < 1e-9
    _report(6, ok, f"L1(FP, MC histogram)={l1:.4f} (<0.05); mass drift={drift:.2e} (<1e-9)")
    assert ok


def test_criterion_07_bipolar_attractor():
    reps, horizon, dt, tol = 200, 15.0, 1e-3, 1e-3
    grid = flows.sphere_grid(100, 3)
    finals = flows.batch_finals(grid, horizon, dt, 20_701, reps)
    clean = 0
    fractions = []
    for r in range(reps):
        sm = diagnostics.attractor_detect(finals[r], tol)
        if sm.k == 2:
            fractions.append(sm.masses[0])
            if max(sm.diameters) < tol and float(np.dot(sm.poles[0], sm.poles[1])) < -0.999:
                clean += 1
    fractions = np.asarray(fractions)
    rate = clean / reps
    se = fractions.std(ddof=1) / math.sqrt(fractions.size)
    mass_ok = abs(fractions.mean() - 0.5) < 3 * se
    rate_ok = rate >= 0.99
    _report(
        7,
        rate_ok and mass_ok,
        f"clean bipolar rate={rate:.3f} (>=0.99 stated; contraction rate -1 needs T>=30 for that), "
        f"mean mass fraction={fractions.mean():.4f} (0.5 +- {3 * se:.4f})",
    )
    assert mass_ok
    assert rate_ok, "diameter tolerance 1e-3 at T=15 is ahead of the e^{-t} pair contraction"


def test_criterion_08_exact_invariant_configurations():
    ok = True
    for n in (3, 5):
        x0 = random_unit_vector(n, np.random.default_rng(20_801 + n))
        same = flows.simulate_coupled([x0, x0], 10.0, 1e-3, 20_802)
        ok &= bool(np.array_equal(same.members[0].states, same.members[1].states))
        anti = flows.simulate_coupled([x0, -x0], 10.0, 1e-3, 20_803)
        ok &= bool(np.array_equal(anti.members[0].states, -anti.members[1].states))
    _report(8, ok, "Y0=X0 and Y0=-X0 preserved bit-exactly over 10^4 steps (n=3 and n=5)")
    assert ok


def test_criterion_09_lyapunov_exponent():
    est_phase = diagnostics.lyapunov_benettin("phase", None, 10_000.0, 1e-3, 0.1, seed=20_901)
    phase_ok = abs(est_phase.lambda_ + 1.0) < 0.05
    est_sphere = diagnostics.lyapunov_benettin("sphere", {"n": 2}, 10_000.0, 1e-3, 0.1, seed=20_902)
    gap = abs(est_phase.lambda_ - est_sphere.lambda_)
    bound = 2.0 * math.hypot(est_phase.stderr, est_sphere.stderr)
    agree_ok = gap < bound
    ok = phase_ok and agree_ok
    _report(
        9,
        ok,
        f"circle model lambda={est_phase.lambda_:.4f}+-{est_phase.stderr:.4f} (target -1+-0.05); "
        f"n=2 flow lambda={est_sphere.lambda_:.4f}+-{est_sphere.stderr:.4f}, |diff|={gap:.4f} (<{bound:.4f})",
    )
    assert ok


def test_criterion_10_dqf_exactness():
    rng = np.random.default_rng(21_001)
    g = rng.standard_normal((5, 5))
    m = (g + g.T) / 2.0
    x0 = random_unit_vector(5, rng)
    dt = 1e-4
    x = x0.copy()
    for _ in range(50_000):
        x = integrators.heun_step_rqf(x, m * dt, sign=1.0).state
    dev = float(np.linalg.norm(x - integrators.dqf_exact(m, x0, 5.0)))

    w, v = np.linalg.eigh(m)
    gap = w[-1] - w[-2]
    xt = integrators.dqf_exact(m, x0, 50.0 / gap)
    top = v[:, -1] * np.sign(v[:, -1] @ x0)
    top_dev = float(np.linalg.norm(xt - top))
    ok = dev < 1e-6 and top_dev < 1e-8
    _report(10, ok, f"Heun vs exact at t=5: {dev:.2e} (<1e-6); top-eigenvector distance {top_dev:.2e} (<1e-8)")
    assert ok


def test_criterion_11_pure_bias_singleton():
    reps = 1000
    fin = flows.batch_finals(np.stack([E1, E2]), 20.0, 1e-2, 21_101, reps, sigma_q=0.0, sigma_w=1.0)
    inner = np.einsum("ri,ri->r", fin[:, 0], fin[:, 1])
    dist = np.arccos(np.clip(inner, -1.0, 1.0))
    polar = float(np.mean(dist < 0.01))
    antipolar = int(np.sum((np.pi - dist) < 0.01))
    ok = polar >= 0.95 and antipolar == 0
    _report(11, ok, f"polar branch rate={polar:.3f} (>=0.95), antipolar count={antipolar} (must be 0)")
    assert ok


def test_criterion_12_determinism(tmp_path):
    doc = {
        "experiment": "uniformity",
        "n": 3,
        "T": 0.5,
        "dt": 1e-2,
        "seed": 21_201,
        "seed_count": 2000,
    }
    m1 = run(RunConfig(**doc, out_dir=str(tmp_path / "a")), threads=1)
    m2 = run(RunConfig(**doc, out_dir=str(tmp_path / "b")), threads=1)
    m4 = run(RunConfig(**doc, out_dir=str(tmp_path / "c")), threads=4)
    ok = m1["outputs"] == m2["outputs"] == m4["outputs"] and m1["fingerprint"] == m4["fingerprint"]
    _report(12, ok, f"fingerprint {m1['fingerprint'][:16]}... identical across reruns and 1 vs 4 workers")
    assert ok
