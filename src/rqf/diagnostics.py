"""Statistical verification of the sphere flows.

Uniformity testing against the exact marginals of the uniform measure on
S^{n-1}, synchronization metrics, antipodal cluster detection for
attractor experiments, two-sample Kolmogorov-Smirnov plumbing, and the
two-trajectory (Benettin) maximal Lyapunov exponent estimator with
periodic renormalization of the separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from . import flows, noise
from .errors import NumericalError

__all__ = [
    "ClusterSummary",
    "LyapunovEstimate",
    "UniformityReport",
    "attractor_detect",
    "coordinate_marginal_cdf",
    "ks_critical_value",
    "ks_two_sample",
    "lyapunov_benettin",
    "sync_metric",
    "uniformity_check",
]


# -- metrics ------------------------------------------------------------------


def sync_metric(x, y) -> float:
    """min(dist(x, y), dist(x, -y)): zero for both polar and anti-polar pairs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    c = min(1.0, max(-1.0, float(np.dot(x, y))))
    return min(float(np.arccos(c)), float(np.arccos(-c)))


# -- uniformity ---------------------------------------------------------------


def coordinate_marginal_cdf(u, n: int):
    """CDF of one coordinate of a uniform point on S^{n-1}.

    The coordinate is 2B - 1 with B ~ Beta((n-1)/2, (n-1)/2), i.e. has
    density proportional to (1 - u^2)^{(n-3)/2} on [-1, 1].
    """
    a = (n - 1) / 2.0
    return stats.beta.cdf((np.asarray(u, dtype=float) + 1.0) / 2.0, a, a)


@dataclass(frozen=True)
class UniformityReport:
    n_samples: int
    n: int
    mean_norm: float
    mean_norm_bound: float
    cov_dev_diag: float
    cov_dev_diag_bound: float
    cov_dev_off: float
    cov_dev_off_bound: float
    ks_pvalues: list[float]
    level: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n": self.n,
            "mean_norm": self.mean_norm,
            "mean_norm_bound": self.mean_norm_bound,
            "cov_dev_diag": self.cov_dev_diag,
            "cov_dev_diag_bound": self.cov_dev_diag_bound,
            "cov_dev_off": self.cov_dev_off,
            "cov_dev_off_bound": self.cov_dev_off_bound,
            "ks_pvalues": list(self.ks_pvalues),
            "level": self.level,
            "passed": self.passed,
        }


def uniformity_check(samples, level: float = 0.01) -> UniformityReport:
    """Test a batch of unit vectors against the uniform law on the sphere.

    Checks the mean (should vanish), the covariance (should be I/n) at
    three standard errors computed from the exact fourth moments, and each
    coordinate against its exact marginal with a KS test at
    ``level / n`` (Bonferroni across coordinates).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 100:
        raise ValueError("need at least 100 samples of common dimension")
    big_n, n = arr.shape

    mean = arr.mean(axis=0)
    mean_norm = float(np.linalg.norm(mean))
    # E||mean||^2 = 1/N exactly under uniformity
    mean_bound = 3.0 / math.sqrt(big_n)

    cov = arr.T @ arr / big_n
    dev = cov - np.eye(n) / n
    diag_var = 3.0 / (n * (n + 2)) - 1.0 / n**2   # Var(u_i^2)
    off_var = 1.0 / (n * (n + 2))                 # Var(u_i u_j), i != j
    dev_diag = float(np.max(np.abs(np.diag(dev))))
    off_mask = ~np.eye(n, dtype=bool)
    dev_off = float(np.max(np.abs(dev[off_mask]))) if n > 1 else 0.0
    diag_bound = 3.0 * math.sqrt(diag_var / big_n)
    off_bound = 3.0 * math.sqrt(off_var / big_n)

    pvals = [float(stats.kstest(arr[:, i], lambda u: coordinate_marginal_cdf(u, n)).pvalue) for i in range(n)]

    passed = (
        mean_norm < mean_bound
        and dev_diag < diag_bound
        and dev_off < off_bound
        and min(pvals) > level / n
    )
    return UniformityReport(
        n_samples=big_n,
        n=n,
        mean_norm=mean_norm,
        mean_norm_bound=mean_bound,
        cov_dev_diag=dev_diag,
        cov_dev_diag_bound=diag_bound,
        cov_dev_off=dev_off,
        cov_dev_off_bound=off_bound,
        ks_pvalues=pvals,
        level=level,
        passed=passed,
    )


# -- two-sample KS ------------------------------------------------------------


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS statistic with its asymptotic p-value."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    res = stats.ks_2samp(a, b, method="asymp")
    return float(res.statistic), float(res.pvalue)


def ks_critical_value(na: int, nb: int, level: float = 0.01) -> float:
    """Asymptotic two-sample KS rejection threshold at the given level."""
    c = math.sqrt(-math.log(level / 2.0) / 2.0)
    return c * math.sqrt((na + nb) / (na * nb))


# -- antipodal cluster detection ------------------------------------------------


@dataclass(frozen=True)
class ClusterSummary:
    """Antipodal cluster structure of a terminal ensemble.

    k = 2: two clusters around anti-polar poles; k = 1: a single cluster;
    k = 0: detection failed (some point exceeds the diameter tolerance,
    or the two side poles are not anti-polar).  Masses always sum to 1.
    """

    k: int
    poles: list = field(default_factory=list)
    diameters: list = field(default_factory=list)
    masses: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "poles": [[float(c) for c in p] for p in self.poles],
            "diameters": [float(d) for d in self.diameters],
            "masses": [float(m) for m in self.masses],
        }


def _group_stats(group: np.ndarray, fallback_pole: np.ndarray):
    mean = group.mean(axis=0)
    nrm = np.linalg.norm(mean)
    pole = mean / nrm if nrm > 1e-12 else fallback_pole
    gram = np.clip(group @ group.T, -1.0, 1.0)
    diameter = float(np.arccos(gram.min()))
    worst_to_pole = float(np.arccos(np.clip(group @ pole, -1.0, 1.0).min()))
    return pole, diameter, worst_to_pole


def attractor_detect(final_states, diameter_tol: float) -> ClusterSummary:
    """Greedy antipodal clustering around the principal axis.

    The axis is the top eigenvector of the empirical second-moment matrix
    (rotation-equivariant; the hypothesis class is exactly a point pair
    {a, -a}).  Points are assigned to the nearer of {a, -a}; each side is
    summarized by its normalized mean, the in-cluster diameter, and its
    mass fraction.  Detection is flagged as failed (k = 0) instead of
    raising.
    """
    if diameter_tol <= 0:
        raise ValueError("diameter_tol must be positive")
    arr = np.asarray(final_states, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("need a non-empty (count, n) array of states")

    second = arr.T @ arr / arr.shape[0]
    _, vecs = np.linalg.eigh(second)
    axis = vecs[:, -1]

    plus_mask = arr @ axis >= 0.0
    sides = [arr[plus_mask], arr[~plus_mask]]
    fallbacks = [axis, -axis]

    poles, diameters, masses, worst = [], [], [], []
    for grp, fb in zip(sides, fallbacks):
        if len(grp) == 0:
            continue
        pole, diam, far = _group_stats(grp, fb)
        poles.append(pole)
        diameters.append(diam)
        masses.append(len(grp) / arr.shape[0])
        worst.append(far)

    k = len(poles)
    if any(w > diameter_tol for w in worst):
        k = 0
    if len(poles) == 2 and float(np.dot(poles[0], poles[1])) >= 0.0:
        k = 0
    return ClusterSummary(k=k, poles=poles, diameters=diameters, masses=masses)


# -- Lyapunov exponents ---------------------------------------------------------


@dataclass(frozen=True)
class LyapunovEstimate:
    lambda_: float
    stderr: float
    t_total: float
    renorm_interval: float
    intervals: int

    def as_dict(self) -> dict:
        return {
            "lambda": self.lambda_,
            "stderr": self.stderr,
            "t_total": self.t_total,
            "renorm_interval": self.renorm_interval,
            "intervals": self.intervals,
        }


def _check_separation(ratio: float):
    if not (1e-8 < ratio < 1e8):
        raise NumericalError(
            f"separation ratio {ratio:.3e} left the safe range; use a smaller renorm_interval"
        )


def _benettin_phase(T, dt, renorm_interval, seed, delta0, spi):
    intervals = int(T / (spi * dt) + 1e-9)
    steps = intervals * spi
    path = noise.NoisePath(seed, 2, dt, steps)
    phi1 = 0.1
    phi2 = phi1 + delta0
    logs = np.empty(intervals)
    idx = 0
    k = 0
    for db, _ in path.blocks():
        du_arr, dv_arr = flows._phase_combos(db)
        for du, dv in zip(du_arr.tolist(), dv_arr.tolist()):
            phi1 = flows._phase_heun(phi1, du, dv, math.sin, math.cos)
            phi2 = flows._phase_heun(phi2, du, dv, math.sin, math.cos)
            k += 1
            if k % spi == 0:
                d = math.remainder(phi2 - phi1, 2.0 * math.pi)
                ratio = abs(d) / delta0
                _check_separation(ratio)
                logs[idx] = math.log(ratio)
                idx += 1
                phi2 = phi1 + math.copysign(delta0, d if d != 0.0 else 1.0)
    return logs, steps * dt


def _benettin_sphere2(T, dt, renorm_interval, seed, delta0, spi, q_scale):
    # scalar specialization of the n = 2 flow; ~10x faster than array steps
    intervals = int(T / (spi * dt) + 1e-9)
    steps = intervals * spi
    path = noise.NoisePath(seed, 2, dt, steps)
    x1, x2 = 1.0, 0.0
    y1, y2 = _renorm2(x1, x2, x1 + 0.0, x2 + delta0, delta0)
    logs = np.empty(intervals)
    idx = 0
    k = 0

    def step(c, s, q11, q12, q22):
        a = q11 * c + q12 * s
        b = q12 * c + q22 * s
        dot = c * a + s * b
        f1c = q_scale * (a - dot * c)
        f1s = q_scale * (b - dot * s)
        pc = c + f1c
        ps = s + f1s
        a = q11 * pc + q12 * ps
        b = q12 * pc + q22 * ps
        dot = pc * a + ps * b
        f2c = q_scale * (a - dot * pc)
        f2s = q_scale * (b - dot * ps)
        nc = c + 0.5 * (f1c + f2c)
        ns = s + 0.5 * (f1s + f2s)
        inv = 1.0 / math.sqrt(nc * nc + ns * ns)
        return nc * inv, ns * inv

    for db, _ in path.blocks():
        rows = db.reshape(len(db), 4).tolist()
        for b11, b12, b21, b22 in rows:
            q12 = 0.5 * (b12 + b21)
            x1, x2 = step(x1, x2, b11, q12, b22)
            y1, y2 = step(y1, y2, b11, q12, b22)
            k += 1
            if k % spi == 0:
                dx = y1 - x1
                dy = y2 - x2
                d = math.sqrt(dx * dx + dy * dy)
                ratio = d / delta0
                _check_separation(ratio)
                logs[idx] = math.log(ratio)
                idx += 1
                y1, y2 = _renorm2(x1, x2, y1, y2, delta0)
    return logs, steps * dt


def _renorm2(x1, x2, y1, y2, delta0):
    dx = y1 - x1
    dy = y2 - x2
    d = math.sqrt(dx * dx + dy * dy)
    if d == 0.0:
        return _renorm2(x1, x2, x1 - x2 * delta0, x2 + x1 * delta0, delta0)
    c1 = x1 + (delta0 / d) * dx
    c2 = x2 + (delta0 / d) * dy
    inv = 1.0 / math.sqrt(c1 * c1 + c2 * c2)
    return c1 * inv, c2 * inv


def _benettin_sphere(n, T, dt, renorm_interval, seed, delta0, spi, q_scale, w_scale):
    # reference and companion as one 2-member run; the companion is pulled
    # back to distance delta0 every spi steps
    intervals = int(T / (spi * dt) + 1e-9)
    steps = intervals * spi
    path = noise.NoisePath(seed, n, dt, steps, with_vector=w_scale != 0.0)
    states = np.zeros((2, n))
    states[:, 0] = 1.0
    states[1, 1] = delta0
    states[1] /= np.linalg.norm(states[1])
    logs = np.empty(intervals)

    def renormalize(k, states):
        if k % spi:
            return
        diff = states[1] - states[0]
        d = float(np.linalg.norm(diff))
        ratio = d / delta0
        _check_separation(ratio)
        logs[k // spi - 1] = math.log(ratio)
        y = states[0] + (delta0 / d) * diff
        states[1] = y / np.linalg.norm(y)

    flows._advance(states, path, q_scale, w_scale, renormalize)
    return logs, steps * dt


def lyapunov_benettin(
    model: str,
    params: dict | None,
    T: float,
    dt: float,
    renorm_interval: float = 0.1,
    seed: int = 0,
    delta0: float = 1e-8,
) -> LyapunovEstimate:
    """Maximal Lyapunov exponent by the two-trajectory method.

    A reference trajectory and a companion offset by ``delta0`` are
    advanced under shared noise; every ``renorm_interval`` the separation
    is measured, its log-growth accumulated, and the companion pulled back
    to distance ``delta0``.  Returns the growth rate with a block-averaged
    standard error.  Deterministic given the seed.

    Models: ``"phase"`` (the circle reduction; no params) and ``"sphere"``
    (params: n, sigma_q, sigma_w, sign).
    """
    if dt <= 0 or renorm_interval <= dt:
        raise ValueError("need renorm_interval > dt > 0")
    if T < 2 * renorm_interval:
        raise ValueError("need T >= 2 * renorm_interval")
    params = dict(params or {})
    spi = max(1, int(round(renorm_interval / dt)))

    if model == "phase":
        logs, t_total = _benettin_phase(T, dt, renorm_interval, seed, delta0, spi)
    elif model == "sphere":
        n = int(params.get("n", 2))
        sigma_q = float(params.get("sigma_q", 1.0))
        sigma_w = float(params.get("sigma_w", 0.0))
        sign = float(params.get("sign", -1.0))
        if n == 2 and sigma_w == 0.0:
            logs, t_total = _benettin_sphere2(T, dt, renorm_interval, seed, delta0, spi, sign * sigma_q)
        else:
            logs, t_total = _benettin_sphere(
                n, T, dt, renorm_interval, seed, delta0, spi, sign * sigma_q, sign * sigma_w
            )
    else:
        raise ValueError(f"unknown model {model!r}; expected 'phase' or 'sphere'")

    interval_t = spi * dt
    rates = logs / interval_t
    lam = float(rates.mean())
    nb = min(50, len(rates))
    if nb >= 2:
        blocks = np.array_split(rates, nb)
        means = np.array([b.mean() for b in blocks])
        stderr = float(means.std(ddof=1) / math.sqrt(nb))
    else:
        stderr = 0.0
    return LyapunovEstimate(
        lambda_=lam,
        stderr=stderr,
        t_total=float(t_total),
        renorm_interval=interval_t,
        intervals=len(rates),
    )
