"""Statistical verification of the sphere flows.

Uniformity testing against the exact marginals of the uniform measure on
S^{n-1}, synchronization metrics, antipodal cluster detection for
attractor experiments, two-sample Kolmogorov-Smirnov plumbing, and the
two-trajectory (Benettin) maximal Lyapunov exponent estimator with
periodic renormalization of the separation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import special

from . import flows, noise
from .geometry import sphere_distance
from .integrators import _scales

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
    """min(dist(x, y), dist(x, -y)): zero for both polar and anti-polar pairs; NaN stays NaN."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return min(sphere_distance(x, y), sphere_distance(x, -y))


# -- uniformity ---------------------------------------------------------------


def coordinate_marginal_cdf(u, n: int):
    """CDF of one coordinate of a uniform point on S^{n-1}.

    The coordinate is 2B - 1 with B ~ Beta((n-1)/2, (n-1)/2), i.e. has
    density proportional to (1 - u^2)^{(n-3)/2} on [-1, 1].
    """
    a = (n - 1) / 2.0
    # the regularized incomplete beta function is the Beta(a, a) CDF; clipping
    # gives 0 and 1 outside the support, as scipy.stats.beta.cdf does
    return special.betainc(a, a, np.clip((np.asarray(u, dtype=float) + 1.0) / 2.0, 0.0, 1.0))


def _ks_marginals(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate KS statistic against the exact marginal, with its p-value.

    D is computed as scipy's ``_compute_d`` computes it, from the marginal
    CDF at the sorted samples; the p-value is ``2 * smirnov(N, D)``.
    """
    big_n, n = samples.shape
    cdf = coordinate_marginal_cdf(np.sort(samples, axis=0), n)
    d_plus = (np.arange(1.0, big_n + 1) / big_n)[:, None] - cdf
    d_minus = cdf - (np.arange(0.0, big_n) / big_n)[:, None]
    d = np.maximum(d_plus.max(axis=0), d_minus.max(axis=0))
    return d, np.clip(2.0 * special.smirnov(big_n, d), 0.0, 1.0)


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
        return asdict(self)


def uniformity_check(samples, level: float = 0.01) -> UniformityReport:
    """Test a batch of unit vectors against the uniform law on the sphere.

    Checks the mean (should vanish), the covariance (should be I/n) at
    three standard errors computed from the exact fourth moments, and each
    coordinate against its exact marginal with a KS test at
    ``level / n`` (Bonferroni across coordinates).

    Each KS p-value is ``2 * smirnov(N, D)``, the Miller approximation
    that ``scipy.stats.kstest(..., method="approx")`` reports, and D is
    kstest's statistic bit for bit.  Where N > 140 and N D^2 >= 2.2, so
    p <= 0.025 (the band that holds ``level / n`` at the default level),
    the p-value is also the exact ``kstwo.sf(D, N)`` bit for bit.  Above
    about 0.025, and for N <= 140 when N D^2 <= 4, it differs slightly
    from the exact one.
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

    pvals = _ks_marginals(arr)[1].tolist()
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
    """Two-sample KS statistic with scipy's "asymp" p-value.

    In scipy 1.17 that two-sided p-value is ``kstwo.sf(d, round(nm / (n + m)))``,
    the exact one-sample law at the effective size, not the Kolmogorov limit.
    scipy.stats is imported here, not at module load, so that no ``rqf``
    command pays for its import; no CLI experiment calls this function.
    """
    from scipy import stats

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
    if not diameter_tol > 0:
        raise ValueError(f"diameter_tol must be positive, got {diameter_tol}")
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


# smallest companion offset: unit-scale rounding errs by over 2e-4 of a
# smaller one; 1e-17 is lost to it, and 1e-200 squared underflows to 0
MIN_DELTA0 = 1e-12


def _log_growth(distance: float, delta0: float, path, k: int) -> float:
    # the separation after step k of ``path``; out of range, it names k, seed and stream
    ratio = distance / delta0
    if not (1e-8 < ratio < 1e8):
        what = f"separation ratio {ratio:.3e} left the safe range (use a smaller renorm_interval)"
        raise noise._located(path, what, k, True)
    return math.log(ratio)


def _benettin_phase(path, logs, spi, delta0):
    phi1 = 0.1
    phi2 = phi1 + delta0
    k = 0
    for dq, _ in noise._increments(path):
        du_arr, dv_arr = flows._phase_combos(dq)
        for du, dv in zip(du_arr.tolist(), dv_arr.tolist()):
            phi1 = flows._phase_heun(phi1, du, dv, math.sin, math.cos)
            phi2 = flows._phase_heun(phi2, du, dv, math.sin, math.cos)
            k += 1
            if k % spi == 0:
                d = math.remainder(phi2 - phi1, 2.0 * math.pi)
                logs[k // spi - 1] = _log_growth(abs(d), delta0, path, k)
                phi2 = phi1 + math.copysign(delta0, d)


def _benettin_sphere2(path, logs, spi, delta0, q_scale):
    # scalar specialization of the n = 2 flow; ~10x faster than array steps;
    # it reads dQ already scaled by q_scale, as flows._advance does
    x1, x2 = 1.0, 0.0
    y1, y2 = _renorm2(x1, x2, x1 + 0.0, x2 + delta0, delta0)
    k = 0

    def step(c, s, q11, q12, q22):
        a = q11 * c + q12 * s
        b = q12 * c + q22 * s
        dot = c * a + s * b
        f1c = a - dot * c
        f1s = b - dot * s
        pc = c + f1c
        ps = s + f1s
        a = q11 * pc + q12 * ps
        b = q12 * pc + q22 * ps
        dot = pc * a + ps * b
        f2c = a - dot * pc
        f2s = b - dot * ps
        nc = c + 0.5 * (f1c + f2c)
        ns = s + 0.5 * (f1s + f2s)
        inv = 1.0 / math.sqrt(nc * nc + ns * ns)
        return nc * inv, ns * inv

    for dq, _ in noise._increments(path, q_scale):
        for q11, q12, _, q22 in dq.reshape(len(dq), 4).tolist():
            x1, x2 = step(x1, x2, q11, q12, q22)
            y1, y2 = step(y1, y2, q11, q12, q22)
            k += 1
            if k % spi == 0:
                dx = y1 - x1
                dy = y2 - x2
                logs[k // spi - 1] = _log_growth(math.sqrt(dx * dx + dy * dy), delta0, path, k)
                y1, y2 = _renorm2(x1, x2, y1, y2, delta0)


def _renorm2(x1, x2, y1, y2, delta0):
    dx = y1 - x1
    dy = y2 - x2
    d = math.sqrt(dx * dx + dy * dy)
    c1 = x1 + (delta0 / d) * dx
    c2 = x2 + (delta0 / d) * dy
    inv = 1.0 / math.sqrt(c1 * c1 + c2 * c2)
    return c1 * inv, c2 * inv


def _benettin_sphere(path, logs, spi, delta0, q_scale, w_scale):
    # reference and companion as one 2-member run; the companion is pulled
    # back to distance delta0 every spi steps
    states = np.zeros((2, path.n))
    states[:, 0] = 1.0
    states[1, 1] = delta0
    states[1] /= np.linalg.norm(states[1])

    def renormalize(k, states):
        if k % spi:
            return
        diff = states[1] - states[0]
        d = float(np.linalg.norm(diff))
        logs[k // spi - 1] = _log_growth(d, delta0, path, k)
        y = states[0] + (delta0 / d) * diff
        states[1] = y / np.linalg.norm(y)

    flows._advance(states, path, q_scale, w_scale, renormalize)


def _benettin_grid(T: float, dt: float, renorm_interval: float) -> tuple[int, int]:
    # steps per renormalisation, and the whole intervals that fit in T
    spi = max(1, int(round(renorm_interval / dt)))
    return spi, int(T / (spi * dt) + 1e-9)


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

    Models: ``"phase"`` (the circle reduction; params None or empty) and
    ``"sphere"`` (params: n, sigma_q, sigma_w, sign).  Any other key
    raises ValueError rather than being ignored.
    """
    if not all(map(math.isfinite, (T, dt, renorm_interval))):
        raise ValueError(f"T, dt and renorm_interval must be finite, got {T}, {dt}, {renorm_interval}")
    if dt <= 0 or renorm_interval <= dt:
        raise ValueError("need renorm_interval > dt > 0")
    if not delta0 >= MIN_DELTA0:
        raise ValueError(f"delta0 must be >= {MIN_DELTA0}, got {delta0}")
    if T < 2 * renorm_interval:
        raise ValueError("need T >= 2 * renorm_interval")
    if model not in ("phase", "sphere"):
        raise ValueError(f"unknown model {model!r}; expected 'phase' or 'sphere'")
    params = dict(params or {})
    allowed = {"n", "sigma_q", "sigma_w", "sign"} if model == "sphere" else set()
    if unexpected := sorted(map(str, set(params) - allowed)):
        raise ValueError(f"unexpected {model} parameters: {', '.join(unexpected)}")
    n = params.get("n", 2)
    if not isinstance(n, numbers.Integral):  # int() would run n=2.7 as n=2
        raise TypeError(f"sphere parameter n must be an integer, got {n!r}")
    q_scale, w_scale = _scales(float(params.get("sigma_q", 1.0)), float(params.get("sigma_w", 0.0)),
                               float(params.get("sign", -1.0)))
    spi, intervals = _benettin_grid(T, dt, renorm_interval)
    steps = intervals * spi
    path = noise.NoisePath(seed, n, dt, steps, with_vector=w_scale != 0.0)
    logs = np.empty(intervals)
    if model == "phase":
        _benettin_phase(path, logs, spi, delta0)
    elif n == 2 and w_scale == 0.0:
        _benettin_sphere2(path, logs, spi, delta0, q_scale)
    else:
        _benettin_sphere(path, logs, spi, delta0, q_scale, w_scale)

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
        t_total=float(steps * dt),
        renorm_interval=interval_t,
        intervals=len(rates),
    )
