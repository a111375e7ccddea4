"""Whole-trajectory and ensemble simulation of the sphere flows.

One noise realization is one :class:`~rqf.noise.NoisePath`; every member of
an ensemble consumes the same symmetrized increment at every step, so the
common-noise coupling is structural rather than something callers have to
get right.  Monte Carlo over realizations uses per-replicate substreams
(seed, replicate index) and advances whole chunks of replicates with
batched array arithmetic.  Every sphere runner goes through one Heun loop,
``_advance``, which reads noise one block at a time.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import noise
from .errors import NumericalError, ResourceCapError
from .geometry import fibonacci_sphere, random_unit_vector, unit_vector
from .integrators import _heun_step

__all__ = [
    "Ensemble",
    "PhaseTrajectory",
    "PullbackResult",
    "Trajectory",
    "batch_finals",
    "circle_angle",
    "phase_finals",
    "pullback_run",
    "simulate_bias",
    "simulate_coupled",
    "simulate_phase",
    "simulate_rqf",
    "sphere_grid",
]


@dataclass(frozen=True)
class Trajectory:
    """Uniformly spaced times (t_0 = 0) and the states visited."""

    times: np.ndarray
    states: np.ndarray  # (len(times), n)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class Ensemble:
    """Members advanced under one shared noise realization."""

    noise: noise.NoisePath | None
    members: list[Trajectory]

    @property
    def final_states(self) -> np.ndarray:
        return np.stack([m.states[-1] for m in self.members])


@dataclass(frozen=True)
class PhaseTrajectory:
    times: np.ndarray
    angles: np.ndarray  # wrapped to [0, 2*pi)

    @property
    def final(self) -> float:
        return float(self.angles[-1])


@dataclass(frozen=True)
class PullbackResult:
    final_states: np.ndarray
    summary: object  # a diagnostics.ClusterSummary


def _step_count(T: float, dt: float) -> int:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < 0:
        raise ValueError("T must be >= 0")
    if T == 0:
        return 0
    if dt > T:
        raise ValueError(f"dt={dt} exceeds T={T}")
    return int(math.ceil(T / dt - 1e-9))


def _located(path, what: str, step: int, bad) -> NumericalError:
    # ``bad`` flags replicates along the leading axes of the state stack; a
    # keyed path names the (seed, stream) of the first one
    msg = f"{what} at step {step}"
    if hasattr(path, "seed"):
        rep = int(np.flatnonzero(bad)[0])
        msg += f" (seed {path.seed}, stream {path.stream + rep})"
    return NumericalError(msg)


def _advance(states: np.ndarray, path, q_scale: float, w_scale: float, on_step=None) -> float:
    """Heun-advance ``states`` (..., m, n) in place through ``path``; returns the max defect.

    ``path.blocks()`` yields ``(dB, dW)`` blocks whose leading axes match
    those of ``states`` ahead of the step axis, so all m members of a
    replicate consume that replicate's increment.  ``on_step(k, states)``
    runs after the k-th step and may change ``states`` in place.
    """
    max_defect = 0.0
    k = 0
    for db, dw_block in path.blocks():
        finite = np.isfinite(db).all(axis=(-2, -1))
        if dw_block is not None:
            finite &= np.isfinite(dw_block).all(axis=-1)
        if not finite.all():
            j = int(np.argwhere(~finite)[:, -1].min())
            raise _located(path, "non-finite noise increment", k + j, ~finite[..., j])
        dq_block = noise.symmetrize(db)
        del db  # stepping needs only the symmetrized block
        for j in range(dq_block.shape[-3]):
            dw = None if dw_block is None else dw_block[..., j, :]
            out, norms = _heun_step(states, dq_block[..., j, :, :], dw, q_scale, w_scale)
            lo, hi = float(norms.min()), float(norms.max())
            if not 0.0 < lo <= hi < math.inf:
                bad = ~(np.isfinite(norms) & (norms > 0.0)).all(axis=-1)
                raise _located(path, "non-finite or zero state", k, bad)
            max_defect = max(max_defect, hi - 1.0, 1.0 - lo)
            np.divide(out, norms[..., None], out=states)
            k += 1
            if on_step is not None:
                on_step(k, states)
        del dq_block  # freed before the next block is drawn
    return max_defect


def _resolve_path(path, seed, n, dt, steps, with_vector, stream):
    if path is None:
        return noise.generate_path(seed, n, dt, steps, with_vector=with_vector, stream=stream, materialize=False)
    if path.steps < steps:
        raise ValueError(f"supplied path has {path.steps} steps, need {steps}")
    if path.n != n:
        raise ValueError(f"supplied path has n={path.n}, states have n={n}")
    return path


def simulate_rqf(x0, T: float, dt: float, seed: int, *, sign: float = -1.0, stream: int = 0, path=None) -> Trajectory:
    """Quadratic-form flow dX = sign * P_X dQ X from x0 up to time T.

    Runs ceil(T/dt) Heun steps on the symmetrized increments of the
    (seed, stream) noise path; deterministic given the seed.
    """
    return simulate_coupled([x0], T, dt, seed, sign=sign, stream=stream, path=path).members[0]


def simulate_bias(
    x0,
    T: float,
    dt: float,
    seed: int,
    sigma_q: float,
    sigma_w: float,
    *,
    stream: int = 0,
    path=None,
) -> Trajectory:
    """Biased flow dX = -sigma_q P dQ X - sigma_w P dW.

    sigma_w = 0 is bit-identical to ``simulate_rqf`` with the same seed;
    sigma_q = 0 is the vector-noise (driftless) motion on the sphere.
    """
    if sigma_q == 0 and sigma_w == 0 and T > 0:
        warnings.warn("sigma_q = sigma_w = 0: dynamics are frozen", stacklevel=2)
    ens = simulate_coupled([x0], T, dt, seed, sigma_q=sigma_q, sigma_w=sigma_w, stream=stream, path=path)
    return ens.members[0]


def simulate_coupled(
    initials,
    T: float,
    dt: float,
    seed: int,
    *,
    sigma_q: float = 1.0,
    sigma_w: float = 0.0,
    sign: float = -1.0,
    stream: int = 0,
    path=None,
) -> Ensemble:
    """Advance several particles under one shared noise realization.

    Every member consumes the identical increment at each step.  Members
    with equal initial states therefore stay bit-identical, and (for the
    pure quadratic flow) antipodal initials stay exactly antipodal.
    """
    if sigma_q < 0 or sigma_w < 0:
        raise ValueError("sigma_q and sigma_w must be nonnegative")
    if sign not in (-1.0, 1.0, -1, 1):
        raise ValueError("sign must be +1 or -1")
    initials = list(initials)
    if not initials:
        raise ValueError("need at least one initial state")
    arr = np.stack([unit_vector(x) for x in initials])
    m, n = arr.shape
    steps = _step_count(T, dt)
    p = _resolve_path(path, seed, n, dt, steps, sigma_w != 0.0, stream)
    states = arr.copy()
    record = np.empty((steps + 1, m, n))
    record[0] = states
    _advance(states, p, float(sign) * sigma_q, float(sign) * sigma_w, record.__setitem__)
    members = [
        Trajectory(times=dt * np.arange(steps + 1), states=record[:, i].copy()) for i in range(m)
    ]
    base = p if isinstance(p, noise.NoisePath) else None
    return Ensemble(noise=base, members=members)


# -- batched Monte Carlo ------------------------------------------------------


@dataclass(frozen=True)
class _Replicates:
    """The (seed, stream + i) noise paths, i < count, stacked block by block.

    ``blocks()`` yields ``(dB, dW)`` of shape (count, take, n, n) and
    (count, take, n): one noise block per replicate is alive at a time,
    whatever the horizon.
    """

    seed: int
    stream: int
    count: int
    n: int
    dt: float
    steps: int
    with_vector: bool

    def blocks(self):
        # built by a helper, so the suspended generator holds no block
        for pos in range(0, self.steps, noise.BLOCK_STEPS):
            yield self._block(pos, min(noise.BLOCK_STEPS, self.steps - pos))

    def _block(self, pos, take):
        db = np.empty((self.count, take, self.n, self.n))
        dw = np.empty((self.count, take, self.n)) if self.with_vector else None
        for i in range(self.count):
            p = noise.NoisePath(self.seed, self.n, self.dt, take, self.with_vector, self.stream + i, pos)
            db[i], dw_i = next(p.blocks())
            if dw is not None:
                dw[i] = dw_i
        return db, dw


def batch_finals(
    initials,
    T: float,
    dt: float,
    seed: int,
    replicates: int,
    *,
    sigma_q: float = 1.0,
    sigma_w: float = 0.0,
    sign: float = -1.0,
    threads: int = 1,
    chunk_bytes: int = 1 << 27,
    checkpoints=None,
) -> np.ndarray:
    """Final states over independent noise realizations, shape (R, m, n).

    Replicate r is driven by the substream (seed, r) and matches a
    member-for-member run of ``simulate_coupled(..., stream=r)`` bit-exactly.
    Chunks of replicates are advanced together, reading one noise block
    of at most ``chunk_bytes`` at a time, so the chunk width does not
    shrink with the horizon; with ``threads > 1`` chunks are fanned out to
    a thread pool and merged by index, so the result does not depend on
    the worker count.

    ``checkpoints`` (times in [0, T]) switches the return value to the
    states at those times, shape (len(checkpoints), R, m, n).
    """
    arr = np.atleast_2d(np.asarray(initials, dtype=float))
    m, n = arr.shape
    steps = _step_count(T, dt)
    if steps == 0:
        out = np.broadcast_to(arr, (replicates, m, n)).copy()
        return out if checkpoints is None else np.broadcast_to(arr, (len(checkpoints), replicates, m, n)).copy()
    if checkpoints is None:
        cp_steps = [steps]
    else:
        cp_steps = [min(steps, max(0, int(math.ceil(t / dt - 1e-9)))) for t in checkpoints]
    with_vector = sigma_w != 0.0
    per_step = (n * n + (n if with_vector else 0)) * 8
    if steps * per_step > noise.DEFAULT_MEM_CAP:
        raise ResourceCapError(
            f"one replicate of {steps} steps draws {steps * per_step} bytes of increments "
            f"(cap {noise.DEFAULT_MEM_CAP}); shorten the horizon"
        )
    chunk = int(max(1, min(replicates, chunk_bytes // (min(steps, noise.BLOCK_STEPS) * per_step))))
    spans = [(lo, min(lo + chunk, replicates)) for lo in range(0, replicates, chunk)]
    q_scale = float(sign) * sigma_q
    w_scale = float(sign) * sigma_w
    out = np.empty((len(cp_steps), replicates, m, n))
    at: dict[int, list[int]] = {}
    for i, k in enumerate(cp_steps):
        at.setdefault(k, []).append(i)

    def work(span):
        lo, hi = span

        def snapshot(k, states):
            if k in at:
                out[at[k], lo:hi] = states

        states = np.broadcast_to(arr, (hi - lo, m, n)).copy()
        snapshot(0, states)
        path = _Replicates(seed, lo, hi - lo, n, dt, steps, with_vector)
        _advance(states, path, q_scale, w_scale, snapshot)

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, spans))
    else:
        for span in spans:
            work(span)
    return out[0] if checkpoints is None else out


# -- circle phase model -------------------------------------------------------


TWO_PI = 2.0 * math.pi


def circle_angle(xy) -> np.ndarray:
    """Angle of points on the unit circle, wrapped to [0, 2*pi)."""
    xy = np.asarray(xy, dtype=float)
    return np.mod(np.arctan2(xy[..., 1], xy[..., 0]), TWO_PI)


def _phase_combos(db_block):
    # the two independent drivers of the circle model, built from the same
    # 2x2 matrix path the sphere flow consumes at n = 2
    du = db_block[:, 1, 1] - db_block[:, 0, 0]
    dv = db_block[:, 0, 1] + db_block[:, 1, 0]
    return du, dv


def _phase_heun(phi, du, dv, sin, cos):
    # one Heun step of the circle model, unwrapped; math trig for floats,
    # numpy trig for arrays
    a1 = 0.5 * sin(2.0 * phi)
    b1 = 0.5 * cos(2.0 * phi)
    pred = phi + a1 * du + b1 * dv
    a2 = 0.5 * sin(2.0 * pred)
    b2 = 0.5 * cos(2.0 * pred)
    return phi + 0.5 * ((a1 + a2) * du + (b1 + b2) * dv)


def simulate_phase(phi0: float, T: float, dt: float, seed: int, *, stream: int = 0, path=None) -> PhaseTrajectory:
    """Circle reduction: d(phi) = (1/2) sin(2 phi) d(B22-B11) + (1/2) cos(2 phi) d(B12+B21).

    Heun steps of the scalar Stratonovich SDE; angles are stored wrapped
    to [0, 2*pi).  Driven by the same 2x2 matrix increments as the n = 2
    sphere flow under matched (seed, stream).
    """
    steps = _step_count(T, dt)
    p = _resolve_path(path, seed, 2, dt, steps, False, stream)
    angles = np.empty(steps + 1)
    phi = float(phi0) % TWO_PI
    angles[0] = phi
    k = 0
    for db, _ in p.blocks():
        du_arr, dv_arr = _phase_combos(db)
        for du, dv in zip(du_arr.tolist(), dv_arr.tolist()):
            phi = _phase_heun(phi, du, dv, math.sin, math.cos) % TWO_PI
            k += 1
            angles[k] = phi
    return PhaseTrajectory(times=dt * np.arange(steps + 1), angles=angles)


def phase_finals(phi0: float, T: float, dt: float, seed: int, replicates: int, chunk: int = 8192) -> np.ndarray:
    """Final wrapped angles over independent replicate substreams."""
    steps = _step_count(T, dt)
    finals = np.empty(replicates)
    for lo in range(0, replicates, chunk):
        hi = min(lo + chunk, replicates)
        c = hi - lo
        phi = np.full(c, float(phi0) % TWO_PI)
        for block in range((steps + noise.BLOCK_STEPS - 1) // noise.BLOCK_STEPS):
            take = min(noise.BLOCK_STEPS, steps - block * noise.BLOCK_STEPS)
            du = np.empty((c, take))
            dv = np.empty((c, take))
            for i, r in enumerate(range(lo, hi)):
                db = noise.NoisePath(seed, 2, dt, take, stream=r, offset=block * noise.BLOCK_STEPS)
                mat = next(db.blocks(chunk=take))[0]
                du[i], dv[i] = _phase_combos(mat)
            for k in range(take):
                phi = np.mod(_phase_heun(phi, du[:, k], dv[:, k], np.sin, np.cos), TWO_PI)
        finals[lo:hi] = phi
    return finals


# -- pull-back experiments ----------------------------------------------------


def sphere_grid(count: int, n: int, seed: int = 0) -> np.ndarray:
    """Initial grid: equal angles on S^1, Fibonacci points on S^2, seeded
    uniform draws for n > 3."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if n == 2:
        theta = TWO_PI * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if n == 3:
        return fibonacci_sphere(count)
    rng = np.random.Generator(np.random.Philox(key=int(seed) & 0xFFFFFFFFFFFFFFFF))
    return np.stack([random_unit_vector(n, rng) for _ in range(count)])


def pullback_run(
    initial_grid,
    T: float,
    dt: float,
    seed: int,
    *,
    diameter_tol: float = 1e-3,
    stream: int = 0,
) -> PullbackResult:
    """Push a grid of initial states through one fixed realization.

    By stationarity of the increments this is equal in law to the
    pull-back picture (evolving from the distant past); the returned
    cluster summary describes the terminal configuration.
    """
    from .diagnostics import attractor_detect

    grid = np.stack([unit_vector(x) for x in initial_grid])
    steps = _step_count(T, dt)
    p = noise.generate_path(seed, grid.shape[1], dt, steps, stream=stream, materialize=False)
    states = grid.copy()
    _advance(states, p, -1.0, 0.0)
    summary = attractor_detect(states, diameter_tol)
    return PullbackResult(final_states=states, summary=summary)
