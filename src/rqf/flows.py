"""Whole-trajectory and ensemble simulation of the sphere flows.

One noise realization is one :class:`~rqf.noise.NoisePath`; every member of
an ensemble consumes the same symmetrized increment at every step, so the
common-noise coupling is structural rather than something callers have to
get right.  Monte Carlo over realizations uses per-replicate substreams
(seed, replicate index) and advances replicates in wide batches.
Every sphere runner goes through one Heun loop, ``_advance``, and the
circle runners through one phase step; all of them read dQ from
``noise._increments``, one checked slice of at most one 1024-step block
(and 128 MiB on a single path) at a time.  This module draws nothing itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import noise
from .geometry import fibonacci_sphere, random_unit_vector, unit_vector
from .integrators import _heun_step, _scales

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


def _steps_to(t: float, dt: float) -> int:
    # the one rounding rule: steps of size dt that reach time t
    return int(math.ceil(t / dt - 1e-9))


def _step_count(T: float, dt: float) -> int:
    if not (math.isfinite(T) and math.isfinite(dt)):
        raise ValueError(f"T and dt must be finite, got T={T}, dt={dt}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < 0:
        raise ValueError("T must be >= 0")
    if T == 0:
        return 0
    if dt > T:
        raise ValueError(f"dt={dt} exceeds T={T}")
    return _steps_to(T, dt)


# the loop's per-step norm check; the bare reductions skip the argument
# handling of ndarray.min and .max, a tenth of a microsecond per call
_lowest, _highest = np.minimum.reduce, np.maximum.reduce


def _advance(states: np.ndarray, path, q_scale: float, w_scale, on_step=None) -> float:
    """Heun-advance ``states`` (..., m, n) in place through ``path``; returns the max defect.

    ``path.blocks()`` yields ``(dB, dW)`` blocks whose leading axes match
    those of ``states`` ahead of the step axis, so all m members of a
    replicate consume that replicate's increment; they are read as
    ``(q_scale dQ, dW)`` through ``noise._increments``, which scales dQ as
    it symmetrizes it.  ``w_scale`` is a float or an (m, 1) column (see
    ``integrators._scales``); the run reads dW only if some member's is
    nonzero.  A non-finite or zero norm raises before the states are
    renormalized.  ``on_step(k, states)`` runs after the k-th step and may
    change ``states`` in place.
    """
    vector = bool(np.any(w_scale != 0.0))  # decided once, not per step
    lows, highs = [1.0], [1.0]  # each step's extreme norms, reduced per block
    k = 0
    for dq_block, dw_block in noise._increments(path, q_scale):
        for j in range(dq_block.shape[-3]):
            dw = dw_block[..., j, :] if vector else None
            out, norms = _heun_step(states, dq_block[..., j, :, :], dw, w_scale)
            lo, hi = _lowest(norms, None), _highest(norms, None)
            if not (lo > 0.0 and hi < math.inf):
                bad = ~(np.isfinite(norms) & (norms > 0.0)).all(axis=(-2, -1))
                raise noise._located(path, "non-finite or zero state", k, bad)
            lows.append(lo)
            highs.append(hi)
            np.divide(out, norms, out=states)
            k += 1
            if on_step is not None:
                on_step(k, states)
        lows[:] = [min(lows)]
        highs[:] = [max(highs)]
        del dq_block, dw_block  # not held while the next block is awaited
    return max(float(highs[0]) - 1.0, 1.0 - float(lows[0]))


def _unit_rows(initials) -> np.ndarray:
    # the one entry rule for initial states: an (m, n) stack, each row
    # through unit_vector, which leaves points already on the sphere as given
    arr = np.atleast_2d(np.asarray(initials, dtype=float))
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("need at least one initial state")
    return np.stack([unit_vector(x) for x in arr])


def _resolve_path(path, seed, n, dt, steps, with_vector, stream):
    if path is None:
        return noise.generate_path(seed, n, dt, steps, with_vector=with_vector, stream=stream, materialize=False)
    if path.dt != dt:
        raise ValueError(f"supplied path has dt={path.dt}, run has dt={dt}")
    if path.steps < steps:
        raise ValueError(f"supplied path has {path.steps} steps, need {steps}")
    if path.n != n:
        raise ValueError(f"supplied path has n={path.n}, states have n={n}")
    if with_vector and not path.with_vector:
        raise ValueError("sigma_w > 0 needs a supplied path with vector increments")
    if path.steps == steps:
        return path
    # the loop consumes every block a path yields: keep only the first ``steps``
    if isinstance(path, noise.NoisePath):
        return replace(path, steps=steps)
    vec = path.vector_increments
    return replace(path, matrix_increments=path.matrix_increments[:steps],
                   vector_increments=None if vec is None else vec[:steps])


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

    Each initial state passes through ``geometry.unit_vector``, as in
    ``batch_finals``.  Every member consumes the identical increment at
    each step.  Members with equal initial states therefore stay
    bit-identical, and (for the pure quadratic flow) antipodal initials
    stay exactly antipodal.
    """
    q_scale, w_scale = _scales(sigma_q, sigma_w, sign)
    states = _unit_rows(initials)
    m, n = states.shape
    steps = _step_count(T, dt)
    p = _resolve_path(path, seed, n, dt, steps, sigma_w != 0.0, stream)
    record = np.empty((steps + 1, m, n))
    record[0] = states
    _advance(states, p, q_scale, w_scale, record.__setitem__)
    members = [
        Trajectory(times=dt * np.arange(steps + 1), states=record[:, i].copy()) for i in range(m)
    ]
    base = p if isinstance(p, noise.NoisePath) else None
    return Ensemble(noise=base, members=members)


# -- batched Monte Carlo ------------------------------------------------------


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
    chunk_bytes: int = noise._SLICE_BYTES,
    checkpoints=None,
) -> np.ndarray:
    """Final states over independent noise realizations, shape (R, m, n).

    Replicate r is driven by the substream (seed, r).  Each initial state
    passes through ``geometry.unit_vector``, as in ``simulate_coupled``,
    so replicate r equals ``simulate_coupled(initials, ..., stream=r)``
    member for member, bit for bit.  Replicates are advanced together in
    spans, one batched Heun step per time step and span; the spans change
    no bit of the result.  ``noise._spans`` cuts them and their noise
    reads: a slice holds a span's increments for as many steps as fit in
    ``chunk_bytes`` (128 MiB by default), at most one 1024-step block and
    the run, and a span holds every replicate unless its slices would then
    be shorter than 64 steps (or than the run).  Any horizon runs: only a
    run whose one-step slice of one replicate exceeds
    ``noise.DEFAULT_MEM_CAP`` raises ResourceCapError, at its first read.
    Every slice is read in halves, the next half drawn and symmetrized on
    a helper thread while this thread steps the current one
    (``noise._increments``), so about 1.5 * ``chunk_bytes`` of noise is in
    flight, plus each replicate's generators, under 1.5 KB each per block.
    ``threads`` is accepted and ignored: the batched step holds the GIL,
    so further stepping threads only slow it.

    ``sigma_w`` is one value or one value per initial state.  Members with
    different ``sigma_w`` share each replicate's dB and dW, and member i
    gets the bits of a run of its own with ``sigma_w[i]`` (with 0, of a run
    without vector noise), so a scan over bias ratios is one run.

    ``checkpoints`` (times in [0, T], rounded onto the step grid like T
    itself; others raise ``ValueError``) switches the return value to the
    states at those times, shape (len(checkpoints), R, m, n).
    """
    arr = _unit_rows(initials)
    m, n = arr.shape
    q_scale, w_scale = _scales(sigma_q, sigma_w, sign, m)
    steps = _step_count(T, dt)
    with_vector = bool(np.any(w_scale != 0.0))
    reads = noise._spans(seed, replicates, dt, steps, noise._draws(n, with_vector), chunk_bytes)
    # a checkpoint is range-checked before it is rounded, which a non-finite time cannot be
    cp_steps = [steps] if checkpoints is None else [_steps_to(t, dt) for t in checkpoints if 0 <= t < math.inf]
    if checkpoints is not None and len(cp_steps) < len(checkpoints) or max(cp_steps, default=0) > steps:
        raise ValueError(f"checkpoints must lie in [0, T={T}]")
    out = np.empty((len(cp_steps), replicates, m, n))
    at: dict[int, list[int]] = {}  # step -> the output rows it fills
    for i, k in enumerate(cp_steps):
        at.setdefault(k, []).append(i)
    for path in reads:

        def snapshot(k, states, rows=path.rows):
            for i in at.get(k, ()):
                out[i, rows] = states  # an int and a slice: no index array per step

        states = np.broadcast_to(arr, (path.count, m, n)).copy()
        snapshot(0, states)
        _advance(states, path, q_scale, w_scale, snapshot)
    return out[0] if checkpoints is None else out


# -- circle phase model -------------------------------------------------------


TWO_PI = 2.0 * math.pi


def circle_angle(xy) -> np.ndarray:
    """Angle of points on the unit circle, wrapped to [0, 2*pi)."""
    xy = np.asarray(xy, dtype=float)
    return np.mod(np.arctan2(xy[..., 1], xy[..., 0]), TWO_PI)


def _start_angle(phi0) -> float:
    # the circle runners' entry rule, as unit_vector is the sphere runners'
    if not math.isfinite(phi0):
        raise ValueError(f"phi0 must be finite, got {phi0}")
    return float(phi0) % TWO_PI


def _phase_combos(dq_block):
    # the two independent drivers of the circle model, dB22 - dB11 and
    # dB12 + dB21, built from the dQ the sphere flow consumes at n = 2
    du = dq_block[..., 1, 1] - dq_block[..., 0, 0]
    dv = 2.0 * dq_block[..., 0, 1]
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
    phi = _start_angle(phi0)
    angles[0] = phi
    k = 0
    for dq, _ in noise._increments(p):
        du_arr, dv_arr = _phase_combos(dq)
        for du, dv in zip(du_arr.tolist(), dv_arr.tolist()):
            phi = _phase_heun(phi, du, dv, math.sin, math.cos) % TWO_PI
            k += 1
            angles[k] = phi
    return PhaseTrajectory(times=dt * np.arange(steps + 1), angles=angles)


# bytes of one dB slice of phase_finals, read ahead in halves as in
# batch_finals; a half's dQ adds as much while it is symmetrized, and its du
# and dv arrays half that
_PHASE_CHUNK_BYTES = 1 << 26


def phase_finals(phi0: float, T: float, dt: float, seed: int, replicates: int) -> np.ndarray:
    """Final wrapped angles over independent replicate substreams, stepped in ``batch_finals`` spans."""
    steps = _step_count(T, dt)
    finals = np.full(replicates, _start_angle(phi0))
    for path in noise._spans(seed, replicates, dt, steps, noise._draws(2, False), _PHASE_CHUNK_BYTES):
        phi = finals[path.rows]
        for dq, _ in noise._increments(path):
            du, dv = _phase_combos(dq)
            for k in range(du.shape[1]):
                phi = np.mod(_phase_heun(phi, du[:, k], dv[:, k], np.sin, np.cos), TWO_PI)
        finals[path.rows] = phi
    return finals


# -- pull-back experiments ----------------------------------------------------


def sphere_grid(count: int, n: int, seed: int = 0) -> np.ndarray:
    """Initial grid: equal angles on S^1, Fibonacci points on S^2, seeded
    uniform draws for n > 3 (keyed apart from every noise path)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if n == 2:
        theta = TWO_PI * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if n == 3:
        return fibonacci_sphere(count)
    rng = noise._block_generator(seed, 0, 0, noise._GRID_DOMAIN)
    return np.stack([random_unit_vector(n, rng) for _ in range(count)])


def pullback_run(initial_grid, T: float, dt: float, seed: int, *, diameter_tol: float = 1e-3) -> PullbackResult:
    """Push a grid of initial states through one fixed realization.

    The run is replicate 0 of ``batch_finals(initial_grid, T, dt, seed, 1)``.
    By stationarity of the increments this is equal in law to the
    pull-back picture (evolving from the distant past); the returned
    cluster summary describes the terminal configuration.
    """
    from .diagnostics import attractor_detect

    final = batch_finals(initial_grid, T, dt, seed, 1)[0]
    return PullbackResult(final_states=final, summary=attractor_detect(final, diameter_tol))
