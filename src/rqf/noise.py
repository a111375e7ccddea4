"""Seeded Brownian increments driving the sphere flows and the z-process.

This module owns every draw.  A path is never stored as the source of
truth: every increment is a pure function of (seed, stream, step index),
produced block-wise from a counter-based Philox generator keyed by
(seed, stream, block, domain), and no other module builds a key.  That
gives

* bit-identical regeneration from the same seed,
* O(1) random access to any step (time-shift views cost nothing),
* non-overlapping per-trajectory substreams by construction, and
* streaming reads: one generator, ``_read``, serves every key domain and
  reads consecutive streams in lockstep; it keeps each block's generator
  alive and draws a block only as far as it reads it, never a whole
  block ahead; ``_spans``, the one slice rule, cuts every read into
  slices that fit one byte budget and end with the run, a single path
  being a one-replicate span.  No horizon is refused: ``_slice``, which
  allocates every keyed slice, refuses only one above ``DEFAULT_MEM_CAP``.

Matrix increments dB have iid Normal(0, dt) entries; the symmetrized
increment dQ = (dB + dB^T)/2 then has Var(dQ_ii) = dt and
Var(dQ_ij) = dt/2, i.e. dQ ~ sqrt(dt/2) * GOE.  Every stepper reads dQ
through one intake, ``_increments``, which checks each block finite and
symmetrizes it, scaled by the stepper's field scale in the same pass.
Vector increments dW are keyed in their own domain, so a path's dB is
the same with or without dW, and reading dW never draws dB; seeded
initial grids have a domain of their own too.

Keys make a slice's bits independent of the thread that draws it.  The
kind of read sets where it is drawn: every sphere and circle batch
(a ``_Replicates`` read through ``_increments``) draws, checks and
symmetrizes its next half slice on one helper thread while the caller
steps the current one (numpy releases the GIL while it draws); every
single-path read, and the z table's scalar read, stays on the calling
thread.  Nothing else in rqf uses threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ResourceCapError

__all__ = [
    "BLOCK_STEPS",
    "DEFAULT_MEM_CAP",
    "NoisePath",
    "ArrayPath",
    "generate_path",
    "scalar_block",
    "scalar_increments",
    "shift_path",
    "symmetrize",
]

BLOCK_STEPS = 1024
DEFAULT_MEM_CAP = 1 << 30  # 1 GiB: the largest array a run may hold at once
# bytes of one slice of a single path's keyed read, and batch_finals' budget
_SLICE_BYTES = 1 << 27
# replicates read their noise one at a time, so a slice shorter than this
# many steps costs more in reads than one wide batch saves in step calls
_MIN_SLICE = 64

_MAX_SEED = 1 << 64
_MAX_STREAM = 1 << 32
_MAX_BLOCK = 1 << 30
_MATRIX_DOMAIN = 0  # matrix increments dB
_SCALAR_DOMAIN = 1  # scalar Brownian increments (z-process drivers)
_VECTOR_DOMAIN = 2  # vector increments dW
_GRID_DOMAIN = 3  # seeded initial grids (flows.sphere_grid)


def _fits(nbytes: int, what: str) -> None:
    """The one resource rule: ``what``, an array of ``nbytes`` bytes that a
    run must hold at once, raises ResourceCapError above ``DEFAULT_MEM_CAP``."""
    if nbytes > DEFAULT_MEM_CAP:
        raise ResourceCapError(f"{what} needs {nbytes} bytes at once (cap {DEFAULT_MEM_CAP})")


def _block_generator(seed: int, stream: int, block: int, domain: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream, block, domain)."""
    seed = operator.index(seed)  # a float seed raises rather than truncates
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    if not 0 <= stream < _MAX_STREAM:
        raise ValueError(f"stream must be in [0, 2^32), got {stream}")
    if not 0 <= block < _MAX_BLOCK:
        raise ValueError(f"block index out of range: {block}")
    key = seed | (stream << 64) | (block << 96) | (domain << 126)
    return np.random.Generator(np.random.Philox(key=key))


def _read(seed: int, stream: int, start: int, steps: int, size: int, draws, dt: float, count: int | None = None):
    """Yield ``(dB, dW)`` slices of at most ``size`` steps of the keyed paths
    (seed, stream + i), i < count, read in lockstep from absolute step ``start``.

    ``draws`` holds the ``(shape, domain)`` of each output's one-step draw
    (``_draws`` or ``_SCALAR_DRAWS``); dW is None for a one-draw read.  A
    slice has shape (count, take, *shape), or (take, *shape) for ``count``
    None.  A stream's generators live until its block or the read ends;
    only delivered rows are drawn, apart from an offset read's prefix.
    """
    rngs = [[] for _ in range(count or 1)]
    for pos in range(0, steps, size):
        # drawn by a helper, so the suspended reader holds no slice
        yield _slice(seed, stream, rngs, start + pos, min(size, steps - pos), start + steps, draws, dt, count)


def _once(seed: int, stream: int, start: int, steps: int, draws, dt: float):
    """One stream's ``steps`` steps from ``start`` as one ``_read`` slice, empty for zero steps."""
    return _slice(seed, stream, [[]], start, steps, start + steps, draws, dt, None)


def _slice(seed, stream, rngs, start, take, stop, draws, dt, count):
    # rows start..start+take of each stream i, from rngs[i], the generators of
    # its current block; they are dropped when the block or the read (at
    # ``stop``) ends.  Every keyed draw is allocated, capped and scaled by
    # sqrt(dt) here, so here dt is checked
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got dt={dt}")
    _fits(len(rngs) * take * _step_bytes(draws), f"a noise slice of {take} steps x {len(rngs)} streams")
    outs = [np.empty((len(rngs), take, *shape)) for shape, _ in draws]
    filled = 0
    while filled < take:
        block, row = divmod(start + filled, BLOCK_STEPS)
        got = min(BLOCK_STEPS - row, take - filled)
        done = row + got == BLOCK_STEPS or start + filled + got == stop
        for i, held in enumerate(rngs):
            if not held:
                held += [_block_generator(seed, stream + i, block, domain) for _, domain in draws]
                for rng, a in zip(held, outs):  # an offset read enters its first block part way:
                    for skip in range(0, row, take):  # its prefix is drawn into the slice, then drawn over
                        rng.standard_normal(out=a[i, : min(take, row - skip)])
            for rng, a in zip(held, outs):
                rng.standard_normal(out=a[i, filled : filled + got])
            if done:
                held.clear()
        filled += got
    for a in outs:
        a *= np.sqrt(dt)
    if count is None:
        outs = [a[0] for a in outs]
    return outs[0], outs[1] if len(outs) > 1 else None


_SCALAR_DRAWS = (((), _SCALAR_DOMAIN),)


def _draws(n: int, with_vector: bool):
    """The ``draws`` of a matrix path: dB, and dW when it has one."""
    matrix = ((n, n), _MATRIX_DOMAIN)
    return (matrix, ((n,), _VECTOR_DOMAIN)) if with_vector else (matrix,)


def _step_bytes(draws) -> int:
    """Bytes of one stream's step of a read with these ``draws``."""
    return 8 * sum(math.prod(shape) for shape, _ in draws)


@dataclass(frozen=True)
class _Replicates:
    """The (seed, stream + i) keyed paths, i < count, read in lockstep:
    ``blocks()`` yields ``_read`` slices of ``size`` steps (the last may be shorter)."""

    seed: int
    stream: int
    count: int
    dt: float
    steps: int
    size: int
    draws: tuple

    @property
    def rows(self) -> slice:
        """The replicates read, as rows of a run's replicate axis."""
        return slice(self.stream, self.stream + self.count)

    def blocks(self):
        return _read(self.seed, self.stream, 0, self.steps, self.size, self.draws, self.dt, self.count)


def _spans(seed: int, replicates: int, dt: float, steps: int, draws, chunk_bytes: int, min_slice: int = _MIN_SLICE):
    """The reads of replicates 0..replicates-1, one ``_Replicates`` per span.

    The one slice rule: a span's replicates step together on slices of at
    most ``chunk_bytes``, one block and the run.  All replicates form one
    span unless its slices would be shorter than ``min(steps, min_slice)``
    steps; the spans are then equal.  Nothing is capped here: ``_slice``
    refuses a slice over DEFAULT_MEM_CAP (``_fits``) as it draws it.
    """
    if replicates < 0 or chunk_bytes < 1:
        raise ValueError("replicates must be >= 0 and chunk_bytes >= 1")
    per_step = _step_bytes(draws)
    fit = max(1, chunk_bytes // (per_step * max(1, min(steps, min_slice))))
    count = max(1, -(-replicates // fit))
    width = max(1, -(-replicates // count))  # equal spans of at most ``fit`` replicates
    size = max(1, min(steps, BLOCK_STEPS, chunk_bytes // (width * per_step)))
    return [_Replicates(seed, lo, min(width, replicates - lo), dt, steps, size, draws)
            for lo in range(0, replicates, width)]


def scalar_block(seed: int, stream: int, block: int, dt: float) -> np.ndarray:
    """One block of scalar Brownian increments, Normal(0, dt) each."""
    return _once(seed, stream, block * BLOCK_STEPS, BLOCK_STEPS, _SCALAR_DRAWS, dt)[0]


def scalar_increments(seed: int, steps: int, dt: float, stream: int = 0) -> np.ndarray:
    """Materialize ``steps`` scalar Brownian increments."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return _once(seed, stream, 0, steps, _SCALAR_DRAWS, dt)[0]


@dataclass
class NoisePath:
    """Grid-indexed record of the Brownian increments for one realization.

    ``offset`` supports time-shift views: increment ``k`` of this path is
    increment ``offset + k`` of the underlying (seed, stream) sequence.
    """

    seed: int
    n: int
    dt: float
    steps: int
    with_vector: bool = False
    stream: int = 0
    offset: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got dt={self.dt}")
        if self.steps < 0 or self.offset < 0:
            raise ValueError("steps and offset must be nonnegative")

    def blocks(self, chunk: int | None = None):
        """Consecutive ``(dB, dW)`` chunks of at most ``chunk`` steps; by
        default the slices of a one-replicate span on ``_SLICE_BYTES`` (``_spans``).

        ``dW`` is None when the path carries no vector increments.  Chunks
        are drawn from the key as they are requested and nothing is cached;
        a suspended reader holds none, and one over DEFAULT_MEM_CAP raises.
        """
        draws = _draws(self.n, self.with_vector)
        if chunk is None:
            chunk = _spans(self.seed, 1, self.dt, self.steps, draws, _SLICE_BYTES)[0].size
        elif chunk < 1:
            raise ValueError("chunk must be >= 1")
        return _read(self.seed, self.stream, self.offset, self.steps, chunk, draws, self.dt)

    def _take(self, k: int, steps: int, vector: bool) -> np.ndarray:
        # ``steps`` steps of dB, or of dW, from step k, drawn from the key
        if vector and not self.with_vector:
            raise ValueError("path was generated without vector increments")
        draw = ((self.n,), _VECTOR_DOMAIN) if vector else ((self.n, self.n), _MATRIX_DOMAIN)
        return _once(self.seed, self.stream, self.offset + k, steps, (draw,), self.dt)[0]

    def _increment(self, k: int, vector: bool) -> np.ndarray:
        if not 0 <= k < self.steps:
            raise IndexError(f"step {k} out of range [0, {self.steps})")
        return self._take(k, 1, vector)[0]

    def matrix_increment(self, k: int) -> np.ndarray:
        return self._increment(k, False)

    def vector_increment(self, k: int) -> np.ndarray:
        return self._increment(k, True)

    @property
    def matrix_increments(self) -> np.ndarray:
        """All matrix increments, shape (steps, n, n), drawn from the key on each access."""
        return self._take(0, self.steps, False)

    @property
    def vector_increments(self) -> np.ndarray | None:
        """All vector increments, shape (steps, n), or None; drawn on each access."""
        if not self.with_vector:
            return None
        return self._take(0, self.steps, True)

    def header(self) -> dict:
        """Manifest-friendly description; increments are reproduced from it."""
        return {
            "seed": int(self.seed),
            "stream": int(self.stream),
            "n": int(self.n),
            "dt": float(self.dt),
            "steps": int(self.steps),
            "offset": int(self.offset),
            "with_vector": bool(self.with_vector),
        }


@dataclass
class ArrayPath:
    """Explicit-increment stand-in for NoisePath (tests, deterministic
    driving, zero-noise runs).  Matches the iteration interface."""

    dt: float
    matrix_increments: np.ndarray
    vector_increments: np.ndarray | None = None

    def __post_init__(self):
        self.matrix_increments = np.asarray(self.matrix_increments, dtype=float)
        if self.vector_increments is not None:
            self.vector_increments = np.asarray(self.vector_increments, dtype=float)

    @property
    def steps(self) -> int:
        return len(self.matrix_increments)

    @property
    def n(self) -> int:
        return self.matrix_increments.shape[-1]

    @property
    def with_vector(self) -> bool:
        return self.vector_increments is not None

    def blocks(self, chunk: int = BLOCK_STEPS):
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        dw = self.vector_increments
        for pos in range(0, self.steps, chunk):
            yield self.matrix_increments[pos : pos + chunk], None if dw is None else dw[pos : pos + chunk]


def generate_path(
    seed: int,
    n: int,
    dt: float,
    steps: int,
    with_vector: bool = False,
    stream: int = 0,
    materialize: bool = True,
) -> NoisePath:
    """Create the noise path for one realization.

    Deterministic in (seed, n, dt, steps, stream).  Nothing is drawn or
    cached here: ``matrix_increments`` and ``vector_increments`` draw from
    the key on each access, and ``blocks()`` streams.  ``materialize``
    checks at once that the whole path fits in ``DEFAULT_MEM_CAP`` bytes,
    raising ResourceCapError if not; with ``materialize=False`` only the
    slices ``blocks()`` reads, one at a time, are capped as they are drawn.
    """
    path = NoisePath(seed=seed, n=n, dt=dt, steps=steps, with_vector=with_vector, stream=stream)
    if materialize:
        _fits(steps * _step_bytes(_draws(n, with_vector)), f"a materialized path of {steps} steps at n={n}")
    return path


def shift_path(path: NoisePath, k: int) -> NoisePath:
    """View of ``path`` shifted by ``k`` steps (discrete time shift).

    Increment ``j`` of the view is increment ``j + k`` of the source,
    bit-exactly, and shifts compose: shift(shift(p, a), b) == shift(p, a+b).
    """
    if not 0 <= k <= path.steps:
        raise ValueError(f"shift {k} out of range [0, {path.steps}]")
    return replace(path, steps=path.steps - k, offset=path.offset + k)


def symmetrize(db, scale: float = 1.0) -> np.ndarray:
    """Symmetric part (dB + dB^T) / 2, times ``scale``; exact symmetry, linear in the input.

    Works on a single matrix or on a stacked (..., n, n) batch.  The sum
    is multiplied by scale / 2 in one pass; with scale = +-1 that is
    bit-for-bit the halved sum, negated for -1.
    """
    db = np.asarray(db, dtype=float)
    if db.ndim < 2 or db.shape[-1] != db.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {db.shape}")
    out = db + np.swapaxes(db, -1, -2)
    out *= 0.5 * scale
    return out


def _located(path, what: str, step: int, bad) -> NumericalError:
    # ``bad`` flags replicates along the leading axes of the state stack; a
    # keyed path names the (seed, stream) of the first one
    msg = f"{what} at step {step}"
    if hasattr(path, "seed"):
        rep = int(np.flatnonzero(bad)[0])
        msg += f" (seed {path.seed}, stream {path.stream + rep})"
    return NumericalError(msg)


def _increments(path, scale: float = 1.0):
    """Yield ``(dQ, dW)`` per block of ``path.blocks()``, dQ = symmetrize(dB, scale).

    The one way a stepper reads matrix noise.  Each block is checked first:
    a non-finite dB or dW entry raises NumericalError naming its step (and,
    on a keyed path, its seed and stream).  dW is None when the path
    yields none.

    A ``_Replicates`` read is read in slices of half its ``size``, each
    drawn, checked and symmetrized on a helper thread while the caller
    steps the one before (``_ahead``); the bits, the errors and their order
    are those of the serial read, and about 1.5 slices of the full
    ``size`` are in flight.  Every other read is drawn on the calling thread.
    """
    if isinstance(path, _Replicates):
        return _ahead(_checked(replace(path, size=max(1, path.size // 2)), scale))
    return _checked(path, scale)


def _checked(path, scale):
    k = 0
    for db, dw in path.blocks():
        finite = np.isfinite(db).all(axis=(-2, -1))
        if dw is not None:
            finite &= np.isfinite(dw).all(axis=-1)
        if not finite.all():
            j = int(np.argwhere(~finite)[:, -1].min())
            raise _located(path, "non-finite noise increment", k + j, ~finite[..., j])
        k += finite.shape[-1]
        dq = symmetrize(db, scale)
        del db  # stepping needs only the symmetrized block
        yield dq, dw
        del dq, dw  # freed before the next block is drawn


def _ahead(slices):
    """Yield the items of the generator ``slices``, each one computed on a
    helper thread while the caller holds the one before.

    The helper starts item k+1 only once the caller has taken item k, so at
    most one item is ahead.  A helper's exception is raised when the caller
    asks for that item.  Closing this generator (or exhausting it) waits
    for the helper, joins it and closes ``slices``; an item computed for a
    caller that stopped early is dropped unread.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported by the first batch, not at start-up

    end = object()
    try:
        with ThreadPoolExecutor(1) as pool:
            pending = pool.submit(next, slices, end)
            while (item := pending.result()) is not end:
                pending = pool.submit(next, slices, end)
                yield item
                del item  # not held while the next item is awaited
    finally:
        slices.close()
