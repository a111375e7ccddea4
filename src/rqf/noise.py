"""Seeded Brownian increments driving the sphere flows and the z-process.

A path is never stored as the source of truth: every increment is a pure
function of (seed, stream, step index), produced block-wise from a
counter-based Philox generator keyed by (seed, stream, block, domain).
That gives

* bit-identical regeneration from the same seed,
* O(1) random access to any step (time-shift views cost nothing),
* non-overlapping per-trajectory substreams by construction, and
* streaming reads: one reader serves every key domain and fills batched
  runs' replicate stacks in place; it keeps each block's generator alive
  and draws a block only as far as it reads it, never a whole block ahead.

Matrix increments dB have iid Normal(0, dt) entries; the symmetrized
increment dQ = (dB + dB^T)/2 then has Var(dQ_ii) = dt and
Var(dQ_ij) = dt/2, i.e. dQ ~ sqrt(dt/2) * GOE.  Vector increments dW are
keyed in their own domain, so a path's dB is the same with or without
dW, and reading dW never draws dB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError

__all__ = [
    "BLOCK_STEPS",
    "DEFAULT_MEM_CAP",
    "NoisePath",
    "ArrayPath",
    "generate_path",
    "scalar_block",
    "scalar_increments",
    "shift_path",
    "step_bytes",
    "symmetrize",
]

BLOCK_STEPS = 1024
DEFAULT_MEM_CAP = 1 << 30  # 1 GiB

_MAX_STREAM = 1 << 32
_MAX_BLOCK = 1 << 30
_MATRIX_DOMAIN = 0  # matrix increments dB
_SCALAR_DOMAIN = 1  # scalar Brownian increments (z-process drivers)
_VECTOR_DOMAIN = 2  # vector increments dW


def _block_generator(seed: int, stream: int, block: int, domain: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream, block, domain)."""
    if not 0 <= stream < _MAX_STREAM:
        raise ValueError(f"stream must be in [0, 2^32), got {stream}")
    if not 0 <= block < _MAX_BLOCK:
        raise ValueError(f"block index out of range: {block}")
    key = (
        (int(seed) & 0xFFFFFFFFFFFFFFFF)
        | (stream << 64)
        | (block << 96)
        | (domain << 126)
    )
    return np.random.Generator(np.random.Philox(key=key))


class _Reader:
    """Successive draws of one keyed path from absolute step ``start``, for ``steps`` steps.

    ``draws`` holds one ``(shape, domain)`` pair per output, the shape of one
    step's draw: ``(((n, n), _MATRIX_DOMAIN),)``, plus ``((n,), _VECTOR_DOMAIN)``
    for dW (see ``_draws``), or ``_SCALAR_DRAWS``.  Each output of a block has
    the generator of its own domain.  Generators live until their block or
    the path is read to its end; only delivered rows are drawn, apart from an
    offset path's prefix.
    """

    def __init__(self, seed: int, stream: int, start: int, steps: int, draws):
        self.seed, self.stream, self.draws = seed, stream, draws
        self.block, self.row = divmod(start, BLOCK_STEPS)
        self.left = steps
        self.rngs = []

    def fill(self, outs):
        """Draw the next ``len(outs[0])`` steps of standard normals into ``outs``, one array per draw."""
        take, filled = len(outs[0]), 0
        self.left -= take
        while filled < take:
            if not self.rngs:
                self.rngs = [_block_generator(self.seed, self.stream, self.block, domain) for _, domain in self.draws]
                if self.row:
                    for rng, (shape, _) in zip(self.rngs, self.draws):
                        rng.standard_normal((self.row, *shape))
            got = min(BLOCK_STEPS - self.row, take - filled)
            for rng, a in zip(self.rngs, outs):
                rng.standard_normal(out=a[filled : filled + got])
            filled += got
            self.row += got
            if self.row == BLOCK_STEPS:
                self.block, self.row, self.rngs = self.block + 1, 0, []
        if self.left <= 0:
            self.rngs = []

    def read(self, take: int, dt: float):
        outs = [np.empty((take, *shape)) for shape, _ in self.draws]
        self.fill(outs)
        return _scaled(outs, dt)


def _scaled(outs, dt: float):
    """``(dB, dW)`` from standard normal draws, scaled by sqrt(dt) in place; dW is None for one output."""
    for a in outs:
        a *= np.sqrt(dt)
    return outs[0], outs[1] if len(outs) > 1 else None


_SCALAR_DRAWS = (((), _SCALAR_DOMAIN),)


def _draws(n: int, with_vector: bool):
    """The reader's ``draws`` of a matrix path: dB, and dW when it has one."""
    matrix = ((n, n), _MATRIX_DOMAIN)
    return (matrix, ((n,), _VECTOR_DOMAIN)) if with_vector else (matrix,)


def step_bytes(n: int, with_vector: bool) -> int:
    """Bytes of one step's increments: dB, plus dW when the path has it."""
    return (n * n + (n if with_vector else 0)) * 8


def scalar_block(seed: int, stream: int, block: int, dt: float) -> np.ndarray:
    """One block of scalar Brownian increments, Normal(0, dt) each."""
    return _Reader(seed, stream, block * BLOCK_STEPS, BLOCK_STEPS, _SCALAR_DRAWS).read(BLOCK_STEPS, dt)[0]


def scalar_increments(seed: int, steps: int, dt: float, stream: int = 0) -> np.ndarray:
    """Materialize ``steps`` scalar Brownian increments."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return _Reader(seed, stream, 0, steps, _SCALAR_DRAWS).read(steps, dt)[0]


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
    _matrix: np.ndarray | None = field(default=None, repr=False, compare=False)
    _vector: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 0 or self.offset < 0:
            raise ValueError("steps and offset must be nonnegative")

    # -- storage accounting -------------------------------------------------

    def nbytes(self) -> int:
        return self.steps * step_bytes(self.n, self.with_vector)

    # -- increment access ---------------------------------------------------

    def blocks(self, chunk: int = BLOCK_STEPS):
        """Yield consecutive ``(dB, dW)`` chunks of at most ``chunk`` steps.

        ``dW`` is None when the path carries no vector increments.  Chunks
        are drawn from the key as they are requested and nothing is cached;
        a suspended reader holds no chunk.
        """
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        reader = self._reader(0, self.steps, self.with_vector)
        for pos in range(0, self.steps, chunk):
            yield reader.read(min(chunk, self.steps - pos), self.dt)

    def _reader(self, k: int, steps: int, with_vector: bool) -> _Reader:
        return _Reader(self.seed, self.stream, self.offset + k, steps, _draws(self.n, with_vector))

    def _increment(self, k: int, with_vector: bool):
        if not 0 <= k < self.steps:
            raise IndexError(f"step {k} out of range [0, {self.steps})")
        return self._reader(k, 1, with_vector).read(1, self.dt)

    def matrix_increment(self, k: int) -> np.ndarray:
        return self._increment(k, False)[0][0]

    def vector_increment(self, k: int) -> np.ndarray:
        if not self.with_vector:
            raise ValueError("path was generated without vector increments")
        return self._increment(k, True)[1][0]

    def _materialize(self, mem_cap: int = DEFAULT_MEM_CAP):
        if self._matrix is not None:
            return
        if self.nbytes() > mem_cap:
            raise ResourceCapError(
                f"materializing {self.steps} steps of {self.n}x{self.n} increments "
                f"needs {self.nbytes()} bytes (cap {mem_cap}); iterate blocks() instead"
            )
        self._matrix, self._vector = self._reader(0, self.steps, self.with_vector).read(self.steps, self.dt)

    @property
    def matrix_increments(self) -> np.ndarray:
        """All matrix increments, shape (steps, n, n).  Cached."""
        self._materialize()
        return self._matrix

    @property
    def vector_increments(self) -> np.ndarray | None:
        """All vector increments, shape (steps, n), or None."""
        if not self.with_vector:
            return None
        self._materialize()
        return self._vector

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
        for pos in range(0, self.steps, chunk):
            db = self.matrix_increments[pos : pos + chunk]
            dw = None
            if self.vector_increments is not None:
                dw = self.vector_increments[pos : pos + chunk]
            yield db, dw


def generate_path(
    seed: int,
    n: int,
    dt: float,
    steps: int,
    with_vector: bool = False,
    stream: int = 0,
    mem_cap: int = DEFAULT_MEM_CAP,
    materialize: bool = True,
) -> NoisePath:
    """Create the noise path for one realization.

    Deterministic in (seed, n, dt, steps, stream).  With ``materialize``
    the increments are generated eagerly and the call fails with
    ResourceCapError if they would exceed ``mem_cap`` bytes; pass
    ``materialize=False`` for streaming access via ``blocks()``.
    """
    path = NoisePath(seed=seed, n=n, dt=dt, steps=steps, with_vector=with_vector, stream=stream)
    if materialize:
        path._materialize(mem_cap)
    return path


def shift_path(path: NoisePath, k: int) -> NoisePath:
    """View of ``path`` shifted by ``k`` steps (discrete time shift).

    Increment ``j`` of the view is increment ``j + k`` of the source,
    bit-exactly, and shifts compose: shift(shift(p, a), b) == shift(p, a+b).
    """
    if not 0 <= k <= path.steps:
        raise ValueError(f"shift {k} out of range [0, {path.steps}]")
    return NoisePath(
        seed=path.seed,
        n=path.n,
        dt=path.dt,
        steps=path.steps - k,
        with_vector=path.with_vector,
        stream=path.stream,
        offset=path.offset + k,
    )


def symmetrize(db) -> np.ndarray:
    """Symmetric part (dB + dB^T) / 2; exact symmetry, linear in the input.

    Works on a single matrix or on a stacked (..., n, n) batch.
    """
    db = np.asarray(db, dtype=float)
    if db.ndim < 2 or db.shape[-1] != db.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {db.shape}")
    out = db + np.swapaxes(db, -1, -2)
    out /= 2.0
    return out
