"""Seeded Brownian increments driving the sphere flows.

A path is never stored as the source of truth: every increment is a pure
function of (seed, stream, step index), produced block-wise from a
counter-based Philox generator keyed by (seed, stream, block, domain).
That gives

* bit-identical regeneration from the same seed,
* O(1) random access to any step (time-shift views cost nothing),
* non-overlapping per-trajectory substreams by construction, and
* streaming iteration for paths too large to materialize.

Matrix increments dB have iid Normal(0, dt) entries; the symmetrized
increment dQ = (dB + dB^T)/2 then has Var(dQ_ii) = dt and
Var(dQ_ij) = dt/2, i.e. dQ ~ sqrt(dt/2) * GOE.
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
    "symmetrize",
]

BLOCK_STEPS = 1024
DEFAULT_MEM_CAP = 1 << 30  # 1 GiB

_MAX_STREAM = 1 << 32
_MAX_BLOCK = 1 << 30
_MATRIX_DOMAIN = 0  # matrix + vector draws share one generator per block
_SCALAR_DOMAIN = 1  # scalar Brownian increments (z-process drivers)


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


def _matrix_vector_block(seed, stream, block, n, sqrt_dt):
    """Full block of matrix and vector increments.

    The matrix draw always happens first, so paths with and without vector
    increments share bit-identical matrix noise.
    """
    rng = _block_generator(seed, stream, block, _MATRIX_DOMAIN)
    db = rng.standard_normal((BLOCK_STEPS, n, n))
    dw = rng.standard_normal((BLOCK_STEPS, n))
    db *= sqrt_dt
    dw *= sqrt_dt
    return db, dw


def scalar_block(seed: int, stream: int, block: int, dt: float) -> np.ndarray:
    """One block of scalar Brownian increments, Normal(0, dt) each."""
    rng = _block_generator(seed, stream, block, _SCALAR_DOMAIN)
    return rng.standard_normal(BLOCK_STEPS) * np.sqrt(dt)


def scalar_increments(seed: int, steps: int, dt: float, stream: int = 0) -> np.ndarray:
    """Materialize ``steps`` scalar Brownian increments."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = np.empty(steps)
    for block in range(0, steps, BLOCK_STEPS):
        j = block // BLOCK_STEPS
        take = min(BLOCK_STEPS, steps - block)
        out[block : block + take] = scalar_block(seed, stream, j, dt)[:take]
    return out


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
        per_step = self.n * self.n * 8 + (self.n * 8 if self.with_vector else 0)
        return self.steps * per_step

    # -- increment access ---------------------------------------------------

    def blocks(self, chunk: int = BLOCK_STEPS):
        """Yield consecutive ``(dB, dW)`` chunks of at most ``chunk`` steps.

        ``dW`` is None when the path carries no vector increments.  Chunks
        are regenerated from the key; nothing is cached.
        """
        sqrt_dt = np.sqrt(self.dt)
        pos = 0
        while pos < self.steps:
            take = min(chunk, self.steps - pos)
            db = np.empty((take, self.n, self.n))
            dw = np.empty((take, self.n)) if self.with_vector else None
            filled = 0
            while filled < take:
                abs_index = self.offset + pos + filled
                j, r = divmod(abs_index, BLOCK_STEPS)
                got = min(BLOCK_STEPS - r, take - filled)
                bdb, bdw = _matrix_vector_block(self.seed, self.stream, j, self.n, sqrt_dt)
                db[filled : filled + got] = bdb[r : r + got]
                if dw is not None:
                    dw[filled : filled + got] = bdw[r : r + got]
                filled += got
            yield db, dw
            pos += take

    def matrix_increment(self, k: int) -> np.ndarray:
        if not 0 <= k < self.steps:
            raise IndexError(f"step {k} out of range [0, {self.steps})")
        j, r = divmod(self.offset + k, BLOCK_STEPS)
        db, _ = _matrix_vector_block(self.seed, self.stream, j, self.n, np.sqrt(self.dt))
        return db[r]

    def vector_increment(self, k: int) -> np.ndarray:
        if not self.with_vector:
            raise ValueError("path was generated without vector increments")
        if not 0 <= k < self.steps:
            raise IndexError(f"step {k} out of range [0, {self.steps})")
        j, r = divmod(self.offset + k, BLOCK_STEPS)
        _, dw = _matrix_vector_block(self.seed, self.stream, j, self.n, np.sqrt(self.dt))
        return dw[r]

    def _materialize(self, mem_cap: int = DEFAULT_MEM_CAP):
        if self._matrix is not None:
            return
        if self.nbytes() > mem_cap:
            raise ResourceCapError(
                f"materializing {self.steps} steps of {self.n}x{self.n} increments "
                f"needs {self.nbytes()} bytes (cap {mem_cap}); iterate blocks() instead"
            )
        mats = np.empty((self.steps, self.n, self.n))
        vecs = np.empty((self.steps, self.n)) if self.with_vector else None
        pos = 0
        for db, dw in self.blocks():
            mats[pos : pos + len(db)] = db
            if vecs is not None:
                vecs[pos : pos + len(db)] = dw
            pos += len(db)
        self._matrix = mats
        self._vector = vecs

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
