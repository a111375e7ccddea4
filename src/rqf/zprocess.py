"""The scalar reference diffusion for the inner product of coupled pairs.

The process lives on [-1, 1] with drift 2z(1-z^2) and diffusion
sqrt(2)(1-z^2); its squared diffusion coefficient Sigma(z) = (1-z^2)^2
matches the quadratic variation of <X_t, Y_t> for a common-noise pair on
any sphere dimension.  This module holds the whole pair law and its three
checks.  Closed-form side: the polynomial scale function and
boundary-hitting probabilities.  Monte Carlo side: the Euler-Maruyama step
of the law, a single path, and a table of starting points on shared
noise, read through the replicate spans of ``noise._spans``, each
replicate bit-equal to its single path.  Oracle side: a conservative
finite-volume discretisation of the Fokker-Planck equation

    dp/dt = -d/dz(2z(1-z^2) p) + d^2/dz^2((1-z^2)^2 p)

with zero-flux boundaries.  Both boundaries are attractive (the scale
function is finite at +-1), so mass accumulates in the edge cells exactly
as the simulated paths absorb at +-1.

The finite-volume generator is tridiagonal with positive off-diagonals and
zero column sums, so a diagonal scaling makes it symmetric:
``fokker_planck_evolve`` applies its exact exponential through one
symmetric tridiagonal eigendecomposition, at any horizon for the same
cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, sqrt

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from . import noise
from .errors import NumericalError
from .flows import _step_count

__all__ = [
    "DensityGrid",
    "ZTrajectory",
    "em_step_z",
    "fokker_planck_evolve",
    "hit_up_probability",
    "l1_density_distance",
    "max_stable_dt",
    "scale",
    "sigma_z",
    "simulate_z",
    "simulate_z_finals",
    "spectral_gap",
    "z_diffusion",
    "z_drift",
]

_SQRT2 = sqrt(2.0)
_MASS_TOL = 1e-9  # a DensityGrid's total mass is 1 within this


# -- closed forms -----------------------------------------------------------


def z_drift(z: float) -> float:
    """Drift 2z(1-z^2); vanishes at 0 and at both boundaries."""
    return 2.0 * z * (1.0 - z * z)


def z_diffusion(z: float) -> float:
    """Diffusion coefficient sqrt(2)(1-z^2); degenerate at the boundaries."""
    return _SQRT2 * (1.0 - z * z)


def sigma_z(z: float) -> float:
    """Squared-diffusion coefficient Sigma(z) = (1-z^2)^2 = diffusion^2 / 2.

    Independent of the sphere dimension, which is why the inner-product
    law of coupled runs does not depend on n.
    """
    one_minus = 1.0 - z * z
    return one_minus * one_minus


def scale(z: float, c: float = 0.0) -> float:
    """Scale function s(z) = [(z - z^3/3) - (c - c^3/3)] / (1 - c^2).

    Strictly increasing on [-1, 1] with s(c) = 0; finite at both
    boundaries, which is what makes them attractive.
    """
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"z must be in [-1, 1], got {z}")
    if not -1.0 < c < 1.0:
        raise ValueError(f"reference point c must be in (-1, 1), got {c}")
    return ((z - z**3 / 3.0) - (c - c**3 / 3.0)) / (1.0 - c * c)


def hit_up_probability(z0: float) -> float:
    """P(Z_t -> +1) from Z_0 = z0: (s(z0) - s(-1)) / (s(1) - s(-1)).

    Independent of the reference point of the scale function; the ratio
    simplifies to the polynomial (2 + 3 z0 - z0^3) / 4.
    """
    if not -1.0 <= z0 <= 1.0:
        raise ValueError(f"z0 must be in [-1, 1], got {z0}")
    return (2.0 + 3.0 * z0 - z0**3) / 4.0


# -- direct simulation ------------------------------------------------------


def em_step_z(z: float, db: float, dt: float) -> float:
    """Euler-Maruyama step of dZ = 2Z(1-Z^2) dt + sqrt(2)(1-Z^2) dB.

    The result is clamped to [-1, 1]; both coefficients vanish at the
    boundaries, so +-1 are exact fixed points.  A z outside [-1, 1], a
    non-finite db or a dt outside (0, inf) raises ValueError.
    """
    if not 0 < dt < inf:
        raise ValueError(f"dt must be finite and positive, got dt={dt}")
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"z must be in [-1, 1], got z={z}")
    if not isfinite(db):
        raise ValueError(f"db must be finite, got db={db}")
    return min(1.0, max(-1.0, z + _em_z_increment(z, db, dt)))


def _em_z_increment(z, db, dt: float):
    # drift and noise terms of one Euler-Maruyama step of the z diffusion,
    # for floats and for arrays; every z stepper adds this to z, then clamps
    one_minus = 1.0 - z * z
    return 2.0 * z * one_minus * dt + _SQRT2 * one_minus * db


@dataclass(frozen=True)
class ZTrajectory:
    times: np.ndarray
    values: np.ndarray

    @property
    def final(self) -> float:
        return float(self.values[-1])


def simulate_z(z0: float, T: float, dt: float, seed: int, stream: int = 0) -> ZTrajectory:
    """Euler-Maruyama path of the Z diffusion; frozen once it reaches +-1.

    Checks z0 and dt once, then takes ``em_step_z``'s steps unchecked.
    """
    if not -1.0 <= z0 <= 1.0:
        raise ValueError("z0 must be in [-1, 1]")
    steps = _step_count(T, dt)
    values = np.empty(steps + 1)
    values[0] = z = z0
    for k, db in enumerate(noise.scalar_increments(seed, steps, dt, stream=stream).tolist(), 1):
        z = min(1.0, max(-1.0, z + _em_z_increment(z, db, dt)))
        values[k] = z
    return ZTrajectory(times=dt * np.arange(steps + 1), values=values)


# bytes of one noise slice of simulate_z_finals, on spans that keep
# whole-block slices: a z step costs little next to a replicate's read, so
# wide spans pay.  At the CLI's 4 MiB sphere budget the oracle table (10
# starting points, 2,000 replicates, 800 steps) splits into 4 spans and
# took 58-61 ms against 47-51 ms at 32 MiB (in-process, 2 vCPUs)
_Z_CHUNK_BYTES = 1 << 25
# steps read from one contiguous transposed copy: a step's column of a
# (replicates, size) slice is strided by a whole slice row, which aliases in
# cache at 512- and 1024-step slices, and a transposed copy of the whole
# slice would double the noise in flight
_Z_COLUMNS = 16


def simulate_z_finals(z0, T: float, dt: float, seed: int, replicates: int) -> np.ndarray:
    """Final values Z_T over ``replicates`` independent substreams.

    Replicate r consumes the scalar stream (seed, r) and equals
    ``simulate_z(z0, T, dt, seed, stream=r).final`` bit for bit.  ``z0``
    is a scalar or a 1-D array of starting points; the result has shape
    ``z0.shape + (replicates,)``.  Every starting point rides on the same
    noise, drawn once, and the update is elementwise, so each row equals
    the scalar-``z0`` call bit for bit.  Replicates step together in the
    spans of ``noise._spans``, as in ``flows.batch_finals``, on noise
    slices of at most 32 MiB and of whole 1024-step blocks where the run
    has them, at any horizon.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim > 1:
        raise ValueError("z0 must be a scalar or a 1-D array")
    if not np.all((z0 >= -1.0) & (z0 <= 1.0)):
        raise ValueError("z0 must be in [-1, 1]")
    steps = _step_count(T, dt)
    finals = np.empty(z0.shape + (replicates,))
    for path in noise._spans(seed, replicates, dt, steps, noise._SCALAR_DRAWS, _Z_CHUNK_BYTES, noise.BLOCK_STEPS):
        z = np.repeat(z0[..., None], path.count, axis=-1)
        # read on this thread, not ahead as the sphere batches are: a z step
        # costs less than the handoff, and drawing the oracle table ahead in
        # half slices took 54-63 ms against 49-52 ms (in-process, 2 vCPUs)
        for db, _ in path.blocks():
            for j in range(0, db.shape[1], _Z_COLUMNS):
                for dbk in np.ascontiguousarray(db[:, j : j + _Z_COLUMNS].T):
                    z += _em_z_increment(z, dbk, dt)
                    np.clip(z, -1.0, 1.0, out=z)
        finals[..., path.rows] = z
    return finals


# -- Fokker-Planck oracle ---------------------------------------------------


@dataclass
class DensityGrid:
    """Cell masses of a probability density on a uniform grid over [-1, 1]."""

    masses: np.ndarray

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.ndim != 1 or self.masses.size < 3:
            raise ValueError("need at least 3 cells")
        if not np.all(self.masses >= 0):  # NaN fails too
            raise ValueError("masses must be nonnegative")
        if not abs(float(self.masses.sum()) - 1.0) <= _MASS_TOL:
            raise ValueError(f"total mass {self.masses.sum()!r} is not 1 within {_MASS_TOL}")

    @property
    def m(self) -> int:
        return self.masses.size

    @property
    def h(self) -> float:
        return 2.0 / self.m

    @property
    def edges(self) -> np.ndarray:
        return -1.0 + self.h * np.arange(self.m + 1)

    @property
    def centers(self) -> np.ndarray:
        return -1.0 + self.h * (np.arange(self.m) + 0.5)

    def density(self) -> np.ndarray:
        return self.masses / self.h

    @classmethod
    def delta(cls, z0: float, m: int = 401) -> "DensityGrid":
        """One full cell of mass at the cell containing z0 (near-delta IC)."""
        if not -1.0 <= z0 <= 1.0:
            raise ValueError("z0 must be in [-1, 1]")
        masses = np.zeros(m)
        idx = min(m - 1, max(0, int((z0 + 1.0) / (2.0 / m))))
        masses[idx] = 1.0
        return cls(masses)

    @classmethod
    def uniform(cls, m: int = 401) -> "DensityGrid":
        return cls(np.full(m, 1.0 / m))


def max_stable_dt(m: int) -> float:
    """Largest explicit Euler step dt at which I + dt A has no negative entry.

    The standard positivity bound h^2 / (2 max D + h max |a|) for upwind
    advection plus explicit diffusion of (D p), with D = Sigma peaking at
    1 (z = 0) and |a| = |2z(1-z^2)| at 4 / (3 sqrt(3)), capped by the
    exact bound 1 / (largest outflow rate of a cell); of m = 3 to 11,585,
    the cap is the smaller only at m = 3.
    """
    h = 2.0 / m
    a_max = 4.0 / (3.0 * sqrt(3.0))
    _, diag, _ = _fp_symmetrized(DensityGrid.uniform(m))
    return min(h * h / (2.0 + h * a_max), -1.0 / float(diag.min()))


def _fp_rates(grid: DensityGrid):
    """Transfer rates across the interior faces of the finite-volume generator A.

    The flux across a face is upwind advection of p plus a centered
    difference of D p, D = Sigma at the cell centers.  ``right[i]``
    carries mass from cell i to cell i+1 and ``left[i]`` from cell i+1
    back to cell i, so A has sub-diagonal ``right``, super-diagonal
    ``left`` and the diagonal that zeroes every column sum.  Both are
    strictly positive: D > 0 at every cell center.
    """
    h = grid.h
    a_face = z_drift(grid.edges[1:-1])
    d_cell = sigma_z(grid.centers)
    return (np.maximum(a_face, 0.0) + d_cell[:-1] / h) / h, (d_cell[1:] / h - np.minimum(a_face, 0.0)) / h


def _fp_symmetrized(grid: DensityGrid):
    """Scaling s and the symmetric tridiagonal B = S^-1 A S (diagonal, off-diagonal).

    s[i+1] / s[i] = sqrt(right[i] / left[i]); s is built from cumulative
    sums of logs and centered in log space, so neither S nor S^-1
    overflows.
    """
    right, left = _fp_rates(grid)
    diag = np.zeros(grid.m)
    diag[:-1] -= right
    diag[1:] -= left
    log_s = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(right) - np.log(left)))))
    s = np.exp(log_s - 0.5 * (log_s.max() + log_s.min()))
    return s, diag, np.sqrt(right * left)


def spectral_gap(m: int) -> float:
    """Absorption rate of the m-cell Fokker-Planck generator.

    The generator has one zero mode and one near-zero mode (the mass split
    between the two absorbing edges); the gap is the smallest |eigenvalue|
    after those two.
    """
    _, diag, off = _fp_symmetrized(DensityGrid.uniform(m))
    rates = np.sort(np.abs(eigvalsh_tridiagonal(diag, off)))
    return float(rates[2])


def fokker_planck_evolve(p0: DensityGrid, T: float) -> DensityGrid:
    """Advance the cell masses to time T under the conservative finite-volume generator.

    Fluxes live on cell faces (upwind advection of p, centered difference
    of D p); boundary faces carry zero flux, so total mass is conserved to
    roundoff.  The result is exact in time: p(T) = exp(A T) p0 from one
    eigendecomposition of the symmetrized generator, at a cost that does
    not depend on T; it holds an m x m eigenvector matrix, and raises
    ResourceCapError if that would exceed ``noise.DEFAULT_MEM_CAP``
    (``noise._fits``).
    """
    if not 0 <= T < inf:
        raise ValueError(f"T must be finite and >= 0, got T={T}")
    noise._fits(8 * p0.m * p0.m, f"the spectral Fokker-Planck solve's eigenvectors at m={p0.m}")
    if T == 0:
        return DensityGrid(p0.masses.copy())
    # exp(A T) = S V exp(Lambda T) V^T S^-1 with B = S^-1 A S = V Lambda V^T
    s, diag, off = _fp_symmetrized(p0)
    lam, vecs = eigh_tridiagonal(diag, off)
    coeff = vecs.T @ (p0.masses / s)
    coeff *= np.exp(lam * T)
    mass = s * (vecs @ coeff)
    # S amplifies the eigenvector roundoff by up to s.max() / s.min(), so
    # cells the mass has not reached come out slightly negative (down to
    # -2.4e-10 at m=2001); clipping them adds their mass, and a result that
    # clipping leaves unnormalized is a failed solve
    np.maximum(mass, 0.0, out=mass)
    drift = abs(float(mass.sum()) - 1.0)
    if not drift <= _MASS_TOL:
        raise NumericalError(
            f"spectral Fokker-Planck solve at m={p0.m}, T={T!r} drifts total mass by {drift!r} "
            f"(tolerance {_MASS_TOL}); use fewer cells"
        )
    return DensityGrid(mass)


def l1_density_distance(grid: DensityGrid, samples: np.ndarray) -> float:
    """L1 distance between the grid density and a sample histogram.

    Computed on the grid's own cells, where it equals the total variation
    of the per-cell masses: sum_i |mass_i - count_i / N|.
    """
    samples = np.asarray(samples, dtype=float)
    counts, _ = np.histogram(np.clip(samples, -1.0, 1.0), bins=grid.edges)
    return float(np.abs(grid.masses - counts / samples.size).sum())
