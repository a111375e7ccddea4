"""The scalar reference diffusion for the inner product of coupled pairs.

The process lives on [-1, 1] with drift 2z(1-z^2) and diffusion
sqrt(2)(1-z^2); its squared diffusion coefficient Sigma(z) = (1-z^2)^2
matches the quadratic variation of <X_t, Y_t> for a common-noise pair on
any sphere dimension.  Closed-form side: the polynomial scale function and
boundary-hitting probabilities.  Numerical side: direct Euler-Maruyama
simulation (single path and replicated batches) and a conservative
finite-volume solver for the associated Fokker-Planck equation

    dp/dt = -d/dz(2z(1-z^2) p) + d^2/dz^2((1-z^2)^2 p)

with zero-flux boundaries.  Both boundaries are attractive (the scale
function is finite at +-1), so mass accumulates in the edge cells exactly
as the simulated paths absorb at +-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import noise
from .flows import _step_count
from .integrators import em_step_z

__all__ = [
    "DensityGrid",
    "ZTrajectory",
    "fokker_planck_evolve",
    "hit_up_probability",
    "l1_density_distance",
    "max_stable_dt",
    "scale",
    "sigma_z",
    "simulate_z",
    "simulate_z_finals",
    "z_diffusion",
    "z_drift",
]

_SQRT2 = sqrt(2.0)


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


@dataclass(frozen=True)
class ZTrajectory:
    times: np.ndarray
    values: np.ndarray

    @property
    def final(self) -> float:
        return float(self.values[-1])


def simulate_z(z0: float, T: float, dt: float, seed: int, stream: int = 0) -> ZTrajectory:
    """Euler-Maruyama path of the Z diffusion; frozen once it reaches +-1."""
    if not -1.0 <= z0 <= 1.0:
        raise ValueError("z0 must be in [-1, 1]")
    steps = _step_count(T, dt)
    values = np.empty(steps + 1)
    values[0] = z = z0
    db = noise.scalar_increments(seed, steps, dt, stream=stream)
    for k in range(steps):
        z = em_step_z(z, db[k], dt)
        values[k + 1] = z
    return ZTrajectory(times=dt * np.arange(steps + 1), values=values)


def simulate_z_finals(
    z0: float,
    T: float,
    dt: float,
    seed: int,
    replicates: int,
    chunk: int = 4096,
) -> np.ndarray:
    """Final values Z_T over ``replicates`` independent substreams.

    Replicate r consumes the scalar stream (seed, r), identical to what
    ``simulate_z(..., stream=r)`` would consume, just advanced in batches.
    """
    if not -1.0 <= z0 <= 1.0:
        raise ValueError("z0 must be in [-1, 1]")
    steps = _step_count(T, dt)
    finals = np.empty(replicates)
    for start in range(0, replicates, chunk):
        streams = range(start, min(start + chunk, replicates))
        c = len(streams)
        z = np.full(c, float(z0))
        for block in range((steps + noise.BLOCK_STEPS - 1) // noise.BLOCK_STEPS):
            take = min(noise.BLOCK_STEPS, steps - block * noise.BLOCK_STEPS)
            db = np.empty((c, take))
            for i, r in enumerate(streams):
                db[i] = noise.scalar_block(seed, r, block, dt)[:take]
            for k in range(take):
                one_minus = 1.0 - z * z
                z += 2.0 * z * one_minus * dt + _SQRT2 * one_minus * db[:, k]
                np.clip(z, -1.0, 1.0, out=z)
        finals[start : start + c] = z
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
        if np.any(self.masses < 0):
            raise ValueError("masses must be nonnegative")
        if abs(float(self.masses.sum()) - 1.0) > 1e-9:
            raise ValueError(f"total mass {self.masses.sum()!r} is not 1 within 1e-9")

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
    """Largest stable explicit step h^2 / (2 max D + h max |a|).

    Standard positivity bound for upwind advection plus explicit diffusion
    of (D p); D = Sigma peaks at 1 (z = 0) and |a| = |2z(1-z^2)| peaks at
    4 / (3 sqrt(3)).
    """
    h = 2.0 / m
    a_max = 4.0 / (3.0 * sqrt(3.0))
    return h * h / (2.0 * 1.0 + h * a_max)


def fokker_planck_evolve(p0: DensityGrid, T: float, dt_pde: float | None = None) -> DensityGrid:
    """Advance the cell masses to time T with a conservative finite-volume step.

    Fluxes live on cell faces (upwind advection of p, centered difference
    of D p); boundary faces carry zero flux, so total mass is conserved to
    roundoff.  ``dt_pde`` defaults to 90% of the stability bound; passing a
    larger value raises with the bound in the message.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    m = p0.m
    h = p0.h
    dt_max = max_stable_dt(m)
    if dt_pde is None:
        dt_pde = 0.9 * dt_max
    elif dt_pde <= 0:
        raise ValueError("dt_pde must be positive")
    elif dt_pde > dt_max:
        raise ValueError(
            f"dt_pde={dt_pde!r} violates the explicit stability bound; "
            f"max stable dt_pde for m={m} is {dt_max!r}"
        )
    if T == 0:
        return DensityGrid(p0.masses.copy())
    steps = int(np.ceil(T / dt_pde - 1e-12))
    dt = T / steps

    faces = p0.edges[1:-1]                      # interior faces
    a_face = 2.0 * faces * (1.0 - faces * faces)
    a_pos = np.maximum(a_face, 0.0)
    a_neg = np.minimum(a_face, 0.0)
    centers = p0.centers
    d_cell = (1.0 - centers * centers) ** 2

    mass = p0.masses.copy()
    flux = np.empty(m + 1)
    flux[0] = flux[-1] = 0.0
    for _ in range(steps):
        p = mass / h
        dp = d_cell * p
        # upwind: positive velocity carries the left cell, negative the right
        flux[1:-1] = a_pos * p[:-1] + a_neg * p[1:] - (dp[1:] - dp[:-1]) / h
        mass -= dt * (flux[1:] - flux[:-1])
    return DensityGrid(mass)


def l1_density_distance(grid: DensityGrid, samples: np.ndarray) -> float:
    """L1 distance between the grid density and a sample histogram.

    Computed on the grid's own cells, where it equals the total variation
    of the per-cell masses: sum_i |mass_i - count_i / N|.
    """
    samples = np.asarray(samples, dtype=float)
    counts, _ = np.histogram(np.clip(samples, -1.0, 1.0), bins=grid.edges)
    return float(np.abs(grid.masses - counts / samples.size).sum())
