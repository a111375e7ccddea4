"""Sphere primitives: unit vectors, tangent projection, geodesic distance.

Points on the sphere are plain float64 arrays of length n >= 2 embedded in
R^n.  Constructors return read-only arrays; nothing in this module mutates
its inputs, so values can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MIN_NORM",
    "TangentVector",
    "antipode",
    "fibonacci_sphere",
    "project_tangent",
    "random_unit_vector",
    "sphere_distance",
    "symmetric_matrix",
    "unit_vector",
]

# Below this norm the direction of the input is considered undefined.
MIN_NORM = 1e-8


def unit_vector(coords) -> np.ndarray:
    """Normalize ``coords`` to a point on the unit sphere S^{n-1}.

    Idempotent: a vector whose computed norm is within 4 eps of 1 is
    returned as is (dividing by that roundoff would only move its last
    bits), so a second call changes no bit.  Odd: the result for
    ``-coords`` is the negation of the result for ``coords``.  A vector
    whose norm overflows is divided by its largest |entry| first.

    Parameters
    ----------
    coords : array_like, shape (n,)
        Any vector with n >= 2 and Euclidean norm >= 1e-8.

    Returns
    -------
    ndarray
        Read-only float64 array with unit norm (to within 1e-12).
    """
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"expected a vector of dimension >= 2, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("coordinates must be finite")
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(x))
    if nrm == np.inf:  # finite entries whose squares overflow: scale by the largest first
        x = x / np.abs(x).max()
        nrm = float(np.linalg.norm(x))
    if nrm < MIN_NORM:
        raise ValueError(f"norm {nrm:.3e} below {MIN_NORM:.0e}; direction undefined")
    out = x.copy() if abs(nrm - 1.0) <= 4.0 * np.finfo(float).eps else x / nrm
    out.setflags(write=False)
    return out


def random_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a point uniformly on S^{n-1} (normalized Gaussian)."""
    while True:
        g = rng.standard_normal(n)
        if np.linalg.norm(g) >= MIN_NORM:
            return unit_vector(g)


@dataclass(frozen=True)
class TangentVector:
    """A vector attached to ``base`` and orthogonal to it (within 1e-10)."""

    base: np.ndarray
    vec: np.ndarray


def project_tangent(x: np.ndarray, v) -> TangentVector:
    """Project ``v`` onto the tangent space at ``x``: v - <x, v> x.

    Idempotent, and kills radial directions exactly up to roundoff.
    Raises ValueError on dimension mismatch.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != x.shape:
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, v has {v.shape}")
    out = v - np.dot(x, v) * x
    out.setflags(write=False)
    return TangentVector(base=x, vec=out)


def sphere_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Geodesic (great-circle) distance between two unit vectors, in [0, pi].

    The inner product is clamped to [-1, 1] before arccos so numerically
    collinear points do not produce NaN; a NaN inner product stays NaN
    (``min`` and ``max`` return their first argument when a comparison
    with NaN fails).
    """
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    c = float(np.dot(x, y))
    return float(np.arccos(max(min(c, 1.0), -1.0)))


def antipode(x: np.ndarray) -> np.ndarray:
    """Coordinatewise negation; an exact involution."""
    out = -np.asarray(x, dtype=float)
    out.setflags(write=False)
    return out


def symmetric_matrix(entries) -> np.ndarray:
    """Validate/coerce ``entries`` into an exactly symmetric square matrix.

    Entries already symmetric are returned unchanged (as float64); anything
    else within 1e-12 of symmetric is mirrored, larger defects raise.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.array_equal(m, m.T):
        return m
    if np.max(np.abs(m - m.T)) > 1e-12:
        raise ValueError("matrix is not symmetric")
    return (m + m.T) / 2.0


def fibonacci_sphere(count: int) -> np.ndarray:
    """Near-equidistributed deterministic grid of ``count`` points on S^2."""
    if count < 1:
        raise ValueError("count must be >= 1")
    i = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * i
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    # renormalize to meet the unit-norm contract exactly
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts
