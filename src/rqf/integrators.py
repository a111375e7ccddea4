"""One-step numerical schemes.

* Heun predictor-corrector for the Stratonovich sphere flows (quadratic
  matrix noise and/or linear vector noise), with renormalization to the
  sphere after every step.  One step serves a single state here and whole
  (replicate, member) stacks in the trajectory loop of ``rqf.flows``.  The
  flow itself preserves the sphere, so the pre-renormalization defect is
  pure discretization error and is reported alongside the state.
* Euler-Maruyama step for the scalar inner-product diffusion on [-1, 1].
* The exact solution map of the deterministic quadratic-form gradient
  flow, x(t) = exp(tM) x0 / ||exp(tM) x0||.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import NumericalError

__all__ = [
    "StepResult",
    "dominant_eigenspace",
    "dqf_exact",
    "em_step_z",
    "heun_step_bias",
    "heun_step_rqf",
]

_SQRT2 = sqrt(2.0)


@dataclass(frozen=True)
class StepResult:
    state: np.ndarray
    renorm_defect: float


def _field(states, dq, dw, q_scale: float, w_scale: float) -> np.ndarray:
    # states (..., m, n), dq (..., n, n) symmetric, dw (..., n) or None; the
    # result is tangent at every state by construction
    dqy = states @ dq
    s = np.einsum("...mi,...mi->...m", states, dqy)
    f = q_scale * (dqy - s[..., None] * states)
    if w_scale != 0.0:
        proj = np.einsum("...mi,...i->...m", states, dw)
        f = f + w_scale * (dw[..., None, :] - proj[..., None] * states)
    return f


def _heun_step(states, dq, dw, q_scale: float, w_scale: float):
    """One Heun step of dX = q_scale P_X dQ X + w_scale P_X dW for (..., m, n) states.

    Returns the corrected states before renormalization and their norms;
    every member of a replicate consumes that replicate's increment.
    """
    f1 = _field(states, dq, dw, q_scale, w_scale)
    f2 = _field(states + f1, dq, dw, q_scale, w_scale)
    out = states + 0.5 * (f1 + f2)
    return out, np.sqrt(np.einsum("...mi,...mi->...m", out, out))


def _single_step(x, dq, dw, q_scale: float, w_scale: float) -> StepResult:
    out, norms = _heun_step(np.asarray(x, dtype=float)[None, :], dq, dw, q_scale, w_scale)
    nrm = float(norms[0])
    if not np.isfinite(nrm) or nrm == 0.0:
        raise NumericalError("step produced a non-finite or zero state")
    return StepResult(state=out[0] / nrm, renorm_defect=abs(nrm - 1.0))


def heun_step_rqf(x: np.ndarray, dq: np.ndarray, sign: float = -1.0) -> StepResult:
    """One Heun step of the quadratic-form flow dX = sign * P_X dQ X.

    Predictor ``x~ = x + F(x)``, corrector ``x + (F(x) + F(x~)) / 2`` with
    ``F(y) = sign (dq y - <y, dq y> y)``, then renormalization.  The field
    is odd in x, so the step maps -x to -(step of x) bit-exactly.
    """
    if sign not in (-1.0, 1.0, -1, 1):
        raise ValueError("sign must be +1 or -1")
    if not np.all(np.isfinite(dq)):
        raise NumericalError("increment contains non-finite entries")
    return _single_step(x, dq, None, float(sign), 0.0)


def heun_step_bias(
    x: np.ndarray,
    dq: np.ndarray,
    dw: np.ndarray,
    sigma_q: float,
    sigma_w: float,
) -> StepResult:
    """One Heun step of the biased flow dX = -sigma_q P dQ X - sigma_w P dW.

    sigma_w = 0 reduces bit-exactly to ``heun_step_rqf(x, dq, sign=-1)``;
    sigma_q = 0 is the driftless vector-noise motion on the sphere.
    """
    if sigma_q < 0 or sigma_w < 0:
        raise ValueError("sigma_q and sigma_w must be nonnegative")
    if not (np.all(np.isfinite(dq)) and np.all(np.isfinite(dw))):
        raise NumericalError("increment contains non-finite entries")
    return _single_step(x, dq, dw, -sigma_q, -sigma_w)


def em_step_z(z: float, db: float, dt: float) -> float:
    """Euler-Maruyama step of dZ = 2Z(1-Z^2) dt + sqrt(2)(1-Z^2) dB.

    The result is clamped to [-1, 1]; both coefficients vanish at the
    boundaries, so +-1 are exact fixed points.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    one_minus = 1.0 - z * z
    out = z + 2.0 * z * one_minus * dt + _SQRT2 * one_minus * db
    return min(1.0, max(-1.0, out))


def dqf_exact(m: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
    """Exact solution exp(tM) x0 / ||exp(tM) x0|| of the quadratic gradient flow.

    Uses the symmetric eigendecomposition with the spectrum shifted by the
    top eigenvalue, so large t cannot overflow (the shift cancels under
    normalization).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    m = np.asarray(m, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if t == 0.0:
        return x0.copy()
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    coeffs = np.exp((w - w[-1]) * t) * (v.T @ x0)
    y = v @ coeffs
    nrm = float(np.linalg.norm(y))
    if not np.isfinite(nrm) or nrm == 0.0:
        raise NumericalError("exp(tM) x0 vanished; x0 has no component on the surviving eigenspace")
    return y / nrm


def dominant_eigenspace(m: np.ndarray, gap_tol: float = 1e-10):
    """Top eigenvalue with its eigenvector, or the eigenspace projector.

    Returns ``(lam1, vec, projector)``.  When the spectral gap
    lam1 - lam2 falls below ``gap_tol`` there is no well-defined top
    direction; ``vec`` is None and ``projector`` spans the whole
    near-degenerate top eigenspace.
    """
    w, v = np.linalg.eigh(np.asarray(m, dtype=float))
    lam1 = float(w[-1])
    top = v[:, w > lam1 - gap_tol]
    projector = top @ top.T
    if top.shape[1] == 1:
        return lam1, top[:, 0], projector
    return lam1, None, projector
