"""One-step schemes and the exact flow on the sphere.

* Heun predictor-corrector for the Stratonovich sphere flows (quadratic
  matrix noise and/or linear vector noise), with renormalization to the
  sphere after every step.  One step serves a single state here and whole
  (replicate, member) stacks in the trajectory loop of ``rqf.flows``.  The
  flow itself preserves the sphere, so the pre-renormalization defect is
  pure discretization error and is reported alongside the state.
* The exact solution map of the deterministic quadratic-form gradient
  flow, x(t) = exp(tM) x0 / ||exp(tM) x0||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "StepResult",
    "dominant_eigenspace",
    "dqf_exact",
    "heun_step_bias",
    "heun_step_rqf",
]


@dataclass(frozen=True)
class StepResult:
    state: np.ndarray
    renorm_defect: float


def _scales(sigma_q: float, sigma_w, sign: float, members: int | None = None):
    # the one check of these parameters for every sphere stepper: the field
    # scales of dX = sign (sigma_q P_X dQ X + sigma_w P_X dW).  A run of
    # ``members`` states may give sigma_w one value per member; its w_scale
    # is then an (m, 1) column that scales each member's vector term
    if sign not in (-1.0, 1.0):
        raise ValueError("sign must be +1 or -1")
    if np.ndim(sigma_w):
        sigma_w = np.asarray(sigma_w, dtype=float)
        if members is None or sigma_w.shape != (members,):
            raise ValueError(f"sigma_w must be one value or one per initial state, got shape {sigma_w.shape}")
        sigma_w = sigma_w[:, None]
    if not (sigma_q >= 0 and np.all(sigma_w >= 0)):
        raise ValueError("sigma_q and sigma_w must be nonnegative")
    return float(sign) * sigma_q, float(sign) * sigma_w


def _field(states, dq, dw, w_scale):
    # states (..., m, n), dq (..., n, n) symmetric and already scaled by
    # q_scale, dw (..., n) or None for no vector term; w_scale is a float or
    # an (m, 1) column.  Every row reduces through np.vecdot, so a row's bits
    # do not depend on the replicate axes stacked around it.  They can depend
    # on the member count m: for n >= 4, ``states @ dq`` goes through BLAS
    # gemv for one member and gemm for several, which round differently.
    # The result is tangent at every state by construction
    f = states @ dq
    f -= np.vecdot(states, f, keepdims=True) * states
    if dw is not None:
        dw = dw[..., None, :]
        g = dw - np.vecdot(states, dw, keepdims=True) * states
        g *= w_scale
        f += g
    return f


def _heun_step(states, dq, dw, w_scale):
    """One Heun step of dX = P_X dQ X + w_scale P_X dW for (..., m, n) states.

    ``dq`` already carries the field's q_scale (the trajectory loop has the
    noise intake scale it as it symmetrizes each block).  Returns the
    corrected states before renormalization and their (..., m, 1) norms;
    every member of a replicate consumes that replicate's increment.
    """
    f1 = _field(states, dq, dw, w_scale)
    f2 = _field(states + f1, dq, dw, w_scale)
    f2 += f1
    f2 *= 0.5
    f2 += states
    return f2, np.sqrt(np.vecdot(f2, f2, keepdims=True))


def _single_step(x, dq, dw, q_scale: float, w_scale: float) -> StepResult:
    out, norms = _heun_step(np.asarray(x, dtype=float)[None, :], q_scale * np.asarray(dq, dtype=float), dw, w_scale)
    nrm = float(norms[0, 0])
    if not np.isfinite(nrm) or nrm == 0.0:
        raise NumericalError("step produced a non-finite or zero state")
    return StepResult(state=out[0] / nrm, renorm_defect=abs(nrm - 1.0))


def heun_step_rqf(x: np.ndarray, dq: np.ndarray, sign: float = -1.0) -> StepResult:
    """One Heun step of the quadratic-form flow dX = sign * P_X dQ X.

    Predictor ``x~ = x + F(x)``, corrector ``x + (F(x) + F(x~)) / 2`` with
    ``F(y) = sign (dq y - <y, dq y> y)``, then renormalization.  The field
    is odd in x, so the step maps -x to -(step of x) bit-exactly.
    """
    q_scale, w_scale = _scales(1.0, 0.0, sign)
    if not np.all(np.isfinite(dq)):
        raise NumericalError("increment contains non-finite entries")
    return _single_step(x, dq, None, q_scale, w_scale)


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
    q_scale, w_scale = _scales(sigma_q, sigma_w, -1.0)
    if not (np.all(np.isfinite(dq)) and np.all(np.isfinite(dw))):
        raise NumericalError("increment contains non-finite entries")
    return _single_step(x, dq, dw if w_scale != 0.0 else None, q_scale, w_scale)


def dqf_exact(m: np.ndarray, x0: np.ndarray, t) -> np.ndarray:
    """Exact solution exp(tM) x0 / ||exp(tM) x0|| of the quadratic gradient flow.

    Uses the symmetric eigendecomposition with the spectrum shifted by the
    top eigenvalue, so large t cannot overflow (the shift cancels under
    normalization).  ``t`` is one time, giving shape (n,), or a 1-D array
    of times, giving (len(t), n) from one decomposition of M.
    """
    times = np.asarray(t, dtype=float)
    if not np.all((times >= 0) & (times < np.inf)):
        raise ValueError(f"t must be finite and >= 0, got t={t}")
    m = np.asarray(m, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if np.any(times != 0.0):
        try:
            w, v = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed: {exc}") from exc
        shifted, weights = w - w[-1], v.T @ x0
    out = np.empty((times.size, *x0.shape))
    for i, s in enumerate(times.reshape(-1)):
        if s == 0.0:
            out[i] = x0
            continue
        y = v @ (np.exp(shifted * s) * weights)
        nrm = float(np.linalg.norm(y))
        if not np.isfinite(nrm) or nrm == 0.0:
            raise NumericalError("exp(tM) x0 vanished; x0 has no component on the surviving eigenspace")
        out[i] = y / nrm
    return out.reshape(*times.shape, *x0.shape)


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
