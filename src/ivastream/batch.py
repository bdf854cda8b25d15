"""Batch auxiliary-function IVA, used as a convergence oracle.

Three demixing update strategies are offered:

* ``ip``  -- iterative projection; per sweep the weighted covariances are
  built once at the current demixing point, then every row is replaced by
  the normalised solve of ``(W U_k) w = e_k``.
* ``iss`` -- iterative source steering via explicit covariance matrices;
  the activities (hence covariances) are rebuilt before every index
  update, which preserves the surrogate-descent guarantee per index.
* ``iss_inplace`` -- the same updates expressed directly on the separated
  spectrogram (``y <- y - v y_k``) with the steering coefficients computed
  from weighted signal statistics; algebraically identical to ``iss`` for
  the Laplace model, where the 1/(2r) weighting cancels in the coefficient
  ratios and survives only in the diagonal normalisation term.

Both ISS variants update the demixing matrices alongside so every method
reports (demixing matrices, cost trace, separated spectrogram).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractViolationError
from .separator import ContrastModel, ip_update_row, iss_apply, iss_vector
from .stft import Spectrogram


@dataclass(frozen=True)
class BatchProblem:
    """A spectrogram to separate, its source model and the sweep budget."""

    spectrogram: Spectrogram
    model: ContrastModel
    n_iter: int = 10

    def __post_init__(self):
        if self.spectrogram.n_frames < self.spectrogram.n_channels:
            raise ContractViolationError(
                "need at least as many frames as channels to estimate covariances"
            )
        if self.n_iter < 1:
            raise ContractViolationError("n_iter must be >= 1")


@dataclass
class BatchResult:
    demix: np.ndarray            # (F, K, K)
    cost_trace: np.ndarray       # (n_iter + 1,), initial cost first
    separated: Spectrogram


def _to_ftk(spec: Spectrogram) -> np.ndarray:
    # (channels, frames, bins) -> (bins, frames, channels)
    return np.ascontiguousarray(spec.data.transpose(2, 1, 0))


def _demix(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.einsum("fkj,ftj->ftk", W, X)


def _activities(Y: np.ndarray, r_floor: float) -> np.ndarray:
    # (F, T, K) -> (T, K)
    return np.maximum(np.sqrt(np.sum(np.abs(Y) ** 2, axis=0)), r_floor)


def cost(W: np.ndarray, spec: Spectrogram, model: ContrastModel) -> float:
    """Negative log-likelihood ``sum_k mean_t G(r_kt) - 2 sum_f log|det W_f|``.

    For the gauss model the value is reported up to an additive constant.
    """
    X = _to_ftk(spec)
    Y = _demix(W, X)
    r = _activities(Y, model.r_floor)
    data_term = float(np.sum(np.mean(model.contrast(r), axis=0)))
    sign, logdet = np.linalg.slogdet(W)
    if np.any(sign == 0):
        bad = tuple(int(b) for b in np.flatnonzero(sign == 0)[:16])
        raise linalg.SingularMatrixError(
            f"singular demixing matrix at bins {bad}", indices=bad
        )
    return data_term - 2.0 * float(np.sum(logdet))


def batch_weighted_covariance(
    spec: Spectrogram, W: np.ndarray, model: ContrastModel, k: int | None = None, f: int | None = None
) -> np.ndarray:
    """Weighted covariance ``U_kf = (1/T) sum_t phi(r_kt) x_ft x_ft^H``.

    Returns the (K, F, K, K) stack, or the single matrix for given (k, f).
    """
    U = _covariances_from(_to_ftk(spec), W, model)
    if k is not None and f is not None:
        return U[k, f]
    if k is not None:
        return U[k]
    return U


def _covariances_from(X: np.ndarray, W: np.ndarray, model: ContrastModel) -> np.ndarray:
    Y = _demix(W, X)
    r = _activities(Y, model.r_floor)
    phi = model.weight(r)  # (T, K)
    U = np.einsum("tk,fti,ftj->kfij", phi, X, np.conj(X)) / X.shape[1]
    return linalg.hermitian_part(U)


def _sweep_ip(X: np.ndarray, W: np.ndarray, model: ContrastModel) -> np.ndarray:
    U = _covariances_from(X, W, model)
    for k in range(W.shape[-1]):
        W[:, k, :] = np.conj(ip_update_row(W, U[k], k))
    return W


def _sweep_iss(X: np.ndarray, W: np.ndarray, model: ContrastModel) -> np.ndarray:
    for k in range(W.shape[-1]):
        U = _covariances_from(X, W, model)
        W = iss_apply(W, iss_vector(W, U, k), k)
    return W


def _sweep_iss_inplace(Y: np.ndarray, W: np.ndarray, model: ContrastModel) -> tuple[np.ndarray, np.ndarray]:
    n_frames = Y.shape[1]
    for k in range(W.shape[-1]):
        r = _activities(Y, model.r_floor)          # (T, K)
        inv_r = 1.0 / r
        yk = Y[:, :, k]
        num = np.einsum("ftm,ft,tm->fm", Y, np.conj(yk), inv_r)
        den = np.einsum("ft,tm->fm", np.abs(yk) ** 2, inv_r).real
        v = num / np.maximum(den, np.finfo(float).tiny)
        # diagonal entry keeps the 1/(2r) weighting and the 1/T average
        v[:, k] = 1.0 - 1.0 / np.sqrt(np.maximum(den[:, k] / (2.0 * n_frames), np.finfo(float).tiny))
        Y = Y - v[:, None, :] * yk[:, :, None]
        W = iss_apply(W, v, k)
    return Y, W


def batch_auxiva(problem: BatchProblem, method: str = "iss") -> BatchResult:
    """Run ``n_iter`` full sweeps of batch AuxIVA.

    ``method`` is one of ``"ip"``, ``"iss"``, ``"iss_inplace"``.  The cost
    trace holds the initial cost followed by the cost after each sweep.
    """
    if method not in ("ip", "iss", "iss_inplace"):
        raise ContractViolationError(f"unknown batch method {method!r}")
    if method == "iss_inplace" and problem.model.kind != "laplace":
        raise ContractViolationError(
            "the in-place ISS signal update is derived for the Laplace model only"
        )
    spec = problem.spectrogram
    X = _to_ftk(spec)
    n_bins, _, n_src = X.shape
    W = np.tile(np.eye(n_src, dtype=np.complex128), (n_bins, 1, 1))
    trace = [cost(W, spec, problem.model)]
    Y = X.copy() if method == "iss_inplace" else None
    for sweep in range(problem.n_iter):
        try:
            if method == "ip":
                W = _sweep_ip(X, W, problem.model)
            elif method == "iss":
                W = _sweep_iss(X, W, problem.model)
            else:
                Y, W = _sweep_iss_inplace(Y, W, problem.model)
        except RuntimeError as exc:
            # prefix the message in place: the error keeps its type and its
            # context/indices attributes
            exc.args = (f"sweep {sweep + 1}: {exc}",)
            raise
        trace.append(cost(W, spec, problem.model))
    separated = Y if method == "iss_inplace" else _demix(W, X)
    return BatchResult(
        demix=W,
        cost_trace=np.asarray(trace),
        separated=Spectrogram(separated.transpose(2, 1, 0)),
    )
