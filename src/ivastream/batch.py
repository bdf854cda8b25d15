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
  from weighted signal statistics; algebraically identical to ``iss``,
  since the Laplace weight 1/(2r) cancels in the coefficient ratios and
  survives only in the diagonal normalisation term.

Both ISS variants update the demixing matrices alongside so every method
reports (demixing matrices, cost trace, separated spectrogram).  The source
prior is the engine's: covariances are weighted by :func:`separator.weight`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractViolationError, DegenerateUpdateError, check_bins, check_number
from .separator import R_FLOOR, ip_update_row, iss_apply, iss_vector, weight
from .stft import Spectrogram


@dataclass(frozen=True)
class BatchProblem:
    """A spectrogram to separate and the sweep budget."""

    spectrogram: Spectrogram
    n_iter: int = 10

    def __post_init__(self):
        if self.spectrogram.n_frames < self.spectrogram.n_channels:
            raise ContractViolationError(
                "need at least as many frames as channels to estimate covariances"
            )
        check_number("n_iter", self.n_iter, 1)


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


def _activities(Y: np.ndarray) -> np.ndarray:
    # (F, T, K) -> (T, K)
    return np.maximum(np.sqrt(np.sum(np.abs(Y) ** 2, axis=0)), R_FLOOR)


def cost(W: np.ndarray, spec: Spectrogram) -> float:
    """Negative log-likelihood ``sum_k mean_t r_kt - 2 sum_f log|det W_f|``
    under the Laplace prior, activities floored at :data:`R_FLOOR`.

    Raises :class:`DegenerateUpdateError` naming the bins where W is singular.
    """
    r = _activities(_demix(W, _to_ftk(spec)))
    data_term = float(np.sum(np.mean(r, axis=0)))
    sign, logdet = np.linalg.slogdet(W)
    check_bins(sign != 0, "singular demixing matrix")
    return data_term - 2.0 * float(np.sum(logdet))


def batch_weighted_covariance(spec: Spectrogram, W: np.ndarray) -> np.ndarray:
    """Weighted covariances ``U_kf = (1/T) sum_t phi(r_kt) x_ft x_ft^H``,
    as the (K, F, K, K) stack."""
    return _covariances_from(_to_ftk(spec), W)


def _covariances_from(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    phi = weight(_activities(_demix(W, X)))  # (T, K)
    U = np.einsum("tk,fti,ftj->kfij", phi, X, np.conj(X)) / X.shape[1]
    return linalg.hermitian_part(U)


def _sweep_ip(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    U = _covariances_from(X, W)
    for k in range(W.shape[-1]):
        W[:, k, :] = np.conj(ip_update_row(W, U[k], k))
    return W


def _sweep_iss(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    for k in range(W.shape[-1]):
        U = _covariances_from(X, W)
        W = iss_apply(W, iss_vector(W, U, k), k)
    return W


def _sweep_iss_inplace(Y: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_frames = Y.shape[1]
    for k in range(W.shape[-1]):
        r = _activities(Y)  # (T, K)
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
    trace holds the initial cost followed by the cost after each sweep.  A
    :class:`DegenerateUpdateError` keeps its ``indices``, and its message
    gains a ``sweep <n>: `` prefix.
    """
    if method not in ("ip", "iss", "iss_inplace"):
        raise ContractViolationError(f"unknown batch method {method!r}")
    spec = problem.spectrogram
    X = _to_ftk(spec)
    n_bins, _, n_src = X.shape
    W = np.tile(np.eye(n_src, dtype=np.complex128), (n_bins, 1, 1))
    trace = [cost(W, spec)]
    Y = X  # the in-place sweep rebinds Y and never writes into it
    for sweep in range(problem.n_iter):
        try:
            if method == "ip":
                W = _sweep_ip(X, W)
            elif method == "iss":
                W = _sweep_iss(X, W)
            else:
                Y, W = _sweep_iss_inplace(Y, W)
        except DegenerateUpdateError as exc:
            exc.args = (f"sweep {sweep + 1}: {exc}",)
            raise
        trace.append(cost(W, spec))
    separated = Y if method == "iss_inplace" else _demix(W, X)
    return BatchResult(
        demix=W,
        cost_trace=np.asarray(trace),
        separated=Spectrogram(separated.transpose(2, 1, 0)),
    )
