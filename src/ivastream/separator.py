"""Streaming auxiliary-function IVA with IP or ISS demixing updates.

The engine processes one STFT frame at a time:

```text
   carry W and U[prev frame] from the previous frame
   once per frame:
       X_f   <- (x_f x_f^H + (x_f x_f^H)^H) / 2           (exactly Hermitian)
       B_k,f <- alpha * U_k,f[prev frame]                  for every source
   for iter = 1..n_iter:                      (only 1 pass on skip frames)
       r_k   <- sqrt(sum_f |w_k^H x_f|^2)                 for every source
       U_k,f <- (1 - alpha) * phi(r_k) * X_f + B_k,f      for every source
       for k in the scheduled index set:
           ISS:  W_f <- W_f - v_k,f w_k,f^H   (rank-1, no solves)
           IP:   row k of W_f <- normalised solve of (W_f U_k,f) w = e_k
   persist the last pass's U; emit y_f = W_f x_f
```

Notes on conventions:

* Demixing matrices are stored with row ``k`` equal to ``w_k^H``, so the
  separated frame is simply ``W @ x``.
* Source and frequency indices are 0-based throughout the Python API.
* On a degenerate update (singular solve, nonpositive quadratic form,
  vanishing ``1 - v_k``) the affected bins keep their previous demixing
  rows and the event is recorded in :class:`DiagnosticsLog`; a streaming
  system must not halt on a transiently bad bin.
* The ISS path performs no linear solves or inversions; back-projection
  (the only inversion user) lives outside :meth:`OnlineAuxIva.process_frame`.
* Both terms of the covariance refresh are exactly Hermitian, so every
  persisted covariance is too, bit for bit.  ``x x^H`` alone is not (the
  diagonal picks up an imaginary residue under fused multiply-add), hence
  its explicit symmetrisation by ``linalg.hermitian_part``.
* The engine and the public kernels share one implementation each: the
  ISS and IP steps run the masked kernels behind :func:`iss_vector` and
  :func:`ip_update_row`, which raise where the engine freezes and logs.
* The source prior is named once per stream, by ``OnlineConfig.contrast``;
  the engine builds its :class:`ContrastModel` with its own bin count F.
* :meth:`OnlineAuxIva.separate` is the package's one frame loop.

Storage layout: the engine keeps its state **bins-last**, W as a
C-contiguous (K, K, F) array and U as (K, K, K, F), so every per-bin
kernel is elementwise numpy over contiguous length-F vectors, with loops
and reductions over K only.  :attr:`OnlineAuxIva.demix` (F, K, K) and
:attr:`OnlineAuxIva.covariance` (K, F, K, K) are writable views of that
state.  The public functions keep the (F, ...) shapes and move axes on
entry, which costs no copy for the engine's own views.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import ContractViolationError, DegenerateUpdateError
from .stft import Spectrogram

#: Denominator floor for the ISS coefficient ratios.
DENOMINATOR_FLOOR = 1e-32

#: Minimum |1 - v_k| below which the rank-1 update would make W singular.
ISS_DIAGONAL_FLOOR = 1e-12

#: Diagonal loading of the initial covariances (identity times this).
INIT_COVARIANCE_SCALE = 1e-3

#: :class:`DiagnosticsLog` keeps this many events, then only counts.
MAX_EVENTS = 10000

#: Activity floor: both contrast weights diverge at r = 0.
R_FLOOR = 1e-8

#: The source priors :class:`ContrastModel` accepts.
CONTRASTS = ("laplace", "gauss")


@dataclass(frozen=True)
class ContrastModel:
    """Source-prior selector supplying the covariance weighting phi(r).

    ``laplace`` uses ``phi(r) = 1/(2r)``; ``gauss`` (time-varying Gaussian)
    uses ``phi(r) = F/r**2`` with ``F = n_bins``, the bin count of the data
    it weights.  Activities are floored at :data:`R_FLOOR` before weighting.
    """

    kind: str
    n_bins: int

    def __post_init__(self):
        if self.kind not in CONTRASTS:
            raise ContractViolationError(f"unknown contrast model {self.kind!r}")
        if self.n_bins < 1:
            raise ContractViolationError("n_bins must be >= 1")

    def weight(self, r):
        """phi(r), vectorised; input is floored at :data:`R_FLOOR`."""
        r = np.maximum(np.asarray(r, dtype=np.float64), R_FLOOR)
        if self.kind == "laplace":
            return 0.5 / r
        return self.n_bins / (r * r)

    def contrast(self, r):
        """G(r) for cost reporting (up to an additive constant for gauss)."""
        r = np.maximum(np.asarray(r, dtype=np.float64), R_FLOOR)
        if self.kind == "laplace":
            return r
        return 2.0 * self.n_bins * np.log(r)


@dataclass(frozen=True)
class UpdateSchedule:
    """Step schedule mapping a frame index t (1-based) to updated sources.

    ``before`` is used while ``t < switch_frame`` (or always when no switch
    is configured); ``after`` applies from ``switch_frame`` on.
    """

    before: tuple[int, ...]
    after: tuple[int, ...] = ()
    switch_frame: int | None = None

    @classmethod
    def all_sources(cls, n_src: int) -> "UpdateSchedule":
        return cls(before=tuple(range(n_src)))

    @classmethod
    def switch_to(cls, n_src: int, moving: int | Sequence[int], switch_frame: int) -> "UpdateSchedule":
        """All sources up to ``switch_frame``, then only the moving one(s)."""
        if switch_frame < 1:
            raise ContractViolationError(f"switch_frame is 1-based, got {switch_frame}")
        after = (moving,) if isinstance(moving, int) else tuple(moving)
        if not after:
            raise ContractViolationError("the post-switch update set must be nonempty")
        if any(not 0 <= k < n_src for k in after):
            raise ContractViolationError(f"moving source indices {after} out of range")
        return cls(before=tuple(range(n_src)), after=after, switch_frame=int(switch_frame))

    def indices(self, t: int) -> tuple[int, ...]:
        if self.switch_frame is not None and t >= self.switch_frame:
            return self.after
        return self.before


@dataclass(frozen=True)
class OnlineConfig:
    """Streaming engine parameters (defaults follow the reference setup).

    ``contrast`` is the source prior, ``"laplace"`` or ``"gauss"``.
    """

    alpha: float = 0.99
    n_iter: int = 2
    method: str = "iss"
    update_period: int = 1
    selector: UpdateSchedule | Callable[[int], Sequence[int]] | None = None
    contrast: str = "laplace"

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ContractViolationError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.n_iter < 1:
            raise ContractViolationError("n_iter must be >= 1")
        if self.method not in ("ip", "iss"):
            raise ContractViolationError(f"method must be 'ip' or 'iss', got {self.method!r}")
        if self.update_period < 1:
            raise ContractViolationError("update_period must be >= 1")
        if self.contrast not in CONTRASTS:
            raise ContractViolationError(f"unknown contrast model {self.contrast!r}")


@dataclass
class FlopCounter:
    """Analytic complex multiply-add counts, attributed per phase.

    ``ip_update`` covers the full IP row update (matrix product, LU solve,
    normalisation), ``iss_apply`` the rank-1 demixing update, and
    ``iss_coefficients`` the quadratic forms feeding it.  The demixing
    update proper therefore costs Theta(K^3 F) per source for IP and
    Theta(K^2 F) for ISS; the ISS coefficient statistics are Theta(K^3 F)
    and are tallied separately.
    """

    activity: int = 0
    covariance: int = 0
    iss_coefficients: int = 0
    iss_apply: int = 0
    ip_update: int = 0

    @staticmethod
    def activity_flops(k: int, f: int) -> int:
        return f * k * k + f * k

    @staticmethod
    def covariance_flops(k: int, f: int) -> int:
        # rank-1 outer product + scaled blend, per source, all bins
        return 3 * k * k * f

    @staticmethod
    def iss_coefficient_flops(k: int, f: int) -> int:
        # K matrix-vector products plus 2K dot products per bin
        return f * (k**3 + 2 * k * k)

    @staticmethod
    def iss_apply_flops(k: int, f: int) -> int:
        # rank-1 outer product and subtraction over the K x K matrix
        return 2 * k * k * f

    @staticmethod
    def ip_update_flops(k: int, f: int) -> int:
        product = k**3
        factor = sum((k - 1 - j) + (k - 1 - j) ** 2 for j in range(k))
        substitution = k * (k - 1) + k
        normalize = k * k + 2 * k
        return f * (product + factor + substitution + normalize)


@dataclass
class DiagnosticsLog:
    """Freeze-and-log record of degenerate per-bin updates."""

    events: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def record(self, kind: str, t: int, k: int, bins: np.ndarray) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + int(bins.size)
        room = MAX_EVENTS - len(self.events)
        for f in bins[:room]:
            self.events.append({"kind": kind, "t": int(t), "f": int(f), "k": int(k)})

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _matrices_last(m, batch: tuple | None = None) -> np.ndarray:
    # (..., K, K) -> contiguous complex (K, K, ...), broadcast to ``batch``
    # if given; no copy for a view of bins-last memory
    m = np.asarray(m, dtype=np.complex128)
    if batch is not None:
        m = np.broadcast_to(m, batch + m.shape[-2:])
    return np.ascontiguousarray(np.moveaxis(m, (-2, -1), (0, 1)))


def _vectors_last(v, batch: tuple | None = None) -> np.ndarray:
    # (..., K) -> contiguous complex (K, ...), broadcast to ``batch`` if given
    v = np.asarray(v, dtype=np.complex128)
    if batch is not None:
        v = np.broadcast_to(v, batch + v.shape[-1:])
    return np.ascontiguousarray(np.moveaxis(v, -1, 0))


def _demix(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    # bins-last y = W x: (K, K, ...) against (K, ...)
    return np.sum(W * x[None], axis=1)


def _outer(x: np.ndarray) -> np.ndarray:
    # bins-last herm(x x^H): (K, ...) -> (K, K, ...)
    return linalg.hermitian_part(x[:, None] * np.conj(x[None]), axes=(0, 1))


def _activity(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    # bins-last r_k = sqrt(sum_f |w_k,f^H x_f|^2); ContrastModel.weight floors it
    y = _demix(W, x)
    return np.sqrt(np.sum(y.real**2 + y.imag**2, axis=-1))


def ip_update_row(W: np.ndarray, U_k: np.ndarray, k: int) -> np.ndarray:
    """Iterative-projection row update: solve ``(W U_k) w = e_k``, normalise.

    Returns the demixing *vector* w (its conjugate is stored as row k).
    Batched over leading axes.  Raises :class:`DegenerateUpdateError`
    naming the bins where the solve is singular or the quadratic form
    ``w^H U_k w`` is nonpositive.
    """
    batch = np.broadcast_shapes(np.shape(W)[:-2], np.shape(U_k)[:-2])
    z, ok = _masked_ip_vector(_matrices_last(W, batch), _matrices_last(U_k, batch), k)
    _raise_on_bad_bins(ok, k, "singular solve or nonpositive quadratic form in IP update")
    return np.moveaxis(z, 0, -1)


def _masked_ip_vector(W: np.ndarray, U_k: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # bins-last: W, U_k (K, K, ...) -> z (K, ...), ok (...)
    WU = np.sum(W[:, :, None] * U_k[None], axis=1)
    z, ok = linalg.masked_solve_unit(np.moveaxis(WU, (0, 1), (-2, -1)), k)
    z = np.moveaxis(z, -1, 0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        quad = np.sum(np.conj(z) * _demix(U_k, z), axis=0).real
        z = z / np.sqrt(np.maximum(quad, np.finfo(float).tiny))
    ok &= quad > 0
    return z, ok


def iss_vector(W: np.ndarray, U_all: np.ndarray, k: int) -> np.ndarray:
    """Source-steering coefficients for index ``k`` (one per source m).

    ``W`` is (F, K, K) with rows ``w_m^H``; ``U_all`` is (K, F, K, K) with
    the per-source weighted covariances.  ``v_m = (w_m^H U_m w_k)/(w_k^H
    U_m w_k)`` for m != k and ``v_k = 1 - (w_k^H U_k w_k)^{-1/2}``.
    """
    U_all = np.moveaxis(np.asarray(U_all, dtype=np.complex128), (-2, -1), (1, 2))
    v, ok = _masked_iss_vector(_matrices_last(W), np.ascontiguousarray(U_all), k)
    _raise_on_bad_bins(ok, k, "nonpositive denominator in ISS coefficients")
    return np.moveaxis(v, 0, -1)


def _raise_on_bad_bins(ok: np.ndarray, k: int, what: str) -> None:
    if not np.all(ok):
        bad = tuple(int(b) for b in np.flatnonzero(~np.atleast_1d(ok))[:16])
        raise DegenerateUpdateError(f"{what} for source {k} at bins {bad}", context=(k, bad))


def _masked_iss_vector(W: np.ndarray, U_all: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # bins-last: W (K, K, ...), U_all (K, K, K, ...) -> v (K, ...), ok (...)
    # p[m] = U_m w_k  (in row storage: U_m @ conj(row k))
    p = np.sum(U_all * np.conj(W[k]), axis=2)
    num = np.sum(W * p, axis=1)
    den = np.sum(W[k] * p, axis=1).real
    ok = np.all(den > 0, axis=0)
    den = np.maximum(den, DENOMINATOR_FLOOR)
    v = num / den
    diag = 1.0 / np.sqrt(den[k])
    v[k] = 1.0 - diag
    ok &= diag >= ISS_DIAGONAL_FLOOR
    return v, ok


def _iss_apply(W: np.ndarray, v: np.ndarray, k: int, ok=True) -> None:
    # bins-last and in place: W <- W - v w_k^H, with a zero step where not ok
    if not np.all(ok):
        v = np.where(ok, v, 0.0)
    W -= v[:, None] * W[k]


def iss_apply(W: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    """Rank-1 demixing update ``W <- W - v w_k^H`` (pre-update row k).

    Raises when ``|1 - v_k|`` vanishes, which would make W singular.
    """
    W = np.asarray(W, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if not np.all(np.isfinite(v)):
        raise ContractViolationError("steering coefficients must be finite")
    if np.any(np.abs(1.0 - v[..., k]) < ISS_DIAGONAL_FLOOR):
        raise DegenerateUpdateError(
            f"ISS update for source {k} would annihilate its own row", context=(k,)
        )
    batch = np.broadcast_shapes(W.shape[:-2], v.shape[:-1])
    out = _matrices_last(W, batch).copy()  # a new array, never the caller's
    _iss_apply(out, _vectors_last(v, batch), k)
    return np.moveaxis(out, (0, 1), (-2, -1))


def project_back(W: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Back-project separated bins onto microphone 1.

    Per bin, ``A = W^{-1}`` and output ``k`` is scaled by ``A[0, k]`` (the
    image of source k at the first microphone), so the outputs sum back to
    the first mixture channel.  ``W`` is (F, K, K) and ``y`` is (F, K).
    """
    if np.shape(y) != np.shape(W)[:-1]:
        raise ContractViolationError(f"y must have shape {np.shape(W)[:-1]}, got {np.shape(y)}")
    return linalg.inverse(W)[..., 0, :] * y


class OnlineAuxIva:
    """Frame-streaming auxiliary-function IVA engine.

    Parameters
    ----------
    n_bins:
        Number of retained STFT bins F.
    n_src:
        Number of sources = microphones K (determined case).
    config:
        :class:`OnlineConfig`; ``selector=None`` updates every source.

    The engine weights its covariances by ``ContrastModel(config.contrast,
    n_bins)``, kept as :attr:`model`.

    State is owned by one stream; run independent streams on independent
    instances.
    """

    def __init__(self, n_bins: int, n_src: int, config: OnlineConfig = OnlineConfig()) -> None:
        if n_bins < 1 or n_src < 1:
            raise ContractViolationError("n_bins and n_src must be >= 1")
        self.n_bins = int(n_bins)
        self.n_src = int(n_src)
        self.config = config
        self.model = ContrastModel(config.contrast, self.n_bins)
        sel = config.selector
        if sel is None:
            sel = UpdateSchedule.all_sources(self.n_src)
        self._indices_at = sel.indices if isinstance(sel, UpdateSchedule) else sel
        self._step = self._iss_step if config.method == "iss" else self._ip_step
        self.flops = FlopCounter()
        eye = np.eye(self.n_src, dtype=np.complex128)[:, :, None]
        self._W = np.repeat(eye, self.n_bins, axis=2)
        self._U = np.repeat(INIT_COVARIANCE_SCALE * self._W[None], self.n_src, axis=0)
        # the frame's U, committed only on completion: a frame that raises leaves _U intact
        self._U_next = np.empty_like(self._U)
        self.diagnostics = DiagnosticsLog()
        self._t = 0

    @property
    def demix(self) -> np.ndarray:
        """The (F, K, K) demixing matrices, a writable view of the state."""
        return np.moveaxis(self._W, -1, 0)

    @property
    def covariance(self) -> np.ndarray:
        """The (K, F, K, K) weighted covariances, a writable view of the state."""
        return np.moveaxis(self._U, -1, 1)

    # -- demixing updates, whole-array over bins ---------------------------

    def _iss_step(self, k: int, t: int) -> None:
        v, ok = _masked_iss_vector(self._W, self._U_next, k)
        if not np.all(ok):  # degenerate bins keep their rows
            self.diagnostics.record("iss_degenerate", t, k, np.flatnonzero(~ok))
        _iss_apply(self._W, v, k, ok)
        self.flops.iss_coefficients += FlopCounter.iss_coefficient_flops(self.n_src, self.n_bins)
        self.flops.iss_apply += FlopCounter.iss_apply_flops(self.n_src, self.n_bins)

    def _ip_step(self, k: int, t: int) -> None:
        z, ok = _masked_ip_vector(self._W, self._U_next[k], k)
        self._W[k] = np.where(ok, np.conj(z), self._W[k])
        if not np.all(ok):  # degenerate bins keep their rows
            self.diagnostics.record("ip_degenerate", t, k, np.flatnonzero(~ok))
        self.flops.ip_update += FlopCounter.ip_update_flops(self.n_src, self.n_bins)

    # -- public streaming API ----------------------------------------------

    def process_frame(self, frame: np.ndarray) -> np.ndarray:
        """Consume one (F, K) spectral frame, return the separated frame.

        Runs the configured number of inner iterations (demixing updates
        happen only on frames where ``(t - 1) % update_period == 0``; other
        frames still refresh the covariances once) and persists the final
        covariance as this frame's state.  The selector is consulted once
        per update frame.
        """
        x = np.asarray(frame, dtype=np.complex128)
        if x.shape != (self.n_bins, self.n_src):
            raise ContractViolationError(
                f"frame must have shape ({self.n_bins}, {self.n_src}), got {x.shape}"
            )
        x = np.ascontiguousarray(x.T)
        self._t += 1
        t = self._t
        k, f = self.n_src, self.n_bins
        alpha = self.config.alpha
        if (t - 1) % self.config.update_period == 0:
            passes, indices = self.config.n_iter, tuple(self._indices_at(t))
            for idx in indices:
                if not 0 <= idx < k:
                    raise ContractViolationError(f"selector produced index {idx}")
        else:
            passes, indices = 1, ()
        outer = _outer(x)
        decayed = alpha * self._U
        for _ in range(passes):
            phi = self.model.weight(_activity(self._W, x))
            self.flops.activity += FlopCounter.activity_flops(k, f)
            np.multiply(((1.0 - alpha) * phi)[:, None, None, None], outer, out=self._U_next)
            self._U_next += decayed
            self.flops.covariance += k * FlopCounter.covariance_flops(k, f)
            for idx in indices:
                self._step(idx, t)
        self._U, self._U_next = self._U_next, self._U
        return _demix(self._W, x).T

    def separate(self, spectrogram):
        """Stream a (K, T, F) spectrogram through the engine, frame by frame.

        The engine keeps its state, so calling ``separate`` again on the
        next frames continues the stream, bit for bit.

        Returns ``(separated Spectrogram, timing dict)``.  Timing separates
        the update loop (everything inside :meth:`process_frame`) from
        back-projection, which is the only step that inverts matrices.
        """
        data = spectrogram.data if isinstance(spectrogram, Spectrogram) else np.asarray(spectrogram)
        if data.ndim != 3 or data.shape[0] != self.n_src or data.shape[2] != self.n_bins:
            raise ContractViolationError(
                f"expected (K={self.n_src}, T, F={self.n_bins}) spectrogram, got {data.shape}"
            )
        out = np.empty_like(data)
        update_s = 0.0
        project_s = 0.0
        for t in range(data.shape[1]):
            x = data[:, t, :].T
            tic = time.perf_counter()
            y = self.process_frame(x)
            update_s += time.perf_counter() - tic
            tic = time.perf_counter()
            y = project_back(self.demix, y)
            project_s += time.perf_counter() - tic
            out[:, t, :] = y.T
        return Spectrogram(out), {"update_loop_s": update_s, "projection_s": project_s}
