"""Streaming auxiliary-function IVA with IP or ISS demixing updates.

The engine processes one STFT frame at a time:

```text
   carry W and U[prev frame] from the previous frame
   once per frame:
       X_f   <- (x_f x_f^H + (x_f x_f^H)^H) / 2           (exactly Hermitian)
       B_k,f <- alpha * U_k,f[prev frame]                  for every source
   for iter = 1..n_iter:        (1 pass if the schedule names no index, or after frame WARMUP_FRAMES)
       r_k   <- sqrt(sum_f |w_k^H x_f|^2)                 for every source
       U_k,f <- (1 - alpha) * phi(r_k) * X_f + B_k,f      for every source, in place
       for k in the scheduled index set:
           ISS:  W_f <- W_f - v_k,f w_k,f^H   (rank-1, no solves)
           IP:   A_f <- W_f^{-1} if none is held (first step, first after set_state(demix=...));
                 row k of W_f <- w^H, w = U_k,f^{-1} a_k,f normalised; A_f rank-1
   emit y_f = W_f x_f
```

Notes on conventions:

* Demixing matrices are stored with row ``k`` equal to ``w_k^H``, so the
  separated frame is simply ``W @ x``.
* Source and frequency indices are 0-based throughout the Python API.
* On a degenerate update (singular solve, nonpositive quadratic form,
  vanishing ``1 - v_k``) the affected bins keep their previous demixing
  rows and :class:`DiagnosticsLog` counts them by kind; a streaming
  system must not halt on a transiently bad bin.
* The ISS path performs no linear solves or inversions.  The IP path keeps
  A = W^{-1} current through its row updates, from frame to frame, and
  factorises W only on its first update frame and the first one after each
  ``set_state(demix=...)``.  Back-projection (the only inversion user) lives
  outside :meth:`OnlineAuxIva.process_frame`, in :meth:`OnlineAuxIva.project`.
* Both terms of the covariance refresh are exactly Hermitian, so every
  persisted covariance is too, bit for bit.  ``x x^H`` alone is not (the
  diagonal picks up an imaginary residue under fused multiply-add), hence
  its explicit symmetrisation by ``linalg.hermitian_part``.
* The engine and the public kernels share one implementation each: the
  ISS and IP steps run the masked kernels behind :func:`iss_vector` and
  :func:`ip_update_row`, which raise :class:`DegenerateUpdateError` where
  the engine freezes and logs.
* The source prior is the spherical Laplace one: every source's covariance
  is weighted by :func:`weight`, ``phi(r) = 1/(2r)``, which the batch
  solver shares.
* The engine takes one (F, K) spectral frame at a time and does not
  depend on the STFT front end; the package's one frame loop, behind
  ``cli.run_separation``, feeds it and back-projects each output frame.

Storage layout: the engine keeps its state **bins-last**, W as a
C-contiguous (K, K, F) array and U as (K, K, K, F), so every per-bin
kernel is elementwise numpy over contiguous length-F vectors, with loops
and reductions over K only.  :attr:`OnlineAuxIva.demix` (F, K, K) and
:attr:`OnlineAuxIva.covariance` (K, F, K, K) are read-only views of that
state, and :meth:`OnlineAuxIva.set_state` is the one way to write it from
outside.  The public functions keep the (F, ...) shapes and move axes on
entry, which costs no copy for the engine's own views.  W and U_k (or v)
share their leading axes; a mismatch is a :class:`ContractViolationError`.
The frame's kernels call ndarray methods and ufuncs (``x.sum(axis=...)``,
``ok.all()``, ``.transpose``), not the ``numpy`` wrappers: at K=3 a frame is
bound by per-call cost, and each wrapper adds microseconds of Python dispatch.
A complex array divided by a real per-bin array takes numpy's mixed-type loop,
about twice a multiply, so the IP step and the ISS coefficients multiply by
real reciprocals instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import ContractViolationError, check_bins, check_number

#: Denominator floor for the ISS coefficient ratios.
DENOMINATOR_FLOOR = 1e-32

#: Minimum |1 - v_k| below which the rank-1 update would make W singular.
ISS_DIAGONAL_FLOOR = 1e-12

#: Diagonal loading of the initial covariances (identity times this).
INIT_COVARIANCE_SCALE = 1e-3

#: Activity floor: the weight 1/(2r) diverges at r = 0.
R_FLOOR = 1e-8

#: Largest accepted frame energy sum |x|^2, so no product of two entries of x x^H overflows.
ENERGY_CEILING = float(np.sqrt(np.finfo(np.float64).max))

#: Update frames up to this frame (3 s at the default 512-sample hop) run ``n_iter`` passes, later ones one.
WARMUP_FRAMES = 94


def weight(r):
    """The Laplace prior's covariance weight ``phi(r) = 1/(2r)``, vectorised.

    Activities are floored at :data:`R_FLOOR` first.
    """
    return 0.5 / np.maximum(np.asarray(r, dtype=np.float64), R_FLOOR)


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
        check_number("switch_frame (1-based)", switch_frame, 1)
        after = tuple(moving) if np.iterable(moving) else (moving,)
        if not after:
            raise ContractViolationError("moving must name at least one source")
        for k in after:
            check_number("moving", k, 0, n_src)
        return cls(before=tuple(range(n_src)), after=after, switch_frame=int(switch_frame))

    def indices(self, t: int) -> tuple[int, ...]:
        if self.switch_frame is not None and t >= self.switch_frame:
            return self.after
        return self.before

    __call__ = indices


@dataclass(frozen=True)
class OnlineConfig:
    """Streaming engine parameters (defaults follow the reference setup).

    ``selector`` is a callable ``t -> indices``, such as an
    :class:`UpdateSchedule`, and ``None`` updates every source.  ``n_iter`` is
    the pass count of update frames up to :data:`WARMUP_FRAMES`; later ones run one.
    """

    alpha: float = 0.99
    n_iter: int = 2
    method: str = "iss"
    selector: Callable[[int], Sequence[int]] | None = None

    def __post_init__(self):
        check_number("alpha", self.alpha, 0, 1, integer=False)
        check_number("n_iter", self.n_iter, 1)
        if self.method not in ("ip", "iss"):
            raise ContractViolationError(f"method must be 'ip' or 'iss', got {self.method!r}")
        if self.selector is not None and not callable(self.selector):
            raise ContractViolationError(f"selector must be None or callable, got {self.selector!r}")


@dataclass
class FlopCounter:
    """Analytic complex multiply-add counts, attributed per phase.

    ``ip_update`` covers the IP path, tallied per IP step (the steering matrix on
    each anchor, the first step and the first after each ``set_state(demix=...)``;
    per index the solve of ``U_k z = a_k``, normalisation and update of A),
    ``iss_apply`` the rank-1 demixing update, and ``iss_coefficients`` the
    quadratic forms feeding it.  The demixing update proper therefore costs
    Theta(K^3 F) per source for IP and Theta(K^2 F) for ISS; the ISS
    coefficient statistics are Theta(K^3 F) and are tallied separately.
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
    def ip_update_flops(k: int, f: int, n_updates: int, n_anchors: int = 1) -> int:
        # per anchor (the first IP step, and the first after each
        # set_state(demix=...)), one factorisation of W: pivoted LU and K unit-vector
        # solves (k^2 each); per index update: elimination on [U_k | a_k],
        # back-substitution, z^H A (holding the quadratic form), w = z s^-1,
        # the row c, and A -= a_k c; closed forms of the sums over pivots j < k of
        # (k-1-j) + (k-1-j)^2 (factor) and (k-1-j)(k+1-j) (eliminate)
        factor = (k - 1) * k * (k + 1) // 3
        eliminate = (k - 1) * k * (2 * k + 5) // 6
        update = eliminate + k * (k + 1) // 2 + 2 * k * k + 2 * k
        return f * (n_anchors * (factor + k**3) + n_updates * update)


@dataclass
class DiagnosticsLog:
    """Freeze-and-log record: degenerate per-bin updates, counted by kind."""

    counts: dict = field(default_factory=dict)

    def record(self, kind: str, n_bins: int) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + int(n_bins)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _matrices_last(m) -> np.ndarray:
    # (..., K, K) -> contiguous complex (K, K, ...); no copy for a bins-last view
    return np.ascontiguousarray(np.moveaxis(np.asarray(m, dtype=np.complex128), (-2, -1), (0, 1)))


def _check_shape(name: str, a, expected: tuple) -> None:
    # the public kernels take matching shapes; they do not broadcast
    if np.shape(a) != expected:
        raise ContractViolationError(f"{name} must have shape {expected}, got {np.shape(a)}")


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def _demix(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    # bins-last y = W x: (K, K, ...) against (K, ...)
    return (W * x[None]).sum(axis=1)


def _outer(x: np.ndarray) -> np.ndarray:
    # bins-last herm(x x^H): (K, ...) -> (K, K, ...)
    return linalg.hermitian_part(x[:, None] * np.conj(x[None]), axes=(0, 1))


def _activity(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    # bins-last r_k = sqrt(sum_f |w_k,f^H x_f|^2); weight() floors it
    y = _demix(W, x)
    y = y.view(np.float64)  # real and imaginary parts interleaved along the bins
    return np.sqrt((y * y).sum(axis=-1))


def ip_update_row(W: np.ndarray, U_k: np.ndarray, k: int) -> np.ndarray:
    """Iterative-projection row update: solve ``(W U_k) w = e_k``, normalise.

    Returns the demixing *vector* w (its conjugate is stored as row k),
    ``U_k^{-1} a_k`` normalised, ``a_k`` being column k of the masked inverse
    ``W^{-1}``: one engine IP step from a fresh anchor.  W and U_k share their
    leading axes.  Raises :class:`DegenerateUpdateError` naming the bins where W
    is singular, U_k fails a pivot or ``w^H U_k w`` is not positive.
    """
    _check_shape("U_k", U_k, np.shape(W))
    check_number("k", k, 0, np.shape(W)[-1])
    A, ok = linalg.masked_solve_unit(W)
    w, ok = _masked_ip_update(_matrices_last(U_k), _matrices_last(A), k, ok)
    check_bins(ok, f"singular solve or nonpositive quadratic form in IP update for source {k}")
    return np.moveaxis(w, 0, -1)


def _masked_ip_update(U_k: np.ndarray, A: np.ndarray, k: int, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # bins-last: U_k (K, K, ...), steering matrix A = W^-1 (K, K, ...) with a_k in column k
    # -> w (K, ...), ok (...); A takes the row update in place on the ok bins.  U_k is
    # Hermitian positive definite: no pivoting, and pivot D_j needs Re D_j > rtol |U_k,jj|
    n = U_k.shape[0]
    m = np.concatenate((U_k, A[:, k, None]), axis=1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # a failed bin only spoils itself
        for j in range(n - 1):
            m[j + 1 :, j + 1 :] -= (m[j + 1 :, j] / m[j, j])[:, None] * m[j, j + 1 :]
        floors = linalg.SINGULAR_PIVOT_RTOL * np.abs(U_k.diagonal(0, 0, 1))
        pivots_ok = (m.diagonal(0, 0, 1).real > floors).all(axis=-1)
        z = m[:, n]
        z[n - 1] /= m[n - 1, n - 1]
        for j in range(n - 2, -1, -1):
            z[j] = (z[j] - (m[j, j + 1 : n] * z[j + 1 :]).sum(axis=0)) / m[j, j]
        r = (np.conj(z)[:, None] * A).sum(axis=0)  # r_k = z^H U_k z, the quadratic form
        quad = r[k].real
        ok = ok & pivots_ok & (quad > 0)
        inv_s = 1.0 / np.sqrt(quad)
        c = r * (inv_s * inv_s)  # Sherman-Morrison for row k <- w^H: A_j -= a_k (w^H A_j - delta_jk) / s
        c[k] -= inv_s
        A -= A[:, k, None] * (c if ok.all() else np.where(ok, c, 0.0))[None]
        return z * inv_s, ok


def iss_vector(W: np.ndarray, U_all: np.ndarray, k: int) -> np.ndarray:
    """Source-steering coefficients for index ``k`` (one per source m).

    ``W`` is (F, K, K) with rows ``w_m^H``; ``U_all`` is (K, F, K, K) with
    the per-source weighted covariances.  ``v_m = (w_m^H U_m w_k)/(w_k^H
    U_m w_k)`` for m != k and ``v_k = 1 - (w_k^H U_k w_k)^{-1/2}``.  W and
    each U_m share their leading axes.  Raises :class:`DegenerateUpdateError`
    naming the bins with a nonpositive denominator or vanishing ``1 - v_k``.
    """
    _check_shape("U_all", U_all, np.shape(W)[-1:] + np.shape(W))
    check_number("k", k, 0, np.shape(W)[-1])
    U_all = np.moveaxis(np.asarray(U_all, dtype=np.complex128), (-2, -1), (1, 2))
    v, ok = _masked_iss_vector(_matrices_last(W), np.ascontiguousarray(U_all), k)
    check_bins(ok, f"nonpositive denominator in ISS coefficients for source {k}")
    return np.moveaxis(v, 0, -1)


def _masked_iss_vector(W: np.ndarray, U_all: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # bins-last: W (K, K, ...), U_all (K, K, K, ...) -> v (K, ...), ok (...)
    # p[m] = U_m w_k  (in row storage: U_m @ conj(row k))
    p = (U_all * np.conj(W[k])).sum(axis=2)
    num = (W * p).sum(axis=1)
    den = (W[k] * p).sum(axis=1).real
    ok = den.min(axis=0) > 0
    den = np.maximum(den, DENOMINATOR_FLOOR)
    v = num * (1.0 / den)
    diag = 1.0 / np.sqrt(den[k])
    v[k] = 1.0 - diag
    ok &= diag >= ISS_DIAGONAL_FLOOR
    return v, ok


def _iss_apply(W: np.ndarray, v: np.ndarray, k: int, ok: np.ndarray | None = None) -> None:
    # bins-last and in place: W <- W - v w_k^H, with a zero step where not ok (None: every bin ok)
    if ok is not None and not ok.all():
        v = np.where(ok, v, 0.0)
    W -= v[:, None] * W[k]


def iss_apply(W: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    """Rank-1 demixing update ``W <- W - v w_k^H`` (pre-update row k).

    W and v share their leading axes.  Raises :class:`DegenerateUpdateError`
    naming the bins where ``|1 - v_k|`` vanishes, which would make W singular.
    """
    _check_shape("v", v, np.shape(W)[:-1])
    check_number("k", k, 0, np.shape(W)[-1])
    v = np.asarray(v, dtype=np.complex128)
    if not np.all(np.isfinite(v)):
        raise ContractViolationError("steering coefficients must be finite")
    check_bins(np.abs(1.0 - v[..., k]) >= ISS_DIAGONAL_FLOOR,
               f"ISS update for source {k} would annihilate its own row")
    out = np.array(np.moveaxis(W, (-2, -1), (0, 1)), dtype=np.complex128, order="C")  # one copy, never the caller's
    _iss_apply(out, np.moveaxis(v, -1, 0), k)
    return np.moveaxis(out, (0, 1), (-2, -1))


def project_back(W: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Back-project separated bins onto microphone 1.

    Per bin, output ``k`` is scaled by ``A[0, k]``, ``A = W^{-1}`` (the image
    of source k at the first microphone), so the outputs sum back to the
    first mixture channel.  One solve per bin gives row 0 of A, not all of
    it.  ``W`` is (F, K, K) and ``y`` is (F, K).
    """
    _check_shape("y", y, np.shape(W)[:-1])
    return linalg.inverse(W, row=0) * y


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

    State is owned by one stream; run independent streams on independent
    instances.
    """

    def __init__(self, n_bins: int, n_src: int, config: OnlineConfig = OnlineConfig()) -> None:
        check_number("n_bins", n_bins, 1)
        check_number("n_src", n_src, 1)
        self.n_bins = int(n_bins)
        self.n_src = int(n_src)
        self.config = config
        sel = config.selector
        self._indices_at = UpdateSchedule.all_sources(self.n_src) if sel is None else sel
        self._step = self._iss_step if config.method == "iss" else self._ip_step
        self.flops = FlopCounter()
        eye = np.eye(self.n_src, dtype=np.complex128)[:, :, None]
        self._W = np.repeat(eye, self.n_bins, axis=2)
        self._U = np.repeat(INIT_COVARIANCE_SCALE * self._W[None], self.n_src, axis=0)
        # IP: the steering matrix A = W^{-1} and its per-bin ok mask; None until an IP step factorises W
        self._A = self._A_ok = None
        self.diagnostics = DiagnosticsLog()
        self._t = 0

    @property
    def demix(self) -> np.ndarray:
        """The (F, K, K) demixing matrices, a read-only view (see :meth:`set_state`)."""
        return _read_only(self._W.transpose(2, 0, 1))

    @property
    def covariance(self) -> np.ndarray:
        """The (K, F, K, K) weighted covariances, a read-only view (see :meth:`set_state`) that,
        like :attr:`demix`, follows the state across frames: U is refreshed in place."""
        return _read_only(self._U.transpose(0, 3, 1, 2))

    def set_state(self, demix=None, covariance=None) -> None:
        """Write the demixing matrices, the covariances or both, in the shapes of :attr:`demix`
        and :attr:`covariance`.  A wrong shape (even one that would broadcast) or a non-finite
        entry in either raises :class:`ContractViolationError` before anything is written.  The
        frame clock, diagnostics and flops are kept, so the warm-up is not re-armed; the next
        IP step factorises the new W."""
        new = {name: np.asarray(value, dtype=np.complex128)
               for name, value in (("demix", demix), ("covariance", covariance)) if value is not None}
        for name, value in new.items():
            _check_shape(name, value, getattr(self, name).shape)
            if not np.all(np.isfinite(value)):
                raise ContractViolationError(f"{name} has non-finite entries")
        if demix is not None:
            np.moveaxis(self._W, -1, 0)[...] = new["demix"]
            self._A = None  # A depends on W alone
        if covariance is not None:
            np.moveaxis(self._U, -1, 1)[...] = new["covariance"]

    # -- demixing updates, whole-array over bins ---------------------------

    def _iss_step(self, k: int) -> None:
        v, ok = _masked_iss_vector(self._W, self._U, k)
        healthy = ok.all()
        if not healthy:  # degenerate bins keep their rows
            self.diagnostics.record("iss_degenerate", np.count_nonzero(~ok))
        _iss_apply(self._W, v, k, None if healthy else ok)
        self.flops.iss_coefficients += FlopCounter.iss_coefficient_flops(self.n_src, self.n_bins)
        self.flops.iss_apply += FlopCounter.iss_apply_flops(self.n_src, self.n_bins)

    def _ip_step(self, k: int) -> None:
        anchor = self._A is None  # A, once factorised, is kept current by each step across frames
        if anchor:  # the first IP step, or the first after set_state(demix=...)
            A, self._A_ok = linalg.masked_solve_unit(self.demix)
            self._A = np.moveaxis(A, 0, -1)
        w, ok = _masked_ip_update(self._U[k], self._A, k, self._A_ok)
        if ok.all():
            np.conjugate(w, out=self._W[k])
        else:  # degenerate bins keep their rows
            self._W[k] = np.where(ok, np.conj(w), self._W[k])
            self.diagnostics.record("ip_degenerate", np.count_nonzero(~ok))
        self.flops.ip_update += FlopCounter.ip_update_flops(self.n_src, self.n_bins, 1, int(anchor))

    # -- public streaming API ----------------------------------------------

    def process_frame(self, frame: np.ndarray) -> np.ndarray:
        """Consume one (F, K) spectral frame, return the separated frame.

        Frame t (1-based) runs ``n_iter`` passes if the selector names an
        index at t and t <= :data:`WARMUP_FRAMES`, else one pass (a covariance
        refresh alone if it names none); each pass refreshes U in place.  Its
        shape, an energy sum |x|^2 of at most :data:`ENERGY_CEILING` and its
        indices are checked first: a frame they reject leaves the engine, clock
        included, as it was.  No reference to ``frame`` is kept, so a loop may
        write the output over it.
        """
        x = np.asarray(frame, dtype=np.complex128)
        k, f = self.n_src, self.n_bins
        if x.shape != (f, k):
            raise ContractViolationError(f"frame must have shape ({f}, {k}), got {x.shape}")
        if not np.vdot(x, x).real <= ENERGY_CEILING:  # also rejects NaN
            raise ContractViolationError(f"frame has non-finite entries or energy above {ENERGY_CEILING:.3g}")
        chosen = self._indices_at(self._t + 1)
        try:  # iter() alone is guarded: an error that a returned generator raises passes through
            it = iter(chosen)
        except TypeError:
            raise ContractViolationError(f"selector produced {chosen!r}, not integers in 0..{k - 1}") from None
        indices = tuple(it)
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < k
                   for i in indices):
            raise ContractViolationError(f"selector produced indices {indices}, not integers in 0..{k - 1}")
        self._t += 1
        passes = self.config.n_iter if indices and self._t <= WARMUP_FRAMES else 1
        alpha = self.config.alpha
        x = np.ascontiguousarray(x.T)
        outer = _outer(x)
        decayed = alpha * self._U
        for _ in range(passes):
            phi = weight(_activity(self._W, x))
            self.flops.activity += FlopCounter.activity_flops(k, f)
            coef = ((1.0 - alpha) * phi).astype(np.complex128)  # real-by-complex is numpy's slow path
            np.multiply(coef[:, None, None, None], outer, out=self._U)
            self._U += decayed
            self.flops.covariance += k * FlopCounter.covariance_flops(k, f)
            for idx in indices:
                self._step(idx)
        return _demix(self._W, x).T

    def project(self, y: np.ndarray) -> np.ndarray:
        """Back-project the frame just processed onto microphone 1:
        :func:`project_back` with the current demixing matrices, into a new
        array that holds no reference to ``y``."""
        return project_back(self.demix, y)
