"""Dense complex matrix kernels for small channel counts (K <= ~8).

:func:`masked_solve_unit`, :func:`inverse` and :func:`hermitian_part`
accept a single ``(K, K)`` matrix or a stack ``(..., K, K)`` whose leading
axes are a batch (the engine batches over frequency bins).  The solve and
the inverse move a stack to a **bins-last** ``(K, K, B)`` array once on
entry, at no copy for a view of bins-last memory such as the engine's
state, and move the result back once on exit.  In between, the
partial-pivot LU kernels :func:`lu_factor` and :func:`lu_solve` take and
return bins-last stacks only: every step is elementwise numpy over
length-B vectors, with loops and reductions over K only.  The pivot row is
found by a chain of strict ``>`` over the candidates, not an ``argmax``
across rows, and a row carries its pivot threshold and index through the
swaps; a step masks its pivot only where some bin fails it.  The solve takes
every unit vector at once: :func:`masked_solve_unit` is the masked inverse.
``inverse(M, row=r)`` solves for row r of the inverse alone, the one row
that back-projection reads.  The LU exposes the pivot magnitudes needed for
the near-singularity check; numpy's black-box solvers do not.
:func:`hermitian_part` is the one symmetrisation behind every covariance
the package builds, streaming and batch.

``op_counter`` tallies the matrices factorised for solves and those inverted
since the last reset; the streaming ISS update path must leave it untouched."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, check_bins, check_number

#: A pivot smaller than this fraction of its row's magnitude flags the
#: matrix as numerically singular.
SINGULAR_PIVOT_RTOL = 1e-13


@dataclass
class OpCounter:
    """Running tally of matrix solves and inversions (hot-path audit)."""

    solves: int = 0
    inversions: int = 0

    def reset(self) -> None:
        self.solves = self.inversions = 0


op_counter = OpCounter()


def _as_matrix_batch(m, name: str = "matrix") -> tuple[np.ndarray, tuple[int, ...]]:
    """Coerce to a complex bins-last (K, K, B) stack; returns (stack,
    original batch shape)."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ContractViolationError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ContractViolationError(f"{name} has non-finite entries")
    k = m.shape[-1]
    stack = m.transpose(-2, -1, *range(m.ndim - 2)).reshape(k, k, -1)
    return stack.astype(np.complex128, copy=False), m.shape[:-2]


def lu_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial-pivot LU of a bins-last (K, K, B) stack, vectorised over B;
    ``m`` is left unchanged.  Returns ``(lu, perm, ok)``: ``lu`` (K, K, B)
    packs L (unit diagonal, implicit) and U, ``perm`` (K, B) is the row
    permutation, and ``ok`` (B,) flags members whose every pivot cleared
    the relative threshold.  Two trailing work columns carry each row's
    pivot threshold (``SINGULAR_PIVOT_RTOL`` times its original largest
    ``|entry|``) and index, so one ``np.where`` pair swaps all three, and
    only for a candidate row some bin pivots on.  A chain of strict ``>``
    over the candidates' magnitudes gives ``|pivot|`` for the singularity
    check and the pivot row: the last candidate to beat every row before it
    wins, so a tie goes to the first."""
    k, nb = m.shape[0], m.shape[-1]
    work = np.empty((k, k + 2, nb), dtype=np.complex128)
    lu = work[:, :k]
    lu[...] = m
    mags = np.abs(lu)
    work[:, k] = SINGULAR_PIVOT_RTOL * np.maximum(np.maximum.reduce(mags, axis=1), np.finfo(float).tiny)
    work[:, k + 1] = np.arange(k)[:, None]
    mags = mags[:, 0]
    ok = np.ones(nb, dtype=bool)
    for j in range(k):
        piv_mag, takes = mags[0], []
        for i in range(1, k - j):  # takes[i-1]: candidate i beats every candidate before it
            takes.append(mags[i] > piv_mag)
            piv_mag = np.maximum(piv_mag, mags[i])
        later = None  # the bins that a candidate after the one at hand has taken
        for i in range(k - j - 1, 0, -1):
            take = takes[i - 1]
            if take.any():
                sel = take if later is None else take > later
                work[j], work[j + i] = np.where(sel, work[j + i], work[j]), np.where(sel, work[j], work[j + i])
                later = take if later is None else later | take
        bad = piv_mag < work[j, k].real
        piv = lu[j, j]
        if bad.any():
            ok &= ~bad
            piv = np.where(bad, 1.0, piv)
        if j + 1 < k:
            mult = lu[j + 1 :, j] / piv
            lu[j + 1 :, j] = mult
            lu[j + 1 :, j + 1 :] -= mult[:, None] * lu[j, j + 1 :]
            mags = np.abs(lu[j + 1 :, j + 1])
    return lu, work[:, k + 1].real.astype(np.intp), ok


def _substitute(lu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Forward and back substitution against a bins-last packed LU, in place
    on the permuted right-hand sides ``x`` (K, n, B); returns ``x``."""
    k = lu.shape[0]
    for j in range(1, k):
        x[j] -= (lu[j, :j, None] * x[:j]).sum(axis=0)
    for j in range(k - 1, -1, -1):
        if j + 1 < k:
            x[j] -= (lu[j, j + 1 :, None] * x[j + 1 :]).sum(axis=0)
        x[j] /= lu[j, j]
    return x


def lu_solve(lu: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Solve against the bins-last ``(lu, perm)`` of :func:`lu_factor` for
    every unit vector at once; returns (K, K, B) whose column c solves for
    ``e_c``.  The permuted right-hand side is the one-hot ``perm == c``."""
    k = lu.shape[0]
    return _substitute(lu, (perm[:, None, :] == np.arange(k)[:, None]).astype(np.complex128))


def masked_solve_unit(M) -> tuple[np.ndarray, np.ndarray]:
    """Masked inverse of a (stack of) square matrices, factorised once: returns
    ``(z, ok)``, ``z`` of shape ``(..., K, K)`` (a single matrix too) whose
    column c solves ``M z = e_c``, ``e_c`` the c-th canonical basis vector.

    ``ok`` is False where the matrix is numerically singular, and entries
    of ``z`` there are unspecified.  Used by the streaming engine, whose
    per-bin error policy is freeze-and-log; :func:`inverse` is the raising twin.
    """
    stack, batch_shape = _as_matrix_batch(M, "M")
    dim, nb = stack.shape[0], stack.shape[-1]
    op_counter.solves += nb
    lu, perm, ok = lu_factor(stack)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = lu_solve(lu, perm)
    return z.transpose(2, 0, 1).reshape(*batch_shape, dim, dim), ok.reshape(batch_shape)


def inverse(M, row: int | None = None) -> np.ndarray:
    """Matrix inverse of a (stack of) square matrices via the LU kernel, or
    with ``row=r`` row r alone, shape ``(..., K)``: one solve ``M^T a = e_r``
    against the LU of the transposed view.  Its pivot test runs on ``M^T``,
    singular exactly when ``M`` is, with thresholds from ``M``'s column
    maxima.  Either form counts one inversion per matrix and no solve, and
    raises :class:`DegenerateUpdateError` naming the singular ones."""
    stack, batch_shape = _as_matrix_batch(M, "M")
    dim, nb = stack.shape[0], stack.shape[-1]
    if row is not None:
        check_number("row", row, 0, dim)
    op_counter.inversions += nb
    lu, perm, ok = lu_factor(stack if row is None else stack.swapaxes(0, 1))
    check_bins(ok, "singular matrix in inverse")
    if row is None:
        return lu_solve(lu, perm).transpose(2, 0, 1).reshape(*batch_shape, dim, dim)
    return _substitute(lu, (perm == row)[:, None].astype(np.complex128))[:, 0].T.reshape(*batch_shape, dim)


def hermitian_part(m: np.ndarray, axes: tuple[int, int] = (-2, -1)) -> np.ndarray:
    """``(m + m^H) / 2`` over the matrix ``axes`` (the last two by default):
    exactly Hermitian, and equal to ``m`` bit for bit when ``m`` already is.
    The result is a new C-contiguous array."""
    h = np.conjugate(m.swapaxes(*axes), order="C")
    h += m
    h *= 0.5
    return h
