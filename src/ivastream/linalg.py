"""Dense complex matrix kernels for small channel counts (K <= ~8).

:func:`masked_solve_unit`, :func:`inverse` and :func:`hermitian_part`
accept a single ``(K, K)`` matrix or a stack ``(..., K, K)`` whose leading
axes are a batch (the engine batches over frequency bins).  The solve and
the inverse move a stack to a **bins-last** ``(K, K, B)`` array once on
entry, at no copy for a view of bins-last memory such as the engine's
state, and move the result back once on exit.  In between, the
kernels take and return bins-last stacks only: every step is elementwise
numpy over length-B vectors, with loops and reductions over K only.  One
partial-pivot elimination, with one pivot rule, serves both the LU
(:func:`lu_factor`, solved by :func:`lu_solve` for every unit vector at
once: :func:`masked_solve_unit` is the masked inverse) and
``inverse(M, row=r)``, which eliminates ``[M^T | e_r]`` for row r of the
inverse alone, the one row that back-projection reads.  The elimination
exposes the pivot magnitudes needed for the near-singularity check; numpy's
black-box solvers do not.
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
_TINY = np.finfo(float).tiny


@dataclass
class OpCounter:
    """Running tally of matrix solves and inversions (hot-path audit)."""

    solves: int = 0
    inversions: int = 0

    def reset(self) -> None:
        self.solves = self.inversions = 0


op_counter = OpCounter()


def _as_matrix_batch(m) -> tuple[np.ndarray, tuple[int, ...]]:
    """Coerce to a complex bins-last (K, K, B) stack; returns (stack,
    original batch shape).  :func:`_eliminate` checks finiteness."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ContractViolationError(f"M must be square, got shape {m.shape}")
    k = m.shape[-1]
    stack = m.transpose(-2, -1, *range(m.ndim - 2)).reshape(k, k, -1)
    return stack.astype(np.complex128, copy=False), m.shape[:-2]


def _eliminate(m: np.ndarray, row: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Partial-pivot elimination of the bins-last (K, K, B) stack ``m`` (left
    unchanged) in a (K, K + 2, B) work stack; returns ``(work, ok)``, ``ok``
    (B,) flagging members whose every pivot cleared its threshold.  Column K
    rides along through the swaps: the row index, with the multipliers kept
    as L, or with ``row=r`` the unit vector ``e_r``, eliminated with the rows,
    so no L is kept and a swap skips the columns before the step.  Column
    K + 1 carries each row's pivot threshold, ``SINGULAR_PIVOT_RTOL`` times
    its largest ``|entry|``, non-finite exactly when the row is.  A chain of
    strict ``>`` over the candidates' magnitudes gives ``|pivot|`` and the
    pivot row (a tie goes to the first); a row some bin pivots on swaps by one
    ``np.where`` pair."""
    k, nb = m.shape[0], m.shape[-1]
    work = np.empty((k, k + 2, nb), dtype=np.complex128)
    work[:, :k] = m
    work[:, k] = np.arange(k)[:, None] if row is None else np.arange(k)[:, None] == row
    mags = np.abs(work[:, :k])
    scale = np.maximum.reduce(mags, axis=1)
    if not np.isfinite(scale).all():
        raise ContractViolationError("M has non-finite entries")
    work[:, k + 1] = SINGULAR_PIVOT_RTOL * np.maximum(scale, _TINY)
    mags, rhs = mags[:, 0], row is not None
    ok = np.ones(nb, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing bin only spoils itself
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
                    a, b = work[j, j * rhs :], work[j + i, j * rhs :]
                    work[j, j * rhs :], work[j + i, j * rhs :] = np.where(sel, b, a), np.where(sel, a, b)
                    later = take if later is None else later | take
            bad = piv_mag < work[j, k + 1].real
            piv = work[j, j]
            if bad.any():
                ok &= ~bad
                piv = np.where(bad, 1.0, piv)
            if j + 1 < k:
                mult = work[j + 1 :, j] / piv
                if not rhs:
                    work[j + 1 :, j] = mult
                work[j + 1 :, j + 1 : k + rhs] -= mult[:, None] * work[j, j + 1 : k + rhs]
                mags = np.abs(work[j + 1 :, j + 1])
    return work, ok


def lu_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial-pivot LU of a finite bins-last (K, K, B) stack, left unchanged,
    by :func:`_eliminate`.  Returns ``(lu, perm, ok)``: ``lu`` (K, K, B) packs
    L (unit diagonal, implicit) and U, ``perm`` (K, B) is the row permutation,
    and ``ok`` (B,) flags members whose every pivot cleared its threshold."""
    work, ok = _eliminate(m)
    return work[:, : m.shape[0]], work[:, m.shape[0]].real.astype(np.intp), ok


def _back_substitute(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Back substitution against the upper triangle of ``u``'s first K columns,
    in place on the bins-last right-hand sides ``x`` (K, n, B); returns ``x``."""
    k = x.shape[0]
    for j in range(k - 1, -1, -1):
        if j + 1 < k:
            x[j] -= (u[j, j + 1 : k, None] * x[j + 1 :]).sum(axis=0)
        x[j] /= u[j, j]
    return x


def lu_solve(lu: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Solve against the bins-last ``(lu, perm)`` of :func:`lu_factor` for
    every unit vector at once; returns (K, K, B) whose column c solves for
    ``e_c``.  The permuted right-hand side is the one-hot ``perm == c``."""
    k = lu.shape[0]
    x = (perm[:, None, :] == np.arange(k)[:, None]).astype(np.complex128)
    for j in range(1, k):
        x[j] -= (lu[j, :j, None] * x[:j]).sum(axis=0)
    return _back_substitute(lu, x)


def masked_solve_unit(M) -> tuple[np.ndarray, np.ndarray]:
    """Masked inverse of a (stack of) square matrices, factorised once: returns
    ``(z, ok)``, ``z`` of shape ``(..., K, K)`` (a single matrix too) whose
    column c solves ``M z = e_c``, ``e_c`` the c-th canonical basis vector.

    ``ok`` is False where the matrix is numerically singular, and entries
    of ``z`` there are unspecified.  Used by the streaming engine, whose
    per-bin error policy is freeze-and-log; :func:`inverse` is the raising twin.
    """
    stack, batch_shape = _as_matrix_batch(M)
    dim, nb = stack.shape[0], stack.shape[-1]
    lu, perm, ok = lu_factor(stack)
    op_counter.solves += nb
    with np.errstate(divide="ignore", invalid="ignore"):
        z = lu_solve(lu, perm)
    return z.transpose(2, 0, 1).reshape(*batch_shape, dim, dim), ok.reshape(batch_shape)


def inverse(M, row: int | None = None) -> np.ndarray:
    """Matrix inverse of a (stack of) square matrices via the LU kernel, or
    with ``row=r`` row r alone, shape ``(..., K)``: ``[M^T | e_r]`` eliminated
    as the LU pivots ``M^T`` (singular exactly when ``M`` is, with thresholds
    from ``M``'s column maxima), then one back substitution.  Either form
    counts one inversion per matrix and no solve, and raises
    :class:`DegenerateUpdateError` naming the singular ones."""
    stack, batch_shape = _as_matrix_batch(M)
    dim, nb = stack.shape[0], stack.shape[-1]
    if row is None:
        lu, perm, ok = lu_factor(stack)
    else:
        check_number("row", row, 0, dim)
        work, ok = _eliminate(stack.swapaxes(0, 1), row)
    op_counter.inversions += nb
    check_bins(ok, "singular matrix in inverse")
    if row is None:
        return lu_solve(lu, perm).transpose(2, 0, 1).reshape(*batch_shape, dim, dim)
    return _back_substitute(work, work[:, dim : dim + 1])[:, 0].T.reshape(*batch_shape, dim)


def hermitian_part(m: np.ndarray, axes: tuple[int, int] = (-2, -1)) -> np.ndarray:
    """``(m + m^H) / 2`` over the matrix ``axes`` (the last two by default):
    exactly Hermitian, and equal to ``m`` bit for bit when ``m`` already is.
    The result is a new C-contiguous array."""
    h = np.conjugate(m.swapaxes(*axes), order="C")
    h += m
    h *= 0.5
    return h
