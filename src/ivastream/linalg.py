"""Dense complex matrix kernels for small channel counts (K <= ~8).

Every operation accepts either a single ``(K, K)`` matrix or a stack of
shape ``(..., K, K)``, with the leading axes treated as a batch (the
separation engine batches over frequency bins).  Internally the kernels
keep the **batch axis last**: a stack is moved to a C-contiguous
``(K, K, B)`` array, so every step is elementwise numpy over contiguous
length-B vectors, with loops and reductions over K only.  Moving the axes
costs no copy when the caller's stack is itself a view of bins-last
memory, as the engine's state is; results are handed back as views with
the caller's axis order.

Solves and inversions go through a partial-pivot LU factorisation
vectorised over the batch axis, which exposes the pivot magnitudes needed
for the near-singularity check; numpy's black-box solvers do not.
:func:`hermitian_part` is the one symmetrisation behind every covariance
the package builds, streaming and batch.

``op_counter`` tallies how many matrices were solved/inverted since the
last reset.  The streaming ISS update path must leave it untouched; tests
assert this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, SingularMatrixError

#: A pivot smaller than this fraction of its row's magnitude flags the
#: matrix as numerically singular.
SINGULAR_PIVOT_RTOL = 1e-13


@dataclass
class OpCounter:
    """Running tally of matrix solves and inversions (hot-path audit)."""

    solves: int = 0
    inversions: int = 0

    def reset(self) -> None:
        self.solves = 0
        self.inversions = 0


op_counter = OpCounter()


def _as_matrix_batch(m, name: str = "matrix") -> tuple[np.ndarray, tuple[int, ...]]:
    """Coerce to a complex bins-last (K, K, B) stack; returns (stack,
    original batch shape)."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ContractViolationError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractViolationError(f"{name} has non-finite entries")
    batch_shape = m.shape[:-2]
    k = m.shape[-1]
    stack = np.moveaxis(m, (-2, -1), (0, 1)).reshape(k, k, -1)
    return stack.astype(np.complex128, copy=False), batch_shape


def lu_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial-pivot LU of a (B, K, K) stack, vectorised over the batch.

    Returns ``(lu, perm, ok)`` where ``lu`` (B, K, K) packs L (unit
    diagonal, implicit) and U, ``perm`` (B, K) holds the row permutation,
    and ``ok`` flags batch members whose every pivot cleared the relative
    threshold.  Pivot ties go to the first candidate row.
    """
    lu = np.array(np.moveaxis(np.asarray(m), 0, -1), dtype=np.complex128, order="C")
    k, nb = lu.shape[0], lu.shape[-1]
    perm = np.repeat(np.arange(k)[:, None], nb, axis=1)
    # per-row magnitude of the *original* rows, permuted alongside
    scale = np.maximum(np.max(np.abs(lu), axis=1), np.finfo(float).tiny)
    ok = np.ones(nb, dtype=bool)
    for j in range(k):
        p = np.argmax(np.abs(lu[j:, j]), axis=0) + j
        for i in range(j + 1, k):
            take = p == i
            if np.any(take):
                for a in (lu, perm, scale):
                    a[j], a[i] = np.where(take, a[i], a[j]), np.where(take, a[j], a[i])
        piv = lu[j, j]
        bad = np.abs(piv) < SINGULAR_PIVOT_RTOL * scale[j]
        ok &= ~bad
        safe = np.where(bad, 1.0, piv)
        if j + 1 < k:
            mult = lu[j + 1 :, j] / safe
            lu[j + 1 :, j] = mult
            lu[j + 1 :, j + 1 :] -= mult[:, None] * lu[j, j + 1 :]
    return np.moveaxis(lu, -1, 0), perm.T, ok


def lu_solve(lu: np.ndarray, perm: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve against an LU stack from :func:`lu_factor`; ``rhs`` is (B, K, R)."""
    lu = np.ascontiguousarray(np.moveaxis(lu, 0, -1))
    k = lu.shape[0]
    rhs = np.moveaxis(np.asarray(rhs, dtype=np.complex128), 0, -1)
    x = np.take_along_axis(rhs, perm.T[:, None, :], axis=0)
    for j in range(1, k):
        x[j] -= np.sum(lu[j, :j, None] * x[:j], axis=0)
    for j in range(k - 1, -1, -1):
        if j + 1 < k:
            x[j] -= np.sum(lu[j, j + 1 :, None] * x[j + 1 :], axis=0)
        x[j] /= lu[j, j]
    return np.moveaxis(x, -1, 0)


def masked_solve_unit(M, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`solve_unit` but returns ``(z, ok)`` instead of raising.

    Entries of ``z`` where ``ok`` is False are unspecified.  Used by the
    streaming engine, whose per-bin error policy is freeze-and-log.
    """
    stack, batch_shape = _as_matrix_batch(M, "M")
    dim, nb = stack.shape[0], stack.shape[-1]
    if not 0 <= k < dim:
        raise ContractViolationError(f"source index {k} out of range for K={dim}")
    op_counter.solves += nb
    lu, perm, ok = lu_factor(np.moveaxis(stack, -1, 0))
    rhs = np.zeros((nb, dim, 1), dtype=np.complex128)
    rhs[:, k, 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = lu_solve(lu, perm, rhs)[:, :, 0]
    return z.reshape(*batch_shape, dim), ok.reshape(batch_shape)


def solve_unit(M, k: int) -> np.ndarray:
    """Solve ``M z = e_k`` (``e_k`` the k-th canonical basis vector, 0-based).

    Raises :class:`SingularMatrixError` naming the offending batch indices
    when any matrix in the stack is numerically singular.
    """
    z, ok = masked_solve_unit(M, k)
    if not np.all(ok):
        where = tuple(int(i) for i in np.flatnonzero(~np.atleast_1d(ok))[:16])
        raise SingularMatrixError(
            f"singular matrix in solve_unit at batch indices {where}", indices=where
        )
    return z


def inverse(M) -> np.ndarray:
    """Matrix inverse of a (stack of) square matrices via the LU kernel."""
    stack, batch_shape = _as_matrix_batch(M, "M")
    dim, nb = stack.shape[0], stack.shape[-1]
    op_counter.inversions += nb
    lu, perm, ok = lu_factor(np.moveaxis(stack, -1, 0))
    if not np.all(ok):
        where = tuple(int(i) for i in np.flatnonzero(~ok)[:16])
        raise SingularMatrixError(
            f"singular matrix in inverse at batch indices {where}", indices=where
        )
    rhs = np.broadcast_to(np.eye(dim, dtype=np.complex128), (nb, dim, dim))
    inv = lu_solve(lu, perm, rhs)
    return inv.reshape(*batch_shape, dim, dim)


def hermitian_part(m: np.ndarray, axes: tuple[int, int] = (-2, -1)) -> np.ndarray:
    """``(m + m^H) / 2`` over the matrix ``axes`` (the last two by default):
    exactly Hermitian, and equal to ``m`` bit for bit when ``m`` already is."""
    return 0.5 * (m + np.conj(np.swapaxes(m, *axes)))
