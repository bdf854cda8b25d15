"""Dense complex matrix kernels for small channel counts (K <= ~8).

Every operation accepts either a single ``(K, K)`` matrix or a stack of
shape ``(..., K, K)``, with the leading axes treated as a batch (the
separation engine batches over frequency bins).  Solves and inversions go
through a partial-pivot LU factorisation vectorised over the batch axis,
which exposes the pivot magnitudes needed for the near-singularity check;
numpy's black-box solvers do not.  :func:`hermitian_part` is the one
symmetrisation behind every covariance the package builds, streaming and
batch.

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
    """Coerce to a complex (B, K, K) stack; returns (stack, original batch shape)."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ContractViolationError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractViolationError(f"{name} has non-finite entries")
    batch_shape = m.shape[:-2]
    k = m.shape[-1]
    return m.reshape(-1, k, k).astype(np.complex128, copy=False), batch_shape


def lu_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial-pivot LU of a (B, K, K) stack, vectorised over the batch.

    Returns ``(lu, perm, ok)`` where ``lu`` packs L (unit diagonal,
    implicit) and U, ``perm`` holds the row permutation, and ``ok`` flags
    batch members whose every pivot cleared the relative threshold.
    """
    lu = np.array(m, dtype=np.complex128)
    nb, k = lu.shape[0], lu.shape[-1]
    perm = np.tile(np.arange(k), (nb, 1))
    # per-row magnitude of the *original* rows, permuted alongside
    scale = np.maximum(np.max(np.abs(lu), axis=-1), np.finfo(float).tiny)
    ok = np.ones(nb, dtype=bool)
    rows = np.arange(nb)
    for j in range(k):
        p = np.argmax(np.abs(lu[:, j:, j]), axis=1) + j
        swap = p != j
        if np.any(swap):
            bi, pi = rows[swap], p[swap]
            lu[bi, j], lu[bi, pi] = lu[bi, pi], lu[bi, j]
            perm[bi, j], perm[bi, pi] = perm[bi, pi], perm[bi, j]
            scale[bi, j], scale[bi, pi] = scale[bi, pi], scale[bi, j]
        piv = lu[:, j, j]
        bad = np.abs(piv) < SINGULAR_PIVOT_RTOL * scale[:, j]
        ok &= ~bad
        safe = np.where(bad, 1.0, piv)
        if j + 1 < k:
            mult = lu[:, j + 1 :, j] / safe[:, None]
            lu[:, j + 1 :, j] = mult
            lu[:, j + 1 :, j + 1 :] -= mult[:, :, None] * lu[:, j : j + 1, j + 1 :]
    return lu, perm, ok


def lu_solve(lu: np.ndarray, perm: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve against an LU stack from :func:`lu_factor`; ``rhs`` is (B, K, R)."""
    k = lu.shape[-1]
    x = np.take_along_axis(np.asarray(rhs, dtype=np.complex128), perm[:, :, None], axis=1)
    for j in range(1, k):
        x[:, j] -= np.einsum("bi,bir->br", lu[:, j, :j], x[:, :j])
    for j in range(k - 1, -1, -1):
        if j + 1 < k:
            x[:, j] -= np.einsum("bi,bir->br", lu[:, j, j + 1 :], x[:, j + 1 :])
        x[:, j] /= lu[:, j, j][:, None]
    return x


def masked_solve_unit(M, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`solve_unit` but returns ``(z, ok)`` instead of raising.

    Entries of ``z`` where ``ok`` is False are unspecified.  Used by the
    streaming engine, whose per-bin error policy is freeze-and-log.
    """
    stack, batch_shape = _as_matrix_batch(M, "M")
    nb, dim = stack.shape[0], stack.shape[-1]
    if not 0 <= k < dim:
        raise ContractViolationError(f"source index {k} out of range for K={dim}")
    op_counter.solves += nb
    lu, perm, ok = lu_factor(stack)
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
    nb, dim = stack.shape[0], stack.shape[-1]
    op_counter.inversions += nb
    lu, perm, ok = lu_factor(stack)
    if not np.all(ok):
        where = tuple(int(i) for i in np.flatnonzero(~ok)[:16])
        raise SingularMatrixError(
            f"singular matrix in inverse at batch indices {where}", indices=where
        )
    rhs = np.tile(np.eye(dim, dtype=np.complex128), (nb, 1, 1))
    inv = lu_solve(lu, perm, rhs)
    return inv.reshape(*batch_shape, dim, dim)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^H) / 2`` over the last two axes: exactly Hermitian, and equal
    to ``m`` bit for bit when ``m`` already is."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
