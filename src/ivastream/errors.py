"""The package's two exception types: bad input, or an unusable per-bin matrix."""

from __future__ import annotations

import numpy as np


class ContractViolationError(ValueError):
    """An argument violates a documented precondition (shape, range, finiteness)."""


class DegenerateUpdateError(RuntimeError):
    """A per-bin matrix cannot be used: a singular solve, inverse or
    determinant, a nonpositive quadratic form, or a rank-1 update that would
    make W singular.  ``indices`` holds the first 16 bad bins of the stack."""

    def __init__(self, message: str, indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.indices = tuple(indices)


def check_bins(ok, what: str) -> None:
    """Raise :class:`DegenerateUpdateError` naming the first 16 bins where ``ok`` is False."""
    if not np.all(ok):
        bad = tuple(int(b) for b in np.flatnonzero(~np.atleast_1d(ok))[:16])
        raise DegenerateUpdateError(f"{what} at bins {bad}", bad)
