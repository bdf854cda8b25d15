"""The two failure types (bad input, an unusable per-bin matrix) and the one settings rule."""

from __future__ import annotations

from numbers import Integral, Real

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


def check_number(name: str, value, low, high=np.inf, integer: bool = True) -> None:
    """Raise :class:`ContractViolationError`, naming the setting, its range and
    the value, unless ``value`` is a Python or numpy integer (any real number
    if not ``integer``), never a bool, and ``low <= value < high``, a
    comparison that also rejects NaN and +-inf."""
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real) or not low <= value < high:
        kind = "an integer" if integer else "a real number"
        raise ContractViolationError(f"{name} must be {kind} in [{low}, {high}), got {value!r}")


def check_bins(ok, what: str) -> None:
    """Raise :class:`DegenerateUpdateError` naming the first 16 bins where ``ok`` is False."""
    if not ok.all():
        bad = tuple(int(b) for b in np.flatnonzero(~np.atleast_1d(ok))[:16])
        raise DegenerateUpdateError(f"{what} at bins {bad}", bad)
