"""Host-speed reference: a fixed numpy kernel timed next to the program.

The benchmark's host is a shared virtual machine whose speed drifts: the
same engine loop ran up to 1.6 times slower for minutes at a time, and set
medians of raw wall times moved by more than any useful bound.  The
reference kernel runs interleaved with the program under test, in the same
process and on the same core, so it sees the same host state.  Time metrics
are reported as the measured time scaled by ``NOMINAL_S`` over the
reference's time next to it: the time the program would take on a host
where one reference block takes ``NOMINAL_S``.

The kernel does the engine's kind of work at the stock scene's shapes
(complex ``einsum`` products over 513 bins with K=3, a few ``abs``/``sqrt``
and divisions), but never calls ``ivastream``, so a change to the package
cannot change the reference.  Its inputs come from a fixed seed.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal time of one ``block()``.  On the 2-vCPU Intel Xeon virtual
#: machine (numpy 2.4.6) the benchmark was written on, a block interleaved
#: with the stream took about 1.1 ms in the host's fast state and 2.0 ms in
#: its slow state.
NOMINAL_S = 1.5e-3

_N_BINS, _N_SRC = 513, 3
_rng = np.random.default_rng(20200504)
_U = np.tile(np.eye(_N_SRC, dtype=complex), (_N_SRC, _N_BINS, 1, 1)) + 0.1 * (
    _rng.standard_normal((_N_SRC, _N_BINS, _N_SRC, _N_SRC))
    + 1j * _rng.standard_normal((_N_SRC, _N_BINS, _N_SRC, _N_SRC))
)
_W = np.tile(np.eye(_N_SRC, dtype=complex), (_N_BINS, 1, 1)) + 0.05 * _rng.standard_normal(
    (_N_BINS, _N_SRC, _N_SRC)
)
_X = _rng.standard_normal((2, _N_BINS, _N_SRC)) + 1j * _rng.standard_normal((2, _N_BINS, _N_SRC))


def block() -> float:
    """Run one reference block; return its wall time in seconds."""
    tic = time.perf_counter()
    for x in _X:
        y = np.einsum("fkj,fj->fk", _W, x)
        r = np.sqrt(np.abs(y) ** 2 + 1e-8)
        for k in range(_N_SRC):
            p = np.einsum("mfij,fj->mfi", _U, _W[:, k, :].conj())
            num = np.einsum("fmi,mfi->fm", _W, p)
            den = np.einsum("fi,mfi->fm", _W[:, k, :], p).real
            num / np.maximum(den, 1e-6) / r[:, :1]
    return time.perf_counter() - tic


def median_s(count: int) -> float:
    """Median time of ``count`` blocks run back to back."""
    return float(np.median([block() for _ in range(count)]))
