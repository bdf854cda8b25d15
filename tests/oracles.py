"""Independent straight-line reference implementations used as oracles.

Deliberately written with plain per-bin loops and numpy's own solver so
they share no code path with the vectorised engine they check.
"""

import numpy as np


def weight_fn(kind: str, r: float, n_bins: int, r_floor: float) -> float:
    r = max(r, r_floor)
    if kind == "laplace":
        return 0.5 / r
    return n_bins / r**2


def online_frame_reference(
    W0,
    U_prev,
    x,
    alpha: float,
    n_iter: int,
    indices,
    method: str,
    kind: str = "laplace",
    r_floor: float = 1e-8,
):
    """One frame of the online update loop, transcribed literally.

    ``W0`` is (F, K, K) with rows w_k^H, ``U_prev`` is (K, F, K, K) from
    the previous frame, ``x`` is (F, K).  Returns (y, W, U) after the
    frame.
    """
    W = [np.array(W0[f]) for f in range(len(W0))]
    n_bins = len(W)
    n_src = W[0].shape[0]
    U_cur = np.empty_like(np.asarray(U_prev))
    for _ in range(n_iter):
        for k in range(n_src):
            acc = 0.0
            for f in range(n_bins):
                acc += abs(W[f][k] @ x[f]) ** 2
            phi = weight_fn(kind, float(np.sqrt(acc)), n_bins, r_floor)
            for f in range(n_bins):
                blended = alpha * U_prev[k][f] + (1.0 - alpha) * phi * np.outer(
                    x[f], np.conj(x[f])
                )
                U_cur[k][f] = 0.5 * (blended + np.conj(blended.T))
        for k in indices:
            for f in range(n_bins):
                if method == "iss":
                    v = np.zeros(n_src, dtype=complex)
                    for m in range(n_src):
                        u = U_cur[m][f]
                        den = (W[f][k] @ u @ np.conj(W[f][k])).real
                        if m == k:
                            v[m] = 1.0 - 1.0 / np.sqrt(den)
                        else:
                            v[m] = (W[f][m] @ u @ np.conj(W[f][k])) / den
                    W[f] = W[f] - np.outer(v, W[f][k])
                else:
                    e = np.zeros(n_src)
                    e[k] = 1.0
                    z = np.linalg.solve(W[f] @ U_cur[k][f], e)
                    z = z / np.sqrt((np.conj(z) @ U_cur[k][f] @ z).real)
                    W[f][k] = np.conj(z)
    y = np.stack([W[f] @ x[f] for f in range(n_bins)])
    return y, np.stack(W), U_cur


def batch_covariance_reference(data, W, kind: str, r_floor: float = 1e-8):
    """Literal loop transcription of the batch weighted covariance.

    ``data`` is a (K, T, F) spectrogram array; returns (K, F, K, K).
    """
    n_src, n_frames, n_bins = data.shape
    y = np.empty((n_src, n_frames, n_bins), dtype=complex)
    for f in range(n_bins):
        for t in range(n_frames):
            y[:, t, f] = W[f] @ data[:, t, f]
    U = np.zeros((n_src, n_bins, n_src, n_src), dtype=complex)
    for k in range(n_src):
        for t in range(n_frames):
            r = max(np.sqrt(np.sum(np.abs(y[k, t]) ** 2)), r_floor)
            phi = weight_fn(kind, float(r), n_bins, r_floor)
            for f in range(n_bins):
                U[k, f] += phi * np.outer(data[:, t, f], np.conj(data[:, t, f]))
    return U / n_frames


def cost_reference(data, W, kind: str, n_bins: int, r_floor: float = 1e-8):
    """Literal transcription of the separation cost."""
    n_src, n_frames, _ = data.shape
    total = 0.0
    for k in range(n_src):
        for t in range(n_frames):
            y = [W[f][k] @ data[:, t, f] for f in range(n_bins)]
            r = max(np.sqrt(sum(abs(v) ** 2 for v in y)), r_floor)
            total += (r if kind == "laplace" else 2 * n_bins * np.log(r)) / n_frames
    for f in range(n_bins):
        total -= 2.0 * np.log(abs(np.linalg.det(W[f])))
    return total


def lu_reference(m, rtol: float):
    """Partial-pivot LU of one matrix, one row operation at a time.

    Follows the package's pivot rule: the largest ``|entry|`` in the
    column wins and a tie goes to the first candidate row; a pivot below
    ``rtol`` times its original row's largest ``|entry|`` flags the matrix
    and is replaced by 1.  The arithmetic runs on length-1 numpy slices
    rather than numpy scalars, so that it rounds as numpy's array loops do.
    Returns ``(lu, perm, ok)``.
    """
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    perm = list(range(n))
    scale = [max(float(np.max(np.abs(row))), np.finfo(float).tiny) for row in a]
    ok = True
    for j in range(n):
        mags = np.abs(a[:, j])
        p = j
        for i in range(j + 1, n):
            if mags[i] > mags[p]:
                p = i
        a[[j, p]] = a[[p, j]]
        perm[j], perm[p] = perm[p], perm[j]
        scale[j], scale[p] = scale[p], scale[j]
        piv = a[j, j : j + 1]
        if np.abs(piv)[0] < rtol * scale[j]:
            ok = False
            piv = np.ones(1, dtype=complex)
        for i in range(j + 1, n):
            a[i, j : j + 1] = a[i, j : j + 1] / piv
            a[i, j + 1 :] -= a[i, j : j + 1] * a[j, j + 1 :]
    return a, perm, ok
