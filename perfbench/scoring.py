"""SI-SDR improvement scoring for any K.

``metrics.resolve_permutation`` brute-forces K! assignments and refuses
K > 6, so the benchmark aligns outputs with a linear sum assignment on the
same ``metrics.si_sdr`` score matrix, then scores each aligned source with
``metrics.seg_sdr``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from ivastream import metrics


def align(references: np.ndarray, estimates: np.ndarray) -> tuple[int, ...]:
    """``perm`` maximising total SI-SDR; ``estimates[perm[k]]`` scores
    reference ``k`` (the convention of ``metrics.resolve_permutation``)."""
    k = references.shape[0]
    scores = np.array(
        [[metrics.si_sdr(references[i], estimates[j]) for j in range(k)] for i in range(k)]
    )
    _, cols = linear_sum_assignment(scores, maximize=True)
    return tuple(int(c) for c in cols)


def score(images_mic1: np.ndarray, mixture_mic1: np.ndarray, estimates: np.ndarray,
          segment_len: int = metrics.DEFAULT_SEGMENT_LEN) -> dict:
    """Mean overall SI-SDR improvement and mean segmental improvement over
    the second half of the segments, at microphone 1."""
    perm = align(images_mic1, estimates)
    overall, segments = [], []
    for i, ref in enumerate(images_mic1):
        est = metrics.seg_sdr(ref, estimates[perm[i]], segment_len)
        mix = metrics.seg_sdr(ref, mixture_mic1, segment_len)
        overall.append(est.overall - mix.overall)
        segments.append(est.values - mix.values)
    segments = np.array(segments)
    return {
        "permutation": perm,
        "sdr_imp_db": float(np.mean(overall)),
        "sdr_imp_late_db": float(np.mean(segments[:, segments.shape[1] // 2 :])),
    }
