"""Scale-invariant SDR, segmental scoring and permutation alignment.

The SDR functional is scale-invariant SDR: with ``beta = <y, s>/||s||^2``,
``SDR = 10 log10(||beta s||^2 / ||y - beta s||^2)``.  Values are capped at
+100 dB (residual numerically zero) and floored at -100 dB (estimate
numerically zero).  References are per-source images at
the first microphone, matching the separator's back-projection convention.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, check_number
from .scenario import GroundTruth

CAP_DB = 100.0

#: Default segment length: 2 s at 16 kHz.
DEFAULT_SEGMENT_LEN = 32000


def si_sdr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Scale-invariant SDR in dB, capped to [-100, +100]."""
    s = np.asarray(reference, dtype=np.float64)
    y = np.asarray(estimate, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ContractViolationError(
            f"reference and estimate must be equal-length 1-D signals, got {s.shape} vs {y.shape}"
        )
    s_energy = float(np.dot(s, s))
    if s_energy <= 0:
        raise ContractViolationError("reference segment has zero energy")
    if float(np.dot(y, y)) == 0.0:
        return -CAP_DB
    beta = float(np.dot(y, s)) / s_energy
    target = beta * s
    target_energy = float(np.dot(target, target))
    residual = y - target
    residual_energy = float(np.dot(residual, residual))
    if residual_energy <= 1e-10 * target_energy or target_energy == 0.0:
        return CAP_DB
    value = 10.0 * np.log10(target_energy / residual_energy)
    return float(np.clip(value, -CAP_DB, CAP_DB))


@dataclass
class SegmentedSdr:
    """Per-segment and overall SI-SDR of one (reference, estimate) pair."""

    segment_len: int
    values: np.ndarray        # (n_segments,) dB
    overall: float

    @property
    def n_segments(self) -> int:
        return len(self.values)


def check_segment_len(n_samples: int, segment_len: int) -> None:
    """Signals of ``n_samples`` samples must hold at least one segment."""
    check_number("segment_len", segment_len, 1)
    if n_samples < segment_len:
        raise ContractViolationError(f"signals of length {n_samples} are shorter than one segment ({segment_len})")


def seg_sdr(reference: np.ndarray, estimate: np.ndarray, segment_len: int = DEFAULT_SEGMENT_LEN) -> SegmentedSdr:
    """SI-SDR over non-overlapping segments; the trailing remainder is dropped."""
    s = np.asarray(reference, dtype=np.float64)
    y = np.asarray(estimate, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ContractViolationError("reference and estimate must be equal-length 1-D signals")
    check_segment_len(len(s), segment_len)
    n_segments = len(s) // segment_len
    values = np.array([si_sdr(s[i : i + segment_len], y[i : i + segment_len])
                       for i in range(0, n_segments * segment_len, segment_len)])
    return SegmentedSdr(segment_len, values, si_sdr(s, y))


def resolve_permutation(references: np.ndarray, estimates: np.ndarray) -> tuple[int, ...]:
    """Global output-to-reference assignment maximising total SI-SDR.

    Returns ``perm`` such that ``estimates[perm[k]]`` scores reference
    ``k``.  Solved as a linear sum assignment on the K x K SI-SDR score
    matrix, which costs O(K^3) rather than K!, so any K is supported.
    Both arrays must be finite.
    """
    refs = np.asarray(references, dtype=np.float64)
    ests = np.asarray(estimates, dtype=np.float64)
    if refs.shape != ests.shape or refs.ndim != 2:
        raise ContractViolationError("references and estimates must both be (K, N)")
    if not (np.all(np.isfinite(refs)) and np.all(np.isfinite(ests))):
        raise ContractViolationError("references and estimates must be finite")
    # imported here, not at module level: scipy.optimize takes ~0.6 s to import
    from scipy.optimize import linear_sum_assignment

    k = refs.shape[0]
    scores = np.array([[si_sdr(refs[i], ests[j]) for j in range(k)] for i in range(k)])
    _, cols = linear_sum_assignment(scores, maximize=True)
    return tuple(int(c) for c in cols)


@dataclass
class SdrImprovementReport:
    """Permutation-aligned SegSDR improvement of one separation run."""

    permutation: tuple[int, ...]
    segment_len: int
    sample_rate: int
    segment_sdr: np.ndarray           # (K, S) dB, aligned estimates
    segment_input_sdr: np.ndarray     # (K, S) dB, mixture at mic 1
    segment_improvement: np.ndarray   # (K, S) dB
    overall_sdr: np.ndarray           # (K,)
    overall_input_sdr: np.ndarray     # (K,)
    overall_improvement: np.ndarray   # (K,)

    @property
    def n_segments(self) -> int:
        return self.segment_sdr.shape[1]

    @property
    def mean_overall_improvement(self) -> float:
        return float(np.mean(self.overall_improvement))

    def segment_times_s(self) -> np.ndarray:
        return np.arange(self.n_segments) * self.segment_len / self.sample_rate


def sdr_improvement(
    truth: GroundTruth, estimates: np.ndarray, segment_len: int = DEFAULT_SEGMENT_LEN
) -> SdrImprovementReport:
    """Score estimates against the mic-1 source images.

    Improvement is ``SDR(image_k, estimate) - SDR(image_k, mixture at mic
    1)`` per segment and overall, after one global permutation alignment.
    """
    ests = np.asarray(estimates, dtype=np.float64)
    refs = truth.images_mic1
    if ests.shape != refs.shape:
        raise ContractViolationError(
            f"estimates {ests.shape} do not match references {refs.shape}"
        )
    perm = resolve_permutation(refs, ests)
    mixture = truth.mixtures[0]
    k = refs.shape[0]
    est_seg = [seg_sdr(refs[i], ests[perm[i]], segment_len) for i in range(k)]
    mix_seg = [seg_sdr(refs[i], mixture, segment_len) for i in range(k)]
    segment_sdr = np.stack([r.values for r in est_seg])
    segment_input = np.stack([r.values for r in mix_seg])
    return SdrImprovementReport(
        permutation=perm,
        segment_len=segment_len,
        sample_rate=truth.sample_rate,
        segment_sdr=segment_sdr,
        segment_input_sdr=segment_input,
        segment_improvement=segment_sdr - segment_input,
        overall_sdr=np.array([r.overall for r in est_seg]),
        overall_input_sdr=np.array([r.overall for r in mix_seg]),
        overall_improvement=np.array([r.overall - m.overall for r, m in zip(est_seg, mix_seg)]),
    )


CSV_COLUMNS = ("method", "segment_index", "time_s", "source", "sdr_db", "sdr_improvement_db")


def improvement_rows(method: str, report: SdrImprovementReport) -> list[dict]:
    """Flatten a report into CSV rows (one per segment and source)."""
    rows = []
    times = report.segment_times_s()
    for i in range(report.n_segments):
        for k in range(report.segment_sdr.shape[0]):
            rows.append(
                {
                    "method": method,
                    "segment_index": i + 1,
                    "time_s": f"{times[i]:.3f}",
                    "source": k + 1,
                    "sdr_db": f"{report.segment_sdr[k, i]:.6f}",
                    "sdr_improvement_db": f"{report.segment_improvement[k, i]:.6f}",
                }
            )
    return rows


def write_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
