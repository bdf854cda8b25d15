"""Multichannel STFT analysis and weighted overlap-add synthesis.

The front end is fixed to a periodic (DFT-even) Hamming window at 50%
overlap.  Signals are zero-padded by half a frame on both sides so every
original sample is fully covered by analysis frames.  Both transforms run
over fixed blocks of frames, so besides its result (and, in analysis, the
padded input) each holds one block of frames at a time.  Synthesis builds
each hop-long segment from the two frame halves that cover it and divides by
their squared-window envelope.  At 50% overlap that envelope is periodic:
one fixed vector ``w[hop:]**2 + w[:hop]**2`` for every segment but the last,
which has only ``w[hop:]**2``.  The round trip is exact (well below the
documented 1e-6 tolerance) at every original sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, check_number

_BLOCK_FRAMES = 64  # frames per transform block: bounds the working set, not the result


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters.  Hop is pinned to half the frame length."""

    frame_len: int = 1024
    sample_rate: int = 16000

    def __post_init__(self):
        check_number("frame_len", self.frame_len, 2)
        if self.frame_len & (self.frame_len - 1):
            raise ContractViolationError(f"frame_len must be a power of two, got {self.frame_len}")
        check_number("sample_rate", self.sample_rate, 1)

    @property
    def hop(self) -> int:
        return self.frame_len // 2

    @property
    def n_bins(self) -> int:
        return self.frame_len // 2 + 1

    def window_samples(self) -> np.ndarray:
        # periodic variant: satisfies constant overlap-add at 50% hop
        n = np.arange(self.frame_len)
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / self.frame_len)


@dataclass
class Spectrogram:
    """Complex STFT data indexed ``[channel, frame, bin]``."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3:
            raise ContractViolationError(
                f"spectrogram data must be (channels, frames, bins), got {self.data.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ContractViolationError("spectrogram has non-finite entries")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def n_bins(self) -> int:
        return self.data.shape[2]


def _as_channels(signal) -> np.ndarray:
    sig = np.asarray(signal)
    if sig.dtype == object:
        raise ContractViolationError("channels must all have the same length")
    sig = sig.astype(np.float64, copy=False)
    if sig.ndim == 1:
        sig = sig[None, :]
    if sig.ndim != 2:
        raise ContractViolationError(f"signal must be 1-D or (channels, samples), got {sig.shape}")
    return sig


def analyze(signal, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Windowed one-sided STFT of a (channels, samples) signal.

    The signal is zero-padded by ``frame_len/2`` on each side; the frame
    count is ``floor((n + frame_len - frame_len)/hop) + 1 = floor(n/hop) + 1``.
    """
    sig = _as_channels(signal)
    n = sig.shape[1]
    if n < cfg.frame_len:
        raise ContractViolationError(
            f"signal length {n} shorter than one frame ({cfg.frame_len})"
        )
    padded = np.pad(sig, ((0, 0), (cfg.hop, cfg.hop)))
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.frame_len, axis=1)
    frames = frames[:, :: cfg.hop, :]
    window = cfg.window_samples()
    data = np.empty(frames.shape[:2] + (cfg.n_bins,), dtype=np.complex128)
    for a in range(0, frames.shape[1], _BLOCK_FRAMES):
        data[:, a : a + _BLOCK_FRAMES] = np.fft.rfft(frames[:, a : a + _BLOCK_FRAMES] * window, axis=-1)
    return Spectrogram(data)


def synthesize(spec: Spectrogram, cfg: StftConfig = StftConfig(), n_samples: int | None = None) -> np.ndarray:
    """Weighted overlap-add inverse of :func:`analyze`.

    Returns a (channels, samples) array.  Pass ``n_samples`` (the original
    length) to recover it exactly; otherwise the length defaults to
    ``(n_frames - 1) * hop``, which may drop up to ``hop - 1`` trailing
    samples of the original signal.
    """
    if spec.n_bins != cfg.n_bins:
        raise ContractViolationError(
            f"spectrogram has {spec.n_bins} bins but config implies {cfg.n_bins}"
        )
    n_frames, hop = spec.n_frames, cfg.hop
    # original sample i sits at padded index hop + i, covered while i < n_frames * hop
    available = n_frames * hop
    if n_samples is None:
        n_samples = (n_frames - 1) * hop
    check_number("n_samples", n_samples, 1, available + 1)
    window = cfg.window_samples()
    # padded segment s = 1..T: second half of frame s-1 plus first half of frame s
    out = np.empty((spec.n_channels, n_frames, hop))
    for a in range(0, n_frames, _BLOCK_FRAMES):
        frames = np.fft.irfft(spec.data[:, a : a + _BLOCK_FRAMES], n=cfg.frame_len, axis=-1)
        frames *= window
        out[:, a : a + _BLOCK_FRAMES] = frames[..., hop:]
        # a block's first frame completes the last segment of the block before
        lo = max(a - 1, 0)
        out[:, lo : a + frames.shape[1] - 1] += frames[:, lo + 1 - a :, :hop]
    w2 = window * window
    out[:, :-1] /= w2[hop:] + w2[:hop]  # the Hamming window is >= 0.08, so no envelope vanishes
    out[:, -1] /= w2[hop:]
    return out.reshape(spec.n_channels, available)[:, :n_samples]
