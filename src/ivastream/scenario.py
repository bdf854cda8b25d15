"""Synthetic ground-truth mixtures, including instantaneous source moves.

Sources are unit-RMS white noise amplitude-modulated by slowly varying
log-normal envelopes (cut-off drawn from ``ENVELOPE_BAND_HZ``), a stand-in
for speech that keeps the spherical super-Gaussian structure the separator
assumes.  Mixing is either an instantaneous matrix or a per-pair FIR filter
bank; a "move" switches the moving source's mixing column (or filter set)
at a given time to one drawn from the scenario's seed stream, realised by
masking the source into pre/post segments so that the per-source images
always sum exactly to the mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, check_number

#: Mixing columns whose first-microphone gain falls below this are
#: rejected when sampling random matrices, so every source stays audible
#: in the reference channel used for scoring.
MIN_MIC1_GAIN = 0.2

#: Largest condition number accepted for a sampled mixing matrix, before
#: and after a move.
MAX_CONDITION = 10.0

#: Range (Hz) from which each source envelope's low-pass cut-off is drawn.
ENVELOPE_BAND_HZ = (2.0, 8.0)

#: The direct path of each echo filter lands on one of its first this many
#: taps, so a convolutive bank (64 ms long) needs a rate of at least 500 Hz.
DIRECT_PATH_TAPS = 32


@dataclass(frozen=True)
class ScenarioConfig:
    """Ground-truth generation parameters.

    The mixing operator, a (K, K) matrix for ``instantaneous`` mixing or a
    (K, K, L) FIR bank ``h[mic, src, tap]`` for ``convolutive`` mixing, is
    drawn from the seed stream.  When ``move_source`` is set, that source's
    column (or filter row) switches at ``move_time_s``; the replacement
    is drawn from the same stream.
    """

    n_src: int = 3
    duration_s: float = 60.0
    sample_rate: int = 16000
    seed: int = 0
    mixing_mode: str = "instantaneous"
    move_source: int | None = None
    move_time_s: float | None = None

    def __post_init__(self):
        _signal_samples(self.n_src, self.duration_s, self.sample_rate, self.seed)
        if self.mixing_mode not in ("instantaneous", "convolutive"):
            raise ContractViolationError(f"unknown mixing mode {self.mixing_mode!r}")
        if self.mixing_mode == "convolutive" and _fir_len(self.sample_rate) < DIRECT_PATH_TAPS:
            raise ContractViolationError(
                f"convolutive mixing needs a {DIRECT_PATH_TAPS}-tap direct-path range, but the "
                f"64 ms echo bank at {self.sample_rate} Hz has {_fir_len(self.sample_rate)} taps"
            )
        if (self.move_source is None) != (self.move_time_s is None):
            raise ContractViolationError("move_source and move_time_s must be set together")
        if self.move_source is not None:
            check_number("move_source", self.move_source, 0, self.n_src)
            check_number("move_time_s", self.move_time_s, np.finfo(float).tiny, self.duration_s, integer=False)


@dataclass
class GroundTruth:
    """Clean sources, microphone mixtures and per-source mic images."""

    sources: np.ndarray          # (K, N)
    mixtures: np.ndarray         # (K, N), sum over sources of images
    images: np.ndarray           # (K source, K mic, N)
    sample_rate: int
    mixing_pre: np.ndarray
    mixing_post: np.ndarray | None = None
    move_source: int | None = None
    move_sample: int | None = None

    @property
    def images_mic1(self) -> np.ndarray:
        """Per-source contribution at the first microphone (K, N)."""
        return self.images[:, 0, :]


def _signal_samples(n_src: int, duration_s: float, sample_rate: int, seed: int) -> int:
    """Check the four settings of a set of source signals; return its sample count."""
    check_number("n_src", n_src, 1)
    check_number("seed", seed, 0)
    check_number("sample_rate", sample_rate, 1)
    check_number("duration_s", duration_s, 0, integer=False)
    n = float(duration_s) * float(sample_rate)  # a Python float overflows to inf without a warning
    most = np.iinfo(np.intp).max // (8 * int(n_src))  # the longest (n_src, n) float64 array numpy can make
    if not (np.isfinite(n) and 1 <= round(n) <= most):
        raise ContractViolationError(f"duration_s must span 1 to {most} samples at {n_src} sources, got {duration_s}")
    return int(round(n))


def _smooth_envelope(rng: np.random.Generator, n: int, sample_rate: int) -> np.ndarray:
    cutoff = rng.uniform(*ENVELOPE_BAND_HZ)
    z = rng.standard_normal(n)
    spectrum = np.fft.rfft(z)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    spectrum[freqs > cutoff] = 0.0
    z = np.fft.irfft(spectrum, n)
    z /= max(np.std(z), np.finfo(float).tiny)
    # clip guards degenerate sub-second signals where the band is empty
    return np.exp(0.75 * np.clip(z, -6.0, 6.0))


def synth_sources(n_src: int, duration_s: float, sample_rate: int = 16000, seed: int = 0) -> np.ndarray:
    """Independent super-Gaussian test signals, unit RMS, seed-deterministic."""
    n = _signal_samples(n_src, duration_s, sample_rate, seed)
    rng = np.random.default_rng([seed, 0])
    out = np.empty((n_src, n))
    for k in range(n_src):
        carrier = rng.standard_normal(n)
        env = _smooth_envelope(rng, n, sample_rate)
        sig = carrier * env
        out[k] = sig / np.sqrt(np.mean(sig**2))
    return out


def _sample_unit_column(rng: np.random.Generator, k: int) -> np.ndarray:
    col = rng.standard_normal(k)
    col /= np.linalg.norm(col)
    return col


def _sample_mixing_matrix(rng: np.random.Generator, k: int) -> np.ndarray:
    for _ in range(10000):
        a = rng.standard_normal((k, k))
        a /= np.linalg.norm(a, axis=0)
        if np.linalg.cond(a) <= MAX_CONDITION and np.min(np.abs(a[0])) >= MIN_MIC1_GAIN:
            return a
    raise ContractViolationError("could not sample a well-conditioned mixing matrix")


def _fir_len(sample_rate: int) -> int:
    """Taps of an echo bank: 64 ms, capped at 1024."""
    return min(1024, sample_rate * 64 // 1000)


def _random_fir_bank(rng: np.random.Generator, k: int, sample_rate: int) -> np.ndarray:
    """Sparse synthetic echoes: 3-5 taps per pair within 64 ms."""
    max_len = _fir_len(sample_rate)
    bank = np.zeros((k, k, max_len))
    for m in range(k):
        for s in range(k):
            n_taps = rng.integers(3, 6)
            delays = np.sort(rng.integers(0, max_len, size=n_taps))
            delays[0] = rng.integers(0, DIRECT_PATH_TAPS)
            gains = rng.uniform(0.1, 0.5, size=n_taps) * np.exp(-delays / (0.25 * max_len))
            gains[0] = rng.uniform(0.7, 1.0) * (1.0 if m == s else rng.choice([-1.0, 1.0]) * 0.7)
            bank[m, s, delays] = gains
    return bank


def _split_at(sig: np.ndarray, sample: int) -> tuple[np.ndarray, np.ndarray]:
    """``sig`` zeroed from ``sample`` on, and ``sig`` zeroed before it."""
    pre = sig.copy()
    post = sig.copy()
    pre[sample:] = 0.0
    post[:sample] = 0.0
    return pre, post


def _image(op: np.ndarray, s: int, sig: np.ndarray) -> np.ndarray:
    """Microphone images (K, N) of source ``s`` playing ``sig`` through
    ``op``, a (K, K) mixing matrix or a (K, K, L) FIR bank ``h[mic, src, tap]``."""
    if op.ndim == 2:
        return np.outer(op[:, s], sig)
    # imported here, not at module level: scipy.signal takes ~0.9 s to import
    from scipy.signal import fftconvolve

    return np.stack([fftconvolve(sig, op[m, s])[: len(sig)] for m in range(op.shape[0])])


def mix(cfg: ScenarioConfig, sources: np.ndarray) -> GroundTruth:
    """Apply the configured mixing operator, tracking per-source images.

    The moving source is split into pre/post masked segments which are
    mixed with the pre/post operators and summed, so superposition of the
    images is exact by construction in both modes.
    """
    sources = np.asarray(sources, dtype=np.float64)
    if sources.ndim != 2 or sources.shape[0] != cfg.n_src:
        raise ContractViolationError(
            f"sources must have shape ({cfg.n_src}, N), got {sources.shape}"
        )
    n = sources.shape[1]
    k = cfg.n_src
    rng = np.random.default_rng([cfg.seed, 1])
    move_sample = None
    if cfg.move_source is not None:
        move_sample = int(np.floor(cfg.move_time_s * cfg.sample_rate))

    if cfg.mixing_mode == "instantaneous":
        a_pre = _sample_mixing_matrix(rng, k)
        a_post = None
        if cfg.move_source is not None:
            a_post = a_pre.copy()
            for _ in range(10000):
                a_post[:, cfg.move_source] = _sample_unit_column(rng, k)
                if (
                    np.linalg.cond(a_post) <= MAX_CONDITION
                    and abs(a_post[0, cfg.move_source]) >= MIN_MIC1_GAIN
                ):
                    break
            else:
                raise ContractViolationError("could not sample a post-move column")
        mixing_pre, mixing_post = a_pre, a_post
    else:
        h_pre = _random_fir_bank(rng, k, cfg.sample_rate)
        h_post = None
        if cfg.move_source is not None:
            post_bank = _random_fir_bank(rng, k, cfg.sample_rate)
            h_post = h_pre.copy()
            h_post[:, cfg.move_source] = post_bank[:, cfg.move_source]
        mixing_pre, mixing_post = h_pre, h_post

    images = np.empty((k, k, n))
    for s in range(k):
        if s == cfg.move_source:
            pre, post = _split_at(sources[s], move_sample)
            images[s] = _image(mixing_pre, s, pre) + _image(mixing_post, s, post)
        else:
            images[s] = _image(mixing_pre, s, sources[s])
    mixtures = images.sum(axis=0)
    return GroundTruth(
        sources=sources,
        mixtures=mixtures,
        images=images,
        sample_rate=cfg.sample_rate,
        mixing_pre=mixing_pre,
        mixing_post=mixing_post,
        move_source=cfg.move_source,
        move_sample=move_sample,
    )


def build(cfg: ScenarioConfig, sources: np.ndarray | None = None) -> GroundTruth:
    """Synthesise sources (unless supplied) and mix them per the config."""
    if sources is None:
        sources = synth_sources(cfg.n_src, cfg.duration_s, cfg.sample_rate, cfg.seed)
    return mix(cfg, sources)
