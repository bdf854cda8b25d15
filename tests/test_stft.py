"""Analysis/synthesis contracts: framing, round trip, energy bookkeeping."""

import tracemalloc

import numpy as np
import pytest

from ivastream.errors import ContractViolationError
from ivastream.stft import _BLOCK_FRAMES, Spectrogram, StftConfig, analyze, synthesize

from conftest import random_complex
from oracles import ola_reference

#: frame counts on both sides of one and two block boundaries
BLOCK_EDGES = [_BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1]


@pytest.fixture
def cfg():
    return StftConfig(frame_len=256, sample_rate=4000)


def test_config_validation():
    with pytest.raises(ContractViolationError):
        StftConfig(frame_len=300)
    assert StftConfig(frame_len=256).hop == 128


def test_zero_signal_gives_zero_spectrogram(cfg):
    spec = analyze(np.zeros((2, 1000)), cfg)
    assert spec.n_channels == 2
    np.testing.assert_array_equal(spec.data, 0)


def test_frame_count_for_one_frame_input(cfg):
    # symmetric frame_len/2 padding turns frame_len samples into 3 frames
    spec = analyze(np.zeros(cfg.frame_len), cfg)
    assert spec.n_frames == 3
    assert spec.n_bins == cfg.frame_len // 2 + 1


def test_sinusoid_concentration(cfg):
    # oracle: direct DFT of one windowed frame of an exact-bin sinusoid.
    # The periodic Hamming transform has exactly three nonzero lines
    # (0.54, -0.23, -0.23), so the centre bin carries 0.54^2 of the
    # (0.54^2 + 2 * 0.23^2) one-sided energy and the 3-bin neighbourhood
    # carries all of it.
    bin_idx = 19
    n = np.arange(cfg.frame_len)
    window = cfg.window_samples()
    frame = np.cos(2 * np.pi * bin_idx * n / cfg.frame_len + 0.3)
    oracle = np.abs(np.fft.rfft(window * frame)) ** 2
    oracle_fraction = oracle[bin_idx] / oracle.sum()
    expected = 0.54**2 / (0.54**2 + 2 * 0.23**2)
    assert oracle_fraction == pytest.approx(expected, abs=1e-12)

    duration = 8 * cfg.frame_len
    signal = np.cos(2 * np.pi * bin_idx * np.arange(duration) / cfg.frame_len + 0.3)
    spec = analyze(signal, cfg)
    interior = spec.data[0, 4:-4, :]
    energy = np.abs(interior) ** 2
    fractions = energy[:, bin_idx] / energy.sum(axis=1)
    np.testing.assert_allclose(fractions, expected, atol=1e-9)
    neighbourhood = energy[:, bin_idx - 1 : bin_idx + 2].sum(axis=1) / energy.sum(axis=1)
    np.testing.assert_allclose(neighbourhood, 1.0, atol=1e-12)


def test_round_trip_interior(cfg, rng):
    signal = rng.standard_normal((3, 4000))
    rec = synthesize(analyze(signal, cfg), cfg, n_samples=4000)
    interior = slice(cfg.frame_len, 4000 - cfg.frame_len)
    err = np.abs(rec[:, interior] - signal[:, interior])
    assert err.max() <= 1e-6 * np.abs(signal[:, interior]).max()


def test_round_trip_covers_edges_too(cfg, rng):
    signal = rng.standard_normal((1, 2001))
    rec = synthesize(analyze(signal, cfg), cfg, n_samples=2001)
    np.testing.assert_allclose(rec, signal, atol=1e-12)


@pytest.mark.parametrize("frame_len", [4, 256, 1024])
def test_synthesis_matches_frame_loop_bitwise(rng, frame_len):
    cfg = StftConfig(frame_len=frame_len)
    for n_frames in (1, 7, *BLOCK_EDGES):
        spec = Spectrogram(random_complex(rng, 2, n_frames, cfg.n_bins))
        frames = np.fft.irfft(spec.data, n=frame_len, axis=-1) * cfg.window_samples()
        # original sample i sits at padded index hop + i
        reference = ola_reference(frames, cfg.window_samples(), cfg.hop)[:, cfg.hop :]
        covered = n_frames * cfg.hop
        assert reference.shape[1] == covered
        for n_samples in (None, covered - cfg.hop // 2, covered):
            length = (n_frames - 1) * cfg.hop if n_samples is None else n_samples
            if length == 0:  # one frame has no default length
                continue
            rec = synthesize(spec, cfg, n_samples=n_samples)
            assert rec.tobytes() == np.ascontiguousarray(reference[:, :length]).tobytes()


@pytest.mark.parametrize("n_frames", [3, *BLOCK_EDGES])  # analyze makes at least 3 frames
@pytest.mark.parametrize("frame_len", [4, 1024])
def test_analysis_blocks_match_whole_array_bitwise(rng, frame_len, n_frames):
    cfg = StftConfig(frame_len=frame_len)
    signal = rng.standard_normal((2, (n_frames - 1) * cfg.hop + cfg.hop - 1))
    padded = np.pad(signal, ((0, 0), (cfg.hop, cfg.hop)))
    frames = np.lib.stride_tricks.sliding_window_view(padded, frame_len, axis=1)[:, :: cfg.hop]
    spec = analyze(signal, cfg)
    assert spec.n_frames == n_frames
    assert spec.data.tobytes() == np.fft.rfft(frames * cfg.window_samples(), axis=-1).tobytes()


def test_synthesis_working_set_does_not_grow_with_the_signal(rng):
    cfg = StftConfig(frame_len=1024)
    block_bytes = 2 * _BLOCK_FRAMES * cfg.frame_len * 8  # one block of real frames
    extra = []
    for n_frames in (4 * _BLOCK_FRAMES + 1, 16 * _BLOCK_FRAMES + 1):
        spec = Spectrogram(random_complex(rng, 2, n_frames, cfg.n_bins))
        tracemalloc.start()
        try:
            rec = synthesize(spec, cfg, n_samples=n_frames * cfg.hop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra.append(peak - rec.nbytes)
    assert extra[0] <= 3 * block_bytes
    assert abs(extra[1] - extra[0]) <= 3 * block_bytes


def test_synthesis_length_bounds(cfg, rng):
    spec = analyze(rng.standard_normal((1, 1000)), cfg)
    for n_samples in (0, spec.n_frames * cfg.hop + 1):
        with pytest.raises(ContractViolationError):
            synthesize(spec, cfg, n_samples=n_samples)


def test_zero_spectrogram_synthesizes_zero(cfg):
    spec = Spectrogram(np.zeros((2, 5, cfg.n_bins), dtype=complex))
    np.testing.assert_array_equal(synthesize(spec, cfg), 0)


def test_synthesis_linearity(cfg, rng):
    signal = rng.standard_normal((1, 3000))
    spec = analyze(signal, cfg)
    doubled = Spectrogram(2.0 * spec.data)
    np.testing.assert_allclose(
        synthesize(doubled, cfg), 2.0 * synthesize(spec, cfg), atol=1e-9
    )


def test_parseval_per_frame(cfg, rng):
    signal = rng.standard_normal(3000)
    spec = analyze(signal, cfg)
    padded = np.pad(signal, (cfg.hop, cfg.hop))
    window = cfg.window_samples()
    for t in range(spec.n_frames):
        frame = padded[t * cfg.hop : t * cfg.hop + cfg.frame_len] * window
        time_energy = np.sum(frame**2)
        bins = np.abs(spec.data[0, t]) ** 2
        spectral = (bins[0] + bins[-1] + 2 * bins[1:-1].sum()) / cfg.frame_len
        assert spectral == pytest.approx(time_energy, rel=1e-9)


def test_empty_and_short_signals_rejected(cfg):
    with pytest.raises(ContractViolationError):
        analyze(np.zeros((1, 0)), cfg)
    with pytest.raises(ContractViolationError):
        analyze(np.zeros((1, cfg.frame_len - 1)), cfg)


def test_ragged_channels_rejected(cfg):
    with pytest.raises(ContractViolationError):
        analyze(np.array([np.zeros(400), np.zeros(300)], dtype=object), cfg)


def test_shape_mismatch_on_synthesis(cfg):
    spec = Spectrogram(np.zeros((1, 4, 99), dtype=complex))
    with pytest.raises(ContractViolationError):
        synthesize(spec, cfg)
