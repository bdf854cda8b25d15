"""Ground-truth construction: sources, mixing modes, moves, superposition."""

import numpy as np
import pytest

from ivastream.errors import ContractViolationError
from ivastream.scenario import GroundTruth, ScenarioConfig, build, mix, synth_sources
from ivastream.stft import StftConfig, analyze


class TestSynthSources:
    def test_deterministic(self):
        a = synth_sources(2, 1.0, seed=5)
        b = synth_sources(2, 1.0, seed=5)
        assert np.array_equal(a, b)
        c = synth_sources(2, 1.0, seed=6)
        assert not np.array_equal(a, c)

    def test_unit_rms(self):
        sources = synth_sources(3, 2.0, seed=0)
        np.testing.assert_allclose(np.sqrt(np.mean(sources**2, axis=1)), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_super_gaussian(self, seed):
        sources = synth_sources(3, 10.0, seed=seed)
        second = np.mean(sources**2, axis=1)
        fourth = np.mean(sources**4, axis=1)
        kurtosis = fourth / second**2
        assert np.all(kurtosis > 3.0)

    def test_sources_uncorrelated(self):
        sources = synth_sources(3, 10.0, seed=1)
        corr = np.corrcoef(sources)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) <= 0.05


class TestInstantaneousMix:
    def test_identity_mixing(self):
        # the mixtures are the drawn matrix applied to the sources, exactly
        cfg = ScenarioConfig(n_src=2, duration_s=0.1)
        sources = synth_sources(2, 0.1, seed=0)
        truth = mix(cfg, sources)
        a = truth.mixing_pre
        np.testing.assert_array_equal(truth.mixtures, a[:, :1] * sources[0] + a[:, 1:] * sources[1])

    def test_impulse_probe_reads_columns(self):
        cfg = ScenarioConfig(n_src=2, duration_s=0.001, sample_rate=16000)
        sources = np.zeros((2, 16))
        sources[0, 3] = 1.0
        sources[1, 7] = 1.0
        truth = mix(cfg, sources)
        np.testing.assert_allclose(truth.mixtures[:, 3], truth.mixing_pre[:, 0])
        np.testing.assert_allclose(truth.mixtures[:, 7], truth.mixing_pre[:, 1])

    def test_move_switches_column(self, rng):
        cfg = ScenarioConfig(
            n_src=2, duration_s=1.0, sample_rate=1000, seed=3,
            move_source=1, move_time_s=0.5,
        )
        sources = rng.standard_normal((2, 1000))
        truth = mix(cfg, sources)
        switch = truth.move_sample
        assert switch == 500
        a_pre, a_post = truth.mixing_pre, truth.mixing_post
        np.testing.assert_allclose(a_pre[:, 0], a_post[:, 0])
        # probe: the moving source's image uses the pre column strictly
        # before the switch and the post column from it on
        img = truth.images[1]
        np.testing.assert_allclose(img[:, :switch], np.outer(a_pre[:, 1], sources[1, :switch]), atol=1e-15)
        np.testing.assert_allclose(img[:, switch:], np.outer(a_post[:, 1], sources[1, switch:]), atol=1e-15)

    def test_superposition_exact(self, rng):
        cfg = ScenarioConfig(n_src=3, duration_s=0.5, sample_rate=8000, seed=2,
                             move_source=2, move_time_s=0.25)
        truth = build(cfg)
        np.testing.assert_allclose(truth.mixtures, truth.images.sum(axis=0), atol=1e-12)

    def test_random_matrices_well_posed(self):
        for seed in range(5):
            cfg = ScenarioConfig(n_src=3, duration_s=0.01, seed=seed,
                                 move_source=0, move_time_s=0.005)
            truth = build(cfg)
            assert np.linalg.cond(truth.mixing_pre) <= 10.0
            assert np.linalg.cond(truth.mixing_post) <= 10.0
            np.testing.assert_allclose(np.linalg.norm(truth.mixing_pre, axis=0), 1.0)

    def test_mixing_commutes_with_stft(self, rng):
        cfg = ScenarioConfig(n_src=3, duration_s=0.5, sample_rate=8000)
        sources = rng.standard_normal((3, 4000))
        truth = mix(cfg, sources)
        stft_cfg = StftConfig(frame_len=256, sample_rate=8000)
        lhs = analyze(truth.mixtures, stft_cfg).data
        rhs = np.einsum("km,mtf->ktf", truth.mixing_pre, analyze(sources, stft_cfg).data)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))


class TestConvolutiveMix:
    def test_superposition_exact(self):
        cfg = ScenarioConfig(n_src=2, duration_s=0.5, sample_rate=8000, seed=4,
                             mixing_mode="convolutive", move_source=1, move_time_s=0.25)
        truth = build(cfg)
        np.testing.assert_allclose(truth.mixtures, truth.images.sum(axis=0), atol=1e-12)

    def test_user_filters_applied(self, rng):
        # each mic hears every source through the drawn bank's filter
        cfg = ScenarioConfig(n_src=2, duration_s=0.01, sample_rate=8000, mixing_mode="convolutive")
        sources = rng.standard_normal((2, 80))
        truth = mix(cfg, sources)
        bank = truth.mixing_pre
        expected = [sum(np.convolve(sources[s], bank[m, s])[:80] for s in range(2)) for m in range(2)]
        np.testing.assert_allclose(truth.mixtures, expected, atol=1e-12)

    def test_echo_bank_shape_and_span(self):
        cfg = ScenarioConfig(n_src=3, duration_s=0.1, seed=0, mixing_mode="convolutive")
        truth = build(cfg)
        bank = truth.mixing_pre
        assert bank.shape[:2] == (3, 3)
        assert bank.shape[2] <= 1024  # <= 64 ms at 16 kHz
        taps = (np.abs(bank) > 0).sum(axis=2)
        assert taps.min() >= 3 and taps.max() <= 5

    def test_lowest_echo_rate_builds(self):
        # at 500 Hz the 64 ms bank is exactly the 32-tap direct-path range
        cfg = ScenarioConfig(n_src=3, duration_s=2.0, sample_rate=500, seed=1,
                             mixing_mode="convolutive", move_source=2, move_time_s=1.0)
        truth = build(cfg)
        assert truth.mixing_pre.shape == truth.mixing_post.shape == (3, 3, 32)
        assert np.all(np.isfinite(truth.mixtures))


class TestConfigValidation:
    def test_move_outside_duration_rejected(self):
        with pytest.raises(ContractViolationError):
            ScenarioConfig(duration_s=10.0, move_source=0, move_time_s=10.0)

    def test_move_fields_must_pair(self):
        with pytest.raises(ContractViolationError):
            ScenarioConfig(move_source=1)

    @pytest.mark.parametrize("duration_s", [float("nan"), float("inf"), 1e-5])
    def test_duration_without_a_sample_rejected(self, duration_s):
        with pytest.raises(ContractViolationError):
            ScenarioConfig(duration_s=duration_s)
        with pytest.raises(ContractViolationError):
            synth_sources(2, duration_s)

    @pytest.mark.parametrize("duration_s", [1e300, 2.0**60])
    def test_duration_beyond_any_array_rejected(self, duration_s):
        # one source at 1 Hz: a float64 array holds at most 2**60 - 1 samples
        with pytest.raises(ContractViolationError, match="duration_s"):
            ScenarioConfig(n_src=1, duration_s=duration_s, sample_rate=1)
        with pytest.raises(ContractViolationError, match="duration_s"):
            synth_sources(1, duration_s, sample_rate=1)
        ScenarioConfig(n_src=1, duration_s=2.0**59, sample_rate=1)  # checked, never allocated

    @pytest.mark.parametrize("sample_rate", [10, 100, 400, 499])
    def test_echo_bank_shorter_than_direct_path_rejected(self, sample_rate):
        with pytest.raises(ContractViolationError, match="direct-path"):
            ScenarioConfig(sample_rate=sample_rate, mixing_mode="convolutive")
        ScenarioConfig(sample_rate=sample_rate)  # instantaneous mixing has no bank

    def test_one_sample_scene(self):
        truth = build(ScenarioConfig(n_src=2, duration_s=1 / 16000))
        assert truth.mixtures.shape == (2, 1)

    def test_mixing_field_is_gone(self):
        with pytest.raises(TypeError):
            ScenarioConfig(mixing=np.eye(3))

    def test_wrong_source_shape_rejected(self):
        cfg = ScenarioConfig(n_src=2, duration_s=0.01)
        with pytest.raises(ContractViolationError):
            mix(cfg, np.zeros((3, 160)))
