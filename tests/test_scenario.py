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
        cfg = ScenarioConfig(n_src=2, duration_s=0.1, mixing=np.eye(2))
        sources = synth_sources(2, 0.1, seed=0)
        truth = mix(cfg, sources)
        np.testing.assert_array_equal(truth.mixtures, sources)

    def test_impulse_probe_reads_columns(self):
        mixing = np.array([[1.0, 0.5], [0.5, 1.0]])
        cfg = ScenarioConfig(n_src=2, duration_s=0.001, sample_rate=16000, mixing=mixing)
        sources = np.zeros((2, 16))
        sources[0, 3] = 1.0
        sources[1, 7] = 1.0
        truth = mix(cfg, sources)
        np.testing.assert_allclose(truth.mixtures[:, 3], mixing[:, 0])
        np.testing.assert_allclose(truth.mixtures[:, 7], mixing[:, 1])

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
        mixing = np.array([[1.0, 0.4, 0.2], [-0.3, 1.0, 0.5], [0.2, -0.4, 1.0]])
        cfg = ScenarioConfig(n_src=3, duration_s=0.5, sample_rate=8000, mixing=mixing)
        sources = rng.standard_normal((3, 4000))
        truth = mix(cfg, sources)
        stft_cfg = StftConfig(frame_len=256, sample_rate=8000)
        lhs = analyze(truth.mixtures, stft_cfg).data
        rhs = np.einsum("km,mtf->ktf", mixing, analyze(sources, stft_cfg).data)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))

    def test_singular_mixing_rejected(self):
        cfg = ScenarioConfig(n_src=2, duration_s=0.01, mixing=np.ones((2, 2)))
        with pytest.raises(ContractViolationError):
            mix(cfg, np.zeros((2, 160)))


class TestConvolutiveMix:
    def test_superposition_exact(self):
        cfg = ScenarioConfig(n_src=2, duration_s=0.5, sample_rate=8000, seed=4,
                             mixing_mode="convolutive", move_source=1, move_time_s=0.25)
        truth = build(cfg)
        np.testing.assert_allclose(truth.mixtures, truth.images.sum(axis=0), atol=1e-12)

    def test_user_filters_applied(self, rng):
        # single-tap filters reduce to instantaneous mixing
        bank = np.zeros((2, 2, 4))
        gains = np.array([[1.0, 0.3], [-0.2, 1.0]])
        bank[:, :, 0] = gains
        cfg = ScenarioConfig(n_src=2, duration_s=0.01, sample_rate=8000,
                             mixing_mode="convolutive", mixing=bank)
        sources = rng.standard_normal((2, 80))
        truth = mix(cfg, sources)
        np.testing.assert_allclose(truth.mixtures, gains @ sources, atol=1e-12)

    def test_echo_bank_shape_and_span(self):
        cfg = ScenarioConfig(n_src=3, duration_s=0.1, seed=0, mixing_mode="convolutive")
        truth = build(cfg)
        bank = truth.mixing_pre
        assert bank.shape[:2] == (3, 3)
        assert bank.shape[2] <= 1024  # <= 64 ms at 16 kHz
        taps = (np.abs(bank) > 0).sum(axis=2)
        assert taps.min() >= 3 and taps.max() <= 5


class TestConfigValidation:
    def test_move_outside_duration_rejected(self):
        with pytest.raises(ContractViolationError):
            ScenarioConfig(duration_s=10.0, move_source=0, move_time_s=10.0)

    def test_move_fields_must_pair(self):
        with pytest.raises(ContractViolationError):
            ScenarioConfig(move_source=1)

    def test_wrong_source_shape_rejected(self):
        cfg = ScenarioConfig(n_src=2, duration_s=0.01)
        with pytest.raises(ContractViolationError):
            mix(cfg, np.zeros((3, 160)))
