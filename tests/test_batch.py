"""Batch solver contracts: cost, covariances, sweeps, ISS equivalence."""

import numpy as np
import pytest

from ivastream.batch import BatchProblem, batch_auxiva, batch_weighted_covariance, cost
from ivastream.errors import ContractViolationError, DegenerateUpdateError
from ivastream.stft import Spectrogram

from conftest import random_complex
from oracles import batch_covariance_reference, cost_reference


def super_gaussian_spectrogram(rng, n_src, n_frames, n_bins, mixing=None):
    """Spherical super-Gaussian sources (shared per-frame envelopes)."""
    envelopes = np.abs(rng.standard_normal((n_src, n_frames))) ** 1.5 + 0.05
    sources = envelopes[:, :, None] * random_complex(rng, n_src, n_frames, n_bins)
    if mixing is None:
        return Spectrogram(sources), sources
    mixed = np.einsum("km,mtf->ktf", mixing, sources)
    return Spectrogram(mixed), sources


class TestCost:
    def test_identity_demixing_matches_reference(self, rng):
        spec, _ = super_gaussian_spectrogram(rng, 2, 12, 4)
        w = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
        expected = cost_reference(spec.data, w)
        assert cost(w, spec) == pytest.approx(expected, rel=1e-12)

    def test_scalar_case(self):
        spec = Spectrogram(np.full((1, 1, 1), 2.0 + 0.0j))
        w = np.ones((1, 1, 1), dtype=complex)
        assert cost(w, spec) == pytest.approx(2.0)

    def test_scaling_relation(self, rng):
        # J(cW) = c * data_term - 2 F K log c + logdet term
        n_src, n_frames, n_bins = 2, 10, 3
        spec, _ = super_gaussian_spectrogram(rng, n_src, n_frames, n_bins)
        w = random_complex(rng, n_bins, n_src, n_src) + 2 * np.eye(n_src)
        scale = 1.7
        base = cost(w, spec)
        sign, logdet = np.linalg.slogdet(w)
        data_term = base + 2.0 * logdet.sum()
        expected = scale * data_term - 2.0 * (logdet.sum() + n_bins * n_src * np.log(scale))
        assert cost(scale * w, spec) == pytest.approx(expected, rel=1e-10)

    def test_singular_demixing_rejected(self, rng):
        spec, _ = super_gaussian_spectrogram(rng, 2, 8, 3)
        w = np.zeros((3, 2, 2), dtype=complex)
        with pytest.raises(DegenerateUpdateError) as excinfo:
            cost(w, spec)
        assert excinfo.value.indices == (0, 1, 2)


class TestBatchWeightedCovariance:
    def test_single_frame_rank1(self, rng):
        data = random_complex(rng, 2, 1, 1)
        spec = Spectrogram(data)
        # with T = 1 the covariance is phi * x x^H; divide the weight out
        w = np.tile(np.eye(2, dtype=complex), (1, 1, 1))
        u = batch_weighted_covariance(spec, w)[0, 0]
        x = data[:, 0, 0]
        r = np.linalg.norm(x[0])
        np.testing.assert_allclose(u, 0.5 / r * np.outer(x, np.conj(x)), rtol=1e-12)

    def test_constant_basis_input(self):
        # x = e_1 in every frame, W = I, F = 1: r = 1, phi = 0.5, U = 0.5 e1 e1^H
        n_frames = 5
        data = np.zeros((2, n_frames, 1), dtype=complex)
        data[0] = 1.0
        spec = Spectrogram(data)
        w = np.tile(np.eye(2, dtype=complex), (1, 1, 1))
        u = batch_weighted_covariance(spec, w)[0, 0]
        np.testing.assert_allclose(u, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_matches_loop_transcription(self, rng):
        spec, _ = super_gaussian_spectrogram(rng, 3, 9, 4)
        w = random_complex(rng, 4, 3, 3) + 2 * np.eye(3)
        u = batch_weighted_covariance(spec, w)
        reference = batch_covariance_reference(spec.data, w)
        np.testing.assert_allclose(u, reference, atol=1e-14)


class TestBatchAuxiva:
    def test_near_fixed_point_on_separated_input(self):
        rng = np.random.default_rng(7)
        n_frames, n_bins = 2000, 16
        spec, _ = super_gaussian_spectrogram(rng, 2, n_frames, n_bins)
        # rescale sources so identity demixing is scale-stationary for the
        # Laplace model (row scale c minimises c*mean(r) - 2F log c, so
        # c* = 1 iff mean activity equals 2F); what remains are tiny
        # finite-sample off-diagonal corrections
        data = spec.data
        activity = np.sqrt(np.sum(np.abs(data) ** 2, axis=2))
        data = data * (2.0 * n_bins / activity.mean(axis=1))[:, None, None]
        spec = Spectrogram(data)
        result = batch_auxiva(BatchProblem(spec, n_iter=6), "iss")
        decreases = -np.diff(result.cost_trace)
        assert np.all(decreases[3:] < 1e-6)

    @pytest.mark.parametrize("method", ["ip", "iss"])
    def test_ground_truth_mixing_recovered(self, method):
        rng = np.random.default_rng(11)
        mixing = np.array([[1.0, 0.6], [-0.5, 1.0]])
        spec, _ = super_gaussian_spectrogram(rng, 2, 2000, 64, mixing=mixing)
        result = batch_auxiva(BatchProblem(spec, n_iter=12), method)
        gain = result.demix @ mixing  # (F, K, K), should be permuted diagonal
        gain /= np.max(np.abs(gain), axis=2, keepdims=True)
        for f in range(gain.shape[0]):
            g = np.abs(gain[f])
            permutations = ([0, 1], [1, 0])
            off = min(max(g[0, p[1]], g[1, p[0]]) for p in permutations)
            assert off <= 0.1

    @pytest.mark.parametrize("method", ["ip", "iss", "iss_inplace"])
    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_cost_descent(self, method, seed):
        rng = np.random.default_rng(seed)
        spec, _ = super_gaussian_spectrogram(
            rng, 2, 60, 8, mixing=rng.standard_normal((2, 2)) + 2 * np.eye(2)
        )
        result = batch_auxiva(BatchProblem(spec, n_iter=8), method)
        assert np.all(np.diff(result.cost_trace) <= 1e-9)

    def test_iss_variants_agree(self, rng):
        mixing = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        spec, _ = super_gaussian_spectrogram(rng, 3, 64, 8, mixing=mixing)
        for sweeps in (1, 4, 10):
            a = batch_auxiva(BatchProblem(spec, n_iter=sweeps), "iss")
            b = batch_auxiva(BatchProblem(spec, n_iter=sweeps), "iss_inplace")
            scale = np.max(np.abs(a.separated.data))
            assert np.max(np.abs(a.separated.data - b.separated.data)) <= 1e-8 * scale
            np.testing.assert_allclose(a.cost_trace, b.cost_trace, rtol=1e-8)

    def test_ip_and_iss_reach_similar_cost(self, rng):
        mixing = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        spec, _ = super_gaussian_spectrogram(rng, 2, 500, 16, mixing=mixing)
        ip = batch_auxiva(BatchProblem(spec, n_iter=30), "ip")
        iss = batch_auxiva(BatchProblem(spec, n_iter=30), "iss")
        assert abs(ip.cost_trace[-1] - iss.cost_trace[-1]) < 1.0

    def test_too_few_frames_rejected(self, rng):
        spec = Spectrogram(random_complex(rng, 3, 2, 4))
        with pytest.raises(ContractViolationError):
            BatchProblem(spec)

    @pytest.mark.parametrize("method", ["iss", "ip"])
    def test_sweep_error_keeps_its_context(self, rng, method):
        data = random_complex(rng, 2, 40, 5)
        data[:, :, 3] = 0.0  # bin 3 has zero covariance for every source
        problem = BatchProblem(Spectrogram(data))
        with pytest.raises(DegenerateUpdateError) as excinfo:
            batch_auxiva(problem, method)
        assert str(excinfo.value).startswith("sweep 1: ")
        assert "source 0" in str(excinfo.value)
        assert excinfo.value.indices == (3,)
