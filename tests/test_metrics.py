"""Metric contracts: SI-SDR, segmentation, permutation, improvement."""

import itertools

import numpy as np
import pytest

from ivastream.errors import ContractViolationError
from ivastream.metrics import (
    CAP_DB,
    improvement_rows,
    resolve_permutation,
    sdr_improvement,
    seg_sdr,
    si_sdr,
)
from ivastream.scenario import GroundTruth


def orthogonal_noise(rng, reference, rel_power):
    noise = rng.standard_normal(len(reference))
    noise -= np.dot(noise, reference) / np.dot(reference, reference) * reference
    noise *= np.sqrt(rel_power * np.dot(reference, reference) / np.dot(noise, noise))
    return noise


def make_truth(images_mic1, mixture_mic1, sample_rate=16000):
    images_mic1 = np.asarray(images_mic1, dtype=np.float64)
    return GroundTruth(
        sources=images_mic1,
        mixtures=np.asarray(mixture_mic1, dtype=np.float64)[None, :],
        images=images_mic1[:, None, :],
        sample_rate=sample_rate,
        mixing_pre=np.eye(images_mic1.shape[0]),
    )


class TestSiSdr:
    def test_identical_signals_capped(self, rng):
        s = rng.standard_normal(500)
        assert si_sdr(s, s) == CAP_DB

    def test_scale_invariance_capped(self, rng):
        s = rng.standard_normal(500)
        assert si_sdr(s, 2.0 * s) == CAP_DB
        assert si_sdr(s, -0.3 * s) == CAP_DB

    def test_constructed_orthogonal_noise(self, rng):
        s = rng.standard_normal(4000)
        y = s + orthogonal_noise(rng, s, 0.01)
        assert si_sdr(s, y) == pytest.approx(20.0, abs=1e-6)

    def test_zero_estimate_floors(self, rng):
        s = rng.standard_normal(100)
        assert si_sdr(s, np.zeros(100)) == -CAP_DB

    def test_zero_reference_rejected(self, rng):
        with pytest.raises(ContractViolationError):
            si_sdr(np.zeros(100), rng.standard_normal(100))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ContractViolationError):
            si_sdr(rng.standard_normal(10), rng.standard_normal(11))


class TestSegSdr:
    def test_two_clean_segments(self, rng):
        s = rng.standard_normal(200)
        result = seg_sdr(s, s, segment_len=100)
        assert result.n_segments == 2
        assert np.all(result.values == CAP_DB) and result.overall == CAP_DB

    def test_piecewise_construction(self, rng):
        s = rng.standard_normal(200)
        y = s.copy()
        y[100:] += orthogonal_noise(rng, s[100:], 0.01)
        result = seg_sdr(s, y, segment_len=100)
        assert result.values[0] == CAP_DB
        assert result.values[1] == pytest.approx(20.0, abs=1e-6)
        assert result.values[1] != CAP_DB

    def test_floor_arithmetic_drops_remainder(self, rng):
        s = rng.standard_normal(199)
        assert seg_sdr(s, s, segment_len=100).n_segments == 1

    def test_segments_independent_of_neighbours(self, rng):
        s = rng.standard_normal(300)
        y = s + orthogonal_noise(rng, s, 0.1)
        joint = seg_sdr(s, y, segment_len=100)
        for i in range(3):
            seg = slice(100 * i, 100 * (i + 1))
            assert joint.values[i] == pytest.approx(si_sdr(s[seg], y[seg]), abs=1e-12)

    def test_bad_segment_len_rejected(self, rng):
        with pytest.raises(ContractViolationError):
            seg_sdr(rng.standard_normal(10), rng.standard_normal(10), segment_len=0)
        with pytest.raises(ContractViolationError, match="shorter than one segment"):
            seg_sdr(rng.standard_normal(10), rng.standard_normal(10), segment_len=11)


class TestResolvePermutation:
    def test_identity(self, rng):
        refs = rng.standard_normal((3, 400))
        assert resolve_permutation(refs, refs) == (0, 1, 2)

    def test_swap(self, rng):
        refs = rng.standard_normal((2, 400))
        assert resolve_permutation(refs, refs[::-1]) == (1, 0)

    def test_recovers_known_shuffle_under_noise(self, rng):
        refs = rng.standard_normal((3, 4000))
        shuffle = (2, 0, 1)  # estimate j holds reference shuffle.index(j)
        ests = np.empty_like(refs)
        for i, j in enumerate(shuffle):
            ests[j] = refs[i] + orthogonal_noise(rng, refs[i], 0.1)
        assert resolve_permutation(refs, ests) == shuffle

    def test_invariant_to_positive_rescaling(self, rng):
        refs = rng.standard_normal((3, 1000))
        ests = refs + 0.1 * rng.standard_normal((3, 1000))
        base = resolve_permutation(refs, ests)
        scaled = ests * np.array([[0.1], [5.0], [2.0]])
        assert resolve_permutation(refs, scaled) == base

    def test_large_k_recovers_known_shuffle(self, rng):
        refs = rng.standard_normal((8, 4000))
        shuffle = tuple(int(j) for j in rng.permutation(8))
        ests = np.empty_like(refs)
        for i, j in enumerate(shuffle):
            ests[j] = refs[i] + orthogonal_noise(rng, refs[i], 0.1)
        assert resolve_permutation(refs, ests) == shuffle

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, rng, bad):
        refs = rng.standard_normal((2, 400))
        ests = refs[::-1].copy()
        ests[1, 7] = bad
        with pytest.raises(ContractViolationError, match="finite"):
            resolve_permutation(refs, ests)
        with pytest.raises(ContractViolationError, match="finite"):
            resolve_permutation(ests, refs)

    @pytest.mark.parametrize("seed", range(8))
    def test_total_score_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        refs = rng.standard_normal((k, 300))
        ests = rng.standard_normal((k, k)) @ refs + 0.5 * rng.standard_normal((k, 300))
        scores = np.array([[si_sdr(refs[i], ests[j]) for j in range(k)] for i in range(k)])
        best = max(
            sum(scores[i, perm[i]] for i in range(k)) for perm in itertools.permutations(range(k))
        )
        perm = resolve_permutation(refs, ests)
        assert sorted(perm) == list(range(k))
        assert sum(scores[i, perm[i]] for i in range(k)) == pytest.approx(best, abs=1e-9)


class TestSdrImprovement:
    def test_identity_estimate_gives_zero(self, rng):
        images = rng.standard_normal((2, 200))
        mixture = images.sum(axis=0)
        truth = make_truth(images, mixture)
        estimates = np.tile(mixture, (2, 1))
        report = sdr_improvement(truth, estimates, segment_len=100)
        np.testing.assert_allclose(report.overall_improvement, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.segment_improvement, 0.0, atol=1e-12)

    def test_clean_images_capped_positive(self, rng):
        images = rng.standard_normal((2, 200))
        mixture = images.sum(axis=0)
        truth = make_truth(images, mixture)
        report = sdr_improvement(truth, images, segment_len=100)
        np.testing.assert_allclose(report.overall_sdr, CAP_DB)
        assert np.all(report.overall_improvement > 0)
        np.testing.assert_allclose(
            report.overall_improvement, CAP_DB - report.overall_input_sdr
        )

    def test_alignment_applied_once_globally(self, rng):
        images = rng.standard_normal((2, 400))
        mixture = images.sum(axis=0)
        truth = make_truth(images, mixture)
        estimates = images[::-1] + 0.01 * rng.standard_normal((2, 400))
        report = sdr_improvement(truth, estimates, segment_len=100)
        assert report.permutation == (1, 0)
        assert np.all(report.segment_improvement > 0)

    def test_length_mismatch_rejected(self, rng):
        images = rng.standard_normal((2, 200))
        truth = make_truth(images, images.sum(axis=0))
        with pytest.raises(ContractViolationError):
            sdr_improvement(truth, images[:, :150])

    def test_rows_schema(self, rng):
        images = rng.standard_normal((2, 200))
        truth = make_truth(images, images.sum(axis=0), sample_rate=100)
        report = sdr_improvement(truth, images, segment_len=100)
        rows = improvement_rows("demo", report)
        assert len(rows) == report.n_segments * 2
        assert rows[0]["method"] == "demo"
        assert rows[0]["segment_index"] == 1
        assert rows[0]["time_s"] == "0.000"
        assert set(rows[0]) == {
            "method", "segment_index", "time_s", "source", "sdr_db", "sdr_improvement_db",
        }
