"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints a ``[criterion NN] PASS/FAIL`` line (run with ``-s`` to
see them live).  The dynamic-scenario experiment (criteria 7 and 8) runs
once as a module fixture; expect a few minutes for the full module.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ivastream.batch import BatchProblem, batch_auxiva
from ivastream.cli import run_moving_experiment, run_separation
from ivastream.linalg import inverse, op_counter
from ivastream.metrics import sdr_improvement, si_sdr
from ivastream.scenario import ScenarioConfig, build
from ivastream.separator import (
    OnlineAuxIva,
    OnlineConfig,
    ip_update_row,
    iss_apply,
    iss_vector,
    project_back,
)
from ivastream.stft import Spectrogram, StftConfig, analyze, synthesize

from conftest import random_complex, random_psd
from oracles import online_frame_reference
from test_batch import super_gaussian_spectrogram


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL  {description}")
        raise
    print(f"[criterion {num:02d}] PASS  {description}")


SEGMENTS_PER_HALF = 15  # 30 s halves at the 2 s default segment


@pytest.fixture(scope="module")
def dynamic_experiment():
    """5-seed moving-source comparison (60 s, source 3 switches at 30 s).

    Each seed-0 arm keeps the fastest update loop of three interleaved runs:
    criterion 8 compares wall clocks, and one run on a shared host can be
    slowed by load that the other arms never see."""
    stft_cfg = StftConfig()
    runs = {}
    for seed in range(5):
        cfg = ScenarioConfig(
            n_src=3, duration_s=60.0, seed=seed, move_source=2, move_time_s=30.0
        )
        truth = build(cfg)
        arms = [("iss", "all"), ("iss", "one"), ("ip", "one")]
        if seed == 0:
            arms.append(("ip", "all"))
            timed_arms, timed_truth = arms, truth
        for method, mode in arms:
            estimates, info = run_moving_experiment(truth, stft_cfg, method, mode)
            report = sdr_improvement(truth, estimates)
            per_segment = report.segment_improvement.mean(axis=0)
            runs[(seed, f"{method}_{mode}")] = {
                "overall": report.mean_overall_improvement,
                "pre": float(per_segment[:SEGMENTS_PER_HALF].mean()),
                "post": float(per_segment[SEGMENTS_PER_HALF:].mean()),
                "update_s": info["update_loop_s"],
            }
    for _ in range(2):
        for method, mode in timed_arms:
            _, info = run_moving_experiment(timed_truth, stft_cfg, method, mode)
            run = runs[(0, f"{method}_{mode}")]
            run["update_s"] = min(run["update_s"], info["update_loop_s"])
    return runs


def test_criterion_01_batch_iss_equivalence(rng):
    with criterion(1, "batch ISS matrix/in-place paths agree to 1e-8 per sweep"):
        mixing = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        spec, _ = super_gaussian_spectrogram(rng, 3, 64, 8, mixing=mixing)
        start = time.perf_counter()
        for sweeps in range(1, 11):
            a = batch_auxiva(BatchProblem(spec, n_iter=sweeps), "iss")
            b = batch_auxiva(BatchProblem(spec, n_iter=sweeps), "iss_inplace")
            scale = np.max(np.abs(a.separated.data))
            assert np.max(np.abs(a.separated.data - b.separated.data)) <= 1e-8 * scale
        assert time.perf_counter() - start < 60.0


def test_criterion_02_monotone_surrogate_descent():
    with criterion(2, "batch IP and ISS costs non-increasing (20 seeds, 1e-9 slack)"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mixing = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            spec, _ = super_gaussian_spectrogram(rng, 2, 48, 6, mixing=mixing)
            for method in ("ip", "iss"):
                trace = batch_auxiva(BatchProblem(spec, n_iter=6), method).cost_trace
                assert np.all(np.diff(trace) <= 1e-9)


def test_criterion_03_iss_stationarity_and_normalization():
    with criterion(3, "ISS index update: unit quadratic form and zero cross terms (1e-10)"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n_src = int(rng.integers(2, 5))
            n_bins = 6
            w = random_complex(rng, n_bins, n_src, n_src) + 2 * np.eye(n_src)
            u = random_psd(rng, n_src, batch=(n_src, n_bins))
            k = int(rng.integers(n_src))
            row_pre = np.conj(w[:, k, :])
            w_new = iss_apply(w, iss_vector(w, u, k), k)
            row_post = np.conj(w_new[:, k, :])
            unit = np.einsum("fi,fij,fj->f", np.conj(row_post), u[k], row_post).real
            assert np.max(np.abs(unit - 1.0)) <= 1e-10
            for m in range(n_src):
                if m == k:
                    continue
                row_m = np.conj(w_new[:, m, :])
                cross = np.einsum("fi,fij,fj->f", np.conj(row_m), u[m], row_pre)
                assert np.max(np.abs(cross)) <= 1e-10


def test_criterion_04_column_locality_asymmetry():
    with criterion(4, "ISS leaves other steering columns fixed (1e-10); IP does not"):
        ip_moves = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n_src, n_bins = 3, 5
            w = random_complex(rng, n_bins, n_src, n_src) + 2 * np.eye(n_src)
            u = random_psd(rng, n_src, batch=(n_src, n_bins))
            k = int(rng.integers(n_src))
            a_before = inverse(w)

            w_iss = iss_apply(w, iss_vector(w, u, k), k)
            a_iss = inverse(w_iss)
            for m in range(n_src):
                if m == k:
                    continue
                change = np.max(np.abs(a_iss[:, :, m] - a_before[:, :, m]))
                assert change <= 1e-10 * np.max(np.abs(a_before[:, :, m]))

            w_ip = w.copy()
            w_ip[:, k, :] = np.conj(ip_update_row(w, u[k], k))
            a_ip = inverse(w_ip)
            ip_moves.append(
                max(
                    np.max(np.abs(a_ip[:, :, m] - a_before[:, :, m]))
                    / np.max(np.abs(a_before[:, :, m]))
                    for m in range(n_src)
                    if m != k
                )
            )
        assert min(ip_moves) > 1e-6  # the IP analogue fails on generic inputs


def test_criterion_05_inverse_free_hot_path_and_flop_scaling(rng):
    with criterion(5, "zero solves in the ISS path; IP/ISS row-update flops scale K^3 vs K^2"):
        n_bins = 257
        ratios = {}
        for n_src in (2, 4, 8):
            x = random_complex(rng, n_bins, n_src)
            one = lambda t: (0,)
            iss = OnlineAuxIva(n_bins, n_src, OnlineConfig(method="iss", n_iter=1, selector=one))
            op_counter.reset()
            iss.process_frame(x)
            assert op_counter.solves == 0 and op_counter.inversions == 0
            ip = OnlineAuxIva(n_bins, n_src, OnlineConfig(method="ip", n_iter=1, selector=one))
            ip.process_frame(x)
            assert op_counter.solves > 0  # same audit sees the IP solves
            ratios[n_src] = ip.flops.ip_update / iss.flops.iss_apply
        # per-source demixing-update cost ratio grows linearly in K (+-30%)
        assert 2.0 * 0.7 <= ratios[4] / ratios[2] <= 2.0 * 1.3
        assert 2.0 * 0.7 <= ratios[8] / ratios[4] <= 2.0 * 1.3


def test_criterion_06_static_separation_quality():
    with criterion(6, "static 30 s scenario: ISS(all) >= 10 dB, IP(all) within 2 dB"):
        truth = build(ScenarioConfig(n_src=3, duration_s=30.0, seed=1))
        stft_cfg = StftConfig()
        start = time.perf_counter()
        improvements = {}
        for method in ("iss", "ip"):
            estimates, _ = run_separation(
                truth.mixtures, stft_cfg, OnlineConfig(method=method)
            )
            improvements[method] = sdr_improvement(truth, estimates).mean_overall_improvement
        elapsed = time.perf_counter() - start
        assert improvements["iss"] >= 10.0
        assert abs(improvements["iss"] - improvements["ip"]) <= 2.0
        assert elapsed <= 300.0


@pytest.mark.slow
def test_criterion_07_dynamic_scenario_orderings(dynamic_experiment):
    with criterion(7, "moving source: ISS(one) tracks, IP(one) does not (5-seed medians)"):
        runs = dynamic_experiment
        med = lambda label, field: float(
            np.median([runs[(seed, label)][field] for seed in range(5)])
        )
        assert med("iss_one", "overall") >= med("iss_all", "overall") - 2.0
        assert med("iss_one", "overall") >= med("ip_one", "overall") + 3.0
        ip_recovery = np.median(
            [runs[(s, "ip_one")]["post"] - runs[(s, "ip_one")]["pre"] for s in range(5)]
        )
        assert ip_recovery <= 0.0
        iss_gap = np.median(
            [runs[(s, "iss_one")]["pre"] - runs[(s, "iss_one")]["post"] for s in range(5)]
        )
        assert iss_gap <= 3.0


@pytest.mark.slow
def test_criterion_08_runtime_orderings(dynamic_experiment):
    with criterion(8, "update-loop wall clock: one < all for both ISS and IP"):
        runs = dynamic_experiment
        assert runs[(0, "iss_one")]["update_s"] < runs[(0, "iss_all")]["update_s"]
        assert runs[(0, "ip_one")]["update_s"] < runs[(0, "ip_all")]["update_s"]


def test_criterion_09_stft_round_trip(rng):
    with criterion(9, "STFT round trip within 1e-6 on interior samples"):
        cfg = StftConfig()
        signal = rng.standard_normal((3, 32000))
        rec = synthesize(analyze(signal, cfg), cfg, n_samples=32000)
        interior = slice(cfg.frame_len, 32000 - cfg.frame_len)
        err = np.max(np.abs(rec[:, interior] - signal[:, interior]))
        assert err <= 1e-6 * np.max(np.abs(signal[:, interior]))


def test_criterion_10_metric_correctness(rng):
    with criterion(10, "orthogonal-noise SI-SDR = 20 dB (1e-6); projection identity (1e-10)"):
        s = rng.standard_normal(32000)
        noise = rng.standard_normal(32000)
        noise -= np.dot(noise, s) / np.dot(s, s) * s
        noise *= np.sqrt(0.01 * np.dot(s, s) / np.dot(noise, noise))
        assert si_sdr(s, s + noise) == pytest.approx(20.0, abs=1e-6)

        n_src, n_bins = 3, 16
        w = random_complex(rng, n_bins, n_src, n_src) + 2 * np.eye(n_src)
        x = random_complex(rng, n_bins, n_src)
        y = np.einsum("fkj,fj->fk", w, x)
        restored = project_back(w, y)
        assert np.max(np.abs(restored.sum(axis=1) - x[:, 0])) <= 1e-10


def test_criterion_11_online_single_frame_oracle():
    with criterion(11, "process_frame matches the straight-line transcription to 1e-12"):
        for n_src in (2, 3):
            for method in ("iss", "ip"):
                for n_iter in (1, 2):
                    rng = np.random.default_rng(100 * n_src + 10 * n_iter)
                    n_bins = 5
                    engine = OnlineAuxIva(
                        n_bins, n_src, OnlineConfig(method=method, n_iter=n_iter, alpha=0.95)
                    )
                    w0 = random_complex(rng, n_bins, n_src, n_src) + 2 * np.eye(n_src)
                    u0 = random_psd(rng, n_src, batch=(n_src, n_bins))
                    engine.set_state(demix=w0, covariance=u0)
                    x = random_complex(rng, n_bins, n_src)
                    y = engine.process_frame(x)
                    y_ref, w_ref, u_ref = online_frame_reference(
                        w0, u0, x, 0.95, n_iter, range(n_src), method
                    )
                    np.testing.assert_allclose(y, y_ref, atol=1e-12)
                    np.testing.assert_allclose(engine.demix, w_ref, atol=1e-12)
                    np.testing.assert_allclose(engine.covariance, u_ref, atol=1e-12)
