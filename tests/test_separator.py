"""Engine-level contracts: update rules, invariants, streaming behaviour."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivastream.errors import ContractViolationError, DegenerateUpdateError
from ivastream.linalg import inverse, op_counter
from ivastream.separator import (
    MAX_EVENTS,
    ContrastModel,
    DiagnosticsLog,
    FlopCounter,
    OnlineAuxIva,
    OnlineConfig,
    UpdateSchedule,
    ip_update_row,
    iss_apply,
    iss_vector,
    project_back,
)

from conftest import random_complex, random_psd
from oracles import online_frame_reference


def random_state(rng, n_src, n_bins):
    """Well-scaled random demixing + covariance stacks."""
    w = random_complex(rng, n_bins, n_src, n_src) + 2 * np.eye(n_src)
    u = random_psd(rng, n_src, batch=(n_src, n_bins))
    return w, u


class TestContrastModel:
    def test_laplace_weight(self):
        assert ContrastModel("laplace", 1).weight(2.0) == pytest.approx(0.25)

    def test_gauss_weight(self):
        assert ContrastModel("gauss", 8).weight(2.0) == pytest.approx(2.0)

    def test_flooring(self):
        assert ContrastModel("laplace", 1).weight(0.0) == pytest.approx(0.5e8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolationError):
            ContrastModel("cauchy", 1)
        with pytest.raises(ContractViolationError):
            OnlineConfig(contrast="cauchy")

    def test_bin_count_has_no_default(self):
        with pytest.raises(TypeError):
            ContrastModel("gauss")

    def test_engine_takes_bin_count_from_its_data(self):
        engine = OnlineAuxIva(513, 3, OnlineConfig(contrast="gauss"))
        assert engine.model.kind == "gauss"
        assert engine.model.n_bins == 513


class TestIpUpdateRow:
    def test_identity_fixed_point(self):
        np.testing.assert_allclose(ip_update_row(np.eye(2), np.eye(2), 0), [1.0, 0.0])

    def test_diagonal_closed_form(self):
        out = ip_update_row(np.eye(2), np.diag([4.0, 1.0]), 0)
        np.testing.assert_allclose(out, [0.5, 0.0])

    def test_defining_equation_residual(self, rng):
        n_src = 3
        w = random_complex(rng, n_src, n_src) + 2 * np.eye(n_src)
        u = random_psd(rng, n_src)
        k = 1
        vec = ip_update_row(w, u, k)
        quad = (np.conj(vec) @ u @ vec).real
        assert quad == pytest.approx(1.0, abs=1e-10)
        replaced = w.copy()
        replaced[k] = np.conj(vec)
        probe = replaced @ u @ vec
        for m in range(n_src):
            if m != k:
                assert abs(probe[m]) <= 1e-10

    def test_nonpositive_quadratic_form_raises(self, rng):
        w = random_complex(rng, 2, 2) + 2 * np.eye(2)
        with pytest.raises(DegenerateUpdateError):
            ip_update_row(w, -np.eye(2), 0)

    def test_singular_solve_names_bad_bins(self, rng):
        n_src, n_bins, k = 3, 5, 1
        w, u = random_state(rng, n_src, n_bins)
        u_k = u[k].copy()
        u_k[[1, 3]] = 0.0  # W U_k = 0 on these bins
        with pytest.raises(DegenerateUpdateError) as excinfo:
            ip_update_row(w, u_k, k)
        assert excinfo.value.context == (k, (1, 3))

    @pytest.mark.parametrize("n_src", [1, 3])
    def test_matches_engine_row_bitwise(self, rng, n_src):
        n_bins, k = 6, n_src - 1
        engine = OnlineAuxIva(
            n_bins, n_src, OnlineConfig(method="ip", n_iter=1, selector=lambda t: (k,))
        )
        w0, u0 = random_state(rng, n_src, n_bins)
        engine.demix[:] = w0
        engine.covariance[:] = u0
        engine.process_frame(random_complex(rng, n_bins, n_src))
        expected = np.conj(ip_update_row(w0, engine.covariance[k], k))
        assert np.array_equal(engine.demix[:, k, :], expected)


class TestIssVector:
    def test_identity_fixed_point(self):
        w = np.tile(np.eye(2, dtype=complex), (1, 1, 1))
        u = np.tile(np.eye(2, dtype=complex), (2, 1, 1, 1))
        np.testing.assert_allclose(iss_vector(w, u, 0)[0], [0.0, 0.0], atol=1e-15)

    def test_scaled_identity_closed_form(self):
        w = np.eye(2, dtype=complex)
        u = np.tile(4.0 * np.eye(2, dtype=complex), (2, 1, 1))
        np.testing.assert_allclose(iss_vector(w, u, 0), [0.5, 0.0], atol=1e-15)

    def test_degenerate_denominator_raises(self):
        w = np.eye(2, dtype=complex)
        u = np.zeros((2, 2, 2), dtype=complex)
        with pytest.raises(DegenerateUpdateError):
            iss_vector(w, u, 0)


class TestIssApply:
    def test_zero_vector_is_noop(self, rng):
        w = random_complex(rng, 3, 3)
        np.testing.assert_array_equal(iss_apply(w, np.zeros(3), 1), w)

    def test_forced_arithmetic(self):
        out = iss_apply(np.eye(2, dtype=complex), np.array([0.5, 0.0]), 0)
        np.testing.assert_allclose(out, np.diag([0.5, 1.0]))

    def test_degenerate_diagonal_raises(self, rng):
        w = random_complex(rng, 2, 2)
        with pytest.raises(DegenerateUpdateError):
            iss_apply(w, np.array([1.0, 0.3]), 0)

    def test_returns_a_new_array(self, rng):
        engine = OnlineAuxIva(5, 3)
        engine.demix[:] = random_complex(rng, 5, 3, 3)
        before = engine.demix.copy()
        v = random_complex(rng, 5, 3)
        out = iss_apply(engine.demix, v, 1)
        assert np.array_equal(engine.demix, before)
        assert not np.shares_memory(out, engine.demix)
        expected = before - v[:, :, None] * before[:, 1, None, :]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15 * np.max(np.abs(expected)))


class TestIssInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_normalization_and_stationarity(self, seed):
        rng = np.random.default_rng(seed)
        n_src, n_bins = 4, 6
        w, u = random_state(rng, n_src, n_bins)
        k = int(rng.integers(n_src))
        row_pre = np.conj(w[:, k, :])
        v = iss_vector(w, u, k)
        w_new = iss_apply(w, v, k)
        row_post = np.conj(w_new[:, k, :])
        norm = np.einsum("fi,fij,fj->f", np.conj(row_post), u[k], row_post).real
        np.testing.assert_allclose(norm, 1.0, atol=1e-10)
        for m in range(n_src):
            if m == k:
                continue
            wm = np.conj(w_new[:, m, :])
            cross = np.einsum("fi,fij,fj->f", np.conj(wm), u[m], row_pre)
            assert np.max(np.abs(cross)) <= 1e-10

    def test_identity_sweep_is_exact_fixed_point(self):
        n_src, n_bins = 3, 4
        w = np.tile(np.eye(n_src, dtype=complex), (n_bins, 1, 1))
        u = np.tile(np.eye(n_src, dtype=complex), (n_src, n_bins, 1, 1))
        for k in range(n_src):
            w = iss_apply(w, iss_vector(w, u, k), k)
        assert np.max(np.abs(w - np.eye(n_src))) <= 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_column_locality_iss_vs_ip(self, seed):
        rng = np.random.default_rng(seed)
        n_src, n_bins = 3, 5
        w, u = random_state(rng, n_src, n_bins)
        k = 1
        a_before = inverse(w)

        w_iss = iss_apply(w, iss_vector(w, u, k), k)
        a_iss = inverse(w_iss)
        for m in range(n_src):
            change = np.max(np.abs(a_iss[:, :, m] - a_before[:, :, m]))
            scale = np.max(np.abs(a_before[:, :, m]))
            if m == k:
                continue
            assert change <= 1e-10 * scale

        w_ip = w.copy()
        w_ip[:, k, :] = np.conj(ip_update_row(w, u[k], k))
        a_ip = inverse(w_ip)
        off_change = max(
            np.max(np.abs(a_ip[:, :, m] - a_before[:, :, m])) / np.max(np.abs(a_before[:, :, m]))
            for m in range(n_src)
            if m != k
        )
        assert off_change > 1e-3  # generic IP row update moves other steering columns


class TestProjectBack:
    def test_identity_demixing(self):
        w = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
        y = random_complex(np.random.default_rng(0), 3, 2)
        out = project_back(w, y)
        np.testing.assert_allclose(out[:, 0], y[:, 0])
        np.testing.assert_allclose(out[:, 1], 0.0)

    def test_diagonal_demixing(self):
        w = np.tile(np.diag([2.0, 0.5]).astype(complex), (3, 1, 1))
        y = np.ones((3, 2), dtype=complex)
        out = project_back(w, y)
        np.testing.assert_allclose(out[:, 0], 0.5)
        np.testing.assert_allclose(out[:, 1], 0.0)

    def test_reconstruction_identity(self, rng):
        n_src, n_bins = 3, 7
        w = random_complex(rng, n_bins, n_src, n_src) + 2 * np.eye(n_src)
        x = random_complex(rng, n_bins, n_src)
        y = np.einsum("fkj,fj->fk", w, x)
        out = project_back(w, y)
        np.testing.assert_allclose(out.sum(axis=1), x[:, 0], atol=1e-10)

    def test_frame_shape_enforced(self, rng):
        # an (F, T, K) spectrogram with T == F would broadcast silently
        w = random_complex(rng, 4, 2, 2) + 2 * np.eye(2)
        with pytest.raises(ContractViolationError):
            project_back(w, random_complex(rng, 4, 4, 2))


class TestEngine:
    def frames(self, rng, n, n_bins, n_src, scale=1.0):
        return scale * random_complex(rng, n, n_bins, n_src)

    @pytest.mark.parametrize("method", ["iss", "ip"])
    @pytest.mark.parametrize("n_src", [2, 3])
    @pytest.mark.parametrize("n_iter", [1, 2])
    def test_single_frame_matches_reference(self, method, n_src, n_iter):
        rng = np.random.default_rng(n_src * 10 + n_iter)
        n_bins = 6
        engine = OnlineAuxIva(
            n_bins, n_src, OnlineConfig(method=method, n_iter=n_iter, alpha=0.97)
        )
        w0, u0 = random_state(rng, n_src, n_bins)
        engine.demix[:] = w0
        engine.covariance[:] = u0
        x = random_complex(rng, n_bins, n_src)
        y = engine.process_frame(x)
        y_ref, w_ref, u_ref = online_frame_reference(
            w0, u0, x, 0.97, n_iter, range(n_src), method
        )
        np.testing.assert_allclose(y, y_ref, atol=1e-12)
        np.testing.assert_allclose(engine.demix, w_ref, atol=1e-12)
        np.testing.assert_allclose(engine.covariance, u_ref, atol=1e-12)

    def test_gauss_contrast_matches_reference(self):
        rng = np.random.default_rng(8)
        n_bins, n_src = 6, 2
        engine = OnlineAuxIva(
            n_bins, n_src, OnlineConfig(method="iss", alpha=0.9, contrast="gauss")
        )
        w0, u0 = random_state(rng, n_src, n_bins)
        engine.demix[:] = w0
        engine.covariance[:] = u0
        x = random_complex(rng, n_bins, n_src)
        y = engine.process_frame(x)
        y_ref, w_ref, _ = online_frame_reference(
            w0, u0, x, 0.9, 2, range(n_src), "iss", kind="gauss"
        )
        np.testing.assert_allclose(y, y_ref, atol=1e-12)
        np.testing.assert_allclose(engine.demix, w_ref, atol=1e-12)

    def test_empty_switch_set_rejected(self):
        with pytest.raises(ContractViolationError):
            UpdateSchedule.switch_to(3, [], 10)

    def test_switch_before_frame_1_rejected(self):
        # frames are 1-based: frame 0 or below would silently mean frame 1
        with pytest.raises(ContractViolationError, match="1-based"):
            UpdateSchedule.switch_to(3, 0, 0)
        assert UpdateSchedule.switch_to(3, 0, 1).indices(1) == (0,)

    def test_iss_path_is_inverse_free(self, rng):
        engine = OnlineAuxIva(16, 3, OnlineConfig(method="iss"))
        op_counter.reset()
        for x in self.frames(rng, 20, 16, 3):
            engine.process_frame(x)
        assert op_counter.solves == 0
        assert op_counter.inversions == 0

    def test_ip_path_counts_solves(self, rng):
        engine = OnlineAuxIva(16, 3, OnlineConfig(method="ip", n_iter=2))
        op_counter.reset()
        engine.process_frame(self.frames(rng, 1, 16, 3)[0])
        assert op_counter.solves == 16 * 3 * 2

    def test_deterministic_trajectories(self, rng):
        frames = self.frames(rng, 30, 8, 2)
        outputs = []
        for _ in range(2):
            engine = OnlineAuxIva(8, 2, OnlineConfig(method="iss"))
            ys = [engine.process_frame(x) for x in frames]
            outputs.append((np.stack(ys), engine.demix.copy(), engine.covariance.copy()))
        assert np.array_equal(outputs[0][0], outputs[1][0])
        assert np.array_equal(outputs[0][1], outputs[1][1])
        assert np.array_equal(outputs[0][2], outputs[1][2])

    def test_scalar_case_renormalizes(self, rng):
        engine = OnlineAuxIva(4, 1, OnlineConfig(method="iss"))
        for x in self.frames(rng, 5, 4, 1):
            engine.process_frame(x)
        w = engine.demix[:, 0, 0]
        assert np.all(w.real > 0) and np.allclose(w.imag, 0.0)
        quad = (np.abs(w) ** 2 * engine.covariance[0, :, 0, 0].real)
        np.testing.assert_allclose(quad, 1.0, atol=1e-10)

    def test_zero_frame_step_through(self):
        # hand check: x = 0 decays U to 0.99 * 0.001 * I and the first ISS
        # pass rescales each row to w^H U w = 1, i.e. W = sqrt(1/0.00099) I;
        # the second pass then sees a unit quadratic form and does nothing.
        engine = OnlineAuxIva(3, 2, OnlineConfig(method="iss", alpha=0.99, n_iter=2))
        engine.process_frame(np.zeros((3, 2), dtype=complex))
        expected_cov = np.broadcast_to(0.00099 * np.eye(2), (2, 3, 2, 2))
        np.testing.assert_allclose(engine.covariance, expected_cov, atol=1e-18)
        expected_w = np.broadcast_to(np.eye(2) / np.sqrt(0.00099), (3, 2, 2))
        np.testing.assert_allclose(engine.demix, expected_w, rtol=1e-12)

    def test_hermitian_state_is_preserved_bitwise(self, rng):
        engine = OnlineAuxIva(8, 3, OnlineConfig(method="iss"))
        for x in self.frames(rng, 10, 8, 3):
            engine.process_frame(x)
        u = engine.covariance
        assert np.array_equal(u, np.conj(np.swapaxes(u, -1, -2)))

    @pytest.mark.parametrize("method", ["iss", "ip"])
    @pytest.mark.parametrize("n_src", [1, 2, 8])
    def test_hermitian_state_across_channel_counts(self, rng, method, n_src):
        engine = OnlineAuxIva(8, n_src, OnlineConfig(method=method))
        for x in self.frames(rng, 10, 8, n_src):
            engine.process_frame(x)
        u = engine.covariance
        assert np.array_equal(u, np.conj(np.swapaxes(u, -1, -2)))
        # and positive semidefinite, up to rounding
        trace = np.trace(u, axis1=-2, axis2=-1).real
        assert np.all(np.linalg.eigvalsh(u).min(axis=-1) >= -1e-12 * trace)

    @pytest.mark.parametrize("method", ["iss", "ip"])
    @pytest.mark.parametrize("n_src", [2, 3, 8])
    def test_multi_frame_matches_reference(self, method, n_src):
        # update_period=2: even frames run one refresh pass and no index
        # update, so each frame's blend base must be the previous frame's
        # persisted covariance, never a partially updated one
        rng = np.random.default_rng(100 + n_src)
        n_bins, n_iter, alpha = 6, 2, 0.9
        engine = OnlineAuxIva(
            n_bins, n_src, OnlineConfig(method=method, n_iter=n_iter, alpha=alpha, update_period=2)
        )
        w_ref, u_ref = random_state(rng, n_src, n_bins)
        engine.demix[:] = w_ref
        engine.covariance[:] = u_ref
        for t, x in enumerate(self.frames(rng, 10, n_bins, n_src), start=1):
            y = engine.process_frame(x)
            update = (t - 1) % 2 == 0
            y_ref, w_ref, u_ref = online_frame_reference(
                w_ref, u_ref, x, alpha, n_iter if update else 1,
                range(n_src) if update else (), method,
            )
            np.testing.assert_allclose(y, y_ref, atol=1e-12)
            np.testing.assert_allclose(engine.demix, w_ref, atol=1e-12)
            np.testing.assert_allclose(engine.covariance, u_ref, atol=1e-12)

    def test_update_period_skips_demixing_only(self, rng):
        engine = OnlineAuxIva(8, 2, OnlineConfig(method="iss", update_period=3))
        frames = self.frames(rng, 7, 8, 2)
        snapshots = []
        covariances = []
        for x in frames:
            engine.process_frame(x)
            snapshots.append(engine.demix.copy())
            covariances.append(engine.covariance.copy())
        # frames 1, 4, 7 update (1-based); others freeze W but refresh U
        assert np.array_equal(snapshots[0], snapshots[1])
        assert np.array_equal(snapshots[1], snapshots[2])
        assert not np.array_equal(snapshots[2], snapshots[3])
        assert not np.array_equal(covariances[0], covariances[1])

    def test_selector_switch_restricts_updates(self, rng):
        n_bins, n_src, moving = 8, 3, 1
        schedule = UpdateSchedule.switch_to(n_src, moving, switch_frame=4)
        iss = OnlineAuxIva(n_bins, n_src, OnlineConfig(method="iss", selector=schedule))
        ip = OnlineAuxIva(n_bins, n_src, OnlineConfig(method="ip", selector=schedule))
        frames = self.frames(rng, 6, n_bins, n_src)
        for t, x in enumerate(frames, start=1):
            w_ip_before = ip.demix.copy()
            w_iss_before = iss.demix.copy()
            iss.process_frame(x)
            ip.process_frame(x)
            if t >= 4:
                # IP touches only the moving row; ISS moves only the moving
                # steering column of the inverse (its defining flexibility)
                for m in range(n_src):
                    if m == moving:
                        continue
                    assert np.array_equal(ip.demix[:, m, :], w_ip_before[:, m, :])
                    a_before = inverse(w_iss_before)[:, :, m]
                    a_after = inverse(iss.demix)[:, :, m]
                    np.testing.assert_allclose(
                        a_after, a_before, atol=1e-10 * np.max(np.abs(a_before))
                    )

    @pytest.mark.parametrize("method", ["iss", "ip"])
    def test_degenerate_bins_freeze_and_log(self, method):
        engine = OnlineAuxIva(4, 2, OnlineConfig(method=method, alpha=0.0, n_iter=1))
        before = engine.demix.copy()
        y = engine.process_frame(np.zeros((4, 2), dtype=complex))
        assert np.array_equal(engine.demix, before)
        np.testing.assert_array_equal(y, 0.0)
        assert engine.diagnostics.total == 4 * 2  # every bin, both sources
        event = engine.diagnostics.events[0]
        assert event["t"] == 1 and event["kind"].startswith(method)

    def test_diagnostics_log_keeps_max_events_and_counts_all(self):
        log = DiagnosticsLog()
        log.record("iss_degenerate", 1, 0, np.arange(MAX_EVENTS - 3))
        log.record("ip_degenerate", 2, 1, np.arange(8))  # crosses the cap
        assert len(log.events) == MAX_EVENTS
        assert log.total == MAX_EVENTS + 5
        assert log.events[-1] == {"kind": "ip_degenerate", "t": 2, "f": 2, "k": 1}

    @pytest.mark.parametrize(
        "method, n_src, updated",
        [("iss", 1, (0,)), ("ip", 1, (0,)), ("iss", 3, (1,))],
    )
    def test_partly_degenerate_frame_freezes_only_bad_bins(self, rng, method, n_src, updated):
        # alpha=0 leaves U = phi x x^H: zero bins get U = 0 and degenerate,
        # the others stay updatable.  With K > 1 that U has rank 1, which
        # makes every IP solve singular and a second ISS index degenerate,
        # so those cases update one source at K = 1, or one index at K = 3.
        n_bins = 8
        bad = np.array([1, 4, 5])
        engine = OnlineAuxIva(
            n_bins, n_src,
            OnlineConfig(method=method, alpha=0.0, n_iter=1, selector=lambda t: updated),
        )
        x = self.frames(rng, 1, n_bins, n_src)[0]
        x[bad] = 0.0
        before = engine.demix.copy()
        engine.process_frame(x)
        good = np.setdiff1d(np.arange(n_bins), bad)
        assert np.array_equal(engine.demix[bad], before[bad])
        assert all(not np.array_equal(engine.demix[f], before[f]) for f in good)
        assert engine.diagnostics.total == bad.size * len(updated)
        assert {e["f"] for e in engine.diagnostics.events} == set(bad.tolist())

    @pytest.mark.parametrize("method", ["iss", "ip"])
    @pytest.mark.parametrize("n_src", [1, 3])
    @pytest.mark.parametrize("split", [3, 4])
    def test_chunked_separate_continues_the_stream(self, rng, method, n_src, split):
        # update_period=2 updates on odd 1-based frames, so split=3 resumes
        # the stream on a skip frame and split=4 on an update frame
        n_bins, n_frames = 6, 9
        data = self.frames(rng, n_src, n_frames, n_bins)
        cfg = OnlineConfig(method=method, update_period=2)
        whole = OnlineAuxIva(n_bins, n_src, cfg)
        expected, _ = whole.separate(data)
        engine = OnlineAuxIva(n_bins, n_src, cfg)
        head, _ = engine.separate(data[:, :split])
        rest, _ = engine.separate(data[:, split:])
        assert np.array_equal(np.concatenate([head.data, rest.data], axis=1), expected.data)
        assert np.array_equal(engine.demix, whole.demix)
        assert np.array_equal(engine.covariance, whole.covariance)

    def test_raising_ip_frame_leaves_state_unchanged(self, rng):
        # a frame with a non-finite bin raises in the IP solve; the engine
        # keeps the last completed frame's state and the stream goes on
        n_bins, n_src = 9, 3
        engine = OnlineAuxIva(n_bins, n_src, OnlineConfig(method="ip"))
        frames = self.frames(rng, 22, n_bins, n_src)
        for x in frames[:20]:
            engine.process_frame(x)
        demix, covariance = engine.demix.copy(), engine.covariance.copy()
        bad = frames[20].copy()
        bad[4, 1] = np.nan
        with pytest.raises(ContractViolationError):
            engine.process_frame(bad)
        assert np.array_equal(engine.demix, demix)
        assert np.array_equal(engine.covariance, covariance)
        assert np.all(np.isfinite(engine.process_frame(frames[21])))

    def test_alpha_outside_unit_interval_rejected(self):
        with pytest.raises(ContractViolationError):
            OnlineConfig(alpha=1.0)
        with pytest.raises(ContractViolationError):
            OnlineConfig(alpha=-0.1)

    def test_frame_shape_validated(self):
        engine = OnlineAuxIva(4, 2)
        with pytest.raises(ContractViolationError):
            engine.process_frame(np.zeros((5, 2), dtype=complex))

    def test_selector_index_validated(self, rng):
        engine = OnlineAuxIva(4, 2, OnlineConfig(selector=lambda t: (5,)))
        with pytest.raises(ContractViolationError):
            engine.process_frame(self.frames(rng, 1, 4, 2)[0])

    def test_flop_attribution_matches_formulas(self, rng):
        n_bins, n_src = 8, 3
        engine = OnlineAuxIva(
            n_bins, n_src, OnlineConfig(method="iss", n_iter=1, selector=lambda t: (0,))
        )
        engine.process_frame(self.frames(rng, 1, n_bins, n_src)[0])
        assert engine.flops.activity == FlopCounter.activity_flops(n_src, n_bins)
        assert engine.flops.covariance == n_src * FlopCounter.covariance_flops(n_src, n_bins)
        assert engine.flops.iss_coefficients == FlopCounter.iss_coefficient_flops(n_src, n_bins)
        assert engine.flops.iss_apply == FlopCounter.iss_apply_flops(n_src, n_bins)
        assert engine.flops.ip_update == 0

    def test_steady_state_allocations_bounded(self, rng):
        engine = OnlineAuxIva(64, 3, OnlineConfig(method="iss"))
        frames = self.frames(rng, 60, 64, 3)
        for x in frames[:10]:  # warm-up
            engine.process_frame(x)
        tracemalloc.start()
        baseline = tracemalloc.get_traced_memory()[0]
        for x in frames[10:]:
            engine.process_frame(x)
        growth = tracemalloc.get_traced_memory()[0] - baseline
        tracemalloc.stop()
        assert growth < 256_000  # temporaries are freed; state does not grow


class TestEngineLayoutProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n_src=st.integers(1, 4),
        n_bins=st.integers(1, 9),
        method=st.sampled_from(["iss", "ip"]),
        n_iter=st.sampled_from([1, 2]),
        update_period=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_state_views_and_frames_match_reference(
        self, n_src, n_bins, method, n_iter, update_period, seed
    ):
        # each pair of frames restarts from a state written through the
        # views, once before the stream and once mid-stream
        rng = np.random.default_rng(seed)
        alpha = 0.9
        engine = OnlineAuxIva(
            n_bins, n_src,
            OnlineConfig(method=method, n_iter=n_iter, alpha=alpha, update_period=update_period),
        )
        frames = random_complex(rng, 4, n_bins, n_src)
        for t, x in enumerate(frames, start=1):
            if t % 2 == 1:
                w_ref, u_ref = random_state(rng, n_src, n_bins)
                engine.demix[:] = w_ref
                engine.covariance[:] = u_ref
            y = engine.process_frame(x)
            update = (t - 1) % update_period == 0
            y_ref, w_ref, u_ref = online_frame_reference(
                w_ref, u_ref, x, alpha, n_iter if update else 1,
                range(n_src) if update else (), method,
            )
            np.testing.assert_allclose(y, y_ref, atol=1e-12)
            np.testing.assert_allclose(engine.demix, w_ref, atol=1e-12)
            np.testing.assert_allclose(engine.covariance, u_ref, atol=1e-12)
        assert engine.demix.shape == (n_bins, n_src, n_src)
        assert engine.covariance.shape == (n_src, n_bins, n_src, n_src)
        # views of one state, not copies
        assert np.shares_memory(engine.demix, engine.demix)
        assert np.shares_memory(engine.covariance, engine.covariance)
