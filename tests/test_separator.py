"""Engine-level contracts: update rules, invariants, streaming behaviour."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivastream.batch import cost
from ivastream.errors import ContractViolationError, DegenerateUpdateError
from ivastream.linalg import inverse, op_counter
from ivastream.separator import (
    WARMUP_FRAMES,
    FlopCounter,
    OnlineAuxIva,
    OnlineConfig,
    UpdateSchedule,
    ip_update_row,
    iss_apply,
    iss_vector,
    project_back,
    weight,
)
from ivastream.stft import Spectrogram, StftConfig

from conftest import random_complex, random_psd
from oracles import online_frame_reference


def random_state(rng, n_src, n_bins):
    """Well-scaled random demixing + covariance stacks."""
    w = random_complex(rng, n_bins, n_src, n_src) + 2 * np.eye(n_src)
    u = random_psd(rng, n_src, batch=(n_src, n_bins))
    return w, u


class TestContrastModel:
    """The Laplace contrast's covariance weight phi(r) = 1/(2r)."""

    def test_laplace_weight(self):
        assert weight(2.0) == pytest.approx(0.25)

    def test_flooring(self):
        assert weight(0.0) == pytest.approx(0.5e8)


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
        with pytest.raises(DegenerateUpdateError, match=f"source {k} ") as excinfo:
            ip_update_row(w, u_k, k)
        assert excinfo.value.indices == (1, 3)

    @pytest.mark.parametrize("n_src", [1, 3])
    def test_matches_engine_row_bitwise(self, rng, n_src):
        n_bins, k = 6, n_src - 1
        engine = OnlineAuxIva(
            n_bins, n_src, OnlineConfig(method="ip", n_iter=1, selector=lambda t: (k,))
        )
        w0, u0 = random_state(rng, n_src, n_bins)
        engine.set_state(demix=w0, covariance=u0)
        engine.process_frame(random_complex(rng, n_bins, n_src))
        expected = np.conj(ip_update_row(w0, engine.covariance[k], k))
        assert np.array_equal(engine.demix[:, k, :], expected)


class TestIpSteeringMatrix:
    """The IP path inverts W on its first update frame, keeps that steering
    matrix current through each row update and carries it across frames,
    and inverts W again only after ``set_state(demix=...)``."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_src=st.integers(1, 4),
        n_bins=st.integers(1, 6),
        n_iter=st.sampled_from([1, 2]),
        picks=st.lists(st.integers(0, 3), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_frame_matches_reference(self, n_src, n_bins, n_iter, picks, seed):
        # the index tuple may repeat an index or be empty
        indices = tuple(i % n_src for i in picks)
        rng = np.random.default_rng(seed)
        engine = OnlineAuxIva(
            n_bins, n_src,
            OnlineConfig(method="ip", n_iter=n_iter, alpha=0.9, selector=lambda t: indices),
        )
        w0, u0 = random_state(rng, n_src, n_bins)
        engine.set_state(demix=w0, covariance=u0)
        x = random_complex(rng, n_bins, n_src)
        y = engine.process_frame(x)
        y_ref, w_ref, u_ref = online_frame_reference(
            w0, u0, x, 0.9, n_iter if indices else 1, indices, "ip"
        )
        np.testing.assert_allclose(y, y_ref, atol=1e-12)
        np.testing.assert_allclose(engine.demix, w_ref, atol=1e-12)
        np.testing.assert_allclose(engine.covariance, u_ref, atol=1e-12)
        assert engine.diagnostics.counts == {}

    def test_mid_frame_degenerate_bins_freeze_one_row(self, rng):
        # U_k = 0 on the bad bins (zero previous U_k and a zero frame there):
        # row k freezes there only, and the next index j still sees the
        # partly frozen W through the updated steering matrix
        n_src, n_bins, k, j = 3, 7, 1, 2
        bad = [2, 5]
        good = np.setdiff1d(np.arange(n_bins), bad)
        engine = OnlineAuxIva(
            n_bins, n_src, OnlineConfig(method="ip", n_iter=1, selector=lambda t: (k, j))
        )
        w0, u0 = random_state(rng, n_src, n_bins)
        u0[k, bad] = 0.0
        x = random_complex(rng, n_bins, n_src)
        x[bad] = 0.0
        engine.set_state(demix=w0, covariance=u0)
        engine.process_frame(x)
        u = engine.covariance
        assert np.all(u[k, bad] == 0.0)
        assert engine.diagnostics.counts == {"ip_degenerate": len(bad)}
        assert np.array_equal(engine.demix[bad, k], w0[bad, k])
        w1 = w0.copy()
        w1[good, k] = np.conj(ip_update_row(w0[good], u[k, good], k))
        np.testing.assert_allclose(engine.demix[:, k], w1[:, k], rtol=0, atol=1e-12)
        expected_j = np.conj(ip_update_row(w1, u[j], j))
        for f in range(n_bins):
            np.testing.assert_allclose(engine.demix[f, j], expected_j[f], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_iter", [1, 2])
    def test_singular_demixing_bin_freezes_the_whole_frame(self, rng, n_iter):
        n_src, n_bins, bad = 3, 5, 3
        engine = OnlineAuxIva(n_bins, n_src, OnlineConfig(method="ip", n_iter=n_iter))
        w0, u0 = random_state(rng, n_src, n_bins)
        # numerically singular W on one bin: the LU flags its pivot, though
        # the steering matrix it yields there is finite
        w0[bad, 2] = w0[bad, 0] + 1e-15 * w0[bad, 1]
        engine.set_state(demix=w0, covariance=u0)
        engine.process_frame(random_complex(rng, n_bins, n_src))
        assert np.array_equal(engine.demix[bad], w0[bad])
        assert all(not np.array_equal(engine.demix[f], w0[f]) for f in range(n_bins) if f != bad)
        assert engine.diagnostics.counts == {"ip_degenerate": n_src * n_iter}

    def test_set_state_before_a_frame_with_no_index_is_seen(self, rng):
        # frame 2 names no index and must not vouch for W: frame 3 starts
        # from the W set before frame 2 and needs its inverse
        n_src, n_bins, alpha = 3, 6, 0.9
        engine = OnlineAuxIva(
            n_bins, n_src,
            OnlineConfig(method="ip", n_iter=2, alpha=alpha, selector=lambda t: () if t == 2 else (0, 1, 2)),
        )
        frames = random_complex(rng, 3, n_bins, n_src)
        engine.process_frame(frames[0])
        w_ref = random_state(rng, n_src, n_bins)[0]
        u_ref = engine.covariance.copy()
        engine.set_state(demix=w_ref)
        for t, x in enumerate(frames[1:], start=2):
            y = engine.process_frame(x)
            indices = () if t == 2 else range(n_src)
            y_ref, w_ref, u_ref = online_frame_reference(
                w_ref, u_ref, x, alpha, 2 if indices else 1, indices, "ip"
            )
            np.testing.assert_allclose(y, y_ref, atol=1e-12)
            np.testing.assert_allclose(engine.demix, w_ref, atol=1e-12)
            np.testing.assert_allclose(engine.covariance, u_ref, atol=1e-12)

    def test_carried_steering_matrix_does_not_drift(self):
        # one anchor for a long stream: spherical Laplace sources (a Gaussian
        # vector times the square root of an exponential scale per frame and
        # source) through a fixed random mixing per bin
        n_src, n_bins, n_frames = 3, 8, 3000
        rng = np.random.default_rng(7)
        mixing = random_complex(rng, n_bins, n_src, n_src) + 2 * np.eye(n_src)
        scale = np.sqrt(rng.exponential(size=(n_frames, 1, n_src)))
        sources = scale * random_complex(rng, n_frames, n_bins, n_src)
        frames = np.einsum("fij,tfj->tfi", mixing, sources)
        engine = OnlineAuxIva(n_bins, n_src, OnlineConfig(method="ip"))
        op_counter.reset()
        for x in frames:
            engine.process_frame(x)
        assert op_counter.solves == n_bins
        assert engine.diagnostics.counts == {}
        A = np.moveaxis(engine._A, -1, 0)
        assert np.max(np.abs(A @ engine.demix - np.eye(n_src))) <= 1e-12


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
        engine.set_state(demix=random_complex(rng, 5, 3, 3))
        before = engine.demix.copy()
        v = random_complex(rng, 5, 3)
        out = iss_apply(engine.demix, v, 1)
        assert np.array_equal(engine.demix, before)
        assert not np.shares_memory(out, engine.demix)
        expected = before - v[:, :, None] * before[:, 1, None, :]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15 * np.max(np.abs(expected)))


BAD_BINS = (1, 4)

# each kernel on a 6-bin, K=3 stack whose bins BAD_BINS are unusable: W is
# zero there (singular, and zero ISS denominators), so is W U_k, and v has
# v_k = 1 (an ISS step that would annihilate row k)
KERNELS_ON_BAD_BINS = {
    "inverse": lambda w, u, v, spec, k: inverse(w),
    "ip_update_row": lambda w, u, v, spec, k: ip_update_row(w, u[k], k),
    "iss_vector": lambda w, u, v, spec, k: iss_vector(w, u, k),
    "iss_apply": lambda w, u, v, spec, k: iss_apply(w, v, k),
    "cost": lambda w, u, v, spec, k: cost(w, spec),
}


class TestFailureModel:
    @pytest.mark.parametrize("kernel", KERNELS_ON_BAD_BINS.values(), ids=KERNELS_ON_BAD_BINS.keys())
    def test_every_kernel_names_the_same_bad_bins(self, rng, kernel):
        n_src, n_bins, k = 3, 6, 1
        w, u = random_state(rng, n_src, n_bins)
        w[list(BAD_BINS)] = 0.0
        v = np.zeros((n_bins, n_src), dtype=complex)
        v[list(BAD_BINS), k] = 1.0
        spec = Spectrogram(random_complex(rng, n_src, 8, n_bins))
        with pytest.raises(DegenerateUpdateError) as excinfo:
            kernel(w, u, v, spec, k)
        assert excinfo.value.indices == BAD_BINS
        assert f"at bins {BAD_BINS}" in str(excinfo.value)

    def test_mismatched_leading_shapes_rejected(self, rng):
        # a (3, 3, 3) W against a single-bin (3, 3) U_k or (3,) v would
        # otherwise broadcast
        w, u = random_state(rng, 3, 3)
        cases = [
            ("U_k", lambda: ip_update_row(w, u[0, 0], 0)),
            ("U_k", lambda: ip_update_row(w[0], u[0], 0)),
            ("v", lambda: iss_apply(w, np.zeros(3), 0)),
            ("U_all", lambda: iss_vector(w, u[:, 0], 0)),
        ]
        for name, call in cases:
            with pytest.raises(ContractViolationError, match=f"{name} must have shape"):
                call()


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

    @pytest.mark.parametrize("n_bins", [1, 513])
    @pytest.mark.parametrize("n_src", [1, 2, 3, 5, 8])
    def test_matches_numpy_inverse(self, rng, n_src, n_bins):
        w = random_complex(rng, n_bins, n_src, n_src) + 2 * np.eye(n_src)
        y = random_complex(rng, n_bins, n_src)
        expected = np.linalg.inv(w)[:, 0, :] * y
        np.testing.assert_allclose(project_back(w, y), expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_singular_bin_raises_naming_it(self, rng):
        w = random_complex(rng, 6, 3, 3) + 2 * np.eye(3)
        w[4, 2] = w[4, 0]  # rank 2
        with pytest.raises(DegenerateUpdateError) as excinfo:
            project_back(w, random_complex(rng, 6, 3))
        assert excinfo.value.indices == (4,)

    def test_iss_projection_is_one_inversion_per_bin_and_no_solve(self, rng):
        # the test-suite twin of perfbench's iss_inverse_free check
        n_bins = 33
        engine = OnlineAuxIva(n_bins, 3, OnlineConfig(method="iss"))
        op_counter.reset()
        for t, x in enumerate(random_complex(rng, 20, n_bins, 3), start=1):
            project_back(engine.demix, engine.process_frame(x))
            assert (op_counter.solves, op_counter.inversions) == (0, t * n_bins)

    @pytest.mark.parametrize("method", ["iss", "ip"])
    def test_engine_projection_is_project_back(self, rng, method):
        engine = OnlineAuxIva(6, 3, OnlineConfig(method=method))
        for _ in range(5):
            y = engine.process_frame(random_complex(rng, 6, 3))
        assert np.array_equal(engine.project(y), project_back(engine.demix, y))


class TestEngine:
    def frames(self, rng, n, n_bins, n_src, scale=1.0):
        return scale * random_complex(rng, n, n_bins, n_src)

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
        # one factorisation of W per bin for the first frame that names an
        # index, whatever the number of indices and passes; later frames
        # carry the steering matrix, set_state(demix=...) costs exactly one
        # more factorisation, and set_state(covariance=...) none
        engine = OnlineAuxIva(
            16, 3, OnlineConfig(method="ip", n_iter=2, selector=lambda t: () if t == 3 else (0, 1, 2))
        )
        frames = self.frames(rng, 6, 16, 3)
        op_counter.reset()
        for x in frames[:3]:
            engine.process_frame(x)
        assert op_counter.solves == 16
        engine.set_state(demix=engine.demix * 2.0)
        for x in frames[3:5]:
            engine.process_frame(x)
        assert op_counter.solves == 32
        engine.set_state(covariance=engine.covariance * 2.0)
        engine.process_frame(frames[5])
        assert op_counter.solves == 32

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
        # even frames name no index: they run one refresh pass and no index
        # update, so each frame's blend base must be the previous frame's
        # persisted covariance, never a partially updated one
        rng = np.random.default_rng(100 + n_src)
        n_bins, n_iter, alpha = 6, 2, 0.9
        every = tuple(range(n_src))
        engine = OnlineAuxIva(
            n_bins, n_src,
            OnlineConfig(
                method=method, n_iter=n_iter, alpha=alpha,
                selector=lambda t: every if (t - 1) % 2 == 0 else (),
            ),
        )
        w_ref, u_ref = random_state(rng, n_src, n_bins)
        engine.set_state(demix=w_ref, covariance=u_ref)
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

    def test_skip_frames_refresh_covariance_only(self, rng):
        engine = OnlineAuxIva(
            8, 2, OnlineConfig(method="iss", selector=lambda t: (0, 1) if (t - 1) % 3 == 0 else ())
        )
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

    def test_empty_schedule_runs_one_pass(self, rng):
        # n_iter passes over no index would repeat one identical refresh
        n_bins, n_src, alpha = 6, 3, 0.9
        engine = OnlineAuxIva(
            n_bins, n_src, OnlineConfig(n_iter=2, alpha=alpha, selector=lambda t: ())
        )
        w0, u0 = random_state(rng, n_src, n_bins)
        engine.set_state(demix=w0, covariance=u0)
        x = self.frames(rng, 1, n_bins, n_src)[0]
        y = engine.process_frame(x)
        assert engine.flops.activity == FlopCounter.activity_flops(n_src, n_bins)
        y_ref, w_ref, u_ref = online_frame_reference(w0, u0, x, alpha, 1, (), "iss")
        np.testing.assert_allclose(y, y_ref, atol=1e-12)
        np.testing.assert_allclose(engine.demix, w_ref, atol=1e-12)
        np.testing.assert_allclose(engine.covariance, u_ref, atol=1e-12)

    @pytest.mark.parametrize("method", ["iss", "ip"])
    def test_passes_fall_to_one_after_the_warm_up(self, method):
        # update frames run n_iter passes up to frame WARMUP_FRAMES (3 s at the default hop)
        # and one after; frames that name no index run one refresh pass on either side, and
        # set_state after the warm-up keeps the clock, so it does not re-arm the second pass.
        # Each frame starts the reference from the engine's own state, so the check is per
        # frame and does not accumulate rounding over the 100 frames
        cfg = StftConfig()
        assert WARMUP_FRAMES == round(3.0 * cfg.sample_rate / cfg.hop)
        rng = np.random.default_rng(7 + (method == "ip"))
        n_bins, n_src, n_iter, alpha = 5, 3, 2, 0.9
        every = tuple(range(n_src))
        skipped = (2, WARMUP_FRAMES - 1, WARMUP_FRAMES + 2, WARMUP_FRAMES + 5)
        engine = OnlineAuxIva(
            n_bins, n_src,
            OnlineConfig(method=method, n_iter=n_iter, alpha=alpha,
                         selector=lambda t: () if t in skipped else every),
        )
        per_pass = FlopCounter.activity_flops(n_src, n_bins)
        for t, x in enumerate(self.frames(rng, WARMUP_FRAMES + 6, n_bins, n_src), start=1):
            if t == WARMUP_FRAMES + 3:
                engine.set_state(*random_state(rng, n_src, n_bins))
            w0, u0 = engine.demix.copy(), engine.covariance.copy()
            activity = engine.flops.activity
            y = engine.process_frame(x)
            indices = () if t in skipped else every
            passes = n_iter if indices and t <= WARMUP_FRAMES else 1
            assert engine.flops.activity - activity == passes * per_pass
            y_ref, w_ref, u_ref = online_frame_reference(w0, u0, x, alpha, passes, indices, method)
            np.testing.assert_allclose(y, y_ref, atol=1e-12)
            np.testing.assert_allclose(engine.demix, w_ref, atol=1e-12)
            np.testing.assert_allclose(engine.covariance, u_ref, atol=1e-12)
        assert engine.flops.activity == (2 * WARMUP_FRAMES - 2 + 6) * per_pass

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
        # every bin, both sources
        assert engine.diagnostics.counts == {f"{method}_degenerate": 4 * 2}

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
        assert engine.diagnostics.counts == {f"{method}_degenerate": bad.size * len(updated)}

    @pytest.mark.parametrize(
        "bad_value", [np.nan, np.inf, 1e200, 1.3e154, 1e150],
        ids=["nan", "inf", "overflow", "energy_overflows_max", "energy_above_ceiling"],
    )
    @pytest.mark.parametrize("method", ["iss", "ip"])
    def test_rejected_frame_leaves_state_unchanged(self, rng, method, bad_value):
        # a frame with a non-finite bin, or one whose energy passes
        # ENERGY_CEILING, is rejected on entry: the engine keeps the last
        # completed frame's state and clock, and the stream goes on adapting
        # with no degenerate bin
        n_bins, n_src = 9, 3
        engine = OnlineAuxIva(n_bins, n_src, OnlineConfig(method=method))
        frames = self.frames(rng, 51, n_bins, n_src)
        for x in frames[:20]:
            engine.process_frame(x)
        demix, covariance = engine.demix.copy(), engine.covariance.copy()
        bad = frames[20].copy()
        bad[4, 1] = bad_value
        with pytest.raises(ContractViolationError, match="non-finite"):
            engine.process_frame(bad)
        assert np.array_equal(engine.demix, demix)
        assert np.array_equal(engine.covariance, covariance)
        assert engine._t == 20
        for x in frames[21:]:
            assert np.all(np.isfinite(engine.process_frame(x)))
        assert np.all(np.isfinite(engine.covariance))
        assert engine.diagnostics.counts == {}

    def test_only_a_valid_set_state_writes_the_state(self, rng):
        # a write through either view raises numpy's ValueError, and set_state
        # checks both arguments before it writes either (a (K, K) demix or an
        # (F, K, K) covariance would broadcast): W, U and the carried A stay
        n_bins, n_src = 4, 3
        engine = OnlineAuxIva(n_bins, n_src, OnlineConfig(method="ip"))
        frames = self.frames(rng, 2, n_bins, n_src)
        engine.process_frame(frames[0])
        demix, covariance = engine.demix.copy(), engine.covariance.copy()
        for view in (engine.demix, engine.covariance):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.0
        w, u = random_state(rng, n_src, n_bins)
        u_nan = u.copy()
        u_nan[1, 2, 0, 1] = np.nan
        for w_bad, u_bad, match in [
            (w[0], u, "demix must have shape"),
            (w, u[0], "covariance must have shape"),
            (w, u_nan, "covariance has non-finite"),
        ]:
            with pytest.raises(ContractViolationError, match=match):
                engine.set_state(demix=w_bad, covariance=u_bad)
        assert np.array_equal(engine.demix, demix)
        assert np.array_equal(engine.covariance, covariance)
        op_counter.reset()  # A still inverts W: the next update frame factorises nothing
        engine.process_frame(frames[1])
        assert op_counter.solves == 0

    def test_held_views_track_the_state(self, rng):
        # W and U are updated in place, so views taken before a frame show the state after it
        for method in ("iss", "ip"):
            engine = OnlineAuxIva(4, 2, OnlineConfig(method=method))
            held_demix, held_covariance = engine.demix, engine.covariance
            for x in self.frames(rng, 3, 4, 2):
                before = engine.covariance.copy()
                engine.process_frame(x)
                assert np.array_equal(held_demix, engine.demix)
                assert np.array_equal(held_covariance, engine.covariance)
                assert not np.array_equal(held_covariance, before)

    @pytest.mark.parametrize("method", ["iss", "ip"])
    def test_loud_frame_accepted(self, rng, method):
        # the ceiling sits far above any recording: a 1e6 sample is taken
        engine = OnlineAuxIva(9, 3, OnlineConfig(method=method))
        x = self.frames(rng, 1, 9, 3)[0]
        x[4, 1] = 1e6
        assert np.all(np.isfinite(engine.process_frame(x)))
        assert engine._t == 1

    def test_alpha_outside_unit_interval_rejected(self):
        with pytest.raises(ContractViolationError):
            OnlineConfig(alpha=1.0)
        with pytest.raises(ContractViolationError):
            OnlineConfig(alpha=-0.1)

    @pytest.mark.parametrize(
        "kwargs", [{"n_iter": 2.5}, {"n_iter": "2"}, {"n_iter": True}, {"alpha": "0.5"}, {"selector": 3}],
        ids=["float_n_iter", "str_n_iter", "bool_n_iter", "str_alpha", "int_selector"],
    )
    def test_config_types_checked(self, kwargs):
        with pytest.raises(ContractViolationError, match=f"{next(iter(kwargs))} must be"):
            OnlineConfig(**kwargs)

    def test_frame_shape_validated(self):
        engine = OnlineAuxIva(4, 2)
        with pytest.raises(ContractViolationError):
            engine.process_frame(np.zeros((5, 2), dtype=complex))

    def test_selector_index_validated(self, rng):
        x = self.frames(rng, 1, 4, 2)[0]
        for bad in [(5,), (-1,), (1.0,), (True,), 1, None]:
            engine = OnlineAuxIva(4, 2, OnlineConfig(selector=lambda t: bad))
            with pytest.raises(ContractViolationError, match="not integers in 0..1"):
                engine.process_frame(x)
            assert engine._t == 0
        # an error raised by the selector's own code is not re-labelled
        def generator(t):
            yield 0
            raise TypeError("selector bug")

        for selector in (lambda t: 1 + "", generator):
            with pytest.raises(TypeError):
                OnlineAuxIva(4, 2, OnlineConfig(selector=selector)).process_frame(x)
        engine = OnlineAuxIva(4, 2, OnlineConfig(selector=lambda t: (np.int64(1),)))
        engine.process_frame(x)
        assert engine._t == 1

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

    def test_ip_flops_count_one_steering_matrix_per_anchor(self, rng):
        # one steering matrix per factorisation of W, plus one update per
        # index and pass; a frame with no index adds nothing, a later frame
        # that names an index carries the steering matrix, and
        # set_state(demix=...) costs one more
        n_bins, n_src = 8, 3
        for updating in [(1,), (1, 2)]:
            selector = lambda t: (0, 2) if t in updating + (4,) else ()
            engine = OnlineAuxIva(n_bins, n_src, OnlineConfig(method="ip", n_iter=2, selector=selector))
            frames = self.frames(rng, 4, n_bins, n_src)
            for x in frames[:3]:
                engine.process_frame(x)
            n_updates = 4 * len(updating)
            assert engine.flops.ip_update == FlopCounter.ip_update_flops(n_src, n_bins, n_updates)
            assert engine.flops.iss_apply == engine.flops.iss_coefficients == 0
            engine.set_state(demix=engine.demix * 2.0)
            engine.process_frame(frames[3])
            assert engine.flops.ip_update == FlopCounter.ip_update_flops(n_src, n_bins, n_updates + 4, 2)

    def test_ip_flops_closed_form_matches_the_sums(self):
        # the factorisation and elimination tallies, summed over the pivots j < k
        for k in range(1, 17):
            factor = sum((k - 1 - j) + (k - 1 - j) ** 2 for j in range(k))
            eliminate = sum((k - 1 - j) * (k + 1 - j) for j in range(k))
            update = eliminate + k * (k + 1) // 2 + 2 * k * k + 2 * k
            for n_updates, n_anchors in [(0, 0), (1, 0), (0, 1), (1, 1), (6, 1), (7, 3)]:
                expected = 5 * (n_anchors * (factor + k**3) + n_updates * update)
                assert FlopCounter.ip_update_flops(k, 5, n_updates, n_anchors) == expected

    @pytest.mark.parametrize("method", ["iss", "ip"])
    def test_steady_state_allocations_bounded(self, rng, method):
        engine = OnlineAuxIva(64, 3, OnlineConfig(method=method))
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

    @pytest.mark.parametrize(
        "method, indices, budget, after_warm_up",
        [
            pytest.param("iss", (1,), 81, False, id="iss-one-warm-up"),
            pytest.param("iss", (0, 1, 2), 134, False, id="iss-all-warm-up"),
            pytest.param("ip", (0, 1, 2), 154, False, id="ip-all-warm-up"),
            pytest.param("iss", (1,), 63, True, id="iss-one-after-warm-up"),
            pytest.param("iss", (0, 1, 2), 94, True, id="iss-all-after-warm-up"),
            pytest.param("ip", (0, 1, 2), 103, True, id="ip-all-after-warm-up"),
        ],
    )
    def test_frame_call_budget(self, rng, method, indices, budget, after_warm_up):
        # a K=3, F=513 frame is bound by per-call cost, so its kernels call ndarray methods
        # and ufuncs, not numpy's Python wrappers.  The projection's pivoted LU makes one
        # np.where pair per row swap, so the count depends on the frame data: the budget
        # holds for the largest count over every 4th frame of a window, the last 17 frames
        # of the warm-up's n_iter = 2 passes or the first 17 after it, at one pass.  One
        # frame plus its projection makes at most 74, 122 and 140 Python-level calls
        # (ISS one index, ISS all, IP all) in the first window and 57, 85 and 94 in the
        # second; each budget is its figure plus about 10%
        engine = OnlineAuxIva(513, 3, OnlineConfig(method=method, selector=lambda t: indices))
        first = WARMUP_FRAMES + 4 if after_warm_up else WARMUP_FRAMES - 16
        counted = range(first, first + 17, 4)
        largest = 0
        for t, x in enumerate(self.frames(rng, counted[-1], 513, 3), start=1):
            calls = []
            if t in counted:
                sys.setprofile(lambda frame, event, arg: calls.append(event) if event == "call" else None)
            try:
                project_back(engine.demix, engine.process_frame(x))
            finally:
                sys.setprofile(None)
            largest = max(largest, len(calls))
        assert largest <= budget


class TestEngineLayoutProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n_src=st.integers(1, 4),
        n_bins=st.integers(1, 9),
        method=st.sampled_from(["iss", "ip"]),
        n_iter=st.sampled_from([1, 2]),
        period=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_state_views_and_frames_match_reference(
        self, n_src, n_bins, method, n_iter, period, seed
    ):
        # each pair of frames restarts from a state given to set_state, once
        # before the stream and once mid-stream; with period 2 every second
        # frame names no index
        rng = np.random.default_rng(seed)
        alpha = 0.9
        every = tuple(range(n_src))
        engine = OnlineAuxIva(
            n_bins, n_src,
            OnlineConfig(
                method=method, n_iter=n_iter, alpha=alpha,
                selector=lambda t: every if (t - 1) % period == 0 else (),
            ),
        )
        frames = random_complex(rng, 4, n_bins, n_src)
        for t, x in enumerate(frames, start=1):
            if t % 2 == 1:
                w_ref, u_ref = random_state(rng, n_src, n_bins)
                engine.set_state(demix=w_ref, covariance=u_ref)
            y = engine.process_frame(x)
            update = (t - 1) % period == 0
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

    @pytest.mark.parametrize("n_iter", [1, 2])
    @pytest.mark.parametrize("method", ["iss", "ip"])
    @pytest.mark.parametrize("n_src", [5, 8])
    def test_wide_frames_match_reference(self, n_src, method, n_iter):
        # the property above stops at K=4 and test_multi_frame_matches_reference
        # runs K=8 at n_iter 2 from one set_state; here the IP elimination and
        # back-substitution loops run K-1 steps at K=5 and 8, both n_iter, with
        # set_state before the stream and mid-stream.  Fixed seeds: at K=8 one
        # of 60 random states put the IP error at 1.0e-12, so a drawn seed could fail
        rng = np.random.default_rng(1000 * n_src + 10 * n_iter + (method == "ip"))
        n_bins, alpha = 6, 0.9
        engine = OnlineAuxIva(n_bins, n_src, OnlineConfig(method=method, n_iter=n_iter, alpha=alpha))
        for t, x in enumerate(random_complex(rng, 4, n_bins, n_src), start=1):
            if t % 2 == 1:
                w_ref, u_ref = random_state(rng, n_src, n_bins)
                engine.set_state(demix=w_ref, covariance=u_ref)
            y = engine.process_frame(x)
            y_ref, w_ref, u_ref = online_frame_reference(
                w_ref, u_ref, x, alpha, n_iter, range(n_src), method
            )
            np.testing.assert_allclose(y, y_ref, atol=1e-12)
            np.testing.assert_allclose(engine.demix, w_ref, atol=1e-12)
            np.testing.assert_allclose(engine.covariance, u_ref, atol=1e-12)
