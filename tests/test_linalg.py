"""Kernel-level contracts: solves, inverses, Hermitian parts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivastream.errors import ContractViolationError, DegenerateUpdateError
from ivastream.separator import OnlineAuxIva, OnlineConfig, project_back
from ivastream.linalg import (
    SINGULAR_PIVOT_RTOL,
    inverse,
    hermitian_part,
    lu_factor,
    masked_solve_unit,
    op_counter,
)

from conftest import random_complex, random_conditioned
from oracles import lu_reference


class TestSolveUnit:
    def test_identity(self):
        z, ok = masked_solve_unit(np.eye(2, dtype=complex))
        assert ok
        np.testing.assert_allclose(z, np.eye(2))

    def test_diagonal_closed_form(self):
        z, ok = masked_solve_unit(np.diag([4.0, 1.0]).astype(complex))
        assert ok
        np.testing.assert_allclose(z[:, 0], [0.25, 0.0])

    def test_random_residual(self, rng):
        m = random_complex(rng, 3, 3)
        z, ok = masked_solve_unit(m)
        assert ok
        e = np.zeros(3)
        e[1] = 1.0
        assert np.linalg.norm(m @ z[:, 1] - e) <= 1e-10 * np.linalg.norm(z[:, 1])

    def test_batched_matches_loop(self, rng):
        m = random_complex(rng, 7, 3, 3)
        z, ok = masked_solve_unit(m)
        assert z.shape == (7, 3, 3)
        assert np.all(ok)
        for i in range(7):
            np.testing.assert_allclose(z[i], masked_solve_unit(m[i])[0], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_conditioned_up_to_1e6(self, seed):
        rng = np.random.default_rng(seed)
        condition = 10 ** rng.uniform(0, 6)
        m = random_conditioned(rng, 4, condition)
        z, ok = masked_solve_unit(m)
        assert ok
        e = np.zeros(4)
        e[3] = 1.0
        assert np.linalg.norm(m @ z[:, 3] - e) <= 1e-10 * np.linalg.norm(z[:, 3])

    def test_singular_flagged_by_index(self, rng):
        m = random_complex(rng, 4, 2, 2)
        m[2, 1] = m[2, 0]  # rank-1
        _, ok = masked_solve_unit(m)
        assert not ok[2]

    def test_nonsquare_rejected(self):
        with pytest.raises(ContractViolationError):
            masked_solve_unit(np.ones((2, 3)))


class TestInverse:
    def test_identity(self):
        np.testing.assert_allclose(inverse(np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            inverse(np.diag([2.0, 0.5]).astype(complex)), np.diag([0.5, 2.0])
        )

    def test_random_residual(self, rng):
        m = random_complex(rng, 3, 3)
        residual = m @ inverse(m) - np.eye(3)
        assert np.linalg.norm(residual, "fro") <= 1e-10

    def test_singular_raises(self):
        with pytest.raises(DegenerateUpdateError) as excinfo:
            inverse(np.zeros((2, 2)))
        assert excinfo.value.indices == (0,)


class TestInverseRow:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 8),
        batch=st.sampled_from([(), (1,), (4,), (2, 3)]),
        log_condition=st.floats(0.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_of_full_inverse(self, k, batch, log_condition, seed):
        # the row solves M^T a = e_r on the LU of M^T, the full inverse M x = e_c on
        # the LU of M: two backward-stable solutions, which differ by O(eps * cond)
        # relative to the row (at most 3.7 eps * cond over 3000 random stacks)
        rng = np.random.default_rng(seed)
        condition = 10**log_condition
        m = np.reshape([random_conditioned(rng, k, condition) for _ in range(int(np.prod(batch)))], (*batch, k, k))
        full = inverse(m)
        tol = 1e-12 + 16 * np.finfo(float).eps * condition
        for r in range(k):
            row = inverse(m, row=r)
            assert row.shape == (*batch, k)
            scale = np.abs(full[..., r, :]).max(axis=-1, keepdims=True)
            assert (np.abs(row - full[..., r, :]) <= tol * scale).all()

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_rank_one_bins_named_as_by_full_inverse(self, rng, k):
        m = random_complex(rng, 7, k, k) + 2 * np.eye(k)
        for b in (1, 4):
            m[b] = np.outer(random_complex(rng, k), random_complex(rng, k))
        with pytest.raises(DegenerateUpdateError) as full:
            inverse(m)
        for r in range(k):
            with pytest.raises(DegenerateUpdateError) as row:
                inverse(m, row=r)
            assert row.value.indices == full.value.indices == (1, 4)

    @pytest.mark.parametrize("delta, flagged", [(5e-13, False), (7e-14, True)])
    def test_thresholds_from_column_maxima(self, delta, flagged):
        # M^T = [[10, 10], [1, 1 + delta]] leaves the pivot delta against M's
        # column maximum 1 + delta, not its row maximum 10, which flags the full inverse
        m = np.array([[10.0, 1.0], [10.0, 1.0 + delta]], dtype=complex)
        with pytest.raises(DegenerateUpdateError):
            inverse(m)
        for r in range(2):
            if flagged:
                with pytest.raises(DegenerateUpdateError):
                    inverse(m, row=r)
            else:
                ref = np.linalg.inv(m)
                assert np.max(np.abs(inverse(m, row=r) - ref[r])) <= 1e-12 * np.max(np.abs(ref))

    def test_counts_inversions_not_solves(self, rng):
        op_counter.reset()
        inverse(random_complex(rng, 6, 3, 3) + 2 * np.eye(3), row=1)
        assert (op_counter.inversions, op_counter.solves) == (6, 0)

    @pytest.mark.parametrize("row", [-1, 3, True, 1.0])
    def test_row_outside_range_rejected(self, rng, row):
        with pytest.raises(ContractViolationError, match="row"):
            inverse(random_complex(rng, 3, 3) + 2 * np.eye(3), row=row)

    def test_entry_near_the_float_limit_flagged_without_warning(self, rng):
        # bin 1 holds I with (1e308 + 1e308j) at (0, 1), a condition number near 1e308: every
        # form flags it and that bin alone, and the multiplier division that overflows on the
        # way warns of nothing (the test suite turns any escaping warning into an error)
        m = random_complex(rng, 3, 3, 3) + 3 * np.eye(3)
        m[1] = np.eye(3)
        m[1, 0, 1] = complex(1e308, 1e308)
        calls = [inverse, *(lambda m, r=r: inverse(m, row=r) for r in range(3)),
                 lambda m: project_back(m, np.ones(m.shape[:-1], dtype=complex))]
        for call in calls:
            with pytest.raises(DegenerateUpdateError) as err:
                call(m)
            assert err.value.indices == (1,)
        assert masked_solve_unit(m)[1].tolist() == [True, False, True]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(np.nan, 0.0)])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(inverse, id="inverse"),
        *(pytest.param(lambda m, r=r: inverse(m, row=r), id=f"inverse-row-{r}") for r in range(3)),
        pytest.param(masked_solve_unit, id="masked_solve_unit"),
        pytest.param(lambda m: project_back(m, np.ones(m.shape[:-1], dtype=complex)), id="project_back"),
    ],
)
def test_non_finite_entry_rejected(rng, call, value):
    # one bad entry in one bin of an otherwise well-conditioned stack, at every position
    for i, j in np.ndindex(3, 3):
        m = random_complex(rng, 4, 3, 3) + 3 * np.eye(3)
        m[2, i, j] = value
        with pytest.raises(ContractViolationError, match="non-finite"):
            call(m)


class TestHermitianPart:
    def test_output_is_bitwise_hermitian(self, rng):
        out = hermitian_part(random_complex(rng, 5, 3, 3))
        assert np.array_equal(out, np.conj(np.swapaxes(out, -1, -2)))

    def test_hermitian_input_is_returned_bitwise(self, rng):
        u = hermitian_part(random_complex(rng, 5, 3, 3))
        assert np.array_equal(hermitian_part(u), u)

    def test_matrix_axes_first(self, rng):
        m = random_complex(rng, 5, 3, 3)
        bins_last = np.moveaxis(m, 0, -1)
        out = hermitian_part(bins_last, axes=(0, 1))
        assert np.array_equal(np.moveaxis(out, -1, 0), hermitian_part(m))
        assert out.flags.c_contiguous  # a new C-contiguous array, whatever the input's strides


class TestOpCounter:
    def test_counts_solves_and_inversions(self, rng):
        op_counter.reset()
        masked_solve_unit(random_complex(rng, 5, 2, 2) + 3 * np.eye(2))
        assert op_counter.solves == 5
        inverse(random_complex(rng, 2, 2) + 3 * np.eye(2))
        assert op_counter.inversions == 1
        op_counter.reset()
        assert op_counter.solves == op_counter.inversions == 0


#: Kinds of test matrix; ``lattice`` and ``ties`` have exact pivot ties,
#: ``no_swap`` pivots on the diagonal at every step, and
#: ``swap_every_step`` swaps rows j and j+1 at every step j < k-1.
KINDS = ["random", "lattice", "zero_row", "duplicate_row", "ties", "no_swap", "swap_every_step"]


def _matrix_of_kind(rng, kind: str, k: int) -> np.ndarray:
    """One (k, k) test matrix of one of the :data:`KINDS`."""
    if kind == "lattice":
        return (rng.integers(-1, 2, (k, k)) + 1j * rng.integers(-1, 2, (k, k))).astype(complex)
    if kind == "ties":  # every entry of magnitude 1
        return np.array([1, 1j, -1, -1j])[rng.integers(0, 4, (k, k))]
    if kind in ("no_swap", "swap_every_step"):
        m = 10.0 * np.eye(k) + 0.1 * random_complex(rng, k, k)
        return m if kind == "no_swap" else np.roll(m, 1, axis=0)
    m = random_complex(rng, k, k)
    if kind == "zero_row":
        m[rng.integers(k)] = 0.0
    elif kind == "duplicate_row" and k > 1:
        src, dst = rng.choice(k, size=2, replace=False)
        m[dst] = m[src]
    return m


def _factor_matches_reference(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor the (B, k, k) stack ``m`` and check it against the
    per-matrix reference: ``perm`` and ``ok`` exactly, ``lu`` to 1e-12.
    Returns ``(perm, ok)`` with the batch axis first."""
    lu, perm, ok = lu_factor(np.moveaxis(m, 0, -1))
    lu, perm = np.moveaxis(lu, -1, 0), perm.T
    refs = [lu_reference(mat, SINGULAR_PIVOT_RTOL) for mat in m]
    assert np.array_equal(perm, [r[1] for r in refs])
    assert np.array_equal(ok, [r[2] for r in refs])
    ref_lu = np.stack([r[0] for r in refs])
    np.testing.assert_allclose(lu, ref_lu, rtol=0, atol=1e-12 * max(np.max(np.abs(ref_lu)), 1.0))
    return perm, ok


class TestLuAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 8),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_matrix_reference(self, k, kinds, seed):
        rng = np.random.default_rng(seed)
        m = np.stack([_matrix_of_kind(rng, kind, k) for kind in kinds])
        _, ok = _factor_matches_reference(m)

        e = np.eye(k)
        for b in np.flatnonzero(ok):
            ref = np.linalg.inv(m[b])
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(inverse(m[b]) - ref)) <= 1e-12 * scale
            z, ok_b = masked_solve_unit(m[b])
            assert ok_b
            for j in range(k):
                ref_z = np.linalg.solve(m[b], e[j])
                assert np.max(np.abs(z[:, j] - ref_z)) <= 1e-12 * np.max(np.abs(ref_z))

        # the two inverses agree: masked on the healthy bins, and on which bins are not
        z, solve_ok = masked_solve_unit(m)
        assert np.array_equal(np.flatnonzero(~solve_ok), np.flatnonzero(~ok))
        if ok.any():
            ref = inverse(m[ok])
            assert np.max(np.abs(z[ok] - ref)) <= 1e-12 * np.max(np.abs(ref))
        bad = tuple(int(b) for b in np.flatnonzero(~ok)[:16])
        if bad:
            with pytest.raises(DegenerateUpdateError) as excinfo:
                inverse(m)
            assert excinfo.value.indices == bad

        # the row form eliminates [m^T | e_r] under the same pivot rule: it names the
        # bins whose transpose the reference flags and matches numpy on the others
        ok_t = np.array([lu_reference(mat.T, SINGULAR_PIVOT_RTOL)[2] for mat in m])
        bad_t = tuple(int(b) for b in np.flatnonzero(~ok_t)[:16])
        for r in range(k):
            if bad_t:
                with pytest.raises(DegenerateUpdateError) as excinfo:
                    inverse(m, row=r)
                assert excinfo.value.indices == bad_t
            if ok_t.any():
                rows = inverse(m[ok_t], row=r)
                for row, mat in zip(rows, m[ok_t]):
                    ref = np.linalg.inv(mat)
                    assert np.max(np.abs(row - ref[r])) <= 1e-12 * np.max(np.abs(ref))


class TestLuShortcuts:
    """The factor skips the swap of a candidate row that no bin pivots on,
    so stacks in which some, all or none of the bins swap at a step must
    all match the per-matrix reference."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_mixed_stack(self, rng, k):
        kinds = ["no_swap", "swap_every_step", "ties", "lattice"] * 3
        m = np.stack([_matrix_of_kind(rng, kind, k) for kind in kinds])
        perm, _ = _factor_matches_reference(m)
        for b, kind in enumerate(kinds):
            if kind == "no_swap":
                assert np.array_equal(perm[b], np.arange(k))
            elif kind == "swap_every_step":
                assert np.array_equal(perm[b], np.roll(np.arange(k), -1))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_singular_member_at_every_step(self, rng, k):
        # the factor touches ok and masks the pivot only at a step where some bin
        # fails, so each step j gets one member whose first failing pivot is j:
        # column j is zero, so steps before j pivot as usual and step j's
        # candidates are all exactly 0, with and without swaps before it
        kinds = ["no_swap", "swap_every_step"]
        m = [_matrix_of_kind(rng, kind, k) for kind in kinds]
        for j in range(k):
            member = _matrix_of_kind(rng, kinds[j % 2], k)
            member[:, j] = 0.0
            m.append(member)
        _, ok = _factor_matches_reference(np.stack(m))
        assert np.array_equal(ok, [True, True] + [False] * k)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_uniform_stack(self, rng, kind, k):
        _factor_matches_reference(np.stack([_matrix_of_kind(rng, kind, k) for _ in range(6)]))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_single_bin(self, rng, kind, k):
        _factor_matches_reference(_matrix_of_kind(rng, kind, k)[None])


class TestLayoutAndInputSafety:
    def test_factor_leaves_input_unchanged(self, rng):
        m = np.moveaxis(random_complex(rng, 9, 4, 4), 0, -1)
        before = m.copy()
        lu_factor(m)
        assert m.tobytes() == before.tobytes()

    @pytest.fixture
    def engine_demix(self, rng):
        engine = OnlineAuxIva(33, 3, OnlineConfig(method="ip"))
        for _ in range(8):
            engine.process_frame(random_complex(rng, 33, 3))
        assert not engine.demix.flags.c_contiguous
        return engine.demix

    def test_inverse_of_engine_view_matches_contiguous_copy(self, engine_demix):
        expected = inverse(np.ascontiguousarray(engine_demix))
        assert inverse(engine_demix).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("row", range(3))
    def test_inverse_row_of_engine_view_matches_contiguous_copy(self, engine_demix, row):
        expected = inverse(np.ascontiguousarray(engine_demix), row=row)
        assert inverse(engine_demix, row=row).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", range(3))
    def test_solve_on_engine_view_matches_contiguous_copy(self, engine_demix, k):
        z, ok = masked_solve_unit(engine_demix)
        z_ref, ok_ref = masked_solve_unit(np.ascontiguousarray(engine_demix))
        assert z[..., k].tobytes() == z_ref[..., k].tobytes()
        assert np.array_equal(ok, ok_ref)
