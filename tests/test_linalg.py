"""Kernel-level contracts: solves, inverses, Hermitian parts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivastream.errors import ContractViolationError, SingularMatrixError
from ivastream.linalg import (
    SINGULAR_PIVOT_RTOL,
    inverse,
    hermitian_part,
    lu_factor,
    op_counter,
    solve_unit,
)

from conftest import random_complex, random_conditioned
from oracles import lu_reference


class TestSolveUnit:
    def test_identity(self):
        z = solve_unit(np.eye(2, dtype=complex), 0)
        np.testing.assert_allclose(z, [1.0, 0.0])

    def test_diagonal_closed_form(self):
        z = solve_unit(np.diag([4.0, 1.0]).astype(complex), 0)
        np.testing.assert_allclose(z, [0.25, 0.0])

    def test_random_residual(self, rng):
        m = random_complex(rng, 3, 3)
        z = solve_unit(m, 1)
        e = np.zeros(3)
        e[1] = 1.0
        assert np.linalg.norm(m @ z - e) <= 1e-10 * np.linalg.norm(z)

    def test_batched_matches_loop(self, rng):
        m = random_complex(rng, 7, 3, 3)
        z = solve_unit(m, 2)
        for i in range(7):
            np.testing.assert_allclose(z[i], solve_unit(m[i], 2), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_conditioned_up_to_1e6(self, seed):
        rng = np.random.default_rng(seed)
        condition = 10 ** rng.uniform(0, 6)
        m = random_conditioned(rng, 4, condition)
        z = solve_unit(m, 3)
        e = np.zeros(4)
        e[3] = 1.0
        assert np.linalg.norm(m @ z - e) <= 1e-10 * np.linalg.norm(z)

    def test_singular_raises_with_indices(self, rng):
        m = random_complex(rng, 4, 2, 2)
        m[2, 1] = m[2, 0]  # rank-1
        with pytest.raises(SingularMatrixError) as excinfo:
            solve_unit(m, 0)
        assert 2 in excinfo.value.indices

    def test_nonsquare_rejected(self):
        with pytest.raises(ContractViolationError):
            solve_unit(np.ones((2, 3)), 0)

    def test_bad_index_rejected(self):
        with pytest.raises(ContractViolationError):
            solve_unit(np.eye(2), 5)


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
        with pytest.raises(SingularMatrixError):
            inverse(np.zeros((2, 2)))


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


class TestOpCounter:
    def test_counts_solves_and_inversions(self, rng):
        op_counter.reset()
        solve_unit(random_complex(rng, 5, 2, 2) + 3 * np.eye(2), 0)
        assert op_counter.solves == 5
        inverse(random_complex(rng, 2, 2) + 3 * np.eye(2))
        assert op_counter.inversions == 1
        op_counter.reset()
        assert op_counter.solves == op_counter.inversions == 0


def _matrix_of_kind(rng, kind: str, k: int) -> np.ndarray:
    """One (k, k) test matrix; the lattice kind has exact pivot ties."""
    if kind == "lattice":
        return (rng.integers(-1, 2, (k, k)) + 1j * rng.integers(-1, 2, (k, k))).astype(complex)
    m = random_complex(rng, k, k)
    if kind == "zero_row":
        m[rng.integers(k)] = 0.0
    elif kind == "duplicate_row" and k > 1:
        src, dst = rng.choice(k, size=2, replace=False)
        m[dst] = m[src]
    return m


class TestLuAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 8),
        kinds=st.lists(
            st.sampled_from(["random", "lattice", "zero_row", "duplicate_row"]),
            min_size=1, max_size=16,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_matrix_reference(self, k, kinds, seed):
        rng = np.random.default_rng(seed)
        m = np.stack([_matrix_of_kind(rng, kind, k) for kind in kinds])
        lu, perm, ok = lu_factor(m)
        refs = [lu_reference(mat, SINGULAR_PIVOT_RTOL) for mat in m]
        assert np.array_equal(perm, [r[1] for r in refs])
        assert np.array_equal(ok, [r[2] for r in refs])
        ref_lu = np.stack([r[0] for r in refs])
        np.testing.assert_allclose(lu, ref_lu, rtol=0, atol=1e-12 * max(np.max(np.abs(ref_lu)), 1.0))

        e = np.eye(k)
        for b in np.flatnonzero(ok):
            ref = np.linalg.inv(m[b])
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(inverse(m[b]) - ref)) <= 1e-12 * scale
            for j in range(k):
                z = solve_unit(m[b], j)
                ref_z = np.linalg.solve(m[b], e[j])
                assert np.max(np.abs(z - ref_z)) <= 1e-12 * np.max(np.abs(ref_z))

        bad = tuple(int(b) for b in np.flatnonzero(~ok)[:16])
        if bad:
            for call in (lambda: inverse(m), lambda: solve_unit(m, k - 1)):
                with pytest.raises(SingularMatrixError) as excinfo:
                    call()
                assert excinfo.value.indices == bad
