"""Kernel-level contracts: solves, inverses, Hermitian parts."""

import numpy as np
import pytest

from ivastream.errors import ContractViolationError, SingularMatrixError
from ivastream.linalg import (
    inverse,
    hermitian_part,
    op_counter,
    solve_unit,
)

from conftest import random_complex, random_conditioned


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


class TestOpCounter:
    def test_counts_solves_and_inversions(self, rng):
        op_counter.reset()
        solve_unit(random_complex(rng, 5, 2, 2) + 3 * np.eye(2), 0)
        assert op_counter.solves == 5
        inverse(random_complex(rng, 2, 2) + 3 * np.eye(2))
        assert op_counter.inversions == 1
        op_counter.reset()
        assert op_counter.solves == op_counter.inversions == 0
