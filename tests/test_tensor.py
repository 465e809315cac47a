import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginnet.tensor import DomainError, ShapeError, argmax, matmul


class TestMatmul:
    def test_worked_2x2_times_2x1(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        npt.assert_array_equal(matmul(a, b), [[17.0], [39.0]])

    def test_inner_dim_mismatch_names_both_shapes(self):
        a = np.zeros((2, 3))
        b = np.zeros((4, 5))
        with pytest.raises(ShapeError) as exc:
            matmul(a, b)
        assert "(2, 3)" in str(exc.value)
        assert "(4, 5)" in str(exc.value)

    def test_rank_1_rejected(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros(3), np.zeros((3, 2)))

    def test_identity_is_exact(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 5))
        npt.assert_array_equal(matmul(a, np.eye(5)), a)
        npt.assert_array_equal(matmul(np.eye(5), a), a)

    def test_same_inputs_bit_identical_across_runs(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(4, 9))
        first = matmul(a, b)
        for _ in range(5):
            npt.assert_array_equal(matmul(a, b), first)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    n=st.integers(1, 8),
    k=st.integers(1, 8),
    m=st.integers(1, 8),
    p=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_matmul_associative_within_1e_9(n, k, m, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(n, k))
    b = rng.uniform(-1, 1, size=(k, m))
    c = rng.uniform(-1, 1, size=(m, p))
    left = matmul(matmul(a, b), c)
    right = matmul(a, matmul(b, c))
    npt.assert_allclose(left, right, atol=1e-9)


class TestReductions:
    def test_argmax_tie_returns_lowest_index(self):
        assert argmax(np.array([3.0, 1.0, 3.0])) == 0
        row_ties = np.array([[2.0, 2.0, 1.0], [0.0, 5.0, 5.0]])
        npt.assert_array_equal(argmax(row_ties, axis=1), [0, 1])

    def test_argmax_empty_axis_is_domain_error(self):
        with pytest.raises(DomainError):
            argmax(np.zeros((0,)))
        with pytest.raises(DomainError):
            argmax(np.zeros((3, 0)), axis=1)

    def test_argmax_axis_out_of_range_is_shape_error(self):
        with pytest.raises(ShapeError):
            argmax(np.zeros((2, 3)), axis=2)
        with pytest.raises(ShapeError):
            argmax(np.zeros((2, 3)), axis=-3)
