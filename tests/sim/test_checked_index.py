"""Boundaries of the index checks every store query runs first.

Numpy reads a negative index from the end and so would answer for another
site or satellite; these checks turn any index outside ``[0, n)`` into an
``IndexError`` instead.
"""

import numpy as np
import pytest

from repro.sim.kernels import checked_index, checked_index_rows, checked_indices

N = 5


class TestCheckedIndex:
    @pytest.mark.parametrize("index", [0, 1, N - 1])
    def test_in_range_returns_int(self, index):
        value = checked_index(index, N, "site")
        assert value == index and type(value) is int

    @pytest.mark.parametrize("index", [-1, -N, N, N + 3])
    def test_out_of_range_raises(self, index):
        with pytest.raises(IndexError, match=f"site index {index} is out of range for {N} sites"):
            checked_index(index, N, "site")

    def test_numpy_integer_is_converted(self):
        assert type(checked_index(np.int64(2), N, "satellite")) is int

    def test_nothing_is_in_range_of_zero(self):
        with pytest.raises(IndexError):
            checked_index(0, 0, "site")


class TestCheckedIndices:
    def test_empty_input(self):
        ids = checked_indices([], N, "satellite")
        assert ids.shape == (0,) and ids.dtype == np.intp

    def test_empty_input_against_zero(self):
        assert checked_indices([], 0, "satellite").size == 0

    def test_both_ends_of_the_range_pass(self):
        np.testing.assert_array_equal(checked_indices([0, N - 1], N, "site"), [0, N - 1])

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_negative_anywhere_raises(self, position):
        ids = [1, 2, 3, 1, 2]
        ids[position] = -1
        with pytest.raises(IndexError, match="satellite index -1"):
            checked_indices(ids, N, "satellite")

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_index_n_anywhere_raises(self, position):
        ids = [1, 2, 3, 1, 2]
        ids[position] = N
        with pytest.raises(IndexError, match=f"satellite index {N}"):
            checked_indices(ids, N, "satellite")

    def test_negative_reported_before_too_high(self):
        with pytest.raises(IndexError, match="index -2"):
            checked_indices([N + 1, -2], N, "site")

    def test_matrix_is_flattened(self):
        ids = checked_indices([[0, 1], [2, 3]], N, "site")
        assert ids.shape == (4,) and ids.dtype == np.intp

    def test_order_and_duplicates_kept(self):
        np.testing.assert_array_equal(checked_indices([3, 0, 3], N, "site"), [3, 0, 3])


class TestCheckedIndexRows:
    def test_matrix_keeps_its_shape(self):
        ids = checked_index_rows(np.arange(6).reshape(3, 2) % N, N, "satellite")
        assert ids.shape == (3, 2) and ids.dtype == np.intp

    def test_empty_matrix_keeps_its_shape(self):
        assert checked_index_rows(np.zeros((0, 4), dtype=int), N, "satellite").shape == (0, 4)

    def test_row_vector_becomes_one_row(self):
        assert checked_index_rows([4, 0, 2], N, "satellite").shape == (1, 3)

    def test_scalar_becomes_one_by_one(self):
        assert checked_index_rows(3, N, "satellite").tolist() == [[3]]

    def test_higher_rank_is_one_row(self):
        assert checked_index_rows(np.zeros((2, 2, 2), dtype=int), N, "site").shape == (1, 8)

    @pytest.mark.parametrize("row, column", [(0, 0), (1, 1), (2, 0)])
    def test_out_of_range_anywhere_raises(self, row, column):
        ids = np.ones((3, 2), dtype=int)
        ids[row, column] = N
        with pytest.raises(IndexError, match=f"satellite index {N}"):
            checked_index_rows(ids, N, "satellite")

    def test_negative_in_matrix_raises(self):
        ids = np.ones((2, 3), dtype=int)
        ids[1, 2] = -1
        with pytest.raises(IndexError, match="index -1"):
            checked_index_rows(ids, N, "satellite")

    def test_values_unchanged(self):
        matrix = [[4, 3], [2, 1]]
        assert checked_index_rows(matrix, N, "site").tolist() == matrix
