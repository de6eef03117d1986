"""Shared kernels: the max-abs norm and the relative residual, of one operator or a list."""

import numpy as np
import scipy.sparse as sp

from tlspin.linalg import max_abs, rel_residual, scaled


def test_max_abs_of_a_list_is_the_largest_over_it():
    dense = np.array([[1.0, -3.0]])
    sparse = sp.csr_matrix(np.array([[0.0, 2j]]))
    assert max_abs([dense, sparse]) == 3.0
    assert max_abs([sparse]) == max_abs(sparse) == 2.0
    assert max_abs([sp.csr_matrix((2, 2)), np.zeros(0)]) == 0.0


def test_max_abs_of_an_empty_list_is_zero():
    assert max_abs([]) == 0.0


def test_rel_residual_over_a_list():
    diffs = [np.array([1e-9]), sp.csr_matrix(np.array([[0.0, -4e-9]]))]
    terms = [np.array([2.0]), sp.csr_matrix(np.array([[-8.0]]))]
    assert rel_residual(diffs, terms) == scaled(4e-9, 8.0)
    # a list of differences reads the same as their largest one alone
    assert rel_residual(diffs, terms) == rel_residual(diffs[1], terms)


def test_rel_residual_over_empty_lists():
    assert rel_residual([], [np.array([2.0])]) == 0.0
    # an empty scale is clamped away from zero, so the residual stays finite
    assert rel_residual([], []) == 0.0
    assert np.isfinite(rel_residual([np.array([1.0])], []))
