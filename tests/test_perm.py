import doctest

import numpy as np
import pytest

import permlab.exact
import permlab.models
import permlab.perm
from permlab.perm import (
    NotABijection,
    Permutation,
    all_permutations,
    as_entries,
    inverse_entries,
    permutation_matrix,
    validate,
)


def test_validate_roundtrip():
    assert validate([2, 1, 3]) == (2, 1, 3)
    assert validate((1,)) == (1,)


@pytest.mark.parametrize(
    "bad", [[], [0, 1], [1, 1], [2, 3], [1, 2, 4], [-1, 1], [1.5, 2]]
)
def test_validate_rejects(bad):
    with pytest.raises(NotABijection):
        # 1.5 truncates to 1 giving a duplicate; the others fail directly
        validate(bad)


def test_from_string_and_str():
    p = Permutation.from_string(" 4, 3 ,1,2 ")
    assert p.entries == (4, 3, 1, 2)
    assert str(p) == "4,3,1,2"
    assert Permutation.from_string(str(p)) == p
    with pytest.raises(NotABijection):
        Permutation.from_string("4,3,x,2")
    with pytest.raises(NotABijection):
        Permutation.from_string("")


def test_call_iter_len():
    p = Permutation((3, 1, 2))
    assert (p(1), p(2), p(3)) == (3, 1, 2)
    assert list(p) == [3, 1, 2]
    assert len(p) == 3
    with pytest.raises(IndexError):
        p(0)
    with pytest.raises(IndexError):
        p(4)


def test_inverse():
    p = Permutation((4, 3, 1, 2))
    q = p.inverse()
    assert q.entries == (3, 4, 2, 1)
    for i in range(1, 5):
        assert q(p(i)) == i
    assert p.inverse().inverse() == p


def test_inverse_all_s4():
    for t in all_permutations(4):
        p = Permutation(t)
        assert p.inverse().entries == inverse_entries(t)
        assert p.inverse().inverse() == p


def test_permutation_matrix_is_all_permutations_in_order():
    for n in range(1, 8):
        mat = permutation_matrix(n)
        assert mat.dtype == np.int64 and mat.shape == (len(list(all_permutations(n))), n)
        assert list(map(tuple, mat.tolist())) == list(all_permutations(n))


def test_hashable_frozen():
    p = Permutation((2, 1))
    assert p in {p}
    with pytest.raises(Exception):
        p.entries = (1, 2)


def test_as_entries():
    p = Permutation((2, 1))
    assert as_entries(p) == (2, 1)
    assert as_entries([2, 1]) == (2, 1)
    assert as_entries(np.array([2, 1])) == (2, 1)


def test_all_permutations_lex_order():
    perms = list(all_permutations(3))
    assert perms == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    ]
    assert len(set(all_permutations(5))) == 120


def test_docstring_examples():
    for module in (permlab.perm, permlab.exact, permlab.models):
        result = doctest.testmod(module)
        assert result.attempted > 0 and result.failed == 0, module.__name__
