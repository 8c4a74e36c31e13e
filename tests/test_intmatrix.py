import itertools
import math
import random
from fractions import Fraction

import pytest

from qmwrt.intmatrix import (
    charpoly_int,
    cokernel_representatives,
    det_int,
    eigenvalue_sign_counts,
    inverse_rational,
)
from qmwrt.seifert import parse_manifold
from test_wrt import surgery_linking_matrix


def _charpoly_fraction(m):
    """Faddeev-LeVerrier on Fraction matrices: det(x I - M), ascending."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    mk = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        mk = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in reversed(coeffs)]


def _random_symmetric(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-9, 9)
    return m


SURGERY_SELECTORS = ["ex:2-3-3", "ex:neg-2-3-9", "ex:family:2", "ex:family:3",
                     "ex:family:5", "seifert:0;2/1,3/1,5/1,7/1"]


def test_charpoly_matches_fraction_reference():
    rng = random.Random(8)
    matrices = [_random_symmetric(rng, n) for n in range(1, 7) for _ in range(5)]
    matrices += [surgery_linking_matrix(parse_manifold(sel))
                 for sel in SURGERY_SELECTORS]
    matrices.append([[1, 2, 3], [2, 4, 6], [3, 6, 9]])   # rank 1
    for m in matrices:
        p = charpoly_int(m)
        assert p == _charpoly_fraction(m)
        assert all(type(c) is int for c in p)


@pytest.mark.parametrize("m, counts", [
    ([[1, 2, 3], [2, 4, 6], [3, 6, 9]], (1, 0, 2)),
    ([[2, 1], [1, -3]], (1, 1, 0)),
    ([[0]], (0, 0, 1)),
])
def test_eigenvalue_sign_counts(m, counts):
    assert eigenvalue_sign_counts(m) == counts


def _random_matrix(rng, n, bound):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def _det_leibniz(m):
    """Sum over permutations of sign(sigma) prod_i m[i][sigma(i)]."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(m))
                         for j in range(i + 1, len(m)))
        total += (-1) ** inversions * math.prod(m[i][perm[i]]
                                                for i in range(len(m)))
    return total


def test_det_matches_leibniz_on_nonsymmetric_matrices():
    rng = random.Random(5)
    matrices = [_random_matrix(rng, n, 9) for n in range(1, 6) for _ in range(8)]
    matrices += [[[1, 2, 3], [2, 4, 6], [3, 6, 9]], [[0, 1], [1, 0]], [[0]]]
    for m in matrices:
        d = det_int(m)
        assert type(d) is int
        assert d == _det_leibniz(m), m


def test_cokernel_representatives_list_each_coset_once():
    rng = random.Random(11)
    matrices = [[[1, 2], [3, 1]], [[-4]], [[2, 1], [0, 3]]]   # det -5, -4, 6
    while len(matrices) < 30:
        m = _random_matrix(rng, rng.choice([1, 2, 3]), 4)
        if det_int(m) != 0:
            matrices.append(m)
    for m in matrices:
        reps = cokernel_representatives(m)
        assert len(reps) == abs(det_int(m)), m
        inv = inverse_rational(m)
        for x, y in itertools.combinations(reps, 2):
            # x - y in M Z^n exactly when M^-1 (x - y) is integral
            diff = [a - b for a, b in zip(x, y)]
            assert any(sum(c * t for c, t in zip(row, diff)).denominator != 1
                       for row in inv), (m, x, y)
