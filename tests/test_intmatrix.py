import random
from fractions import Fraction

import pytest

from qmwrt.intmatrix import charpoly_int, eigenvalue_sign_counts
from qmwrt.seifert import parse_manifold
from qmwrt.wrt import surgery_linking_matrix


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
