"""Small exact integer-matrix utilities: characteristic polynomials (and
from them determinants and eigenvalue sign counts), rational inverses, and
the coset representatives of Z^n / M Z^n by a closure walk over unit
vectors.

Sizes here are tiny (surgery links have a handful of components), so clarity
wins over asymptotics.  No floating point anywhere: eigenvalue signs come
from Descartes' rule applied to the characteristic polynomial, which is
exact for symmetric (hence real-rooted) matrices.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[int]]


def det_int(m: Matrix) -> int:
    """Determinant of an integer matrix: det(x I - M) at x = 0 is det(-M)."""
    return (-1) ** len(m) * charpoly_int(m)[0]


def charpoly_int(m: Matrix) -> list[int]:
    """Coefficients of det(x I - M), ascending degree, via Faddeev-LeVerrier.

    Every M_k = M (M_(k-1) + c_(n-k+1) I) is an integer matrix and k divides
    tr M_k, so the recursion runs on integers with exact division."""
    n = len(m)
    coeffs = [1]  # leading coefficient of x^n
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(x * y for x, y in zip(row, col)) for col in zip(*mk)]
              for row in m]
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        assert rem == 0
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return coeffs[::-1]


def eigenvalue_sign_counts(m: Matrix) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer matrix.

    Uses Descartes' rule of signs on the characteristic polynomial, exact
    because all roots are real.
    """
    p = charpoly_int(m)
    zero = next(i for i, c in enumerate(p) if c != 0)
    reduced = p[zero:]

    def sign_changes(seq):
        signs = [c for c in seq if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    pos = sign_changes(reduced)
    neg = sign_changes([c if i % 2 == 0 else -c for i, c in enumerate(reduced)])
    return pos, neg, zero


def signature(m: Matrix) -> int:
    pos, neg, _ = eigenvalue_sign_counts(m)
    return pos - neg


def inverse_rational(m: Matrix) -> list[list[Fraction]]:
    """Exact inverse of an integer matrix with nonzero determinant."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def cokernel_representatives(m: Matrix) -> list[tuple[int, ...]]:
    """Coset representatives of Z^n / M Z^n for a nonsingular integer matrix.

    x and y lie in one coset exactly when M^-1 (x - y) is integral, so the
    key M^-1 x mod 1 names the coset of x.  The unit vectors generate the
    finite group Z^n / M Z^n, so the closure walk from 0 that adds unit
    vectors and keeps x only when its key is new lists each coset once, in
    |det M| steps."""
    steps = list(zip(*inverse_rational(m)))    # the keys M^-1 e_i
    zero = (0,) * len(m)
    walk, seen = [(zero, zero)], {zero}
    for x, key in walk:     # walk grows while it is read
        for i, step in enumerate(steps):
            k = tuple((a + b) % 1 for a, b in zip(key, step))
            if k not in seen:
                seen.add(k)
                walk.append((x[:i] + (x[i] + 1,) + x[i + 1:], k))
    return [x for x, _ in walk]
