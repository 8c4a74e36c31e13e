"""Small exact integer-matrix utilities: determinants, characteristic
polynomials, eigenvalue sign counts and Smith normal form.

Sizes here are tiny (surgery links have a handful of components), so clarity
wins over asymptotics.  No floating point anywhere: eigenvalue signs come
from Descartes' rule applied to the characteristic polynomial, which is
exact for symmetric (hence real-rooted) matrices.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[int]]


def det_int(m: Matrix) -> int:
    """Determinant of an integer matrix (fraction-free via Fraction elimination)."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    assert det.denominator == 1
    return int(det)


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


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(U, S, V) with S = U m V diagonal and U, V unimodular."""
    n_rows = len(m)
    n_cols = len(m[0])
    s = [row[:] for row in m]
    u = [[int(i == j) for j in range(n_rows)] for i in range(n_rows)]
    v = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, mult):
        s[dst] = [x + mult * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + mult * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, mult):
        for row in s:
            row[dst] += mult * row[src]
        for row in v:
            row[dst] += mult * row[src]

    t = 0
    while t < min(n_rows, n_cols):
        # find a nonzero pivot in the remaining block
        pivot = next(((i, j) for i in range(t, n_rows) for j in range(t, n_cols)
                      if s[i][j] != 0), None)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            done = True
            for i in range(t + 1, n_rows):
                if s[i][t] % s[t][t]:
                    add_row(t, i, -(s[i][t] // s[t][t]))
                    swap_rows(t, i)
                    done = False
                elif s[i][t]:
                    add_row(t, i, -(s[i][t] // s[t][t]))
            for j in range(t + 1, n_cols):
                if s[t][j] % s[t][t]:
                    add_col(t, j, -(s[t][j] // s[t][t]))
                    swap_cols(t, j)
                    done = False
                elif s[t][j]:
                    add_col(t, j, -(s[t][j] // s[t][t]))
            if done:
                break
        t += 1
    return u, s, v


def cokernel_representatives(m: Matrix) -> list[tuple[int, ...]]:
    """Coset representatives of Z^n / M Z^n for a nonsingular integer matrix."""
    n = len(m)
    u, s, _ = smith_normal_form(m)
    dims = [abs(s[i][i]) for i in range(n)]
    if any(d == 0 for d in dims):
        raise ValueError("matrix is singular; cokernel is infinite")
    uinv = inverse_rational(u)
    reps = []
    idx = [0] * n
    while True:
        vec = tuple(int(sum(uinv[i][j] * idx[j] for j in range(n)))
                    for i in range(n))
        reps.append(vec)
        for k in range(n):
            idx[k] += 1
            if idx[k] < dims[k]:
                break
            idx[k] = 0
        else:
            break
    return reps
