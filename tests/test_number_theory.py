import math
import random
from fractions import Fraction

import pytest

from qmwrt.number_theory import (
    RootContext,
    bernoulli_number,
    dedekind_sum,
    jacobi,
    moebius,
    normalize_s,
)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """Bernoulli polynomial B_n(x) as an exact rational, from the Bernoulli
    numbers: the reference the L-value tests compare against."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Fraction(x)
    return sum((math.comb(n, j) * bernoulli_number(j) * x ** (n - j)
                for j in range(n + 1)), start=Fraction(0))


def sawtooth(x: Fraction) -> Fraction:
    """((x)): x - floor(x) - 1/2 for non-integer x, and 0 for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_sum_direct(q: int, p: int) -> Fraction:
    """Dedekind sum s(q, p) by direct O(p) summation of the sawtooth product,
    the reference for the reciprocity recursion of `dedekind_sum`."""
    return sum((sawtooth(Fraction(k, p)) * sawtooth(Fraction(k * q, p))
                for k in range(1, p)), Fraction(0))


def euler_phi(n: int) -> int:
    """Euler totient, by counting."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_jacobi_examples():
    assert jacobi(7, 1) == 1          # empty product
    # 3 is a non-residue mod 5: squares mod 5 are {0, 1, 4}
    assert {n * n % 5 for n in range(5)} == {0, 1, 4}
    assert jacobi(3, 5) == -1
    # multiplicativity: (2/15) = (2/3)(2/5) = (-1)(-1)
    assert jacobi(2, 3) == -1 and jacobi(2, 5) == -1
    assert jacobi(2, 15) == 1


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, -5)


def test_jacobi_multiplicative_in_top():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice([n for n in range(3, 100, 2)])
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        assert jacobi(a, n) * jacobi(b, n) == jacobi(a * b, n)


def test_jacobi_matches_legendre_on_primes():
    for p in (3, 5, 7, 11, 13, 17):
        residues = {n * n % p for n in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in residues else -1
            assert jacobi(a, p) == expected


def test_normalize_s_examples():
    for r in (1, 3, 5, 9, 31):
        assert normalize_s(1, r) == 1
    assert normalize_s(3, 5) == 13
    assert normalize_s(5, 9) == 5


def test_normalize_s_postconditions():
    rng = random.Random(5)
    for _ in range(200):
        r = rng.choice(range(3, 60, 2))
        s = rng.randint(-40, 40)
        if math.gcd(s, r) != 1:
            with pytest.raises(ValueError):
                normalize_s(s, r)
            continue
        out = normalize_s(s, r)
        assert out > 0
        assert (out - s) % r == 0
        assert out % 4 == 1
        assert math.gcd(out, 4 * r) == 1
        # smallest positive such representative
        for smaller in range(1, out):
            ok = (smaller - s) % r == 0 and smaller % 4 == 1
            assert not ok


def test_dedekind_examples():
    assert dedekind_sum(5, 1) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(2, 3) == Fraction(-1, 18)
    assert dedekind_sum(-1, 3) == Fraction(-1, 18)


def test_dedekind_matches_direct_sum():
    rng = random.Random(2)
    for _ in range(60):
        p = rng.randint(1, 120)
        q = rng.randint(-120, 120)
        if math.gcd(q, p) != 1:
            continue
        assert dedekind_sum(q, p) == dedekind_sum_direct(q, p)


def test_dedekind_reciprocity():
    rng = random.Random(7)
    seen = 0
    while seen < 100:
        p = rng.randint(2, 200)
        q = rng.randint(1, 200)
        if math.gcd(p, q) != 1:
            continue
        seen += 1
        lhs = dedekind_sum(q, p) + dedekind_sum(p, q)
        rhs = Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p)
                                 + Fraction(1, p * q)) / 12
        assert lhs == rhs


def test_dedekind_rejects_common_factor():
    with pytest.raises(ValueError):
        dedekind_sum(2, 4)


def test_sawtooth():
    assert sawtooth(Fraction(1, 2)) == 0
    assert sawtooth(Fraction(3)) == 0
    assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
    assert sawtooth(Fraction(-1, 4)) == Fraction(1, 4)


def test_bernoulli_poly_examples():
    assert bernoulli_poly(0, Fraction(7, 3)) == 1
    assert bernoulli_poly(1, Fraction(1, 4)) == Fraction(-1, 4)   # x - 1/2
    assert bernoulli_poly(3, Fraction(0)) == 0                    # B_3 = 0
    # B_3(x) = x^3 - 3x^2/2 + x/2
    x = Fraction(2, 5)
    assert bernoulli_poly(3, x) == x ** 3 - Fraction(3, 2) * x ** 2 + x / 2


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1


def test_moebius_sum_over_divisors():
    for n in range(1, 1001):
        total = sum(moebius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 12, 60)] == [1, 1, 4, 16]


def test_root_context_validation():
    ctx = RootContext(5, 13)
    assert (ctx.r, ctx.s) == (5, 13)
    with pytest.raises(ValueError):
        RootContext(4, 1)
    with pytest.raises(ValueError):
        RootContext(5, 3)     # 3 != 1 mod 4
    with pytest.raises(ValueError):
        RootContext(5, 25)    # shares a factor with r
    tilde = RootContext(7, 5).tilde()
    assert tilde.r == 5 and (tilde.s + 7) % 5 == 0 and tilde.s % 4 == 1
