import math
import random
from fractions import Fraction

import pytest

from qmwrt.gauss_sums import (
    QuadraticFormZ,
    f_unknot,
    gauss_brute,
    gauss_closed,
    gauss_high_rank,
    gauss_linear,
    reciprocity,
)
from qmwrt.intmatrix import det_int
from qmwrt.number_theory import RootContext
from qmwrt.wrt import f_surgery_inverse


def test_brute_examples():
    assert gauss_brute(3, 1) == 1
    assert abs(gauss_brute(1, 5).eval_complex() - math.sqrt(5)) < 1e-12
    assert gauss_brute(1, 2).is_zero()
    assert abs(gauss_brute(1, 3).eval_complex() - 1j * math.sqrt(3)) < 1e-12


def test_closed_form_cases():
    assert gauss_closed(1, 6).phase == "0"          # r = 2 mod 4
    c = gauss_closed(1, 5)
    assert (c.jacobi, c.phase, c.sqrt_radicand) == (1, "1", 5)
    c = gauss_closed(1, 3)
    assert (c.jacobi, c.phase, c.sqrt_radicand) == (1, "i", 3)
    c = gauss_closed(1, 4)
    assert c.phase == "1+i"


def test_closed_equals_brute_all_odd_r():
    for r in range(1, 100, 2):
        for s in range(1, r + 1):
            if math.gcd(s, r) == 1:
                brute = gauss_brute(s, r)
                closed = gauss_closed(s, r)
                assert abs(brute.eval_complex() - closed.numeric) < 1e-10
                # exact comparison after clearing sqrt(r) by squaring
                expected = Fraction(r) if r % 4 == 1 else Fraction(-r)
                assert brute * brute == expected, (s, r)


def test_gauss_norm_squared():
    rng = random.Random(13)
    count = 0
    while count < 100:
        r = rng.choice(range(3, 120, 2))
        s = rng.randrange(1, r)
        if math.gcd(s, r) != 1:
            continue
        count += 1
        g = gauss_brute(s, r)
        assert (g * g.conjugate()) == r


def test_degenerate_gcd_reduction():
    for s, r in ((6, 9), (10, 15), (3, 9), (12, 8)):
        assert abs(gauss_brute(s, r).eval_complex()
                   - gauss_closed(s, r).numeric) < 1e-10


def test_multiplicativity_coprime_moduli():
    # G(s, r1 r2) = G(s r2, r1) G(s r1, r2); the Jacobi reciprocity sign
    # lives inside the closed forms of the factors.
    rng = random.Random(19)
    done = 0
    while done < 50:
        r1 = rng.choice([3, 5, 7, 9, 11, 13])
        r2 = rng.choice([5, 7, 11, 13, 17, 25])
        if math.gcd(r1, r2) != 1:
            continue
        s = rng.randrange(1, r1 * r2)
        if math.gcd(s, r1 * r2) != 1:
            continue
        done += 1
        whole = gauss_brute(s, r1 * r2)
        split = gauss_brute(s * r2, r1) * gauss_brute(s * r1, r2)
        assert (whole - split).is_zero()


def test_gauss_linear_examples():
    from qmwrt.cyclotomic import CycloNumber, root_power

    # no linear term: reduces to a plain Gauss sum
    assert gauss_linear(2, 0, 1, 7) == gauss_brute(2, 7)
    # (1, 1, 1, 5) equals the direct five-term sum exactly
    direct = CycloNumber.zero(5)
    for n in range(5):
        direct = direct + root_power(5, (n * n + 2 * n) % 5)
    assert gauss_linear(1, 1, 1, 5) == direct
    # gcd degeneration: g = 3 does not divide 2A = 2
    assert gauss_linear(3, 1, 1, 9).is_zero()


def test_gauss_linear_vs_direct_random():
    from qmwrt.cyclotomic import CycloNumber, root_power
    rng = random.Random(29)
    done = 0
    while done < 200:
        r = rng.choice([3, 5, 7, 9, 15, 21, 25, 27, 33, 45])
        s = rng.randrange(1, r)
        if math.gcd(s, r) != 1:
            continue
        done += 1
        big_p = rng.randint(-20, 20)
        a2 = rng.randint(-20, 20)   # 2A
        direct = CycloNumber.zero(r)
        for n in range(r):
            direct = direct + root_power(r, s * (big_p * n * n + a2 * n))
        got = gauss_linear(big_p, Fraction(a2, 2), s, r)
        assert (got - direct).is_zero(), (big_p, a2, s, r)


def test_gauss_linear_rejects_even_modulus():
    with pytest.raises(ValueError):
        gauss_linear(1, 0, 1, 4)


def test_f_unknot_two_paths():
    for r, s in ((5, 1), (7, 5), (9, 13), (3, 1), (11, 1)):
        ctx = RootContext(r, s)
        for sign in (1, -1):
            f = f_unknot(sign, ctx)
            assert abs(f.exact.eval_complex() - f.closed_numeric) < 1e-10


def test_f_unknot_ratio_modulus_one():
    for r, s in ((5, 1), (7, 5), (9, 13)):
        ctx = RootContext(r, s)
        ratio = f_unknot(1, ctx).exact.eval_complex() \
            / f_unknot(-1, ctx).exact.eval_complex()
        assert abs(abs(ratio) - 1) < 1e-12


def test_f_unknot_normalizes_s3():
    # tau(S^3) as +1 surgery on the unknot: F(U+)/F(U+) = 1
    ctx = RootContext(7, 1)
    f = f_unknot(1, ctx).exact
    assert f * f_surgery_inverse(1, ctx) == 1


def test_reciprocity_examples():
    lhs, rhs = reciprocity(QuadraticFormZ(((2,),), (Fraction(0),)), 3)
    assert abs(lhs - rhs) < 1e-9
    # one-element sums (both sides have a single term)
    lhs, rhs = reciprocity(QuadraticFormZ(((2,),), (Fraction(0),)), 1)
    assert abs(lhs - 1) < 1e-12 and abs(rhs - 1) < 1e-12
    # hypothesis violation is reported: r B11 odd
    with pytest.raises(ValueError, match="diagonal"):
        reciprocity(QuadraticFormZ(((1,),), (Fraction(0),)), 1)
    with pytest.raises(ValueError, match="psi"):
        reciprocity(QuadraticFormZ(((2,),), (Fraction(1, 3),)), 2)


def test_reciprocity_random():
    rng = random.Random(7)
    done = 0
    while done < 50:
        n = rng.choice([1, 2, 3])
        r = rng.choice([1, 2, 3, 4, 5, 6])
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            b[i][i] = rng.randint(-3, 3) * (2 if r % 2 else 1)
            for j in range(i + 1, n):
                b[i][j] = b[j][i] = rng.randint(-3, 3)
        if det_int(b) == 0:
            continue
        done += 1
        psi = tuple(Fraction(rng.randint(0, r - 1), r) for _ in range(n))
        lhs, rhs = reciprocity(QuadraticFormZ(tuple(map(tuple, b)), psi), r)
        assert abs(lhs - rhs) < 1e-9


def test_high_rank_examples():
    hr = gauss_high_rank([[1]], 5)
    assert abs(hr.closed_numeric - math.sqrt(5)) < 1e-12
    assert abs(hr.brute.eval_complex() - math.sqrt(5)) < 1e-12
    hr = gauss_high_rank([[1]], 3)
    assert hr.i_exponent == 1
    assert abs(hr.closed_numeric - 1j * math.sqrt(3)) < 1e-12
    hr = gauss_high_rank([[1, 0], [0, 2]], 5)
    assert abs(hr.closed_numeric - hr.brute.eval_complex()) < 1e-9


def test_high_rank_random():
    rng = random.Random(3)
    done = 0
    while done < 50:
        n = rng.choice([1, 2, 3])
        r = rng.choice([3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25])
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            b[i][i] = rng.randint(-4, 4)
            for j in range(i + 1, n):
                b[i][j] = b[j][i] = rng.randint(-3, 3)
        d = det_int(b)
        if d == 0 or math.gcd(d, r) != 1:
            continue
        done += 1
        hr = gauss_high_rank(b, r)
        assert abs(hr.closed_numeric - hr.brute.eval_complex()) \
            < 1e-9 * r ** (n / 2)


def test_high_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        gauss_high_rank([[1]], 4)
    with pytest.raises(ValueError):
        gauss_high_rank([[3]], 9)     # det shares a factor with r
    with pytest.raises(ValueError):
        gauss_high_rank([[0]], 5)     # degenerate
