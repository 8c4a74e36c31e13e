import math
import random
from fractions import Fraction

from qmwrt.gauss_sums import gauss_brute, gauss_closed
from qmwrt.number_theory import RootContext
from qmwrt.wrt import f_surgery_inverse, f_surgery_normalization


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


def test_f_unknot_ratio_modulus_one():
    for r, s in ((5, 1), (7, 5), (9, 13)):
        ctx = RootContext(r, s)
        ratio = f_surgery_normalization(1, ctx).eval_complex() \
            / f_surgery_normalization(-1, ctx).eval_complex()
        assert abs(abs(ratio) - 1) < 1e-12


def test_f_unknot_normalizes_s3():
    # tau(S^3) as +1 surgery on the unknot: F(U+)/F(U+) = 1
    ctx = RootContext(7, 1)
    assert f_surgery_normalization(1, ctx) * f_surgery_inverse(1, ctx) == 1
