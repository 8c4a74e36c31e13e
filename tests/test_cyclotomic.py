import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qmwrt.cyclotomic import (
    CycloNumber,
    root_power,
    xi_power,
    xi_tilde_power,
)
from qmwrt.number_theory import RootContext, _factorize

eval_complex = CycloNumber.eval_complex
is_integral = CycloNumber.is_integral


def rand_element(rng, D, terms=5, int_coeffs=False):
    coeffs = {}
    for _ in range(terms):
        c = rng.randint(-6, 6) if int_coeffs else Fraction(rng.randint(-6, 6),
                                                           rng.randint(1, 4))
        coeffs[rng.randrange(D)] = c
    return CycloNumber(D, coeffs)


def test_root_power_examples():
    assert root_power(9, 0) == 1
    assert abs(root_power(4, 1).eval_complex() - 1j) < 1e-15
    v = root_power(8, 1) + root_power(8, 7)
    assert abs(v.eval_complex() - math.sqrt(2)) < 1e-12


def test_ring_examples():
    x = root_power(12, 5)
    assert (x + CycloNumber.zero()) == x
    z3 = root_power(3, 1)
    assert z3 * z3 * z3 == 1
    total = sum((root_power(5, k) for k in range(5)), CycloNumber.zero())
    assert total.is_zero()
    assert not total.canonical().c


def test_conductor_mixing_is_lcm():
    a = root_power(4, 1)
    b = root_power(6, 1)
    assert (a * b).D == 12
    assert (a + b).D == 12


def _prime_powers(D):
    out, p = [], 2
    while D > 1:
        e = 0
        while D % p == 0:
            D //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out


def _is_canonical_form(x):
    """At most phi(D) terms, each on a basis exponent: its residue mod every
    p^e exactly dividing D lies below (p - 1) p^(e-1)."""
    pes = _prime_powers(x.D)
    phi = math.prod((p - 1) * p ** (e - 1) for p, e in pes)
    return len(x.c) <= phi and all(
        k % p ** e < (p - 1) * p ** (e - 1) for k in x.c for p, e in pes)


CANONICAL_CONDUCTORS = (1, 2, 4, 8, 9, 12, 25, 27, 30, 36, 60, 124, 420,
                         2700, 8892, 12360)


@lru_cache(maxsize=None)
def _tensor_layout(d: int):
    """Reduction tables for the prime-power tensor decomposition of Q(zeta_d).

    One pair (pe, table) per prime power pe = p^e exactly dividing d.  With
    t = p^(e-1), the local integral basis of Z[zeta_pe] is zeta_pe^j for
    j // t < p - 1, and table[k] = (sign, exponents) writes zeta_pe^k on it.
    A local index j is stored as the exponent j * e_pe mod d, e_pe the CRT
    idempotent (1 mod pe, 0 mod d/pe): so the tensor basis element with
    local indices (j_pe) is zeta_d^k with k = j_pe mod every pe.
    """
    factors = []
    for p, e in _factorize(d).items():
        pe, t = p ** e, p ** (e - 1)
        idem = d // pe * pow(d // pe, -1, pe) % d
        table = []
        for k in range(pe):
            block, j = divmod(k, t)
            if block < p - 1:
                table.append((1, (k * idem % d,)))
            else:
                table.append((-1, tuple((a * t + j) * idem % d
                                        for a in range(p - 1))))
        factors.append((pe, tuple(table)))
    return tuple(factors)


def _canonical_reference(x):
    """The canonical form by expanding each term over all prime-power factors
    of D at once, into the product of its local images (`_tensor_layout`)."""
    D = x.D
    factors = _tensor_layout(D)
    coords: dict[int, int] = {}
    get = coords.get
    for k, v in x.c.items():
        # expand k across the prime power factors
        terms = [(1, 0)]
        for pe, table in factors:
            sign, exps = table[k % pe]
            terms = [(sg * sign, base + e) for sg, base in terms for e in exps]
        for sg, base in terms:
            base %= D
            coords[base] = get(base, 0) + (v if sg > 0 else -v)
    return CycloNumber.from_int_dict(D, coords, x.den)


def _top_block_element(rng, D, terms=12):
    """A random element whose every exponent lies in the top block
    [(p - 1) p^(e-1), p^e) mod every p^e exactly dividing D: the terms that
    move in every reduction pass."""
    top = [k for k in range(D) if all(k % p ** e >= (p - 1) * p ** (e - 1)
                                      for p, e in _prime_powers(D))]
    return CycloNumber(D, {k: Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.randint(1, 4))
                           for k in rng.sample(top, min(terms, len(top)))})


def test_canonical_examples():
    assert _fraction_coeffs(root_power(5, 4).canonical()) == {k: -1 for k in range(4)}
    assert _fraction_coeffs(root_power(2, 1).canonical()) == {0: -1}
    # zeta_12^3 = i: 3 mod 4 is off the basis (zeta_4^3 = -zeta_4), and the
    # exponent that is 1 mod 4 and 0 mod 3 is 9, so i = -zeta_12^9
    assert _fraction_coeffs(root_power(12, 3).canonical()) == {9: -1}
    # integer inputs stay integral
    rng = random.Random(3)
    for _ in range(50):
        D = rng.choice([8, 12, 20, 30, 420])
        x = rand_element(rng, D, int_coeffs=True).canonical()
        assert x.den == 1 and _is_canonical_form(x)


def test_canonical_idempotent_linear_and_numeric():
    rng = random.Random(9)
    for D in CANONICAL_CONDUCTORS:
        for _ in range(12):
            x = rand_element(rng, D, terms=rng.randint(1, 12))
            y = rand_element(rng, D, terms=rng.randint(1, 12))
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            cx, cy = x.canonical(), y.canonical()
            assert cx.D == D and _is_canonical_form(cx)
            for z in (x, y, x + y, _top_block_element(rng, D)):
                cz, ref = z.canonical(), _canonical_reference(z)
                assert (cz.D, cz.c, cz.den) == (ref.D, ref.c, ref.den), (D, z)
            again = cx.canonical()
            assert (again.c, again.den) == (cx.c, cx.den)
            assert _fraction_coeffs((x + y).canonical()) == _fraction_coeffs(cx + cy)
            assert _fraction_coeffs((q * x).canonical()) == _fraction_coeffs(q * cx)
            assert abs(cx.eval_complex() - x.eval_complex()) < 1e-9


def test_equality_is_an_empty_canonical_difference():
    rng = random.Random(13)
    for D in CANONICAL_CONDUCTORS:
        for _ in range(12):
            x = rand_element(rng, D, terms=6)
            # y is x plus a multiple of a vanishing sum 1 + z + ... + z^(p-1)
            # (z a primitive p-th root, p | D), or an unrelated element
            vanishing = CycloNumber.zero(D)
            for p, _e in _prime_powers(D)[:1]:
                vanishing = sum((root_power(p, k) for k in range(p)), vanishing) \
                    * root_power(D, rng.randrange(D))
            y = x + rng.randint(-3, 3) * vanishing if rng.random() < 0.5 \
                else rand_element(rng, D, terms=6)
            assert (x == y) == (not (x - y).canonical().c), (D, x, y)
            if x == y:
                assert abs(x.eval_complex() - y.eval_complex()) < 1e-9
                cx, cy = x.canonical(), y.canonical()
                assert (cx.c, cx.den) == (cy.c, cy.den)


def test_equality_matches_numeric():
    rng = random.Random(17)
    for _ in range(100):
        D = rng.choice([12, 60])
        x = rand_element(rng, D)
        y = rand_element(rng, D)
        eq = (x == y)
        numeric_eq = abs(x.eval_complex() - y.eval_complex()) < 1e-9
        assert eq == numeric_eq or not eq  # exact equality implies numeric


def test_field_axioms_random():
    rng = random.Random(23)
    for D in (12, 60, 420):
        for _ in range(30):
            x = rand_element(rng, D, terms=3)
            y = rand_element(rng, D, terms=3)
            z = rand_element(rng, D, terms=3)
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)


def test_is_integral_examples():
    assert is_integral(root_power(20, 13))
    assert not is_integral(Fraction(1, 2) * root_power(5, 1))
    # (1 - zeta^2) / (1 - zeta) = 1 + zeta, with 1/(1 - zeta) written as
    # -(1/5) sum_t t zeta^t: stored over 5, integral only once reduced
    unit = CycloNumber(5, {t: Fraction(-t, 5) for t in range(1, 5)}) \
        * (CycloNumber.one() - root_power(5, 2))
    assert unit.den == 5 and unit == 1 + root_power(5, 1)
    assert is_integral(unit)
    rng = random.Random(31)
    for _ in range(500):
        D = rng.choice([8, 12, 15, 24, 30])
        assert is_integral(rand_element(rng, D, int_coeffs=True))


def test_eval_complex_examples():
    assert eval_complex(CycloNumber.one()) == 1
    assert abs(eval_complex(root_power(4, 1)) - 1j) < 1e-15
    rng = random.Random(41)
    for _ in range(100):
        D = rng.choice([12, 36, 100])
        x = rand_element(rng, D, int_coeffs=True)
        direct = sum(float(v) * complex(math.cos(2 * math.pi * k / D),
                                        math.sin(2 * math.pi * k / D))
                     for k, v in x.c.items())
        assert abs(direct - x.eval_complex()) < 1e-10


def test_eval_complex_is_independent_of_insertion_order():
    rng = random.Random(5)
    items = [(k, rng.randint(-10 ** 6, 10 ** 6)) for k in rng.sample(range(360), 200)]
    x = CycloNumber.from_int_dict(360, dict(items), 7)
    y = CycloNumber.from_int_dict(360, dict(reversed(items)), 7)
    assert (x.D, x.c, x.den) == (y.D, y.c, y.den) and list(x.c) != list(y.c)
    assert x.eval_complex() == y.eval_complex()


def test_conjugate_and_reduce_conductor():
    x = root_power(12, 5)
    assert x.conjugate() == root_power(12, 7)
    y = CycloNumber(12, {0: 1, 4: 2, 8: -3})
    reduced = y.reduce_conductor()
    assert reduced.D == 3 and reduced == y


def test_from_turns():
    assert CycloNumber.from_turns(Fraction(3, 12)) == root_power(4, 1)
    ctx = RootContext(7, 5)
    assert xi_power(ctx, 2) == root_power(7, 10 % 7)
    assert xi_power(ctx, Fraction(1, 4)) == root_power(28, 5)
    assert xi_tilde_power(ctx, 1) == CycloNumber.from_turns(Fraction(-7, 5))


def test_pow():
    z = root_power(7, 2)
    assert z ** 3 == root_power(7, 6)
    x = CycloNumber.one() + root_power(5, 1)
    assert x ** 3 == x * x * x
    assert x ** 0 == 1
    # a single root has negative powers; a sum of roots has no general
    # field division, neither as a power nor as a divisor
    assert z ** -2 * Fraction(1, 3) == (3 * z) ** -1 * z ** -1
    with pytest.raises(ArithmeticError):
        x ** -1
    # zero has no inverse, stored empty or as a vanishing sum of roots
    for zero in (CycloNumber.zero(12), CycloNumber.one() + root_power(2, 1)):
        with pytest.raises(ZeroDivisionError):
            zero ** -1
    with pytest.raises(TypeError):
        z / x


def test_inexact_scalars_are_rejected():
    # a float would silently become a wrong "exact" value
    x = root_power(12, 1)
    for bad in (0.1, 0.3 + 0j, 1j):
        with pytest.raises(TypeError):
            CycloNumber(5, {1: bad})
        for op in (lambda: x * bad, lambda: bad * x, lambda: x + bad,
                   lambda: bad + x, lambda: x - bad, lambda: bad - x,
                   lambda: x / bad):
            with pytest.raises(TypeError):
                op()
    assert x * Fraction(1, 10) * 10 == x
    assert (x + Fraction(3, 10)) - Fraction(3, 10) == x


def _fraction_coeffs(x):
    return {k: Fraction(v, x.den) for k, v in x.c.items()}


def _reference_product(D1, a, D2, b):
    """Schoolbook product of {exponent: Fraction} dicts in Q[x]/(x^D - 1),
    D = lcm(D1, D2), with zero coefficients dropped."""
    D = math.lcm(D1, D2)
    acc = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = (k1 * (D // D1) + k2 * (D // D2)) % D
            acc[k] = acc.get(k, 0) + Fraction(v1) * Fraction(v2)
    return D, {k: v for k, v in acc.items() if v}


def _random_coeffs(rng, D, terms, kind):
    out = {}
    for _ in range(terms):
        if kind == "small":
            v = rng.randint(-6, 6)
        elif kind == "huge":       # beyond 64 bits, both signs
            v = rng.choice((-1, 1)) * rng.randint(2 ** 64, 2 ** 90)
        else:                      # non-trivial denominators
            v = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 720))
        out[rng.randrange(D)] = v
    return out


def test_product_matches_fraction_reference(monkeypatch):
    from qmwrt import cyclotomic

    kronecker_calls = []
    real = cyclotomic._kronecker

    def counted(*args):
        kronecker_calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(cyclotomic, "_kronecker", counted)
    rng = random.Random(2024)
    multi_term = 0
    cases = [(D, D, terms) for D in (1, 2, 12, 60, 420) for terms in (3, D // 2 + 1)]
    cases += [(12, 35, 6), (60, 84, 40), (420, 9, 100)]   # lcm embedding
    for D1, D2, terms in cases:
        for kind in ("small", "huge", "fraction"):
            a = _random_coeffs(rng, D1, terms, kind)
            b = _random_coeffs(rng, D2, terms, rng.choice(("small", "huge", "fraction")))
            x, y = CycloNumber(D1, a), CycloNumber(D2, b)
            D, expected = _reference_product(D1, a, D2, b)
            got = x * y
            assert got.D == D and _fraction_coeffs(got) == expected, (D1, D2, kind)
            assert _fraction_coeffs(y * x) == expected
            multi_term += min(len(x.c), len(y.c)) > 1
            for unit in (CycloNumber.zero(D2), CycloNumber.one(), root_power(D2, 1)):
                ref = _reference_product(D1, a, unit.D, _fraction_coeffs(unit))[1]
                assert _fraction_coeffs(x * unit) == ref
    # both sides of the algorithm choice ran
    assert 0 < len(kronecker_calls) < multi_term


def test_from_int_dict_with_denominator_multiplies_like_fractions():
    rng = random.Random(7)
    for D, den in ((60, 12), (420, 2 ** 70 + 1), (7, 49)):
        a = {k: rng.randint(-10 ** 30, 10 ** 30) for k in range(0, D, 2)}
        b = {k: rng.randint(-9, 9) for k in range(D)}
        x = CycloNumber.from_int_dict(D, a, den)
        y = CycloNumber.from_int_dict(D, b, 6)
        fa = {k: Fraction(v, den) for k, v in a.items() if v}
        fb = {k: Fraction(v, 6) for k, v in b.items() if v}
        assert _fraction_coeffs(x) == fa
        assert _fraction_coeffs(x * y) == _reference_product(D, fa, D, fb)[1]
        total = {k: fa.get(k, 0) + fb.get(k, 0) for k in set(fa) | set(fb)}
        assert _fraction_coeffs(x + y) == {k: v for k, v in total.items() if v}
