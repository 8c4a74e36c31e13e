import cmath
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from qmwrt.false_theta import (
    eichler_limit,
    eichler_limit_complex,
    l_value,
    phi_basis,
    psi_basis,
    psi_combo,
    s_matrix_phi,
    s_transform_residual,
    trivial_series,
    PeriodicFunction,
)
from qmwrt.number_theory import RootContext
from qmwrt.seifert import rotation_triples
from test_number_theory import bernoulli_poly


def theta_truncated(f: PeriodicFunction, P: int, tau: complex, cutoff: int,
                    scale=Fraction(1)) -> complex:
    """Partial theta sum scale * sum_{0 <= l <= cutoff} l f(l) e^(2 pi i tau l^2/4P),
    the reference for the S-matrix of the triple basis at tau = i.

    Converges like a Gaussian for Im tau > 0; pass scale = 1/2 for the
    triple-basis normalization."""
    if tau.imag <= 0:
        raise ValueError("tau must be in the upper half plane")
    if cutoff < 2 * P:
        raise ValueError("cutoff must cover at least one period")
    total = 0j
    for l in range(cutoff + 1):
        v = f(l)
        if v:
            total += l * v * cmath.exp(2j * math.pi * tau * l * l / (4 * P))
    return float(Fraction(scale)) * total


def test_phi_table_235():
    # derived from the generating function
    #   prod_j (u^(P/p_j) - u^(-P/p_j)) / (u^P - u^-P) = u + 1/u + sum f(l) u^l
    f = phi_basis((2, 3, 5), (1, 1, 1))
    assert {l: f(l) for l in f.support()} == {
        1: -1, 11: -1, 19: -1, 29: -1, 31: 1, 41: 1, 49: 1, 59: 1}


def test_phi_table_237():
    f = phi_basis((2, 3, 7), (1, 1, 1))
    assert {l: f(l) for l in f.support()} == {
        1: 1, 13: -1, 29: -1, 41: 1, 43: -1, 55: 1, 71: 1, 83: -1}


def test_phi_generating_function_property():
    # sum_{l>=0} f(l) u^l must reproduce the rational function at |u| < 1
    for p in [(2, 3, 7), (2, 5, 7), (3, 4, 5)]:
        big_p = math.prod(p)
        f = phi_basis(p, (1, 1, 1))
        u = 0.83 * cmath.exp(0.37j)
        series = sum(f(l) * u ** l for l in range(4000))
        closed = 1.0
        for pj in p:
            closed *= u ** (big_p // pj) - u ** -(big_p // pj)
        closed /= u ** big_p - u ** -big_p
        assert abs(series - closed) < 1e-8


def test_phi_sigma_invariance_and_oddness():
    rng = random.Random(3)
    for _ in range(30):
        p = rng.choice([(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 9)])
        a = tuple(rng.randint(1, pj - 1) for pj in p)
        f = phi_basis(p, a)
        # double sign flips leave the table unchanged
        for i, j in ((0, 1), (0, 2), (1, 2)):
            b = list(a)
            b[i] = p[i] - b[i]
            b[j] = p[j] - b[j]
            assert phi_basis(p, tuple(b)).values == f.values
        # oddness and mean zero are asserted at construction; recheck anyway
        assert sum(f.values) == 0
        assert all(f(-l) == -f(l) for l in range(f.period))
    with pytest.raises(ValueError):
        phi_basis((2, 3, 5), (1, 3, 1))


def test_independent_tables_count_sweep():
    # the canonical rotation triples index pairwise-distinct tables for
    # every admissible triple with product up to 1000
    from qmwrt.seifert import rotation_order
    for p1 in range(2, 11):
        for p2 in range(p1 + 1, 1000 // p1 + 1):
            if math.gcd(p1, p2) != 1:
                continue
            for p3 in range(p2 + 1, 1000 // (p1 * p2) + 1):
                if math.gcd(p3, p1) != 1 or math.gcd(p3, p2) != 1:
                    continue
                if (p1 % 2 == 0) + (p2 % 2 == 0) + (p3 % 2 == 0) > 1:
                    continue
                pc = rotation_order((p1, p2, p3))
                tables = {phi_basis(pc, a).values for a in rotation_triples(pc)}
                assert len(tables) == (p1 - 1) * (p2 - 1) * (p3 - 1) // 4


def test_independent_tables_count():
    from qmwrt.seifert import rotation_order
    for p in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7), (2, 3, 11)]:
        pc = rotation_order(p)
        tables = {phi_basis(pc, a).values for a in rotation_triples(p)}
        dim = (p[0] - 1) * (p[1] - 1) * (p[2] - 1) // 4
        assert len(tables) == dim
        # every full-range table is one of the canonical ones
        all_tables = {phi_basis(pc, (a1, a2, a3)).values
                      for a1 in range(1, pc[0])
                      for a2 in range(1, pc[1])
                      for a3 in range(1, pc[2])}
        assert all_tables == tables


def test_psi_examples():
    assert psi_basis(2, 1).values == (0, 1, 0, -1)
    f = psi_basis(6, 3)
    assert {l: f(l) for l in f.support()} == {3: 1, 9: -1}
    assert all(f(-l) == -f(l) for l in range(12))
    with pytest.raises(ValueError):
        psi_basis(6, 6)


def test_psi_combo_linearity():
    combo = psi_combo(6, {1: 1, 3: 2, 5: 1})
    ref = [0] * 12
    for a, n in ((1, 1), (3, 2), (5, 1)):
        ref[a] += n
        ref[12 - a] -= n
    assert combo.values == tuple(ref)


def test_periodic_function_validation():
    with pytest.raises(ValueError):
        PeriodicFunction(4, (0, 1, 0, 1))    # not odd
    with pytest.raises(ValueError):
        PeriodicFunction(4, (1, 1, -1, -1))  # not odd at l=0


def test_periodic_function_takes_a_list_table():
    f = PeriodicFunction(4, [0, 1, 0, -1])
    assert f.values == (0, 1, 0, -1) and f == PeriodicFunction(4, (0, 1, 0, -1))
    with pytest.raises(ValueError, match="not odd at l=1"):
        PeriodicFunction(4, [0, 1, 0, 1])


def test_eichler_limit_examples():
    assert eichler_limit(psi_basis(2, 1), 2, Fraction(0)).as_rational() \
        == Fraction(1, 2)
    zero = PeriodicFunction(4, (0, 0, 0, 0))
    assert eichler_limit(zero, 2, Fraction(1, 3)).is_zero()


def test_eichler_limit_at_zero_equals_l_value():
    for (p, a) in [((2, 3, 5), (1, 1, 1)), ((2, 3, 7), (1, 1, 2))]:
        big_p = math.prod(p)
        f = phi_basis(p, a)
        assert eichler_limit(f, big_p, Fraction(0)).as_rational() \
            == l_value(f, big_p, 0)
    for big_p, label in ((2, 1), (6, 3), (6, 5)):
        f = psi_basis(big_p, label)
        assert eichler_limit(f, big_p, Fraction(0)).as_rational() \
            == l_value(f, big_p, 0)


def test_eichler_numeric_twin():
    rng = random.Random(11)
    for _ in range(20):
        p = rng.choice([(2, 3, 5), (2, 3, 7)])
        big_p = math.prod(p)
        a = tuple(rng.randint(1, pj - 1) for pj in p)
        f = phi_basis(p, a)
        alpha = Fraction(rng.choice([1, 5, 13]), rng.choice([3, 7, 11]))
        exact = eichler_limit(f, big_p, alpha).eval_complex()
        fast = eichler_limit_complex(f, big_p, alpha)
        assert abs(exact - fast) < 1e-10
    # denominators near 2001, where the sums run over about 8,000 terms
    for p, a, alpha in (((2, 3, 7), (1, 1, 1), Fraction(5, 2001)),
                        ((2, 5, 7), (1, 2, 3), Fraction(-1999, 2003))):
        big_p = math.prod(p)
        f = phi_basis(p, a)
        exact = eichler_limit(f, big_p, alpha).eval_complex()
        assert abs(eichler_limit_complex(f, big_p, alpha) - exact) < 1e-10


def _eichler_reference(f, big_p, alpha):
    """The defining sum over every l < 2Pc, term by term."""
    from qmwrt.cyclotomic import CycloNumber

    a, c = alpha.numerator, alpha.denominator
    d_cond = 4 * big_p * c
    acc: dict[int, int] = {}
    for l in range(1, 2 * big_p * c):
        if f(l):
            k = a * l * l % d_cond
            acc[k] = acc.get(k, 0) + f(l) * (big_p * c - l)
    return CycloNumber.from_int_dict(d_cond, acc, 2 * big_p * c)


def test_eichler_limit_equals_the_defining_sum():
    rng = random.Random(17)
    tables = []
    for p in [(2, 3, 5), (2, 3, 7), (2, 5, 7)]:
        labels = rotation_triples(p)
        tables += [(math.prod(p), phi_basis(p, rng.choice(labels)))
                   for _ in range(2)]
    for _ in range(4):
        big_p = rng.randint(2, 40)
        terms = {rng.randint(1, big_p - 1): rng.randint(-3, 3)
                 for _ in range(rng.randint(1, 4))}
        tables.append((big_p, psi_combo(big_p, terms)))
    for big_p, f in tables:
        for c in (1, 2, 2 * rng.randint(2, 40), 2 * rng.randint(250, 300) + 1):
            a = rng.randint(1, 3 * c)
            while math.gcd(a, c) != 1:
                a += 1
            for alpha in (Fraction(a, c), Fraction(-a, c)):
                got = eichler_limit(f, big_p, alpha)
                ref = _eichler_reference(f, big_p, alpha)
                assert (got.D, got.c, got.den) == (ref.D, ref.c, ref.den), \
                    (big_p, f.support(), alpha)


def test_eichler_limit_rejects_denominators_past_int64(monkeypatch):
    f = phi_basis((2, 3, 5), (1, 1, 1))
    # with numpy out of reach, only a check made before numpy is imported
    # can raise the ValueError
    monkeypatch.setitem(sys.modules, "numpy", None)
    for limit in (eichler_limit, eichler_limit_complex):
        with pytest.raises(ValueError, match="2\\^31"):
            limit(f, 30, Fraction(1, 2 ** 31 + 1))


def test_completed_square_matches_the_exact_limit():
    # c = 1, c = 2, even c and odd c sharing a factor with 2P, at both signs
    rng = random.Random(23)
    shared = 0
    for _ in range(40):
        big_p = rng.randint(2, 40)
        terms = {rng.randint(1, big_p - 1): rng.randint(-3, 3)
                 for _ in range(rng.randint(1, 4))}
        f = psi_combo(big_p, terms)
        odd_part = big_p >> ((big_p & -big_p).bit_length() - 1)
        cs = [1, 2, 2 * rng.randint(2, 300), 2 * rng.randint(250, 300) + 1]
        if odd_part > 1:
            cs.append(odd_part * (2 * rng.randint(1, 30) + 1))
            shared += 1
        for c in cs:
            a = rng.randint(1, 3 * c)
            while math.gcd(a, c) != 1:
                a += 1
            for alpha in (Fraction(a, c), Fraction(-a, c)):
                exact = eichler_limit(f, big_p, alpha).eval_complex()
                fast = eichler_limit_complex(f, big_p, alpha)
                assert abs(fast - exact) <= 1e-11 * (1 + abs(exact)), \
                    (big_p, terms, alpha)
    assert shared > 10


def test_reused_buffers_give_the_values_of_fresh_ones():
    # one dict through growing c, then smaller c that read the leftovers of
    # a c = 38,803 call; no dict means fresh arrays.
    # 2P = 84: c = 1, 2, 6, even c, and odd c sharing 3 or 7 with 84; the psi
    # rows j = 1, 5, 12, 20 fall in 4 classes mod 6 and mod 21
    fs = [phi_basis((2, 3, 7), (1, 1, 1)), psi_combo(42, {1: 1, 5: -2, 12: 3, 20: 1})]
    buffers: dict = {}
    for c in (1, 2, 6, 10, 21, 30, 1001, 38803, 1, 2, 6, 10, 21, 1001, 4, 3):
        for alpha in (Fraction(1, c), Fraction(-5, c) if c % 5 else Fraction(-1, c)):
            for f in fs:
                assert eichler_limit_complex(f, 42, alpha, buffers) \
                    == eichler_limit_complex(f, 42, alpha), (c, alpha)
        if c == 38803:
            sized = buffers["u"]
    # the c = 38,803 call sized the buffer and every later call reused it
    assert buffers["u"] is sized and sized.size == 38803


def test_completed_square_accuracy_at_a_large_denominator():
    mpmath = pytest.importorskip("mpmath")
    p, alpha = (2, 3, 7), Fraction(1, 10395)   # gcd(2P, c) = 21
    with mpmath.workprec(120):
        for a in rotation_triples(p):
            f = phi_basis(p, a)
            x = eichler_limit(f, 42, alpha)
            ref = mpmath.fsum(v * mpmath.expjpi(mpmath.mpf(2 * k) / x.D)
                              for k, v in x.c.items()) / x.den
            assert abs(ref - eichler_limit_complex(f, 42, alpha)) < 3e-13, a


def test_completed_square_accuracy_at_sweep_sized_denominators():
    # c of 1,000-3,000 with gcd(P, c) = 1, 3, 5, 7, 21 and 2 (the even c),
    # at both signs of a; the 110-bit reference sums the exact limit's terms
    mpmath = pytest.importorskip("mpmath")
    points = [((2, 3, 5), Fraction(1, 1001)), ((2, 3, 5), Fraction(-7, 1503)),
              ((2, 3, 5), Fraction(3, 2005)), ((2, 3, 7), Fraction(-5, 2009)),
              ((2, 3, 7), Fraction(2, 1071)), ((2, 3, 7), Fraction(1, 2999)),
              ((2, 5, 7), Fraction(-3, 1502)), ((2, 5, 7), Fraction(1, 2807))]
    with mpmath.workprec(110):
        for p, alpha in points:
            big_p, f = math.prod(p), phi_basis(p, (1, 1, 1))
            x = eichler_limit(f, big_p, alpha)
            ref = mpmath.fsum(v * mpmath.expjpi(mpmath.mpf(2 * k) / x.D)
                              for k, v in x.c.items()) / x.den
            # under twice the 2.35e-14 that an element-by-element product
            # of each row with its weights reaches at these points
            assert abs(ref - eichler_limit_complex(f, big_p, alpha)) < 4e-14, (p, alpha)


@pytest.mark.parametrize("big_p, terms, c", [
    (6, {1: 1, 5: -1}, 6 * 7),                  # c a multiple of P
    (15, {3: 2, 7: -1}, 15 * 4),                # c a multiple of 2P
    (15, {2: 1, 4: -3, 14: 1}, 14),             # rho = 0, c2 = c = 14 even
    (15, {10: 1, 5: 2}, 1010),                  # rho = 0, g' = 5, c2 = 202 even
    (15, {5: 1, 10: -2}, 5 * 61),               # rho = 0, g' = 5, c2 = 61 odd
    (30, {7: 1, 14: 2, 21: -1}, 7),             # t1 = 0 in every row
    (30, {1: 1, 29: 1}, 1),
    (30, {1: 1, 29: 1, 16: 2}, 2),
    # 4 classes rho != 0 mod 21, two of them with two rows, and rho = 0
    (42, {1: 1, 22: 1, 5: -2, 26: -1, 12: 3, 20: 1, 21: 2}, 21 * 53),
    (42, {1: 1, 7: 2, 13: -1, 29: 2, 9: 1}, 2 * 3 * 101),   # even c: 3 classes mod 6
    (70, {1: 1, 11: 1, 35: -1, 45: 2}, 35 * 17),            # classes mod 35, and rho = 0
])
def test_completed_square_at_the_fold_and_segment_edges(big_p, terms, c):
    f = psi_combo(big_p, terms)
    for a in (1, -1, 7, -13):
        if math.gcd(a, c) == 1:
            alpha = Fraction(a, c)
            exact = eichler_limit(f, big_p, alpha).eval_complex()
            fast = eichler_limit_complex(f, big_p, alpha)
            assert abs(fast - exact) <= 1e-11 * (1 + abs(exact)), alpha


def test_l_value_examples():
    assert l_value(psi_basis(2, 1), 2, 0) == Fraction(1, 2)
    zero = PeriodicFunction(4, (0, 0, 0, 0))
    assert l_value(zero, 2, 3) == 0
    # rationality and growth sanity
    f = phi_basis((2, 3, 7), (1, 1, 1))
    vals = [l_value(f, 42, k) for k in range(4)]
    assert all(isinstance(v, Fraction) for v in vals)


def test_l_value_on_integers_equals_the_bernoulli_sum():
    # the defining sum, one Fraction per term l
    def by_terms(f, P, k):
        acc = sum((f(l) * bernoulli_poly(2 * k + 1, Fraction(l, 2 * P))
                   for l in range(1, 2 * P + 1)), Fraction(0))
        return -Fraction((2 * P) ** (2 * k), 2 * k + 1) * acc

    rng = random.Random(17)
    tables = [(phi_basis(p, a), math.prod(p)) for p, a in (
        ((2, 3, 5), (1, 1, 1)), ((2, 3, 7), (1, 1, 3)), ((2, 5, 7), (1, 2, 3)),
        ((3, 4, 5), (1, 1, 2)))]
    for _ in range(6):
        P = rng.randint(2, 40)
        labels = rng.sample(range(1, P), min(3, P - 1))
        tables.append((psi_combo(P, {b: rng.randint(-3, 3) for b in labels}), P))
    for f, P in tables:
        for k in range(7):
            assert l_value(f, P, k) == by_terms(f, P, k), (P, k)


def test_class_index_at_the_int64_edge():
    # the floor-divide index against Python's %, at the largest c and |a| the
    # limits take, on four u only (no length-c array is made); rho runs past
    # every class that occurs, up to c - 1
    from qmwrt.false_theta import _class_index

    c = 2 ** 31 - 1
    u = np.array([0, 1, c // 2, c - 1], dtype=np.int64)
    for a in (2 ** 31 - 2, -(2 ** 31 - 2)):
        for P, rho in ((42, 0), (42, 83), (30030, 60059), (30030, c - 1)):
            x, q = np.empty_like(u), np.empty_like(u)
            _class_index(u, a * P, a * rho, c, x, q)
            assert x.tolist() == [(a * P * v * v + a * rho * v) % c
                                  for v in u.tolist()], (a, P, rho)


def test_t_phase_examples():
    # the T-exponent x = (P/2)(1 + sum a_j/p_j)^2 of (2,3,5), a = (1,1,1), is
    # 3721/60; e^(pi i x) = e^(-2 pi i CS): x + 2 CS is an even integer
    from qmwrt.seifert import cs_nonabelian
    assert (Fraction(3721, 60) + 2 * cs_nonabelian((2, 3, 5), (1, 1, 1))) % 2 == 0
    # elementary-basis analogue has exponent a^2/2P
    big_p, a = 6, 3
    f = psi_basis(big_p, a)
    # T acts by e^(pi i a^2/2P) on the theta series: check numerically
    tau = 0.31 + 1.1j
    lhs = theta_truncated(f, big_p, tau + 1, 140)
    rhs = cmath.exp(1j * math.pi * a * a / (2 * big_p)) \
        * theta_truncated(f, big_p, tau, 140)
    assert abs(lhs - rhs) < 1e-10


def test_s_matrix_phi_shape_and_self_duality():
    for p in [(2, 3, 5), (2, 3, 7)]:
        labels = rotation_triples(p)
        m = s_matrix_phi(p)
        assert m.shape == (len(labels), len(labels))
        big_p = math.prod(p)
        cutoff = 2 * big_p + int(12 * math.sqrt(big_p))
        theta = [theta_truncated(phi_basis(p, a), big_p, 1j, cutoff,
                                 Fraction(1, 2)) for a in labels]
        # at tau = i the S-transformation is a fixed point: (i/tau)^(3/2) = 1
        for i in range(len(labels)):
            image = sum(m[i, j] * theta[j] for j in range(len(labels)))
            assert abs(theta[i] - image) < 1e-8


def test_theta_truncated_converges():
    f = phi_basis((2, 3, 5), (1, 1, 1))
    v1 = theta_truncated(f, 30, 2j, 120)
    v2 = theta_truncated(f, 30, 2j, 240)
    assert abs(v1 - v2) < 1e-12
    assert theta_truncated(PeriodicFunction(4, (0, 0, 0, 0)), 2, 1j, 40) == 0
    with pytest.raises(ValueError):
        theta_truncated(f, 30, 0.5, 120)


def test_trivial_series_and_asymptotic_series():
    f = phi_basis((2, 3, 7), (1, 1, 1))
    ctx = RootContext(101, 1)
    assert trivial_series(f, 42, 0, ctx) == complex(l_value(f, 42, 0))
    # truncations differ by exactly the next term
    x = 1j * math.pi * ctx.s / (84 * ctx.r)
    diff = trivial_series(f, 42, 3, ctx) - trivial_series(f, 42, 2, ctx)
    assert abs(diff - complex(l_value(f, 42, 3)) * x ** 3 / 6) < 1e-18


def test_eichler_t_transformation_exact():
    # shifting the rational point by 1 multiplies each supported term by
    # the fixed root e^(2 pi i l0^2 / 4P), the T-eigenvalue; exact identity
    from qmwrt.cyclotomic import CycloNumber

    for p, a in (((2, 3, 5), (1, 1, 1)), ((2, 3, 7), (1, 1, 2))):
        big_p = math.prod(p)
        f = phi_basis(p, a)
        l0 = f.support()[0]
        t_eig = CycloNumber.from_turns(Fraction(l0 * l0, 4 * big_p))
        for alpha in (Fraction(1, 5), Fraction(-3, 7)):
            lhs = eichler_limit(f, big_p, alpha + 1)
            rhs = t_eig * eichler_limit(f, big_p, alpha)
            assert (lhs - rhs).is_zero(), (p, a, alpha)
    # elementary basis: eigenvalue e^(pi i a^2/2P)
    for big_p, a in ((6, 1), (10, 7)):
        f = psi_basis(big_p, a)
        t_eig = CycloNumber.from_turns(Fraction(a * a, 4 * big_p))
        for alpha in (Fraction(2, 5), Fraction(-1, 3)):
            lhs = eichler_limit(f, big_p, alpha + 1)
            rhs = t_eig * eichler_limit(f, big_p, alpha)
            assert (lhs - rhs).is_zero(), (big_p, a, alpha)


def test_eichler_limit_equals_partial_sum_average():
    # independent oracle: the partial sums S_N of sum_l f(l) z^(l^2) at the
    # root of unity are periodic in N with period 2Pc, and the regularized
    # limit is their average over one full period
    from qmwrt.cyclotomic import CycloNumber

    for (p, a, alpha) in (((2, 3, 5), (1, 1, 1), Fraction(1, 3)),
                          ((2, 3, 7), (1, 1, 3), Fraction(2, 5)),
                          ((2, 3, 5), (1, 1, 2), Fraction(-7, 9))):
        big_p = math.prod(p)
        f = phi_basis(p, a)
        c = alpha.denominator
        period = 2 * big_p * c
        d_cond = 4 * big_p * c
        running: dict[int, int] = {}
        # S_N for N = 0..period-1 accumulated term by term, then averaged
        total_acc: dict[int, int] = {}
        for n in range(period):
            v = f(n)
            if v:
                k = (alpha.numerator * n * n) % d_cond
                running[k] = running.get(k, 0) + v
            for k, v2 in running.items():
                if v2:
                    total_acc[k] = total_acc.get(k, 0) + v2
        average = CycloNumber.from_int_dict(d_cond, total_acc, period)
        limit = eichler_limit(f, big_p, alpha)
        assert (average - limit).is_zero(), (p, a, alpha)
        # the partial sums really are periodic: S_period = S_0 = 0
        assert sum(f(n) for n in range(period)) == 0


def test_residual_decay_slopes():
    ctxs = [RootContext(r, 1) for r in range(101, 502, 100)]
    for K in (1, 2):
        res = [abs(s_transform_residual((2, 3, 7), (1, 1, 1), c, K))
               for c in ctxs]
        slope = np.polyfit(np.log([c.r for c in ctxs]), np.log(res), 1)[0]
        assert abs(slope - (-(K + 1))) < 0.5
    # residual shrinks along r for fixed K
    assert res == sorted(res, reverse=True)
