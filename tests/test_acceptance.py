"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Exact checks are zero tolerance (cyclotomic difference reduces to zero);
asymptotic checks fit log-log slopes.  Run with -s to stream the lines.
"""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from qmwrt.cyclotomic import CycloNumber, xi_power
from qmwrt.false_theta import (
    eichler_limit,
    l_value,
    phi_basis,
    psi_basis,
    s_matrix_phi,
    s_transform_residual,
)
from qmwrt.gauss_sums import gauss_brute, gauss_closed
from qmwrt.harness import (
    brieskorn_identity,
    decomposition_report,
    geometric_relation,
    integrality_check,
)
from qmwrt.number_theory import RootContext, normalize_s
from qmwrt.seifert import (
    EXAMPLE_233,
    EXAMPLE_NEG239,
    brieskorn,
    invariants,
    nonabelian_connections,
    parse_manifold,
    rotation_order,
    rotation_triples,
)
from qmwrt.wrt import (
    tau_seifert_closed,
    w_normalized,
    wrt_brute_surgery,
    wrt_lens,
    wrt_lens_brute,
)
from test_false_theta import theta_truncated


def report(tag: str, ok: bool, detail: str = ""):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else "")
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def s_values(r: int, bases) -> list[int]:
    out = []
    for base in bases:
        if math.gcd(base, r) == 1:
            s = normalize_s(base, r)
            if s not in out:
                out.append(s)
    return out


def test_a1_brieskorn_identity_exact():
    """Exact false-theta identity over four triples, odd r in 3..31."""
    count = 0
    for p in [(2, 3, 7), (2, 3, 11), (2, 5, 7), (3, 4, 5)]:
        for r in range(3, 32, 2):
            for s in s_values(r, (1, 5)):
                rep = brieskorn_identity(p, RootContext(r, s))
                assert rep.passed, (p, r, s)
                count += 1
    report("A1 brieskorn false-theta identity", True, f"{count} exact cases")


def test_a2_poincare_variant_exact():
    count = 0
    for r in range(3, 32, 2):
        for s in s_values(r, (1, 5)):
            rep = brieskorn_identity((2, 3, 5), RootContext(r, s))
            assert rep.passed and rep.checks[0].name == "poincare_identity"
            count += 1
    report("A2 spherical variant with unit shift", True, f"{count} exact cases")


def test_a3_oracle_equivalence():
    worst = 0.0
    count = 0
    for selector in ["seifert:1;2/1,3/1,5/1", "ex:2-3-3", "ex:neg-2-3-9"]:
        d = parse_manifold(selector)
        for r in (3, 5, 7, 9):
            for s in s_values(r, (1, 3)):
                ctx = RootContext(r, s)
                brute = wrt_brute_surgery(d, ctx)
                closed = tau_seifert_closed(d, ctx)
                diff = brute.exact - closed.exact
                assert diff.is_zero(), (selector, r, s)
                worst = max(worst, abs(diff.eval_complex()))
                count += 1
    report("A3 surgery oracle vs closed form", True,
           f"{count} cases exactly equal (beats the 1e-9 tolerance; float "
           f"roundoff of the zero difference <= {worst:.1e})")


def test_a4_integrality_of_transform_coefficients():
    count = 0
    for p in [(2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7)]:
        pc = rotation_order(p)
        for a in rotation_triples(p):
            for r in range(3, 32, 2):
                for s in s_values(r, (1, 5, 13)):
                    ok, _ = integrality_check(pc, a, RootContext(r, s))
                    assert ok, (p, a, r, s)
                    count += 1
    report("A4 coefficient integrality", True, f"{count} exact cases")


def test_a5_geometric_relation():
    # fixed s = 5: the integer exponent is stable across r
    deltas = set()
    for r in (3, 7, 9, 11, 13):
        rep = geometric_relation("brieskorn:2,3,7", RootContext(r, 5))
        assert rep.passed, (r, 5)
        deltas.add(rep.checks[0].detail)
    assert len(deltas) == 1, deltas
    # the class of 7 normalized per r: an exponent exists for each r
    extra = []
    for r in (3, 5, 9, 11):
        s = normalize_s(7, r)
        rep = geometric_relation("brieskorn:2,3,7", RootContext(r, s))
        assert rep.passed, (r, s)
        extra.append((r, s, rep.checks[0].detail))
    # the spherical case is pinned: P_* = xi~ W(xi~) - 1
    for r in (3, 7, 11, 13):
        for s in s_values(r, (5, 13)):
            rep = geometric_relation("brieskorn:2,3,5", RootContext(r, s))
            assert rep.passed, (r, s)
    report("A5 geometric connection relation", True,
           f"stable {deltas.pop()} at s=5; per-r cases {extra}")


def test_a6_asymptotic_decay():
    r_list = list(range(101, 1002, 100))
    slopes = []
    for K in (1, 2, 3):
        res = [abs(s_transform_residual((2, 3, 7), (1, 1, 1), RootContext(r, 1), K))
               for r in r_list]
        slope = float(np.polyfit(np.log(r_list), np.log(res), 1)[0])
        slopes.append(round(slope, 2))
        assert abs(slope + (K + 1)) <= 0.5, (K, slope)
    report("A6 modular-defect decay", True,
           f"slopes {slopes} vs expected [-2, -3, -4] (tol 0.5)")


def test_a7_qhs_examples():
    inv = invariants(EXAMPLE_233)
    assert (inv.e, inv.chi, inv.phi, inv.H) == \
        (Fraction(1, 6), Fraction(1, 6), Fraction(25, 6), 3)
    inv = invariants(EXAMPLE_NEG239)
    assert (inv.e, inv.chi, inv.phi, inv.H) == \
        (Fraction(1, 18), Fraction(-1, 18), Fraction(-71, 18), 3)
    count = 0
    for sel in ("ex:2-3-3", "ex:neg-2-3-9"):
        for r in (7, 11, 13):
            for s in s_values(r, (1, 5)):
                ctx = RootContext(r, s)
                assert decomposition_report(sel, ctx).passed, (sel, r, s)
                rep = geometric_relation(sel, ctx)
                assert rep.passed, (sel, r, s)
                count += 2
    report("A7 rational homology sphere examples", True,
           f"invariants pinned; {count} exact decomposition/relation checks "
           f"(constant -3 case and xi~^(-3/2) case included)")


def test_a8_lens_spaces():
    worst = 0.0
    for p in (3, 5, 7):
        for r in (5, 7, 9, 11):
            for s in s_values(r, (1, 3)):
                if math.gcd(s, p) != 1:
                    continue
                ctx = RootContext(r, s)
                w_closed, sectors = wrt_lens(p, ctx)
                w_brute = w_normalized(wrt_lens_brute(p, ctx), p, ctx)
                diff = w_closed.exact - w_brute.exact
                assert diff.is_zero(), (p, r, s)
                worst = max(worst, abs(diff.eval_complex()))
                # sector sum carries the constant of magnitude p, at the
                # same root on both sides (the consistent reading)
                total = CycloNumber.zero(1)
                for sec in sectors:
                    total = total + sec
                assert (total - p * xi_power(ctx, Fraction(5 - p, 4))).is_zero()
    report("A8 lens spaces", True,
           f"closed = surgery exactly (numeric gap <= {worst:.1e}); sector sum "
           f"= p * root^((5-p)/4) with both sides at the same root")


def test_a9_gauss_suite():
    rng = random.Random(99)
    for r in range(1, 100, 2):
        for s in range(1, r + 1):
            if math.gcd(s, r) != 1:
                continue
            brute = gauss_brute(s, r)
            assert abs(brute.eval_complex() - gauss_closed(s, r).numeric) < 1e-10
            if r <= 45:
                expected = Fraction(r) if r % 4 == 1 else Fraction(-r)
                assert brute * brute == expected, (s, r)
    checked = 0
    while checked < 100:
        r = rng.choice(range(3, 100, 2))
        s = rng.randrange(1, r)
        if math.gcd(s, r) != 1:
            continue
        g = gauss_brute(s, r)
        assert g * g.conjugate() == r
        checked += 1
    report("A9 gauss sum suite", True,
           "closed = brute for all odd r <= 99 and coprime s; |G|^2 = r on "
           "100 random instances")


def brieskorn_triples_up_to(bound):
    out = []
    for p1 in range(2, bound):
        for p2 in range(p1 + 1, bound // p1 + 1):
            if math.gcd(p1, p2) != 1:
                continue
            for p3 in range(p2 + 1, bound // (p1 * p2) + 1):
                if math.gcd(p3, p1) == 1 and math.gcd(p3, p2) == 1:
                    out.append((p1, p2, p3))
    return out


@pytest.mark.xfail(strict=True, reason=(
    "the stated sign is inconsistent: with the pinned framing exponents "
    "(phi/4 - 1/2 = 121/120 for fiber orders (2,3,5) and chi^2/4e = 1/120) "
    "the sum is 61/60, not an integer; the compatible identity, verified in "
    "test_a10_framing_exponent_compatibility, subtracts chi^2/4e"))
def test_a10_framing_exponent_as_stated():
    """phi/4 - 1/2 + chi^2/4e in Z for all triples with product <= 1000."""
    failures = []
    for p in brieskorn_triples_up_to(1000):
        inv = invariants(brieskorn(p))
        value = inv.phi / 4 - Fraction(1, 2) + inv.chi ** 2 / (4 * inv.e)
        if value.denominator != 1:
            failures.append((p, value))
    if failures:
        print(f"[A10 framing exponent, stated '+' sign] FAIL - "
              f"{len(failures)} counterexamples, first: {failures[0]}",
              file=sys.stderr, flush=True)
    assert not failures, failures[:3]


def test_a10_framing_exponent_compatibility():
    """phi/4 - 1/2 - chi^2/4e in Z, i.e. the framing exponent lands in the
    class of -CS[A_*]; this is the form every worked value satisfies."""
    triples = brieskorn_triples_up_to(1000)
    for p in triples:
        inv = invariants(brieskorn(p))
        value = inv.phi / 4 - Fraction(1, 2) - inv.chi ** 2 / (4 * inv.e)
        assert value.denominator == 1, (p, value)
    report("A10 framing exponent vs geometric value", True,
           f"phi/4 - 1/2 - chi^2/4e integral on all {len(triples)} triples "
           f"with product <= 1000 (the '+' variant fails; see ledger)")


def test_a11_modular_form_sanity():
    for p in [(2, 3, 5), (2, 3, 7)]:
        labels = rotation_triples(p)
        m = s_matrix_phi(p)
        big_p = math.prod(p)
        cutoff = 2 * big_p + int(12 * math.sqrt(big_p))
        theta = [theta_truncated(phi_basis(p, a), big_p, 1j, cutoff,
                                 Fraction(1, 2)) for a in labels]
        for i in range(len(labels)):
            image = sum(m[i, j] * theta[j] for j in range(len(labels)))
            assert abs(theta[i] - image) < 1e-8
    for p in [(2, 3, 5), (2, 3, 7), (3, 4, 5)]:
        pc = rotation_order(p)
        for c in nonabelian_connections(p):
            t = 1 + sum(Fraction(a, q) for a, q in zip(c.rotation, pc))
            assert Fraction(math.prod(pc), 2) * t * t == -2 * c.cs_lift
    for (big_p, make) in ((6, lambda a: psi_basis(6, a)),
                          (30, lambda a: phi_basis((2, 3, 5), (1, 1, a)))):
        for a in (1, 2):
            f = make(a)
            assert eichler_limit(f, big_p, Fraction(0)).as_rational() \
                == l_value(f, big_p, 0)
    report("A11 modular data sanity", True,
           "self-duality at tau=i (1e-8), T-exponent "
           "(P/2)(1 + sum a_j/p_j)^2 = -2 CS exact, limit-at-0 = L(0,.) exact")
