import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qmwrt.cyclotomic import CycloNumber, xi_power
from qmwrt.false_theta import eichler_limit_complex, phi_basis, s_transform_residual
from qmwrt.harness import (
    appendix_b_checks,
    brieskorn_identity,
    decomposition_report,
    geometric_relation,
    integrality_check,
    qhs_decomposition,
    residual_scan,
    saddle_expansion,
)
from qmwrt.number_theory import RootContext, normalize_s
from qmwrt.seifert import (
    abelian_connections,
    brieskorn,
    geometric_connection,
    invariants,
    parse_manifold,
)


def test_brieskorn_identity_reports():
    assert brieskorn_identity((2, 3, 7), RootContext(7, 1)).passed
    assert brieskorn_identity((2, 3, 11), RootContext(9, 13)).passed
    # the Poincare sphere needs the extra constant
    rep = brieskorn_identity((2, 3, 5), RootContext(5, 1))
    assert rep.passed and rep.checks[0].name == "poincare_identity"
    # gcd(s, P) > 1 is handled by the same exact identity
    assert brieskorn_identity((2, 5, 7), RootContext(3, 5)).passed


def test_integrality_checks():
    ok, coords = integrality_check((2, 3, 7), (1, 1, 1), RootContext(5, 1))
    assert ok and all(v.denominator == 1 for _, v in coords)
    ok, _ = integrality_check((2, 3, 5), (1, 1, 2), RootContext(7, 1))
    assert ok
    # r = 1: the value collapses to a plain integer
    ok, coords = integrality_check((2, 3, 7), (1, 1, 3), RootContext(1, 1))
    assert ok and all(k == 0 for k, _ in coords)


def test_decomposition_reports():
    cases = [("lens:3", 5, 1), ("lens:7", 7, 5), ("ex:2-3-3", 7, 1),
             ("ex:neg-2-3-9", 11, 5), ("ex:family:2", 7, 1),
             ("ex:family:3", 5, 1)]
    for sel, r, s_base in cases:
        ctx = RootContext(r, normalize_s(s_base, r))
        assert decomposition_report(sel, ctx).passed, sel


def test_decomposition_reconstruction_matches_brute_oracle():
    # the harness reconstruction is checked against the closed form; tie it
    # back to the surgery oracle independently
    from qmwrt.wrt import w_normalized, wrt_brute_surgery
    ctx = RootContext(7, 1)
    d = parse_manifold("ex:2-3-3")
    terms = qhs_decomposition("ex:2-3-3", ctx)
    total = CycloNumber.zero(1)
    for _a, lift, sector in terms:
        total = total + CycloNumber.from_turns(Fraction(ctx.r, ctx.s) * lift) * sector
    brute_w = w_normalized(wrt_brute_surgery(d, ctx), 3, ctx)
    assert (total - brute_w.exact).is_zero()


def test_qhs_decomposition_sector_values():
    # family p = 2: u, v, w = 1, 5, 9 and three sectors
    terms = qhs_decomposition("ex:family:2", RootContext(7, 1))
    assert [t[0] for t in terms] == [0, 1, 2]
    assert terms[1][1] == Fraction(3, 5)  # s = 1 lift: a^2 (p+1)/H
    with pytest.raises(ValueError):
        qhs_decomposition("brieskorn:2,3,5", RootContext(5, 1))


def test_geometric_relation_brieskorn():
    # delta exists, and is stable in r for fixed s
    deltas = set()
    for r in (3, 9, 11, 13):
        rep = geometric_relation("brieskorn:2,3,7", RootContext(r, 5))
        assert rep.passed
        deltas.add(rep.checks[0].detail)
    assert len(deltas) == 1, deltas


def test_geometric_relation_poincare_pinned():
    for (r, s) in ((3, 5), (7, 5), (11, 13)):
        rep = geometric_relation("brieskorn:2,3,5", RootContext(r, s))
        assert rep.passed
        assert "xi~ W(xi~) - 1" in rep.checks[0].detail


def test_geometric_relation_qhs_examples():
    assert geometric_relation("ex:2-3-3", RootContext(7, 5)).passed
    assert geometric_relation("ex:neg-2-3-9", RootContext(11, 5)).passed
    assert geometric_relation("ex:family:2", RootContext(7, 13)).passed
    rep = geometric_relation("lens:5", RootContext(7, 13))
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "lens_sector_sum[xi]" in names and "lens_geometric_relation" in names
    # r along integers coprime with H is a hypothesis, not a convention:
    # outside it the relation genuinely fails, so the input is rejected
    with pytest.raises(ValueError, match="coprime"):
        geometric_relation("ex:family:2", RootContext(5, 13))


@pytest.mark.parametrize("selector", ["ex:2-3-3", "ex:neg-2-3-9", "ex:family:2",
                                      "ex:family:3"])
def test_ex_saddles_have_one_geometric_term(selector):
    terms = saddle_expansion(selector, RootContext(7, 13), 1)
    geom = [t for t in terms if t.connection == "geometric"]
    assert len(geom) == 1
    assert geom[0].cs_lift == geometric_connection(parse_manifold(selector)).cs_lift


def test_geometric_relation_from_the_sector0_model():
    # Brieskorn spheres at s > 1, one with the even fiber order in the middle
    for sel in ("brieskorn:3,4,5", "brieskorn:2,3,11"):
        for r, s in ((7, 13), (9, 17)):
            assert geometric_relation(sel, RootContext(r, s)).passed, (sel, r, s)
    # the family at r coprime with H = 7 and 9; the shift is delta + CS_*
    for sel, r, s, shift in (("ex:family:3", 11, 5, "-5/2"),
                             ("ex:family:3", 9, 13, "-5/2"),
                             ("ex:family:4", 7, 5, "-5"),
                             ("ex:family:4", 11, 17, "-5")):
        rep = geometric_relation(sel, RootContext(r, s))
        assert rep.passed, (sel, r, s)
        assert rep.checks[0].detail == f"P_* = xi~^({shift}) sum W^(a)"


def test_saddle_expansion_counts_and_structure():
    ctx = RootContext(7, 1)
    terms = saddle_expansion("brieskorn:2,3,7", ctx, 2)
    assert len(terms) == 4  # trivial + 3 rotation numbers
    assert terms[0].connection == "trivial"
    assert terms[0].p_value == 1
    assert terms[0].delta == 0 and all(t.delta == -1 for t in terms[1:])
    terms = saddle_expansion("brieskorn:2,3,5", ctx, 2)
    assert len(terms) == 3
    geom = [t for t in terms if t.connection == "geometric"]
    assert len(geom) == 1 and geom[0].cs_lift == Fraction(-1, 120)
    # sector-0 of S2(-1;-2,-3,-9): its S-image has g = 0 at the class
    # CS = -1/8, so no term sits there
    terms = saddle_expansion("ex:neg-2-3-9", ctx, 2)
    assert not [t for t in terms if t.cs_lift % 1 == Fraction(7, 8)]
    # trivial coefficient is 1 across families
    for sel in ("ex:2-3-3", "ex:neg-2-3-9", "ex:family:2"):
        terms = saddle_expansion(sel, ctx, 1)
        assert terms[0].connection == "trivial" and terms[0].p_value == 1


def test_saddle_p_values_are_integral_in_xi_tilde():
    # integrality of the modular-transform coefficients at the companion
    # root of odd order s
    for (r, s) in ((3, 5), (7, 13)):
        ctx = RootContext(r, s)
        for t in saddle_expansion("brieskorn:2,3,7", ctx, 1)[1:]:
            assert t.p_value.reduce_conductor().is_integral(), (r, s, t.connection)


def test_lens_saddle_abelian_vanishing():
    ctx = RootContext(7, 13)
    terms = saddle_expansion("lens:5", ctx, 1)
    off_sector = [t for t in terms if ":" in t.connection]
    assert off_sector and all(t.p_value.is_zero() for t in off_sector)


def test_sector0_expansion_approximates_sector():
    for sel in ("ex:2-3-3", "ex:neg-2-3-9", "ex:family:2", "ex:family:3"):
        res = []
        for r in (101, 201, 401):
            ctx = RootContext(r, 1)
            w0 = qhs_decomposition(sel, ctx)[0][2].eval_complex()
            tot = sum(t.numeric(ctx) for t in saddle_expansion(sel, ctx, 2))
            res.append(abs(w0 - tot))
        slope = np.polyfit(np.log([101.0, 201.0, 401.0]), np.log(res), 1)[0]
        assert abs(slope + 3) < 0.5, (sel, res)


def test_sector0_expansion_of_a_family_with_a_split_class():
    # two sign groups of the S-image of ex:family:7 share CS_*; each is its
    # own saddle term, and together the terms still track sector 0
    res = []
    for r in (1001, 2003, 4001):
        ctx = RootContext(r, 1)
        w0 = qhs_decomposition("ex:family:7", ctx)[0][2].eval_complex()
        terms = saddle_expansion("ex:family:7", ctx, 2)
        assert not [t for t in terms if t.connection == "geometric"]
        res.append(abs(w0 - sum(t.numeric(ctx) for t in terms)))
    slope = np.polyfit(np.log([1001.0, 2003.0, 4001.0]), np.log(res), 1)[0]
    assert abs(slope + 3) < 0.5, res


@pytest.mark.parametrize("p", [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5), (2, 3, 35)])
def test_brieskorn_s_image_is_the_phi_s_matrix_row(p):
    # the exact S-image of f0 = phi_(1,1,1) has one term per rotation number
    # a, with table +-phi_a and M = g / sqrt(2P) equal to +- the float
    # S-matrix entry S^(1,1,1)_a
    from qmwrt.false_theta import s_matrix_phi
    from qmwrt.harness import _psi_classes
    from qmwrt.seifert import parse, rotation_order, rotation_triples

    pc = rotation_order(p)
    labels = rotation_triples(pc)
    srow = s_matrix_phi(pc)[labels.index((1, 1, 1))]
    big_p = math.prod(p)
    found = []
    for _lift, f, g in _psi_classes(parse("brieskorn:" + ",".join(map(str, p)))):
        [(a, sign)] = [(a, sign) for a in labels for sign in (1, -1)
                       if f == sign * phi_basis(pc, a)]
        big_m = g.eval_complex().imag / math.sqrt(2 * big_p)
        assert abs(sign * big_m - srow[labels.index(a)]) <= 1e-12, a
        found.append(a)
    assert sorted(found) == labels


def test_residual_scan_matches_s_transform_residual():
    # the scan residual is the prefactored S-transform defect
    p = (2, 3, 7)
    inv = invariants(brieskorn(p))
    for r in (101, 151):
        ctx = RootContext(r, 1)
        rows, _ = residual_scan("brieskorn:2,3,7", 1, [r], 2)
        pre = xi_power(ctx, Fraction(1, 2) - inv.phi / 4).eval_complex()
        direct = abs(0.5 * pre * s_transform_residual(p, (1, 1, 1), ctx, 2))
        assert abs(rows[0][1] - direct) < 1e-9


@pytest.mark.parametrize("p", [(3, 4, 5), (3, 2, 7)])
def test_s_transform_residual_takes_any_fiber_order(p):
    # labels, tables and S-row are all read in rotation order, so every label
    # of rotation_triples(p) is accepted, and p gives the values of its
    # rotation order
    from qmwrt.seifert import rotation_order, rotation_triples

    sel = "brieskorn:" + ",".join(map(str, p))
    for r in (101, 1001):
        ctx = RootContext(r, 1)
        defect = s_transform_residual(p, (1, 1, 1), ctx, 2)
        assert residual_scan(sel, 1, [r], 2)[0] == [(r, 0.5 * abs(defect))]
        for a in rotation_triples(p):
            assert s_transform_residual(p, a, ctx, 2) \
                == s_transform_residual(rotation_order(p), a, ctx, 2), a


@pytest.mark.parametrize("p", [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5)])
def test_float_defect_matches_the_exact_saddle_terms(p):
    # the scan against W(xi) - sum of the saddle_expansion terms, whose P_a
    # are exact; W(xi) is sector 0 with the exact Eichler limit, which the
    # false-theta identity ties to the closed form
    from qmwrt.harness import _model, _sector0
    from qmwrt.seifert import parse

    sel = "brieskorn:" + ",".join(map(str, p))
    row = _model(parse(sel))
    for s in (1, 5):
        for r in (101, 1001, 5001):
            ctx = RootContext(r, s)
            w = _sector0(row, Fraction(s, r), lambda x: xi_power(ctx, x)).eval_complex()
            terms = sum(t.numeric(ctx) for t in saddle_expansion(sel, ctx, 2))
            [(_, res)], _ = residual_scan(sel, s, [r], 2)
            assert abs(res - abs(w - terms)) <= 1e-12, (s, r)


def test_scan_forms_no_exact_value(monkeypatch):
    # past its r-free caches, a scan makes one float limit and a dot per r:
    # no exact Eichler limit, product or evaluation
    from qmwrt import false_theta, harness

    residual_scan("brieskorn:2,3,7", 1, [101], 2)   # fill the r-free caches
    expected = residual_scan("brieskorn:2,3,7", 1, [1001], 2)[0]

    def exact(*_args):
        raise AssertionError("the scan formed an exact value")
    for obj, name in ((false_theta, "eichler_limit"), (harness, "eichler_limit"),
                      (CycloNumber, "__mul__"), (CycloNumber, "__rmul__"),
                      (CycloNumber, "eval_complex")):
        monkeypatch.setattr(obj, name, exact)
    assert residual_scan("brieskorn:2,3,7", 1, [1001], 2)[0] == expected


def test_saddle_expansion_relabeled_fiber_order():
    # the even fiber order sits in the middle here; rotation numbers and
    # S-matrix rows must agree on the relabeled order
    from qmwrt.false_theta import phi_basis, eichler_limit_complex
    from qmwrt.seifert import rotation_order

    p = (3, 4, 5)
    inv = invariants(brieskorn(p))
    res = []
    for r in (101, 201, 401):
        ctx = RootContext(r, 1)
        pre = xi_power(ctx, Fraction(1, 2) - inv.phi / 4).eval_complex()
        w_num = 0.5 * pre * eichler_limit_complex(
            phi_basis(rotation_order(p), (1, 1, 1)), inv.P, Fraction(1, r))
        terms = saddle_expansion("brieskorn:3,4,5", ctx, 2)
        total = sum(t.numeric(ctx) for t in terms)
        res.append(abs(w_num - total))
    slope = np.polyfit(np.log([101.0, 201.0, 401.0]), np.log(res), 1)[0]
    assert abs(slope + 3) < 0.5


def test_residual_scan_slopes():
    rows, slope2 = residual_scan("brieskorn:2,3,7", 1,
                                 list(range(101, 502, 100)), 2)
    assert abs(slope2 + 3) < 0.5
    _, slope3 = residual_scan("brieskorn:2,3,7", 1,
                              list(range(101, 502, 100)), 3)
    # increasing the order by one steepens the fit by about one
    assert abs((slope3 - slope2) + 1) < 0.6


def test_no_buffer_outlives_its_scan():
    # a scan's float-limit buffers are freed when it returns, and a limit
    # called alone keeps none: what stays allocated after a scan at
    # r = 38,801 and a limit at c = 38,803 is far below one length-c array
    residual_scan("brieskorn:2,3,7", 1, [101, 201], 2)    # fill the caches
    tracemalloc.start()
    try:
        residual_scan("brieskorn:2,3,7", 1, [20001, 38801], 2)
        eichler_limit_complex(phi_basis((2, 3, 7), (1, 1, 1)), 42, Fraction(1, 38803))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 8 * 38801


def test_appendix_b_lemmas():
    assert appendix_b_checks((2, 3, 5), (1, 1, 1), 7).passed
    assert appendix_b_checks((3, 4, 5), (1, 1, 2), 11).passed
    assert appendix_b_checks((2, 3, 7), (1, 2, 3), 9).passed
    assert appendix_b_checks((2, 3, 5), (1, 1, 2), 1).passed  # trivial r = 1


def test_report_json_shape():
    # the fields `verify --json` prints: the report's ctx and each check's record
    rep = brieskorn_identity((2, 3, 7), RootContext(5, 1))
    assert rep.ctx == {"r": 5, "s": 1}
    data = rep.checks[0].to_json()
    assert set(data) == {"check", "status", "detail", "tolerance"}
    assert data["status"] == "pass"


@pytest.mark.parametrize("selector", ["lens:5", "ex:2-3-3", "ex:neg-2-3-9",
                                      "ex:family:2"])
def test_decomposition_lifts_are_s_squared_abelian_lifts(selector):
    ctx = RootContext(7, 13)
    lifts = [(a, lift) for a, lift, _ in qhs_decomposition(selector, ctx)]
    assert lifts == [(c.label, 13 ** 2 * c.cs_lift)
                     for c in abelian_connections(selector)]


def test_saddle_phase_is_reduced_exactly():
    # at r ~ 10^5 an unreduced float phase is off by ~1e-9, above the
    # residuals of the order-2/3 sweeps
    ctx = RootContext(100001, 1)
    for t in saddle_expansion("brieskorn:2,3,7", ctx, 1):
        phase = CycloNumber.from_turns(Fraction(ctx.r, ctx.s) * t.cs_lift)
        rest = t.p_value.eval_complex() * t.i_value
        assert abs(t.numeric(ctx) - phase.eval_complex() * rest) \
            <= 1e-12 * abs(rest), t.connection


def test_failed_identity_reports_a_witness(monkeypatch):
    import re

    from qmwrt import harness
    from qmwrt.wrt import seifert_gauss_sum

    real = harness.eichler_limit
    ctx = RootContext(7, 5)
    gauss = seifert_gauss_sum(42, ctx)
    # an Eichler limit off by 2G moves the right-hand side (1/2) F by G:
    # the difference becomes -G exactly
    monkeypatch.setattr(harness, "eichler_limit", lambda *a: real(*a) + 2 * gauss)
    rep = brieskorn_identity((2, 3, 7), ctx)
    assert not rep.passed
    detail = rep.checks[0].detail
    diff = -gauss
    canon = diff.canonical()
    first = min(canon.c)
    found = re.match(r"difference is nonzero: conductor (\d+), (\d+) nonzero "
                     r"integral-basis coordinates, first \[(\d+)\] = (\S+),",
                     detail)
    assert found, detail
    assert int(found[1]) == 4 * 42 * 7
    assert int(found[2]) == len(canon.c)
    assert (int(found[3]), Fraction(found[4])) \
        == (first, Fraction(canon.c[first], canon.den))


def test_replaced_s_is_rejected_in_the_library():
    # an s that is not its own normal form would move xi~ = e(-r/s) and the
    # series variable s/r: s = 3 is s' = 505 at r = 251, s = 13 is 1 at r = 3
    with pytest.raises(ValueError, match="s' = 505 at r = 251"):
        residual_scan("brieskorn:2,3,7", 3, [251], 2)
    with pytest.raises(ValueError, match="s' = 1 at r = 3"):
        geometric_relation("brieskorn:2,3,7", RootContext(3, 13))
