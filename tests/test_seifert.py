import math
import pickle
import random
from fractions import Fraction

import pytest

from qmwrt.false_theta import PeriodicFunction
from qmwrt.intmatrix import det_int
from qmwrt.number_theory import RootContext
from qmwrt.seifert import (
    EXAMPLE_233,
    EXAMPLE_NEG239,
    Geometry,
    SeifertData,
    abelian_connections,
    brieskorn,
    classify_geometry,
    example_family,
    geometric_connection,
    invariants,
    linking_matrix,
    nonabelian_connections,
    parse,
    parse_manifold,
    rotation_triples,
)


def coprime_triples(max_product):
    for p1 in range(2, max_product):
        for p2 in range(p1 + 1, max_product // p1 + 1):
            if math.gcd(p1, p2) != 1:
                continue
            for p3 in range(p2 + 1, max_product // (p1 * p2) + 1):
                if math.gcd(p3, p1) == 1 and math.gcd(p3, p2) == 1:
                    yield (p1, p2, p3)


def test_brieskorn_construction():
    d = brieskorn((2, 3, 5))
    inv = invariants(d)
    assert inv.e == Fraction(1, 30) and inv.H == 1
    d = brieskorn((2, 3, 7))
    inv = invariants(d)
    assert inv.e == Fraction(1, 42) and inv.H == 1
    # single fiber gives lens-type data with e = q/p
    d = brieskorn((9,))
    inv = invariants(d)
    assert inv.e == Fraction(1, 9)
    with pytest.raises(ValueError):
        brieskorn((2, 4, 5))


def test_invariants_match_pinned_values():
    inv = invariants(EXAMPLE_233)
    assert (inv.e, inv.chi, inv.phi, inv.H) == \
        (Fraction(1, 6), Fraction(1, 6), Fraction(25, 6), 3)
    inv = invariants(EXAMPLE_NEG239)
    assert (inv.e, inv.chi, inv.phi, inv.H) == \
        (Fraction(1, 18), Fraction(-1, 18), Fraction(-71, 18), 3)
    inv = invariants(example_family(2))
    assert inv.e == Fraction(1, 10) and inv.H == 5
    # Poincare sphere carries the framing exponent phi/4 - 1/2 = 121/120
    inv = invariants(brieskorn((2, 3, 5)))
    assert inv.phi == Fraction(181, 30)
    assert inv.phi / 4 - Fraction(1, 2) == Fraction(121, 120)


def test_phi_is_presentation_independent():
    # absorbing b into a fiber leaves the derived invariants unchanged
    inv1 = invariants(EXAMPLE_NEG239)
    inv2 = invariants(EXAMPLE_NEG239.normalized_b0())
    assert (inv1.e, inv1.chi, inv1.phi, inv1.H) == \
        (inv2.e, inv2.chi, inv2.phi, inv2.H)


def test_classify_geometry_table():
    assert classify_geometry(Fraction(1, 6), Fraction(1, 6)) is Geometry.S3
    assert classify_geometry(Fraction(1, 18), Fraction(-1, 18)) is Geometry.SL2R
    assert classify_geometry(Fraction(0), Fraction(0)) is Geometry.R3
    assert classify_geometry(Fraction(0), Fraction(1, 2)) is Geometry.S2xR
    assert classify_geometry(Fraction(0), Fraction(-1)) is Geometry.H2xR
    assert classify_geometry(Fraction(1), Fraction(0)) is Geometry.NIL3
    assert len(Geometry) == 8


def test_linking_matrix_determinant():
    assert abs(det_int(linking_matrix(brieskorn((2, 3, 5))))) == 1
    assert abs(det_int(linking_matrix(EXAMPLE_233))) == 3
    # a single p-framed surgery curve: 1x1 bordered reduction
    lens_like = SeifertData(0, ((7, 1),))
    assert abs(det_int(linking_matrix(lens_like))) == 1  # H = |e P| = 1
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        m = rng.choice([1, 2, 3])
        b = rng.randint(-2, 2)
        fibers = []
        for _ in range(m):
            p = rng.randint(2, 9)
            q = rng.choice([q for q in range(-p, p + 1) if math.gcd(p, q) == 1])
            fibers.append((p, q))
        d = SeifertData(b, tuple(fibers))
        inv_e = -Fraction(b) + sum(Fraction(q, p) for p, q in fibers)
        if inv_e == 0:
            continue
        checked += 1
        inv = invariants(d)
        assert abs(det_int(linking_matrix(d))) == inv.H


def test_rotation_numbers_and_counts():
    conns = nonabelian_connections((2, 3, 5))
    assert len(conns) == 2
    values = {c.cs for c in conns}
    assert values == {Fraction(119, 120), Fraction(71, 120)}  # -1/120, -49/120
    lifts = {c.rotation: c.cs_lift for c in conns}
    assert lifts[(1, 1, 2)] == Fraction(-4489, 120)
    assert len(nonabelian_connections((2, 3, 7))) == 3
    # relabeling puts the even order first: (3,4,5) -> (4,3,5), 3*2*4/4 = 6
    assert rotation_triples((3, 4, 5))[0] == (1, 1, 1)
    assert len(nonabelian_connections((3, 4, 5))) == 6
    with pytest.raises(ValueError):
        nonabelian_connections((2, 4, 5))


def test_rotation_count_formula_small_sweep():
    for p in coprime_triples(200):
        evens = [x for x in p if x % 2 == 0]
        if len(evens) > 1:
            continue
        d = (p[0] - 1) * (p[1] - 1) * (p[2] - 1) // 4
        assert len(rotation_triples(p)) == d


def test_geometric_connection_examples():
    g = geometric_connection(brieskorn((2, 3, 5)))
    assert g.rotation == (1, 1, 1) and g.cs_lift == Fraction(-1, 120)
    inv = invariants(brieskorn((2, 3, 5)))
    # 4e/chi^2 is the order of the binary icosahedral group
    assert 4 * inv.e / inv.chi ** 2 == 120
    g = geometric_connection(brieskorn((2, 3, 7)))
    assert g.rotation == (1, 1, 1) and g.cs_lift == Fraction(-1, 168)
    # family: CS lift is -(P-1)^2/4P mod 1
    for p in (2, 3):
        d = example_family(p)
        g = geometric_connection(d)
        big_p = p * (2 * p + 1)
        assert g.cs == -Fraction((big_p - 1) ** 2, 4 * big_p) % 1
    # Nil geometry (e != 0, chi = 0) is out of scope for the geometric value
    with pytest.raises(ValueError):
        geometric_connection(SeifertData(1, ((2, 1), (2, 1), (2, 1), (2, 1))))
    # so is e = 0
    with pytest.raises(ValueError):
        geometric_connection(SeifertData(0, ((2, 1), (2, -1))))


def test_geometric_rotation_is_unique_and_111():
    # the geometric connection is named by its holonomy, not found by its CS
    # value mod 1: on (2,3,35) and (3,5,14) a second rotation number shares
    # that value.  Its lift and the natural lift of (1,1,1) differ by an
    # integer, which geometric_connection asserts.
    for p in [(2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7), (3, 4, 5), (3, 5, 7),
              (2, 3, 35), (3, 5, 14)]:
        g = geometric_connection(brieskorn(p))
        assert g.rotation == (1, 1, 1), p
        shared = [c.rotation for c in nonabelian_connections(p) if c.cs == g.cs]
        assert (1, 1, 1) in shared and (len(shared) == 2) == (p[2] in (35, 14)), p


@pytest.mark.parametrize("p, lift", [
    ((2, 3, 5), Fraction(1, 120)),
    ((2, 3, 7), Fraction(1, 168)),
    ((2, 5, 7), Fraction(121, 280)),
    ((3, 4, 5), Fraction(169, 240)),
])
def test_geometric_connection_of_the_reversed_orientation(p, lift):
    # e = -1/P: the lift -chi^2/4e is the negative of the forward one, and
    # agrees mod 1 with the negated natural lift of rotation (1,1,1)
    g = geometric_connection(brieskorn(p).reversed_orientation())
    assert g.rotation == (1, 1, 1) and g.cs_lift == lift
    assert g.cs_lift == -geometric_connection(brieskorn(p)).cs_lift
    natural = next(c.cs_lift for c in nonabelian_connections(p)
                   if c.rotation == (1, 1, 1))
    assert (g.cs_lift + natural).denominator == 1


def test_framing_exponent_matches_geometric_cs():
    # phi/4 - 1/2 + CS[A_*] is an integer (CS[A_*] = -chi^2/4e); this is the
    # compatibility between the framing exponent and the geometric value.
    for p in coprime_triples(1000):
        evens = [x for x in p if x % 2 == 0]
        if len(evens) > 1:
            continue
        inv = invariants(brieskorn(p))
        value = inv.phi / 4 - Fraction(1, 2) - inv.chi ** 2 / (4 * inv.e)
        assert value.denominator == 1, (p, value)


def test_abelian_connections():
    lens3 = abelian_connections("lens:3")
    assert [(c.label, c.cs_lift) for c in lens3] == [(0, Fraction(0)),
                                                     (1, Fraction(-1, 3))]
    ex = abelian_connections("ex:2-3-3")
    assert [(c.label, c.cs_lift) for c in ex] == [(0, Fraction(0)),
                                                  (1, Fraction(1, 3))]
    fam = abelian_connections("ex:family:2")
    assert [c.label for c in fam] == [0, 1, 2]
    assert fam[1].cs_lift == Fraction(3, 5)
    assert fam[0].cs_lift == 0
    with pytest.raises(ValueError):
        abelian_connections("brieskorn:2,3,5")


def test_t_phase_consistency():
    # e^(-2 pi i CS) as exact rationals: the T-exponent is -2 CS on the nose
    from qmwrt.false_theta import t_phase
    from qmwrt.seifert import rotation_order
    for p in [(2, 3, 5), (2, 3, 7), (3, 4, 5)]:
        pc = rotation_order(p)
        for c in nonabelian_connections(p):
            assert t_phase(pc, c.rotation) == -2 * c.cs_lift


def test_parse_and_format():
    d = parse_manifold("brieskorn:2,3,7")
    assert invariants(d).H == 1
    d = parse_manifold("seifert:1;2/1,3/1,3/1")
    assert d == EXAMPLE_233
    assert parse_manifold("ex:neg-2-3-9") == EXAMPLE_NEG239
    assert parse_manifold("ex:family:3") == example_family(3)
    assert str(EXAMPLE_233) == "S2(1; 2/1, 3/1, 3/1)"
    with pytest.raises(ValueError):
        parse_manifold("nonsense:1")
    with pytest.raises(ValueError):
        SeifertData(0, ((4, 2),))


def test_seifert_data_takes_list_fibers():
    d = SeifertData(0, [(2, 1), (3, 1), (5, 1)])
    assert d.fibers == ((2, 1), (3, 1), (5, 1))
    assert d == SeifertData(0, d.fibers) and invariants(d).H == 31
    assert SeifertData(0, [[2, 1], [3, 1]]).fibers == ((2, 1), (3, 1))


def test_value_types_compare_by_fields_and_are_immutable():
    m = parse("ex:2-3-3")
    assert m == parse("2-3-3") and hash(m) == hash(parse("2-3-3"))
    assert m.selector != parse("2-3-3").selector
    assert RootContext(7, 5) != RootContext(7, 1)
    values = [(RootContext(7, 5), (7, 5)),
              (SeifertData(1, ((2, 1),)), (1, ((2, 1),))),
              (PeriodicFunction(2, (0, 0)), (2, (0, 0)))]
    for value, fields in values:
        again = type(value)(*fields)
        assert value == again and hash(value) == hash(again)
        assert value != fields and fields != value
        assert pickle.loads(pickle.dumps(value)) == value
    for value, name in ((RootContext(7, 5), "r"), (m, "selector"),
                        (SeifertData(1, ()), "fibers"), (PeriodicFunction(2, (0, 0)), "values")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(ValueError) as exc:
        RootContext(8)
    assert str(exc.value) == "r must be odd and >= 1, got 8"


def test_orientation_reversal():
    d = EXAMPLE_233
    rev = d.reversed_orientation()
    assert invariants(rev).e == -invariants(d).e
    assert invariants(rev).phi == -invariants(d).phi


@pytest.mark.parametrize("text, kind, params, data", [
    ("brieskorn:2,3,7", "brieskorn", (2, 3, 7), brieskorn((2, 3, 7))),
    ("brieskorn:2,3,5,7", "brieskorn", (2, 3, 5, 7), brieskorn((2, 3, 5, 7))),
    ("lens:7", "lens", (7,), None),
    ("seifert:1;2/1,3/1,3/1", "seifert", (), EXAMPLE_233),
    ("seifert:0;2,3/1,5/-1", "seifert", (), SeifertData(0, ((2, 1), (3, 1), (5, -1)))),
    ("ex:2-3-3", "2-3-3", (), EXAMPLE_233),
    ("2-3-3", "2-3-3", (), EXAMPLE_233),
    ("ex:neg-2-3-9", "neg-2-3-9", (), EXAMPLE_NEG239),
    ("neg-2-3-9", "neg-2-3-9", (), EXAMPLE_NEG239),
    ("ex:family:3", "family", (3,), example_family(3)),
    ("family:3", "family", (3,), example_family(3)),
    ("  EX:Family:2 ", "family", (2,), example_family(2)),
    ("\tBrieskorn:2,3,5\n", "brieskorn", (2, 3, 5), brieskorn((2, 3, 5))),
    ("LENS:3", "lens", (3,), None),
])
def test_parse_grammar(text, kind, params, data):
    m = parse(text)
    assert (m.kind, m.params, m.data) == (kind, params, data)
    assert m.selector == text.strip()
    assert parse(m) is m


@pytest.mark.parametrize("text", ["lens:4", "family:1", "brieskorn:2,4,5",
                                  "seifert:1;2/x", "mystery:1"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse(text)


def test_parse_manifold_has_no_lens_data():
    with pytest.raises(ValueError, match="lens"):
        parse_manifold("lens:3")
