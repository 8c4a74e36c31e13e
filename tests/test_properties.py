"""Property tests over random small Seifert data that the closed form accepts:
integer-framed fibers (q = +-1, the first of order 2), odd homology order,
e != 0, and roots r <= 9 (or from a given list) with s coprime to r and to
every fiber order."""

import math

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qmwrt import wrt
from qmwrt.number_theory import RootContext
from qmwrt.seifert import SeifertData, invariants
from qmwrt.wrt import WrtValue, tau_seifert_closed, wrt_brute_surgery
from test_wrt import (
    _brute_surgery_reference,
    _surgery_normalization_reference,
    _tau_reciprocity_reference,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=20,
                    deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def seifert_and_root(draw, min_fibers=1, max_fibers=3, roots=(3, 5, 7, 9),
                     orders=(3, 5, 7)):
    fibers = [(2, draw(st.sampled_from((1, -1))))]
    fibers += draw(st.lists(st.tuples(st.sampled_from(orders),
                                      st.sampled_from((1, -1))),
                            min_size=min_fibers - 1, max_size=max_fibers - 1))
    d = SeifertData(draw(st.integers(-2, 2)), tuple(fibers))
    inv = invariants(d)
    assume(inv.e != 0 and inv.H % 2 == 1)
    r = draw(st.sampled_from(roots))
    s = draw(st.sampled_from((1, 5, 13)))
    assume(math.gcd(s, r) == 1 and all(math.gcd(s, p) == 1 for p, _ in fibers))
    return d, RootContext(r, s)


@PROPERTY
@given(seifert_and_root())
def test_orientation_reversal_conjugates_tau(case):
    d, ctx = case
    rev = d.reversed_orientation()
    for tau in (tau_seifert_closed, wrt_brute_surgery):
        assert tau(rev, ctx).exact == tau(d, ctx).exact.conjugate()


@PROPERTY
@given(seifert_and_root(), st.integers(-2, 2))
def test_moving_b_between_fibers_keeps_tau(case, k):
    # (b; (p_j, q_j), ...) and (b + k; (p_j, q_j + k p_j), ...) present the
    # same manifold; flipping the order-2 fiber keeps the framing integral
    d, ctx = case
    tau = tau_seifert_closed(d, ctx).exact
    (p1, q1), *rest = d.fibers
    flipped = SeifertData(d.b - q1, ((p1, -q1), *rest))
    assert tau_seifert_closed(flipped, ctx).exact == tau
    if invariants(d).H == 1:   # the merged sum takes any q_j
        j = k % d.m
        p, q = d.fibers[j]
        fibers = list(d.fibers)
        fibers[j] = (p, q + k * p)
        assert tau_seifert_closed(SeifertData(d.b + k, tuple(fibers)), ctx).exact == tau


@PROPERTY
@given(seifert_and_root(min_fibers=2))
def test_closed_form_equals_surgery_oracle(case):
    # one fiber is left out: there the state sum misses tau(S^3) = 1 for
    # S2(0; 2/1), while the closed form returns 1
    d, ctx = case
    assert tau_seifert_closed(d, ctx).exact == wrt_brute_surgery(d, ctx).exact


@PROPERTY
@given(seifert_and_root(min_fibers=1, max_fibers=4, roots=(3, 5, 7, 9, 11, 13)))
@example((SeifertData(2, ((2, 1), (3, -1), (7, 1), (3, 1))), RootContext(13, 5)))
def test_surgery_oracle_equals_the_quantum_integer_state_sum(case):
    # two forms of one state sum, so one fiber is fine here
    d, ctx = case
    new, ref = wrt_brute_surgery(d, ctx).exact, _brute_surgery_reference(d, ctx).exact
    assert (new.D, new.c, new.den) == (ref.D, ref.c, ref.den)


@PROPERTY
@given(seifert_and_root(min_fibers=1, max_fibers=4, roots=(9, 15, 21),
                        orders=(3, 5, 7, 9, 15)))
@example((SeifertData(0, ((2, 1), (3, 1), (5, 1), (7, 1))), RootContext(15, 1)))
def test_reciprocity_form_equals_the_whole_fiber_sum_form(case):
    # r shares the primes 3, 5 or 7 with the fiber orders, so the part F1 of
    # an order that the closed form keeps is often more than 1
    d, ctx = case
    assume(invariants(d).H != 1)
    new = WrtValue(wrt._tau_qhs_reciprocity(d, ctx)).exact
    ref = WrtValue(_tau_reciprocity_reference(d, ctx)).exact
    assert (new.D, new.c, new.den) == (ref.D, ref.c, ref.den)


@st.composite
def integer_framed_and_root(draw):
    fibers = draw(st.lists(st.tuples(st.integers(2, 9), st.sampled_from((1, -1))),
                           min_size=1, max_size=4))
    d = SeifertData(draw(st.integers(-2, 2)), tuple(fibers))
    assume(invariants(d).e != 0)
    r = draw(st.sampled_from(range(3, 22, 2)))
    s = draw(st.sampled_from((1, 5, 13, 17)))
    assume(math.gcd(s, r) == 1)
    return d, RootContext(r, s)


@settings(PROPERTY, max_examples=60)
@given(integer_framed_and_root())
@example((SeifertData(0, ((2, 1), (3, 1), (5, 1), (7, 1))), RootContext(9, 1)))
@example((SeifertData(-2, ((4, -1), (9, -1))), RootContext(15, 17)))
def test_closed_form_normalization_equals_the_f_u_route(case):
    # odd and even signature, any fiber orders, composite r
    d, ctx = case
    new = wrt._surgery_normalization(d, ctx)
    ref = _surgery_normalization_reference(d, ctx)
    assert new == ref
    assert (new.D, new.c, new.den) == (ref.D, ref.c, ref.den)
