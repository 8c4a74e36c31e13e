"""Executable verification of the quantum modularity properties on the
supported manifold families: the false-theta identity for Brieskorn spheres,
integrality of the modular-transform coefficients, abelian decompositions,
saddle-term assembly, the geometric-connection relation, and asymptotic
residual scans.

Reports are plain data (name, pass/fail, witness detail) so the command line
can emit them as JSON; every exact check is zero tolerance.  RUNNERS and
modularity_report run the verify suites, and check_suites decides, before
any of them computes, which apply and take the given r and s.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .cyclotomic import CycloNumber, root_power, xi_power, xi_tilde_power
from .false_theta import (
    DENOMINATOR_BOUND,
    PeriodicFunction,
    eichler_limit,
    phi_basis,
    psi_combo,
    s_transform_residual,
    trivial_series,
)
from .number_theory import RootContext, normalize_s
from .seifert import (
    Geometry,
    Manifold,
    abelian_connections,
    classify_geometry,
    cs_nonabelian,
    geometric_connection,
    invariants,
    nonabelian_connections,
    parse,
    rotation_order,
    rotation_triples,
)
from .wrt import (check_closed_form, lens_sectors, w_normalized, w_seifert_closed,
                  wrt_lens_brute)
# bench/test_bench.py checks that tracing rebinds this name, imported by value
from .wrt import tau_seifert_closed  # noqa: F401

__all__ = [
    "CheckResult",
    "VerificationReport",
    "SaddleTerm",
    "brieskorn_identity",
    "integrality_check",
    "qhs_decomposition",
    "decomposition_report",
    "saddle_expansion",
    "geometric_relation",
    "check_suites",
    "residual_scan",
    "modularity_report",
    "appendix_b_checks",
    "Family",
    "FAMILIES",
    "family",
    "RUNNERS",
    "SUITES",
]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""
    tolerance: str = "exact"

    def to_json(self) -> dict:
        return {"check": self.name, "status": "pass" if self.passed else "fail",
                "detail": self.detail, "tolerance": self.tolerance}


class VerificationReport:
    def __init__(self, manifold: str, ctx: dict):
        self.manifold, self.ctx = manifold, ctx
        self.checks: list[CheckResult] = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "",
            tolerance: str = "exact") -> None:
        self.checks.append(CheckResult(name, passed, detail, tolerance))


# -- the sector-0 model -------------------------------------------------------


class Sector0(NamedTuple):
    """The sector-0 model of a Seifert family: its row (c, f0) and the
    quantities of the manifold the row is evaluated with.  Sector 0 is

        x^(-delta) (c F_f0(alpha) + [x^(-cs) if spherical])

    at x = xi, alpha = s/r, or at x = xi~, alpha = -r/s, where F is the
    Eichler limit of the 2P-periodic table f0, delta = phi/4 - 1/2, cs is
    the lift CS_* of the geometric flat connection, H = |H_1| and
    spherical means S^3 geometry."""

    c: Fraction
    f: PeriodicFunction
    delta: Fraction
    cs: Fraction
    H: int
    spherical: bool

    @property
    def P(self) -> int:
        return self.f.period // 2


@lru_cache(maxsize=None)
def _model(m: Manifold) -> Sector0:
    c, f = FAMILIES[m.kind].row(m)
    inv = invariants(m.data)
    return Sector0(c, f, inv.phi / 4 - Fraction(1, 2),
                   geometric_connection(m.data).cs_lift, inv.H,
                   classify_geometry(inv.e, inv.chi) is Geometry.S3)


def _side(ctx: RootContext, tilde: bool):
    """The Eichler point and the power map of one side: (s/r, xi^x), or
    (-r/s, xi~^x) on the companion side."""
    if tilde:
        return Fraction(-ctx.r, ctx.s), lambda x: xi_tilde_power(ctx, x)
    return Fraction(ctx.s, ctx.r), lambda x: xi_power(ctx, x)


def _numeric_power(ctx: RootContext):
    return lambda x: xi_power(ctx, x).eval_complex()


def _sector0(row: Sector0, alpha: Fraction, pw: Callable,
             limit: Callable | None = None):
    """Sector 0 of row at alpha, with pw(y) = x^y.  limit(f, P, alpha) is
    the exact Eichler limit unless given (the trivial asymptotic series)."""
    head = pw(-row.delta)
    value = head * (row.c * (limit or eichler_limit)(row.f, row.P, alpha))
    return value + head * pw(-row.cs) if row.spherical else value


# -- Brieskorn false-theta identity -----------------------------------------


def brieskorn_identity(p: tuple[int, int, int], ctx: RootContext) -> VerificationReport:
    """Exact check of xi^(phi/4-1/2)(xi-1) tau = xi^delta (sector 0), that is
    (1/2) F_(1,1,1)(s/r), plus xi^(-CS_*) = xi^(1/120) on the spherical
    (2,3,5).  The left side is hat/(2G) from `seifert_hat_over_2g`, where
    dividing by 2G is a multiplication by conj(G)/(2 G conj(G)), so no field
    inversion is involved."""
    from .wrt import seifert_hat_over_2g

    m = parse(f"brieskorn:{','.join(map(str, p))}")
    row = _model(m)
    report = VerificationReport(m.selector, {"r": ctx.r, "s": ctx.s})
    alpha, pw = _side(ctx, False)
    diff = seifert_hat_over_2g(m.data, ctx) \
        - pw(row.delta) * _sector0(row, alpha, pw)
    ok = diff.is_zero()
    name = "poincare_identity" if row.spherical else "brieskorn_identity"
    report.add(name, ok,
               "both sides reduce to the same cyclotomic number" if ok
               else _witness(diff))
    return report


def _witness(diff: CycloNumber) -> str:
    """Detail of a failed exact check: the conductor, the support and the
    lowest-exponent term of the nonzero difference's canonical form."""
    canon = diff.canonical()
    first = min(canon.c)
    return (f"difference is nonzero: conductor {diff.D}, "
            f"{len(canon.c)} nonzero integral-basis coordinates, first "
            f"[{first}] = {Fraction(canon.c[first], canon.den)}, "
            f"numeric {diff.eval_complex():.3e}")


# -- integrality -------------------------------------------------------------


def integrality_check(p: tuple[int, int, int], a: tuple[int, int, int],
                      ctx: RootContext) -> tuple[bool, list]:
    """True iff xi^(CS-lift[a]) * (1/2) F_a(s/r) has all-integer coordinates
    on the integral basis (conductor drops to r after the lift clears the
    4P-denominator exponents).  Also returns the coordinates, the terms
    (k, coefficient of zeta^k) of its canonical form."""
    P = math.prod(p)
    lift = cs_nonabelian(tuple(p), tuple(a))
    value = xi_power(ctx, lift) * Fraction(1, 2) \
        * eichler_limit(phi_basis(tuple(p), tuple(a)), P, Fraction(ctx.s, ctx.r))
    canon = value.reduce_conductor().canonical()
    return canon.den == 1, [(k, Fraction(v, canon.den))
                            for k, v in sorted(canon.c.items())]


# -- abelian decompositions ---------------------------------------------------


def _family_psi(p: int, cu: int, cv: int, cw: int) -> PeriodicFunction:
    """cu psi^(u) + cv psi^(v) + cw psi^(w) of family p, at P = p(2p+1)
    with u, v, w = P-4p-1, P-2p-1, P-1."""
    P = p * (2 * p + 1)
    return psi_combo(P, {P - 4 * p - 1: cu, P - 2 * p - 1: cv, P - 1: cw})


def _sectors(m: Manifold, ctx: RootContext, tilde: bool) -> list[CycloNumber]:
    """Sector values W^(a), a = 0..H//2, of a psi-basis family at xi, or at
    xi~ with tilde: sector 0, then from the family's sector rows

        W^(a) = 2 x^(-delta) (sum coef chi F_f(alpha) + [x^(-CS_*) if spherical])

    with chi = 2 cos(2 pi c a / H), c = s at xi and c = -r at xi~, on a
    twisted row and chi = 1 on the others.  Each F_f is formed once."""
    row = _model(m)
    alpha, pw = _side(ctx, tilde)
    fixed = [2 * pw(-row.cs)] if row.spherical else []
    twisted = []
    for coef, f, character in FAMILIES[m.kind].sector_rows(m):
        limit, k = eichler_limit(f, row.P, alpha), 2 * coef
        # a unit scalar keeps or negates the limit, with no product
        term = limit if k == 1 else -limit if k == -1 else k * limit
        (twisted if character else fixed).append(term)
    fixed = sum(fixed[1:], fixed[0])
    head = pw(-row.delta)
    c = -ctx.r if tilde else ctx.s
    out = [_sector0(row, alpha, pw)]
    for a in range(1, row.H // 2 + 1):
        chi = root_power(row.H, c * a) + root_power(row.H, -c * a)
        out.append(head * sum((chi * t for t in twisted), fixed))
    return out


# -- saddle expansion --------------------------------------------------------


class SaddleTerm(NamedTuple):
    """One term of the expansion W ~ sum_A e^(2 pi i (r/s) CS[A]) P_A I_A."""

    connection: str
    cs_lift: Fraction
    p_value: CycloNumber
    i_value: complex
    delta: int        # growth exponent: I_A in (s/r)^(delta/2) C[[s/r]]

    def numeric(self, ctx: RootContext) -> complex:
        # the phase (r/s) cs_lift is reduced mod 1 exactly before it meets
        # floating point, which matters once r reaches 10^4 and beyond
        phase = CycloNumber.from_turns(Fraction(ctx.r, ctx.s) * self.cs_lift)
        return phase.eval_complex() * self.p_value.eval_complex() * self.i_value


def _p_star(ctx: RootContext, c: Fraction, lift: Fraction, P: int,
            f: PeriodicFunction) -> CycloNumber:
    """A saddle coefficient c xi~^lift F_f(-r/s) at the companion root."""
    return c * xi_tilde_power(ctx, lift) \
        * eichler_limit(f, P, Fraction(-ctx.r, ctx.s))


def _trivial_term(row: Sector0, ctx: RootContext, K: int) -> SaddleTerm:
    """The trivial-connection term: sector 0 with the Eichler limit replaced
    by its asymptotic series through order K."""
    value = _sector0(row, Fraction(ctx.s, ctx.r), _numeric_power(ctx),
                     lambda f, P, _alpha: trivial_series(f, P, K, ctx))
    return SaddleTerm("trivial", Fraction(0), CycloNumber.one(), value, 0)


@lru_cache(maxsize=None)
def _psi_classes(m: Manifold) -> tuple[tuple[Fraction, PeriodicFunction,
                                             CycloNumber], ...]:
    """The S-image sum_b M_b psi^(b) of the sector-0 table f0 of m, as terms
    (lift, f, g).

    M_b = g_b / (i sqrt(2P)) with g_b = sum_l f0(l) zeta_2P^(lb), exact, over
    the labels b = 1..P-1 with g_b != 0.  They are grouped by the
    Chern-Simons class -b^2/4P mod 1, and within a class by g_b up to sign;
    each group is one term, f = H sum_b sign_b psi^(b) and g the g_b of its
    first label.  The lift is CS_* on the geometric class and lies in
    [-1, 0) on the others."""
    row = _model(m)
    P = row.P
    groups: dict[Fraction, list[tuple[CycloNumber, dict[int, int]]]] = {}
    for b in range(1, P):
        acc: dict[int, int] = {}
        for l in row.f.support():
            k = l * b % (2 * P)
            acc[k] = acc.get(k, 0) + row.f(l)
        g = CycloNumber.from_int_dict(2 * P, acc)
        if g.is_zero():
            continue
        members = groups.setdefault(-Fraction(b * b, 4 * P) % 1, [])
        for g0, combo in members:
            sign = 1 if (g - g0).is_zero() else -1 if (g + g0).is_zero() else 0
            if sign:
                combo[b] = sign * row.H
                break
        else:
            members.append((g, {b: row.H}))
    return tuple((row.cs if cls == row.cs % 1 else cls - 1, psi_combo(P, combo), g)
                 for cls, members in sorted(groups.items()) for g, combo in members)


def _geometric_tables(m: Manifold) -> list[PeriodicFunction]:
    """The tables f of the _psi_classes terms at the lift CS_*."""
    return [f for lift, f, _ in _psi_classes(m) if lift == _model(m).cs]


def _sector0_saddles(m: Manifold, ctx: RootContext, K: int) -> list[SaddleTerm]:
    """Sector 0 of a Seifert family: the trivial term, then one term per
    _psi_classes term, P = c xi~^lift F_f(-r/s) and
    I = -(1/H) sqrt(r/is) x^-delta M, named "geometric" when it is the one
    term at CS_* and "cs=<lift>" otherwise."""
    row = _model(m)
    pre = _numeric_power(ctx)(-row.delta)
    unique = len(_geometric_tables(m)) == 1
    terms = [_trivial_term(row, ctx, K)]
    for lift, f, g in _psi_classes(m):
        p_val = _p_star(ctx, row.c, lift, row.P, f)
        big_m = g.eval_complex().imag / math.sqrt(2 * row.P)
        i_val = -(1 / row.H) * cmath.sqrt(ctx.r / (1j * ctx.s)) * pre * big_m
        name = "geometric" if unique and lift == row.cs else f"cs={lift}"
        terms.append(SaddleTerm(name, lift, p_val, i_val, -1))
    return terms


def _lens_saddles(m: Manifold, ctx: RootContext, K: int) -> list[SaddleTerm]:
    """One exact term per abelian sector, with the off-sector terms zero."""
    sectors = qhs_decomposition(m, ctx)
    terms = []
    for label, lift, sector in sectors:
        terms.append(SaddleTerm(f"abelian{label}", lift, sector, 1 + 0j, 0))
        terms += [SaddleTerm(f"sector{label}:abelian{other}", lift2,
                             CycloNumber.zero(1), 0j, 0)
                  for other, lift2, _ in sectors if other != label]
    return terms


# -- geometric relation -------------------------------------------------------


def _geometric(m: Manifold, ctx: RootContext, report: VerificationReport) -> None:
    """P_*(xi~) = xi~^(delta + CS_*) W(xi~) - [H if spherical], exactly."""
    row = _model(m)
    alpha, pw = _side(ctx, True)
    if m.kind == "brieskorn":
        # f0 is the table of the geometric rotation number (1, 1, 1).  For
        # s > 1 the closed form at the swapped context is the independent
        # side; for s = 1 it is 0/0 at xi~ = 1 and sector 0 defines W(xi~).
        f_star = row.f
        w = w_seifert_closed(m.data, ctx.tilde()).exact if ctx.s > 1 \
            else _sector0(row, alpha, pw)
    else:
        [f_star] = _geometric_tables(m)
        w = sum(FAMILIES[m.kind].sectors(m, ctx, True), CycloNumber.zero(1))
    shift = row.delta + row.cs
    const = row.H if row.spherical else 0
    diff = _p_star(ctx, row.c, row.cs, row.P, f_star) - (pw(shift) * w - const)
    if m.kind != "brieskorn":
        text = f"P_* = xi~^({shift}) sum W^(a)" + (f" + ({-const})" if const else "")
    elif row.spherical:   # (2, 3, 5), where the shift is 1
        text = f"P_*(xi~) = xi~ W(xi~) - {const}"
    else:                 # an integer shift, read mod s
        text = f"delta = {shift % ctx.s}"
    ok = diff.is_zero()
    report.add("geometric_relation", ok, text if ok else _witness(diff))


def _lens_geometric(m: Manifold, ctx: RootContext,
                    report: VerificationReport) -> None:
    """sum_a W^(a)(x) = p x^((5-p)/4) at x = xi and x = xi~, and the
    sector-0 geometric coefficient P_* vanishes."""
    p = m.params[0]
    const = Fraction(5 - p, 4)
    direct = sum(lens_sectors(p, ctx), CycloNumber.zero(1))
    tilde = sum(lens_sectors(p, ctx, tilde=True), CycloNumber.zero(1))
    for tag, total, pw in (("xi", direct, xi_power), ("xi~", tilde, xi_tilde_power)):
        diff = total - p * pw(ctx, const)
        ok = diff.is_zero()
        report.add(f"lens_sector_sum[{tag}]", ok,
                   f"sum_a W^(a) = p {tag}^((5-p)/4) (same-root reading; "
                   f"constant magnitude p = {p})" if ok else _witness(diff))
    # record how the two readings of the sum identity compare: the
    # sectors evaluated at xi~ against constants built on xi~ vs on xi
    coincide = (tilde - p * xi_power(ctx, const)).is_zero()
    report.add("lens_sum_reading", True,
               "both readings coincide here (the constant's exponent "
               "reduces to an integer)" if coincide
               else "only the same-root reading holds",
               tolerance="informational")
    # geometric relation: P^(0)_* = xi~^((p-5)/4) sum_a W^(a)(xi~) - p = 0
    residue = xi_tilde_power(ctx, -const) * tilde - p
    ok = residue.is_zero()
    report.add("lens_geometric_relation", ok,
               "sector-0 geometric coefficient vanishes" if ok
               else _witness(residue))


# -- the family table ---------------------------------------------------------


class Family(NamedTuple):
    """What the harness implements for one manifold kind.

    row(m) gives the sector-0 row (c, f0) of a Seifert family (see
    Sector0); sectors(m, ctx, tilde) gives the abelian sector values W^(a)
    at xi (or xi~), in the label order of connections(m), the flat
    connections; sector_rows(m) gives the a >= 1 rows (coef, f, twisted) of
    a psi-basis family (see _sectors); saddles(m, ctx, K) gives the saddle
    terms; geometric(m, ctx, report) adds the geometric-relation checks to
    report; suites are the verify suites that apply.  saddles and
    geometric default to those of the sector-0 model.
    """

    row: Callable | None = None
    sectors: Callable | None = None
    sector_rows: Callable | None = None
    saddles: Callable = _sector0_saddles
    geometric: Callable = _geometric
    suites: tuple[str, ...] = ("decomposition", "geometric")
    connections: Callable = abelian_connections


FAMILIES = {
    "brieskorn": Family(
        lambda m: (Fraction(1, 2), phi_basis(m.params, (1, 1, 1))),
        suites=("identity", "integrality", "geometric", "lemmas", "modularity"),
        connections=lambda m: nonabelian_connections(m.params)
        + [geometric_connection(m.data)._replace(kind="geometric")]),
    "lens": Family(sectors=lambda m, ctx, tilde: lens_sectors(m.params[0], ctx, tilde),
                   saddles=_lens_saddles, geometric=_lens_geometric),
    "2-3-3": Family(
        lambda m: (Fraction(-1, 2), psi_combo(6, {1: 1, 3: 2, 5: 1})), _sectors,
        lambda m: [(Fraction(-1, 2), psi_combo(6, {1: 1, 3: -1, 5: 1}), False)]),
    "neg-2-3-9": Family(
        lambda m: (Fraction(1, 2), psi_combo(18, {1: 1, 5: -1, 13: -1, 17: 1})),
        _sectors,
        lambda m: [(Fraction(1, 4), psi_combo(18, {1: 2, 5: 1, 13: 1, 17: 2}), False)]),
    "family": Family(
        lambda m: (Fraction(1, 2), _family_psi(m.params[0], 1, -2, 1)), _sectors,
        lambda m: [(Fraction(1, 2), _family_psi(m.params[0], 1, 0, 1), False),
                   (Fraction(-1, 2), _family_psi(m.params[0], 0, 1, 0), True)]),
}


def family(selector: str | Manifold) -> Family:
    """The table row of a manifold; ValueError when the harness has none."""
    m = parse(selector)
    if m.kind not in FAMILIES:
        raise ValueError(f"no verification data for {m.selector!r}")
    if m.kind == "brieskorn" and len(m.params) != 3:
        raise ValueError(f"{m.selector!r}: the Brieskorn checks need exactly "
                         f"three exceptional fibers")
    return FAMILIES[m.kind]


def check_suites(selector: str | Manifold, suite: str | None, s: int = 1,
                 r: int | None = None, r_values: Sequence[int] | None = None
                 ) -> tuple[Manifold, tuple[str, ...]]:
    """The manifold of selector and the suites that suite names (`all`: its
    family's suites but modularity; None: none).  ValueError, before
    anything is computed, unless each applies and takes r, or every r of
    r_values, and s.  The rules, in order:

    - the Eichler denominators below 2^31: the last of r_values and |s|,
      or r and s';
    - the harness has data for the manifold, and its family lists the suite;
    - geometric: r coprime with H on ex:family and on L(p, 1) (H = p), and
      there p >= 3, for the sector-sum identity; on a psi-basis family,
      exactly one _psi_classes term at CS_*, the one P_* reads;
    - geometric and modularity: s is its own s' at every r, since they
      evaluate at xi~ = e(-r/s) and in s/r and would silently use s';
    - decomposition on a Seifert family: `wrt.check_closed_form` at (r, s');
    - decomposition and geometric on L(p, 1): s' coprime with p, for the
      sectors at xi.
    """
    if r_values is not None:
        denominators = [*r_values[-1:], abs(s)]
    elif r is None or math.gcd(s, r) != 1:
        denominators = [r] if r else []
    else:
        denominators = [r, normalize_s(s, r)]
    for c in denominators:
        if c >= DENOMINATOR_BOUND:
            raise ValueError(f"denominator {c} is past the Eichler-limit bound "
                             f"c < 2^31")
    m = parse(selector)
    fam = family(m)
    if suite is None:
        return m, ()
    if suite != "all" and suite not in fam.suites:
        raise ValueError(f"suite {suite} does not apply to {m.selector!r}; it "
                         f"takes {', '.join(fam.suites)}")
    suites = tuple(x for x in fam.suites if x != "modularity") \
        if suite == "all" else (suite,)
    if "geometric" in suites:
        H = m.params[0] if m.kind == "lens" \
            else invariants(m.data).H if m.kind == "family" else 1
        if math.gcd(r, H) != 1:
            raise ValueError(f"the geometric relation holds along r coprime "
                             f"with H = {H}; got r = {r}")
        if m.kind == "lens" and H < 3:
            raise ValueError("the lens sector-sum identity "
                             "sum_a W^(a) = p x^((5-p)/4) needs p >= 3")
        if fam.sector_rows and (n := len(_geometric_tables(m))) != 1:
            raise ValueError(f"the S-image of sector 0 of {m.selector!r} has {n} "
                             f"terms at CS_* = {_model(m).cs}; the geometric "
                             f"relation needs exactly one")
    rs = r_values if "modularity" in suites else (r,) if "geometric" in suites \
        else ()
    for x in rs:
        used = normalize_s(s, x)
        if used != s:
            raise ValueError(f"s = {s} would be replaced by s' = {used} at "
                             f"r = {x}; the geometric and modularity suites "
                             f"take only s = 1 mod 4 below 4r")
    if "decomposition" in suites and m.data is not None:
        check_closed_form(m.data, RootContext(r, normalize_s(s, r)))
    if m.kind == "lens" and math.gcd(used := normalize_s(s, r), m.params[0]) != 1:
        raise ValueError(f"evaluation parameter {used} must be coprime to "
                         f"p={m.params[0]}")
    return m, suites


def qhs_decomposition(selector: str | Manifold, ctx: RootContext):
    """Sector data [(label, cs_lift, W^(a))] of the abelian decomposition
    W = sum_a e^(2 pi i (r/s) cs_lift_a) W^(a) for the example families.

    Each lift is s^2 times the abelian_connections lift: it carries the
    s-dependence of the surgery-side phases, and reducing it mod 1 recovers
    the linking-pairing value.
    """
    m = parse(selector)
    fam = family(m)
    if fam.sectors is None:
        raise ValueError(f"no decomposition implemented for {m.selector!r}")
    return [(c.label, ctx.s * ctx.s * c.cs_lift, w)
            for c, w in zip(fam.connections(m), fam.sectors(m, ctx, False),
                            strict=True)]


def decomposition_report(selector: str | Manifold,
                         ctx: RootContext) -> VerificationReport:
    """Checks sum_a e^(2 pi i (r/s) cs_a) W^(a) against the independently
    computed W, exactly."""
    m = parse(selector)
    report = VerificationReport(m.selector, {"r": ctx.r, "s": ctx.s})
    terms = qhs_decomposition(m, ctx)
    total = CycloNumber.zero(1)
    for _label, lift, sector in terms:
        phase = CycloNumber.from_turns(Fraction(ctx.r, ctx.s) * lift)
        total = total + phase * sector
    if m.data is None:
        p = m.params[0]
        ref = w_normalized(wrt_lens_brute(p, ctx), p, ctx).exact
        name = "lens_decomposition_vs_surgery"
    else:
        ref = w_seifert_closed(m.data, ctx).exact
        name = "decomposition_vs_closed_form"
    diff = total - ref
    ok = diff.is_zero()
    report.add(name, ok, f"sectors: {len(terms)}" if ok else _witness(diff))
    return report


def saddle_expansion(selector: str | Manifold, ctx: RootContext,
                     K: int) -> list[SaddleTerm]:
    """Saddle terms of the asymptotic expansion for the supported families.

    A Seifert family gets the sector-0 terms: the trivial term and one
    term per term of the exact S-image of its sector-0 table (on Brieskorn
    spheres, one per rotation number); lens spaces get one exact term per
    abelian sector with the off-sector terms exactly zero.
    """
    m = parse(selector)
    return family(m).saddles(m, ctx, K)


def geometric_relation(selector: str | Manifold,
                       ctx: RootContext) -> VerificationReport:
    """Exact check that the geometric saddle coefficient P_* recovers the
    invariant at the companion root.  For the Seifert families, with the
    sector-0 model of Sector0,

      P_*(xi~) = xi~^(delta + CS_*) W(xi~) - [H if spherical],
      P_* = c xi~^CS_* F_f*(-r/s),

    where f* is f0 for Brieskorn spheres and otherwise the table of the one
    term of the S-image of f0 at CS_* (see _psi_classes), and W = sum_a
    W^(a) for the rational homology spheres.  Brieskorn spheres report delta + CS_*
    mod s, an integer.  Lens spaces keep their own form:

      lens p : sum_a W^(a)(x) = p x^((5-p)/4), sector-0 P_* = 0

    ValueError, before anything is computed, on a ctx that check_suites
    rejects for the geometric suite.
    """
    m, _ = check_suites(selector, "geometric", ctx.s, ctx.r)
    report = VerificationReport(m.selector, {"r": ctx.r, "s": ctx.s})
    family(m).geometric(m, ctx, report)
    return report


# -- asymptotic residual scan -------------------------------------------------


def residual_scan(selector: str | Manifold, s: int, r_list: list[int], K: int):
    """|W(xi) - saddle terms(K)| = |c| |s_transform_residual(p, (1, 1, 1),
    ctx, K)| over r in r_list, largest r first on one dict of buffers, with
    the fitted log-log slope.  Expected slope: -(K+1)."""
    m, _ = check_suites(selector, "modularity", s, r_values=r_list)
    c, buffers = float(abs(_model(m).c)), {}
    residual = {r: c * abs(s_transform_residual(m.params, (1, 1, 1),
                                                RootContext(r, s), K, buffers))
                for r in sorted(set(r_list), reverse=True)}
    rows = [(r, residual[r]) for r in r_list]
    if len(rows) < 2:
        return rows, float("nan")
    import numpy as np
    xs = np.log([row[0] for row in rows])
    ys = np.log([max(row[1], 1e-300) for row in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope


def modularity_report(selector: str | Manifold, s: int, r_values: range, K: int,
                      slope_tol: float) -> VerificationReport:
    """The slope of `residual_scan` over r_values, the range start..stop
    with stop included, against -(K+1), to within slope_tol."""
    m = parse(selector)
    _rows, slope = residual_scan(m, s, list(r_values), K)
    expected = -(K + 1)
    report = VerificationReport(m.selector, {"s": s, "r_range": [
        r_values.start, r_values.stop - 1, r_values.step]})
    report.add("modularity_slope", abs(slope - expected) <= slope_tol,
               f"fitted slope {slope:.3f}, expected {expected} +- {slope_tol}",
               f"+-{slope_tol}")
    return report


# -- direct summation lemmas --------------------------------------------------


def appendix_b_checks(p: tuple[int, int, int], a: tuple[int, int, int],
                      r: int) -> VerificationReport:
    """Direct verification, by summation over Z/r and the eight sign
    choices, of the three structural lemmas behind coefficient integrality:

      (i)   sum_eps e1 e2 e3 sum_L xi^(F_eps(L)) = 0
      (ii)  sum_eps e1 e2 e3 e_j sum_L xi^(F_eps(L)) = 0 for j = 1, 2, 3
      (iii) (1/2r) sum_eps e1 e2 e3 sum_L L xi^(F_eps(L))  is integral

    where F_eps(L) = P(L + u_eps)(L + 1 + v_eps) = P L^2 + B_eps L + C_eps,
    u_eps = sum (e_j+1)/2 a_j/p_j, v_eps = sum (e_j-1)/2 a_j/p_j,
    B_eps = P(1 + u_eps + v_eps) and C_eps = P u_eps (1 + v_eps).  F_eps(L)
    is an integer for every L exactly when B_eps and C_eps are.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError("r must be odd")
    report = VerificationReport(f"lemmas p={p} a={a}", {"r": r})
    P = math.prod(p)
    eps_range = [(e1, e2, e3) for e1 in (1, -1) for e2 in (1, -1) for e3 in (1, -1)]

    sums = {}
    lin = {}
    for eps in eps_range:
        u = sum(Fraction((e + 1) * aj, 2 * pj) for e, aj, pj in zip(eps, a, p))
        v = sum(Fraction((e - 1) * aj, 2 * pj) for e, aj, pj in zip(eps, a, p))
        b, c = P * (1 + u + v), P * u * (1 + v)
        assert b.denominator == 1 and c.denominator == 1
        b, c = int(b), int(c)
        acc: dict[int, int] = {}
        acc_l: dict[int, int] = {}
        for L in range(r):
            k = (P * L * L + b * L + c) % r
            acc[k] = acc.get(k, 0) + 1
            acc_l[k] = acc_l.get(k, 0) + L
        sums[eps] = CycloNumber.from_int_dict(r, acc)
        lin[eps] = CycloNumber.from_int_dict(r, acc_l)

    total = CycloNumber.zero(r)
    for eps in eps_range:
        total = total + (eps[0] * eps[1] * eps[2]) * sums[eps]
    report.add("alternating_sum_vanishes", total.is_zero())

    for j in range(3):
        tj = CycloNumber.zero(r)
        for eps in eps_range:
            tj = tj + (eps[0] * eps[1] * eps[2] * eps[j]) * sums[eps]
        report.add(f"weighted_sum_vanishes_j{j + 1}", tj.is_zero())

    third = CycloNumber.zero(r)
    for eps in eps_range:
        third = third + (eps[0] * eps[1] * eps[2]) * lin[eps]
    third = third * Fraction(1, 2 * r)
    report.add("linear_term_integral", third.is_integral())
    return report


# -- the verify suites --------------------------------------------------------


def _integrality(m: Manifold, ctx: RootContext) -> VerificationReport:
    report = VerificationReport(m.selector, {"r": ctx.r, "s": ctx.s})
    pc = rotation_order(m.params)   # rotation numbers index this order
    for a in rotation_triples(pc):
        report.add(f"integrality{a}", integrality_check(pc, a, ctx)[0])
    return report


# the runner (m, ctx) -> report of each verify suite at one root; each public
# check is looked up by name when it runs, so a rebound name (the benchmark's
# tracer) is seen.  modularity scans a range of r instead (modularity_report)
RUNNERS = {
    "identity": lambda m, ctx: brieskorn_identity(m.params, ctx),
    "integrality": _integrality,
    "geometric": lambda m, ctx: geometric_relation(m, ctx),
    "decomposition": lambda m, ctx: decomposition_report(m, ctx),
    "lemmas": lambda m, ctx: appendix_b_checks(m.params, (1, 1, 1), ctx.r),
}
SUITES = (*RUNNERS, "modularity")
