"""Executable verification of the quantum modularity properties on the
supported manifold families: the false-theta identity for Brieskorn spheres,
integrality of the modular-transform coefficients, abelian decompositions,
saddle-term assembly, the geometric-connection relation, and asymptotic
residual scans.

Reports are plain data (name, pass/fail, witness detail) so the command line
can emit them as JSON; every exact check is zero tolerance.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .cyclotomic import CycloNumber, root_power, xi_power, xi_tilde_power
from .false_theta import (
    eichler_limit,
    eichler_limit_complex,
    phi_basis,
    psi_combo,
    s_matrix_phi,
    s_matrix_psi,
    trivial_series,
)
from .number_theory import RootContext, normalize_s
from .seifert import (
    Manifold,
    SeifertData,
    abelian_connections,
    brieskorn,
    cs_nonabelian,
    geometric_connection,
    invariants,
    nonabelian_connections,
    parse,
    rotation_order,
    rotation_triples,
)
from .wrt import lens_sectors, w_normalized, w_seifert_closed, wrt_lens_brute
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
    "residual_scan",
    "appendix_b_checks",
    "Family",
    "FAMILIES",
    "family",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    tolerance: str = "exact"

    def to_json(self) -> dict:
        return {"check": self.name, "status": "pass" if self.passed else "fail",
                "detail": self.detail, "tolerance": self.tolerance}


@dataclass
class VerificationReport:
    manifold: str
    ctx: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "",
            tolerance: str = "exact") -> None:
        self.checks.append(CheckResult(name, passed, detail, tolerance))

    def to_json(self) -> dict:
        return {"manifold": self.manifold, "ctx": self.ctx,
                "results": [c.to_json() for c in self.checks]}


# -- Brieskorn false-theta identity -----------------------------------------


def brieskorn_identity(p: tuple[int, int, int], ctx: RootContext) -> VerificationReport:
    """Exact check of xi^(phi/4-1/2)(xi-1) tau = (1/2) F_(1,1,1)(s/r)
    (plus the extra xi^(1/120) for fiber orders (2,3,5)), cross-multiplied
    against the Gauss prefactor so no field inversion is involved."""
    from .wrt import seifert_gauss_sum, seifert_hat_sum

    d = brieskorn(p)
    inv = invariants(d)
    report = VerificationReport(f"brieskorn:{','.join(map(str, p))}",
                                {"r": ctx.r, "s": ctx.s})
    hat = seifert_hat_sum(d, ctx)
    big_g = seifert_gauss_sum(inv.P, ctx)
    ft = eichler_limit(phi_basis(tuple(p), (1, 1, 1)), inv.P,
                       Fraction(ctx.s, ctx.r))
    rhs = big_g * ft
    spherical = sorted(p) == [2, 3, 5]
    if spherical:
        rhs = rhs + 2 * big_g * xi_power(ctx, Fraction(1, 120))
    diff = hat - rhs
    ok = diff.is_zero()
    name = "poincare_identity" if spherical else "brieskorn_identity"
    report.add(name, ok,
               "both sides reduce to the same cyclotomic number" if ok
               else _witness(diff))
    return report


def _witness(diff: CycloNumber) -> str:
    """Detail of a failed exact check: the conductor, the support and the
    first nonzero integral-basis coordinate of the nonzero difference."""
    coords = diff._tensor_coords()
    first = min(coords)
    return (f"difference is nonzero: conductor {diff.D}, "
            f"{len(coords)} nonzero integral-basis coordinates, first "
            f"[{first}] = {Fraction(coords[first], diff.den)}, "
            f"numeric {diff.eval_complex():.3e}")


# -- integrality -------------------------------------------------------------


def integrality_check(p: tuple[int, int, int], a: tuple[int, int, int],
                      ctx: RootContext) -> tuple[bool, list]:
    """True iff xi^(CS-lift[a]) * (1/2) F_a(s/r) has all-integer coordinates
    on the integral basis (conductor drops to r after the lift clears the
    4P-denominator exponents).  Also returns the coordinate witness."""
    P = math.prod(p)
    lift = cs_nonabelian(tuple(p), tuple(a))
    value = xi_power(ctx, lift) * Fraction(1, 2) \
        * eichler_limit(phi_basis(tuple(p), tuple(a)), P, Fraction(ctx.s, ctx.r))
    reduced = value.reduce_conductor()
    coords = [(k, Fraction(v, reduced.den))
              for k, v in sorted(reduced._tensor_coords().items())]
    return reduced.is_integral(), coords


# -- abelian decompositions ---------------------------------------------------


def _psi_limit(P: int, terms: dict[int, int], alpha: Fraction) -> CycloNumber:
    return eichler_limit(psi_combo(P, terms), P, alpha)


def _side(ctx: RootContext, tilde: bool):
    """The Eichler point and the power map of one side: (s/r, xi^x), or
    (-r/s, xi~^x) on the companion side."""
    if tilde:
        return Fraction(-ctx.r, ctx.s), lambda x: xi_tilde_power(ctx, x)
    return Fraction(ctx.s, ctx.r), lambda x: xi_power(ctx, x)


def _sectors_233(m: Manifold, ctx: RootContext, tilde: bool):
    """Sector values W^(a) of S^2(1;2,3,3); tilde evaluates at -r/s."""
    alpha, pw = _side(ctx, tilde)
    head = pw(Fraction(-13, 24))
    w0 = head * (Fraction(-1, 2) * _psi_limit(6, {1: 1, 3: 2, 5: 1}, alpha)
                 + pw(Fraction(1, 24)))
    w1 = head * (-1 * _psi_limit(6, {1: 1, 3: -1, 5: 1}, alpha)
                 + 2 * pw(Fraction(1, 24)))
    return [w0, w1]


def _sectors_neg239(m: Manifold, ctx: RootContext, tilde: bool):
    alpha, pw = _side(ctx, tilde)
    head = pw(Fraction(107, 72)) * Fraction(1, 2)
    w0 = head * _psi_limit(18, {1: 1, 5: -1, 13: -1, 17: 1}, alpha)
    w1 = head * _psi_limit(18, {1: 2, 5: 1, 13: 1, 17: 2}, alpha)
    return [w0, w1]


def _sectors_family(m: Manifold, ctx: RootContext, tilde: bool):
    p = m.params[0]
    inv = invariants(m.data)
    H, P = 2 * p + 1, p * (2 * p + 1)
    u, v, w = P - 4 * p - 1, P - 2 * p - 1, P - 1
    dp = inv.phi / 4 - Fraction(1, 2)
    alpha, pw = _side(ctx, tilde)
    # cos(2 pi c a / H) with c = s on the direct side, c = -r on the tilde side
    c = (-ctx.r) if tilde else ctx.s
    head = pw(-dp)
    out = [head * Fraction(1, 2) * _psi_limit(P, {u: 1, v: -2, w: 1}, alpha)]
    for a in range(1, p + 1):
        cos2 = root_power(H, c * a) + root_power(H, -c * a)
        out.append(head * (_psi_limit(P, {u: 1, w: 1}, alpha)
                           - cos2 * _psi_limit(P, {v: 1}, alpha)))
    return out


# -- saddle expansion --------------------------------------------------------


@dataclass
class SaddleTerm:
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


def _sqrt_r_over_is(ctx: RootContext) -> complex:
    return cmath.sqrt(ctx.r / (1j * ctx.s))


def _p_star(ctx: RootContext, c: Fraction, lift: Fraction, P: int,
            combo: dict[int, int]) -> CycloNumber:
    """A saddle coefficient c xi~^lift Psi~_combo(-r/s) at the companion root."""
    return c * xi_tilde_power(ctx, lift) \
        * _psi_limit(P, combo, Fraction(-ctx.r, ctx.s))


def _brieskorn_saddles(p: tuple[int, int, int], ctx: RootContext,
                       K: int) -> list[SaddleTerm]:
    pc = rotation_order(tuple(p))   # rotation numbers index this order
    d = brieskorn(p)
    inv = invariants(d)
    P = inv.P
    geom = geometric_connection(d)
    pre = xi_power(ctx, Fraction(1, 2) - inv.phi / 4).eval_complex()
    spherical = sorted(p) == [2, 3, 5]
    i_trivial = 0.5 * pre * trivial_series(phi_basis(pc, (1, 1, 1)), P, K, ctx)
    if spherical:
        i_trivial += xi_power(ctx, Fraction(-1)).eval_complex()
    terms = [SaddleTerm("trivial", Fraction(0), CycloNumber.one(), i_trivial, 0)]
    smat = s_matrix_phi(pc)
    labels = rotation_triples(pc)
    idx0 = labels.index((1, 1, 1))
    for j, a in enumerate(labels):
        lift = geom.cs_lift if a == geom.rotation else cs_nonabelian(pc, a)
        p_val = Fraction(1, 2) * xi_tilde_power(ctx, lift) \
            * eichler_limit(phi_basis(pc, a), P, Fraction(-ctx.r, ctx.s))
        i_val = -_sqrt_r_over_is(ctx) * smat[idx0, j] * pre
        terms.append(SaddleTerm(f"nonabelian{a}", lift, p_val, i_val, -1))
    return terms


def _trivial_saddle(ctx: RootContext, K: int, scale: complex, P: int,
                    combo: dict[int, int], const: complex = 0j) -> SaddleTerm:
    """The trivial-connection term of a sector, const + scale times the
    order-K asymptotic series of the Eichler integral of Psi_combo."""
    value = const + scale * trivial_series(psi_combo(P, combo), P, K, ctx)
    return SaddleTerm("trivial", Fraction(0), CycloNumber.one(), value, 0)


def _sector0_saddles_233(m: Manifold, ctx: RootContext, K: int) -> list[SaddleTerm]:
    pre = xi_power(ctx, Fraction(-13, 24)).eval_complex()
    terms = [_trivial_saddle(ctx, K, -0.5 * pre, 6, {1: 1, 3: 2, 5: 1},
                             xi_power(ctx, Fraction(-1, 2)).eval_complex())]
    i_val = -cmath.sqrt(ctx.r / (3j * ctx.s)) * pre
    terms.append(SaddleTerm("cs=-1/24", Fraction(-1, 24),
                            _p_star(ctx, *_ROW_233[:4]), i_val, -1))
    return terms


def _sector0_saddles_neg239(m: Manifold, ctx: RootContext,
                            K: int) -> list[SaddleTerm]:
    pre = xi_power(ctx, Fraction(107, 72)).eval_complex()
    terms = [_trivial_saddle(ctx, K, 0.5 * pre, 18, {1: 1, 5: -1, 13: -1, 17: 1})]
    combos = {
        Fraction(-1, 72): ({1: 3, 17: 3},
                           -(math.sin(math.pi / 18) - math.sin(5 * math.pi / 18))),
        Fraction(-25, 72): ({5: 3, 13: 3},
                            -(math.sin(5 * math.pi / 18) + math.sin(7 * math.pi / 18))),
        Fraction(-49, 72): ({7: 3, 11: 3},
                            -(math.sin(math.pi / 18) + math.sin(7 * math.pi / 18))),
    }
    for lift, (combo, amp) in combos.items():
        p_val = _p_star(ctx, Fraction(1, 2), lift, 18, combo)
        i_val = (2 / 9) * amp * _sqrt_r_over_is(ctx) * pre
        terms.append(SaddleTerm(f"cs={lift}", lift, p_val, i_val, -1))
    # the nonabelian class at CS = -1/8 does not contribute to sector 0
    terms.append(SaddleTerm("cs=-1/8", Fraction(-1, 8), CycloNumber.zero(1), 0j, -1))
    return terms


def _sector0_saddles_family(m: Manifold, ctx: RootContext,
                            K: int) -> list[SaddleTerm]:
    p = m.params[0]
    inv = invariants(m.data)
    H, P = 2 * p + 1, p * (2 * p + 1)
    u, v, w = P - 4 * p - 1, P - 2 * p - 1, P - 1
    dp = inv.phi / 4 - Fraction(1, 2)
    pre = xi_power(ctx, -dp).eval_complex()
    terms = [_trivial_saddle(ctx, K, 0.5 * pre, P, {u: 1, v: -2, w: 1})]
    # group the S-image of the sector combo by Chern-Simons class; the
    # combo row values coincide within each class, so each class carries
    # P = (1/2) xi~^lift Psi~^(sum_b H (b)) and I = -(1/H) sqrt(r/is) x^-Dp M_b
    m = s_matrix_psi(P)
    row = {b: m[u - 1, b - 1] - 2 * m[v - 1, b - 1] + m[w - 1, b - 1]
           for b in range(1, P)}
    classes: dict[Fraction, list[int]] = {}
    for b in range(1, P):
        if abs(row[b]) < 1e-12:
            continue
        lift_b = -Fraction(b * b, 4 * P)
        lift_b -= math.floor(lift_b)
        classes.setdefault(lift_b - 1, []).append(b)
    geom_lift = -Fraction((P - 1) ** 2, 4 * P)
    for lift_mod, members in sorted(classes.items()):
        base = row[members[0]]
        signs = []
        for b in members:
            ratio = row[b] / base
            if abs(abs(ratio) - 1) > 1e-9:
                raise ArithmeticError(f"class {members} has non-unit S-row ratios")
            signs.append(1 if ratio > 0 else -1)
        lift = geom_lift if (P - 1) in members else lift_mod
        p_val = _p_star(ctx, Fraction(1, 2), lift, P,
                        {b: H * sg for b, sg in zip(members, signs)})
        i_val = -(1 / H) * _sqrt_r_over_is(ctx) * pre * base
        name = "geometric" if (P - 1) in members else f"cs={lift}"
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


def _tilde_w_exact(d: SeifertData, ctx: RootContext) -> CycloNumber:
    """W of an integer homology sphere at the companion root
    xi~ = e^(-2 pi i r/s), via the closed form at the swapped context.

    For s = 1 the companion root is 1 and tau degenerates (0/0 in the
    closed form); there the false-theta identity with canonical fractional
    powers defines the value:

        W(xi~) = xi~^(1/2 - phi/4) ([xi~^(1/120) if spherical]
                                    + (1/2) F_(1,1,1)(-r/s))."""
    if ctx.s > 1:
        return w_seifert_closed(d, ctx.tilde()).exact
    inv = invariants(d)
    p = tuple(x for x, _ in d.fibers)
    inner = Fraction(1, 2) * eichler_limit(phi_basis(p, (1, 1, 1)), inv.P,
                                           Fraction(-ctx.r, ctx.s))
    if sorted(p) == [2, 3, 5]:
        inner = inner + xi_tilde_power(ctx, Fraction(1, 120))
    return xi_tilde_power(ctx, Fraction(1, 2) - inv.phi / 4) * inner


def _brieskorn_geometric(m: Manifold, ctx: RootContext,
                         report: VerificationReport) -> None:
    """P_*(xi~) = xi~^delta W(xi~) for an integer delta (SL(2,R)~), and
    P_*(xi~) = xi~ W(xi~) - 1 for (2,3,5)."""
    p, d = m.params, m.data
    inv = invariants(d)
    geom = geometric_connection(d)
    p_star = Fraction(1, 2) * xi_tilde_power(ctx, geom.cs_lift) \
        * eichler_limit(phi_basis(p, (1, 1, 1)), inv.P, Fraction(-ctx.r, ctx.s))
    w_tilde = _tilde_w_exact(d, ctx)
    if sorted(p) == [2, 3, 5]:
        diff = p_star - (xi_tilde_power(ctx, 1) * w_tilde - 1)
        ok = diff.is_zero()
        report.add("geometric_relation", ok,
                   "P_*(xi~) = xi~ W(xi~) - 1" if ok else _witness(diff))
        return
    found = None
    w_num = w_tilde.eval_complex()
    p_num = p_star.eval_complex()
    candidates = []
    for delta in range(ctx.s):
        shift = xi_tilde_power(ctx, delta)
        if abs(shift.eval_complex() * w_num - p_num) < 1e-6:
            candidates.append(delta)
            if (p_star - shift * w_tilde).is_zero():
                found = delta
                break
    report.add("geometric_relation", found is not None,
               f"delta = {found}" if found is not None
               else f"no integer delta in [0, {ctx.s}) matches exactly; "
                    f"numeric candidates {candidates}, "
                    f"P_* = {p_num:.6g}, W = {w_num:.6g}")


# Rows (c, lift, P, combo, shift, const) of the ex: families' geometric
# relation  c xi~^lift Psi~_combo(-r/s) = xi~^shift sum_a W^(a)(xi~) + const.
_ROW_233 = (Fraction(-1, 2), Fraction(-1, 24), 6, {1: 3, 5: 3}, Fraction(1, 2), -3)
_ROW_NEG239 = (Fraction(1, 2), Fraction(-1, 72), 18, {1: 3, 17: 3},
               Fraction(-3, 2), 0)


def _row_family(m: Manifold, ctx: RootContext):
    p = m.params[0]
    H, P = 2 * p + 1, p * (2 * p + 1)
    if math.gcd(ctx.r, H) != 1:
        raise ValueError(f"the geometric relation holds along r coprime "
                         f"with H = {H}; got r = {ctx.r}")
    lift = -Fraction((P - 1) ** 2, 4 * P)
    dp = invariants(m.data).phi / 4 - Fraction(1, 2)
    return (Fraction(1, 2), lift, P, {P - 4 * p - 1: H, P - 1: H}, dp + lift, 0)


def _ex_geometric(row):
    """The geometric-relation check of an ex: family whose row is
    row(m, ctx)."""
    def check(m: Manifold, ctx: RootContext, report: VerificationReport) -> None:
        c, lift, P, combo, shift, const = row(m, ctx)
        sectors = FAMILIES[m.kind].sectors(m, ctx, True)
        target = xi_tilde_power(ctx, shift) * sum(sectors, CycloNumber.zero(1)) \
            + const
        diff = _p_star(ctx, c, lift, P, combo) - target
        ok = diff.is_zero()
        report.add("geometric_relation", ok,
                   f"P_* = xi~^({shift}) sum W^(a)" + (f" + ({const})" if const else "")
                   if ok else _witness(diff))
    return check


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
    same_root = abs((tilde - p * xi_tilde_power(ctx, const)).eval_complex())
    mixed = abs((tilde - p * xi_power(ctx, const)).eval_complex())
    verdict = ("both readings coincide here (the constant's exponent "
               "reduces to an integer)" if mixed < 1e-9
               else "only the same-root reading holds")
    report.add("lens_sum_reading", True,
               f"residuals at xi~: same-root {same_root:.2e}, "
               f"mixed xi/xi~ {mixed:.2e}; {verdict}",
               tolerance="informational")
    # geometric relation: P^(0)_* = xi~^((p-5)/4) sum_a W^(a)(xi~) - p = 0
    residue = xi_tilde_power(ctx, -const) * tilde - p
    ok = residue.is_zero()
    report.add("lens_geometric_relation", ok,
               "sector-0 geometric coefficient vanishes" if ok
               else _witness(residue))


# -- the family table ---------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """What the harness implements for one manifold kind.

    saddles(m, ctx, K) gives the saddle terms; geometric(m, ctx, report)
    adds the geometric-relation checks to report; sectors(m, ctx, tilde)
    gives the abelian sector values W^(a) at xi (or xi~), in the label
    order of connections(m), the flat connections; suites are the verify
    suites that apply.
    """

    saddles: Callable
    geometric: Callable
    sectors: Callable | None = None
    suites: tuple[str, ...] = ("decomposition", "geometric")
    connections: Callable = abelian_connections


FAMILIES = {
    "brieskorn": Family(
        lambda m, ctx, K: _brieskorn_saddles(m.params, ctx, K),
        _brieskorn_geometric,
        suites=("identity", "integrality", "geometric", "lemmas", "modularity"),
        connections=lambda m: nonabelian_connections(m.params)
        + [replace(geometric_connection(m.data), kind="geometric")]),
    "lens": Family(_lens_saddles, _lens_geometric,
                   lambda m, ctx, tilde: lens_sectors(m.params[0], ctx, tilde)),
    "2-3-3": Family(_sector0_saddles_233,
                    _ex_geometric(lambda m, ctx: _ROW_233), _sectors_233),
    "neg-2-3-9": Family(_sector0_saddles_neg239,
                        _ex_geometric(lambda m, ctx: _ROW_NEG239), _sectors_neg239),
    "family": Family(_sector0_saddles_family, _ex_geometric(_row_family),
                     _sectors_family),
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

    Brieskorn spheres get the full expansion (trivial + every rotation
    number); the rational homology sphere examples get the sector-0 terms
    as displayed by their decompositions; lens spaces get one exact term
    per abelian sector with the off-sector terms exactly zero.
    """
    m = parse(selector)
    return family(m).saddles(m, ctx, K)


def geometric_relation(selector: str | Manifold,
                       ctx: RootContext) -> VerificationReport:
    """Exact check that the geometric saddle coefficient P_* recovers the
    invariant at the companion root:

      Brieskorn, SL(2,R)~ : P_*(xi~) = xi~^delta W(xi~) for an integer delta
      Brieskorn (2,3,5)   : P_*(xi~) = xi~ W(xi~) - 1
      S^2(1;2,3,3)        : P_*(xi~) = xi~^(1/2) sum_a W^(a)(xi~) - 3
      S^2(-1;-2,-3,-9)    : P_*(xi~) = xi~^(-3/2) sum_a W^(a)(xi~)
      family p            : P_*(xi~) = xi~^(Dp - (P-1)^2/4P) sum_a W^(a)(xi~)
      lens p              : sum_a W^(a)(x) = p x^((5-p)/4), sector-0 P_* = 0
    """
    m = parse(selector)
    report = VerificationReport(m.selector, {"r": ctx.r, "s": ctx.s})
    family(m).geometric(m, ctx, report)
    return report


# -- asymptotic residual scan -------------------------------------------------


def residual_scan(selector: str | Manifold, s: int, r_list: list[int], K: int):
    """|W(xi) - saddle terms(K)| over r in r_list, with the fitted log-log
    slope.  Expected slope: -(K+1)."""
    m = parse(selector)
    if "modularity" not in family(m).suites:
        raise ValueError("residual scan is implemented for Brieskorn spheres")
    p = m.params
    inv = invariants(m.data)
    P = inv.P
    f111 = phi_basis(p, (1, 1, 1))
    spherical = sorted(p) == [2, 3, 5]
    rows = []
    for r in r_list:
        ctx = RootContext(r, normalize_s(s, r))
        pre = xi_power(ctx, Fraction(1, 2) - inv.phi / 4).eval_complex()
        w_num = 0.5 * pre * eichler_limit_complex(f111, P, Fraction(ctx.s, ctx.r))
        if spherical:
            w_num += pre * xi_power(ctx, Fraction(1, 120)).eval_complex()
        total = sum(t.numeric(ctx) for t in _brieskorn_saddles(p, ctx, K))
        rows.append((r, abs(w_num - total)))
    if len(rows) < 2:
        return rows, float("nan")
    xs = np.log([row[0] for row in rows])
    ys = np.log([max(row[1], 1e-300) for row in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope


# -- direct summation lemmas --------------------------------------------------


def appendix_b_checks(p: tuple[int, int, int], a: tuple[int, int, int],
                      r: int) -> VerificationReport:
    """Direct verification, by summation over Z/r and the eight sign
    choices, of the three structural lemmas behind coefficient integrality:

      (i)   sum_eps e1 e2 e3 sum_L xi^(F_eps(L)) = 0
      (ii)  sum_eps e1 e2 e3 e_j sum_L xi^(F_eps(L)) = 0 for j = 1, 2, 3
      (iii) (1/2r) sum_eps e1 e2 e3 sum_L L xi^(F_eps(L))  is integral

    where F_eps(L) = P(L + sum (e_j+1)/2 a_j/p_j)(L + 1 + sum (e_j-1)/2 a_j/p_j).
    """
    if r < 1 or r % 2 == 0:
        raise ValueError("r must be odd")
    report = VerificationReport(f"lemmas p={p} a={a}", {"r": r})
    P = math.prod(p)
    eps_range = [(e1, e2, e3) for e1 in (1, -1) for e2 in (1, -1) for e3 in (1, -1)]

    def f_eps(eps, L):
        up = Fraction(L) + sum(Fraction((e + 1) * aj, 2 * pj)
                               for e, aj, pj in zip(eps, a, p))
        down = Fraction(L + 1) + sum(Fraction((e - 1) * aj, 2 * pj)
                                     for e, aj, pj in zip(eps, a, p))
        val = P * up * down
        assert val.denominator == 1
        return int(val)

    sums = {}
    lin = {}
    for eps in eps_range:
        acc: dict[int, int] = {}
        acc_l: dict[int, int] = {}
        for L in range(r):
            k = f_eps(eps, L) % r
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
