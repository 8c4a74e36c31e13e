"""WRT invariants of Seifert fibered rational homology spheres at roots of
unity: the exact structured-sum closed form, the lens space closed form,
the brute-force colored-Jones surgery oracle, and the normalized invariant.

All exact values live in cyclotomic fields.  The closed form's
transcendental-looking prefactor is eliminated without floating point: the
quadratic Gauss sum

    G = sum_{n mod 2Pr} xi^(-n^2/4P)

satisfies G * conj(G) = 2 P r gcd(s, P) exactly.  The structured (hat) sum
is summed over n in closed form, as a short list of sparse root-of-unity sums
R times one quadratic sum T each; where T is G itself, R T / 2G is R/2, and
only the other groups meet a product with conj(G).  Quantum integer
denominators are cleared with the root-of-unity identity

    1/(chi - 1) = (1/h) sum_{t=0}^{h-1} t chi^t        (chi^h = 1, chi != 1),

with h the multiplicative order of chi, which is at most r here.

The surgery paths clear every other denominator by conjugation: with
delta = xi^(1/2) - xi^(-1/2), 1/[n] = delta xi^(n/2) / (xi^n - 1), and
g = F(U^f) u with u = delta xi^(3f/4), f = +-1, is a Gauss sum with
g conj(g) = 2r, so 1/F(U^f) = u conj(g) / 2r.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property

from .cyclotomic import CycloNumber, quadratic_sum, root_power, xi_power, xi_tilde_power
from .intmatrix import eigenvalue_sign_counts
from .number_theory import RootContext, jacobi, moebius
from .seifert import SeifertData, SeifertInvariants, invariants

__all__ = [
    "WrtValue",
    "check_closed_form",
    "seifert_gauss_sum",
    "seifert_hat_over_2g",
    "wrt_seifert_closed",
    "tau_seifert_closed",
    "w_seifert_closed",
    "sqrt_homology_order",
    "w_normalized",
    "quantum_integer",
    "f_surgery_normalization",
    "f_surgery_inverse",
    "wrt_brute_surgery",
    "wrt_lens",
    "wrt_lens_brute",
    "surgery_linking_matrix",
]


class WrtValue:
    """An exact WRT-type invariant value in one form: canonical at the
    smallest conductor that holds it, so equal values have equal (D, c, den)
    however they were formed.  numeric is its evaluation.

    Reducing the conductor of a canonical form can leave a form that is not
    canonical at the smaller conductor, hence the second canonical()."""

    def __init__(self, x: CycloNumber):
        self.exact = x.canonical().reduce_conductor().canonical()

    @cached_property
    def numeric(self) -> complex:
        return self.exact.eval_complex()


def _one_over_root_minus_one(D: int, k: int, h: int) -> CycloNumber:
    """1/(zeta_D^k - 1) for a root of multiplicative order h > 1."""
    acc = {(k * t) % D: t for t in range(1, h)}
    return CycloNumber.from_int_dict(D, acc, h)


def _delta(ctx: RootContext) -> CycloNumber:
    """delta = xi^(1/2) - xi^(-1/2), of conductor 2r."""
    return xi_power(ctx, Fraction(1, 2)) - xi_power(ctx, Fraction(-1, 2))


def _inverse_by_conjugate(x: CycloNumber) -> CycloNumber:
    """1/x = conj(x) / (x conj(x)) for a nonzero x whose norm x conj(x) is
    rational (a quadratic Gauss sum), in canonical form."""
    bar = x.conjugate()
    try:
        norm = (x * bar).as_rational()
    except ValueError:
        raise ArithmeticError("x conj(x) is not rational") from None
    return (bar * (1 / norm)).canonical()


def _one_over_delta_squared(ctx: RootContext) -> CycloNumber:
    """delta^-2 = xi / (xi - 1)^2, in canonical form at conductor 2r."""
    one_over = _one_over_root_minus_one(2 * ctx.r, 2 * ctx.s % (2 * ctx.r), ctx.r)
    return (root_power(2 * ctx.r, 2 * ctx.s) * one_over * one_over).canonical()


def _one_over_quantum_integer(n: int, ctx: RootContext) -> CycloNumber:
    """1/[n] = delta xi^(n/2) / (xi^n - 1) for r not dividing n, in
    canonical form at conductor 4r."""
    D = 4 * ctx.r
    return (_delta(ctx) * xi_power(ctx, Fraction(n, 2))
            * _one_over_root_minus_one(D, 4 * ctx.s * n % D,
                                       ctx.r // math.gcd(n, ctx.r))).canonical()


# -- the structured closed-form sum ----------------------------------------


def seifert_gauss_sum(P: int, ctx: RootContext) -> CycloNumber:
    """G = sum_{n mod 2Pr} xi^(-n^2/4P), exact of conductor 4Pr."""
    return quadratic_sum(4 * P * ctx.r, -ctx.s, count=2 * P * ctx.r)


def seifert_gauss_norm(P: int, ctx: RootContext) -> int:
    """G * conj(G) = 2 P r gcd(s, P), proved by completing the square."""
    return 2 * P * ctx.r * math.gcd(ctx.s, P)


def _hat_groups(d: SeifertData, ctx: RootContext):
    """The hat sum over n mod 2Pr, r not dividing n, of xi^(-Hn^2/4P)
    prod_j (xi^(n/2p_j) - xi^(-n/2p_j)) / (xi^(n/2) - xi^(-n/2))^(m-2), for
    b = 0, e > 0 data with m fibers, as (P, den, groups): hat = (1/den)
    sum R T over the groups (R, (A, rho, N)), R a sparse integer sum of
    roots zeta = zeta_D, D = 4Pr, and T = sum_{j<N} zeta^(A j^2 + rho j).

    Term n is zeta^(-sHn^2) times the 2^m signed shifts of
    prod_j (zeta^(c_j n) - zeta^(-c_j n)), c_j = 2Ps/p_j, times the (m-2)-th
    power of 1/(zeta^a - zeta^-a), a = 2Psn, by the 1/(chi - 1) identity
    (1/r) sum_{t=1}^{h-1} t g zeta^(a(1+2t)) with g = gcd(n, r), h = r/g.
    Since zeta^(2ah) = 1, that power is one integer series
    sum_e w_e zeta^(ae), e mod 2h, over r^(m-2) per class g; for m < 2 it is
    the binomial expansion of (zeta^a - zeta^-a)^(2-m).  A Moebius sum over
    d | h replaces the n with gcd(n, r) = g by all n = kj, k = gd,
    j mod N = 2Pr/k, weighted mu(d), so each signed shift delta and each e
    give a quadratic sum with A = -sHk^2 and linear coefficient
    b = k(delta + 2Pse).  Substituting j -> j + t multiplies it by
    zeta^(At^2 + bt) and moves b to b + 2At, which t makes the residue
    rho = b mod gcd(2A, D).  Both steps hold in Z[x]/(x^D - 1), so the
    groups sum to the coefficients of the sum over n, term by term.
    """
    inv = invariants(nd := d.normalized_b0())
    if inv.e <= 0:
        raise ValueError("hat sum requires e > 0 data; reverse orientation first")
    P, H, r, s, m = inv.P, inv.H, ctx.r, ctx.s, nd.m
    D = 4 * P * r
    cs = [2 * P * s // p for p, _ in nd.fibers]
    shifts = [(math.prod(eps), sum(x * c for x, c in zip(eps, cs)))
              for eps in itertools.product((1, -1), repeat=m)]
    groups: dict[tuple[int, int, int], dict[int, int]] = {}
    for g in range(1, r):
        if r % g:
            continue
        h = r // g
        base = {1 + 2 * t: t * g for t in range(1, h)} if m > 2 \
            else {1: 1, 2 * h - 1: -1}
        series = CycloNumber.from_int_dict(2 * h, base) ** abs(m - 2)
        lin: dict[int, int] = {}     # b/k mod D -> weight
        for sign, delta in shifts:
            for e, w in series.c.items():
                key = (delta + 2 * P * s * e) % D
                lin[key] = lin.get(key, 0) + sign * w
        for k in range(g, r + 1, g):
            mu = moebius(k // g) if r % k == 0 else 0
            if not mu:
                continue
            A = -s * H * k * k % D
            L = math.gcd(2 * A, D)
            inv_2a = pow(2 * A // L, -1, D // L)
            for c, w in lin.items():
                b = k * c % D
                rho = b % L
                t = (rho - b) // L * inv_2a % (D // L)
                acc = groups.setdefault((A, rho, D // (2 * k)), {})
                key = (A * t + b) * t % D
                acc[key] = acc.get(key, 0) + mu * w
    out = [(CycloNumber.from_int_dict(D, acc), q) for q, acc in groups.items()]
    return P, r ** max(m - 2, 0), [(R, q) for R, q in out if R.c]


def seifert_hat_over_2g(d: SeifertData, ctx: RootContext) -> CycloNumber:
    """hat / (2G) = hat conj(G) / (2 G conj(G)), exact, from the groups of
    `_hat_groups`.  The group whose quadratic sum is G itself (A = -s,
    rho = 0, N = 2Pr; at H = 1 and a prime r usually the only one left) gives
    R G conj(G) = 2Pr gcd(s, P) R; the others are summed and multiplied by
    conj(G) once.
    """
    P, den, groups = _hat_groups(d, ctx)
    D = 4 * P * ctx.r
    norm = seifert_gauss_norm(P, ctx)
    total, rest = CycloNumber.zero(D), CycloNumber.zero(D)
    for R, (A, rho, N) in groups:
        if (A, rho, N) == (-ctx.s % D, 0, 2 * P * ctx.r):
            total = total + R * norm
        else:
            rest = rest + R * quadratic_sum(D, A, rho, count=N)
    if rest.c:
        total = total + rest * seifert_gauss_sum(P, ctx).conjugate()
    return total * Fraction(1, 2 * norm * den)


def check_closed_form(d: SeifertData, ctx: RootContext,
                      w: bool = True) -> SeifertInvariants:
    """The invariants of d; ValueError unless the closed form gives tau of d
    at ctx, and with w its W = sqrt(H) (H/s) (xi - 1) tau: e != 0 and r > 1
    (tau divides by xi - 1); at H > 1 the reciprocity form's integer-framed
    fibers, at least one, all q_j = +-1 and gcd(s, p_j) = 1; for W also
    gcd(s, H) = 1 and H odd."""
    inv = invariants(d)
    if inv.e == 0:
        raise ValueError("closed form needs a rational homology sphere (e != 0)")
    if ctx.r == 1:
        raise ValueError("closed form needs r > 1: it divides by xi - 1")
    if inv.H != 1:
        if not d.fibers:
            raise ValueError("the reciprocity form needs at least one exceptional "
                             "fiber; a bare framed unknot is a lens space, use lens:p")
        for p, q in d.fibers:
            if q not in (1, -1):
                raise ValueError("reciprocity form needs an integer-framed "
                                 "presentation (all q_j = +-1)")
            if math.gcd(ctx.s, p) != 1:
                raise ValueError(f"s={ctx.s} must be coprime to the fiber order {p}")
    if w and math.gcd(ctx.s, inv.H) != 1:
        raise ValueError(f"s={ctx.s} must be coprime to H={inv.H}")
    if w and inv.H % 2 == 0:
        raise ValueError("homology order must be odd and positive")
    return inv


def _surgery_normalization(d: SeifertData, ctx: RootContext) -> CycloNumber:
    """1 / (F(U^+1)^b+ F(U^-1)^b-) for the signature of the surgery link."""
    b_plus, b_minus, zero = eigenvalue_sign_counts(surgery_linking_matrix(d))
    if zero:
        raise ValueError("surgery matrix is degenerate (not a QHS)")
    norm = CycloNumber.one()
    if b_plus:
        norm = norm * f_surgery_inverse(1, ctx) ** b_plus
    if b_minus:
        norm = norm * f_surgery_inverse(-1, ctx) ** b_minus
    return norm.canonical()


def _fiber_b_sum(f: int, w: int, ctx: RootContext) -> CycloNumber:
    """B(w) = sum_{a mod |f|} e^(-2 pi i s a (r a + w)/f), of conductor |f|."""
    sgn = 1 if f > 0 else -1
    return quadratic_sum(abs(f), -sgn * ctx.s * ctx.r, -sgn * ctx.s * w)


def _fiber_probe(f: int, ctx: RootContext) -> tuple[int, CycloNumber]:
    """The first w0 in 0..|f| with B(w0) != 0, and B(w0)."""
    for w0 in range(abs(f) + 1):
        b0 = _fiber_b_sum(f, w0, ctx)
        if not b0.is_zero():
            return w0, b0
    raise ArithmeticError("no nonvanishing probe for the fiber sum")


def _tau_qhs_reciprocity(d: SeifertData, ctx: RootContext) -> CycloNumber:
    """tau for a rational homology sphere presented with integer framings
    (all q_j = +-1), by applying Gauss sum reciprocity to each fiber sum.

    With framings f_j = p_j q_j the fiber factor of the surgery state sum is

        S_j(n0) = xi^(-f_j/4) delta^-2 [A_j(n0+1) - A_j(n0-1)],
        A_j(w)  = sum_{n mod 2r} xi^((f_j n^2 + 2 w n)/4),

    and reciprocity turns A_j(w) into E_j K_j xi^(-w^2/4f_j) B_j(w) where

        K_j = sum_{l mod s} xi~^(f_j l^2),
        B_j(w) = sum_{a mod |f_j|} e^(-2 pi i s a (r a + w)/f_j),

    and the scalar E_j = e^(pi i sgn(f_j)/4) sqrt(2r) / sqrt(s |f_j|) is
    pinned exactly as the ratio A_j(w0) / (K_j B_j(w0)) at a probe value w0.
    Only the central factors and the brackets depend on n0, so the constant

        C = delta prod_j xi^(-f_j/4) delta^-2 E_j K_j

    (its delta is the numerator of 1/[n0]) is formed once, before the sum
    over n0, and multiplies the sum once, both in canonical form, which has
    far fewer terms than either as summed.  `check_closed_form` gives its
    domain.
    """
    r, s = ctx.r, ctx.s
    D = 4 * r
    inv_delta2 = _one_over_delta_squared(ctx)
    const = _delta(ctx)     # C = delta prod_j xi^(-f_j/4) delta^-2 E_j K_j
    fiber_b = []            # B_j tables, indexed by w mod |f_j|
    for p, q in d.fibers:
        f = p * q
        F = abs(f)
        w0, b0 = _fiber_probe(f, ctx)
        ek = quadratic_sum(D, s * f, 2 * s * w0, count=2 * r) \
            * _inverse_by_conjugate(b0) * xi_power(ctx, Fraction(w0 * w0, 4 * f))
        const = const * xi_power(ctx, Fraction(-f, 4)) * inv_delta2 * ek
        fiber_b.append((f, {w: _fiber_b_sum(f, w, ctx) for w in range(F)}))

    total = CycloNumber.zero(D)
    for n0 in range(1, r):
        # the last two factors and the delta in C are 1/[n0] = delta
        # xi^(n0/2) / (xi^(n0) - 1)
        part = xi_power(ctx, Fraction(d.b * (n0 * n0 - 1), 4)) \
            * _one_over_root_minus_one(D, 4 * s * n0 % D, r // math.gcd(n0, r)) \
            * xi_power(ctx, Fraction(n0, 2))
        for f, btab in fiber_b:
            F = abs(f)
            plus = xi_power(ctx, Fraction(-(n0 + 1) ** 2, 4 * f)) * btab[(n0 + 1) % F]
            minus = xi_power(ctx, Fraction(-(n0 - 1) ** 2, 4 * f)) * btab[(n0 - 1) % F]
            part = part * (plus - minus)
        total = total + part
    return total.canonical() * (const * _surgery_normalization(d, ctx)).canonical()


def tau_seifert_closed(d: SeifertData, ctx: RootContext) -> WrtValue:
    """tau from the closed form, normalized to tau(S^3) = 1.

    Integer homology spheres read hat/(2G) of the structured sum; other rational
    homology spheres use the per-fiber reciprocity form (which requires an
    integer-framed presentation).  Data with e < 0 is handled by orientation
    reversal plus conjugation (reversing orientation conjugates the
    invariant)."""
    inv = check_closed_form(d, ctx, w=False)
    if inv.e < 0:
        rev = tau_seifert_closed(d.reversed_orientation(), ctx)
        return WrtValue(rev.exact.conjugate())
    if inv.H != 1:
        return WrtValue(_tau_qhs_reciprocity(d, ctx))
    # tau = xi^(1/2 - phi/4) / (xi - 1) * hat / (2G)
    one_over = _one_over_root_minus_one(4 * ctx.r, 4 * ctx.s % (4 * ctx.r), ctx.r)
    return WrtValue(seifert_hat_over_2g(d, ctx)
                    * xi_power(ctx, Fraction(1, 2) - inv.phi / 4) * one_over)


def wrt_seifert_closed(d: SeifertData, ctx: RootContext) -> WrtValue:
    """The prefactored invariant xi^Delta (xi - 1) tau, Delta = phi/4 - 1/2,
    exactly; for integer homology spheres it equals hat_sum / (2 G)."""
    tau = tau_seifert_closed(d, ctx).exact
    delta = invariants(d).phi / 4 - Fraction(1, 2)
    return WrtValue(xi_power(ctx, delta) * (xi_power(ctx, 1) - 1) * tau)


def sqrt_homology_order(H: int) -> CycloNumber:
    """sqrt(H) for odd H >= 1, exactly: the Gauss sum G(1, H) for
    H = 1 mod 4, and -i G(1, H) for H = 3 mod 4."""
    if H < 1 or H % 2 == 0:
        raise ValueError("homology order must be odd and positive")
    g = quadratic_sum(H, 1)
    if H % 4 == 1:
        return g
    return root_power(4, 3) * g  # -i * (i sqrt H)


def w_normalized(tau: WrtValue, H: int, ctx: RootContext) -> WrtValue:
    """W = sqrt(H) (H/s) (xi - 1) tau."""
    if math.gcd(ctx.s, H) != 1:
        raise ValueError(f"s={ctx.s} must be coprime to H={H}")
    return WrtValue(tau.exact * (xi_power(ctx, 1) - 1) * jacobi(H, ctx.s)
                    * sqrt_homology_order(H))


def w_seifert_closed(d: SeifertData, ctx: RootContext) -> WrtValue:
    """W = sqrt(H) (H/s) (xi - 1) tau via the closed form, exactly."""
    inv = check_closed_form(d, ctx)
    return w_normalized(tau_seifert_closed(d, ctx), inv.H, ctx)


# -- colored Jones / surgery oracle ----------------------------------------


def quantum_integer(n: int, ctx: RootContext) -> CycloNumber:
    """[n]_q = (q^(n/2) - q^(-n/2)) / (q^(1/2) - q^(-1/2)) at q = xi,
    as the exact Laurent sum q^((n-1)/2) + q^((n-3)/2) + ... + q^(-(n-1)/2)."""
    if n < 0:
        return -quantum_integer(-n, ctx)
    D = 4 * ctx.r
    acc: dict[int, int] = {}
    for i in range(n):
        k = (2 * ctx.s * (n - 1 - 2 * i)) % D
        acc[k] = acc.get(k, 0) + 1
    return CycloNumber.from_int_dict(D, acc)


def surgery_linking_matrix(d: SeifertData) -> list[list[int]]:
    """Linking matrix of the integer surgery presentation (requires all
    q_j = +-1): central b-framed unknot linked once with each p_j q_j-framed
    fiber unknot."""
    for p, q in d.fibers:
        if q not in (1, -1):
            raise ValueError("integer surgery needs q_j = +-1 (framing p_j/q_j)")
    m = d.m
    out = [[0] * (m + 1) for _ in range(m + 1)]
    out[0][0] = d.b
    for j, (p, q) in enumerate(d.fibers, start=1):
        out[0][j] = out[j][0] = 1
        out[j][j] = p * q
    return out


def f_surgery_normalization(f: int, ctx: RootContext) -> CycloNumber:
    """F(U^f) = sum_{n=1}^{r-1} q^(f(n^2-1)/4) [n]^2 for the f-framed
    unknot, exact, with [n]^2 = sum_{|m|<n} (n - |m|) q^m and
    q^m = zeta_4r^(4 s m)."""
    D = 4 * ctx.r
    s = ctx.s
    acc: dict[int, int] = {}
    for n in range(1, ctx.r):
        base = f * s * (n * n - 1)
        for m in range(1 - n, n):
            k = (base + 4 * s * m) % D
            acc[k] = acc.get(k, 0) + n - abs(m)
    return CycloNumber.from_int_dict(D, acc)


def f_surgery_inverse(f: int, ctx: RootContext) -> CycloNumber:
    """1/F(U^f) = u conj(g) / 2r, g = F(U^f) u, u = delta xi^(3f/4), f = +-1,
    in canonical form at conductor 4r; g conj(g) != 2r is an ArithmeticError."""
    if f not in (1, -1):
        raise ValueError("f must be +1 or -1")
    u = _delta(ctx) * xi_power(ctx, Fraction(3 * f, 4))
    g = f_surgery_normalization(f, ctx) * u
    bar = g.conjugate()
    if g * bar != 2 * ctx.r:
        raise ArithmeticError(f"F(U^{f}) fails g conj(g) = 2r at r={ctx.r}")
    return (u * bar * Fraction(1, 2 * ctx.r)).canonical()


def wrt_brute_surgery(d: SeifertData, ctx: RootContext) -> WrtValue:
    """tau via the defining surgery state sum over colors {1..r-1}^(m+1).

    The inner sums factor over the fiber components for each central color,
    so the cost is O(m r^2) dictionary convolutions rather than r^(m+1)
    terms.
    """
    if d.m == 0:
        raise ValueError("the Seifert link shape needs at least one fiber; "
                         "use the framed-unknot route for lens spaces")
    r, s = ctx.r, ctx.s
    D = 4 * r
    # the n0-free factor xi^(f (nj^2-1)/4) [nj] of each fiber colour
    fiber_weights = [[root_power(D, s * p * q * (nj * nj - 1))
                      * quantum_integer(nj, ctx) for nj in range(1, r)]
                     for p, q in d.fibers]
    total = CycloNumber.zero(D)
    for n0 in range(1, r):
        # J * prod [n_i] has one surviving 1/[n0]
        part = root_power(D, s * d.b * (n0 * n0 - 1)) \
            * _one_over_quantum_integer(n0, ctx)
        for weights in fiber_weights:
            inner = CycloNumber.zero(D)
            for nj, weight in enumerate(weights, start=1):
                inner = inner + weight * quantum_integer(n0 * nj, ctx)
            part = part * inner
        total = total + part
    return WrtValue(total * _surgery_normalization(d, ctx))


# -- lens spaces ------------------------------------------------------------


def lens_sectors(p: int, ctx: RootContext, tilde: bool = False) -> list[CycloNumber]:
    """Abelian sector values W^(a) of L(p,1), a = 0 .. (p-1)/2:

        W^(0) = -x^((5-p)/4) (x^(-1/p) - 1),
        W^(a) = -2 x^((5-p)/4) (x^(-1/p) cos(4 pi c a / p) - 1),

    at x = xi, c = s (direct side) or x = xi~, c = -r (companion side),
    with fractional powers taken canonically: xi^t = e^(2 pi i s t / r) and
    xi~^t = e^(-2 pi i r t / s)."""
    if p < 1 or p % 2 == 0:
        raise ValueError("lens parameter p must be odd and positive "
                         "(mod-2 homology sphere)")
    c = (-ctx.r) if tilde else ctx.s
    if math.gcd(c, p) != 1:
        raise ValueError(f"evaluation parameter {c} must be coprime to p={p}")
    pw = (lambda t: xi_tilde_power(ctx, t)) if tilde else (lambda t: xi_power(ctx, t))
    head = -1 * pw(Fraction(5 - p, 4))
    x_inv_p = pw(Fraction(-1, p))
    sectors: list[CycloNumber] = []
    for a in range((p - 1) // 2 + 1):
        cos2 = (root_power(p, 2 * c * a) + root_power(p, -2 * c * a)) / 2
        body = x_inv_p * cos2 - 1
        sectors.append(head * body if a == 0 else 2 * head * body)
    return sectors


def wrt_lens(p: int, ctx: RootContext) -> tuple[WrtValue, list[CycloNumber]]:
    """W_{L(p,1)} exactly, with its abelian decomposition.

        W = -xi^((5-p)/4) sum_{a mod p} e^(-2 pi i (r/s) s^2 a^2 / p)
            (xi^(-1/p) cos(4 pi s a / p) - 1)

    Returns (W, [W^(0), ..., W^((p-1)/2)]) where the sector values satisfy
    W = sum_a e^(2 pi i (r/s) cs_a) W^(a) with cs_a = -s^2 a^2 / p.
    """
    r, s = ctx.r, ctx.s
    sectors = lens_sectors(p, ctx)
    total = CycloNumber.zero(1)
    for a in range((p - 1) // 2 + 1):
        phase = CycloNumber.from_turns(Fraction(-r * s * a * a, p))
        total = total + phase * sectors[a]
    return WrtValue(total), sectors


def wrt_lens_brute(p: int, ctx: RootContext) -> WrtValue:
    """tau of L(p,1) by p-framed unknot surgery: F(U^p) / F(U^sign(p))."""
    if p == 0:
        raise ValueError("p = 0 is not a rational homology sphere")
    tau = f_surgery_normalization(p, ctx) \
        * f_surgery_inverse(1 if p > 0 else -1, ctx)
    return WrtValue(tau)
