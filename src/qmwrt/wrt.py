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
only the other groups meet a product with conj(G).  Every closed form and
oracle divides by delta = xi^(1/2) - xi^(-1/2) through `_over_delta`, n
walks of `_add_over_root_minus_one` for delta^-n, each a product by
xi^(1/2) r / (xi - 1) = r / delta from the identity

    h / (chi - 1) = sum_{t=0}^{h-1} t chi^t        (chi^h = 1, chi != 1),

which holds for every such h, not only the order of chi; only the central
sum divides by xi^n0 - 1 itself.

For f = +-1, F(U^f) delta xi^(3f/4) = -f Gamma_f with the Gauss sum
Gamma_f = sum_{n mod 2r} zeta_4r^(f s n^2), so the surgery normalization
1/(F(U^+1)^b+ F(U^-1)^b-) is a root of unity times delta^(m+1) over a power
of 2r, times one Gamma_f at odd signature (see `_surgery_constant`); the
lens oracle is the star link with no fibers and takes it from there too.
The surgery oracle writes each product of quantum integers as delta^-2
times four signed roots,

    [n][n0 n] = delta^-2 (q^(n/2) - q^(-n/2)) (q^(n0 n/2) - q^(-n0 n/2)),

so a fiber sum over n is 4(r - 1) roots in one integer dict, and F(U^f) is
the fiber sum at n0 = 1 over delta^2.  At H > 1 the closed form splits
each fiber's Gauss sum by CRT into a Gauss sum free of the colour, which
cancels in the ratio that pins the fiber's constant, times F1 roots at
conductor 4 F1 r (see `_tau_qhs_reciprocity`).  Both run `_central_sum`,
with delta^(2-m) left in the n0-free constant; the oracle costs
O(m r^2) roots plus O(m r) products at D = 4r.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property

from . import cyclotomic
from .cyclotomic import CycloNumber, quadratic_sum, root_power, xi_power, xi_tilde_power
from .number_theory import RootContext, jacobi
from .seifert import SeifertData, SeifertInvariants, invariants

__all__ = [
    "WrtValue",
    "check_closed_form",
    "seifert_gauss_sum",
    "seifert_hat_over_2g",
    "tau_seifert_closed",
    "w_seifert_closed",
    "sqrt_homology_order",
    "w_normalized",
    "f_surgery_normalization",
    "wrt_brute_surgery",
    "wrt_lens",
    "wrt_lens_brute",
]


class WrtValue:
    """An exact WRT-type invariant value in one form: canonical at the
    smallest conductor that holds it, so equal values have equal (D, c, den)
    however they were formed.  numeric is its evaluation.

    Reducing the conductor of a canonical form can leave a form that is not
    canonical at the smaller conductor, hence canonical() again if D falls."""

    def __init__(self, x: CycloNumber):
        x = x.canonical()
        y = x.reduce_conductor()
        self.exact = x if y is x else y.canonical()

    @cached_property
    def numeric(self) -> complex:
        return self.exact.eval_complex()


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


def _add_over_root_minus_one(acc, x, D, a, h, shift, weight) -> None:
    """acc += weight zeta^shift x Z, Z = sum_{t<h} t zeta^(at) = h / (zeta^a - 1),
    for numerator dicts at zeta_D and zeta^a of order h > 1.  On a cycle of
    k -> k + a (a class mod D/h) the numerators y of x Z obey y(k + a) = y(k)
    + S - h x(k + a), S the sum of x there, up to a constant: its roots sum to 0."""
    get, L = acc.get, D // h
    x = {(k + shift) % D: weight * v for k, v in x.items()}
    for k0 in {k % L for k in x}:
        ks = [(k0 + a * i) % D for i in range(h)]
        xs = list(map(x.get, ks, itertools.repeat(0)))
        S, z = sum(xs), 0
        for k, v in zip(ks, xs):
            z += S - h * v
            if z:
                acc[k] = get(k, 0) + z


def _over_delta(x: CycloNumber, ctx: RootContext, n: int) -> CycloNumber:
    """x / delta^n for n >= 0 at D = lcm(x.D, 2r), not in canonical form: n
    walks of `_add_over_root_minus_one`, each times xi^(1/2) r / (xi - 1) =
    r / delta in Z[x]/(x^D - 1) up to sums over the cycles of xi, which
    vanish wherever xi is an r-th root of unity other than 1."""
    r, s, D = ctx.r, ctx.s, math.lcm(x.D, 2 * ctx.r)
    c = x.embed(D).c
    for _ in range(n):
        acc: dict[int, int] = {}
        _add_over_root_minus_one(acc, c, D, s * D // r % D, r, s * D // (2 * r), 1)
        c = acc
    return CycloNumber.from_int_dict(D, c, x.den * r ** n)


def _delta_power(ctx: RootContext, k: int) -> CycloNumber:
    """delta^k for every integer k, at conductor 2r for k != 0."""
    return _delta(ctx) ** k if k >= 0 else _over_delta(CycloNumber.one(), ctx, -k)


def _central_sum(d: SeifertData, ctx: RootContext, D: int, factor) -> CycloNumber:
    """sum_{n0=1}^{r-1} xi^(b(n0^2-1)/4 + n0/2) (xi^n0 - 1)^-1 prod_j X_j(n0)
    in canonical form at D, a multiple of 4r, for the numerator dicts X_j(n0)
    = factor(p_j q_j, n0), formed once per n0 for each distinct framing and
    multiplied by `cyclotomic._product`, and 1/(xi^n0 - 1) = (g/r)
    sum_{t<h} t xi^(n0 t), g = gcd(n0, r), h = r/g."""
    r, s, F = ctx.r, ctx.s, D // (4 * ctx.r)     # zeta_D^F = xi^(1/4)
    fs, acc = [p * q for p, q in d.fibers], {}
    for n0 in range(1, r):
        made = {f: factor(f, n0) for f in set(fs)}
        x, *ys = [made[f] for f in fs]
        for y in ys:
            x = x and y and cyclotomic._product(x, y, D)
        g = math.gcd(n0, r)
        # the central weight 1/[n0] = delta xi^(n0/2) / (xi^n0 - 1); delta is in C
        _add_over_root_minus_one(acc, x, D, 4 * F * s * n0 % D, r // g,
                                 F * s * (d.b * (n0 * n0 - 1) + 2 * n0), g)
    return CycloNumber.from_int_dict(D, acc, r).canonical()


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
    power of 1/(zeta^a - zeta^-a), a = 2Psn: delta^(2-m) at xi^(1/2) = y =
    zeta^a, xi = chi = zeta^(2a).  `_delta_power` at s = 1 writes it as one
    integer series sum_e w_e y^e, e mod 2r, over den, never put in
    canonical form (which holds at y = zeta_2r only): a polynomial in y at
    m <= 2, and at m > 2 the walks hold at every chi != 1 with chi^r = 1,
    whatever its order.  So it is that power at every n that r does not
    divide, and it is defined at every n, so the sum over r not dividing n
    is the sum over all n = kj, j mod N = 2Pr/k, at k = 1 (weight +1) and
    k = r (weight -1).
    Each signed shift u and each e give a quadratic sum with
    A = -sHk^2 and linear coefficient b = k(u + 2Pse).  Substituting
    j -> j + t multiplies it by zeta^(At^2 + bt) and moves b to b + 2At,
    which t makes the residue rho = b mod L, L = gcd(2A, D).  Both steps
    hold in Z[x]/(x^D - 1), for every such t, so the groups sum to the
    coefficients of the sum of the series terms over n.
    At k = 1, rho reads e mod lam only, lam = L / gcd(L, 2Ps): the square
    is completed once per shift and residue e0 of e, and e = e0 + lam i
    takes b = b0 + i step, step = 2Ps lam, and t = t0 + i tau with
    2A tau = -step mod D, so the exponent At^2 + bt is key0 + i (k1 + i k2)
    mod D, one multiply-add per series term.  At k = r, b = r (u + 2Pse
    mod 4P) reads e mod 2 only: each shift gives two terms, weighted by the
    series' sums over even and odd e.
    """
    inv = invariants(nd := d.normalized_b0())
    if inv.e <= 0:
        raise ValueError("hat sum requires e > 0 data; reverse orientation first")
    P, H, r, s, m = inv.P, inv.H, ctx.r, ctx.s, nd.m
    D, g = 4 * P * r, 2 * P * s
    shifts = [(math.prod(eps), sum(x * g // p for x, (p, _) in zip(eps, nd.fibers)))
              for eps in itertools.product((1, -1), repeat=m)]
    series = _delta_power(RootContext(r, 1), 2 - m)
    groups: dict[tuple[int, int, int], dict[int, int]] = {}

    def complete(A, b):     # (rho, t): b + 2At = rho mod D, rho = b mod gcd(2A, D)
        L = math.gcd(2 * A, D)
        rho = b % L
        return rho, (rho - b) // L * pow(2 * A // L, -1, D // L) % (D // L)

    A = -s * H % D
    L = math.gcd(2 * A, D)
    lam = L // math.gcd(L, g)
    step = g * lam
    tau = complete(A, step)[1]
    k2 = tau * (A * tau + step) % D
    classes: dict[int, list[tuple[int, int]]] = {}
    for e, w in series.c.items():
        classes.setdefault(e % lam, []).append((e // lam, w))
    for sign, u in shifts:
        for e0, terms in classes.items():
            b = u + g * e0
            rho, t = complete(A, b)
            key0, k1 = (A * t + b) * t % D, (tau * (2 * A * t + b) + step * t) % D
            acc = groups.setdefault((A, rho, D // 2), {})
            get = acc.get
            for i, w in terms:
                key = (key0 + i * (k1 + i * k2)) % D
                acc[key] = get(key, 0) + sign * w
    A = -s * H * r * r % D
    parity = [sum(w for e, w in series.c.items() if e % 2 == x) for x in (0, 1)]
    for sign, u in shifts:
        for x, w in enumerate(parity):
            b = r * ((u + g * x) % (4 * P))
            rho, t = complete(A, b)
            acc = groups.setdefault((A, rho, D // (2 * r)), {})
            key = (A * t + b) * t % D
            acc[key] = acc.get(key, 0) - sign * w
    out = [(CycloNumber.from_int_dict(D, acc), q) for q, acc in groups.items()]
    return P, series.den, [(R, q) for R, q in out if R.c]


def seifert_hat_over_2g(d: SeifertData, ctx: RootContext) -> CycloNumber:
    """hat / (2G) = hat conj(G) / (2 G conj(G)), exact, from the groups of
    `_hat_groups`.  The group whose quadratic sum is G itself (A = -s,
    rho = 0, N = 2Pr) gives R G conj(G) = 2Pr gcd(s, P) R; the others are
    summed and multiplied by conj(G) once.  At H = 1 every k = 1 term falls in
    that group, as b is a multiple of 2s and so of L = gcd(2A, D) (so lam = 1:
    one completion per shift), and the others hold the two k = r terms of
    each shift, over the multiples of r; at H > 1 the k = 1 terms have
    A = -sH and are among the others too.
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
    (tau divides by xi - 1), at least one exceptional fiber, at H > 1 the
    reciprocity form's integer framings, all q_j = +-1, and gcd(s, p_j) = 1;
    for W also gcd(s, H) = 1 and H odd."""
    inv = invariants(d)
    if inv.e == 0:
        raise ValueError("closed form needs a rational homology sphere (e != 0)")
    if ctx.r == 1:
        raise ValueError("closed form needs r > 1: it divides by xi - 1")
    if not d.fibers:
        raise ValueError("the reciprocity form needs at least one exceptional "
                         "fiber; a bare framed unknot is a lens space, use lens:p")
    if inv.H != 1:
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


def _signature_counts(d: SeifertData) -> tuple[int, int]:
    """(b+, b-) of the linking matrix of the integer surgery presentation of
    d (a central b-framed unknot linked once with each p_j q_j-framed fiber
    unknot), by Sylvester's law of inertia: the leaves give the signs of the
    framings, those of q_j = +-1, and the centre's Schur complement
    b - sum_j q_j/p_j = -e the sign of -e."""
    if any(q not in (1, -1) for _, q in d.fibers):
        raise ValueError("integer surgery needs q_j = +-1 (framing p_j/q_j)")
    e = invariants(d).e
    if e == 0:
        raise ValueError("surgery matrix is degenerate (not a QHS)")
    b_plus = sum(q == 1 for _, q in d.fibers) + (e < 0)
    return b_plus, d.m + 1 - b_plus


def _surgery_constant(d: SeifertData, ctx: RootContext) -> CycloNumber:
    """The n0-free constant C = delta^(1-2m) N of the surgery state sum for m
    >= 0 fibers, N = 1 / (F(U^+1)^b+ F(U^-1)^b-) for the signature of the
    surgery link, in closed form; at m = 0, C = delta N of the b-framed
    unknot.  With the Gauss sums Gamma_f = sum_{n mod 2r}
    zeta_4r^(f s n^2), F(U^f) delta xi^(3f/4) = -f Gamma_f, Gamma_1 Gamma_-1
    = 2r and Gamma_f^2 = 2r f i give, for k = b+ + b- = m + 1,
    sigma = b+ - b-, eps = -sgn(sigma) and h = |sigma| // 2,

        N = (-1)^b+ delta^k xi^(3 sigma/4) Gamma_-1^b+ Gamma_1^b- / (2r)^k
          = zeta_4r^(3 s sigma + eps r h + 2r b+) delta^k
            Gamma_eps^(sigma mod 2) / (2r)^ceil(k/2),

    so C has delta^(2-m), from `_delta_power`.  Gamma is formed at odd
    sigma only, and Gamma^2 != 2r eps i there is an ArithmeticError."""
    b_plus, b_minus = _signature_counts(d)
    r, s, D, m = ctx.r, ctx.s, 4 * ctx.r, d.m
    k, sigma = b_plus + b_minus, b_plus - b_minus
    eps = -1 if sigma > 0 else 1
    norm = root_power(D, 3 * s * sigma + eps * r * (abs(sigma) // 2) + 2 * r * b_plus) \
        * Fraction(1, (2 * r) ** ((k + 1) // 2)) * _delta_power(ctx, 2 - m)
    if sigma % 2:
        gamma = quadratic_sum(D, eps * s, count=2 * r)
        if gamma * gamma != root_power(D, eps * r) * (2 * r):
            raise ArithmeticError(f"Gamma_{eps} fails Gamma^2 = +-2r i at r={r}")
        norm = norm * gamma
    return norm.canonical()


def _theta_form(f: int, ctx: RootContext) -> tuple[int, int, int]:
    """(D, c, F1) with P'(w) = sum_{a mod F1} zeta_D^(c (w + 2ra)^2), where
    D = 4 F1 r, c = -sgn(f) s u, |f| = F1 F2 with F1 the largest divisor
    whose primes divide 2r, and u = 1/F2 mod D."""
    F1 = math.gcd(abs(f), (2 * ctx.r) ** abs(f).bit_length())
    D = 4 * F1 * ctx.r
    return D, (-ctx.s if f > 0 else ctx.s) * pow(abs(f) // F1, -1, D), F1


def _theta_roots(form: tuple[int, int, int], w: int, r: int) -> Counter:
    """The exponents of P'(w) at zeta_D for the form (D, c, F1) of `_theta_form`."""
    D, c, F1 = form
    return Counter(c * (w + 2 * r * a) ** 2 % D for a in range(F1))


def _fiber_theta(f: int, w: int, ctx: RootContext) -> CycloNumber:
    """P'(w) of `_theta_form`: at most F1 roots at conductor 4 F1 r."""
    form = _theta_form(f, ctx)
    return CycloNumber.from_int_dict(form[0], _theta_roots(form, w, ctx.r))


def _tau_qhs_reciprocity(d: SeifertData, ctx: RootContext) -> CycloNumber:
    """tau for a rational homology sphere presented with integer framings
    (all q_j = +-1), by applying Gauss sum reciprocity to each fiber sum.

    With framings f_j = p_j q_j the fiber factor of the surgery state sum is

        S_j(n0) = xi^(-f_j/4) delta^-2 [A_j(n0+1) - A_j(n0-1)],
        A_j(w)  = sum_{n mod 2r} xi^((f_j n^2 + 2 w n)/4),

    and reciprocity gives A_j(w) = E_j K_j xi^(-w^2/4f_j) B_j(w), with
    K_j = sum_{l mod s} xi~^(f_j l^2), E_j = e^(pi i sgn(f_j)/4) sqrt(2r/s|f_j|),
    B_j(w) = sum_{a mod |f_j|} e^(-2 pi i s a (r a + w)/f_j), and so

        xi^(-w^2/4f) B(w) = sum_{a mod |f|} zeta_{4|f|r}^(-sgn(f) s (w + 2ra)^2).

    With |f| = F1 F2 as in `_theta_form`, zeta_{4|f|r} = zeta_{4F1r}^u
    zeta_{F2}^v (u F2 + 4 v F1 r = 1): of a term, the first factor reads
    a mod F1 only and the second a mod F2 only, where w + 2ra runs over all
    residues.  So by CRT on a the sum is G_j P'_j(w), P'_j = `_fiber_theta`
    and G_j a Gauss sum mod F2 free of w, and A_j = c_j P'_j.  The scalar
    c_j = E_j K_j G_j is pinned exactly as A_j(w0) / P'_j(w0) at the first
    probe w0 with P'_j(w0) != 0, where G_j cancels: it is never formed.
    Each bracket P'_j(n0+1) - P'_j(n0-1) is at most 2 F1_j roots, so
    `_central_sum` runs at lcm_j 4 F1_j r; `_surgery_constant` prod_j
    xi^(-f_j/4) c_j multiplies it once.  `check_closed_form` gives its domain.
    """
    r, s = ctx.r, ctx.s
    fs, scalars = [p * q for p, q in d.fibers], {}
    for f in set(fs):
        w0, theta0 = next(((w, t) for w in range(abs(f) + 1)
                           if not (t := _fiber_theta(f, w, ctx)).is_zero()), (None, None))
        if w0 is None:
            raise ArithmeticError("no nonvanishing probe for the fiber sum")
        scalars[f] = (xi_power(ctx, Fraction(-f, 4)),
                      quadratic_sum(4 * r, s * f, 2 * s * w0, count=2 * r),
                      _inverse_by_conjugate(theta0))
    const = _surgery_constant(d, ctx)
    for f in fs:
        for y in scalars[f]:
            const = const * y
    forms = {f: _theta_form(f, ctx) for f in scalars}
    D = math.lcm(*(Df for Df, _, _ in forms.values()))

    def bracket(f, n0):     # P'(n0 + 1) - P'(n0 - 1) at zeta_D
        acc = _theta_roots(forms[f], n0 + 1, r)
        acc.subtract(_theta_roots(forms[f], n0 - 1, r))
        return {k * (D // forms[f][0]): v for k, v in acc.items() if v}

    return _central_sum(d, ctx, D, bracket) * const.canonical()


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
    # tau = xi^(1/2 - phi/4) / (xi - 1) * hat / (2G) = xi^(-phi/4) hat / (2G delta)
    return WrtValue(_over_delta(seifert_hat_over_2g(d, ctx) * xi_power(ctx, -inv.phi / 4),
                                ctx, 1))


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


def f_surgery_normalization(f: int, ctx: RootContext) -> CycloNumber:
    """F(U^f) = sum_{n=1}^{r-1} q^(f(n^2-1)/4) [n]^2 for the f-framed
    unknot, exact but not in canonical form: the fiber sum at n0 = 1 of
    `_fiber_colour_sum` is M_f(1) = delta^2 F(U^f), O(r) roots, divided by
    delta^2 at conductor 4r."""
    return _over_delta(_fiber_colour_sum(f, 1, ctx), ctx, 2)


def _fiber_colour_sum(f: int, n0: int, ctx: RootContext) -> CycloNumber:
    """M_f(n0) = delta^2 sum_{n=1}^{r-1} xi^(f(n^2-1)/4) [n][n0 n], the
    f-framed fiber's factor of the state sum at central colour n0, as the
    4(r - 1) signed roots

        sum_n sum_{e1,e2=+-1} e1 e2 zeta^(s f (n^2-1) + 2 s (e1 + e2 n0) n)

    at zeta = zeta_4r, since q^(1/2) = zeta^(2s)."""
    s, D = ctx.s, 4 * ctx.r
    shifts = [(2 * s * (e1 + e2 * n0), e1 * e2) for e1 in (1, -1) for e2 in (1, -1)]
    acc: dict[int, int] = {}
    get = acc.get
    for n in range(1, ctx.r):
        base = s * f * (n * n - 1)
        for a, sign in shifts:
            k = (base + a * n) % D
            acc[k] = get(k, 0) + sign
    return CycloNumber.from_int_dict(D, acc)


def wrt_brute_surgery(d: SeifertData, ctx: RootContext) -> WrtValue:
    """tau via the defining surgery state sum over colors {1..r-1}^(m+1).

    For each central colour n0 the sum factors over the fiber components,
    and 1/[n0] = delta xi^(n0/2) / (xi^n0 - 1) is the one surviving central
    weight.  With the fiber sums M_f of `_fiber_colour_sum`,

        tau = delta^(1-2m) N sum_{n0=1}^{r-1} xi^(b(n0^2-1)/4 + n0/2)
              (xi^n0 - 1)^-1 prod_j M_{f_j}(n0),

    N the normalization: `_central_sum` times C = `_surgery_constant`, in
    O(m r^2) roots plus O(m r) products at D = 4r, not r^(m+1) terms.
    """
    if d.m == 0:
        raise ValueError("the Seifert link shape needs at least one fiber; "
                         "use the framed-unknot route for lens spaces")
    total = _central_sum(d, ctx, 4 * ctx.r, lambda f, n0: _fiber_colour_sum(f, n0, ctx).c)
    return WrtValue(total * _surgery_constant(d, ctx))


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
    """tau of L(p,1) by p-framed unknot surgery, F(U^p) / F(U^sign(p)): the
    star link with no fibers, whose `_surgery_constant` is C = delta /
    F(U^sign(p)) (b+ = [p > 0]), so tau = F(U^p) C / delta."""
    if p == 0:
        raise ValueError("p = 0 is not a rational homology sphere")
    if ctx.r == 1:
        raise ValueError("the lens oracle needs r > 1: it divides by delta")
    const = _surgery_constant(SeifertData(p, ()), ctx)
    return WrtValue(_over_delta(f_surgery_normalization(p, ctx) * const, ctx, 1))
