"""Periodic function bases, exact Eichler-integral limits at rationals, the
S-matrix of the triple basis, L-values, and the S-transform residual used
for asymptotic verification.

Two bases of odd 2P-periodic integer functions appear:

- the triple basis attached to fiber orders (p1, p2, p3): supported at
  l = P (1 + sum eps_j a_j / p_j) mod 2P with value -eps1 eps2 eps3;
- the elementary basis psi_{2P}^{(a)}: +1 at l = a, -1 at l = -a mod 2P.

The associated theta series sum_l l f(l) q^(l^2/4P) are weight 3/2 vector
valued modular forms; their Eichler integrals sum_l f(l) q^(l^2/4P) have
exact limits at rationals a/c given by a finite weighted sum, computed here
as exact cyclotomic numbers of conductor 4Pc.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .cyclotomic import CycloNumber
from .number_theory import RootContext, _Value, bernoulli_number
from .seifert import rotation_order, rotation_triples

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DENOMINATOR_BOUND",
    "PeriodicFunction",
    "phi_basis",
    "psi_basis",
    "psi_combo",
    "eichler_limit",
    "eichler_limit_complex",
    "s_matrix_phi",
    "l_value",
    "trivial_series",
    "s_transform_residual",
]


class PeriodicFunction(_Value):
    """Odd (hence mean-zero) integer-valued periodic function given by its
    table, stored as a tuple.

    period is the full period (2P for the bases used here).
    """

    __slots__ = ("period", "values")

    def __init__(self, period: int, values: tuple[int, ...]):
        v, n = tuple(values), period
        if len(v) != n:
            raise ValueError("table length must equal the period")
        if any(v[:1]) or v[1:] != tuple(map(operator.neg, v[:0:-1])):
            l = next(l for l in range(n) if v[l] != -v[(-l) % n])
            raise ValueError(f"table is not odd at l={l}")
        self._set(n, v)

    def __call__(self, l: int) -> int:
        return self.values[l % self.period]

    def __add__(self, other: "PeriodicFunction") -> "PeriodicFunction":
        if self.period != other.period:
            raise ValueError("period mismatch")
        return PeriodicFunction(self.period,
                                tuple(a + b for a, b in zip(self.values, other.values)))

    def __rmul__(self, n: int) -> "PeriodicFunction":
        return PeriodicFunction(self.period, tuple(n * v for v in self.values))

    def support(self) -> list[int]:
        return [l for l, v in enumerate(self.values) if v]


def phi_basis(p: tuple[int, int, int], a: tuple[int, int, int]) -> PeriodicFunction:
    """2P-periodic table with value -eps1 eps2 eps3 at
    l = P(1 + sum_j eps_j a_j / p_j) mod 2P, over the eight sign choices."""
    if any(not (0 < aj < pj) for aj, pj in zip(a, p)):
        raise ValueError(f"rotation numbers {a} out of range for {p}")
    P = math.prod(p)
    table = [0] * (2 * P)
    for e1 in (1, -1):
        for e2 in (1, -1):
            for e3 in (1, -1):
                shift = P + sum(e * P // pj * aj
                                for e, aj, pj in zip((e1, e2, e3), a, p))
                table[shift % (2 * P)] -= e1 * e2 * e3
    return PeriodicFunction(2 * P, tuple(table))


def psi_basis(P: int, a: int) -> PeriodicFunction:
    """The elementary odd 2P-periodic table: +1 at l = a, -1 at l = -a mod 2P."""
    if not (1 <= a < P):
        raise ValueError(f"label a must satisfy 1 <= a < P, got a={a}, P={P}")
    table = [0] * (2 * P)
    table[a] = 1
    table[2 * P - a] = -1
    return PeriodicFunction(2 * P, tuple(table))


def psi_combo(P: int, terms: dict[int, int]) -> PeriodicFunction:
    """Integer linear combination sum_a n_a psi^(a) of elementary tables."""
    out = PeriodicFunction(2 * P, (0,) * (2 * P))
    for a, n in terms.items():
        out = out + n * psi_basis(P, a)
    return out


# Eichler limits take denominators c < 2^31, below which the int64 table
# index of eichler_limit_complex (products below c^2) cannot overflow.
DENOMINATOR_BOUND = 2 ** 31


def _lowest_terms(alpha: Fraction) -> tuple[int, int]:
    """(a, c) of alpha = a/c in lowest terms; ValueError for c at or past
    DENOMINATOR_BOUND."""
    alpha = Fraction(alpha)
    a, c = alpha.numerator, alpha.denominator
    if c >= DENOMINATOR_BOUND:
        raise ValueError(f"Eichler limit at denominator {c} is past the int64 "
                         f"bound c < 2^31")
    return a, c


def eichler_limit(f: PeriodicFunction, P: int, alpha: Fraction) -> CycloNumber:
    """Exact limit of the Eichler integral sum_{l>=0} f(l) q^(l^2/4P) at the
    rational point alpha = a/c (lowest terms):

        (1/2) sum_{l=0}^{2Pc} f(l) e^(2 pi i alpha l^2 / 4P) (1 - l/(Pc)),

    as a cyclotomic number of conductor 4Pc: _walk(f, P, a, c) over 2Pc."""
    a, c = _lowest_terms(alpha)
    return CycloNumber.from_int_dict(4 * P * c, _walk(f, P, a, c), 2 * P * c)


def _walk(f: PeriodicFunction, P: int, a: int, c: int) -> dict[int, int]:
    """{k: w} with 2Pc F_f(a/c) = sum_k w e(k/4Pc).  The terms l and 2Pc - l
    are equal (f odd, (2Pc - l)^2 = l^2 mod 4Pc), so the walk keeps 0 < l < Pc,
    l = j mod 2P for j in f's support: k = a l^2 mod 4Pc, w = 2 f(j) (Pc - l)."""
    D, Pc = 4 * P * c, P * c
    acc: dict[int, int] = {}
    for j in f.support():
        w = 2 * f(j)
        for l in range(j, Pc, 2 * P):
            k = a * l * l % D
            acc[k] = acc.get(k, 0) + w * (Pc - l)
    return acc


def _buffer(buffers: dict, make, name: str, size: int, dtype) -> np.ndarray:
    """buffers[name] sliced to size, remade by make(size, dtype=dtype) when
    it is missing or shorter."""
    buf = buffers.get(name)
    if buf is None or buf.size < size:
        buf = buffers[name] = make(size, dtype=dtype)
    return buf[:size]


def _class_index(u, aP: int, arho: int, c: int, x, q) -> np.ndarray:
    """(aP u^2 + arho u) mod c into x as ((aP u + arho) mod c) u mod c, every
    int64 below c^2; each mod is x - (x // c) c, with the quotient in q."""
    import numpy as np
    np.add(np.multiply(u, aP % c, out=x), arho % c, out=x)
    np.subtract(x, np.multiply(np.floor_divide(x, c, out=q), c, out=q), out=x)
    np.multiply(x, u, out=x)
    return np.subtract(x, np.multiply(np.floor_divide(x, c, out=q), c, out=q), out=x)


def _folded_rows(rows: list, P: int, c: int, h) -> complex:
    """sum_j f(j) phase_j S_j over the rows (j, t, f(j) phase_j) of class
    rho = 0, where S_j = sum_{u<c} H(u) (Pc - j - 2P ((u - t) mod c)) and
    h[u] = H(u) = e(aPu^2/c) for u <= c2/2.  H has period c2 = c/g',
    g' = gcd(P, c), and is even, so S_j reads h against the weight summed
    over the g' periods and folded at c2 - u: with t1 = t mod c2 it is
    Pc + 2Pg't1 - 2Pc [t1 > 0] at u = 0, 2Pg' (2t1 - c2 n(u)) for
    0 < u < c2/2, n(u) = [u < t1] + [u > c2 - t1], half that at u = c2/2,
    less j g' sum_{u<c2} H(u).  Between the breakpoints t1 and c2 - t1 the
    weight is constant, so the rows read one sum of h per segment."""
    g1 = math.gcd(P, c)
    c2 = c // g1
    end = (c2 + 1) // 2                      # 0 < u < c2/2 is [1, end)
    cuts = []
    for j, t, phase in rows:
        t1 = t % c2
        # n(u) is 1 on [1, b) and n_b from b on, the midpoint u = c2/2 too
        b, n_b = (max(t1, 1), 0) if 2 * t1 <= c2 else (c2 - t1 + 1, 2)
        cuts.append((j, t1, b, n_b, phase))
    stops = sorted({1, end, *(cut[2] for cut in cuts)})
    segments = [(s0, h[s0:s1].sum()) for s0, s1 in zip(stops, stops[1:])]
    mid = h[end] if c2 % 2 == 0 else 0j
    whole = h[0] + 2 * sum(s for _, s in segments) + mid
    total = 0j
    for j, t1, b, n_b, phase in cuts:
        low, high = (2 * P * g1 * (2 * t1 - c2 * n) for n in (1, n_b))
        total += phase * (sum((low if s0 < b else high) * s for s0, s in segments)
                          + (P * c + 2 * P * g1 * t1 - 2 * P * c * (t1 > 0)) * h[0]
                          + high // 2 * mid - j * g1 * whole)
    return total


def _segment_rows(rows: list, P: int, c: int, u, h, w) -> complex:
    """sum_j f(j) phase_j S_j over the rows (j, t, f(j) phase_j) of one
    class rho != 0, S_j = sum_{u<c} h[u] (Pc - j - 2P ((u - t) mod c)).  The
    weight is linear in u between the rows' t, so [0, c) is cut there, and
    a segment [s0, s1) with centre m gives A = sum h and B = sum (u - m) h,
    B formed in h itself (not read again) with u - m in w: S_j is
    sum (Pc - j + 2P (t - m) - 2Pc [s0 < t]) A - 2P B over the segments."""
    import numpy as np
    stops = sorted({0, c, *(t for _, t, _ in rows)})
    segments = []
    for s0, s1 in zip(stops, stops[1:]):
        m, seg = (s0 + s1 - 1) / 2, h[s0:s1]
        flat = seg.sum()
        np.multiply(seg, np.subtract(u[s0:s1], m, out=w[s0:s1]), out=seg)
        segments.append((s0, m, flat, seg.sum()))
    total = 0j
    for j, t, phase in rows:
        total += phase * sum((P * c - j + 2 * P * (t - m) - 2 * P * c * (s0 < t)) * flat
                             - 2 * P * tilt for s0, m, flat, tilt in segments)
    return total


def eichler_limit_complex(f: PeriodicFunction, P: int, alpha: Fraction,
                          buffers: dict | None = None) -> complex:
    """Float value of eichler_limit, by completing the square.

    The rows l = j + 2Pm, m < c, of j and 2P - j are equal, so the limit is
    (1/Pc) sum_{0<j<P} f(j) sum_m (Pc - l) e(a l^2/4Pc).  With g = gcd(2P, c),
    rho = j mod g and t = ((j - rho)/g) (2P/g)^-1 mod c/g, j - 2Pt = rho
    mod c, so with u = m + t the phase is e(a (j - 2Pt)^2/4Pc) H_rho(u),
    H_rho(u) = e(a (P u^2 + rho u)/c): each row reads the table of its
    class rho against the weight Pc - j - 2P ((u - t) mod c), by segment
    sums (_folded_rows for rho = 0, the only class when c is prime to 2P,
    on half a period of its table; _segment_rows for the others).

    Every length-c array (the table of e(k/c), u, the class index and its
    quotients, the class table) is kept in buffers, if given, for later
    calls with the same dict and no larger c to reuse: a scan passes one
    dict to all its calls, largest c first, and so does not fault in fresh
    pages on each.  One dict serves one thread at a time."""
    a, c = _lowest_terms(alpha)
    buffers = {} if buffers is None else buffers
    import numpy as np
    g, D, n = math.gcd(2 * P, c), 4 * P * c, math.isqrt(c // 2) + 1
    # e(k/c) for k <= c/2 as e(n q/c) e(i/c), 2n exps in place of c/2; the
    # upper half is the conjugate of the lower
    unit = _buffer(buffers, np.empty, "unit", max(c, n * n), np.complex128)
    np.multiply(np.exp(2j * np.pi / c * n * np.arange(n))[:, None],
                np.exp(2j * np.pi / c * np.arange(n)), out=unit[:n * n].reshape(n, n))
    unit = unit[:c]
    np.conjugate(unit[(c + 1) // 2 - 1:0:-1], out=unit[c // 2 + 1:])
    u = _buffer(buffers, np.arange, "u", c, np.int64)
    idx = _buffer(buffers, np.empty, "idx", c, np.int64)
    q = _buffer(buffers, np.empty, "q", c, np.int64)
    h = _buffer(buffers, np.empty, "h", c, np.complex128)
    inv = pow(2 * P // g, -1, c // g)
    classes: dict[int, list] = {}
    for j in range(1, P):
        if f(j):
            rho = j % g
            t = (j - rho) // g * inv % (c // g)
            k = a * (j - 2 * P * t) ** 2 % D   # read in (-1/2, 1/2]: half the angle error
            phase = f(j) * cmath.exp(2j * math.pi * ((k - D if 2 * k > D else k) / D))
            classes.setdefault(rho, []).append((j, t, phase))
    total = 0j
    for rho, rows in classes.items():
        size = c // math.gcd(P, c) // 2 + 1 if rho == 0 else c
        _class_index(u[:size], a * P, a * rho, c, idx[:size], q[:size])
        unit.take(idx[:size], out=h[:size], mode="clip")
        total += (_folded_rows(rows, P, c, h) if rho == 0
                  # q is free once the index is formed: it holds u - m
                  else _segment_rows(rows, P, c, u, h, q.view(np.float64)))
    return complex(total) / (P * c)


@lru_cache(maxsize=None)
def s_matrix_phi(p: tuple[int, int, int]) -> np.ndarray:
    """S-transformation matrix of the triple basis, indexed by the canonical
    rotation-number enumeration (entries are computed against the same
    relabeled fiber order the rotation numbers use), read-only:

        S^a_b = -(8/sqrt(2P)) (-1)^E prod_j sin(pi P a_j b_j / p_j^2),
        E = P(1 + sum (a_j+b_j)/p_j) + P sum_{j != k} a_j b_k/(p_j p_k),

    summed on integers, as p_j and p_j p_k divide P."""
    import numpy as np

    p = rotation_order(tuple(p))
    labels, P = rotation_triples(p), math.prod(p)
    out = np.zeros((len(labels), len(labels)))
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            e = P + sum((x + y) * P // q for x, y, q in zip(a, b, p)) + sum(
                a[m] * b[n] * P // (p[m] * p[n])
                for m in range(3) for n in range(3) if m != n)
            sign = -1 if e % 2 else 1
            sines = (math.sin(math.pi * P * x * y / q / q) for x, y, q in zip(a, b, p))
            out[i, j] = -8 / math.sqrt(2 * P) * sign * math.prod(sines)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def l_value(f: PeriodicFunction, P: int, k: int) -> Fraction:
    """L(-2k, f) = -(2P)^(2k)/(2k+1) sum_{l=1}^{2P} f(l) B_{2k+1}(l/2P),
    the analytically continued L-value, as an exact rational: with
    n = 2k+1, d (2P)^n times the sum is the integer sum_j d C(n, j) B_j
    (2P)^j sum_l f(l) l^(n-j), d the common denominator of the C(n, j) B_j."""
    if k < 0:
        raise ValueError("k must be >= 0")
    n, N = 2 * k + 1, 2 * P
    coef = [math.comb(n, j) * bernoulli_number(j) for j in range(n + 1)]
    d = math.lcm(*(x.denominator for x in coef))
    num = sum(x.numerator * d // x.denominator * N ** j
              * sum(f(l) * l ** (n - j) for l in f.support())
              for j, x in enumerate(coef))
    return Fraction(-num, d * n * N)


def _series(coefficients: tuple[Fraction, ...], P: int, ctx: RootContext) -> complex:
    """sum_k c_k/k! (pi i s/(2Pr))^k over the given c_k = L(-2k, f)."""
    x = 1j * math.pi * ctx.s / (2 * P * ctx.r)
    total, term = 0j, 1 + 0j
    for k, c in enumerate(coefficients):
        if k:
            term *= x / k
        total += complex(c) * term
    return total


def trivial_series(f: PeriodicFunction, P: int, K: int, ctx: RootContext) -> complex:
    """Value of the truncated series sum_{k<=K} L(-2k, f)/k! (pi i s/(2Pr))^k."""
    return _series(tuple(l_value(f, P, k) for k in range(K + 1)), P, ctx)


@lru_cache(maxsize=None)
def _s_transform_data(p: tuple, a: tuple, c: int, K: int) -> tuple:
    """(f_a, P, L(-2k, f_a) for k <= K, k, W) at p in rotation order, c = |s|:
    sum_b S^a_b F_b(x/c) = sum_k W_k e(x k/4Pc)/2Pc for x prime to c, with
    W_k = sum_b S^a_b w_b(k) (a float), w_b the exact terms of _walk(f_b, P, 1, c)."""
    import numpy as np
    P, labels, f = math.prod(p), rotation_triples(p), phi_basis(p, a)
    terms: dict[int, list[float]] = {}
    for b, sb in zip(labels, s_matrix_phi(p)[labels.index(a)]):
        for k, w in _walk(phi_basis(p, b), P, 1, c).items():
            terms.setdefault(k, []).append(float(sb) * w)
    series = tuple(l_value(f, P, k) for k in range(K + 1))
    return f, P, series, tuple(terms), np.array([math.fsum(v) for v in terms.values()])


def s_transform_residual(p: tuple[int, int, int], a: tuple[int, int, int],
                         ctx: RootContext, K: int, buffers=None) -> complex:
    """Defect of the quantum modular S-transformation at order K:

        F_a(s/r) + sqrt(r/(i s)) sum_b S^a_b F_b(-r/s) - [series through K],

    where F are the Eichler limits of the triple basis, labels, tables and
    S-row read in rotation_order(p).  Expected to decay like (s/r)^(K+1).
    Past the r-free _s_transform_data, an r costs one eichler_limit_complex
    (with buffers, as there) and a dot with e(-r k/4P|s|), -r k mod 4P|s|
    read in [-1/2, 1/2) turns on integers."""
    import numpy as np
    x, c = _lowest_terms(Fraction(-ctx.r, ctx.s))
    f, P, series, keys, w = _s_transform_data(rotation_order(tuple(p)), tuple(a), c, K)
    h = 2 * P * c
    xk = np.array([(x * k + h) % (2 * h) - h for k in keys])
    back = complex(np.dot(w, np.exp(1j * np.pi / h * xk))) / h
    direct = eichler_limit_complex(f, P, Fraction(ctx.s, ctx.r), buffers)
    return direct + cmath.sqrt(ctx.r / (1j * ctx.s)) * back - _series(series, P, ctx)

