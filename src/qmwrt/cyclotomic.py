"""Exact arithmetic in cyclotomic fields Q(zeta_D).

A CycloNumber is a rational linear combination of the roots of unity
e^(2 pi i k / D), stored sparsely by exponent k mod D as integer numerators
over one common denominator.  In this "group algebra" picture a product of
roots is an index addition, which matches how the big structured sums
downstream are indexed.  Products run on Python integers, by a schoolbook
loop for sparse operands and by Kronecker substitution (one big-integer
multiply) for dense ones.  There is no general field division: a value
divides only by a scalar, and the invariants clear their denominators
(Gauss sums, quantum integers) by conjugation.

The stored representation is not unique; `canonical()` gives the unique
one, and equality, zero tests and integrality all read it.  It
reduces coordinate-wise over the prime-power factorization D = prod p^e,
using Q(zeta_D) = tensor of the Q(zeta_{p^e}) and the relation
1 + x^t + x^(2t) + ... + x^((p-1)t) = 0 with t = p^(e-1) in each factor,
in time linear in the support size.  The coordinates live on an integral
basis of Z[zeta_D] whose elements are themselves roots zeta_D^k, so the
canonical form is a CycloNumber of at most phi(D) terms, and a number is
in Z[zeta_D] exactly when its canonical denominator is 1.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from fractions import Fraction
from functools import lru_cache

from .number_theory import RootContext, _factorize

__all__ = [
    "CycloNumber",
    "quadratic_sum",
    "root_power",
    "xi_power",
    "xi_tilde_power",
]


@lru_cache(maxsize=None)
def _tensor_layout(d: int):
    """Reduction tables for the prime-power tensor decomposition of Q(zeta_d).

    One pair (pe, table) per prime power pe = p^e exactly dividing d.  With
    t = p^(e-1), the local integral basis of Z[zeta_pe] is zeta_pe^j for
    j // t < p - 1, and table[k] = (sign, exponents) writes zeta_pe^k on it.
    A local index j is stored as the exponent j * e_pe mod d, e_pe the CRT
    idempotent (1 mod pe, 0 mod d/pe): so the tensor basis element with
    local indices (j_pe) is zeta_d^k with k = j_pe mod every pe.
    """
    factors = []
    for p, e in _factorize(d).items():
        pe, t = p ** e, p ** (e - 1)
        idem = d // pe * pow(d // pe, -1, pe) % d
        table = []
        for k in range(pe):
            block, j = divmod(k, t)
            if block < p - 1:
                table.append((1, (k * idem % d,)))
            else:
                table.append((-1, tuple((a * t + j) * idem % d
                                        for a in range(p - 1))))
        factors.append((pe, tuple(table)))
    return tuple(factors)


def _exact(q):
    """q as an int or Fraction.  Floats and complex numbers are refused: one
    would silently turn into a wrong "exact" value."""
    if isinstance(q, (int, Fraction)):
        return q
    if isinstance(q, numbers.Rational):
        return Fraction(q)
    raise TypeError(f"exact cyclotomic arithmetic needs an int or Fraction, "
                    f"not {type(q).__name__}")


def _raw(D: int, c: dict[int, int], den: int) -> "CycloNumber":
    """A CycloNumber from numerators and a denominator already coprime."""
    out = object.__new__(CycloNumber)
    out.D, out.c, out.den = D, c, den
    return out


def _cancel(c: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Numerators and denominator divided by their common factor; c is
    divided in place, so that a large product never exists twice."""
    if not c:
        return c, 1
    g = den
    for v in c.values():
        if g == 1:
            return c, den
        g = math.gcd(g, v)
    if g != 1:
        for k in c:
            c[k] //= g
    return c, den // g


def _number(D: int, c: dict[int, int], den: int = 1) -> "CycloNumber":
    """The number sum_k (c[k]/den) zeta_D^k, from nonzero numerators keyed by
    distinct residues mod D, taking ownership of c."""
    return _raw(D, *_cancel(c, den))


# Cost model of a product, in units of one schoolbook term pair (~0.5 us of
# CPython 3.11 on a 2-vCPU x86-64 VM): Kronecker substitution pays about half
# a pair per slot to unpack and one per stored term to pack, plus one
# Karatsuba multiply, measured there at 36 ms (72,000 pairs) for two
# 40,000-byte integers and growing as (bytes)^log2(3).
_KARATSUBA_PAIRS = 72_000
_KARATSUBA_BYTES = 40_000


def _product(ca: dict[int, int], cb: dict[int, int], D: int) -> dict[int, int]:
    """Numerators of the product of two nonzero numerator dicts in
    Z[x]/(x^D - 1): an integer schoolbook loop for sparse operands,
    Kronecker substitution for dense ones, whichever the cost model says is
    cheaper.  Both give the same dict (zero coefficients dropped)."""
    if len(ca) > len(cb):
        ca, cb = cb, ca
    na, nb = len(ca), len(cb)
    if na == 1:
        ((k1, v1),) = ca.items()
        return {(k + k1) % D: v * v1 for k, v in cb.items()}
    # every coefficient of the unfolded product is below 2^bits in size
    bits = (max(map(abs, ca.values())).bit_length()
            + max(map(abs, cb.values())).bit_length() + na.bit_length())
    width = (bits + 9) // 8
    kronecker = (D // 2 + na + nb + _KARATSUBA_PAIRS
                 * (D * width / _KARATSUBA_BYTES) ** math.log2(3))
    if na * nb > kronecker:
        return _kronecker(ca, cb, D, width)
    acc: dict[int, int] = {}
    get = acc.get
    items = list(cb.items())
    for k1, v1 in ca.items():
        for k2, v2 in items:
            k = k1 + k2
            if k >= D:
                k -= D
            acc[k] = get(k, 0) + v1 * v2
    for k in [k for k, v in acc.items() if not v]:
        del acc[k]
    return acc


def _kronecker(ca: dict[int, int], cb: dict[int, int], D: int,
               width: int) -> dict[int, int]:
    """Product by Kronecker substitution x -> X = 2^(8 width).

    Each operand is packed byte-wise into one big integer (positive and
    negative parts separately, then subtracted), the two are multiplied
    once, and the product is folded mod x^D - 1 on the integer itself.  An
    offset of X/4 per slot keeps every slot of the unfolded product in
    [0, X/2) and every folded slot in [0, X), so slots are read back without
    borrows; `width` must leave |coefficient| < X/4 before folding."""
    order = sys.byteorder
    size = D * width

    def pack(c: dict[int, int]) -> int:
        pos, neg = bytearray(size), bytearray(size)
        for k, v in c.items():
            i = k * width
            if v > 0:
                pos[i:i + width] = v.to_bytes(width, order)
            else:
                neg[i:i + width] = (-v).to_bytes(width, order)
        return int.from_bytes(pos, order) - int.from_bytes(neg, order)

    quarter = 1 << (8 * width - 2)
    prod = pack(ca) * pack(cb) \
        + int.from_bytes(quarter.to_bytes(width, order) * (2 * D - 1), order)
    shift = 8 * size
    raw = ((prod & ((1 << shift) - 1)) + (prod >> shift)).to_bytes(size, order)
    half = 2 * quarter
    from_bytes = int.from_bytes
    out: dict[int, int] = {}
    for k, i in enumerate(range(0, size - width, width)):
        v = from_bytes(raw[i:i + width], order) - half
        if v:
            out[k] = v
    v = from_bytes(raw[size - width:], order) - quarter   # slot D-1: no fold
    if v:
        out[D - 1] = v
    return out


class CycloNumber:
    """An exact element of Q(zeta_D), with D the conductor.

    The value is sum_k (c[k] / den) zeta_D^k: nonzero integer numerators c
    keyed by exponent mod D, over one positive common denominator den that
    shares no factor with all of them.  Arithmetic runs on Python integers;
    the coefficient of zeta_D^k is Fraction(c[k], den).
    """

    __slots__ = ("D", "c", "den")

    def __init__(self, D: int, coeffs: dict | None = None):
        if D < 1:
            raise ValueError("conductor must be >= 1")
        items = [(k % D, _exact(v)) for k, v in (coeffs or {}).items()]
        den = 1
        for _, v in items:
            if isinstance(v, Fraction):
                den = math.lcm(den, v.denominator)
        c: dict[int, int] = {}
        for k, v in items:
            n = v * den if isinstance(v, int) \
                else v.numerator * (den // v.denominator)
            if n:
                n += c.get(k, 0)
                if n:
                    c[k] = n
                else:
                    del c[k]
        self.D = D
        self.c, self.den = _cancel(c, den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(D: int = 1) -> "CycloNumber":
        return _raw(D, {}, 1)

    @staticmethod
    def one() -> "CycloNumber":
        return _raw(1, {0: 1}, 1)

    @staticmethod
    def from_rational(q) -> "CycloNumber":
        return CycloNumber(1, {0: q})

    @staticmethod
    def from_turns(t) -> "CycloNumber":
        """e^(2 pi i t) for rational t (a 'turn' is a full revolution)."""
        t = Fraction(_exact(t))
        return _raw(t.denominator, {t.numerator % t.denominator: 1}, 1)

    @staticmethod
    def from_int_dict(D: int, coeffs: dict[int, int], den: int = 1) -> "CycloNumber":
        """Fast constructor from integer accumulator dicts, divided by den.

        Keys must already be distinct residues mod D (accumulators built
        with `% D` keys satisfy this by construction)."""
        return _number(D, {k: v for k, v in coeffs.items() if v}, den)

    # -- conductor plumbing -------------------------------------------

    def embed(self, M: int) -> "CycloNumber":
        """Rewrite in conductor M (a multiple of D)."""
        if M == self.D:
            return self
        if M % self.D:
            raise ValueError(f"{M} is not a multiple of conductor {self.D}")
        f = M // self.D
        return _raw(M, {k * f: v for k, v in self.c.items()}, self.den)

    def reduce_conductor(self) -> "CycloNumber":
        """Shrink the conductor by the gcd of all exponents (and D)."""
        g = self.D
        for k in self.c:
            g = math.gcd(g, k)
            if g == 1:
                return self
        if g == 1 or g == 0:
            return self
        return _raw(self.D // g, {k // g: v for k, v in self.c.items()},
                    self.den)

    @staticmethod
    def _common(a: "CycloNumber", b: "CycloNumber"):
        m = math.lcm(a.D, b.D)
        return a.embed(m), b.embed(m)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "CycloNumber":
        if not isinstance(other, CycloNumber):
            other = CycloNumber.from_rational(other)
        a, b = CycloNumber._common(self, other)
        if not b.c:
            return a
        if not a.c:
            return b
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        c = dict(a.c) if fa == 1 else {k: v * fa for k, v in a.c.items()}
        for k, v in b.c.items():
            w = c.get(k, 0) + v * fb
            if w:
                c[k] = w
            else:
                del c[k]
        return _number(a.D, c, den)

    __radd__ = __add__

    def __neg__(self) -> "CycloNumber":
        return _raw(self.D, {k: -v for k, v in self.c.items()}, self.den)

    def __sub__(self, other) -> "CycloNumber":
        return self + (-other if isinstance(other, CycloNumber)
                       else -_exact(other))

    def __rsub__(self, other) -> "CycloNumber":
        return (-self) + other

    def __mul__(self, other) -> "CycloNumber":
        if not isinstance(other, CycloNumber):
            q = _exact(other)
            if not q:
                return CycloNumber.zero(self.D)
            num, den = (q, 1) if isinstance(q, int) else (q.numerator, q.denominator)
            return _number(self.D, {k: v * num for k, v in self.c.items()},
                           self.den * den)
        a, b = CycloNumber._common(self, other)
        if not a.c or not b.c:
            return CycloNumber.zero(a.D)
        return _number(a.D, _product(a.c, b.c, a.D), a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CycloNumber":
        return self * (1 / Fraction(_exact(other)))

    def conjugate(self) -> "CycloNumber":
        """The complex conjugate: zeta_D^k -> zeta_D^-k."""
        D = self.D
        return _raw(D, {-k % D: v for k, v in self.c.items()}, self.den)

    def __pow__(self, n: int) -> "CycloNumber":
        if len(self.c) == 1:
            ((k, v),) = self.c.items()
            return CycloNumber(self.D, {k * n: Fraction(v, self.den) ** n})
        if n < 0:
            raise ArithmeticError("negative power of a sum of roots; "
                                  "clear the denominator by conjugation")
        result = CycloNumber.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- reduction, equality, integrality -----------------------------

    def canonical(self) -> "CycloNumber":
        """The unique representative of this value on the integral basis of
        Z[zeta_D] (see `_tensor_layout`), in lowest terms: at most phi(D)
        terms, on exponents whose residue mod each p^e dividing D lies below
        (p - 1) p^(e-1).  Equal values at one conductor give equal (c, den)."""
        D = self.D
        factors = _tensor_layout(D)
        coords: dict[int, int] = {}
        get = coords.get
        for k, v in self.c.items():
            # expand k across the prime power factors
            terms = [(1, 0)]
            for pe, table in factors:
                sign, exps = table[k % pe]
                terms = [(sg * sign, base + e) for sg, base in terms for e in exps]
            for sg, base in terms:
                base %= D
                coords[base] = get(base, 0) + (v if sg > 0 else -v)
        return _number(D, {k: v for k, v in coords.items() if v}, self.den)

    def is_zero(self) -> bool:
        return not self.c or not self.canonical().c

    def as_rational(self) -> Fraction:
        y = self.canonical()
        if y.c.keys() <= {0}:
            return Fraction(y.c.get(0, 0), y.den)
        raise ValueError("value is not rational")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # mutable-ish container; equality is field equality

    def is_integral(self) -> bool:
        """True iff the value lies in Z[zeta_D]: its canonical form has
        integer coefficients."""
        return self.den == 1 or self.canonical().den == 1

    # -- numerics --------------------------------------------------------

    def eval_complex(self) -> complex:
        """The value; math.fsum makes it independent of the order of c."""
        tau = 2 * math.pi / self.D
        den = self.den
        # int / int rounds correctly, as float(Fraction(v, den)) does
        terms = [v / den * cmath.exp(1j * tau * k) for k, v in self.c.items()]
        return complex(math.fsum([z.real for z in terms]),
                       math.fsum([z.imag for z in terms]))

    def __repr__(self):
        if not self.c:
            return "CycloNumber(0)"
        items = sorted(self.c.items())
        body = " + ".join(f"({Fraction(v, self.den)})*z{self.D}^{k}"
                          for k, v in items[:6])
        if len(items) > 6:
            body += f" + ... [{len(items)} terms]"
        return f"CycloNumber<{self.D}>({body})"


def root_power(D: int, k: int) -> CycloNumber:
    """The root of unity e^(2 pi i k / D)."""
    if D < 1:
        raise ValueError("conductor must be >= 1")
    return CycloNumber(D, {k % D: 1})


def quadratic_sum(N: int, a: int, b: int = 0, count: int | None = None) -> CycloNumber:
    """sum_{0 <= n < count} zeta_N^(a n^2 + b n), count = N by default,
    exact in conductor N."""
    acc: dict[int, int] = {}
    get = acc.get
    for n in range(N if count is None else count):
        k = (a * n + b) * n % N
        acc[k] = get(k, 0) + 1
    return CycloNumber.from_int_dict(N, acc)


# -- root-context helpers -------------------------------------------------

def xi_power(ctx: RootContext, x) -> CycloNumber:
    """xi^x = e^(2 pi i s x / r) for rational x, exact."""
    return CycloNumber.from_turns(Fraction(x) * ctx.s / ctx.r)


def xi_tilde_power(ctx: RootContext, x) -> CycloNumber:
    """xi~^x = e^(-2 pi i r x / s) for rational x, exact."""
    return CycloNumber.from_turns(-Fraction(x) * ctx.r / ctx.s)
