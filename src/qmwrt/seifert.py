"""Seifert fibered spaces over S^2: data, derived invariants, geometry
classification, Brieskorn construction, linking matrices and flat
SL(2,C) connections with exact rational Chern-Simons values.

Conventions: a manifold S^2(b; p_1/q_1, ..., p_m/q_m) carries the Euler
number e = -b + sum q_j/p_j and orbifold Euler characteristic
chi = 2 - sum (1 - 1/p_j).  Derived quantities (homology order H, fiber
product P, framing correction phi) are computed in the b = 0 normalization,
which makes phi presentation independent:

    phi = 3 sign(e) + 12 sum_j s(q_j, p_j) - e,

with s(.,.) the Dedekind sum.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .number_theory import _Value, dedekind_sum

__all__ = [
    "Geometry",
    "SeifertData",
    "SeifertInvariants",
    "FlatConnection",
    "brieskorn",
    "invariants",
    "classify_geometry",
    "linking_matrix",
    "rotation_order",
    "rotation_triples",
    "nonabelian_connections",
    "geometric_connection",
    "abelian_connections",
    "Manifold",
    "parse",
    "parse_manifold",
    "EXAMPLE_233",
    "EXAMPLE_NEG239",
    "example_family",
]


class Geometry(enum.Enum):
    S3 = "S3"
    R3 = "R3"
    H3 = "H3"
    S2xR = "S2xR"
    H2xR = "H2xR"
    SL2R = "SL2R~"
    NIL3 = "Nil3"
    SOL3 = "Sol3"


class SeifertData(_Value):
    """Base-S^2 Seifert data: integer b and exceptional fibers (p_j, q_j),
    stored as a tuple of pairs."""

    __slots__ = ("b", "fibers")

    def __init__(self, b: int, fibers: tuple[tuple[int, int], ...]):
        fibers = tuple(map(tuple, fibers))
        for p, q in fibers:
            if p < 2:
                raise ValueError(f"fiber order p must be >= 2, got {p}")
            if math.gcd(p, q) != 1:
                raise ValueError(f"fiber ({p}, {q}) is not coprime")
        self._set(b, fibers)

    @property
    def m(self) -> int:
        return len(self.fibers)

    def normalized_b0(self) -> "SeifertData":
        """Equivalent data with b = 0 (b absorbed into the first fiber)."""
        if self.b == 0 or not self.fibers:
            if self.b != 0:
                raise ValueError("cannot absorb b without exceptional fibers")
            return self
        (p1, q1), *rest = self.fibers
        return SeifertData(0, ((p1, q1 - self.b * p1), *rest))

    def reversed_orientation(self) -> "SeifertData":
        return SeifertData(-self.b, tuple((p, -q) for p, q in self.fibers))

    def __str__(self) -> str:
        inner = ", ".join(f"{p}/{q}" for p, q in self.fibers)
        return f"S2({self.b}; {inner})"


class SeifertInvariants(NamedTuple):
    e: Fraction
    chi: Fraction
    P: int
    H: int          # order of H_1; 0 means infinite
    phi: Fraction   # framing correction exponent (b = 0 normalization)


@lru_cache(maxsize=None)
def invariants(d: SeifertData) -> SeifertInvariants:
    e = -Fraction(d.b) + sum((Fraction(q, p) for p, q in d.fibers), Fraction(0))
    chi = 2 - sum((1 - Fraction(1, p) for p, q in d.fibers), Fraction(0))
    P = math.prod(p for p, _ in d.fibers) if d.fibers else 1
    He = e * P
    H = abs(int(He)) if He.denominator == 1 else 0
    if He.denominator != 1:
        raise ValueError(f"{d}: e*P = {He} is not an integer")
    sigma = (e > 0) - (e < 0)
    phi = (3 * sigma
           + 12 * sum((dedekind_sum(q, p) for p, q in d.fibers), Fraction(0))
           - e)
    return SeifertInvariants(e, chi, P, H, phi)


def classify_geometry(e: Fraction, chi: Fraction) -> Geometry:
    """Thurston geometry of a Seifert fibration from (e, chi)."""
    if e == 0:
        if chi > 0:
            return Geometry.S2xR
        if chi == 0:
            return Geometry.R3
        return Geometry.H2xR
    if chi > 0:
        return Geometry.S3
    if chi == 0:
        return Geometry.NIL3
    return Geometry.SL2R


def linking_matrix(d: SeifertData) -> list[list[int]]:
    """Bordered (m+1)x(m+1) presentation matrix of H_1: |det| = |H_1|."""
    m = d.m
    out = [[0] * (m + 1) for _ in range(m + 1)]
    out[0][0] = d.b
    for j, (p, q) in enumerate(d.fibers, start=1):
        out[0][j] = 1
        out[j][0] = q
        out[j][j] = p
    return out


def brieskorn(p: list[int] | tuple[int, ...]) -> SeifertData:
    """The Seifert integer homology sphere with fiber orders p, oriented e > 0.

    Chooses b = 0 and the least-absolute-value q_j with q_j (P/p_j) = 1
    mod p_j, then shifts q_1 by a multiple of p_1 so sum q_j P/p_j = 1
    exactly, giving e = 1/P and H = 1.
    """
    p = tuple(p)
    if any(x < 2 for x in p):
        raise ValueError("all fiber orders must be >= 2")
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if math.gcd(p[i], p[j]) != 1:
                raise ValueError(f"fiber orders {p[i]}, {p[j]} are not coprime")
    P = math.prod(p)
    qs = []
    for pj in p:
        q = pow(P // pj, -1, pj)
        if q > pj // 2:
            q -= pj
        qs.append(q)
    total = sum(q * (P // pj) for q, pj in zip(qs, p))
    assert (total - 1) % P == 0
    qs[0] -= (total - 1) // P * p[0]
    return SeifertData(0, tuple(zip(p, qs)))


# -- flat connections -------------------------------------------------------


class FlatConnection(NamedTuple):
    """A connected component of the SL(2,C) flat moduli space.

    kind is "trivial", "abelian" (with an integer label) or "nonabelian"
    (with a rotation-number triple).  cs_lift is a chosen rational lift of
    the Chern-Simons value; cs is its reduction mod 1.
    """

    kind: str
    cs_lift: Fraction
    label: int | None = None
    rotation: tuple[int, int, int] | None = None

    @property
    def cs(self) -> Fraction:
        return self.cs_lift % 1


def rotation_order(p: tuple[int, int, int]) -> tuple[int, int, int]:
    """Relabel so that an even fiber order, if present, sits first; rotation
    numbers are always indexed against this order."""
    evens = [x for x in p if x % 2 == 0]
    if len(evens) > 1:
        raise ValueError("at most one fiber order may be even")
    if evens and p[0] % 2:
        rest = [x for x in p if x != evens[0]]
        return (evens[0], rest[0], rest[1])
    return p


def rotation_triples(p: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Canonical enumeration of rotation numbers: after relabeling so p1 may
    be even, all (a1, a2, a3) with 1 <= a1 < p1, 1 <= a_j <= (p_j - 1)/2."""
    p1, p2, p3 = rotation_order(p)
    return [(a1, a2, a3)
            for a1 in range(1, p1)
            for a2 in range(1, (p2 - 1) // 2 + 1)
            for a3 in range(1, (p3 - 1) // 2 + 1)]


def cs_nonabelian(p: tuple[int, int, int], a: tuple[int, int, int]) -> Fraction:
    """Natural Chern-Simons lift -(P/4)(1 + sum a_j/p_j)^2 of the component
    with rotation numbers a."""
    P = math.prod(p)
    t = 1 + sum(Fraction(aj, pj) for aj, pj in zip(a, p))
    return -Fraction(P, 4) * t * t


def nonabelian_connections(p: tuple[int, int, int]) -> list[FlatConnection]:
    """All nonabelian flat connection components of the Brieskorn sphere
    with fiber orders p, with exact Chern-Simons lifts."""
    pc = rotation_order(tuple(p))
    out = [FlatConnection("nonabelian", cs_nonabelian(pc, a), rotation=a)
           for a in rotation_triples(pc)]
    expected = (pc[0] - 1) * (pc[1] - 1) * (pc[2] - 1) // 4
    assert len(out) == expected
    return out


def geometric_connection(d: SeifertData) -> FlatConnection:
    """The geometric flat connection, with Chern-Simons lift -chi^2/4e.

    Defined for spherical and SL(2,R)~ geometry.  For Brieskorn spheres it
    is the component with holonomy 1/p_j around each fiber, rotation number
    (1,1,1) in rotation order; ArithmeticError unless its natural lift (the
    negative of it for e < 0, the other orientation) and -chi^2/4e differ by
    an integer."""
    inv = invariants(d)
    geo = classify_geometry(inv.e, inv.chi)
    if geo not in (Geometry.S3, Geometry.SL2R):
        raise ValueError(f"{d}: geometric connection defined only for spherical "
                         f"or SL(2,R)~ geometry, got {geo.value}")
    lift = -inv.chi ** 2 / (4 * inv.e)
    if d.m != 3 or inv.H != 1:
        return FlatConnection("geometric", lift)
    pc = rotation_order(tuple(p for p, _ in d.fibers))
    natural = cs_nonabelian(pc, (1, 1, 1))
    if inv.e < 0:
        natural = -natural
    if (natural - lift).denominator != 1:
        raise ArithmeticError(f"{d}: CS lift {lift} is not that of rotation "
                              f"number (1, 1, 1) mod 1")
    return FlatConnection("nonabelian", lift, rotation=(1, 1, 1))


def abelian_connections(selector: str | Manifold) -> list[FlatConnection]:
    """Abelian flat connection components for the supported example families.

    Labels a live in Tor H_1 / {±1}; Chern-Simons lifts follow the linking
    pairing of each family: lens(p) has -a^2/p, the two Z/3 examples have
    +a^2/3, and the family S^2(0; p, -(2p+1), -(2p+1)) has (p+1) a^2 / (2p+1).
    """
    m = parse(selector)
    if m.kind == "lens":
        p = m.params[0]
        return [FlatConnection("abelian", -Fraction(a * a, p), label=a)
                for a in range((p - 1) // 2 + 1)]
    if m.kind in ("2-3-3", "neg-2-3-9"):
        return [FlatConnection("abelian", Fraction(a * a, 3), label=a)
                for a in (0, 1)]
    if m.kind == "family":
        p = m.params[0]
        H = 2 * p + 1
        return [FlatConnection("abelian", Fraction((p + 1) * a * a, H), label=a)
                for a in range(p + 1)]
    raise ValueError(f"no abelian enumeration for selector {m.selector!r}")


# -- example manifolds and the selector grammar ----------------------------

EXAMPLE_233 = SeifertData(1, ((2, 1), (3, 1), (3, 1)))
EXAMPLE_NEG239 = SeifertData(-1, ((2, -1), (3, -1), (9, -1)))


def example_family(p: int) -> SeifertData:
    """S^2(0; p, -(2p+1), -(2p+1)) for p >= 2: a mod-2 rational homology
    sphere with H_1 = Z/(2p+1) and SL(2,R)~ geometry."""
    if p < 2:
        raise ValueError("family parameter must be >= 2")
    return SeifertData(0, ((p, 1), (2 * p + 1, -1), (2 * p + 1, -1)))


class Manifold(_Value):
    """A parsed manifold selector: its family kind ("brieskorn", "lens",
    "seifert", "2-3-3", "neg-2-3-9" or "family"), the family's integer
    parameters, and its Seifert data (None for lens spaces, which have a
    dedicated closed form).  selector keeps the text as given; equality and
    hash ignore it."""

    __slots__ = ("kind", "params", "data", "selector")

    def __init__(self, kind: str, params: tuple[int, ...], data: SeifertData | None,
                 selector: str = ""):
        self._set(kind, params, data, selector)

    def _key(self) -> tuple:
        return self.kind, self.params, self.data


_EXAMPLE_KINDS = ("2-3-3", "neg-2-3-9", "family")


def parse(selector: str | Manifold) -> Manifold:
    """Parse the manifold selector grammar used by the command line
    (case-insensitive; an already parsed Manifold is returned as is):

      brieskorn:p1,p2,...   Brieskorn sphere
      lens:p                lens space L(p,1), p odd and positive
      seifert:b;p1/q1,...   explicit Seifert data (a bare p means p/1)
      ex:2-3-3              S^2(1; 2, 3, 3)
      ex:neg-2-3-9          S^2(-1; -2, -3, -9)
      ex:family:p           S^2(0; p, -(2p+1), -(2p+1)), p >= 2

    The ex: prefix of the three examples is optional.
    """
    if isinstance(selector, Manifold):
        return selector
    text = selector.strip()
    low = text.lower()
    kind, colon, body = low.removeprefix("ex:").partition(":")
    if low.startswith("ex:") and kind not in _EXAMPLE_KINDS:
        raise ValueError(f"unrecognized manifold selector: {selector!r}")
    try:
        if kind == "2-3-3" and not colon:
            return Manifold(kind, (), EXAMPLE_233, text)
        if kind == "neg-2-3-9" and not colon:
            return Manifold(kind, (), EXAMPLE_NEG239, text)
        if kind == "family":
            p = int(body)
            return Manifold(kind, (p,), example_family(p), text)
        if kind == "brieskorn":
            ps = tuple(int(x) for x in body.split(","))
            return Manifold(kind, ps, brieskorn(ps), text)
        if kind == "lens":
            p = int(body)
            if p < 1 or p % 2 == 0:
                raise ValueError("lens parameter p must be odd and positive "
                                 "(mod-2 homology sphere)")
            return Manifold(kind, (p,), None, text)
        if kind == "seifert":
            b, fibers = body.split(";", 1)
            pairs = [part.split("/") if "/" in part else (part, 1)
                     for part in fibers.split(",") if part.strip()]
            data = SeifertData(int(b), tuple((int(p), int(q)) for p, q in pairs))
            return Manifold(kind, (), data, text)
    except ValueError as exc:
        raise ValueError(f"bad manifold selector {selector!r}: {exc}") from None
    raise ValueError(f"unrecognized manifold selector: {selector!r}")


def parse_manifold(selector: str) -> SeifertData:
    """The Seifert data of a selector (see parse); lens spaces have none."""
    data = parse(selector).data
    if data is None:
        raise ValueError("lens spaces have a dedicated closed form; "
                         "use the lens operations directly")
    return data
