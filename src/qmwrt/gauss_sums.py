"""Quadratic Gauss sums: brute-force evaluation, closed forms, square
completion with gcd degeneration, Deloup-Turaev reciprocity, the higher-rank
closed form, and the unknot normalization constants F(U^{+-1}).

Closed forms come back as symbolic tags (unit phase, Jacobi symbol, power of
sqrt r) so that downstream prefactor cancellations never touch floating
point; a numeric value is always attached for cross checks.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import CycloNumber, quadratic_sum, root_power
from .intmatrix import (
    cokernel_representatives,
    det_int,
    inverse_rational,
    signature,
)
from .number_theory import RootContext, _Value, jacobi
from .wrt import f_surgery_normalization

__all__ = [
    "gauss_brute",
    "GaussClosedForm",
    "gauss_closed",
    "gauss_linear",
    "FUnknot",
    "f_unknot",
    "QuadraticFormZ",
    "reciprocity",
    "HighRankGaussSum",
    "gauss_high_rank",
]


def gauss_brute(s: int, r: int) -> CycloNumber:
    """G(s, r) = sum over n mod r of e^(2 pi i s n^2 / r), exact in conductor r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return quadratic_sum(r, s)


class GaussClosedForm(NamedTuple):
    """Symbolic value multiplier * jacobi * phase * sqrt(sqrt_radicand).

    phase is one of "1", "i", "1+i", "1-i", "0"; the degenerate gcd g > 1
    appears as the integer multiplier g.
    """

    multiplier: int
    jacobi: int
    phase: str
    sqrt_radicand: int

    _PHASES = {"1": 1 + 0j, "i": 1j, "1+i": 1 + 1j, "1-i": 1 - 1j, "0": 0j}

    @property
    def numeric(self) -> complex:
        return (self.multiplier * self.jacobi * self._PHASES[self.phase]
                * math.sqrt(self.sqrt_radicand))


def gauss_closed(s: int, r: int) -> GaussClosedForm:
    """Closed form of G(s, r) by the residue of r mod 4.

    For gcd(s, r) = g > 1 the reduction G(s, r) = g G(s/g, r/g) is applied
    first.  G(0, r) = r is returned as multiplier r.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if s % r == 0:
        return GaussClosedForm(r, 1, "1", 1)
    g = math.gcd(s, r)
    s1, r1 = s // g, r // g
    s1 %= r1
    if r1 % 4 == 0:
        # s1 odd here since gcd(s1, r1) = 1
        ph = "1+i" if s1 % 4 == 1 else "1-i"
        return GaussClosedForm(g, jacobi(r1, s1), ph, r1)
    if r1 % 4 == 1:
        return GaussClosedForm(g, jacobi(s1, r1), "1", r1)
    if r1 % 4 == 2:
        return GaussClosedForm(g, 1, "0", 1)
    return GaussClosedForm(g, jacobi(s1, r1), "i", r1)


def gauss_linear(P: int, A, s: int, r: int) -> CycloNumber:
    """Sum over n mod r of xi^(P n^2 + 2 A n) with xi = e^(2 pi i s / r), r odd.

    A may be a half-integer (2A must be an integer).  Evaluated by square
    completion: xi1^(-A1^2 / 4 P1) G(s P1, r1) after pulling out
    g = gcd(P, r), with the delta_{g | 2A} vanishing rule.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError("r must be odd and positive")
    A2 = Fraction(A) * 2
    if A2.denominator != 1:
        raise ValueError("2A must be an integer")
    A2 = int(A2)
    g = math.gcd(P, r)
    if A2 % g:
        return CycloNumber.zero(r)
    r1, P1, A1 = r // g, P // g, A2 // g
    if r1 == 1:
        return CycloNumber.from_rational(g).embed(r)
    inv4P1 = pow(4 * P1 % r1, -1, r1)
    shift = (-A1 * A1 * inv4P1) % r1
    xi1_shift = root_power(r1, (s * shift) % r1)
    return (g * xi1_shift * gauss_brute(s * P1, r1)).embed(math.lcm(r, r1))


class FUnknot(NamedTuple):
    """F(U^sign) both ways: the exact defining sum (conductor 4r) and the
    closed form -sign (r/s) ((1 +- i^s)/sqrt 2) sqrt(2r) q^(-+3/4) / (q^(1/2)-q^(-1/2))."""

    sign: int
    exact: CycloNumber
    jacobi: int
    closed_numeric: complex


def f_unknot(sign: int, ctx: RootContext) -> FUnknot:
    """Normalization constant F(U^{+-1}) for the surgery formula."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    r, s = ctx.r, ctx.s
    i_pow_s = 1j if s % 4 == 1 else -1j
    q_quarter = cmath.exp(2j * math.pi * s / (4 * r))
    q_half = q_quarter ** 2
    closed = (-sign * jacobi(r, s) * (1 + sign * i_pow_s) / math.sqrt(2)
              * math.sqrt(2 * r) * q_quarter ** (-3 * sign)
              / (q_half - 1 / q_half))
    return FUnknot(sign, f_surgery_normalization(sign, ctx), jacobi(r, s), closed)


class QuadraticFormZ(_Value):
    """Integer symmetric bilinear form with a rational offset vector, both
    stored as tuples."""

    __slots__ = ("B", "psi")

    @property
    def N(self) -> int:
        return len(self.B)

    def __init__(self, B: tuple[tuple[int, ...], ...], psi: tuple[Fraction, ...]):
        B, psi = tuple(map(tuple, B)), tuple(psi)
        n = len(B)
        if any(len(row) != n for row in B):
            raise ValueError("B must be square")
        if any(B[i][j] != B[j][i] for i in range(n) for j in range(n)):
            raise ValueError("B must be symmetric")
        if len(psi) != n:
            raise ValueError("psi must have length N")
        self._set(B, psi)


def _inner_B(B, x, y):
    """<x, B y>, an integer when B, x and y are."""
    return sum(xi * bij * yj for xi, row in zip(x, B) for bij, yj in zip(row, y))


def reciprocity(form: QuadraticFormZ, r: int) -> tuple[complex, complex]:
    """Both sides of the Gauss sum reciprocity formula

        sum_{x in Z^N/rZ^N} exp(pi i <x,Bx>/r + 2 pi i <x,psi>)
          = e^(pi i sigma/4) r^(N/2) / |det B|^(1/2)
            * sum_{y in Z^N/BZ^N} exp(-pi i r <y+psi, B^-1 (y+psi)>)

    after validating its divisibility hypotheses.  Returned numerically;
    the caller asserts closeness.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    B = [list(row) for row in form.B]
    n = form.N
    d = det_int(B)
    if d == 0:
        raise ValueError("B must be nondegenerate")
    for i in range(n):
        if (r * B[i][i]) % 2:
            raise ValueError(f"hypothesis r<x,Bx>/2 in Z fails at diagonal entry {i}")
    for p in form.psi:
        if (Fraction(r) * p).denominator != 1:
            raise ValueError("hypothesis r<x,psi> in Z fails")

    def cis_turns(t: Fraction) -> complex:
        # exact reduction mod 1 keeps float phases small
        t -= math.floor(t)
        return cmath.exp(2j * math.pi * float(t))

    lhs = sum(cis_turns(Fraction(_inner_B(B, x, x), 2 * r)
                        + sum(xi * p for xi, p in zip(x, form.psi)))
              for x in itertools.product(range(r), repeat=n))
    binv = inverse_rational(B)
    rhs_sum = 0j
    for y in cokernel_representatives(B):
        w = [yi + p for yi, p in zip(y, form.psi)]
        rhs_sum += cis_turns(-r * _inner_B(binv, w, w) / 2)
    sigma = signature(B)
    rhs = cmath.exp(1j * math.pi * sigma / 4) * r ** (n / 2) / math.sqrt(abs(d)) * rhs_sum
    return lhs, rhs


class HighRankGaussSum(NamedTuple):
    """Rank-N quadratic Gauss sum sum_x e^(2 pi i <x,Bx>/r): closed vs brute."""

    jacobi: int
    i_exponent: int      # power of i in the closed form (N if r = 3 mod 4)
    half_power: int      # value carries r^(half_power / 2)
    closed_numeric: complex
    brute: CycloNumber


def gauss_high_rank(B: list[list[int]], r: int) -> HighRankGaussSum:
    """Closed form (det B / r) i^(N [r=3 mod 4]) r^(N/2) against the brute sum,
    for odd r coprime to det B."""
    if r < 1 or r % 2 == 0:
        raise ValueError("r must be odd and positive")
    form = QuadraticFormZ(B, (Fraction(0),) * len(B))
    n, B = form.N, form.B
    d = det_int(B)
    if d == 0:
        raise ValueError("det B must be nonzero")
    if math.gcd(d, r) != 1:
        raise ValueError("det B must be coprime to r")
    acc = Counter(_inner_B(B, x, x) % r
                  for x in itertools.product(range(r), repeat=n))
    brute = CycloNumber.from_int_dict(r, acc)

    jac = jacobi(d, r)
    i_exp = n if r % 4 == 3 else 0
    closed = jac * (1j ** i_exp) * r ** (n / 2)
    return HighRankGaussSum(jac, i_exp, n, closed, brute)
