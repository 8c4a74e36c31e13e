"""Exact scalar number theory: Jacobi symbols, Dedekind sums, Bernoulli
numbers, residue normalization and root contexts.

Everything in this module is pure integer / Fraction arithmetic with no
floating point, so downstream identity checks can be zero tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "RootContext",
    "jacobi",
    "normalize_s",
    "dedekind_sum",
    "bernoulli_number",
]


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, extended multiplicatively.

    Returns 0 when gcd(a, n) > 1.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol requires odd positive n, got n={n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def normalize_s(s: int, r: int) -> int:
    """Smallest positive s' with s' = s (mod r), s' = 1 (mod 4), gcd(s', 4r) = 1.

    r must be odd and coprime to s.  The two congruences have a unique
    solution mod 4r; that canonical representative makes e^(pi*i*s'/2r) a
    primitive 4r-th root of unity with a fixed quarter-root convention.
    """
    if r <= 0 or r % 2 == 0:
        raise ValueError(f"modulus r must be odd and positive, got {r}")
    if math.gcd(s, r) != 1:
        raise ValueError(f"s={s} is not coprime to r={r}")
    if r == 1:
        return 1
    t = ((s - 1) * pow(4, -1, r)) % r
    out = (1 + 4 * t) % (4 * r)
    return out if out else 4 * r


def dedekind_sum(q: int, p: int) -> Fraction:
    """Dedekind sum s(q, p) = sum_k ((k/p))((kq/p)) via the reciprocity recursion.

    O(log p) like the Euclidean algorithm; exact for large p where the direct
    sum is infeasible.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if math.gcd(q, p) != 1:
        raise ValueError(f"gcd({q}, {p}) != 1")
    sign = 1
    q %= p
    total = Fraction(0)
    while p > 1:
        # s(q, p) = -1/4 + (p/q + q/p + 1/pq)/12 - s(p mod q, q)
        total += sign * (Fraction(-1, 4)
                         + (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)) / 12)
        sign = -sign
        p, q = q, p % q
    return total


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n in the convention B_1 = -1/2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class _Value:
    """Base of the immutable value types: equality and hash over _key (every
    field in __slots__ unless a class narrows it), a repr naming each field,
    and AttributeError on assigning or deleting a field.  A subclass's
    __init__ validates its arguments, then stores them with _set."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    _key = _fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, *_value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"


class RootContext(_Value):
    """A root-of-unity context (r, s).

    xi = e^(2 pi i s / r) is a primitive r-th root of unity and
    xi^(1/4) = e^(pi i s / 2r) the fixed primitive 4r-th quarter root.
    The companion root on the modular-transform side is
    xi~ = e^(-2 pi i r / s).

    Requires r odd, s = 1 (mod 4) and gcd(s, 4r) = 1, which pins the
    quarter-root convention used by every exact computation downstream.
    """

    __slots__ = ("r", "s")

    def __init__(self, r: int, s: int = 1):
        if r < 1 or r % 2 == 0:
            raise ValueError(f"r must be odd and >= 1, got {r}")
        if s % 4 != 1:
            raise ValueError(f"s must be 1 mod 4, got {s}")
        if math.gcd(s, 4 * r) != 1:
            raise ValueError(f"gcd(s, 4r) must be 1, got s={s}, r={r}")
        self._set(r, s)

    def tilde(self) -> "RootContext":
        """Context whose root equals xi~ = e^(-2 pi i r / s) of this one."""
        return RootContext(self.s, normalize_s(-self.r, self.s))
