"""Quadratic Gauss sums G(s, r): the brute-force sum and its closed form by
the residue of r mod 4, with the gcd degeneration G(s, r) = g G(s/g, r/g).

The closed form comes back as symbolic tags (unit phase, Jacobi symbol,
power of sqrt r) so that downstream prefactor cancellations never touch
floating point; a numeric value is always attached for cross checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cyclotomic import CycloNumber, quadratic_sum
from .number_theory import jacobi

__all__ = ["gauss_brute", "GaussClosedForm", "gauss_closed"]


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
