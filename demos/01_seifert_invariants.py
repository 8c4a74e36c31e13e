"""Tour of Seifert fibered spaces: data, invariants, geometry, and the
flat SL(2,C) connections with their exact Chern-Simons values.
"""

from fractions import Fraction

from qmwrt.intmatrix import det_int
from qmwrt.seifert import (
    EXAMPLE_233,
    EXAMPLE_NEG239,
    abelian_connections,
    brieskorn,
    classify_geometry,
    example_family,
    geometric_connection,
    invariants,
    linking_matrix,
    nonabelian_connections,
)

print("== Brieskorn spheres ==")
for p in [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5)]:
    d = brieskorn(p)
    inv = invariants(d)
    geo = classify_geometry(inv.e, inv.chi)
    print(f"Sigma{p}: {d}")
    print(f"  e = {inv.e}, chi = {inv.chi}, P = {inv.P}, H = {inv.H}, "
          f"phi = {inv.phi}, geometry = {geo.value}")
    g = geometric_connection(d)
    print(f"  geometric connection: rotation {g.rotation}, CS lift {g.cs_lift}")
    conns = nonabelian_connections(p)
    print(f"  {len(conns)} nonabelian components: "
          + ", ".join(f"{c.rotation} -> CS = {c.cs}" for c in conns))

print()
print("== Rational homology sphere examples ==")
for name, d in [("S2(1;2,3,3)", EXAMPLE_233),
                ("S2(-1;-2,-3,-9)", EXAMPLE_NEG239),
                ("family p=2", example_family(2))]:
    inv = invariants(d)
    geo = classify_geometry(inv.e, inv.chi)
    print(f"{name}: e = {inv.e}, chi = {inv.chi}, phi = {inv.phi}, "
          f"H = {inv.H}, geometry = {geo.value}")
    print(f"  |det linking matrix| = {abs(det_int(linking_matrix(d)))}")

print()
print("== Abelian components via the linking pairing ==")
for sel in ("lens:7", "ex:2-3-3", "ex:family:2"):
    conns = abelian_connections(sel)
    print(f"{sel}: " + ", ".join(f"a={c.label}: CS lift {c.cs_lift}"
                                 for c in conns))

print()
print("== The framing exponent meets the geometric Chern-Simons value ==")
print("phi/4 - 1/2 - chi^2/(4e) is an integer on every Brieskorn sphere:")
for p in [(2, 3, 5), (2, 3, 7), (2, 3, 11), (3, 4, 5)]:
    inv = invariants(brieskorn(p))
    val = inv.phi / 4 - Fraction(1, 2) - inv.chi ** 2 / (4 * inv.e)
    print(f"  {p}: phi/4 - 1/2 = {inv.phi / 4 - Fraction(1, 2)}, "
          f"chi^2/4e = {inv.chi ** 2 / (4 * inv.e)}, difference = {val}")
