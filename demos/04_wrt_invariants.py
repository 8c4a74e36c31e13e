"""WRT invariants at roots of unity: the exact closed form against the
brute-force colored-Jones surgery sum, lens spaces, and normalization.
"""

from fractions import Fraction

from qmwrt.number_theory import RootContext, normalize_s
from qmwrt.seifert import EXAMPLE_233, brieskorn, invariants, parse_manifold
from qmwrt.cyclotomic import xi_power
from qmwrt.wrt import (
    WrtValue,
    tau_seifert_closed,
    w_normalized,
    wrt_brute_surgery,
    wrt_lens,
    wrt_lens_brute,
)


def wrt_seifert_closed(d, ctx):
    """The prefactored invariant xi^Delta (xi - 1) tau, Delta = phi/4 - 1/2,
    exactly; for integer homology spheres it equals hat_sum / (2 G)."""
    tau = tau_seifert_closed(d, ctx).exact
    delta = invariants(d).phi / 4 - Fraction(1, 2)
    return WrtValue(xi_power(ctx, delta) * (xi_power(ctx, 1) - 1) * tau)


print("== tau of the Poincare sphere, two independent ways ==")
pres = parse_manifold("seifert:1;2/1,3/1,5/1")   # integer-framed presentation
for r in (3, 5, 7):
    ctx = RootContext(r, 1)
    brute = wrt_brute_surgery(pres, ctx)
    closed = tau_seifert_closed(pres, ctx)
    same = (brute.exact - closed.exact).is_zero()
    print(f"r = {r}: surgery sum {brute.numeric:.8f}, closed form "
          f"{closed.numeric:.8f}, exactly equal: {same}")

print()
print("== the prefactored closed form xi^(phi/4 - 1/2)(xi - 1) tau ==")
d = brieskorn((2, 3, 7))
inv = invariants(d)
ctx = RootContext(29, 5)
v = wrt_seifert_closed(d, ctx)
print(f"Sigma(2,3,7) at r=29, s=5: exponent Delta = "
      f"{inv.phi / 4 - Fraction(1, 2)}, value {v.numeric:.10f}")
print(f"its canonical form lives in conductor {v.exact.D} "
      f"with {len(v.exact.c)} terms")

print()
print("== a rational homology sphere at a general root ==")
ctx = RootContext(11, normalize_s(3, 11))
tau = tau_seifert_closed(EXAMPLE_233, ctx)
w = w_normalized(tau, invariants(EXAMPLE_233).H, ctx)
print(f"S2(1;2,3,3) at r=11, s={ctx.s}: tau = {tau.numeric:.8f}")
print(f"W = sqrt(H) (H/s) (xi - 1) tau = {w.numeric:.8f}")

print()
print("== lens spaces: closed form vs p-framed unknot surgery ==")
for p in (3, 5, 7):
    ctx = RootContext(9, 13)
    w_closed, sectors = wrt_lens(p, ctx)
    w_brute = w_normalized(wrt_lens_brute(p, ctx), p, ctx)
    same = (w_closed.exact - w_brute.exact).is_zero()
    print(f"L({p},1): W = {w_closed.numeric:.8f}, exactly equal: {same}; "
          f"{len(sectors)} abelian sectors")
    total = sectors[0]
    for sec in sectors[1:]:
        total = total + sec
    check = (total - p * xi_power(ctx, Fraction(5 - p, 4))).is_zero()
    print(f"  sector sum = p xi^((5-p)/4): {check}")
