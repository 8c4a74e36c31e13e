"""The full quantum modularity story on worked examples: the false-theta
identity, coefficient integrality, abelian decompositions, the geometric
connection relation, and the asymptotic expansion around saddles.
"""

from qmwrt.harness import (
    brieskorn_identity,
    decomposition_report,
    geometric_relation,
    integrality_check,
    qhs_decomposition,
    residual_scan,
    saddle_expansion,
)
from qmwrt.number_theory import RootContext, normalize_s
from qmwrt.seifert import parse, rotation_triples


def show(rep):
    for c in rep.checks:
        mark = "ok " if c.passed else "FAIL"
        print(f"  [{mark}] {c.name}" + (f": {c.detail}" if c.detail else ""))


print("== 1. the invariant is a false theta limit (exactly) ==")
for sel, r, s in [("brieskorn:2,3,7", 13, 1), ("brieskorn:2,3,5", 11, 5),
                  ("brieskorn:2,5,7", 9, 5)]:
    m = parse(sel)
    ctx = RootContext(r, normalize_s(s, r))
    print(f"Sigma{m.params} at r={r}, s={ctx.s}:")
    show(brieskorn_identity(m, ctx))

print()
print("== 2. modular-transform coefficients are integral ==")
ctx = RootContext(11, 5)
for a in rotation_triples((2, 3, 7)):
    ok, coords = integrality_check((2, 3, 7), a, ctx)
    print(f"  rotation {a}: integral = {ok}; "
          f"first coordinates {[str(v) for _, v in coords[:4]]}")

print()
print("== 3. abelian decompositions reconstruct the invariant ==")
for sel in ("lens:3", "ex:2-3-3", "ex:neg-2-3-9", "ex:family:2"):
    ctx = RootContext(7, normalize_s(13, 7))
    print(f"{sel}:")
    show(decomposition_report(sel, ctx))
    for label, lift, sector in qhs_decomposition(sel, ctx):
        print(f"    sector {label}: CS lift {lift}, "
              f"W^({label}) = {sector.eval_complex():.6f}")

print()
print("== 4. the geometric connection recovers the invariant ==")
for sel, r, s in [("brieskorn:2,3,7", 11, 5), ("brieskorn:2,3,5", 11, 5),
                  ("ex:2-3-3", 7, 5), ("ex:neg-2-3-9", 11, 5),
                  ("ex:family:2", 7, 13), ("lens:5", 7, 13)]:
    print(f"{sel} at r={r}, s={s}:")
    show(geometric_relation(sel, RootContext(r, s)))

print()
print("== 5. expansion around saddles ==")
ctx = RootContext(101, 1)
terms = saddle_expansion("brieskorn:2,3,7", ctx, 2)
for t in terms:
    print(f"  {t.connection}: CS lift {t.cs_lift}, growth delta {t.delta}, "
          f"term = {t.numeric(ctx):.6f}")
rows, slope = residual_scan("brieskorn:2,3,7", 1, list(range(101, 702, 100)), 2)
print(f"  residual after the order-2 truncation: "
      f"{['%.2e' % v for _, v in rows]}")
print(f"  fitted log-log slope {slope:.2f} (expected -3)")
