"""Quadratic Gauss sums: brute force against the closed form by r mod 4, and
the degenerate gcd reduction.
"""

import math

from qmwrt.gauss_sums import gauss_brute, gauss_closed

print("== G(s, r) = sum_n e^(2 pi i s n^2 / r): closed form by r mod 4 ==")
for (s, r) in [(1, 5), (1, 3), (1, 2), (1, 4), (2, 7), (3, 8)]:
    brute = gauss_brute(s, r).eval_complex()
    closed = gauss_closed(s, r)
    print(f"G({s},{r}) = {brute:.6f}; tags: jacobi {closed.jacobi}, "
          f"phase {closed.phase}, sqrt({closed.sqrt_radicand}), "
          f"multiplier {closed.multiplier}")

print()
print("== degenerate gcd: G(s, r) = g G(s/g, r/g) ==")
for (s, r) in [(6, 9), (10, 15)]:
    print(f"G({s},{r}) = {gauss_brute(s, r).eval_complex():.6f} "
          f"(= {math.gcd(s, r)} * G({s // math.gcd(s, r)},{r // math.gcd(s, r)}))")

