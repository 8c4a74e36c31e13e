"""False theta functions: the periodic bases, their exact limits at
rationals, the S-matrix of the triple basis, and the quantum modular
S-transform defect.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from qmwrt.false_theta import (
    eichler_limit,
    l_value,
    phi_basis,
    psi_basis,
    s_matrix_phi,
    s_transform_residual,
)
from qmwrt.number_theory import RootContext
from qmwrt.seifert import rotation_triples

p = (2, 3, 7)
P = math.prod(p)

print("== the triple-basis periodic tables ==")
for a in rotation_triples(p):
    f = phi_basis(p, a)
    print(f"a = {a}: support {{l: f(l)}} = { {l: f(l) for l in f.support()} }")

print()
print("== elementary tables and linear combinations ==")
f = psi_basis(6, 3)
print(f"psi_6^(3): {dict((l, f(l)) for l in f.support())} (period {f.period})")

print()
print("== exact Eichler limits at rationals ==")
ctx = RootContext(7, 1)
f111 = phi_basis(p, (1, 1, 1))
for alpha in (Fraction(1, 7), Fraction(0), Fraction(-7, 5)):
    v = eichler_limit(f111, P, alpha)
    print(f"limit at {alpha}: conductor {v.D}, value {v.eval_complex():.8f}")
print(f"limit at 0 equals L(0, f) = {l_value(f111, P, 0)}")

print()
print("== S transformation data ==")
m = s_matrix_phi(p)
print(f"S matrix ({m.shape[0]}x{m.shape[1]}):")
print(np.array_str(m, precision=5))

print()
print("== self-duality at tau = i ==")
labels = rotation_triples(p)
cutoff = 2 * P + int(12 * math.sqrt(P))
# theta_a(tau) = (1/2) sum_l l f_a(l) e^(2 pi i tau l^2/4P) at tau = i, cut off
# where its Gaussian terms fall below double precision
theta = []
for a in labels:
    f, total = phi_basis(p, a), 0j
    for l in range(cutoff + 1):
        if f(l):
            total += l * f(l) * cmath.exp(2j * math.pi * 1j * l * l / (4 * P))
    theta.append(0.5 * total)
for i, a in enumerate(labels):
    image = sum(m[i, j] * theta[j] for j in range(len(labels)))
    print(f"theta_{a}(i) = {theta[i]:.10f}; S-image differs by "
          f"{abs(theta[i] - image):.2e}")

print()
print("== the quantum modular S-transform defect decays like (s/r)^(K+1) ==")
r_list = list(range(101, 902, 200))
for K in (1, 2, 3):
    res = [abs(s_transform_residual(p, (1, 1, 1), RootContext(r, 1), K))
           for r in r_list]
    slope = np.polyfit(np.log(r_list), np.log(res), 1)[0]
    print(f"K = {K}: residuals {['%.2e' % v for v in res]}, "
          f"fitted slope {slope:.2f} (expected {-(K + 1)})")
