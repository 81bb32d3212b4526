"""Continuous friezes: Hill equations, Liouville identity, curvature.

Shrinking the frieze diamonds turns the diamond rule into the PDE
F F_xy - F_x F_y = 1 with closure conditions F(x,x) = 0, F_y(x,x) = 1 and
antiperiodicity in the period.  Solutions come from parameterizations f of
the projective line through the unit-bracket lift Gamma, as
F(x,y) = [Gamma(x), Gamma(y)] = (f(y) - f(x)) / sqrt(f'(x) f'(y)), and make
-4 F^{-2} dz dzbar a metric of constant curvature -1.
"""

import math

import numpy as np

import frieze_lab as fl
from frieze_lab.hill import HillPotential, dev_from_minus_id

T = math.pi

print("The round curve f = tan lifts to the unit circle and gives F = sin(y - x):")
cur = fl.tan_family(0.0, c=0.5)
lift = fl.lift_curve(cur)
print("  Gamma(0.7) =", tuple(float(v) for v in lift.gamma(0.7)))
Fz = fl.frieze_from_curve(lift)
print("  F(0.3, 1.2) =", Fz.F(0.3, 1.2), " sin(0.9) =", math.sin(0.9))
print("  Liouville residual:", fl.liouville_residual(Fz, grid=32))
print("  boundary residuals:", fl.boundary_check(Fz, T))

print("\nSchwarzian calculus: S(tan) = 2 and the potential is k = c S(f):")
sw = fl.schwarzian(cur.f)
print("  S(f)(0.4) =", sw(0.4))
pot = fl.potential_from_frieze(Fz, c=0.5)
print("  potential recovered from F (curvature form u'' = kappa u):", pot.kappa(0.4))
print("  same potential in Hill form 2c y'' + k y = 0:", pot.hill_k(0.4))

print("\nWiggled family f_s = tan(x + s sin 2x) keeps everything working:")
for s in (0.1, 0.3):
    c2 = fl.tan_family(s, c=0.5)
    F2 = fl.frieze_from_curve(fl.lift_curve(c2))
    p2 = HillPotential(kappa=fl.lift_curve(c2).kappa, c=0.5, period=T, dkappa=c2.dkappa)
    _, mono = fl.hill_solve(p2, steps=2048)
    print(f"  s = {s}: residual {fl.liouville_residual(F2, grid=32):.2e},"
          f" monodromy dev {dev_from_minus_id(mono):.2e},"
          f" non-oscillating {fl.is_nonoscillating(p2, steps=2048)}")

print("\nCurvature of -4 F^(-2) dz dzbar (expect -1):")
ks, _ = fl.curvature_conformal(Fz, grid=16)
print("  max |K + 1| for sin(y - x):", float(np.max(np.abs(ks + 1.0))))
lin = fl.frieze_from_curve(fl.lift_curve(fl.linear_family()))
ks2, _ = fl.curvature_conformal(lin, grid=16, domain=((0.0, 1.0), (1.5, 3.0)))
print("  max |K + 1| for y - x (half-plane):", float(np.max(np.abs(ks2 + 1.0))))

print("\nDropping the boundary conditions, two different curves still solve the PDE:")
ga = fl.lift_from_components(lambda x: x, lambda x: -1.0, lambda x: 1.0, lambda x: 0.0, lambda x: 0.0, None)
gb = fl.lift_from_components(lambda x: 1.0, lambda x: x, lambda x: 0.0, lambda x: 1.0, lambda x: 0.0, None)
H = fl.frieze_from_curve(ga, gb)
print("  F(x, y) = 1 + x y; residual:",
      fl.liouville_residual(H, grid=32, domain=((0.1, 2.0), (0.1, 2.0))))
