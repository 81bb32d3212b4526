"""Friezes as three-term recurrences and polygons in the plane.

The quiddity row doubles as the periodic potential of the discrete Hill
equation V_{i+1} = c_i V_i - V_{i-1}.  The frieze closes exactly when every
solution is n-antiperiodic, i.e. when the monodromy over one period is -Id.
A fundamental system of solutions traces an n-gon whose brackets against the
last vertex reproduce the frieze diagonal; projecting to the projective line
lands in the moduli space of n points, charted here by cross-ratios.
"""

import math
from fractions import Fraction as Fr

import frieze_lab as fl
from frieze_lab.recurrence import DiscreteHillEquation, det2

c = tuple(Fr(x) for x in (1, 2, 2, 1, 3))
eq = DiscreteHillEquation(c=c)
print("quiddity:", [str(x) for x in c])
print("monodromy:", fl.monodromy(eq))
print("closed (M = -Id):", fl.is_closed(eq))

orbit = fl.solve_recurrence(eq, (Fr(0), Fr(1)), (Fr(1), Fr(1)), 7)
print("\norbit of the recurrence:", orbit)
print("antiperiodicity V_{i+5} = -V_i:", orbit[5] == (Fr(0), Fr(-1)))
print("conserved wronskians:", fl.wronskians(orbit))

f = fl.diagonal_to_frieze((1, 2))
poly = fl.polygon_from_frieze(f)
print("\nfundamental polygon of the (1,2) frieze:", poly)
n = f.period
print("brackets against the last vertex give back the diagonal:")
for i in (1, 2):
    print(f"  [V_{n-1}, V_{i}] =", det2(poly[n - 1], poly[i]))

moduli = fl.cross_ratio_coordinates(poly)
print("\ncross-ratio chart (base p0, p1, p_{n-1}):", [str(x) for x in moduli.coordinates])

g = ((Fr(2), Fr(1)), (Fr(3), Fr(2)))  # a unimodular move of the plane
moved = tuple((g[0][0] * v[0] + g[0][1] * v[1], g[1][0] * v[0] + g[1][1] * v[1]) for v in poly)
print("cross-ratios after a unimodular map (unchanged):",
      [str(x) for x in fl.cross_ratio_coordinates(moved).coordinates])

print("\na generic constant quiddity never closes:")
print("  c = 2:", fl.is_closed(DiscreteHillEquation(c=(Fr(2),) * 5)))
print("  c = 2cos(pi/5):", fl.is_minus_identity(
    fl.monodromy(DiscreteHillEquation(c=(2 * math.cos(math.pi / 5),) * 5))))
