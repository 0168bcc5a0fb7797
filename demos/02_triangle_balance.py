"""Charge accounting on backward characteristic triangles.

Everything that starts on a base segment [a, b] either is still inside the
shrinking interval at time tau or has left through one of the two slanted
characteristic sides:

    int_{a+tau}^{b-tau} (|u|^2+|v|^2) dx
      + 2 int_0^tau |u(b-s, s)|^2 ds + 2 int_0^tau |v(a+s, s)|^2 ds
      = int_a^b (|u|^2+|v|^2) dx.

The defect of the discrete version is O(h^2).  The degenerate case tau equal
to the apex height is the light-cone identity: the interior term vanishes and
the whole initial charge is split between the two sides.
"""

from dirac1d import (Grid, ModelParams, Scheme, TriangleRegion, TriangleSides,
                     make_initial_data, run, triangle_balance)

SHAPE = {"u_center": 0.0, "u_width": 1.0, "v_center": 1.0, "v_width": 1.0}

REGIONS = (TriangleRegion(-6.0, 6.0, 0.0),
           TriangleRegion(-4.0, 4.0, 0.0),
           TriangleRegion(-2.0, 3.0, 0.5))
CONE = TriangleRegion(0.5 - 2.0, 0.5 + 2.0, 0.0)  # apex (0.5, 2.0)

# each TriangleSides probe keeps only the samples its triangle needs, as the
# run steps: the base and top rows and one value per step on each slanted side
grid = Grid.from_domain(-12.0, 12.0, 1 / 128, 4.0)
data = make_initial_data("gaussian", SHAPE, grid)
sides = [TriangleSides(region, 2.0, grid, Scheme()) for region in (*REGIONS, CONE)]
run(data, ModelParams.gross_neveu(), Scheme(), [4.0], sides)

print("triangle balance at tau = 2 (h = 1/128):")
for region, s in zip(REGIONS, sides):
    rep = triangle_balance(s)
    print(f"  base [{region.a:5.1f}, {region.b:4.1f}] at t0 = {region.t0}: "
          f"interior {rep.interior_charge:.6f} + right {rep.right_flux:.6f} "
          f"+ left {rep.left_flux:.6f} = initial {rep.initial_charge:.6f} "
          f"(defect {rep.defect:+.2e})")

# the backward light cone of (0.5, 2.0) is the triangle cut at its apex
rep = triangle_balance(sides[-1])
print("\nlight cone with apex (0.5, 2.0):")
print(f"  interior {rep.interior_charge:.1f}, sides carry "
      f"{rep.right_flux:.6f} + {rep.left_flux:.6f} "
      f"of the initial {rep.initial_charge:.6f} (defect {rep.defect:+.2e})")
