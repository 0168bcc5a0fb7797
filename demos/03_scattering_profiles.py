"""Large-time scattering: the movers settle onto shifted profiles.

For compact data the interaction region empties out along the light cone, and

    u(x, t) -> u0(x - t) + G1(x - t),    v(x, t) -> v0(x + t) + G2(x + t),

with G1(y) = -i int_0^inf N1 along the characteristic through y.  The solver
accumulates those integrals exactly along lattice characteristics, so the
profiles fall out of the run, together with a rigorous bound on the part of
the integral beyond the simulated horizon.
"""

import numpy as np

from dirac1d import (Grid, ModelParams, Scheme, compute_profile, l2_norm, make_initial_data,
                     residual, run, sup_tail_bound, tail_bound)

SHAPE = {"u_center": 0.0, "u_width": 1.0, "v_center": 1.0, "v_width": 1.0}

grid = Grid.from_domain(-12.0, 12.0, 1 / 128, 8.0)
data = make_initial_data("gaussian", SHAPE, grid)
m = ModelParams.thirring()
traj = run(data, m, Scheme(), [0.0, 1.0, 2.0, 4.0, 8.0])

g1, g2 = compute_profile(traj)   # (G1, G2) by label: both movers in one call
print(f"profile norms:  |G1| = {l2_norm(g1, grid.h):.6f}   "
      f"|G2| = {l2_norm(g2, grid.h):.6f}")
cert_u, cert_v = np.sqrt(tail_bound(data, m, grid.t_final))  # L2 bounds on the truncated tail
print(f"truncation-tail certificates: {cert_u:.2e} (u), {cert_v:.2e} (v)")

j = np.argmax(np.abs(g1))
print(f"G1 peaks at y = {grid.x()[j]:+.3f} with |G1| = {abs(g1[j]):.4f}")

print("\nresidual against the settled profiles:")
print(f"  {'t':>4}  {'l2_u':>9}  {'sup_u':>9}  {'tail bound':>10}  {'sup bound':>9}")
for t in (1.0, 2.0, 4.0):
    r = residual(traj, t)
    tb, _ = tail_bound(data, m, t)  # (u side, v side); the table shows u
    sb, _ = sup_tail_bound(data, m, t, -5.0)
    print(f"  {t:4.1f}  {r.l2_u:9.2e}  {r.sup_u:9.2e}  {np.sqrt(tb):10.2e}  {sb:9.2e}")
print("the interaction dies off super-Gaussianly fast: by t = 4 the movers")
print("have separated and only the frozen profiles remain")
