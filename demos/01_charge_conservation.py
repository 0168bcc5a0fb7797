"""Total charge along a run, and how its drift shrinks with the grid.

The identity (|u|^2 + |v|^2)_t + (|u|^2 - |v|^2)_x = 0 makes
Q(t) = int (|u|^2 + |v|^2) dx a constant of motion.  The implicit trapezoid
scheme conserves Q up to O(h^2); the beta = 0 phase-rotation scheme conserves
it to roundoff because it transports the moduli exactly: each step only turns
each label by a unit complex number, built once from the data moduli, so its
drift is the roundoff of those products.
"""

import numpy as np

from dirac1d import Grid, ModelParams, Scheme, charge, make_initial_data, run, total_charge_drift

SHAPE = {"u_center": 0.0, "u_width": 1.0, "v_center": 1.0, "v_width": 1.0}


def drift_at(model, h, scheme="trapezoidal"):
    grid = Grid.from_domain(-12.0, 12.0, h, 4.0)
    data = make_initial_data("gaussian", SHAPE, grid)
    traj = run(data, model, Scheme(scheme), [0.0, 1.0, 2.0, 4.0])
    return traj, total_charge_drift(traj)


print("Gross-Neveu coupling (alpha=0, beta=1/4), implicit trapezoid scheme")
gn = ModelParams.gross_neveu()
prev = None
for h in (1 / 32, 1 / 64, 1 / 128):
    traj, drift = drift_at(gn, h)
    q = [charge(u, v, h) for u, v, *_ in traj.snapshots.values()]
    line = f"  h = 1/{round(1 / h):3d}:  Q(0) = {q[0]:.12f}  drift = {drift:.3e}"
    if prev is not None:
        line += f"  ratio = {prev / drift:.2f}"
    print(line)
    prev = drift

print()
print("Thirring coupling (alpha=1, beta=0), exact-modulus phase rotation")
traj, drift = drift_at(ModelParams.thirring(), 1 / 64, scheme="phase_split")
print(f"  h = 1/64 :  drift = {drift:.3e}  (roundoff only)")
