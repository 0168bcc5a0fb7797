"""Richardson refinement study of the three schemes.

Halving h and comparing solutions at the shared final time estimates the
convergence order without an exact solution: the L2 difference between the
h and h/2 runs shrinks by 2^p for a scheme of order p.
"""

import math

from dirac1d import Grid, ModelParams, Scheme, make_initial_data, run
from dirac1d.solver import l2_diff

SHAPE = {"u_center": 0.0, "u_width": 1.0, "v_center": 1.0, "v_width": 1.0}
T = 2.0


def trajectory(m, h, scheme):
    grid = Grid.from_domain(-10.0, 10.0, h, T)
    data = make_initial_data("gaussian", SHAPE, grid)
    tol = 1e-14 if scheme == "oracle4" else 1e-12
    return run(data, m, Scheme(scheme, fixed_point_tol=tol), [T])


for scheme, model, steps in (
    ("trapezoidal", ModelParams.gross_neveu(), (1 / 32, 1 / 64, 1 / 128, 1 / 256)),
    ("phase_split", ModelParams.thirring(), (1 / 32, 1 / 64, 1 / 128, 1 / 256)),
    ("oracle4", ModelParams.gross_neveu(), (1 / 32, 1 / 64, 1 / 128)),
):
    runs = {h: trajectory(model, h, scheme) for h in steps}
    diffs = [l2_diff(runs[a], runs[b], T) for a, b in zip(steps, steps[1:])]
    print(f"{scheme}:")
    for (h, d) in zip(steps, diffs):
        print(f"  |u_h - u_h/2| at h = 1/{round(1 / h):3d}:  {d:.3e}")
    orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    print(f"  estimated order: {', '.join(f'{p:.2f}' for p in orders)}\n")
