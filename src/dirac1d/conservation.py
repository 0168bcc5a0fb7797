"""Numerical certification of the conservation identities.

* global charge conservation on the whole line (the data are compactly
  supported, so Q(t) = h * sum(|u|^2 + |v|^2) over the labels should be
  constant up to the scheme's O(h^2) error);
* the characteristic-triangle balance law: interior charge at time tau plus
  twice the outflow through the two slanted sides equals the charge on the
  base segment;
* the pointwise envelope squared, |u(x,t)|^2 <= E^2 |u0(x-t)|^2 (and the v
  analogue), with E = exp(4|beta| C0) of `ModelParams.envelope` and C0 the
  exact initial charge of the run;
* for beta = 0, exact transport of |u| and |v| along the characteristics
  (`ModulusDrift`).  phase_split keeps the data moduli as its stored moduli,
  so the drift is read from the moduli of the computed states, where it is
  the roundoff of the steps' turns.

`TriangleSides` and `ModulusDrift` are probes for `solver.run`: they gather
their samples from the `solver.Step` record the run hands them before the
first step and after each step, taking |u| and |v| as np.abs of its state.
All spatial and slanted-side integrals use the trapezoid rule on the lattice
nodes the characteristics pass through (unit CFL makes those exact node
sequences).  The snapshots hold u and v by
characteristic label, so the envelope compares each label with its own
initial value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, InitialData, TriangleRegion, at_nodes, charge, scaled
from .solver import Scheme, Step, Trajectory


@dataclass(frozen=True)
class BalanceReport:
    """Terms of the triangle balance law; defect = interior + fluxes - initial."""

    region: TriangleRegion
    tau: float
    interior_charge: float
    right_flux: float
    left_flux: float
    initial_charge: float
    defect: float


class TriangleSides:
    """Probe keeping |u|^2 + |v|^2 on the base and top rows of a triangle cut
    at tau, and per step from t0 to tau u on its right side and v on its
    left, whose |u|^2 and |v|^2 `triangle_balance` takes.  Construction
    raises ValueError unless the scheme steps one cell at a time, a, b, t0,
    tau lie on nodes of the domain and t0 <= tau <= min(apex time, t_final),
    compared in cells."""

    def __init__(self, region: TriangleRegion, tau: float, grid: Grid, scheme: Scheme):
        if scheme.cells != 1:
            raise ValueError(f"triangle balance expects a unit-step scheme, not {scheme.kind}")
        self.region, self.tau, self.h = region, tau, grid.h
        self.k0, self.kt = grid.step_of(region.t0), grid.step_of(tau)
        self.ja, self.jb = grid.index_of(region.a), grid.index_of(region.b)
        # in whole cells, so a cut exactly at the apex passes on any domain
        if not (self.k0 <= self.kt and 2 * (self.kt - self.k0) <= self.jb - self.ja):
            raise ValueError(f"tau = {tau} outside [t0, apex] = [{region.t0}, {region.apex_t}]")
        self.rows, self.right, self.left = [], [], []

    def on_step(self, step: Step):
        level, (u, v) = step.level, step.w
        if self.k0 <= level <= self.kt:
            lo, hi = self.ja + level - self.k0, self.jb - level + self.k0
            for side, a, i in ((self.right, u, hi - level), (self.left, v, lo + level)):
                side.append(a[i] if 0 <= i < len(a) else 0j)  # u, v at the corners
            if level in (self.k0, self.kt):
                au, av = at_nodes(u, v, lo, hi, level)
                self.rows.append(np.abs(au) ** 2 + np.abs(av) ** 2)


class ModulusDrift:
    """Probe keeping the running max over steps and labels of ||u| - |u0||
    and ||v| - |v0||, each label against its own initial value."""

    def __init__(self, data: InitialData):
        self.abs0, self.value = np.abs(np.stack((data.u0, data.v0))), 0.0

    def on_step(self, step: Step):
        self.value = max(self.value, np.max(np.abs(np.abs(step.w) - self.abs0)))


def total_charge_drift(traj: Trajectory) -> float:
    """Max over recorded snapshots of |Q(t) - Q(0)| / max(Q(0), 1e-300),
    with Q(0) the run's initial charge `traj.data.c0`."""
    if not traj.snapshots:
        raise ValueError("trajectory has no recorded snapshots")
    q0 = traj.data.c0
    worst = 0.0
    for u, v, *_ in traj.snapshots.values():
        worst = max(worst, abs(charge(u, v, traj.grid.h) - q0))
    return worst / max(q0, 1e-300)


def triangle_balance(sides: TriangleSides) -> BalanceReport:
    """Evaluate all four terms of the balance law on a characteristic triangle.

    Reads the samples a run gathered into `sides`, and raises ValueError
    when the probe did not see every step from t0 to tau.  The defect is
    mathematically zero and numerically O(h^2).  Cut at its apex, the triangle
    is a backward light cone: all the initial charge leaves through the sides.
    """
    steps = sides.kt - sides.k0 + 1
    if len(sides.right) != steps:
        raise ValueError(
            f"triangle {sides.region} cut at tau = {sides.tau} has samples of "
            f"{len(sides.right)} of its {steps} steps; pass the probe to run(probes=...) "
            "and let the run reach tau")
    h = sides.h
    initial = float(np.trapezoid(sides.rows[0], dx=h))
    # interior at time tau: x in [a - t0 + tau, b + t0 - tau]
    interior = float(np.trapezoid(sides.rows[-1], dx=h))
    # slanted sides: right edge x = b + t0 - s carries 2|u|^2 outflow,
    # left edge x = a - t0 + s carries 2|v|^2 outflow, s in [t0, tau]
    right, left = (2.0 * float(np.trapezoid(np.abs(a) ** 2, dx=h))
                   for a in (sides.right, sides.left))

    defect = interior + right + left - initial
    return BalanceReport(region=sides.region, tau=sides.tau, interior_charge=interior,
                         right_flux=right, left_flux=left,
                         initial_charge=initial, defect=defect)


def check_pointwise_bound(traj: Trajectory) -> float:
    """Worst violation of the exponential pointwise envelope over all snapshots.

    Returns max over recorded snapshots and the whole line of
    |u(x,t)|^2 - E^2 |u0(x-t)|^2 and the mirrored v expression, read label by
    label, with E the envelope of the run's exact initial charge `traj.data.c0`.
    It is never below 0, the value wherever both sides vanish (an infinite E^2
    bounds a zero label by 0, `fields.scaled`); 0 means the bound holds
    everywhere.
    """
    factor = traj.params.envelope(traj.data.c0, 2)
    bu, bv = (scaled(factor, np.abs(a) ** 2) for a in (traj.data.u0, traj.data.v0))
    worst = 0.0
    for u, v, *_ in traj.snapshots.values():
        worst = max(worst, float(np.max(np.abs(u) ** 2 - bu)),
                    float(np.max(np.abs(v) ** 2 - bv)))
    return worst
