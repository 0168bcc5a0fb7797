"""Numerical certification of the conservation identities.

* global charge conservation on the whole line (the data are compactly
  supported, so Q(t) = h * sum(|u|^2 + |v|^2) over the labels should be
  constant up to the scheme's O(h^2) error);
* the characteristic-triangle balance law: interior charge at time tau plus
  twice the outflow through the two slanted sides equals the charge on the
  base segment;
* the pointwise exponential envelope |u(x,t)|^2 <= exp(8|beta| C0) |u0(x-t)|^2
  (and the v analogue), with C0 taken as the exact initial charge of the run;
* for beta = 0, exact transport of |u| and |v| along the characteristics.

`TriangleSides` and `ModulusDrift` are probes for `solver.run`: they gather
their samples as the run steps.  All spatial and slanted-side integrals use
the trapezoid rule on the lattice nodes the characteristics pass through
(unit CFL makes those exact node sequences).  The snapshots hold u and v by
characteristic label, so the envelope compares each label with its own
initial value.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .fields import (Grid, InitialData, SpinorField, TriangleRegion, at_nodes, charge,
                     triangle_nodes)
from .solver import Scheme, Trajectory


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

    def as_dict(self) -> dict:
        return asdict(self)


class TriangleSides:
    """Probe keeping |u|^2 + |v|^2 on the base and top rows of a triangle cut
    at tau, and per step from t0 to tau |u|^2 on its right side and |v|^2 on
    its left.  (region, tau) is validated on construction, before any step."""

    def __init__(self, region: TriangleRegion, tau: float, grid: Grid, scheme: Scheme):
        self.region, self.tau, self.h = region, tau, grid.h
        self.k0, self.kt, self.ja, self.jb = triangle_nodes(region, tau, grid, scheme)
        self.rows, self.right, self.left = [], [], []

    def on_step(self, k: int, level: int, abs_u: np.ndarray, abs_v: np.ndarray):
        if self.k0 <= k <= self.kt:
            au, av = at_nodes(abs_u, abs_v, self.ja + k - self.k0, self.jb - k + self.k0, level)
            self.right.append(np.square(au[-1]))
            self.left.append(np.square(av[0]))
            if k in (self.k0, self.kt):
                self.rows.append(au ** 2 + av ** 2)


class ModulusDrift:
    """Probe keeping the running max over steps and labels of ||u| - |u0||
    and ||v| - |v0||, each label against its own initial value."""

    def __init__(self, data: InitialData):
        self.abs0 = np.abs(data.u0), np.abs(data.v0)
        self.value = 0.0

    def on_step(self, k: int, level: int, abs_u: np.ndarray, abs_v: np.ndarray):
        self.value = max(self.value, np.max(np.abs(abs_u - self.abs0[0])),
                         np.max(np.abs(abs_v - self.abs0[1])))


def total_charge_drift(traj: Trajectory) -> float:
    """Max over recorded snapshots of |Q(t) - Q(0)| / max(Q(0), 1e-300)."""
    if not traj.times:
        raise ValueError("trajectory has no recorded snapshots")
    q0 = charge(SpinorField(0.0, traj.data.u0, traj.data.v0, traj.grid))
    worst = 0.0
    for t in traj.times:
        q = charge(traj.snapshots[t])
        worst = max(worst, abs(q - q0))
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
    right = 2.0 * float(np.trapezoid(sides.right, dx=h))
    left = 2.0 * float(np.trapezoid(sides.left, dx=h))

    defect = interior + right + left - initial
    return BalanceReport(region=sides.region, tau=sides.tau, interior_charge=interior,
                         right_flux=right, left_flux=left,
                         initial_charge=initial, defect=defect)


def check_pointwise_bound(traj: Trajectory, c0: float | None = None) -> float:
    """Worst violation of the exponential pointwise envelope over all snapshots.

    Returns max over recorded snapshots and the whole line of
    |u(x,t)|^2 - exp(8|beta| c0) |u0(x-t)|^2 and the mirrored v expression,
    read label by label.  It is never below 0, the value wherever both sides
    vanish; 0 means the bound holds everywhere.  c0 defaults to the exact
    initial charge of the run.
    """
    if c0 is None:
        c0 = traj.data.c0
    factor = float(np.exp(8.0 * abs(traj.params.beta) * c0))
    mu0 = np.abs(traj.data.u0) ** 2
    mv0 = np.abs(traj.data.v0) ** 2
    worst = 0.0
    for t in traj.times:
        snap = traj.snapshots[t]
        vu = np.abs(snap.u) ** 2 - factor * mu0
        vv = np.abs(snap.v) ** 2 - factor * mv0
        worst = max(worst, float(np.max(vu)), float(np.max(vv)))
    return worst
