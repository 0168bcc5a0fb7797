"""Numerical certification of the conservation identities.

Three checks:

* global charge conservation on the whole line (the data are compactly
  supported, so Q(t) = h * sum(|u|^2 + |v|^2) over the labels should be
  constant up to the scheme's O(h^2) error);
* the characteristic-triangle balance law: interior charge at time tau plus
  twice the outflow through the two slanted sides equals the charge on the
  base segment;
* the pointwise exponential envelope |u(x,t)|^2 <= exp(8|beta| C0) |u0(x-t)|^2
  (and the v analogue), with C0 taken as the exact initial charge of the run.

All spatial and slanted-side integrals use the trapezoid rule on the lattice
nodes the characteristics actually pass through (unit CFL makes those exact
node sequences).  The snapshots hold u and v by characteristic label, so the
envelope compares each label with its own initial value.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .fields import TriangleRegion, charge, triangle_nodes
from .solver import Trajectory


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


def total_charge_drift(traj: Trajectory) -> float:
    """Max over recorded snapshots of |Q(t) - Q(0)| / max(Q(0), 1e-300)."""
    if not traj.times:
        raise ValueError("trajectory has no recorded snapshots")
    q0 = charge(traj.initial)
    worst = 0.0
    for t in traj.times:
        q = charge(traj.snapshots[t])
        worst = max(worst, abs(q - q0))
    return worst / max(q0, 1e-300)


def triangle_balance(traj: Trajectory, region: TriangleRegion, tau: float) -> BalanceReport:
    """Evaluate all four terms of the balance law on a characteristic triangle.

    Reads the samples `run` kept for the triangle, so (region, tau) must have
    been passed to `run(triangles=...)`.  The defect is mathematically zero
    and numerically O(h^2).
    """
    nodes = triangle_nodes(region, tau, traj.grid, traj.scheme)
    if nodes not in traj.triangle_samples:
        raise ValueError(f"triangle [{region.a}, {region.b}] at t0 = {region.t0}, "
                         f"tau = {tau} was not passed to run(triangles=...)")
    rows, right_vals, left_vals = traj.triangle_samples[nodes]
    h = traj.grid.h
    initial = float(np.trapezoid(rows[0], dx=h))
    # interior at time tau: x in [a - t0 + tau, b + t0 - tau]
    interior = float(np.trapezoid(rows[-1], dx=h))
    # slanted sides: right edge x = b + t0 - s carries 2|u|^2 outflow,
    # left edge x = a - t0 + s carries 2|v|^2 outflow, s in [t0, tau]
    right = 2.0 * float(np.trapezoid(right_vals, dx=h))
    left = 2.0 * float(np.trapezoid(left_vals, dx=h))

    defect = interior + right + left - initial
    return BalanceReport(region=region, tau=tau, interior_charge=interior,
                         right_flux=right, left_flux=left,
                         initial_charge=initial, defect=defect)


def light_cone_balance(traj: Trajectory, x0: float, t0: float) -> BalanceReport:
    """Special case on the backward light cone of (x0, t0).

    The triangle degenerates at the apex, so the whole initial charge on
    [x0 - t0, x0 + t0] leaves through the two characteristic sides.
    """
    region = TriangleRegion(a=x0 - t0, b=x0 + t0, t0=0.0)
    return triangle_balance(traj, region, tau=t0)


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
