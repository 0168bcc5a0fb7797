"""Scattering profiles, large-time residuals and their rigorous tail bounds.

For large times the right-mover approaches u0(x - t) + G1(x - t) with

    G1(y) = -i * int_0^inf N1(u(y + s, s), v(y + s, s)) ds

and the left-mover approaches v0(x + t) + G2(x + t) with the mirrored
integral.  The solver records the trapezoid integrals A1(y, t), A2(y, t) of
the sources along every lattice characteristic, so the truncated profile is
just -i * A(y, t_max), and the remainder at a recorded time t,

    u(x, t) - u0(x - t) - G1(x - t) = i * int_t^{t_max} N1(...) ds,

is evaluated from the trace difference A(t_max) - A(t).  Snapshots, traces
and profiles all hold the labels y of [x_min, x_max], so both routes compare
arrays label by label with no shift.  For the implicit
trapezoid scheme that identity is exact by telescoping, and computing the
residual from the traces avoids the catastrophic cancellation of subtracting
two O(1) fields whose difference decays below machine epsilon.

The discarded tail beyond t_max, and the residual at any t, are certified by
fully explicit bounds assembled from the pointwise envelope and the exact
light-cone charge balance:

    |u(y + s, s)|   <= exp(4|beta| C0) |u0(y)|
    |v(y + s, s)|^2 <= exp(8|beta| C0) |v0(y + 2s)|^2

which give, after the substitution tau = y + 2s,

    int |int_t^inf |u||v|^2 ds|^2 dy
        <= (1/4) exp(24|beta| C0) int |u0(y)|^2 (int_{y+2t}^inf |v0|^2)^2 dy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import InitialData, ModelParams
from .solver import Trajectory

SIDES = ("u", "v")


def _check_side(side: str):
    if side not in SIDES:
        raise ValueError(f"side must be 'u' (right-mover) or 'v' (left-mover), got {side!r}")


@dataclass
class Profile:
    """Truncated scattering profile over the characteristic labels.

    side 'u' holds G1 on labels y = x - t; side 'v' holds G2 on y = x + t.
    tail_certificate is a rigorous L2 bound on the discarded integral beyond
    t_max, monotone nonincreasing in t_max.
    """

    side: str
    y_grid: np.ndarray
    values: np.ndarray
    t_max: float
    tail_certificate: float

    def l2_norm(self, h: float) -> float:
        return float(np.sqrt(h * np.sum(np.abs(self.values) ** 2)))


@dataclass(frozen=True)
class ResidualReport:
    """Residual norms against the truncated profiles at one recorded time.

    analytic_bound_u / analytic_bound_v bound the *squared* L2 residuals
    (tail_bound values at this t); l2 and sup columns are the norms
    themselves.
    """

    t: float
    l2_u: float
    sup_u: float
    l2_v: float
    sup_v: float
    analytic_bound_u: float
    analytic_bound_v: float
    h: float


def _suffix_trapz(w: np.ndarray, h: float) -> np.ndarray:
    """S[m] = trapezoid integral of w from node m to +inf (w is 0 past the array)."""
    return h * (np.cumsum(w[::-1])[::-1] - 0.5 * w)


def _prefix_trapz(w: np.ndarray, h: float) -> np.ndarray:
    """P[m] = trapezoid integral of w from -inf (w is 0 before the array) to node m."""
    return h * (np.cumsum(w) - 0.5 * w)


def _even_cells(t: float, h: float) -> int:
    """2t expressed in cells, rounded down to an even count (conservative)."""
    return 2 * int(np.floor(t / h + 1e-12))


def tail_bound(data: InitialData, m: ModelParams, t: float, side: str = "u") -> float:
    """Explicit L2 tail bound on the remainder integral past time t.

    For the u side:
        c_star^2 * (1/4) * exp(24|beta| C0)
            * int |u0(y)|^2 (int_{y+2t}^inf |v0(tau)|^2 dtau)^2 dy,
    evaluated by trapezoid rule with suffix cumulative sums; the v side swaps
    the roles of u0 and v0 and integrates the prefix below y - 2t.  Monotone
    nonincreasing in t.
    """
    _check_side(side)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    h = data.grid.h
    mu0 = np.abs(data.u0) ** 2
    mv0 = np.abs(data.v0) ** 2
    n = min(_even_cells(t, h), len(mu0))
    # the inner integral starts 2t = n cells past the outer label (ends n before)
    inner = np.zeros_like(mu0)
    if side == "u":
        inner[:len(inner) - n] = _suffix_trapz(mv0, h)[n:]
        outer = h * float(np.sum(mu0 * inner ** 2))
    else:
        inner[n:] = _prefix_trapz(mu0, h)[:len(inner) - n]
        outer = h * float(np.sum(mv0 * inner ** 2))
    const = m.c_star ** 2 * 0.25 * float(np.exp(24.0 * abs(m.beta) * data.c0))
    return const * outer


def sup_tail_bound(data: InitialData, m: ModelParams, t: float,
                   split_point: float, side: str = "u") -> float:
    """Two-piece sup-norm envelope for the residual at time t.

    For the u side, split the characteristic labels at M = split_point:
    labels y <= M contribute at most sup_{y<=M} |u0(y)| * ||v0||_{L2}^2, and
    labels y >= M at most ||u0||_inf * (1/2) int_{M+2t}^inf |v0|^2, both times
    c_star * exp(12|beta| C0).  The v side is the mirror image: its split sits
    at -split_point with the far field toward +inf.
    """
    _check_side(side)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    h = data.grid.h
    x = data.grid.x()
    mu0 = np.abs(data.u0) ** 2
    mv0 = np.abs(data.v0) ** 2
    if side == "u":
        near = x <= split_point
        sup_near = float(np.sqrt(np.max(mu0[near]))) if np.any(near) else 0.0
        mass = h * float(np.sum(mv0))
        piece1 = sup_near * mass
        # round the lower limit down a node: conservative (enlarges the bound)
        start = int(np.searchsorted(x, split_point + 2.0 * t)) - 1
        far_mass = float(_suffix_trapz(mv0, h)[start]) if start >= 0 else mass
        piece2 = float(np.sqrt(np.max(mu0))) * 0.5 * far_mass
    else:
        near = x >= -split_point
        sup_near = float(np.sqrt(np.max(mv0[near]))) if np.any(near) else 0.0
        mass = h * float(np.sum(mu0))
        piece1 = sup_near * mass
        # round the upper limit up a node: conservative (enlarges the bound)
        end = int(np.searchsorted(x, -split_point - 2.0 * t))
        far_mass = float(_prefix_trapz(mu0, h)[end]) if end < len(x) else mass
        piece2 = float(np.sqrt(np.max(mv0))) * 0.5 * far_mass
    const = m.c_star * float(np.exp(12.0 * abs(m.beta) * data.c0))
    return const * max(piece1, piece2)


def compute_profile(traj: Trajectory, side: str = "u") -> Profile:
    """Truncated scattering profile from the trajectory's characteristic traces.

    values = -i * (trapezoid of the traced source over [0, t_max]) per lattice
    label; the truncation-tail certificate is c_star * sqrt(tail_bound(t_max)).
    """
    _check_side(side)
    t_max = traj.grid.t_final
    try:
        a1, a2 = traj.traces_at(t_max)
    except ValueError as exc:
        raise ValueError("trajectory is missing traces at its final time") from exc
    acc = a1 if side == "u" else a2
    cert = traj.params.c_star * float(np.sqrt(
        tail_bound(traj.data, traj.params, t_max, side)))
    return Profile(side=side, y_grid=traj.grid.x(), values=-1j * acc,
                   t_max=t_max, tail_certificate=cert)


def residual(traj: Trajectory, t: float, p_u: Profile, p_v: Profile) -> ResidualReport:
    """Residual norms of u - u0(x-t) - G1(x-t) and its v analogue at time t.

    Uses the exact discrete remainder identity: the residual per label equals
    i * (A(t_max) - A(t)) where A is the trace integral, which is free of the
    cancellation that the direct field difference suffers once the remainder
    decays below machine epsilon relative to the fields.  See
    field_residual for the direct route.
    """
    for p, side in ((p_u, "u"), (p_v, "v")):
        if p.side != side:
            raise ValueError(f"profile passed as p_{side} has side {p.side!r}")
        if abs(p.t_max - traj.grid.t_final) > 1e-9:
            raise ValueError("profiles were computed from a different truncation horizon")
    a1_t, a2_t = traj.traces_at(t)
    a1_T, a2_T = traj.traces_at(traj.grid.t_final)
    h = traj.grid.h
    r_u = 1j * (a1_T - a1_t)
    r_v = 1j * (a2_T - a2_t)
    return ResidualReport(
        t=t,
        l2_u=float(np.sqrt(h * np.sum(np.abs(r_u) ** 2))),
        sup_u=float(np.max(np.abs(r_u))),
        l2_v=float(np.sqrt(h * np.sum(np.abs(r_v) ** 2))),
        sup_v=float(np.max(np.abs(r_v))),
        analytic_bound_u=tail_bound(traj.data, traj.params, t, "u"),
        analytic_bound_v=tail_bound(traj.data, traj.params, t, "v"),
        h=h,
    )


def field_residual(traj: Trajectory, t: float, p_u: Profile, p_v: Profile
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Direct field-difference residuals (u - u0 - G1, v - v0 - G2) per label.

    Agrees with the trace route up to the scheme's fixed-point tolerance and
    accumulated roundoff; kept for cross-checking.
    """
    snap = traj.snapshot_at(t)
    return snap.u - traj.data.u0 - p_u.values, snap.v - traj.data.v0 - p_v.values
