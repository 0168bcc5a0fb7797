"""Scattering profiles, large-time residuals and their rigorous tail bounds.

For large times the right-mover approaches u0(x - t) + G1(x - t) with

    G1(y) = -i * int_0^inf N1(u(y + s, s), v(y + s, s)) ds

and the left-mover approaches v0(x + t) + G2(x + t) with the mirrored
integral.  Each function here treats both movers in one call: profiles and
bounds come back as a (u side, v side) pair.  The functions come in two
kinds, each with one input: `compute_profile` and `residual` read only the
trajectory's traces, and the bounds `tail_bound` and `sup_tail_bound` read
only the initial data, so a caller pairs a residual at t with the bounds at
t.  The solver records the
trapezoid integrals A1(y, t), A2(y, t) of the sources along every lattice
characteristic, so the truncated profile is just -i * A(y, t_max), and the
remainder at a recorded time t,

    u(x, t) - u0(x - t) - G1(x - t) = i * int_t^{t_max} N1(...) ds,

is evaluated from the trace difference A(t_max) - A(t).  Snapshots, traces
and profiles all hold the labels y of [x_min, x_max], so both routes compare
arrays label by label with no shift.  For the implicit
trapezoid scheme that identity is exact by telescoping, and computing the
residual from the traces avoids the catastrophic cancellation of subtracting
two O(1) fields whose difference decays below machine epsilon.

The discarded tail beyond t_max, and the residual at any t, are certified by
fully explicit bounds assembled from the exact light-cone charge balance and
the pointwise envelope E = exp(4|beta| C0) (`ModelParams.envelope`):

    |u(y + s, s)|   <= E |u0(y)|
    |v(y + s, s)|^2 <= E^2 |v0(y + 2s)|^2

so along the u characteristic |N1| <= c_star |u||v|^2 <= c_star E^3 |u0(y)|
|v0(y + 2s)|^2.  That makes c_star E^3 the sup bound's constant and, integrated
over s >= t and squared with tau = y + 2s, c_star^2 (1/4) E^6 the L2 bound's:

    int |int_t^inf |u||v|^2 ds|^2 dy
        <= (1/4) E^6 int |u0(y)|^2 (int_{y+2t}^inf |v0|^2)^2 dy.

An infinite constant bounds a zero integral by 0 (`fields.scaled`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import InitialData, ModelParams, scaled, time_level
from .solver import Trajectory


@dataclass(frozen=True)
class ResidualReport:
    """L2 and sup norms of the residuals against the truncated profiles at one
    recorded time.  Their bounds are `tail_bound` and `sup_tail_bound` at t."""

    t: float
    l2_u: float
    sup_u: float
    l2_v: float
    sup_v: float


def l2_norm(a: np.ndarray, h: float) -> float:
    """The lattice L2 norm sqrt(h * sum |a|^2)."""
    return float(np.sqrt(h * np.sum(np.abs(a) ** 2)))


def _suffix_trapz(w: np.ndarray, h: float) -> np.ndarray:
    """S[m] = trapezoid integral of w from node m to +inf (w is 0 past the array).

    Of w[::-1], reversed back, it is the integral from -inf to node m."""
    return h * (np.cumsum(w[::-1])[::-1] - 0.5 * w)


def tail_bound(data: InitialData, m: ModelParams, t: float) -> tuple[float, float]:
    """Explicit L2 tail bounds (u side, v side) on the remainder integrals past time t.

    For the u side:
        c_star^2 * (1/4) * E^6 * int |u0(y)|^2 (int_{y+2t}^inf |v0(tau)|^2 dtau)^2 dy,
    evaluated by trapezoid rule with suffix cumulative sums; the v side swaps
    the roles of u0 and v0 and integrates the prefix below y - 2t.  Monotone
    nonincreasing in t, which must be a cell level (`fields.time_level`).
    """
    h = data.grid.h
    k = time_level(t, h)
    mu0, mv0 = np.abs(data.u0) ** 2, np.abs(data.v0) ** 2
    n = min(2 * k, len(mu0))
    # the inner integral starts 2t = n cells past the outer label (ends n before)
    inner_u, inner_v = np.zeros_like(mu0), np.zeros_like(mv0)
    inner_u[:len(mu0) - n] = _suffix_trapz(mv0, h)[n:]
    inner_v[n:] = _suffix_trapz(mu0[::-1], h)[::-1][:len(mv0) - n]
    const = m.c_star * m.c_star * 0.25 * m.envelope(data.c0, 6)
    return (scaled(const, h * float(np.sum(mu0 * inner_u ** 2))),
            scaled(const, h * float(np.sum(mv0 * inner_v ** 2))))


def sup_tail_bound(data: InitialData, m: ModelParams, t: float,
                   split_point: float) -> tuple[float, float]:
    """Two-piece sup-norm envelopes (u side, v side) for the residual at time t.

    For the u side, split the characteristic labels at M = split_point:
    labels y <= M contribute at most sup_{y<=M} |u0(y)| * ||v0||_{L2}^2, and
    labels y >= M at most ||u0||_inf * (1/2) int_{M+2t}^inf |v0|^2, both times
    c_star * E^3.  The v side is the mirror image: its split sits at
    -split_point with the far field toward +inf.
    """
    if not t >= 0:  # NaN too
        raise ValueError(f"t must be >= 0, got {t}")
    if np.isnan(split_point):  # every comparison with it is False
        raise ValueError("split_point must not be NaN")
    h = data.grid.h
    x = data.grid.x()
    mu0, mv0 = np.abs(data.u0) ** 2, np.abs(data.v0) ** 2
    const = m.c_star * m.envelope(data.c0, 3)

    near = x <= split_point
    sup_near = float(np.sqrt(np.max(mu0[near]))) if np.any(near) else 0.0
    mass = h * float(np.sum(mv0))
    # round the lower limit down a node: conservative (enlarges the bound)
    start = int(np.searchsorted(x, split_point + 2.0 * t)) - 1
    far_mass = float(_suffix_trapz(mv0, h)[start]) if start >= 0 else mass
    bound_u = scaled(const, max(sup_near * mass, float(np.sqrt(np.max(mu0))) * 0.5 * far_mass))

    near = x >= -split_point
    sup_near = float(np.sqrt(np.max(mv0[near]))) if np.any(near) else 0.0
    mass = h * float(np.sum(mu0))
    # round the upper limit up a node: conservative (enlarges the bound)
    end = int(np.searchsorted(x, -split_point - 2.0 * t))
    far_mass = float(_suffix_trapz(mu0[::-1], h)[::-1][end]) if end < len(x) else mass
    bound_v = scaled(const, max(sup_near * mass, float(np.sqrt(np.max(mv0))) * 0.5 * far_mass))
    return bound_u, bound_v


def compute_profile(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Truncated scattering profiles (G1, G2) by label from the trajectory's traces.

    G = -i * (trapezoid of the traced source over [0, t_max]) per lattice
    label, t_max = traj.grid.t_final; tail_bound(t_max) bounds the squared
    L2 norm of what the truncation discards.
    """
    return tuple(-1j * a for a in traj.snapshot_at(traj.grid.t_final)[2:])


def residual(traj: Trajectory, t: float) -> ResidualReport:
    """Residual norms of u - u0(x-t) - G1(x-t) and its v analogue at time t.

    Uses the exact discrete remainder identity: the residual per label equals
    i * (A(t_max) - A(t)) where A is the trace integral, which is free of the
    cancellation that the direct field difference suffers once the remainder
    decays below machine epsilon relative to the fields.
    """
    *_, a1_t, a2_t = traj.snapshot_at(t)
    *_, a1_T, a2_T = traj.snapshot_at(traj.grid.t_final)
    h = traj.grid.h
    r_u = 1j * (a1_T - a1_t)
    r_v = 1j * (a2_T - a2_t)
    return ResidualReport(t=t, l2_u=l2_norm(r_u, h), sup_u=float(np.max(np.abs(r_u))),
                          l2_v=l2_norm(r_v, h), sup_v=float(np.max(np.abs(r_v))))
