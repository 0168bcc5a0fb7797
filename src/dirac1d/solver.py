"""Advance the spinor field along exact characteristics on the unit-CFL lattice.

Along x - t = const the right-mover obeys du/ds = -i N1(u, v); along
x + t = const the left-mover obeys dv/ds = -i N2(u, v).  With the time step
equal to the space step every characteristic advances exactly one cell per
step, so there is no interpolation anywhere and the scheme's only error is
the quadrature of the source along the characteristic segment.

u is held on its characteristic labels y = x - t and v on z = x + t, so
free transport is index arithmetic.  N1 and N2 vanish wherever u or v does,
so a step updates only the new-level nodes whose characteristic foot or head
lies in the overlap of the two supports (the previous overlap widened by one
cell per side, two for oracle4), with the arithmetic of a whole-lattice step
node for node.  Snapshots keep the labels of [x_min, x_max]: no label leaves
its initial support, which lies in the domain.  A fixed-point sweep evaluates
both sources in one `eval_N` call per level, skipping zero-coupling terms.

Three schemes are provided:

trapezoidal   implicit trapezoid rule per node, the production second-order
              scheme; the per-node 2x2 complex fixed point is solved by
              iteration (the map is a contraction for small h * amplitude^2).
phase_split   exact-modulus variant for beta = 0: the nonlinearity is then a
              pure phase rotation, so moduli are transported exactly.
oracle4       fourth-order reference: 3-stage Lobatto IIIA collocation over a
              double step (time step 2h), whose half-step abscissae land
              exactly on lattice nodes.  Used for cross-validation.

Each run also accumulates, per characteristic label, the running trapezoid
integral of N1 (and N2) along that characteristic.  These traces are what
the asymptotics layer turns into scattering profiles, and they make the
discrete remainder identity u(t) = u0 - i * integral exact by telescoping.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .fields import (Grid, InitialData, ModelParams, SpinorField, TriangleRegion, at_nodes,
                     triangle_nodes)
# eval_N1 and eval_N2 are not called here; they stay importable because the
# benchmark's tracer (perfbench/tracing.py) looks them up on this module
from .nonlinearity import eval_N, eval_N1, eval_N2  # noqa: F401

BLOWUP_LIMIT = 1e6

# Labels the widest window (oracle4's half level) reaches past the supports
MARGIN = 4


class SolverError(RuntimeError):
    """Fixed-point divergence or field blow-up."""


@dataclass(frozen=True)
class Scheme:
    kind: str = "trapezoidal"
    fixed_point_tol: float = 1e-12
    fixed_point_max_iter: int = 50

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; expected one of {SCHEME_KINDS}")
        if not self.fixed_point_tol > 0:
            raise ValueError(f"fixed_point_tol must be > 0, got {self.fixed_point_tol}")
        if self.fixed_point_max_iter < 1:
            raise ValueError(f"fixed_point_max_iter must be >= 1, got {self.fixed_point_max_iter}")

    @property
    def cells(self) -> int:
        """Lattice cells one step advances: the time step is cells * h."""
        return _KERNELS[self.kind][1]


@dataclass
class Trajectory:
    """Recorded snapshots plus per-characteristic trace integrals.

    `snapshots[t]` holds u and v by label, like the solver.
    `trace_partials[t]` holds, in the same label frames
    (y = x - t for the u side, y = x + t for the v side), the composite
    trapezoid integrals A1(y, t) = int_0^t N1 along (y + s, s) and
    A2(y, t) = int_0^t N2 along (y - s, s).  The final accumulators at
    t = grid.t_final feed the scattering profiles.

    `triangle_samples` maps the `triangle_nodes` of each triangle passed to
    `run` to ([base row, top row] of |u|^2 + |v|^2, right-side |u|^2 and
    left-side |v|^2 per step from t0 to tau).
    """

    grid: Grid
    params: ModelParams
    scheme: Scheme
    data: InitialData
    initial: SpinorField
    times: list[float] = field(default_factory=list)
    snapshots: dict[float, SpinorField] = field(default_factory=dict)
    trace_partials: dict[float, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    triangle_samples: dict[tuple, tuple[list, list, list]] = field(default_factory=dict)
    modulus_drift: float | None = None
    max_fp_iterations: int = 0

    def snapshot_at(self, t: float) -> SpinorField:
        return self.snapshots[self._key(t, "snapshot")]

    def traces_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        return self.trace_partials[self._key(t, "trace partials")]

    def _key(self, t: float, what: str) -> float:
        for rt in self.times:
            if abs(rt - t) <= 1e-9 * max(1.0, self.grid.h):
                return rt
        raise ValueError(f"no {what} recorded at t = {t}; recorded times: {self.times}")


def init_state(data: InitialData, grid: Grid) -> SpinorField:
    """Spinor field at t = 0 from sampled initial data."""
    g = data.grid
    if (g.x_min, g.h, g.n_cells) != (grid.x_min, grid.h, grid.n_cells):
        raise ValueError("initial data was sampled on a different grid")
    return SpinorField(0.0, data.u0.copy(), data.v0.copy(), grid)


class _Labels:
    """u on labels y = x - t and v on labels z = x + t, advanced by one scheme.

    At cell level s, u's label i sits at node i + s and v's label i at node
    i - s.  u, v, |u|, |v|, the sources N1, N2 at the current level and the
    traces A1, A2 are indexed by label + MARGIN; the zero margin holds the
    labels a window reaches past the domain.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray, h: float, m: ModelParams, s: Scheme):
        if s.kind == "phase_split" and m.beta != 0.0:
            raise ValueError("phase_split scheme is only valid for beta = 0")
        self.n, self.level, self.h, self.m, self.s = len(u), 0, h, m, s
        self.u, self.v = np.pad(u, MARGIN), np.pad(v, MARGIN)
        self.abs_u, self.abs_v = np.abs(self.u), np.abs(self.v)
        self.n1, self.n2, self.a1, self.a2 = (np.zeros_like(self.u) for _ in range(4))
        self.mod0, self.drift = None, 0.0  # |u0|, |v0| by label, to track modulus drift
        # A label's support never grows (N1 vanishes where u does, N2 where v
        # does), so the initial supports bound every later overlap.
        iu, iv = np.flatnonzero(u), np.flatnonzero(v)
        self.hull = (iu[0], iu[-1], iv[0], iv[-1]) if iu.size and iv.size else None
        self.guard(self.abs_u, self.abs_v)
        if (win := self.window(0)) is not None:
            ju, jv = self.labels(*win, 0)
            self.n1[ju], self.n2[jv] = eval_N(self.u[ju], self.v[jv], m)

    def advance(self) -> int:
        """One step of the scheme; returns its fixed-point sweeps."""
        kernel, cells = _KERNELS[self.s.kind]
        win = self.window(cells)
        self.level += cells
        return 0 if win is None else kernel(self, *self.labels(*win, self.level))

    def window(self, w: int) -> tuple[int, int] | None:
        """Nodes (lo - w, hi + w) around the supports' overlap lo..hi, or None."""
        if self.hull is None:
            return None
        ulo, uhi, vlo, vhi = self.hull
        lo = max(ulo + self.level, vlo - self.level) - w
        hi = min(uhi + self.level, vhi - self.level) + w
        return (lo, hi) if lo <= hi else None

    def labels(self, lo: int, hi: int, s: int) -> tuple[slice, slice]:
        """Slices of the u and v label arrays at nodes lo..hi of cell level s."""
        return (slice(MARGIN + lo - s, MARGIN + hi - s + 1),
                slice(MARGIN + lo + s, MARGIN + hi + s + 1))

    def commit(self, ju: slice, jv: slice, U, V, n1, n2, au, av):
        """Store a step's window values with their moduli au, av and guard them."""
        self.u[ju], self.v[jv], self.n1[ju], self.n2[jv] = U, V, n1, n2
        self.abs_u[ju], self.abs_v[jv] = au, av
        self.guard(au, av)
        if self.mod0 is not None:
            self.drift = max(self.drift, np.max(np.abs(au - self.mod0[0][ju])),
                             np.max(np.abs(av - self.mod0[1][jv])))

    def guard(self, au: np.ndarray, av: np.ndarray):
        amp = np.maximum(np.max(au), np.max(av))  # a NaN on either side propagates
        if not np.isfinite(amp) or amp > BLOWUP_LIMIT:
            t = self.level * self.h
            raise SolverError(f"field blow-up at t = {t:.6g}: max amplitude {amp:.3g}")

    def domain(self, *arrays: np.ndarray) -> tuple:
        """Views of label arrays on the labels of the domain."""
        return tuple(a[MARGIN:MARGIN + self.n] for a in arrays)


def _fixed_point(sweep, start: tuple, lab: _Labels):
    """Iterate x <- sweep(*x) from start until no component moves by more than
    tol * (1 + max(max|u|, max|v|)); returns the last iterate and the sweeps."""
    s, x = lab.s, start
    scale = 1.0 + max(np.max(lab.abs_u), np.max(lab.abs_v))
    for iters in range(1, s.fixed_point_max_iter + 1):
        new = sweep(*x)
        delta = max(np.max(np.abs(a - b)) for a, b in zip(new, x))
        x = new
        if delta <= s.fixed_point_tol * scale:
            return x, iters
    raise SolverError(
        f"fixed-point iteration did not converge in {s.fixed_point_max_iter} iterations; "
        "the time step is too large for the data amplitude")


def _commit_trapezoid(lab: _Labels, ju: slice, jv: slice, U, V):
    """Store U, V with their sources, adding the trapezoid panel to the traces."""
    au, av = np.abs(U), np.abs(V)
    n1, n2 = eval_N(U, V, lab.m, (au, av))
    lab.a1[ju] += 0.5 * lab.h * (lab.n1[ju] + n1)
    lab.a2[jv] += 0.5 * lab.h * (lab.n2[jv] + n2)
    lab.commit(ju, jv, U, V, n1, n2, au, av)


def _step_trapezoidal(lab: _Labels, ju: slice, jv: slice) -> int:
    """Unit-CFL implicit trapezoid on the window's labels; returns the sweeps."""
    h, m = lab.h, lab.m
    a = lab.u[ju] - 0.5j * h * lab.n1[ju]
    b = lab.v[jv] - 0.5j * h * lab.n2[jv]
    (U, V), iters = _fixed_point(
        lambda U, V: tuple(c - 0.5j * h * n for c, n in zip((a, b), eval_N(U, V, m))),
        (lab.u[ju], lab.v[jv]), lab)
    _commit_trapezoid(lab, ju, jv, U, V)
    return iters


def _step_phase_split(lab: _Labels, ju: slice, jv: slice) -> int:
    """Exact-modulus step for beta = 0 on the window's labels; no sweeps.

    For the Thirring-type nonlinearity N1 = alpha*u*|v|^2 the characteristic
    ODE is a pure phase rotation, so |u| and |v| transport exactly; the phase
    uses the midpoint |v|^2 averaged from the two endpoint values along the
    characteristic (second order).
    """
    # the previous level's moduli at both neighbours of every window node
    mu = lab.abs_u[ju.start:ju.stop + 2] ** 2
    mv = lab.abs_v[jv.start - 2:jv.stop] ** 2
    v_mid = 0.5 * (mv[:-2] + mv[2:])
    u_mid = 0.5 * (mu[:-2] + mu[2:])
    U = lab.u[ju] * np.exp(-1j * lab.m.alpha * lab.h * v_mid)
    V = lab.v[jv] * np.exp(-1j * lab.m.alpha * lab.h * u_mid)
    _commit_trapezoid(lab, ju, jv, U, V)
    return 0


# 3-stage Lobatto IIIA (collocation at {0, 1/2, 1}): order 4, and both stage
# abscissae land on lattice nodes when the time step spans two cells.
_L_HALF = (5.0 / 24.0, 1.0 / 3.0, -1.0 / 24.0)
_L_FULL = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)


def _lobatto(w: tuple, f0, fh, f1):
    return w[0] * f0 + w[1] * fh + w[2] * f1


def _step_oracle4(lab: _Labels, fu: slice, fv: slice) -> int:
    """Lobatto IIIA double step (time 2h) on the window's full-level labels.

    The half level is solved one node wider per side: its u stage still
    moves by the -1/24 weight of the full-level source one node to its right
    (v: to its left).  By label, that adds two u labels after the full window
    and two v labels before it.  The traces gain the order-4 quadrature of
    the source over each segment.  Returns the sweeps.
    """
    m, dt = lab.m, 2.0 * lab.h
    hu, hv = slice(fu.start, fu.stop + 2), slice(fv.start - 2, fv.stop)
    base_uh, base_vh = lab.u[hu], lab.v[hv]
    f0u, f0v = -1j * lab.n1[hu], -1j * lab.n2[hv]
    # the full-level sources seen from the half level: zero past the full window
    f1u_h, f1v_h = np.zeros_like(base_uh), np.zeros_like(base_vh)

    def sweep(Uf, Vf, Uh, Vh):
        fhu, fhv = (-1j * n for n in eval_N(Uh, Vh, m))
        f1u, f1v = (-1j * n for n in eval_N(Uf, Vf, m))
        f1u_h[:-2], f1v_h[2:] = f1u, f1v
        return (base_uh[:-2] + dt * _lobatto(_L_FULL, f0u[:-2], fhu[:-2], f1u),
                base_vh[2:] + dt * _lobatto(_L_FULL, f0v[2:], fhv[2:], f1v),
                base_uh + dt * _lobatto(_L_HALF, f0u, fhu, f1u_h),
                base_vh + dt * _lobatto(_L_HALF, f0v, fhv, f1v_h))

    (Uf, Vf, Uh, Vh), iters = _fixed_point(
        sweep, (base_uh[:-2], base_vh[2:], base_uh, base_vh), lab)
    au, av = np.abs(Uf), np.abs(Vf)
    (n1h, n2h), (n1f, n2f) = eval_N(Uh, Vh, m), eval_N(Uf, Vf, m, (au, av))
    lab.a1[fu] += dt * _lobatto(_L_FULL, lab.n1[fu], n1h[:-2], n1f)
    lab.a2[fv] += dt * _lobatto(_L_FULL, lab.n2[fv], n2h[2:], n2f)
    lab.commit(fu, fv, Uf, Vf, n1f, n2f, au, av)
    return iters


# kind -> (kernel for a nonempty window, cells per step = window widening)
_KERNELS = {
    "trapezoidal": (_step_trapezoidal, 1),
    "phase_split": (_step_phase_split, 1),
    "oracle4": (_step_oracle4, 2),
}
SCHEME_KINDS = tuple(_KERNELS)


def run(data: InitialData, grid: Grid, m: ModelParams, s: Scheme,
        record_times: list[float],
        triangles: Iterable[tuple[TriangleRegion, float]] = (),
        track_modulus_drift: bool = False) -> Trajectory:
    """Run the scheme for grid.n_steps steps, recording snapshots and traces.

    record_times must be multiples of the scheme's time step within
    [0, n_steps * h].  The final time is always recorded (the profiles need
    the full trace integrals).  For each (region, tau) in triangles the run
    keeps the samples `conservation.triangle_balance` reads for that
    triangle cut at tau; each is validated by `triangle_nodes` before the
    first step.  track_modulus_drift maintains the running maximum of
    ||u(x,t)| - |u0(x-t)|| and its v analogue over all nodes and steps.
    """
    dt = s.cells * grid.h
    if grid.n_steps % s.cells != 0:
        raise ValueError(f"{s.kind} advances {s.cells} cells per step; "
                         f"n_steps = {grid.n_steps} does not divide evenly")
    n_steps = grid.n_steps // s.cells
    samples = {triangle_nodes(r, tau, grid, s): ([], [], []) for r, tau in triangles}

    record_steps = {n_steps}
    for t in record_times:
        r = t / dt
        k = int(round(r))
        if abs(r - k) > 1e-9 or not 0 <= k <= n_steps:
            raise ValueError(
                f"record time {t} is not a multiple of the time step {dt} "
                f"within [0, {grid.t_final}]")
        record_steps.add(k)

    state = init_state(data, grid)
    lab = _Labels(state.u, state.v, grid.h, m, s)
    if track_modulus_drift:
        lab.mod0 = (np.pad(np.abs(data.u0), MARGIN), np.pad(np.abs(data.v0), MARGIN))
    traj = Trajectory(grid=grid, params=m, scheme=s, data=data, initial=state,
                      triangle_samples=samples)
    for k in range(n_steps + 1):
        if k:
            traj.max_fp_iterations = max(traj.max_fp_iterations, lab.advance())
        for (k0, kt, ja, jb), (rows, right, left) in samples.items():
            if k0 <= k <= kt:
                au, av = at_nodes(*lab.domain(lab.abs_u, lab.abs_v),
                                  ja + k - k0, jb - k + k0, lab.level)
                right.append(np.square(au[-1]))
                left.append(np.square(av[0]))
                if k in (k0, kt):
                    rows.append(au ** 2 + av ** 2)
        if k in record_steps:
            t = k * dt
            traj.times.append(t)
            u, v, a1, a2 = (a.copy() for a in lab.domain(lab.u, lab.v, lab.a1, lab.a2))
            traj.snapshots[t] = SpinorField(t, u, v, grid)
            traj.trace_partials[t] = (a1, a2)
    if track_modulus_drift:
        traj.modulus_drift = lab.drift
    return traj


def restrict(arr: np.ndarray, fine_grid: Grid, coarse_grid: Grid) -> np.ndarray:
    """Samples of an array on a nested finer grid at the coarse grid's nodes or labels.

    The grids must share x_min and x_max and have an integer step ratio.
    """
    ratio = coarse_grid.h / fine_grid.h
    factor = int(round(ratio))
    if (abs(ratio - factor) > 1e-9 or abs(fine_grid.x_min - coarse_grid.x_min) > 1e-9
            or abs(fine_grid.x_max - coarse_grid.x_max) > 1e-9):
        raise ValueError("grids are not nested refinements of each other")
    return arr[::factor]


def l2_diff(coarse: SpinorField, fine: SpinorField) -> float:
    """L2 distance between solutions on a grid and a nested refinement of it."""
    du = coarse.u - restrict(fine.u, fine.grid, coarse.grid)
    dv = coarse.v - restrict(fine.v, fine.grid, coarse.grid)
    return float(np.sqrt(coarse.grid.h * (np.sum(np.abs(du) ** 2) + np.sum(np.abs(dv) ** 2))))
