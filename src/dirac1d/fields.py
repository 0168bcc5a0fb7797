"""Grids, spinor states, model parameters and the built-in initial-data families.

The spatial lattice is uniform with unit CFL (the time step equals the space
step), so both characteristic families x - t = const and x + t = const pass
exactly through lattice nodes.  Every array holds the n_cells labels of the
domain [x_min, x_max]: u by its label y = x - t and v by z = x + t, which at
t = 0 are the nodes.  Data start inside the domain and each label keeps its
support, so the whole-line problem needs no boundary modeling at all; a
node whose label lies off the domain reads zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

# Values below this magnitude are treated as exact zeros when sampling
# Gaussian data, making every family effectively compactly supported.
UNDERFLOW_FLOOR = 1e-300

FAMILIES = ("gaussian", "bump", "separated", "zero")


@dataclass(frozen=True)
class ModelParams:
    """Coupling constants of the nonlinearity W = alpha|u|^2|v|^2 + beta(ub*v + u*vb)^2."""

    alpha: float
    beta: float

    @property
    def c_star(self) -> float:
        """Lipschitz envelope of the nonlinearity: |N1| <= c_star * |u| |v|^2.

        Always recomputed from (alpha, beta); never stored independently.
        """
        return abs(self.alpha) + 4.0 * abs(self.beta)

    @classmethod
    def thirring(cls) -> "ModelParams":
        return cls(alpha=1.0, beta=0.0)

    @classmethod
    def gross_neveu(cls) -> "ModelParams":
        return cls(alpha=0.0, beta=0.25)


@dataclass(frozen=True)
class Grid:
    """Uniform unit-CFL lattice over [x_min, x_max].

    Attributes
    ----------
    x_min : left edge of the domain
    h : space step; also the time step
    n_cells : number of nodes in [x_min, x_max]
    n_steps : number of time steps of the run
    """

    x_min: float
    h: float
    n_cells: int
    n_steps: int

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"h must be positive, got {self.h}")
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {self.n_cells}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")

    @property
    def x_max(self) -> float:
        return self.x_min + (self.n_cells - 1) * self.h

    @property
    def t_final(self) -> float:
        return self.n_steps * self.h

    def x(self) -> np.ndarray:
        """Coordinates of the nodes, which are also the labels."""
        return self.x_min + np.arange(self.n_cells) * self.h

    def index_of(self, x: float) -> int:
        """Index of the node at coordinate x.

        Raises ValueError when x is not a lattice node (to 1e-9 * h) or
        falls outside [x_min, x_max].
        """
        r = (x - self.x_min) / self.h
        j = int(round(r))
        if abs(r - j) > 1e-9:
            raise ValueError(f"x = {x} is not a lattice node (h = {self.h})")
        if not 0 <= j < self.n_cells:
            raise ValueError(f"x = {x} lies outside [{self.x_min}, {self.x_max}]")
        return j

    def step_of(self, t: float) -> int:
        """Step index of time t; t must be a multiple of h within the run."""
        r = t / self.h
        k = int(round(r))
        if abs(r - k) > 1e-9:
            raise ValueError(f"t = {t} is not a multiple of h = {self.h}")
        if not 0 <= k <= self.n_steps:
            raise ValueError(f"t = {t} outside the run horizon {self.t_final}")
        return k

    @classmethod
    def from_domain(cls, x_min: float, x_max: float, h: float, t_final: float) -> "Grid":
        """Grid covering [x_min, x_max] for a run of length t_final.

        (x_max - x_min) and t_final must be integer multiples of h.
        """
        n_span = (x_max - x_min) / h
        if abs(n_span - round(n_span)) > 1e-9:
            raise ValueError(f"x_max - x_min = {x_max - x_min} is not a multiple of h = {h}")
        n_t = t_final / h
        if abs(n_t - round(n_t)) > 1e-9:
            raise ValueError(f"t_final = {t_final} is not a multiple of h = {h}")
        return cls(x_min=x_min, h=h, n_cells=int(round(n_span)) + 1, n_steps=int(round(n_t)))


@dataclass
class SpinorField:
    """The pair (u, v) at time t: u on labels x - t, v on labels x + t."""

    t: float
    u: np.ndarray
    v: np.ndarray
    grid: Grid

    def __post_init__(self):
        if self.u.shape != (self.grid.n_cells,) or self.v.shape != (self.grid.n_cells,):
            raise ValueError(f"u and v must have length n_cells = {self.grid.n_cells}")


def at_nodes(a: np.ndarray, b: np.ndarray, lo: int, hi: int, s: int) -> tuple:
    """a (on labels x - t) and b (on labels x + t) at nodes lo..hi of cell level s.

    A label off the domain reads zero; a plain slice would wrap around.
    """
    out = []
    for c, first in ((a, lo - s), (b, lo + s)):
        row = np.zeros(hi - lo + 1, c.dtype)
        i = max(first, 0)
        j = max(min(first + len(row), len(c)), i)
        row[i - first:j - first] = c[i:j]
        out.append(row)
    return tuple(out)


def charge(fld: SpinorField) -> float:
    """Total charge Q = h * sum(|u|^2 + |v|^2).

    The sum runs over labels; it is the trapezoid rule on the whole line,
    where the field is zero off the domain's labels.  Raises on non-finite
    samples (solver blow-up).
    """
    if not (np.all(np.isfinite(fld.u)) and np.all(np.isfinite(fld.v))):
        raise FloatingPointError("non-finite samples in spinor field: solver blow-up")
    return float(fld.grid.h * (np.sum(np.abs(fld.u) ** 2) + np.sum(np.abs(fld.v) ** 2)))


@dataclass(frozen=True)
class TriangleRegion:
    """Backward characteristic triangle with base [a, b] at time t0.

    The apex sits at ((a+b)/2, (b-a)/2 + t0).
    """

    a: float
    b: float
    t0: float = 0.0

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if self.t0 < 0:
            raise ValueError(f"t0 must be >= 0, got {self.t0}")

    @property
    def apex_x(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def apex_t(self) -> float:
        return 0.5 * (self.b - self.a) + self.t0


def triangle_nodes(region: TriangleRegion, tau: float, grid: Grid, scheme) -> tuple:
    """Steps (k0, k_tau) of t0 and tau and node indices (ja, jb) of a and b.

    Raises ValueError unless the run's `solver.Scheme` steps one cell at a
    time, t0 <= tau <= min(apex time, t_final), and a, b, t0, tau lie on nodes
    of the domain.
    """
    if scheme.cells != 1:
        raise ValueError(f"triangle balance expects a unit-step scheme, not {scheme.kind}")
    if not region.t0 - 1e-12 <= tau <= region.apex_t + 1e-12:
        raise ValueError(f"tau = {tau} outside [t0, apex] = [{region.t0}, {region.apex_t}]")
    return (grid.step_of(region.t0), grid.step_of(tau),
            grid.index_of(region.a), grid.index_of(region.b))


@dataclass
class InitialData:
    """Sampled initial data (u0, v0) on a grid, with its charge budget c0.

    c0 is the trapezoid-rule charge of the current samples, so it follows a
    reassigned u0 or v0; it is the sharpest admissible constant for every
    exponential bound downstream.  Construction checks that the samples fit
    the grid and are finite.
    """

    family: str
    params: dict
    grid: Grid
    u0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        self.c0  # the charge rejects samples that do not fit the grid or are not finite

    @property
    def c0(self) -> float:
        return charge(SpinorField(0.0, self.u0, self.v0, self.grid))


def _component_params(shape_params: Mapping, comp: str) -> tuple[float, float, float, float]:
    p = shape_params
    return (float(p.get(f"{comp}_center", 0.0)),
            float(p.get(f"{comp}_width", 1.0)),
            float(p.get(f"{comp}_amplitude", 1.0)),
            float(p.get(f"{comp}_phase", 0.0)))


def _check_shape(comp: str, width: float, amp: float):
    if width <= 0:
        raise ValueError(f"{comp}_width must be positive, got {width}")
    if not np.isfinite(amp):
        raise ValueError(f"{comp}_amplitude must be finite, got {amp}")


def _gaussian_samples(x, center, width, amp, phase):
    vals = amp * np.exp(-(((x - center) / width) ** 2)) * np.exp(1j * phase)
    vals = np.asarray(vals, dtype=complex)
    vals[np.abs(vals) < UNDERFLOW_FLOOR] = 0.0
    return vals


def _bump_samples(x, center, width, amp, phase):
    # C^infinity bump: amp * exp(1 - 1/(1 - s^2)) on |s| < 1, exactly zero outside.
    s = (x - center) / width
    vals = np.zeros(len(x), dtype=complex)
    inside = np.abs(s) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        vals[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2)) * np.exp(1j * phase)
    return vals


def make_initial_data(family: str, shape_params: Mapping, grid: Grid) -> InitialData:
    """Sample one of the built-in initial-data families on the grid.

    Families
    --------
    zero       u0 = v0 = 0
    gaussian   Gaussian pulses for u0 and v0 (truncated at the underflow floor)
    bump       compactly supported smooth bumps
    separated  bumps with supp(u0) strictly to the right of supp(v0), so the
               right-mover and left-mover depart immediately and the evolution
               is exact free transport

    Per-component shape parameters: {u,v}_center, {u,v}_width, {u,v}_amplitude,
    {u,v}_phase.  Raises ValueError when the declared support does not fit
    inside the domain.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    x = grid.x()
    params = dict(shape_params)

    if family == "zero":
        z = np.zeros(grid.n_cells, dtype=complex)
        return InitialData(family, params, grid, z, z.copy())

    uc, uw, ua, up = _component_params(params, "u")
    vc, vw, va, vp = _component_params(params, "v")
    _check_shape("u", uw, ua)
    _check_shape("v", vw, va)

    gaussian = family == "gaussian"
    for comp, c, w, amp in (("u", uc, uw, ua), ("v", vc, vw, va)):
        if amp == 0.0:
            continue
        if gaussian:
            # Gaussian tails are clipped to exact zeros at the domain edge;
            # reject when the clipped value is not negligible there.
            edge = min(c - grid.x_min, grid.x_max - c)
            too_wide = edge < 0 or abs(amp) * np.exp(-((edge / w) ** 2)) > 1e-12
            r = w * np.sqrt(np.log(abs(amp) / UNDERFLOW_FLOOR))  # |samples| >= floor
        else:
            too_wide, r = c - w < grid.x_min or c + w > grid.x_max, w
        if too_wide:
            raise ValueError(
                f"{comp}0 support [{c - r:.3g}, {c + r:.3g}] is wider than the "
                f"grid [{grid.x_min:.3g}, {grid.x_max:.3g}]; enlarge the domain")
    sampler = _gaussian_samples if gaussian else _bump_samples

    u0 = sampler(x, uc, uw, ua, up)
    v0 = sampler(x, vc, vw, va, vp)

    if family == "separated":
        if not (ua == 0.0 or va == 0.0 or uc - uw >= vc + vw):
            raise ValueError(
                "separated family requires supp(u0) strictly to the right of "
                f"supp(v0); got u support [{uc - uw}, {uc + uw}] and "
                f"v support [{vc - vw}, {vc + vw}]"
            )

    return InitialData(family, params, grid, u0, v0)
