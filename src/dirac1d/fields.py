"""Grids, model parameters, the charge and the built-in initial-data families.

The spatial lattice is uniform with unit CFL (the time step equals the space
step), so both characteristic families x - t = const and x + t = const pass
exactly through lattice nodes.  A state is the pair (u, v) of arrays over
the n_cells labels of the domain [x_min, x_max]: u by its label y = x - t and
v by z = x + t, which at t = 0 are the nodes.  Data start inside the domain
and each label keeps its support, so the whole-line problem needs no boundary
modeling at all; a node whose label lies off the domain reads zero.  Times,
coordinates and spans are whole numbers of cells, by one rule: `lattice_count`;
a time is a cell level by one rule too: `time_level`.  The families' shape keys
{u,v}_<name> and their defaults are one table: `SHAPE`.  Every certified bound
is a power of the pointwise envelope, `ModelParams.envelope`, times a quantity
of the data, and an infinite factor bounds a zero quantity by 0: `scaled`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

# Values below this magnitude are treated as exact zeros when sampling
# Gaussian data, making every family effectively compactly supported.
UNDERFLOW_FLOOR = 1e-300

FAMILIES = ("gaussian", "bump", "separated", "zero")

# Per-component shape parameters of the families, the key {u,v}_<name>, with defaults
SHAPE = {"center": 0.0, "width": 1.0, "amplitude": 1.0, "phase": 0.0}
SHAPE_KEYS = tuple(f"{c}_{name}" for c in "uv" for name in SHAPE)

# Steps per run stay below this: from 2**52 up every float T / h is a whole number
MAX_STEPS = 2 ** 52


def lattice_count(value: float, h: float) -> int | None:
    """The whole number n of cells of width h > 0 that value spans, or None.

    That is n with |value / h - n| <= 1e-9, which forgives the roundoff of a
    step that is not a power of two; a quotient that is not finite is no
    count, and a nonzero value never spans zero cells.
    """
    r = value / h
    n = round(r) if np.isfinite(r) else None
    if n is None or abs(r - n) > 1e-9 or (n == 0 and value != 0):
        return None
    return n


def time_level(t: float, h: float, cells: int = 1, n_steps: float = math.inf) -> int:
    """The cell level k of time t: t spans k cells of h (`lattice_count`),
    0 <= k <= n_steps, and steps of `cells` cells reach k.  Raises ValueError
    naming t otherwise."""
    k = lattice_count(t, h)
    if k is None:
        raise ValueError(f"t = {t} is not a multiple of h = {h}")
    if not 0 <= k <= n_steps:
        raise ValueError(f"t = {t} outside the run horizon [0, {n_steps * h}]")
    if k % cells:
        raise ValueError(f"t = {t} is {k} cells of h = {h}, which steps of {cells} cells "
                         "do not divide evenly")
    return k


def is_integer(n) -> bool:
    """Whether range() takes n: its type has __index__, which 3.0's lacks."""
    return hasattr(type(n), "__index__")


@dataclass(frozen=True)
class ModelParams:
    """Coupling constants of the nonlinearity W = alpha|u|^2|v|^2 + beta(ub*v + u*vb)^2."""

    alpha: float
    beta: float

    def __post_init__(self):  # per-sample arrays too (cli._identity_sweep)
        if not (np.isfinite(self.alpha).all() and np.isfinite(self.beta).all()):
            raise ValueError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")

    @property
    def c_star(self) -> float:
        """Lipschitz envelope of the nonlinearity: |N1| <= c_star * |u| |v|^2.

        Always recomputed from (alpha, beta); never stored independently.
        """
        return abs(self.alpha) + 4.0 * abs(self.beta)

    def envelope(self, c0: float, k: int) -> float:
        """E^k for the pointwise envelope E = exp(4|beta| C0) of charge C0:

            |u(y + s, s)| <= E |u0(y)|,   |v(z - s, s)| <= E |v0(z)|.

        Every certified bound is a power of E; past the float range E^k is inf.
        """
        with np.errstate(over="ignore"):
            return float(np.exp(4.0 * k * abs(self.beta) * c0))

    @classmethod
    def thirring(cls) -> "ModelParams":
        return cls(alpha=1.0, beta=0.0)

    @classmethod
    def gross_neveu(cls) -> "ModelParams":
        return cls(alpha=0.0, beta=0.25)


def scaled(factor: float, x):
    """factor * x for x >= 0, a float or an array, where an infinite factor
    bounds a zero x by 0; a product past the float range is inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(np.equal(x, 0.0), 0.0, np.multiply(factor, x))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Grid:
    """Uniform unit-CFL lattice over [x_min, x_max].

    Attributes
    ----------
    x_min : left edge of the domain, finite
    h : space step, also the time step; positive and finite
    n_cells : number of nodes in [x_min, x_max], an integer >= 1
    n_steps : number of time steps of the run, an integer in [0, MAX_STEPS)
    """

    x_min: float
    h: float
    n_cells: int
    n_steps: int

    def __post_init__(self):
        if not np.isfinite(self.x_min):
            raise ValueError(f"x_min must be finite, got {self.x_min}")
        if not 0 < self.h < np.inf:  # NaN too
            raise ValueError(f"h must be positive and finite, got {self.h}")
        for name, n, least in (("n_cells", self.n_cells, 1), ("n_steps", self.n_steps, 0)):
            if not (is_integer(n) and n >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
        if self.n_steps >= MAX_STEPS:
            raise ValueError(f"n_steps must be below 2**52, got {self.n_steps}")

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

        Raises ValueError when x is not a lattice node (`lattice_count`) or
        falls outside [x_min, x_max].
        """
        j = lattice_count(x - self.x_min, self.h)
        if j is None:
            raise ValueError(f"x = {x} is not a lattice node (h = {self.h})")
        if not 0 <= j < self.n_cells:
            raise ValueError(f"x = {x} lies outside [{self.x_min}, {self.x_max}]")
        return j

    def step_of(self, t: float, cells: int = 1) -> int:
        """Cell level of time t, a whole number of steps of `cells` cells within
        the run (`time_level`)."""
        return time_level(t, self.h, cells, self.n_steps)

    @classmethod
    def from_domain(cls, x_min: float, x_max: float, h: float, t_final: float) -> "Grid":
        """Grid covering [x_min, x_max] for a run of length t_final.

        (x_max - x_min) and t_final must be whole numbers of cells of h.
        """
        n_span = lattice_count(x_max - x_min, h)
        if n_span is None:
            raise ValueError(f"x_max - x_min = {x_max - x_min} is not a multiple of h = {h}")
        n_t = lattice_count(t_final, h)
        if n_t is None:
            raise ValueError(f"t_final = {t_final} is not a multiple of h = {h}")
        return cls(x_min=x_min, h=h, n_cells=n_span + 1, n_steps=n_t)


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


def charge(u: np.ndarray, v: np.ndarray, h: float) -> float:
    """Total charge Q = h * sum(|u|^2 + |v|^2) of u and v sampled with step h.

    The sum runs over labels; it is the trapezoid rule on the whole line,
    where the field is zero off the domain's labels.  Raises on non-finite
    samples (solver blow-up); a charge past the float range is inf.
    """
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise FloatingPointError("non-finite samples in spinor field: solver blow-up")
    with np.errstate(over="ignore"):
        return float(h * (np.sum(np.abs(u) ** 2) + np.sum(np.abs(v) ** 2)))


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
        if not self.t0 >= 0:  # NaN too
            raise ValueError(f"t0 must be >= 0, got {self.t0}")

    @property
    def apex_t(self) -> float:
        return 0.5 * (self.b - self.a) + self.t0


@dataclass
class InitialData:
    """Sampled initial data (u0, v0) on a grid, with its charge budget c0.

    c0 is the trapezoid-rule charge of the current samples, so it follows a
    reassigned u0 or v0; it is the sharpest admissible constant for every
    exponential bound downstream.  Construction checks that the samples fit
    the grid, are finite and have a finite charge.
    """

    grid: Grid
    u0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        if self.u0.shape != (self.grid.n_cells,) or self.v0.shape != (self.grid.n_cells,):
            raise ValueError(f"u0 and v0 must have length n_cells = {self.grid.n_cells}")
        if not (np.all(np.isfinite(self.u0)) and np.all(np.isfinite(self.v0))):
            raise ValueError("u0 and v0 must be finite")
        if self.c0 == np.inf:
            raise ValueError("the charge of the data overflows")

    @property
    def c0(self) -> float:
        return charge(self.u0, self.v0, self.grid.h)


def _shape(shape_params: Mapping, comp: str) -> tuple[float, ...]:
    """Component comp's (center, width, amplitude, phase), `SHAPE`'s defaults
    standing in for absent keys; raises ValueError naming a bad key."""
    center, width, amp, phase = (float(shape_params.get(f"{comp}_{name}", default))
                                 for name, default in SHAPE.items())
    if not width > 0:  # NaN too
        raise ValueError(f"{comp}_width must be positive, got {width}")
    for name, value in (("center", center), ("amplitude", amp), ("phase", phase)):
        if not np.isfinite(value):
            raise ValueError(f"{comp}_{name} must be finite, got {value}")
    return center, width, amp, phase


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
    {u,v}_phase (`SHAPE`).  Raises ValueError when the declared support does
    not fit inside the domain.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    x = grid.x()

    if family == "zero":
        z = np.zeros(grid.n_cells, dtype=complex)
        return InitialData(grid, z, z.copy())

    shapes = [_shape(shape_params, comp) for comp in "uv"]  # both checked before any support
    gaussian = family == "gaussian"
    for comp, (c, w, amp, _) in zip("uv", shapes):
        far = max(c - grid.x_min, grid.x_max - c) / w
        if not far * far < np.inf:  # the samplers square (x - center) / width
            raise ValueError(f"{comp}_width = {w} with {comp}_center = {c}: ((x - center) / "
                             f"width)^2 overflows on [{grid.x_min}, {grid.x_max}]")
        if amp == 0.0:
            continue
        if gaussian:
            # Gaussian tails are clipped to exact zeros at the domain edge;
            # reject when the clipped value is not negligible there.
            edge = min(c - grid.x_min, grid.x_max - c)
            too_wide = edge < 0 or abs(amp) * np.exp(-((edge / w) ** 2)) > 1e-12
            # |samples| >= floor within r of c; r is 0 when |amp| is below the floor
            r = w * float(np.sqrt(max(np.log(abs(amp)) - np.log(UNDERFLOW_FLOOR), 0.0)))
        else:
            too_wide, r = c - w < grid.x_min or c + w > grid.x_max, w
        if too_wide:
            raise ValueError(
                f"{comp}0 support [{c - r:.3g}, {c + r:.3g}] is wider than the "
                f"grid [{grid.x_min:.3g}, {grid.x_max:.3g}]; enlarge the domain")

    if family == "separated":
        (uc, uw, ua, _), (vc, vw, va, _) = shapes
        if not (ua == 0.0 or va == 0.0 or uc - uw >= vc + vw):
            raise ValueError(
                "separated family requires supp(u0) strictly to the right of "
                f"supp(v0); got u support [{uc - uw}, {uc + uw}] and "
                f"v support [{vc - vw}, {vc + vw}]"
            )

    sampler = _gaussian_samples if gaussian else _bump_samples
    u0, v0 = (sampler(x, *shape) for shape in shapes)
    return InitialData(grid, u0, v0)
