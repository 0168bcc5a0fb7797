"""Advance the spinor field along exact characteristics on the unit-CFL lattice.

Along x - t = const the right-mover obeys du/ds = -i N1(u, v); along
x + t = const the left-mover obeys dv/ds = -i N2(u, v).  With the time step
equal to the space step every characteristic advances exactly one cell per
step, so there is no interpolation anywhere and the scheme's only error is
the quadrature of the source along the characteristic segment.

u is held on its characteristic labels y = x - t and v on z = x + t, so
free transport is index arithmetic.  N1 and N2 vanish wherever u or v does,
so a step looks only at the hull window: the new-level nodes whose
characteristic foot or head lies in the overlap of the two supports (the
previous overlap widened by one cell per side, two for oracle4).  The
trapezoid and oracle4 steps trim it to the nodes whose sources can be nonzero
and keep every bit and sweep count of a whole-lattice step for every input,
each -0 of the data loaded as +0 (`_Labels.trim`); phase_split steps the hull
window.  Snapshots keep the labels of [x_min, x_max]: no label leaves its
initial support, which lies in the domain.  A fixed-point sweep evaluates
both sources in one `eval_N` call per level.  The kernels write into rows of
one scratch array.

Three schemes are provided:

trapezoidal   implicit trapezoid rule per node, the production second-order
              scheme; the per-node 2x2 complex fixed point is solved by
              iteration (the map is a contraction for small h * amplitude^2).
phase_split   exact-modulus variant for beta = 0: the nonlinearity is then a
              pure phase rotation, so moduli are transported exactly.  Each
              label's turn depends only on its partners' data moduli, so
              `_turns` builds them once, with the bits of cexp, and a step is
              one product; the stored moduli stay the data's, which `commit`
              evaluates the sources at and does not guard again.
oracle4       fourth-order reference: 3-stage Lobatto IIIA collocation over a
              double step (time step 2h), whose half-step abscissae land
              exactly on lattice nodes.  Used for cross-validation.

Each run also accumulates per label the integral A1 of N1 (A2 of N2) along
its characteristic, for the asymptotics layer's profiles.  After setup only
`_Labels.commit` writes sources and traces, adding the panel of the very
sources it stores, so u(t) = u0 - i A1(t) telescopes exactly; it writes the
state too, but for phase_split's step, which turns the state in place.

`run` is the step loop alone: before the first step and after each step it
hands one `Step` record to every probe.  The `Trajectory` it returns is the
first probe and keeps the snapshots; the per-step certificates are the others
(`conservation.TriangleSides`, `ModulusDrift`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fields import Grid, InitialData, ModelParams, charge, is_integer, lattice_count
# eval_N1 and eval_N2 are not called: the benchmark's tracer looks them up here
from .nonlinearity import eval_N, eval_N1, eval_N2  # noqa: F401

BLOWUP_LIMIT = 1e6

# Labels the widest window (oracle4's half level) reaches past the supports
MARGIN = 4

# Rows of a run's scratch array `_Labels.work`, each a complex row as long as the
# label arrays and sliced to a window.  A pair takes two rows; a real (boolean) pair
# is one complex row's float (bool) view.  0 `_fixed_point`'s move, 1 its modulus
# (real); 2 `trim`'s lifted products (real), 3 its loud flags (bool), and
# `_fixed_point`, run after `trim`, row 2 for its moved flags (bool); 4-5
# `commit`'s new sources, 6-7 the trace panel; from 8 on the kernel's.
# trapezoidal: 8-9 the constant part, 10-11 the products i h/2 N, 12-13 and
# 14-15 the iterates of alternate sweeps.  phase_split: 8-9 the turns, which
# `_turns` builds once from 10, the squared data moduli, and 11, the angles
# (real); nothing writes row 10 after `_turns`, so `commit` reads the squares
# there on every step.  oracle4: 8-9 the half level's sources, 10-11 the new
# sources on the half level, 12-15 and 16-19 the (full, half) stages of
# alternate sweeps, 20 a Lobatto term.
WORK_ROWS = 21

# Bytes a run's `_Labels` holds per label: the (2, L) pairs w, sources and traces
# (complex), moduli (real), and the scratch rows
LABEL_BYTES = 3 * 32 + 16 + WORK_ROWS * 16

# A pair of stored moduli (a, b) is quiet when c_star * a * b * max(a, b) is
# below 2**QUIET_EXP, 2**-10 times half the smallest subnormal (_Labels.trim
# spends the margin).  The product is formed on moduli lifted by 2**LIFT_EXP,
# so near the bound it is a normal number and rounds by at most one ulp.
QUIET_EXP = -1085
LIFT_EXP = 300


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
        # an infinite tolerance would stop every implicit step after one explicit sweep
        if not 0 < (tol := self.fixed_point_tol) < math.inf:
            raise ValueError(f"fixed_point_tol must be > 0 and finite, got {tol}")
        # _fixed_point counts its sweeps with range(), which takes only integers
        if not (is_integer(n := self.fixed_point_max_iter) and n >= 1):
            raise ValueError(f"fixed_point_max_iter must be an integer >= 1, got {n!r}")

    @property
    def cells(self) -> int:
        """Lattice cells one step advances: the time step is cells * h."""
        return _KERNELS[self.kind][1]

    def check_couplings(self, m: ModelParams) -> None:
        """Raise ValueError unless the scheme is exact for couplings m:
        phase_split needs beta = 0, where the nonlinearity is a pure phase
        rotation."""
        if self.kind == "phase_split" and m.beta != 0.0:
            raise ValueError(f"phase_split needs beta = 0, got {m.beta}")


class Step(NamedTuple):
    """What every probe sees before the first step and after each step: the
    cell level, the step's fixed-point sweeps (0 before the first step) and
    read-only (2, n_cells) views by label over the domain of the state
    w = (u, v) and the traces (A1, A2).  A probe that needs |u| or |v| takes
    np.abs of w, so it reads the computed states.  The views are the run's own
    arrays, which the next step overwrites: a probe copies what it keeps."""

    level: int
    sweeps: int
    w: np.ndarray
    traces: np.ndarray


@dataclass
class Trajectory:
    """Recorded states and per-characteristic trace integrals, keyed by cell
    level (time level * h) in increasing order.

    `snapshots[level]` holds the record (u, v, A1, A2) by label, like the
    solver: u and A1 on labels y = x - t, v and A2 on y = x + t, with the
    composite trapezoid integrals A1(y, t) = int_0^t N1 along (y + s, s) and
    A2(y, t) = int_0^t N2 along (y - s, s).  The traces at t = grid.t_final
    feed the scattering profiles.  `snapshot_at(t)` returns the record at t,
    found by its lattice count.  The lattice is the data's: `grid` is
    `data.grid`.  A trajectory is a probe of `run`: `on_step` keeps the most
    sweeps of any step and copies the record at each of `record_levels`.
    """

    params: ModelParams
    data: InitialData
    record_levels: frozenset[int] = frozenset()
    snapshots: dict[int, tuple[np.ndarray, ...]] = field(default_factory=dict)
    max_fp_iterations: int = 0

    @property
    def grid(self) -> Grid:
        return self.data.grid

    @property
    def times(self) -> list[float]:
        return [level * self.grid.h for level in self.snapshots]

    def snapshot_at(self, t: float) -> tuple[np.ndarray, ...]:
        level = lattice_count(t, self.grid.h)
        if level not in self.snapshots:
            raise ValueError(f"nothing recorded at t = {t}; recorded times: {self.times}")
        return self.snapshots[level]

    def on_step(self, step: Step):
        self.max_fp_iterations = max(self.max_fp_iterations, step.sweeps)
        if step.level in self.record_levels:
            self.snapshots[step.level] = tuple(np.concatenate((step.w, step.traces)))


class _Labels:
    """u on labels y = x - t and v on labels z = x + t, advanced by one scheme.

    At cell level s, u's label i sits at node i + s and v's label i at node
    i - s.  Each pair is one (2, L) array, u's row over v's, indexed by label
    + MARGIN: the state `w` = (u, v), its `moduli` (|u|, |v|), the `sources`
    (N1, N2) at the current level and the `traces` (A1, A2); `work` holds every
    scratch row (`WORK_ROWS`).  The zero margin holds the labels a window
    reaches past the domain.  A step addresses its window (iu, iv, n), the u
    and v labels of its first node and its node count, through `_pair` views.
    """

    def __init__(self, data: InitialData, m: ModelParams, s: Scheme):
        s.check_couplings(m)
        self.level, self.m, self.s, self.grid, self.h = 0, m, s, data.grid, data.grid.h
        self.w = np.pad(np.stack((data.u0, data.v0)), ((0, 0), (MARGIN, MARGIN)))
        self.w += 0.0  # -0 -> +0, every other value kept (see trim)
        self.moduli = np.abs(self.w)
        self.sources, self.traces = np.zeros_like(self.w), np.zeros_like(self.w)
        self.work = np.empty((WORK_ROWS, self.w.shape[1]), complex)
        # A label's support never grows (N1 vanishes where u does, N2 where v
        # does), so the initial supports bound every later overlap.
        iu, iv = np.flatnonzero(data.u0), np.flatnonzero(data.v0)
        self.hull = ((int(iu[0]), int(iu[-1]), int(iv[0]), int(iv[-1]))
                     if iu.size and iv.size else None)
        self.guard(self.moduli, -MARGIN)
        # the squared moduli `commit` evaluates a transporting scheme's sources at
        self.squares = _turns(self) if _KERNELS[s.kind][3] else None
        if (win := self.window(0)) is not None:
            win = self.labels(*win, 0)
            eval_N(_pair(self.w, *win), m, out=_pair(self.sources, *win))

    def advance(self) -> int:
        """One step of the scheme; returns its fixed-point sweeps."""
        kernel, cells, reach, _ = _KERNELS[self.s.kind]
        hull = self.window(cells)
        self.level += cells
        win = hull if hull is None or reach is None else self.trim(*hull, reach)
        if win is None:  # for a hull of quiet nodes the first sweep is the fixed point
            return 0 if hull is None else 1
        win = self.labels(*win, self.level)
        W, panel, sweeps = kernel(self, *win)
        self.commit(win, W, panel)
        return sweeps

    def window(self, w: int) -> tuple[int, int] | None:
        """Nodes (lo - w, hi + w) around the supports' overlap lo..hi, or None."""
        if self.hull is None:
            return None
        ulo, uhi, vlo, vhi = self.hull
        lo = max(ulo + self.level, vlo - self.level) - w
        hi = min(uhi + self.level, vhi - self.level) + w
        return (lo, hi) if lo <= hi else None

    def trim(self, lo: int, hi: int, r: int) -> tuple[int, int] | None:
        """Nodes lo..hi of the new level from their first to their last node
        that is not quiet; None when every one is quiet.

        r is the half level's reach: 0 for the trapezoid, whose node x (u
        label i, v label j) evaluates only the pair (i, j); 2 for oracle4,
        whose node x also evaluates the half-level pairs (i, j - 2), at node
        x - 1, and (i + 2, j), at node x + 1.

        Node x is quiet when its stored sources N1 at i and N2 at j are exact
        zeros and every pair it evaluates is quiet by its stored moduli a, b:
        c_star * a * b * max(a, b) < 2**QUIET_EXP.  Then:

        * eval_N at the pair returns exact zeros.  Before its last rounding
          each component of a source is at most 16 c_star |u| |v| max(|u|,
          |v|) (an earlier rounding at most doubles a value), and
          |u| <= sqrt(2) a, so it is below half the smallest subnormal and
          rounds to zero.  That spends 2**6 of the margin.
        * The first iterate is the stored state: a stored value minus or
          plus zeros keeps its bits unless it is -0, and no stored u or v
          is: __init__ turns each -0 of the data into +0, and the trapezoid
          and oracle4 kernels never make one (x - y and x + y are -0 only
          when x is; phase_split, which does not trim, can).  So the node
          adds 0 to every sweep's largest move and leaves the sweeps
          unchanged, its traces gain zeros, and skipping it changes no bit.
        * oracle4 alone pairs a node across the trimmed window's edge, at a
          half-level pair, with a label the window moves.  Let A be the
          largest stored modulus and B = 1.5 A.  If dt c_star A^2 <= 1/7,
          every iterate of a sweep stays within B, so a moved label's
          modulus stays within 1.48 times its stored one, plus 13 times half
          the smallest subnormal where dt (B^2 + (2 c_star + 1) B + 5) <= 8
          bounds the roundings.  The pair's last products then stay below
          0.4 times half the smallest subnormal.  Where these bounds fail
          the window is not trimmed.
        * oracle4's half level also steps u labels i_hi + 1, i_hi + 2 and v
          labels j_lo - 2, j_lo - 1, whose stored sources are zero, so the
          rule does not read them.  Each lies past u's hull, where u is 0, or
          its v partner at the stored level lies past v's hull.  Such a
          label's source is zero, by induction on the level: __init__
          evaluates only the overlap; a step writes it from a zero v (N1
          vanishes where v does), or leaves it, where it held before or, if
          its previous partner was in v's hull and its u nonzero, lay on a
          quiet flank of the hull, whose sources the rule checked.  v's side
          mirrors this.

        One pass over the run's stored state: the pair test over every node
        gives the outermost loud nodes; the quiet flanks' sources follow.
        """
        (iu, iv, n), bound = self.labels(lo, hi, self.level), quiet_bound(self.m)
        if r:
            amp = self.moduli.max()
            lim, dt, c = 1.5 * amp, r * self.h, self.m.c_star  # lim bounds every iterate
            if 7.0 * dt * c * amp ** 2 > 1.0 or dt * (lim ** 2 + (2 * c + 1) * lim + 5) > 8.0:
                return lo, hi

        p, q = self.work[2].view(float).reshape(2, -1)[:, :n + r]
        loud, half = self.work[3].view(bool).reshape(2, -1)[:, :n + r]
        loud = _loud_pairs(*_pair(self.moduli, iu, iv, n), bound, p[:n], q[:n], loud[:n])
        if r:  # loud[k] |= half[k], pair (i, j - 2), and half[k + r], pair (i + 2, j)
            _loud_pairs(*_pair(self.moduli, iu, iv - r, n + r), bound, p, q, half)
            loud |= half[:n]
            loud |= half[r:]
        k_lo, k_hi = _first(loud), _last(loud)

        src = _pair(self.sources, iu, iv, n).view(float)  # (real, imaginary) pairs
        if (flank := src[:, :2 * k_lo]).any():  # the labels of nodes 0..k_lo - 1
            k_lo = _first(flank.any(axis=0)) // 2
        if k_lo == n:
            return None
        k_hi = max(k_hi, k_lo)
        if (flank := src[:, 2 * (k_hi + 1):]).any():  # of nodes k_hi + 1..n - 1
            k_hi += 1 + _last(flank.any(axis=0)) // 2
        return lo + k_lo, lo + k_hi

    def labels(self, lo: int, hi: int, s: int) -> tuple[int, int, int]:
        """The window (iu, iv, n) of nodes lo..hi at cell level s."""
        return MARGIN + lo - s, MARGIN + lo + s, hi - lo + 1

    def node(self, iu: int) -> int:
        """The node of u's label iu at the current level."""
        return iu - MARGIN + self.level

    def commit(self, win: tuple, W, panel):
        """Store a step's W = (U, V) on the window win with its sources; a scheme
        that does not transport the moduli also stores |W| and guards it.  The
        traces first gain panel(stored sources, new sources): the step's
        quadrature of the very sources it stores, so u = u0 - i A1 telescopes."""
        mod, src, traces = (_pair(a, *win) for a in (self.moduli, self.sources, self.traces))
        if self.squares is None:  # else the stored moduli are the data's, checked once
            self.guard(np.abs(W, out=mod), self.node(win[0]))
        squares = np.square(mod) if self.squares is None else _pair(self.squares, *win)
        new = eval_N(W, self.m, squares, out=self.work[4:6, :win[2]])
        traces += panel(src, new)
        _pair(self.w, *win)[...], src[...] = W, new  # phase_split's W is w: no copy

    def trapezoid_panel(self, old, new):
        """The trace panel of one cell by the trapezoid rule."""
        out = self.work[6:8, :new.shape[1]]
        return np.multiply(0.5 * self.h, np.add(old, new, out=out), out=out)

    def guard(self, moduli: np.ndarray, first: int):
        """Raise SolverError if a modulus is not finite or exceeds BLOWUP_LIMIT;
        column k of moduli sits at node first + k."""
        amp = np.max(moduli)  # a NaN propagates
        if not np.isfinite(amp) or amp > BLOWUP_LIMIT:
            node = first + int(np.argmax(np.max(moduli, axis=0)))
            raise SolverError(f"field blow-up at t = {self.level * self.h:.6g} "
                              f"({self.at(node)}): max amplitude {amp:.3g}")

    def at(self, node: int) -> str:
        """The step and the node, with its x, where a solve failed."""
        return (f"step {self.level // self.s.cells}, node {node} "
                f"at x = {self.grid.x_min + node * self.h:.6g}")


def _pair(a: np.ndarray, iu: int, iv: int, n: int) -> np.ndarray:
    """The (2, n) view of a contiguous (2, L) pair array whose rows start at
    labels iu and iv (+ MARGIN)."""
    size = a.itemsize
    return np.ndarray((2, n), a.dtype, a, iu * size, ((a.shape[1] + iv - iu) * size, size))


def quiet_bound(m: ModelParams) -> float:
    """The bound on LIFT * a * b * max(a, b) below which stored moduli a, b
    make a quiet pair under the couplings m.

    The lift keeps the comparison exact enough while c_star < 2**200: a lifted
    product that underflows comes from a * b * max(a, b) < 2**-1302 (moduli
    stay below 2**20).  Past that nothing is quiet.
    """
    c = m.c_star
    if c == 0.0:
        return math.inf
    return math.ldexp(1.0, QUIET_EXP + LIFT_EXP) / c if c < 2.0 ** 200 else 0.0


def _loud_pairs(a, b, bound: float, p, q, out):
    """out <- LIFT * a * b * max(a, b) >= bound elementwise, with the buffers p, q."""
    np.multiply(a, 2.0 ** LIFT_EXP, out=p)
    p *= b
    p *= np.maximum(a, b, out=q)
    return np.greater_equal(p, bound, out=out)


def _first(mask: np.ndarray) -> int:
    """Index of the first True in a nonempty mask, or its length."""
    k = int(mask.argmax())
    return k if mask[k] else len(mask)


def _last(mask: np.ndarray) -> int:
    """Index of the last True in a nonempty mask, or -1."""
    return len(mask) - 1 - _first(mask[::-1])


def _fixed_point(sweep, start: tuple, slots, lab: _Labels, firsts: tuple, shifts: tuple):
    """Iterate x <- sweep(cols, out, *x) from start until no component moves by more
    than tol * (1 + max(max|u|, max|v|)), or raise at the first sweep whose move is not
    finite; returns the last iterate, the sweeps and the columns its last sweep moved.
    An error names the step and the node that moved most in the last sweep.  Sweep k
    writes its iterate into out = slots[k % 2], so no sweep writes over its input.

    start is a tuple of (2, .) stages; column k of stage i sits at node firsts[i] + k,
    and its u and v rows at columns k + shifts[i][0] and k + shifts[i][1] of the
    sweep's columns.  The first sweep gets every column; from the second on, `cols`
    is the span of the columns the previous sweep moved (|new - old| > 0), widened by
    the kernel's reach (`_KERNELS`): the columns whose value a moved column can
    change.  The sweep evaluates only `cols` and leaves its slot `out` as it is
    elsewhere, and the iterate is the same bits as a sweep over every column:

    * Outside `cols` nothing that a column reads moved, so a full sweep would give
      the previous iterate's value there.  Sweep 2's slot, slots[0], is filled there
      from sweep 1's iterate.  From sweep 3 on the slot holds the iterate of two sweeps
      back, whose columns outside `cols` did not move in the previous sweep, so they
      equal the previous iterate in value.  No stage holds a -0 (a stage adds a value
      to the state, which holds none; see `_Labels.trim`), so equal values are equal
      bits.
    * Inside `cols` the sweep reads the sources of the previous iterate: by
      induction over sweeps, a source row the sweep keeps, where `cols` does not
      reach, holds the sources of a column that has not moved since they were made.

    So the moves outside `cols` are exactly 0: the stop test and the sweep count,
    which form the moves over `cols` only, and the node an error names are those of
    full sweeps.
    """
    s, x, reach = lab.s, start, _KERNELS[lab.s.kind][2]
    scale = 1.0 + np.max(lab.moduli)
    move, modulus, moved = (lab.work[k].view(t) for k, t in ((0, complex), (1, float), (2, bool)))
    lo, hi = 0, lab.w.shape[1]  # the sweep's columns
    for iters in range(1, s.fixed_point_max_iter + 1):
        new = sweep(slice(lo, hi), slots[iters % 2], *x)
        deltas, ends = [], []
        # row by row: at fine h one row's move stays in a core's cache, a pair's does not
        for stage, last, shift in zip(new, x, shifts):
            for a, b, k in zip(stage, last, shift):
                i = min(max(lo - k, 0), a.size)
                j = min(max(hi - k, i), a.size)
                if iters == 2:
                    a[:i], a[j:] = b[:i], b[j:]
                d = np.abs(np.subtract(a[i:j], b[i:j], out=move[:j - i]), out=modulus[:j - i])
                deltas.append(d.max(initial=0.0))
                if deltas[-1] > 0.0:  # then a flag is set: its first and last column
                    flags = np.greater(d, 0.0, out=moved[:j - i])
                    ends += [i + k + flags.argmax(), j + k - flags[::-1].argmax()]
        if not all(map(math.isfinite, deltas)):
            raise SolverError(f"fixed-point iteration diverged at t = {lab.level * lab.h:.6g}: "
                              f"sweep {iters} moved the iterate by {np.max(deltas):.3g} "
                              f"({lab.at(_worst(new, x, firsts))})")
        x, old = new, x
        span = slice(min(ends, default=0), max(ends, default=0))
        if max(deltas) <= s.fixed_point_tol * scale:
            return x, iters, span
        lo, hi = max(span.start - reach, 0), span.stop + reach
    raise SolverError(
        f"fixed-point iteration did not converge in {s.fixed_point_max_iter} iterations "
        f"({lab.at(_worst(x, old, firsts))}); the time step is too large for the data amplitude")


def _worst(new: tuple, old: tuple, firsts: tuple) -> int:
    """The node that moved most from old to new, the first whose move is not finite if any."""
    moves = np.concatenate([np.abs(a - b).max(axis=0) for a, b in zip(new, old)])
    nodes = np.concatenate([first + np.arange(a.shape[1]) for first, a in zip(firsts, new)])
    return int(nodes[np.argmax(moves)])


def _step_trapezoidal(lab: _Labels, iu: int, iv: int, n: int):
    """Unit-CFL implicit trapezoid on the window's labels; returns (W, panel, sweeps).
    A node's new value reads its own pair alone: its reach is 0."""
    h, m = lab.h, lab.m
    base, half_step, *slots = lab.work[8:16, :n].reshape(4, 2, -1)
    np.multiply(0.5j * h, _pair(lab.sources, iu, iv, n), out=half_step)
    np.subtract(start := _pair(lab.w, iu, iv, n), half_step, out=base)

    def sweep(cols, out, W):
        N = eval_N(W[:, cols], m, out=half_step[:, cols])
        np.subtract(base[:, cols], np.multiply(N, 0.5j * h, out=N), out=out[:, cols])
        return (out,)

    (W,), iters, _ = _fixed_point(sweep, (start,), slots, lab, (lab.node(iu),), ((0, 0),))
    return W, lab.trapezoid_panel, iters


def _step_phase_split(lab: _Labels, iu: int, iv: int, n: int):
    """Exact-modulus step for beta = 0 on the window's labels; returns (W, panel, 0).

    For the Thirring-type nonlinearity N1 = alpha*u*|v|^2 the characteristic
    ODE is a pure phase rotation, so |u| and |v| transport exactly and every
    turn is data: a node's u turns by the entry of its v label in the table
    `_turns` built, its v by that of its u label (the partner reversal of
    `eval_N`), so the step is one product, in place.
    """
    w = _pair(lab.w, iu, iv, n)
    return np.multiply(w, _pair(lab.work[8:10], iu, iv, n)[::-1], out=w), lab.trapezoid_panel, 0


def _turns(lab: _Labels):
    """Fill work rows 8-9 with phase_split's turns exp(-1j*alpha*h*mid) from the
    data moduli: row 0 at u label i the turn of the v label whose feet are u
    labels i and i + 2, with mid the midpoint of their |u0|^2 (second order);
    row 1 at v label j that of the u label whose feet are v labels j - 2 and j.
    Turns whose feet run past the arrays, which no window reaches, are 1.
    Returns the (2, L) squared data moduli, held in work row 10.

    The exponent has real part +0, where cexp gives (cos, sin) of its
    imaginary part theta: theta is formed with the same bits (+ 0.0 turns a
    zero product's -0 into +0), then cos and sin.  Raises SolverError where
    theta overflows, before any step turns a label by NaN.
    """
    (sq, x), n = lab.work[10:12].view(float).reshape(2, 2, -1), lab.w.shape[1] - 2
    np.square(lab.moduli, out=sq)
    theta = np.multiply(np.add(sq[:, :-2], sq[:, 2:], out=x[:, :n]), 0.5, out=x[:, :n])
    np.add(np.multiply(-(lab.m.alpha * lab.h), theta, out=theta), 0.0, out=theta)
    if not np.isfinite(theta).all():
        raise SolverError(f"phase_split's turns overflow: alpha h = {lab.m.alpha * lab.h:.3g}")
    lab.work[8, n:], lab.work[9, :2] = 1.0, 1.0
    table = _pair(lab.work[8:10], 0, 2, n)
    np.cos(theta, out=table.real)
    np.sin(theta, out=table.imag)
    return sq


# 3-stage Lobatto IIIA (collocation at {0, 1/2, 1}): order 4, and both stage
# abscissae land on lattice nodes when the time step spans two cells.
_L_HALF = (5.0 / 24.0, 1.0 / 3.0, -1.0 / 24.0)
_L_FULL = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)


def _step_oracle4(lab: _Labels, iu: int, iv: int, n: int):
    """Lobatto IIIA double step (time 2h) on the window's full-level labels.

    The half level is solved one node wider per side: its u stage still
    moves by the -1/24 weight of the full-level source one node to its right
    (v: to its left).  By label, that adds two u labels after the full window
    and two v labels before it.  The panel is the order-4 quadrature of the
    source over each segment.  Returns (W, panel, sweeps) at the full level.

    A sweep's column c holds u label iu + c and v label iv - 2 + c, both
    stages: the half level's pair c and the full level's u of pair c and v of
    pair c - 2.  Its reach is 2: column c reads the half level's sources at c
    and the full level's N1 of pair c and N2 of pair c - 2, and the full pair
    c is (u at column c, v at column c + 2), so a moved column c changes the
    sources that columns c - 2, c and c + 2 read.

    The sweep sums -i N with the complex weights -1j * w on plain sources N,
    where the dynamics is w * (-1j * N).  The two agree in value: with
    N = a + bi, both are w b - (w a) i up to terms 0 * a, 0 * b, which are
    +-0, so only the sign of a zero component can differ.  Sums and the
    product by dt keep that (x + (+-0) is x unless x is a zero), and a stage
    adds the sum to the state, which holds no -0 (`_Labels.trim`), so every
    stage keeps its bits.  The trace panel keeps the real weights.

    After the fixed point the half level's sources of the converged iterate
    are needed for the panel.  The last sweep read the sources of the
    iterate before it (`_fixed_point`), which equals the converged one in
    every column the last sweep did not move, so only the moved columns are
    evaluated again.
    """
    m, dt = lab.m, 2.0 * lab.h
    base = _pair(lab.w, iu, iv - 2, n + 2)  # the state on the half level's labels
    fh, f1 = lab.work[8:12, :n + 2].reshape(2, 2, -1)
    new_f1, half = (_pair(lab.work[k:k + 2], 0, 2, n) for k in (10, 8))  # full-level nodes
    term = lab.work[20]
    weights = [tuple(-1j * w for w in lw) for lw in (_L_FULL, _L_HALF)]
    f0 = _pair(lab.sources, iu, iv - 2, n + 2)
    f1[0, n:], f1[1, :2] = 0, 0  # the new sources on the half level: zero past the window

    def lobatto(w: tuple, f0, fh, f1, out):
        """out <- dt * (w[0] f0 + w[1] fh + w[2] f1), term by term, row by row (at fine
        h one row's operands stay in a core's cache, a pair's do not)."""
        for o, a, b, c in zip(out, f0, fh, f1):
            np.multiply(w[0], a, out=o)
            o += np.multiply(w[1], b, out=term[:o.size])
            o += np.multiply(w[2], c, out=term[:o.size])
            np.multiply(dt, o, out=o)
        return out

    def sweep(cols, stages, Wf, Wh):  # the full-level stage, too, over the half level's labels
        eval_N(Wh[:, cols], m, out=fh[:, cols])
        eval_N(Wf[:, cols], m, out=new_f1[:, cols])
        for stage, w in zip(stages[..., :n + 2][..., cols], weights):
            np.add(base[:, cols], lobatto(w, f0[:, cols], fh[:, cols], f1[:, cols], stage),
                   out=stage)
        return _pair(stages[0], 0, 2, n), stages[1, :, :n + 2]

    (Wf, Wh), iters, moved = _fixed_point(sweep, (_pair(lab.w, iu, iv, n), base),
                                          lab.work[12:20].reshape(2, 2, 2, -1), lab,
                                          (lab.node(iu), lab.node(iu) - 1), ((0, 2), (0, 0)))
    eval_N(Wh[:, moved], m, out=fh[:, moved])  # the half level's sources, read by `half`
    return Wf, lambda old, new: lobatto(_L_FULL, old, half, new, lab.work[6:8, :n]), iters


# kind -> (kernel for a nonempty window, cells per step = window widening,
#          reach: labels past a node's own pair that its step reads, which the
#          quiet rule (at the half level) and the sweeps' spans take, or None
#          to step the hull window,
#          transports: the step keeps every modulus, so the stored moduli stay
#          the data's and the turns are built once, by `_turns`)
_KERNELS = {
    "trapezoidal": (_step_trapezoidal, 1, 0, False),
    "phase_split": (_step_phase_split, 1, None, True),
    "oracle4": (_step_oracle4, 2, 2, False),
}
SCHEME_KINDS = tuple(_KERNELS)


def run(data: InitialData, m: ModelParams, s: Scheme, record_times: list[float],
        probes: Iterable = ()) -> Trajectory:
    """Run the scheme on data.grid for its n_steps steps, recording snapshots and traces.

    record_times, like the final time, must be whole steps of the scheme
    within the run (`Grid.step_of`); the final time is always recorded (the
    profiles need the full trace integrals).  Before the first step and after
    each step the trajectory, then every probe, gets `p.on_step(step)`, with
    step the `Step` record of that level.  Fields that stop being finite raise
    SolverError, not a floating-point warning.
    """
    grid = data.grid
    levels = frozenset(grid.step_of(t, s.cells) for t in (*record_times, grid.t_final))
    traj = Trajectory(params=m, data=data, record_levels=levels)
    probes = (traj, *probes)
    # overflow and NaN are caught by _fixed_point and the blow-up guard
    with np.errstate(over="ignore", invalid="ignore"):
        lab = _Labels(data, m, s)
        views = [np.lib.stride_tricks.as_strided(a[:, MARGIN:-MARGIN], writeable=False)
                 for a in (lab.w, lab.traces)]  # _Labels updates them in place
        for k in range(grid.n_steps // s.cells + 1):
            sweeps = lab.advance() if k else 0
            step = Step(lab.level, sweeps, *views)
            for p in probes:
                p.on_step(step)
    return traj


def restrict(arr: np.ndarray, fine_grid: Grid, coarse_grid: Grid) -> np.ndarray:
    """Samples of an array on a nested finer grid at the coarse grid's nodes or labels.

    The grids must share x_min and x_max and have an integer step ratio.
    """
    factor = lattice_count(coarse_grid.h, fine_grid.h)
    if (factor is None or fine_grid.x_min != coarse_grid.x_min
            or fine_grid.n_cells - 1 != factor * (coarse_grid.n_cells - 1)):
        raise ValueError("grids are not nested refinements of each other")
    return arr[::factor]


def l2_diff(coarse: Trajectory, fine: Trajectory, t: float) -> float:
    """L2 distance at time t between runs on a grid and a nested refinement of it:
    the root of the charge of their difference on the coarse labels."""
    du, dv = (a - restrict(b, fine.grid, coarse.grid)
              for a, b in zip(coarse.snapshot_at(t)[:2], fine.snapshot_at(t)[:2]))
    return math.sqrt(charge(du, dv, coarse.grid.h))
