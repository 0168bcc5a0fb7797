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
one scratch array; phase_split's real cos/sin rotation has the bits of cexp.

Three schemes are provided:

trapezoidal   implicit trapezoid rule per node, the production second-order
              scheme; the per-node 2x2 complex fixed point is solved by
              iteration (the map is a contraction for small h * amplitude^2).
phase_split   exact-modulus variant for beta = 0: the nonlinearity is then a
              pure phase rotation, so moduli are transported exactly.
oracle4       fourth-order reference: 3-stage Lobatto IIIA collocation over a
              double step (time step 2h), whose half-step abscissae land
              exactly on lattice nodes.  Used for cross-validation.

Each run also accumulates per label the integral A1 of N1 (A2 of N2) along
its characteristic, for the asymptotics layer's profiles.  After setup only
`_Labels.commit` writes state, sources and traces, adding the panel of the
very sources it stores, so u(t) = u0 - i A1(t) telescopes exactly.

Per-step certificates are probes that `run` hands read-only views of |u| and
|v| after every step (`conservation.TriangleSides`, `ModulusDrift`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import Grid, InitialData, ModelParams, charge, is_integer, lattice_count
# eval_N1 and eval_N2 are not called: the benchmark's tracer looks them up here
from .nonlinearity import eval_N, eval_N1, eval_N2  # noqa: F401

BLOWUP_LIMIT = 1e6

# Labels the widest window (oracle4's half level) reaches past the supports
MARGIN = 4

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
    `data.grid`.
    """

    params: ModelParams
    data: InitialData
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
        self.u += 0.0  # -0 -> +0, every other value kept (see trim)
        self.v += 0.0
        self.abs_u, self.abs_v = np.abs(self.u), np.abs(self.v)
        self.n1, self.n2, self.a1, self.a2 = (np.zeros_like(self.u) for _ in range(4))
        # A label's support never grows (N1 vanishes where u does, N2 where v
        # does), so the initial supports bound every later overlap.
        iu, iv = np.flatnonzero(u), np.flatnonzero(v)
        self.hull = ((int(iu[0]), int(iu[-1]), int(iv[0]), int(iv[-1]))
                     if iu.size and iv.size else None)
        self.guard(self.abs_u, self.abs_v)
        if (win := self.window(0)) is not None:
            ju, jv = self.labels(*win, 0)
            self.n1[ju], self.n2[jv] = eval_N(self.u[ju], self.v[jv], m)

    @cached_property
    def work(self) -> np.ndarray:
        """Every scratch row of a run: complex rows as long as the label arrays, made on
        first use and sliced to a window; a real (boolean) row is half (a sixteenth) of a
        complex row's float (bool) view.  Row 0 is `_fixed_point`'s move, 1 its modulus
        (real); 2 `trim`'s lifted products (real), 3 its loud flags (bool), which
        phase_split, never trimmed, takes for |theta| and its flags; from 4 on the
        kernel's.  trapezoidal: 4-5 the constant part, 6-7 and 8-9 the (u, v) iterates
        of alternate sweeps.  phase_split: 4 the squared moduli, 5 the midpoints (real),
        6-7 the rotations, then U, V.  oracle4: 4-5 f0, 6-7 the new sources on the half
        level, 8-11 and 12-15 the iterates, 16 a Lobatto term, 17 the trace panel."""
        return np.empty((18, len(self.u)), complex)

    def advance(self) -> int:
        """One step of the scheme; returns its fixed-point sweeps."""
        kernel, cells, reach = _KERNELS[self.s.kind]
        hull = self.window(cells)
        self.level += cells
        win = hull if hull is None or reach is None else self.trim(*hull, reach)
        if win is None:  # for a hull of quiet nodes the first sweep is the fixed point
            return 0 if hull is None else 1
        ju, jv = self.labels(*win, self.level)
        U, V, panel, sweeps = kernel(self, ju, jv)
        self.commit(ju, jv, U, V, panel)
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

        Node x is quiet when n1[i] and n2[j] are exact zeros and every pair
        it evaluates is quiet by its stored moduli a, b:
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
        n, bound = hi - lo + 1, quiet_bound(self.m)
        iu, iv = MARGIN + lo - self.level, MARGIN + lo + self.level  # labels of node lo
        if r:
            amp = max(self.abs_u.max(), self.abs_v.max())
            lim, dt, c = 1.5 * amp, r * self.h, self.m.c_star  # lim bounds every iterate
            if 7.0 * dt * c * amp ** 2 > 1.0 or dt * (lim ** 2 + (2 * c + 1) * lim + 5) > 8.0:
                return lo, hi

        au, av = self.abs_u[iu:iu + n + r], self.abs_v[iv - r:iv + n]
        p, q = self.work[2].view(float).reshape(2, -1)[:, :n + r]
        loud, half = self.work[3].view(bool).reshape(16, -1)[:2, :n + r]
        loud = _loud_pairs(au[:n], av[r:], bound, p[:n], q[:n], loud[:n])  # pairs (i, j)
        if r:  # loud[k] |= half[k], pair (i, j - 2), and half[k + r], pair (i + 2, j)
            _loud_pairs(au, av, bound, p, q, half)
            loud |= half[:n]
            loud |= half[r:]
        k_lo, k_hi = _first(loud), _last(loud)

        n1, n2 = self.n1.view(float), self.n2.view(float)  # (real, imaginary) pairs
        for z, first in ((n1, iu), (n2, iv)):  # the labels of nodes 0..k_lo - 1
            if np.count_nonzero(flank := z[2 * first:2 * (first + k_lo)]):
                k_lo = _first(flank != 0) // 2
        if k_lo == n:
            return None
        k_hi = max(k_hi, k_lo)
        for z, first in ((n1, iu), (n2, iv)):  # the labels of nodes k_hi + 1..n - 1
            if np.count_nonzero(flank := z[2 * (first + k_hi + 1):2 * (first + n)]):
                k_hi += 1 + _last(flank != 0) // 2
        return lo + k_lo, lo + k_hi

    def labels(self, lo: int, hi: int, s: int) -> tuple[slice, slice]:
        """Slices of the u and v label arrays at nodes lo..hi of cell level s."""
        return (slice(MARGIN + lo - s, MARGIN + hi - s + 1),
                slice(MARGIN + lo + s, MARGIN + hi + s + 1))

    def commit(self, ju: slice, jv: slice, U, V, panel):
        """Store a step's U, V on labels ju, jv with their moduli and sources,
        and guard them.  Each trace first gains panel(stored source, new
        source, side), side 0 for N1 and 1 for N2: the step's quadrature of
        the very source it stores, so u = u0 - i A1 telescopes."""
        au, av = np.abs(U, out=self.abs_u[ju]), np.abs(V, out=self.abs_v[jv])
        n1, n2 = eval_N(U, V, self.m, (au, av))
        self.a1[ju] += panel(self.n1[ju], n1, 0)
        self.a2[jv] += panel(self.n2[jv], n2, 1)
        self.u[ju], self.v[jv], self.n1[ju], self.n2[jv] = U, V, n1, n2
        self.guard(au, av)

    def trapezoid_panel(self, old, new, side):
        """The trace panel of one cell by the trapezoid rule."""
        return 0.5 * self.h * (old + new)

    def guard(self, au: np.ndarray, av: np.ndarray):
        amp = np.maximum(np.max(au), np.max(av))  # a NaN on either side propagates
        if not np.isfinite(amp) or amp > BLOWUP_LIMIT:
            t = self.level * self.h
            raise SolverError(f"field blow-up at t = {t:.6g}: max amplitude {amp:.3g}")

    def domain(self, *arrays: np.ndarray) -> tuple:
        """Views of label arrays on the labels of the domain."""
        return tuple(a[MARGIN:MARGIN + self.n] for a in arrays)


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


def _fixed_point(sweep, start: tuple, lab: _Labels):
    """Iterate x <- sweep(*x) from start until no component moves by more than
    tol * (1 + max(max|u|, max|v|)), or raise at the first sweep whose move is
    not finite; returns the last iterate and the sweeps."""
    s, x = lab.s, start
    scale = 1.0 + max(np.max(lab.abs_u), np.max(lab.abs_v))
    move, modulus = lab.work[0], lab.work[1].view(float)
    for iters in range(1, s.fixed_point_max_iter + 1):
        new = sweep(*x)
        deltas = [np.abs(np.subtract(a, b, out=move[:a.size]), out=modulus[:a.size]).max()
                  for a, b in zip(new, x)]
        if not all(map(math.isfinite, deltas)):
            raise SolverError(f"fixed-point iteration diverged at t = {lab.level * lab.h:.6g}: "
                              f"sweep {iters} moved the iterate by {np.max(deltas):.3g}")
        x = new
        if max(deltas) <= s.fixed_point_tol * scale:
            return x, iters
    raise SolverError(
        f"fixed-point iteration did not converge in {s.fixed_point_max_iter} iterations; "
        "the time step is too large for the data amplitude")


def _step_trapezoidal(lab: _Labels, ju: slice, jv: slice):
    """Unit-CFL implicit trapezoid on the window's labels; returns (U, V, panel, sweeps)."""
    h, m = lab.h, lab.m
    base, *iterates = lab.work[4:10, :ju.stop - ju.start].reshape(3, 2, -1)
    np.subtract(lab.u[ju], 0.5j * h * lab.n1[ju], out=base[0])
    np.subtract(lab.v[jv], 0.5j * h * lab.n2[jv], out=base[1])
    slots = itertools.cycle(iterates)  # a sweep never writes over its input

    def sweep(U, V):
        out = next(slots)
        for c, n, o in zip(base, eval_N(U, V, m), out):  # eval_N returns new arrays
            n *= 0.5j * h
            np.subtract(c, n, out=o)
        return tuple(out)

    (U, V), iters = _fixed_point(sweep, (lab.u[ju], lab.v[jv]), lab)
    return U, V, lab.trapezoid_panel, iters


def _step_phase_split(lab: _Labels, ju: slice, jv: slice):
    """Exact-modulus step for beta = 0 on the window's labels; returns (U, V, panel, 0).

    For the Thirring-type nonlinearity N1 = alpha*u*|v|^2 the characteristic
    ODE is a pure phase rotation, so |u| and |v| transport exactly; the phase
    uses the midpoint |v|^2 averaged from the two endpoint values along the
    characteristic (second order).  The exponent of exp(-1j*alpha*h*mid) has real
    part +0, where cexp gives (cos, sin) of its imaginary part theta: the step forms
    theta with the same bits (+ 0.0 turns a zero product's -0 into +0), then cos, sin.
    Below |theta| = 2**-27 these are 1 and theta, so the step writes (1, theta) and
    calls cos and sin only from the first to the last angle at or above 2**-27:
    1 - cos(theta) < theta**2 / 2 < 2**-55, under half the float spacing 2**-53 below
    1, and |sin(theta) - theta| < |theta|**3 / 6 < 2**-56 |theta|, under half the
    spacing next to theta, subnormal or not; so the correctly rounded values are 1
    and theta, which the platform's cos and sin return (a test pins them).
    """
    n = ju.stop - ju.start
    (sq, mid), rot = lab.work[4:6].view(float).reshape(2, 2, -1)[..., :n + 2], lab.work[6:8, :n]
    size, big = lab.work[2].view(float)[:n], lab.work[3].view(bool)[:n]
    # the previous level's squared moduli at both neighbours of every window node
    np.square(lab.abs_u[ju.start:ju.stop + 2], out=sq[0])
    np.square(lab.abs_v[jv.start - 2:jv.stop], out=sq[1])
    # u turns by the midpoint |v|^2, v by the midpoint |u|^2
    for q, x, r, old in zip(sq[::-1], mid[:, :n], rot, (lab.u[ju], lab.v[jv])):
        np.multiply(np.add(q[:-2], q[2:], out=x), 0.5, out=x)
        np.multiply(-(lab.m.alpha * lab.h), x, out=x)
        x += 0.0
        np.greater_equal(np.abs(x, out=size), 2.0 ** -27, out=big)
        span = slice(_first(big), _last(big) + 1)
        r.real, r.imag = 1.0, x
        np.cos(x[span], out=r.real[span])
        np.sin(x[span], out=r.imag[span])
        np.multiply(old, r, out=r)
    return *rot, lab.trapezoid_panel, 0


# 3-stage Lobatto IIIA (collocation at {0, 1/2, 1}): order 4, and both stage
# abscissae land on lattice nodes when the time step spans two cells.
_L_HALF = (5.0 / 24.0, 1.0 / 3.0, -1.0 / 24.0)
_L_FULL = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)


def _step_oracle4(lab: _Labels, fu: slice, fv: slice):
    """Lobatto IIIA double step (time 2h) on the window's full-level labels.

    The half level is solved one node wider per side: its u stage still
    moves by the -1/24 weight of the full-level source one node to its right
    (v: to its left).  By label, that adds two u labels after the full window
    and two v labels before it.  The panel is the order-4 quadrature of the
    source over each segment.  Returns (U, V, panel, sweeps) at the full level.
    """
    m, dt = lab.m, 2.0 * lab.h
    hu, hv = slice(fu.start, fu.stop + 2), slice(fv.start - 2, fv.stop)
    base_uh, base_vh = lab.u[hu], lab.v[hv]
    f0u, f0v, f1u_h, f1v_h, *iterates, term, panel_row = lab.work[4:, :hu.stop - hu.start]
    np.multiply(-1j, lab.n1[hu], out=f0u)
    np.multiply(-1j, lab.n2[hv], out=f0v)
    f1u_h[-2:], f1v_h[:2] = 0, 0  # the new sources on the half level: zero past the window
    slots = itertools.cycle((iterates[:4], iterates[4:]))  # never over the input

    def lobatto(w: tuple, f0, fh, f1, out):
        """out <- dt * (w[0] f0 + w[1] fh + w[2] f1), term by term."""
        np.multiply(w[0], f0, out=out)
        out += np.multiply(w[1], fh, out=term[:out.size])
        out += np.multiply(w[2], f1, out=term[:out.size])
        return np.multiply(dt, out, out=out)

    def sweep(Uf, Vf, Uh, Vh):
        fhu, fhv = (np.multiply(-1j, n, out=n) for n in eval_N(Uh, Vh, m))
        for n, o in zip(eval_N(Uf, Vf, m), (f1u_h[:-2], f1v_h[2:])):
            np.multiply(-1j, n, out=o)
        out = next(slots)  # the full-level stages, too, over the half level's labels
        for o, w, base, f0, fh, f1 in zip(out, (_L_FULL, _L_FULL, _L_HALF, _L_HALF),
                                          (base_uh, base_vh) * 2, (f0u, f0v) * 2,
                                          (fhu, fhv) * 2, (f1u_h, f1v_h) * 2):
            np.add(base, lobatto(w, f0, fh, f1, o), out=o)
        return out[0][:-2], out[1][2:], out[2], out[3]

    (Uf, Vf, Uh, Vh), iters = _fixed_point(
        sweep, (base_uh[:-2], base_vh[2:], base_uh, base_vh), lab)
    n1h, n2h = eval_N(Uh, Vh, m)
    half = n1h[:-2], n2h[2:]
    return Uf, Vf, lambda old, new, side: lobatto(_L_FULL, old, half[side], new,
                                                  panel_row[:new.size]), iters


# kind -> (kernel for a nonempty window, cells per step = window widening,
#          half-level reach of the quiet rule, or None to step the hull window)
_KERNELS = {
    "trapezoidal": (_step_trapezoidal, 1, 0),
    "phase_split": (_step_phase_split, 1, None),
    "oracle4": (_step_oracle4, 2, 2),
}
SCHEME_KINDS = tuple(_KERNELS)


def run(data: InitialData, m: ModelParams, s: Scheme, record_times: list[float],
        probes: Iterable = ()) -> Trajectory:
    """Run the scheme on data.grid for its n_steps steps, recording snapshots and traces.

    record_times must be multiples of the scheme's time step within
    [0, n_steps * h].  The final time is always recorded (the profiles need
    the full trace integrals).  Before the first step and after each step
    every probe gets `p.on_step(level, abs_u, abs_v)`: the cell level and
    read-only views of |u| and |v| by label over the domain.  Fields that
    stop being finite raise SolverError, not a floating-point warning.
    """
    grid = data.grid
    dt = s.cells * grid.h
    if grid.n_steps % s.cells != 0:
        raise ValueError(f"{s.kind} advances {s.cells} cells per step; "
                         f"n_steps = {grid.n_steps} does not divide evenly")
    n_steps = grid.n_steps // s.cells

    record_steps = {n_steps}
    for t in record_times:
        k = lattice_count(t, dt)
        if k is None or not 0 <= k <= n_steps:
            raise ValueError(
                f"record time {t} is not a multiple of the time step {dt} "
                f"within [0, {grid.t_final}]")
        record_steps.add(k)

    probes = tuple(probes)
    traj = Trajectory(params=m, data=data)
    # overflow and NaN are caught by _fixed_point and the blow-up guard
    with np.errstate(over="ignore", invalid="ignore"):
        lab = _Labels(data.u0, data.v0, grid.h, m, s)
        moduli = lab.domain(lab.abs_u, lab.abs_v)
        for a in moduli:
            a.flags.writeable = False
        for k in range(n_steps + 1):
            if k:
                traj.max_fp_iterations = max(traj.max_fp_iterations, lab.advance())
            for p in probes:
                p.on_step(lab.level, *moduli)
            if k in record_steps:
                traj.snapshots[lab.level] = tuple(
                    a.copy() for a in lab.domain(lab.u, lab.v, lab.a1, lab.a2))
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
