"""Advance the spinor field along exact characteristics on the unit-CFL lattice.

Along x - t = const the right-mover obeys du/ds = -i N1(u, v); along
x + t = const the left-mover obeys dv/ds = -i N2(u, v).  With the time step
equal to the space step every characteristic advances exactly one cell per
step, so there is no interpolation anywhere and the scheme's only error is
the quadrature of the source along the characteristic segment.

u is held on its characteristic labels y = x - t and v on z = x + t, so
free transport is index arithmetic.  N1 and N2 vanish wherever u or v does,
so a step looks only at the new-level nodes whose characteristic foot or head
lies in the overlap of the two supports (the previous overlap widened by one
cell per side, two for oracle4).  The trapezoid and oracle4 steps then trim
that hull window, in one pass over it, to its first and last node that is
not quiet: a node whose stored sources are exact zeros and whose stored
moduli are so small that `eval_N` returns exact zeros for every pair its
step evaluates (`_Labels.trim`).  A quiet node's first iterate is its fixed
point, so the trimmed step keeps every bit and sweep count of the hull
window, whose arithmetic is that of a whole-lattice step node for node; only
a label outside it keeps a negative zero that a whole-lattice step may turn
into +0.  phase_split stays on the hull window.  Snapshots keep the labels
of [x_min, x_max]: no label leaves its initial support, which lies in the
domain.  A fixed-point sweep evaluates both sources in one `eval_N` call per
level, skipping zero-coupling terms.  The trapezoid's sweeps and phase_split,
whose real cos/sin rotation has the bits of cexp, write into window buffers.

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

Per-step certificates are probes that `run` hands read-only views of |u| and
|v| after every step (`conservation.TriangleSides`, `ModulusDrift`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .fields import Grid, InitialData, ModelParams, SpinorField
# eval_N1 and eval_N2 are not called here; they stay importable because the
# benchmark's tracer (perfbench/tracing.py) looks them up on this module
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
    """

    grid: Grid
    params: ModelParams
    data: InitialData
    times: list[float] = field(default_factory=list)
    snapshots: dict[float, SpinorField] = field(default_factory=dict)
    trace_partials: dict[float, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
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
        # Labels holding a negative zero.  The kernels never make one (x - y
        # and x + y are -0 only when x is), but may turn one into +0, so a
        # node whose label holds one is never quiet.
        self.signed_zeros = tuple(
            np.flatnonzero((f == 0) & np.signbit(f)) // 2
            for f in (self.u.view(float), self.v.view(float)))
        if not any(a.size for a in self.signed_zeros):
            self.signed_zeros = ()
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
    def buffers(self) -> SimpleNamespace:
        """Work arrays of the implicit schemes, as long as the label arrays
        and sliced to a window, made on first use: a complex and a real one
        for the fixed point's moves, and real and boolean rows for the quiet
        rule.  The third boolean row is spare: with two, oracle4's runs
        measured about 10 % slower, from where its per-sweep temporaries
        then land on the heap."""
        size = len(self.u)
        return SimpleNamespace(c=np.empty(size, complex), r=np.empty(size),
                               p=np.empty((2, size)), b=np.empty((3, size), bool))

    @cached_property
    def rotations(self) -> tuple[np.ndarray, np.ndarray]:
        """phase_split's real and complex (u, v) rows, made on first use."""
        return np.empty((2, 2, len(self.u))), np.empty((2, len(self.u)), complex)

    @cached_property
    def work(self) -> np.ndarray:
        """The trapezoid's constant part and the two iterates its sweeps
        alternate between, each a (u, v) pair of rows sliced to a window."""
        return np.empty((3, 2, len(self.u)), complex)

    def advance(self) -> int:
        """One step of the scheme; returns its fixed-point sweeps."""
        kernel, cells, reach = _KERNELS[self.s.kind]
        hull = self.window(cells)
        self.level += cells
        win = hull if hull is None or reach is None else self.trim(*hull, reach)
        if win is None:  # for a hull of quiet nodes the first sweep is the fixed point
            return 0 if hull is None else 1
        return kernel(self, *self.labels(*win, self.level))

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
        x - 1, and (i + 2, j), at node x + 1, and whose half level also steps
        u labels i_hi + 1, i_hi + 2 and v labels j_lo - 2, j_lo - 1.

        Node x is quiet when n1[i] and n2[j] are exact zeros, neither label
        holds a negative zero, and every pair it evaluates is quiet by its
        stored moduli a, b: c_star * a * b * max(a, b) < 2**QUIET_EXP.  Then:

        * eval_N at the pair returns exact zeros.  Before its last rounding
          each component of a source is at most 16 c_star |u| |v| max(|u|,
          |v|) (an earlier rounding at most doubles a value), and
          |u| <= sqrt(2) a, so it is below half the smallest subnormal and
          rounds to zero.  That spends 2**6 of the margin.
        * The first iterate is the stored state: a stored value minus or
          plus zeros keeps its bits unless it holds -0.  So the node adds 0
          to every sweep's largest move and leaves the sweeps unchanged, its
          traces gain zeros, and skipping it changes no bit.
        * oracle4 alone pairs a node across the trimmed window's edge, at a
          half-level pair, with a label the window moves.  Let A be the
          largest stored modulus and B = 1.5 A.  If dt c_star A^2 <= 1/7,
          every iterate of a sweep stays within B, so a moved label's
          modulus stays within 1.48 times its stored one, plus 13 times half
          the smallest subnormal where dt (B^2 + (2 c_star + 1) B + 5) <= 8
          bounds the roundings.  The pair's last products then stay below
          0.4 times half the smallest subnormal.  Where these bounds fail
          the window is not trimmed.

        The rule reads the run's stored state alone, in one pass: the pair
        test over every node gives the outermost loud nodes, the labels
        holding a negative zero widen that span, and the stored sources are
        tested over the quiet flanks beyond it.
        """
        n, bound, buf = hi - lo + 1, quiet_bound(self.m), self.buffers
        iu, iv = MARGIN + lo - self.level, MARGIN + lo + self.level  # labels of node lo
        if r:
            amp = max(self.abs_u.max(), self.abs_v.max())
            lim, dt, c = 1.5 * amp, r * self.h, self.m.c_star  # lim bounds every iterate
            if 7.0 * dt * c * amp ** 2 > 1.0 or dt * (lim ** 2 + (2 * c + 1) * lim + 5) > 8.0:
                return lo, hi

        au, av = self.abs_u[iu:iu + n + r], self.abs_v[iv - r:iv + n]
        p, q, loud = buf.p[0, :n + r], buf.p[1, :n + r], buf.b[0, :n]
        if r:  # loud[k] |= half[k], pair (i, j - 2), and half[k + r], pair (i + 2, j)
            half = _loud_pairs(au, av, bound, p, q, buf.b[1, :n + r])
            _loud_pairs(au[:n], av[r:], bound, p[:n], q[:n], loud)
            loud |= half[:n]
            loud |= half[r:]
        else:
            _loud_pairs(au, av, bound, p, q, loud)
        k_lo, k_hi = _first(loud), _last(loud)
        for held, first in zip(self.signed_zeros, (iu, iv)):
            k = held - first
            if (k := k[(k >= 0) & (k < n)]).size:
                k_lo, k_hi = min(k_lo, int(k.min())), max(k_hi, int(k.max()))

        n1, n2 = self.n1.view(float), self.n2.view(float)  # (real, imaginary) pairs
        if k_lo:  # u labels of nodes 0..k_lo - 1, v labels of nodes -r..k_lo - 1
            for z, first, start in ((n1, iu, iu), (n2, iv, iv - r)):
                if np.count_nonzero(flank := z[2 * start:2 * (first + k_lo)]):
                    k_lo = max(start - first + _first(flank != 0) // 2, 0)
        if k_lo == n:
            return None
        k_hi = max(k_hi, k_lo)
        if k_hi < n - 1:  # u labels of nodes k_hi + 1..n + r - 1, v labels of k_hi + 1..n - 1
            for z, first, stop in ((n1, iu, iu + n + r), (n2, iv, iv + n)):
                if np.count_nonzero(flank := z[2 * (first + k_hi + 1):2 * stop]):
                    k_hi = min(k_hi + 1 + _last(flank != 0) // 2, n - 1)
        return lo + k_lo, lo + k_hi

    def labels(self, lo: int, hi: int, s: int) -> tuple[slice, slice]:
        """Slices of the u and v label arrays at nodes lo..hi of cell level s."""
        return (slice(MARGIN + lo - s, MARGIN + hi - s + 1),
                slice(MARGIN + lo + s, MARGIN + hi + s + 1))

    def commit(self, ju: slice, jv: slice, U, V, n1, n2, au, av):
        """Store a step's window values with their moduli au, av and guard them."""
        self.u[ju], self.v[jv], self.n1[ju], self.n2[jv] = U, V, n1, n2
        self.abs_u[ju], self.abs_v[jv] = au, av
        self.guard(au, av)

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
    buf = lab.buffers
    for iters in range(1, s.fixed_point_max_iter + 1):
        new = sweep(*x)
        deltas = [np.abs(np.subtract(a, b, out=buf.c[:a.size]), out=buf.r[:a.size]).max()
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


def _commit_trapezoid(lab: _Labels, ju: slice, jv: slice, U, V, moduli=None):
    """Store U, V and their sources (moduli |U|, |V|), adding the trapezoid panel to the traces."""
    au, av = (np.abs(U), np.abs(V)) if moduli is None else moduli
    n1, n2 = eval_N(U, V, lab.m, (au, av))
    lab.a1[ju] += 0.5 * lab.h * (lab.n1[ju] + n1)
    lab.a2[jv] += 0.5 * lab.h * (lab.n2[jv] + n2)
    lab.commit(ju, jv, U, V, n1, n2, au, av)


def _step_trapezoidal(lab: _Labels, ju: slice, jv: slice) -> int:
    """Unit-CFL implicit trapezoid on the window's labels; returns the sweeps."""
    h, m = lab.h, lab.m
    base, *iterates = lab.work[:, :, :ju.stop - ju.start]
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
    _commit_trapezoid(lab, ju, jv, U, V)
    return iters


def _step_phase_split(lab: _Labels, ju: slice, jv: slice) -> int:
    """Exact-modulus step for beta = 0 on the window's labels; no sweeps.

    For the Thirring-type nonlinearity N1 = alpha*u*|v|^2 the characteristic
    ODE is a pure phase rotation, so |u| and |v| transport exactly; the phase
    uses the midpoint |v|^2 averaged from the two endpoint values along the
    characteristic (second order).  The exponent of exp(-1j*alpha*h*mid) has real
    part +0, where cexp gives (cos, sin) of its imaginary part theta: the step forms
    theta with the same bits (+ 0.0 turns a zero product's -0 into +0), then cos, sin.
    """
    (sq, mid), rot, n = *lab.rotations, ju.stop - ju.start
    # the previous level's squared moduli at both neighbours of every window node
    np.square(lab.abs_u[ju.start:ju.stop + 2], out=sq[0, :n + 2])
    np.square(lab.abs_v[jv.start - 2:jv.stop], out=sq[1, :n + 2])
    # u turns by the midpoint |v|^2, v by the midpoint |u|^2
    for q, x, r, old in zip(sq[::-1, :n + 2], mid[:, :n], rot[:, :n], (lab.u[ju], lab.v[jv])):
        np.multiply(np.add(q[:-2], q[2:], out=x), 0.5, out=x)
        np.multiply(-(lab.m.alpha * lab.h), x, out=x)
        x += 0.0
        np.cos(x, out=r.real)
        np.sin(x, out=r.imag)
        np.multiply(old, r, out=r)
    _commit_trapezoid(lab, ju, jv, *rot[:, :n], np.abs(rot[:, :n], out=sq[:, :n]))
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


# kind -> (kernel for a nonempty window, cells per step = window widening,
#          half-level reach of the quiet rule, or None to step the hull window)
_KERNELS = {
    "trapezoidal": (_step_trapezoidal, 1, 0),
    "phase_split": (_step_phase_split, 1, None),
    "oracle4": (_step_oracle4, 2, 2),
}
SCHEME_KINDS = tuple(_KERNELS)


def run(data: InitialData, grid: Grid, m: ModelParams, s: Scheme,
        record_times: list[float], probes: Iterable = ()) -> Trajectory:
    """Run the scheme for grid.n_steps steps, recording snapshots and traces.

    record_times must be multiples of the scheme's time step within
    [0, n_steps * h].  The final time is always recorded (the profiles need
    the full trace integrals).  After step k (0: before the first) each probe
    gets `p.on_step(k, level, abs_u, abs_v)`: the cell level and read-only
    views of |u| and |v| by label over the domain.  Fields that stop being
    finite raise SolverError, not a floating-point warning.
    """
    g = data.grid
    if (g.x_min, g.h, g.n_cells) != (grid.x_min, grid.h, grid.n_cells):
        raise ValueError("initial data was sampled on a different grid")
    dt = s.cells * grid.h
    if grid.n_steps % s.cells != 0:
        raise ValueError(f"{s.kind} advances {s.cells} cells per step; "
                         f"n_steps = {grid.n_steps} does not divide evenly")
    n_steps = grid.n_steps // s.cells

    record_steps = {n_steps}
    for t in record_times:
        r = t / dt
        k = int(round(r))
        if abs(r - k) > 1e-9 or not 0 <= k <= n_steps:
            raise ValueError(
                f"record time {t} is not a multiple of the time step {dt} "
                f"within [0, {grid.t_final}]")
        record_steps.add(k)

    probes = tuple(probes)
    traj = Trajectory(grid=grid, params=m, data=data)
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
                p.on_step(k, lab.level, *moduli)
            if k in record_steps:
                t = k * dt
                traj.times.append(t)
                u, v, a1, a2 = (a.copy() for a in lab.domain(lab.u, lab.v, lab.a1, lab.a2))
                traj.snapshots[t] = SpinorField(t, u, v, grid)
                traj.trace_partials[t] = (a1, a2)
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
