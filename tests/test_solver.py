"""Scheme correctness: exact transport, convergence orders, trace identities."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dirac1d import (Grid, InitialData, ModelParams, ModulusDrift, Scheme, SolverError,
                     TriangleRegion, TriangleSides, make_initial_data, parse_config,
                     run_experiment)
from dirac1d.nonlinearity import eval_N
from dirac1d.solver import (_KERNELS, MARGIN, QUIET_EXP, _loud_pairs, l2_diff, quiet_bound,
                            restrict, run)

GAUSSIAN_PAIR = {"u_center": 0.0, "u_width": 1.0, "v_center": 1.0, "v_width": 1.0}


def gaussian_run(m, h, T, span=10.0, scheme="trapezoidal", record=(0.0,), **kw):
    grid = Grid.from_domain(-span, span, h, T)
    data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
    times = sorted(set(record) | {T})
    return run(data, grid, m, Scheme(scheme, **kw), times)


def shift_right(a, k=1):
    """a shifted k cells to the right, zeros flowing in from the left edge."""
    out = np.zeros_like(a)
    out[k:] = a[:len(a) - k]
    return out


def shift_left(a, k=1):
    out = np.zeros_like(a)
    out[:len(a) - k] = a[k:]
    return out


def reference_steps(u, v, h, m, kind, n_steps, tol=1e-12, max_iter=50):
    """Whole-lattice stepper: evaluates N on every node every step and moves
    u and v by array shifts.  Yields (u, v, A1, A2, iterations) after each
    step, with the traces in the characteristic-label frame."""
    from dirac1d.nonlinearity import eval_N1, eval_N2
    from dirac1d.solver import _L_FULL, _L_HALF
    a1, a2 = np.zeros_like(u), np.zeros_like(v)
    cells = 2 if kind == "oracle4" else 1
    for k in range(1, n_steps // cells + 1):
        n1p, n2p = eval_N1(u, v, m), eval_N2(u, v, m)
        its = 0
        if kind == "oracle4":
            dt = 2.0 * h
            f0u, f0v = -1j * n1p, -1j * n2p
            bases = (shift_right(u), shift_right(u, 2), shift_left(v), shift_left(v, 2))
            Uh, Uf, Vh, Vf = bases
            scale = 1.0 + max(np.max(np.abs(u)), np.max(np.abs(v)))
            for its in range(1, max_iter + 1):
                fhu, f1u = -1j * eval_N1(Uh, Vh, m), -1j * eval_N1(Uf, Vf, m)
                fhv, f1v = -1j * eval_N2(Uh, Vh, m), -1j * eval_N2(Uf, Vf, m)
                new = (bases[0] + dt * (_L_HALF[0] * shift_right(f0u) + _L_HALF[1] * fhu
                                        + _L_HALF[2] * shift_left(f1u)),
                       bases[1] + dt * (_L_FULL[0] * shift_right(f0u, 2)
                                        + _L_FULL[1] * shift_right(fhu) + _L_FULL[2] * f1u),
                       bases[2] + dt * (_L_HALF[0] * shift_left(f0v) + _L_HALF[1] * fhv
                                        + _L_HALF[2] * shift_right(f1v)),
                       bases[3] + dt * (_L_FULL[0] * shift_left(f0v, 2)
                                        + _L_FULL[1] * shift_left(fhv) + _L_FULL[2] * f1v))
                delta = max(np.max(np.abs(a - b)) for a, b in zip(new, (Uh, Uf, Vh, Vf)))
                Uh, Uf, Vh, Vf = new
                if delta <= tol * scale:
                    break
            u, v = Uf, Vf
            a1 = shift_right(a1, 2) + dt * (_L_FULL[0] * shift_right(n1p, 2)
                                            + _L_FULL[1] * shift_right(eval_N1(Uh, Vh, m))
                                            + _L_FULL[2] * eval_N1(u, v, m))
            a2 = shift_left(a2, 2) + dt * (_L_FULL[0] * shift_left(n2p, 2)
                                           + _L_FULL[1] * shift_left(eval_N2(Uh, Vh, m))
                                           + _L_FULL[2] * eval_N2(u, v, m))
        else:
            if kind == "trapezoidal":
                a = shift_right(u - 0.5j * h * n1p)
                b = shift_left(v - 0.5j * h * n2p)
                U, V = shift_right(u), shift_left(v)
                scale = 1.0 + max(np.max(np.abs(U)), np.max(np.abs(V)))
                for its in range(1, max_iter + 1):
                    Un = a - 0.5j * h * eval_N1(U, V, m)
                    Vn = b - 0.5j * h * eval_N2(U, V, m)
                    delta = max(np.max(np.abs(Un - U)), np.max(np.abs(Vn - V)))
                    U, V = Un, Vn
                    if delta <= tol * scale:
                        break
            else:
                mu, mv = np.abs(u) ** 2, np.abs(v) ** 2
                v_mid = 0.5 * (shift_right(mv) + shift_left(mv))
                u_mid = 0.5 * (shift_right(mu) + shift_left(mu))
                U = shift_right(u) * np.exp(-1j * m.alpha * h * v_mid)
                V = shift_left(v) * np.exp(-1j * m.alpha * h * u_mid)
            u, v = U, V
            a1 = shift_right(a1) + 0.5 * h * (shift_right(n1p) + eval_N1(u, v, m))
            a2 = shift_left(a2) + 0.5 * h * (shift_left(n2p) + eval_N2(u, v, m))
        yield u, v, shift_left(a1, k * cells), shift_right(a2, k * cells), its


def padded_reference(data, grid, m, kind="trapezoidal"):
    """reference_steps on the data padded with more zero cells than the run
    has steps, so nothing reaches the ends of its arrays; yields the padded
    step results and the slice of the domain."""
    pad = grid.n_steps + 8
    steps = reference_steps(np.pad(data.u0, pad), np.pad(data.v0, pad), grid.h, m, kind,
                            grid.n_steps)
    return steps, slice(pad, pad + grid.n_cells)


def reference_labels(data, grid, m, kind):
    """The whole-lattice stepper read back by label on the domain: yields
    (u, v, A1, A2, iterations) after each step.  Every label off the domain
    stays zero.  For data holding negative zeros it is no bit-exact
    reference: it may turn a -0 into +0 on a label outside the solver's hull
    window, which keeps its -0."""
    cells = 2 if kind == "oracle4" else 1
    steps, dom = padded_reference(data, grid, m, kind)
    for k, (u, v, a1, a2, its) in enumerate(steps, start=1):
        labelled = (shift_left(u, k * cells), shift_right(v, k * cells), a1, a2)
        for a in labelled:
            assert not a[:dom.start].any() and not a[dom.stop:].any()
        yield (*(a[dom] for a in labelled), its)


def reference_nodes(data, grid, m):
    """The trapezoid whole-lattice stepper's (u, v) at the domain's nodes at
    steps 0..n_steps."""
    steps, dom = padded_reference(data, grid, m)
    return [(data.u0, data.v0)] + [(u[dom], v[dom]) for u, v, *_ in steps]


class CountingN:
    """Tallies the nodes handed to the solver's eval_N."""

    def __init__(self, monkeypatch):
        from dirac1d import solver
        self.nodes = 0
        original = solver.eval_N

        def counted(u, v, *args):
            self.nodes += np.size(u)
            return original(u, v, *args)
        monkeypatch.setattr(solver, "eval_N", counted)


def hull_only(monkeypatch):
    """Make the solver step the whole hull window, as before the quiet rule."""
    from dirac1d import solver
    monkeypatch.setattr(solver._Labels, "trim", lambda self, lo, hi, r: (lo, hi))


def bits(a):
    """The bit patterns of a complex array: array_equal does not see the sign of a zero."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def negative_zero_labels(a):
    """Indices (+ MARGIN, as the solver stores them) of the entries holding a -0."""
    f = a.view(float).reshape(-1, 2)
    return MARGIN + np.flatnonzero(((f == 0) & np.signbit(f)).any(axis=1))


def rule_window(lab, lo, hi, r, held):
    """The window _Labels.trim must give for the hull lo..hi, straight from its
    docstring's definition over every node of the hull: from the first to the
    last node with a loud pair, a nonzero stored source on a label its step
    moves, or a label that held -0 in the data (`held`: u's, v's); the hull
    where oracle4's growth bound fails."""
    if r:
        a = max(lab.abs_u.max(), lab.abs_v.max())
        b, dt, c = 1.5 * a, r * lab.h, lab.m.c_star
        if dt * c * a ** 2 > 1.0 / 7.0 or dt * (b ** 2 + (2 * c + 1) * b + 5) > 8.0:
            return lo, hi
    x = np.arange(lo, hi + 1)
    i, j = MARGIN + x - lab.level, MARGIN + x + lab.level  # the labels at node x
    n = len(x)
    loud = (lab.n1[i] != 0) | (lab.n2[j] != 0) | np.isin(i, held[0]) | np.isin(j, held[1])
    for pi, pj in [(i, j)] + ([(i, j - r), (i + r, j)] if r else []):
        loud |= _loud_pairs(lab.abs_u[pi], lab.abs_v[pj], quiet_bound(lab.m),
                            np.empty(n), np.empty(n), np.empty(n, bool))
    # oracle4's half level also moves u labels i[-1] + 1..i[-1] + r and v labels j[0] - r..j[0] - 1
    loud[-1] |= lab.n1[i[-1] + 1:i[-1] + r + 1].any()
    loud[0] |= lab.n2[j[0] - r:j[0]].any()
    k = np.flatnonzero(loud)
    return (lo + int(k[0]), lo + int(k[-1])) if k.size else None


def check_every_window(monkeypatch, data):
    """Make every trim assert that its window is rule_window's; returns a list
    that gains, per step, whether the window was narrower than the hull."""
    from dirac1d import solver
    trim, held, narrowed = solver._Labels.trim, (
        negative_zero_labels(data.u0), negative_zero_labels(data.v0)), []

    def checked(self, lo, hi, r):
        got, want = trim(self, lo, hi, r), rule_window(self, lo, hi, r, held)
        assert got == want, (self.level, (lo, hi), got, want)
        narrowed.append(got != (lo, hi))
        return got
    monkeypatch.setattr(solver._Labels, "trim", checked)
    return narrowed


# (half-span, h, T).  On the wide domain the Gaussians part far enough for
# the products of their tails to underflow, so the quiet rule trims the
# window; h = 1/32 keeps oracle4's double step within the rule's growth bound.
SMALL, WIDE = (10.0, 1.0 / 32.0, 2.0), (30.0, 1.0 / 32.0, 12.0)
COLLIDING_BUMPS = {"u_center": -1.0, "u_width": 0.5, "v_center": 1.0, "v_width": 0.5,
                   "u_amplitude": 2.0, "v_amplitude": 1.5, "v_phase": 0.7}
PHASED_PAIR = {**GAUSSIAN_PAIR, "v_phase": 0.6}

REFERENCE_CASES = [
    # (scheme, model, family, shape, domain): overlapping Gaussians, and bumps
    # that start apart and collide, so the window opens mid-run
    ("trapezoidal", "gross_neveu", "gaussian", GAUSSIAN_PAIR, SMALL),
    ("phase_split", "thirring", "gaussian", GAUSSIAN_PAIR, SMALL),
    ("oracle4", "gross_neveu", "gaussian", GAUSSIAN_PAIR, SMALL),
    ("trapezoidal", "thirring", "bump", COLLIDING_BUMPS, SMALL),
    ("oracle4", "thirring", "bump", COLLIDING_BUMPS, SMALL),
    ("trapezoidal", "gross_neveu", "gaussian", PHASED_PAIR, WIDE),
    ("trapezoidal", "thirring", "gaussian", PHASED_PAIR, WIDE),
    ("oracle4", "gross_neveu", "gaussian", PHASED_PAIR, WIDE),
    ("oracle4", "thirring", "gaussian", PHASED_PAIR, WIDE),
    # the rotation's phases on underflowed tails are zero products, whose sign
    # the step must give as cexp's exponent has it
    ("phase_split", "thirring", "gaussian", GAUSSIAN_PAIR, WIDE),
    ("phase_split", "thirring", "gaussian", PHASED_PAIR, WIDE),
]


def assert_matches_reference(traj, data, grid, m, kind):
    # the window repeats the whole-lattice arithmetic operation for operation
    # and skips only nodes whose step would not change a bit, so the values
    # agree bit for bit, signed zeros included
    cells = 2 if kind == "oracle4" else 1
    max_its = 0
    for k, (u, v, a1, a2, its) in enumerate(reference_labels(data, grid, m, kind), start=1):
        max_its = max(max_its, its)
        t = k * cells * grid.h
        if any(abs(t - rt) < 1e-12 for rt in traj.times):
            snap, (b1, b2) = traj.snapshot_at(t), traj.traces_at(t)
            for got, want in ((snap.u, u), (snap.v, v), (b1, a1), (b2, a2)):
                np.testing.assert_array_equal(bits(got), bits(want))
    assert traj.max_fp_iterations == max_its


class TestWindowedSolver:
    """The label-frame, overlap-window solver against a whole-lattice stepper."""

    @pytest.mark.parametrize(
        "kind,model,family,shape,domain", REFERENCE_CASES,
        ids=[f"{k}-{m}-{f}-" + (f"shape{i}" if d == SMALL else
                                "wide" if s is PHASED_PAIR else "wide-in-phase")
             for i, (k, m, f, s, d) in enumerate(REFERENCE_CASES)])
    def test_matches_whole_lattice_stepper(self, kind, model, family, shape, domain,
                                           monkeypatch):
        m = ModelParams.thirring() if model == "thirring" else ModelParams.gross_neveu()
        span, h, T = domain
        grid = Grid.from_domain(-span, span, h, T)
        data = make_initial_data(family, shape, grid)
        cells = 2 if kind == "oracle4" else 1
        every = [k * cells * grid.h for k in range(grid.n_steps // cells + 1)]
        counter = CountingN(monkeypatch)
        narrowed = check_every_window(monkeypatch, data)
        traj = run(data, grid, m, Scheme(kind), every)
        assert_matches_reference(traj, data, grid, m, kind)
        if domain == WIDE and _KERNELS[kind][2] is not None:  # phase_split does not trim
            # the quiet rule skipped nodes the hull window would have stepped
            assert any(narrowed)
            trimmed = counter.nodes
            hull_only(monkeypatch)
            counter = CountingN(monkeypatch)
            run(data, grid, m, Scheme(kind), [T])
            assert trimmed < 0.9 * counter.nodes

    def test_oracle4_untrimmed_where_growth_is_unbounded(self, monkeypatch):
        # at h = 1/4 the double step's iterates may grow past what the margin
        # covers (dt * c_star * max|u|^2 > 1/7): the hull window is stepped
        grid = Grid.from_domain(-30.0, 30.0, 0.25, 12.0)
        shape = {**PHASED_PAIR, "u_amplitude": 0.6, "v_amplitude": 0.6}
        data = make_initial_data("gaussian", shape, grid)
        m = ModelParams.gross_neveu()
        every = [k * 2 * grid.h for k in range(grid.n_steps // 2 + 1)]
        counter = CountingN(monkeypatch)
        traj = run(data, grid, m, Scheme("oracle4"), every)
        assert_matches_reference(traj, data, grid, m, "oracle4")
        seen = counter.nodes
        hull_only(monkeypatch)
        counter = CountingN(monkeypatch)
        run(data, grid, m, Scheme("oracle4"), [grid.t_final])
        assert seen == counter.nodes

    @pytest.mark.parametrize("model", ["gross_neveu", "thirring"])
    def test_oracle4_half_level_pairs_keep_a_node(self, model):
        # u at node 6 and v at node 8 only: at the first double step node 8's
        # full pair (u from node 6, v from node 10) and stored sources are
        # zero, and only its half-level pair (u from 6, v from 8) is not
        grid = Grid(x_min=-0.25, h=1.0 / 32.0, n_cells=17, n_steps=4)
        u0, v0 = np.zeros(17, complex), np.zeros(17, complex)
        u0[6], v0[8] = 0.9 + 0.2j, 0.8 - 0.3j
        data = InitialData("custom", {}, grid, u0, v0)
        m = ModelParams.thirring() if model == "thirring" else ModelParams.gross_neveu()
        traj = run(data, grid, m, Scheme("oracle4"), [0.0625, 0.125])
        assert_matches_reference(traj, data, grid, m, "oracle4")
        assert traj.snapshot_at(0.0625).u[6] != u0[6]

    @pytest.mark.parametrize("kind", ["trapezoidal", "oracle4"])
    @pytest.mark.parametrize("seed", range(6))
    def test_negative_zeros_keep_their_bits(self, kind, seed, monkeypatch):
        # the kernels may turn a stored -0 into +0 (never the reverse), so a
        # node whose label holds one is stepped as in the hull window, which
        # a whole-lattice step does not match outside the hull
        rng = np.random.default_rng(seed)
        grid = Grid(x_min=-1.5, h=0.125, n_cells=24, n_steps=4)
        fields = []
        for _ in range(2):
            a = np.zeros(24, complex)
            a[rng.choice(24, 6, replace=False)] = rng.normal(size=6) + 1j * rng.normal(size=6)
            f = a.view(float)
            f[[k for k in rng.choice(48, 8, replace=False) if f[k] == 0]] = -0.0
            fields.append(a)
        data = InitialData("custom", {}, grid, *fields)
        m = ModelParams(0.5, -0.3)
        every = [0.25, 0.5]
        windows = check_every_window(monkeypatch, data)
        got = run(data, grid, m, Scheme(kind), every)
        assert windows  # the rule ran
        hull_only(monkeypatch)
        want = run(data, grid, m, Scheme(kind), every)
        for t in every:
            for a, b in zip((got.snapshot_at(t).u, got.snapshot_at(t).v, *got.traces_at(t)),
                            (want.snapshot_at(t).u, want.snapshot_at(t).v, *want.traces_at(t))):
                np.testing.assert_array_equal(bits(a), bits(b))

    @pytest.mark.parametrize("kind", ["trapezoidal", "oracle4"])
    def test_all_quiet_steps_report_one_sweep(self, kind, monkeypatch):
        # products of amplitude-1e-110 data underflow everywhere: every step
        # after the initial evaluation is skipped, and reports one sweep
        grid = Grid.from_domain(-25.0, 25.0, 0.125, 1.0)
        shape = {**PHASED_PAIR, "u_amplitude": 1e-110, "v_amplitude": 1e-110}
        data = make_initial_data("gaussian", shape, grid)
        nodes = []
        for T in (2 * grid.h, 1.0):
            counter = CountingN(monkeypatch)
            traj = run(data, grid, ModelParams.gross_neveu(), Scheme(kind), [T])
            nodes.append(counter.nodes)
            assert traj.max_fp_iterations == 1
        assert 0 < nodes[0] == nodes[1]
        assert_matches_reference(traj, data, grid, ModelParams.gross_neveu(), kind)

    @pytest.mark.parametrize("kind", ["trapezoidal", "phase_split", "oracle4"])
    def test_support_touching_the_domain_edges(self, kind):
        # both bumps fill [x_min, x_max], so the windows reach past the ends
        # of the domain's labels into the margin
        grid = Grid(x_min=-2.0, h=0.125, n_cells=33, n_steps=8)
        shape = {"u_width": 2.0, "v_width": 2.0, "v_center": 0.0, "v_phase": 1.0}
        data = make_initial_data("bump", shape, grid)
        assert data.u0[grid.index_of(-2.0 + grid.h)] != 0
        assert data.v0[grid.index_of(2.0 - grid.h)] != 0
        m = ModelParams.thirring()
        traj = run(data, grid, m, Scheme(kind), [0.0, 0.5, 1.0])
        assert_matches_reference(traj, data, grid, m, kind)

    @pytest.mark.parametrize("kind", ["trapezoidal", "phase_split", "oracle4"])
    def test_step_matches_one_reference_step(self, kind):
        # a field nonzero on every node, up to the ends of the domain
        cells = 2 if kind == "oracle4" else 1
        grid = Grid(x_min=-1.0, h=0.125, n_cells=17, n_steps=cells)
        x = grid.x()
        data = InitialData("custom", {}, grid, 0.8 * np.exp(-x ** 2) * np.exp(1j * x),
                           0.6 * np.exp(-(x - 0.3) ** 2) + 0.2j)
        m = ModelParams.thirring()
        got = run(data, grid, m, Scheme(kind), []).snapshot_at(grid.t_final)
        u, v, _, _, _ = next(reference_labels(data, grid, m, kind))
        assert got.t == pytest.approx(cells * grid.h)
        np.testing.assert_array_equal(got.u, u)
        np.testing.assert_array_equal(got.v, v)

    @pytest.mark.parametrize("kind", ["trapezoidal", "phase_split", "oracle4"])
    def test_separated_data_needs_no_evaluations(self, kind, monkeypatch):
        grid = Grid.from_domain(-10.0, 10.0, 0.125, 2.0)
        data = make_initial_data("separated",
                                 {"u_center": 3.0, "u_width": 2.0,
                                  "v_center": -3.0, "v_width": 2.0}, grid)
        counter = CountingN(monkeypatch)
        traj = run(data, grid, ModelParams.thirring(), Scheme(kind), [2.0])
        assert counter.nodes == 0
        assert traj.max_fp_iterations == 0
        # free transport leaves every label's value untouched
        np.testing.assert_array_equal(traj.snapshot_at(2.0).u, data.u0)
        np.testing.assert_array_equal(traj.snapshot_at(2.0).v, data.v0)

    @pytest.mark.parametrize("kind", ["trapezoidal", "oracle4"])
    def test_evaluations_stop_once_supports_part(self, kind, monkeypatch):
        # bumps of half-width 0.5 around 0 and 0.25 have parted by t = 0.75
        shape = {"u_width": 0.5, "v_center": 0.25, "v_width": 0.5}
        counts = []
        for T in (1.0, 2.0):
            grid = Grid.from_domain(-5.0, 5.0, 1.0 / 16.0, T)
            data = make_initial_data("bump", shape, grid)
            counter = CountingN(monkeypatch)
            run(data, grid, ModelParams.gross_neveu(), Scheme(kind), [T])
            counts.append(counter.nodes)
        assert 0 < counts[0] == counts[1]

    @pytest.mark.parametrize("kind", ["trapezoidal", "phase_split", "oracle4"])
    def test_zero_data_runs(self, kind, monkeypatch):
        grid = Grid.from_domain(-2.0, 2.0, 0.25, 1.0)
        data = make_initial_data("zero", {}, grid)
        counter = CountingN(monkeypatch)
        drift = ModulusDrift(data)
        probes = [drift]
        if kind != "oracle4":
            probes.append(TriangleSides(TriangleRegion(-1.0, 1.0, 0.0), 1.0, grid, Scheme(kind)))
        traj = run(data, grid, ModelParams.thirring(), Scheme(kind), [0.0, 1.0], probes)
        assert counter.nodes == 0
        assert not traj.snapshot_at(1.0).u.any() and not traj.snapshot_at(1.0).v.any()
        assert not any(a.any() for a in traj.traces_at(1.0))
        assert drift.value == 0.0


def polar(log2_modulus, phase):
    """A complex number of modulus 2**log2_modulus, rounded, at the given phase."""
    e = math.floor(log2_modulus)
    mant = 2.0 ** (log2_modulus - e)
    return complex(math.ldexp(mant * math.cos(phase), e), math.ldexp(mant * math.sin(phase), e))


phases = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, 0.7]),
                   st.floats(-math.pi, math.pi))


class TestQuietRule:
    """A pair the rule calls quiet has exact-zero sources."""

    @given(st.floats(-1120.0, -1040.0),
           st.one_of(st.floats(-1074.0, -1060.0), st.floats(-1074.0, -300.0)),
           st.booleans(), phases, phases, st.sampled_from(["alpha", "beta", "both"]),
           st.floats(0.05, 4.0), st.booleans())
    @settings(max_examples=1000, deadline=None)
    def test_quiet_pairs_have_zero_sources(self, target, small, u_small, pu, pv, coupling,
                                           size, negative):
        # c_star |u| |v| max(|u|, |v|) = 2**target, the smaller modulus 2**small:
        # the subnormal end is drawn often, where each rounding may double a value
        sign = -1.0 if negative else 1.0
        m = {"alpha": ModelParams(sign * size, 0.0), "beta": ModelParams(0.0, sign * size),
             "both": ModelParams(size, -sign * size / 3.0)}[coupling]
        large = 0.5 * (target - math.log2(m.c_star) - small)
        assume(small <= large <= 20.0)
        x, y = (small, large) if u_small else (large, small)
        u, v = np.array([polar(x, pu)]), np.array([polar(y, pv)])
        a, b = np.abs(u), np.abs(v)  # the moduli the solver stores
        loud = _loud_pairs(a, b, quiet_bound(m), np.empty(1), np.empty(1), np.empty(1, bool))
        if a[0] and b[0]:  # the rule compares log2 of the product with QUIET_EXP
            p = sum(map(math.log2, (m.c_star, a[0], b[0], max(a[0], b[0]))))
            assert loud[0] == (p >= QUIET_EXP) or abs(p - QUIET_EXP) < 1e-9
        else:
            assert not loud[0]
        if not loud[0]:
            for n1, n2 in (eval_N(u, v, m), eval_N(u, v, m, (a, b))):
                assert n1[0] == 0 and n2[0] == 0

    def test_bound(self):
        assert quiet_bound(ModelParams(0.0, 0.0)) == math.inf
        assert quiet_bound(ModelParams(2.0 ** 201, 0.0)) == 0.0  # nothing is quiet
        tiny = np.array([2.0 ** -700])
        loud = _loud_pairs(tiny, tiny, quiet_bound(ModelParams.gross_neveu()),
                           np.empty(1), np.empty(1), np.empty(1, bool))
        assert not loud[0]  # quiet, although the lifted product underflows to 0


class TestScheme:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scheme("leapfrog")
        with pytest.raises(ValueError):
            Scheme("trapezoidal", fixed_point_tol=0.0)
        with pytest.raises(ValueError):
            Scheme("trapezoidal", fixed_point_max_iter=0)


class TestExactCases:
    def test_zero_data_stays_zero(self):
        grid = Grid.from_domain(-2.0, 2.0, 0.25, 1.0)
        data = make_initial_data("zero", {}, grid)
        traj = run(data, grid, ModelParams.thirring(), Scheme(), [0.0, 1.0])
        assert not traj.snapshot_at(1.0).u.any()
        assert not traj.snapshot_at(1.0).v.any()
        assert traj.max_fp_iterations <= 1

    @pytest.mark.parametrize("scheme", ["trapezoidal", "phase_split", "oracle4"])
    def test_separated_data_transports_freely(self, scheme):
        # supp(u0) right of supp(v0): the movers depart immediately, N == 0
        grid = Grid.from_domain(-10.0, 10.0, 0.125, 2.0)
        data = make_initial_data("separated",
                                 {"u_center": 3.0, "u_width": 2.0,
                                  "v_center": -3.0, "v_width": 2.0}, grid)
        m = ModelParams.thirring()
        traj = run(data, grid, m, Scheme(scheme), [2.0])
        snap = traj.snapshot_at(2.0)
        np.testing.assert_allclose(snap.u, data.u0, atol=1e-14)
        np.testing.assert_allclose(snap.v, data.v0, atol=1e-14)

    def test_phase_split_exact_moduli(self):
        m = ModelParams.thirring()
        traj = gaussian_run(m, 1.0 / 32.0, 2.0, scheme="phase_split")
        snap = traj.snapshot_at(2.0)
        np.testing.assert_allclose(np.abs(snap.u), np.abs(traj.data.u0), atol=1e-13)
        np.testing.assert_allclose(np.abs(snap.v), np.abs(traj.data.v0), atol=1e-13)

    @pytest.mark.parametrize("alpha,h", [(1.0, 1.0 / 128.0), (1.0, 1.0 / 32.0), (-1.0, 0.25),
                                         (0.3, 1.0 / 1024.0), (0.0, 1.0 / 128.0)])
    def test_rotation_has_the_bits_of_cexp(self, alpha, h):
        # _step_phase_split rotates by cos and sin of theta = -(alpha*h)*x + 0.0
        # where the whole-lattice stepper takes exp(-1j*alpha*h*x): the two
        # agree only while this platform's cexp returns (cos, sin) of the
        # imaginary part for an exponent whose real part is +0
        rng = np.random.default_rng(9)
        tiny = np.finfo(float).smallest_subnormal
        x = np.concatenate([
            [0.0, tiny, 2 * tiny, 1e-310, np.finfo(float).tiny],
            tiny * rng.integers(1, 2 ** 20, 200),  # products that underflow
            rng.uniform(0.0, 2.0, 5000),  # the midpoint |u|^2, |v|^2 of the workloads
            10.0 ** rng.uniform(-323.0, 12.0, 20000),
        ])
        want = np.exp(-1j * alpha * h * x)
        theta = np.multiply(-(alpha * h), x) + 0.0
        got = np.empty_like(want)
        np.cos(theta, out=got.real)
        np.sin(theta, out=got.imag)
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_modulus_drift_tracking(self):
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        drift = ModulusDrift(data)
        run(data, grid, ModelParams.thirring(), Scheme("phase_split"), [1.0], [drift])
        assert drift.value <= 1e-13


class StepLog:
    """Probe recording each call's step, level and copies of the moduli."""

    def __init__(self):
        self.calls = []

    def on_step(self, k, level, abs_u, abs_v):
        assert not abs_u.flags.writeable and not abs_v.flags.writeable
        self.calls.append((k, level, abs_u.copy(), abs_v.copy()))


class TestProbes:
    @pytest.mark.parametrize("kind", ["trapezoidal", "phase_split", "oracle4"])
    def test_called_before_and_after_every_step(self, kind):
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        cells = Scheme(kind).cells
        every = [k * cells * grid.h for k in range(grid.n_steps // cells + 1)]
        log = StepLog()
        traj = run(data, grid, ModelParams.thirring(), Scheme(kind), every, [log])
        assert [(k, level) for k, level, *_ in log.calls] == [
            (k, k * cells) for k in range(grid.n_steps // cells + 1)]
        # the views are |u| and |v| by label over the domain at that step
        for (_, _, au, av), t in zip(log.calls, traj.times):
            snap = traj.snapshot_at(t)
            np.testing.assert_array_equal(au, np.abs(snap.u))
            np.testing.assert_array_equal(av, np.abs(snap.v))

    @pytest.mark.parametrize("kind,model", [("phase_split", ModelParams.thirring()),
                                            ("trapezoidal", ModelParams.gross_neveu())])
    def test_modulus_drift_equals_the_snapshots_running_max(self, kind, model):
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        drift = ModulusDrift(data)
        every = [k * grid.h for k in range(grid.n_steps + 1)]
        traj = run(data, grid, model, Scheme(kind), every, [drift])
        want = 0.0
        for t in traj.times:
            snap = traj.snapshot_at(t)
            want = max(want, np.max(np.abs(np.abs(snap.u) - np.abs(data.u0))),
                       np.max(np.abs(np.abs(snap.v) - np.abs(data.v0))))
        assert drift.value == want
        assert (want > 1e-6) == (kind == "trapezoidal")


class TestTraceIdentity:
    @pytest.mark.parametrize("scheme,model,tol", [
        # telescoping is exact for the implicit trapezoid update (fp tolerance
        # only); the phase-split update matches its own trapezoid traces to O(h^2)
        ("trapezoidal", "gross_neveu", 1e-10),
        ("phase_split", "thirring", 5e-3),
    ])
    def test_field_equals_free_flow_plus_trace(self, scheme, model, tol):
        m = ModelParams.thirring() if model == "thirring" else ModelParams.gross_neveu()
        traj = gaussian_run(m, 1.0 / 64.0, 1.0, scheme=scheme)
        a1, a2 = traj.traces_at(1.0)
        snap = traj.snapshot_at(1.0)
        ru = snap.u - traj.data.u0 + 1j * a1
        rv = snap.v - traj.data.v0 + 1j * a2
        assert np.max(np.abs(ru)) <= tol
        assert np.max(np.abs(rv)) <= tol


class TestConvergence:
    def test_trapezoidal_is_second_order(self):
        m = ModelParams.thirring()
        finals = {h: gaussian_run(m, h, 1.0).snapshot_at(1.0)
                  for h in (1 / 32, 1 / 64, 1 / 128)}
        d12 = l2_diff(finals[1 / 32], finals[1 / 64])
        d23 = l2_diff(finals[1 / 64], finals[1 / 128])
        assert 3.0 <= d12 / d23 <= 5.0

    def test_phase_split_is_second_order(self):
        m = ModelParams.thirring()
        finals = {h: gaussian_run(m, h, 1.0, scheme="phase_split").snapshot_at(1.0)
                  for h in (1 / 32, 1 / 64, 1 / 128)}
        d12 = l2_diff(finals[1 / 32], finals[1 / 64])
        d23 = l2_diff(finals[1 / 64], finals[1 / 128])
        assert 3.0 <= d12 / d23 <= 5.0

    def test_reference_scheme_is_fourth_order(self):
        m = ModelParams.gross_neveu()
        finals = {h: gaussian_run(m, h, 1.0, scheme="oracle4",
                                  fixed_point_tol=1e-14).snapshot_at(1.0)
                  for h in (1 / 32, 1 / 64, 1 / 128)}
        e1 = l2_diff(finals[1 / 32], finals[1 / 64])
        e2 = l2_diff(finals[1 / 64], finals[1 / 128])
        assert 12.0 <= e1 / e2 <= 20.0

    def test_production_matches_reference(self):
        m = ModelParams.gross_neveu()
        trap = gaussian_run(m, 1 / 64, 1.0).snapshot_at(1.0)
        orc = gaussian_run(m, 1 / 256, 1.0, scheme="oracle4",
                           fixed_point_tol=1e-14).snapshot_at(1.0)
        assert l2_diff(trap, orc) <= 2e-4


class TestInvariances:
    def test_global_phase_covariance(self):
        grid = Grid.from_domain(-10.0, 10.0, 1 / 32, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        m = ModelParams.gross_neveu()
        base = run(data, grid, m, Scheme(), [1.0]).snapshot_at(1.0)
        z = np.exp(0.7j)
        rotated = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        rotated.u0 = z * rotated.u0
        rotated.v0 = z * rotated.v0
        rot = run(rotated, grid, m, Scheme(), [1.0]).snapshot_at(1.0)
        np.testing.assert_allclose(rot.u, z * base.u, atol=1e-12)
        np.testing.assert_allclose(rot.v, z * base.v, atol=1e-12)

    def test_fixed_point_converges_quickly(self):
        traj = gaussian_run(ModelParams.gross_neveu(), 1 / 64, 1.0)
        assert 1 <= traj.max_fp_iterations <= 8


class TestGuards:
    def test_blowup_guard(self):
        grid = Grid.from_domain(-20.0, 20.0, 0.25, 1.0)
        data = make_initial_data("gaussian", {**GAUSSIAN_PAIR, "u_amplitude": 2e6}, grid)
        with pytest.raises(SolverError, match="blow-up"):
            run(data, grid, ModelParams.thirring(), Scheme(), [1.0])

    def test_fixed_point_divergence_reported(self):
        grid = Grid.from_domain(-20.0, 20.0, 0.25, 1.0)
        data = make_initial_data("gaussian", {**GAUSSIAN_PAIR, "u_amplitude": 100.0,
                                              "v_amplitude": 100.0}, grid)
        with pytest.raises(SolverError, match="did not converge"):
            run(data, grid, ModelParams.thirring(), Scheme(fixed_point_max_iter=3), [1.0])

    def test_nonfinite_sweep_stops_with_its_time(self):
        # amplitude 8 at h = 1/32: the first step's fixed point overflows
        grid = Grid.from_domain(-12.0, 12.0, 1.0 / 32.0, 4.0)
        data = make_initial_data("gaussian", {**GAUSSIAN_PAIR, "u_amplitude": 8.0,
                                              "v_amplitude": 8.0}, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=r"diverged at t = 0\.\d+: sweep \d+ "):
                run(data, grid, ModelParams.gross_neveu(), Scheme(), [4.0])

    def test_data_from_another_grid_rejected(self):
        grid = Grid.from_domain(-10.0, 10.0, 0.25, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        for other in (Grid.from_domain(-10.0, 10.0, 0.125, 1.0),
                      Grid.from_domain(-9.75, 10.25, 0.25, 1.0)):
            with pytest.raises(ValueError, match="different grid"):
                run(data, other, ModelParams.thirring(), Scheme(), [1.0])

    def test_phase_split_requires_beta_zero(self):
        grid = Grid.from_domain(-10.0, 10.0, 0.25, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        with pytest.raises(ValueError, match="beta"):
            run(data, grid, ModelParams.gross_neveu(), Scheme("phase_split"), [1.0])

    def test_reference_scheme_needs_even_steps(self):
        grid = Grid.from_domain(-10.0, 10.0, 0.25, 0.75)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        with pytest.raises(ValueError, match="even"):
            run(data, grid, ModelParams.thirring(), Scheme("oracle4"), [0.0])

    def test_record_time_off_lattice(self):
        grid = Grid.from_domain(-10.0, 10.0, 0.25, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        with pytest.raises(ValueError, match="record time"):
            run(data, grid, ModelParams.thirring(), Scheme(), [0.3])
        with pytest.raises(ValueError, match="record time"):
            run(data, grid, ModelParams.thirring(), Scheme(), [2.0])

    def test_final_time_always_recorded(self):
        traj = gaussian_run(ModelParams.thirring(), 0.25, 1.0, record=())
        assert traj.times[-1] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            traj.snapshot_at(0.5)


class TestRestriction:
    def test_restrict_aligns_by_coordinates(self):
        # the horizons differ: only the domain and the step ratio matter
        gc = Grid.from_domain(-2.0, 2.0, 0.5, 1.0)
        gf = Grid.from_domain(-2.0, 2.0, 0.25, 2.0)
        got = restrict(np.cos(gf.x()), gf, gc)
        np.testing.assert_allclose(got, np.cos(gc.x()), atol=1e-14)

    def test_restrict_rejects_mismatched_grids(self):
        gc = Grid.from_domain(-2.0, 2.0, 0.5, 1.0)
        for bad in (Grid.from_domain(-1.0, 2.0, 0.25, 1.0), Grid.from_domain(-2.0, 3.0, 0.25, 1.0),
                    Grid.from_domain(-2.0, 2.0, 0.3 * 4 / 3, 0.4)):
            with pytest.raises(ValueError):
                restrict(np.zeros(bad.n_cells), bad, gc)


FILLING_BUMPS = {"u_width": 2.0, "v_width": 2.0, "v_center": 0.0, "v_phase": 1.0}


class TestDomainEdges:
    """Nodes whose labels lie off the domain, against the padded stepper."""

    @pytest.mark.parametrize("a,b", [(-2.0, 0.0), (0.0, 2.0)])
    def test_elevated_triangle_at_the_domain_edge(self, a, b):
        # at t0 = 0.5 the base [-2, 0] reads u labels below x_min, and the
        # base [0, 2] reads v labels past x_max; both fields are nonzero up to
        # the other end of their label arrays, where a wrapped read would land
        grid = Grid.from_domain(-2.0, 2.0, 1.0 / 16.0, 1.0)
        data = make_initial_data("bump", FILLING_BUMPS, grid)
        m = ModelParams.gross_neveu()
        sides = TriangleSides(TriangleRegion(a, b, 0.5), 1.0, grid, Scheme())
        run(data, grid, m, Scheme(), [1.0], [sides])
        k0, kt, ja, jb = sides.k0, sides.kt, sides.ja, sides.jb
        ref = [(np.abs(u) ** 2, np.abs(v) ** 2) for u, v in reference_nodes(data, grid, m)]
        rows, right, left = sides.rows, sides.right, sides.left
        for row, k in zip(rows, (k0, kt)):
            mu, mv = ref[k]
            np.testing.assert_array_equal(row, (mu + mv)[ja + k - k0:jb - k + k0 + 1])
        np.testing.assert_array_equal(right, [ref[k][0][jb - k + k0] for k in range(k0, kt + 1)])
        np.testing.assert_array_equal(left, [ref[k][1][ja + k - k0] for k in range(k0, kt + 1)])
        off = slice(0, k0) if a == grid.x_min else slice(len(rows[0]) - k0, None)
        side = ref[k0][0] if a == grid.x_min else ref[k0][1]
        assert not side[ja:jb + 1][off].any() and rows[0][off].all()

    def test_snapshot_rows_after_u_leaves_through_x_max(self, tmp_path):
        cfg = parse_config(json.dumps({
            "model": "gross_neveu", "family": "bump", "x_min": -2.0, "x_max": 2.0,
            "h": 0.0625, "T": 2.0, "record_times": [0.0, 1.0, 2.0], "checks": ["charge"],
            "u_center": 1.0, "u_width": 0.75, "v_center": 0.0, "v_width": 0.75,
            "output_dir": str(tmp_path)}))
        assert run_experiment(cfg) == 0
        lines = (tmp_path / "snapshots.csv").read_text().splitlines()[1:]
        grid = Grid.from_domain(-2.0, 2.0, 0.0625, 2.0)
        data = make_initial_data("bump", cfg.shape_params, grid)
        ref = reference_nodes(data, grid, cfg.model_params())
        rows = np.array([[float(c) for c in line.split(",")] for line in lines])
        for i, t in enumerate((0.0, 1.0, 2.0)):
            block = rows[i * grid.n_cells:(i + 1) * grid.n_cells]
            u, v = ref[grid.step_of(t)]
            np.testing.assert_array_equal(block[:, 0], t)
            np.testing.assert_array_equal(block[:, 1], grid.x())
            np.testing.assert_array_equal(block[:, 2] + 1j * block[:, 3], u)
            np.testing.assert_array_equal(block[:, 4] + 1j * block[:, 5], v)
        # u's support [0.25, 1.75] is half out at t = 1 and gone at t = 2
        assert ref[16][0][-1] != 0 and not ref[32][0].any()


def test_memory_bounded_in_T():
    # arrays hold the domain's labels only; a lattice padded by n_steps
    # zero cells per side peaked at 23 MB here
    grid = Grid.from_domain(-10.0, 10.0, 1.0 / 64.0, 400.0)
    data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
    tracemalloc.start()
    try:
        run(data, grid, ModelParams.thirring(), Scheme("phase_split"), [0.0, 200.0, 400.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
