"""Scheme correctness: exact transport, convergence orders, trace identities."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dirac1d import (Grid, InitialData, ModelParams, ModulusDrift, Scheme, SolverError,
                     TriangleRegion, TriangleSides, compute_profile, make_initial_data)
from dirac1d.cli import parse_config, run_experiment
from dirac1d.nonlinearity import eval_N
from dirac1d.solver import (_KERNELS, MARGIN, QUIET_EXP, _loud_pairs, l2_diff, quiet_bound,
                            restrict, run)
from dirac1d.fields import charge
from reference import thirring_continuum, thirring_lattice
from test_mutants import left_endpoint, scaled_angle

GAUSSIAN_PAIR = {"u_center": 0.0, "u_width": 1.0, "v_center": 1.0, "v_width": 1.0}


def gaussian_run(m, h, T, span=10.0, scheme="trapezoidal", record=(0.0,), **kw):
    grid = Grid.from_domain(-span, span, h, T)
    data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
    times = sorted(set(record) | {T})
    return run(data, m, Scheme(scheme, **kw), times)


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
    step, with the traces in the characteristic-label frame.  phase_split
    turns by the midpoints of the data moduli and evaluates its sources at
    them: it transports them exactly, so they are shifted, never recomputed."""
    from dirac1d.solver import _L_FULL, _L_HALF
    a1, a2 = np.zeros_like(u), np.zeros_like(v)
    cells = 2 if kind == "oracle4" else 1
    au, av = np.abs(u), np.abs(v)  # the data moduli at the current level

    def squares():
        """The squared moduli phase_split evaluates its sources at; None for the others."""
        return np.square(np.stack((au, av))) if kind == "phase_split" else None
    for k in range(1, n_steps // cells + 1):
        n1p, n2p = sources(u, v, m, squares())
        its = 0
        if kind == "oracle4":
            dt = 2.0 * h
            f0u, f0v = -1j * n1p, -1j * n2p
            bases = (shift_right(u), shift_right(u, 2), shift_left(v), shift_left(v, 2))
            Uh, Uf, Vh, Vf = bases
            scale = 1.0 + max(np.max(np.abs(u)), np.max(np.abs(v)))
            for its in range(1, max_iter + 1):
                fhu, fhv = (-1j * n for n in sources(Uh, Vh, m))
                f1u, f1v = (-1j * n for n in sources(Uf, Vf, m))
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
            (n1h, n2h), (n1, n2) = sources(Uh, Vh, m), sources(u, v, m)
            a1 = shift_right(a1, 2) + dt * (_L_FULL[0] * shift_right(n1p, 2)
                                            + _L_FULL[1] * shift_right(n1h) + _L_FULL[2] * n1)
            a2 = shift_left(a2, 2) + dt * (_L_FULL[0] * shift_left(n2p, 2)
                                           + _L_FULL[1] * shift_left(n2h) + _L_FULL[2] * n2)
        else:
            if kind == "trapezoidal":
                a = shift_right(u - 0.5j * h * n1p)
                b = shift_left(v - 0.5j * h * n2p)
                U, V = shift_right(u), shift_left(v)
                scale = 1.0 + max(np.max(np.abs(U)), np.max(np.abs(V)))
                for its in range(1, max_iter + 1):
                    n1, n2 = sources(U, V, m)
                    Un, Vn = a - 0.5j * h * n1, b - 0.5j * h * n2
                    delta = max(np.max(np.abs(Un - U)), np.max(np.abs(Vn - V)))
                    U, V = Un, Vn
                    if delta <= tol * scale:
                        break
            else:
                mu, mv = au ** 2, av ** 2
                v_mid = 0.5 * (shift_right(mv) + shift_left(mv))
                u_mid = 0.5 * (shift_right(mu) + shift_left(mu))
                U = shift_right(u) * np.exp(-1j * m.alpha * h * v_mid)
                V = shift_left(v) * np.exp(-1j * m.alpha * h * u_mid)
            u, v, au, av = U, V, shift_right(au), shift_left(av)
            n1, n2 = sources(u, v, m, squares())
            a1 = shift_right(a1) + 0.5 * h * (shift_right(n1p) + n1)
            a2 = shift_left(a2) + 0.5 * h * (shift_left(n2p) + n2)
        yield u, v, shift_left(a1, k * cells), shift_right(a2, k * cells), its


def sources(u, v, m, squares=None):
    """(N1, N2) at (u, v) by the production formula, at the squared moduli if given."""
    return tuple(eval_N(np.stack((u, v)), m, squares))


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
    stays zero."""
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

        def counted(w, *args, **kwargs):
            self.nodes += np.shape(w)[-1]
            return original(w, *args, **kwargs)
        monkeypatch.setattr(solver, "eval_N", counted)


def hull_only(monkeypatch):
    """Make the solver step the whole hull window, as before the quiet rule."""
    from dirac1d import solver
    monkeypatch.setattr(solver._Labels, "trim", lambda self, lo, hi, r: (lo, hi))


def bits(a):
    """The bit patterns of a complex array: array_equal does not see the sign of a zero."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def rule_window(lab, lo, hi, r):
    """The window _Labels.trim must give for the hull lo..hi, straight from its
    docstring's definition over every node of the hull: from the first to the
    last node with a loud pair or a nonzero stored source on its own labels;
    the hull where oracle4's growth bound fails.  Asserts that oracle4's extra
    half-level labels, which the rule does not read, hold zero sources."""
    x = np.arange(lo, hi + 1)
    i, j = MARGIN + x - lab.level, MARGIN + x + lab.level  # the labels at node x
    # oracle4's half level also moves u labels i[-1] + 1..i[-1] + r and v labels j[0] - r..j[0] - 1
    (n1, n2), (abs_u, abs_v) = lab.sources, lab.moduli
    assert not n1[i[-1] + 1:i[-1] + r + 1].any() and not n2[j[0] - r:j[0]].any()
    if r:
        a = max(abs_u.max(), abs_v.max())
        b, dt, c = 1.5 * a, r * lab.h, lab.m.c_star
        if dt * c * a ** 2 > 1.0 / 7.0 or dt * (b ** 2 + (2 * c + 1) * b + 5) > 8.0:
            return lo, hi
    n = len(x)
    loud = (n1[i] != 0) | (n2[j] != 0)
    for pi, pj in [(i, j)] + ([(i, j - r), (i + r, j)] if r else []):
        loud |= _loud_pairs(abs_u[pi], abs_v[pj], quiet_bound(lab.m),
                            np.empty(n), np.empty(n), np.empty(n, bool))
    k = np.flatnonzero(loud)
    return (lo + int(k[0]), lo + int(k[-1])) if k.size else None


def check_every_window(monkeypatch):
    """Make every trim assert that its window is rule_window's; returns a list
    that gains, per step, whether the window was narrower than the hull."""
    from dirac1d import solver
    trim, narrowed = solver._Labels.trim, []

    def checked(self, lo, hi, r):
        got, want = trim(self, lo, hi, r), rule_window(self, lo, hi, r)
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
            for got, want in zip(traj.snapshot_at(t), (u, v, a1, a2)):
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
        narrowed = check_every_window(monkeypatch)
        traj = run(data, m, Scheme(kind), every)
        assert_matches_reference(traj, data, grid, m, kind)
        if domain == WIDE and _KERNELS[kind][2] is not None:  # phase_split does not trim
            # the quiet rule skipped nodes the hull window would have stepped
            assert any(narrowed)
            trimmed = counter.nodes
            hull_only(monkeypatch)
            counter = CountingN(monkeypatch)
            run(data, m, Scheme(kind), [T])
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
        traj = run(data, m, Scheme("oracle4"), every)
        assert_matches_reference(traj, data, grid, m, "oracle4")
        seen = counter.nodes
        hull_only(monkeypatch)
        counter = CountingN(monkeypatch)
        run(data, m, Scheme("oracle4"), [grid.t_final])
        assert seen == counter.nodes

    @pytest.mark.parametrize("model", ["gross_neveu", "thirring"])
    def test_oracle4_half_level_pairs_keep_a_node(self, model):
        # u at node 6 and v at node 8 only: at the first double step node 8's
        # full pair (u from node 6, v from node 10) and stored sources are
        # zero, and only its half-level pair (u from 6, v from 8) is not
        grid = Grid(x_min=-0.25, h=1.0 / 32.0, n_cells=17, n_steps=4)
        u0, v0 = np.zeros(17, complex), np.zeros(17, complex)
        u0[6], v0[8] = 0.9 + 0.2j, 0.8 - 0.3j
        data = InitialData(grid, u0, v0)
        m = ModelParams.thirring() if model == "thirring" else ModelParams.gross_neveu()
        traj = run(data, m, Scheme("oracle4"), [0.0625, 0.125])
        assert_matches_reference(traj, data, grid, m, "oracle4")
        assert traj.snapshot_at(0.0625)[0][6] != u0[6]

    @pytest.mark.parametrize("kind", ["trapezoidal", "phase_split", "oracle4"])
    @pytest.mark.parametrize("seed", range(6))
    def test_negative_zeros_keep_their_bits(self, kind, seed, monkeypatch):
        # the solver loads each -0 of the data as +0, so the whole-lattice
        # stepper fed the data plus 0.0 is its bit-exact reference
        rng = np.random.default_rng(seed)
        grid = Grid(x_min=-1.5, h=0.125, n_cells=24, n_steps=4)
        fields = []
        for _ in range(2):
            a = np.zeros(24, complex)
            a[rng.choice(24, 6, replace=False)] = rng.normal(size=6) + 1j * rng.normal(size=6)
            f = a.view(float)
            f[[k for k in rng.choice(48, 8, replace=False) if f[k] == 0]] = -0.0
            fields.append(a)
        data = InitialData(grid, *fields)
        f = data.u0.view(float)
        assert np.signbit(f[f == 0]).any()  # the data hold -0s
        m = ModelParams(0.5, 0.0 if kind == "phase_split" else -0.3)
        cells = 2 if kind == "oracle4" else 1
        windows = check_every_window(monkeypatch)
        traj = run(data, m, Scheme(kind), [k * grid.h for k in range(0, 5, cells)])
        assert bool(windows) == (kind != "phase_split")  # the rule ran where it trims
        loaded = InitialData(grid, data.u0 + 0.0, data.v0 + 0.0)
        assert_matches_reference(traj, loaded, grid, m, kind)

    @given(st.sampled_from(["trapezoidal", "oracle4"]), st.floats(-1.0, 1.0),
           st.floats(-1.0, 1.0), st.data())
    @settings(max_examples=300, deadline=None)
    def test_implicit_kernels_make_no_negative_zeros(self, kind, alpha, beta, data):
        """The lemma the quiet rule rests on: from data holding -0s, the
        trapezoid and oracle4 runs store no -0 in u or v at any step (and
        every trim gives the rule's window).  phase_split is left out: it
        rotates a zero label by an angle whose cosine may be negative, which
        gives -0; it does not trim."""
        draw, n = data.draw, 20
        grid = Grid(x_min=-0.625, h=1.0 / 16.0, n_cells=n, n_steps=8)
        fields = []
        for _ in range(2):
            a = np.zeros(n, complex)
            for k in draw(st.lists(st.integers(0, n - 1), max_size=6, unique=True)):
                a[k] = polar(draw(st.one_of(st.floats(-1074.0, -1000.0),
                                            st.floats(-1100.0, 0.0))), draw(phases))
            f = a.view(float)
            f[[k for k in draw(st.lists(st.integers(0, 2 * n - 1))) if f[k] == 0]] = -0.0
            fields.append(a)
        init = InitialData(grid, *fields)
        with pytest.MonkeyPatch.context() as mp:
            check_every_window(mp)
            traj = run(init, ModelParams(alpha, beta), Scheme(kind),
                       [k * grid.h for k in range(0, 9, Scheme(kind).cells)])
        for t in traj.times:
            for a in traj.snapshot_at(t)[:2]:
                f = a.view(float)
                assert not np.signbit(f[f == 0]).any(), (t, a)

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
            traj = run(data, ModelParams.gross_neveu(), Scheme(kind), [T])
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
        traj = run(data, m, Scheme(kind), [0.0, 0.5, 1.0])
        assert_matches_reference(traj, data, grid, m, kind)

    @pytest.mark.parametrize("kind", ["trapezoidal", "phase_split", "oracle4"])
    def test_step_matches_one_reference_step(self, kind):
        # a field nonzero on every node, up to the ends of the domain
        cells = 2 if kind == "oracle4" else 1
        grid = Grid(x_min=-1.0, h=0.125, n_cells=17, n_steps=cells)
        x = grid.x()
        data = InitialData(grid, 0.8 * np.exp(-x ** 2) * np.exp(1j * x),
                           0.6 * np.exp(-(x - 0.3) ** 2) + 0.2j)
        m = ModelParams.thirring()
        traj = run(data, m, Scheme(kind), [])
        u, v, _, _, _ = next(reference_labels(data, grid, m, kind))
        assert list(traj.snapshots) == [cells]  # keyed by cell level
        got_u, got_v, *_ = traj.snapshot_at(grid.t_final)
        np.testing.assert_array_equal(got_u, u)
        np.testing.assert_array_equal(got_v, v)

    @pytest.mark.parametrize("kind", ["trapezoidal", "phase_split", "oracle4"])
    def test_separated_data_needs_no_evaluations(self, kind, monkeypatch):
        grid = Grid.from_domain(-10.0, 10.0, 0.125, 2.0)
        data = make_initial_data("separated",
                                 {"u_center": 3.0, "u_width": 2.0,
                                  "v_center": -3.0, "v_width": 2.0}, grid)
        counter = CountingN(monkeypatch)
        traj = run(data, ModelParams.thirring(), Scheme(kind), [2.0])
        assert counter.nodes == 0
        assert traj.max_fp_iterations == 0
        # free transport leaves every label's value untouched
        u, v, *_ = traj.snapshot_at(2.0)
        np.testing.assert_array_equal(u, data.u0)
        np.testing.assert_array_equal(v, data.v0)

    @pytest.mark.parametrize("kind", ["trapezoidal", "oracle4"])
    def test_evaluations_stop_once_supports_part(self, kind, monkeypatch):
        # bumps of half-width 0.5 around 0 and 0.25 have parted by t = 0.75
        shape = {"u_width": 0.5, "v_center": 0.25, "v_width": 0.5}
        counts = []
        for T in (1.0, 2.0):
            grid = Grid.from_domain(-5.0, 5.0, 1.0 / 16.0, T)
            data = make_initial_data("bump", shape, grid)
            counter = CountingN(monkeypatch)
            run(data, ModelParams.gross_neveu(), Scheme(kind), [T])
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
        traj = run(data, ModelParams.thirring(), Scheme(kind), [0.0, 1.0], probes)
        assert counter.nodes == 0
        assert not any(a.any() for a in traj.snapshot_at(1.0))
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
            w = np.stack((u, v))
            for n1, n2 in (eval_N(w, m), eval_N(w, m, np.square(np.stack((a, b))))):
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
        # an infinite tolerance would make the implicit trapezoid one explicit sweep
        for tol in (0.0, -1e-12, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="fixed_point_tol"):
                Scheme("trapezoidal", fixed_point_tol=tol)
        with pytest.raises(ValueError):
            Scheme("trapezoidal", fixed_point_max_iter=0)
        # _fixed_point's range() would raise TypeError at the first implicit step
        for max_iter in (2.5, 3.0, "3", None, np.float64(4.0)):
            with pytest.raises(ValueError, match="must be an integer"):
                Scheme(fixed_point_max_iter=max_iter)
        assert Scheme(fixed_point_max_iter=np.int64(3)).fixed_point_max_iter == 3


class TestExactCases:
    def test_zero_data_stays_zero(self):
        grid = Grid.from_domain(-2.0, 2.0, 0.25, 1.0)
        data = make_initial_data("zero", {}, grid)
        traj = run(data, ModelParams.thirring(), Scheme(), [0.0, 1.0])
        assert traj.grid is data.grid
        assert not any(a.any() for a in traj.snapshot_at(1.0))
        assert traj.max_fp_iterations <= 1

    @pytest.mark.parametrize("scheme", ["trapezoidal", "phase_split", "oracle4"])
    def test_separated_data_transports_freely(self, scheme):
        # supp(u0) right of supp(v0): the movers depart immediately, N == 0
        grid = Grid.from_domain(-10.0, 10.0, 0.125, 2.0)
        data = make_initial_data("separated",
                                 {"u_center": 3.0, "u_width": 2.0,
                                  "v_center": -3.0, "v_width": 2.0}, grid)
        m = ModelParams.thirring()
        traj = run(data, m, Scheme(scheme), [2.0])
        u, v, *_ = traj.snapshot_at(2.0)
        np.testing.assert_allclose(u, data.u0, atol=1e-14)
        np.testing.assert_allclose(v, data.v0, atol=1e-14)

    def test_phase_split_exact_moduli(self):
        m = ModelParams.thirring()
        traj = gaussian_run(m, 1.0 / 32.0, 2.0, scheme="phase_split")
        u, v, *_ = traj.snapshot_at(2.0)
        np.testing.assert_allclose(np.abs(u), np.abs(traj.data.u0), atol=1e-13)
        np.testing.assert_allclose(np.abs(v), np.abs(traj.data.v0), atol=1e-13)

    @pytest.mark.parametrize("alpha,h", [(1.0, 1.0 / 128.0), (1.0, 1.0 / 32.0), (-1.0, 0.25),
                                         (0.3, 1.0 / 1024.0), (0.0, 1.0 / 128.0)])
    def test_rotation_has_the_bits_of_cexp(self, alpha, h):
        # phase_split's turns are cos and sin of theta = -(alpha*h)*x + 0.0 (`_turns`)
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

    def test_tiny_angles_have_exact_cos_and_sin(self):
        # below |theta| = 2**-27 the correctly rounded cos and sin are 1 and theta:
        # 1 - cos < theta**2 / 2 < 2**-55, under half the float spacing below 1, and
        # |sin - theta| < |theta|**3 / 6 < 2**-56 |theta|, under half the spacing next
        # to theta; `_turns` calls cos and sin on every angle, tiny ones included
        rng = np.random.default_rng(10)
        tiny = np.finfo(float).smallest_subnormal
        theta = np.concatenate([[tiny, 2 * tiny, np.finfo(float).tiny, 2.0 ** -28,
                                 np.nextafter(2.0 ** -27, 0.0)],
                                2.0 ** rng.uniform(-1074.0, -27.0, 20000)])
        theta = np.concatenate([theta, -theta])
        assert np.all(np.abs(theta) < 2.0 ** -27)
        got = np.empty(len(theta), complex)
        np.cos(theta, out=got.real)  # as `_turns` calls them: into a complex row
        np.sin(theta, out=got.imag)
        for c, s in ((got.real, got.imag), (np.cos(theta), np.sin(theta))):
            np.testing.assert_array_equal(c, 1.0)
            np.testing.assert_array_equal(s.view(np.uint64), theta.view(np.uint64))

    @pytest.mark.parametrize("alpha", [1.0, -0.7])
    @pytest.mark.parametrize("shape", [GAUSSIAN_PAIR, PHASED_PAIR], ids=["in-phase", "phased"])
    def test_turns_are_cexp_of_the_data_midpoints(self, alpha, shape):
        # on [-30, 30] the tails' squared moduli underflow to subnormals and zeros
        from dirac1d import solver
        grid = Grid.from_domain(-30.0, 30.0, 1.0 / 32.0, 1.0)
        data = make_initial_data("gaussian", shape, grid)
        m = ModelParams(alpha, 0.0)
        lab = solver._Labels(data, m, Scheme("phase_split"))
        sq = np.abs(np.pad(np.stack((data.u0, data.v0)), ((0, 0), (MARGIN, MARGIN)))) ** 2
        tiny = np.finfo(float).tiny
        assert ((sq > 0) & (sq < tiny)).any() and (sq == 0).any()
        mid = 0.5 * (sq[:, :-2] + sq[:, 2:])  # row 0 at u label i, row 1 at v label i + 2
        want = np.ones_like(lab.w)
        want[0, :-2], want[1, 2:] = np.exp(-1j * alpha * grid.h * mid)
        np.testing.assert_array_equal(bits(lab.work[8:10]), bits(want))

    def test_cos_and_sin_run_only_while_the_turns_are_built(self, monkeypatch):
        from dirac1d import solver
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 1.0)
        data = make_initial_data("gaussian", PHASED_PAIR, grid)
        calls, building, turns = [], [False], solver._turns

        def traced(lab):
            building[0] = True
            try:
                turns(lab)
            finally:
                building[0] = False
        monkeypatch.setattr(solver, "_turns", traced)
        for name in ("cos", "sin"):
            def counted(*args, _f=getattr(np, name), _name=name, **kwargs):
                calls.append((_name, building[0]))
                return _f(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        run(data, ModelParams.thirring(), Scheme("phase_split"), [0.5, 1.0])
        assert calls == [("cos", True), ("sin", True)]

    def test_modulus_drift_tracking(self):
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        drift = ModulusDrift(data)
        run(data, ModelParams.thirring(), Scheme("phase_split"), [1.0], [drift])
        assert drift.value <= 1e-13


class StepLog:
    """Probe keeping every Step it sees, with copies of the views, which the
    run overwrites, and the last Step as handed over."""

    def __init__(self):
        self.steps, self.last = [], None

    def on_step(self, step):
        self.last = step
        self.steps.append(step._replace(w=step.w.copy(), traces=step.traces.copy()))


class TestProbes:
    @pytest.mark.parametrize("kind", ["trapezoidal", "phase_split", "oracle4"])
    def test_called_before_and_after_every_step(self, kind):
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        cells = Scheme(kind).cells
        every = [k * cells * grid.h for k in range(grid.n_steps // cells + 1)]
        log = StepLog()
        traj = run(data, ModelParams.thirring(), Scheme(kind), every, [log])
        assert [step.level for step in log.steps] == list(range(0, grid.n_steps + 1, cells))
        # the views are (u, v) and (A1, A2) by label over the domain at that step
        for step, t in zip(log.steps, traj.times):
            u, v, a1, a2 = traj.snapshot_at(t)
            assert step._fields == ("level", "sweeps", "w", "traces")
            np.testing.assert_array_equal(step.w, [u, v])
            np.testing.assert_array_equal(step.traces, [a1, a2])
        assert log.steps[0].sweeps == 0
        assert max(step.sweeps for step in log.steps) == traj.max_fp_iterations
        assert (traj.max_fp_iterations > 0) == (kind != "phase_split")

    def test_views_are_read_only(self):
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 1.0)
        log = StepLog()
        run(make_initial_data("gaussian", GAUSSIAN_PAIR, grid), ModelParams.gross_neveu(),
            Scheme(), [], [log])
        for view in (log.last.w, log.last.traces):
            assert view.shape == (2, grid.n_cells)
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 1.0

    def test_probes_from_a_generator_see_every_step(self):
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        logs = [StepLog(), StepLog()]
        run(data, ModelParams.gross_neveu(), Scheme(), [], (log for log in logs))
        for log in logs:
            assert [step.level for step in log.steps] == list(range(grid.n_steps + 1))

    @pytest.mark.parametrize("kind", ["trapezoidal", "oracle4"])
    def test_snapshot_keys_are_the_record_levels(self, kind):
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        traj = run(data, ModelParams.gross_neveu(), Scheme(kind), [0.5, 0.0, 0.25, 0.5])
        assert traj.record_levels == {0, 8, 16, 32}
        assert list(traj.snapshots) == sorted(traj.record_levels)

    @pytest.mark.parametrize("kind,model", [("phase_split", ModelParams.thirring()),
                                            ("trapezoidal", ModelParams.gross_neveu())])
    def test_modulus_drift_equals_the_snapshots_running_max(self, kind, model):
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        drift = ModulusDrift(data)
        every = [k * grid.h for k in range(grid.n_steps + 1)]
        traj = run(data, model, Scheme(kind), every, [drift])
        want = 0.0
        for t in traj.times:
            u, v, *_ = traj.snapshot_at(t)
            want = max(want, np.max(np.abs(np.abs(u) - np.abs(data.u0))),
                       np.max(np.abs(np.abs(v) - np.abs(data.v0))))
        assert drift.value == want
        assert (want > 1e-6) == (kind == "trapezoidal")


class TestTraceIdentity:
    @pytest.mark.parametrize("scheme,model,tol", [
        # telescoping is exact for the implicit trapezoid and oracle4 updates (fp
        # tolerance only); the phase-split update matches its own trapezoid traces to O(h^2)
        ("trapezoidal", "gross_neveu", 1e-10),
        ("oracle4", "gross_neveu", 1e-10),
        ("phase_split", "thirring", 5e-3),
    ])
    def test_field_equals_free_flow_plus_trace(self, scheme, model, tol):
        m = ModelParams.thirring() if model == "thirring" else ModelParams.gross_neveu()
        assert identity_miss(gaussian_run(m, 1.0 / 64.0, 1.0, scheme=scheme)) <= tol

    def test_scaled_trace_panel_breaks_the_identity(self, monkeypatch):
        from dirac1d import solver
        panel = solver._Labels.trapezoid_panel
        monkeypatch.setattr(solver._Labels, "trapezoid_panel",
                            lambda self, old, new: 1.1 * panel(self, old, new))
        assert identity_miss(gaussian_run(ModelParams.gross_neveu(), 1.0 / 64.0, 1.0)) > 1e-2


def identity_miss(traj):
    """max |u - u0 + i A1| and max |v - v0 + i A2| at the final time."""
    u, v, a1, a2 = traj.snapshot_at(traj.grid.t_final)
    return max(np.max(np.abs(u - traj.data.u0 + 1j * a1)),
               np.max(np.abs(v - traj.data.v0 + 1j * a2)))


class TestThirringClosedForm:
    """phase_split against the lattice closed form of the beta = 0 states."""

    H, T = 1.0 / 64.0, 2.0

    def miss(self):
        """max over every recorded time of phase_split's distance to the closed
        form, and the bound that the roundoff of its steps keeps it under."""
        grid = Grid.from_domain(-10.0, 10.0, self.H, self.T)
        data = make_initial_data("gaussian", {**GAUSSIAN_PAIR, "v_phase": 0.3}, grid)
        m = ModelParams.thirring()
        traj = run(data, m, Scheme("phase_split"), [k / 8.0 for k in range(17)])
        worst = 0.0
        for level, (u, v, *_) in traj.snapshots.items():
            want_u, want_v = thirring_lattice(data.u0, data.v0, m, grid.h, level)
            worst = max(worst, np.max(np.abs(u - want_u)), np.max(np.abs(v - want_v)))
        # each step's rotation and angle round by a few ulps of the (unit) amplitude
        return worst, 8.0 * grid.n_steps * np.finfo(float).eps

    def test_phase_split_matches_the_lattice_closed_form(self):
        worst, bound = self.miss()
        assert worst <= bound

    @pytest.mark.parametrize("mutant", [scaled_angle, left_endpoint], ids=lambda f: f.__name__)
    def test_defects_miss_the_closed_form(self, mutant, monkeypatch):
        mutant(monkeypatch)
        worst, bound = self.miss()
        assert worst > bound


class TestThirringContinuum:
    """Every scheme against the continuous closed form of the beta = 0 states
    (`reference.thirring_continuum`): Gaussian pair, v_phase 0.3, [-10, 10],
    T = 2.  The L2 error over both movers, of the states at T and of the
    profiles G = u(T) - u0 truncated at T, falls at the scheme's order from
    h = 1/32 to 1/64 to 1/128 (2.00, 4.00 and 2.00 for both)."""

    SHAPE, T = {**GAUSSIAN_PAIR, "v_phase": 0.3}, 2.0
    ORDERS = {"trapezoidal": 2.0, "oracle4": 4.0, "phase_split": 2.0}

    def orders(self, kind):
        """The two orders read from the states' errors, then the profiles'."""
        m, errors = ModelParams.thirring(), []
        for h in (1 / 32, 1 / 64, 1 / 128):
            grid = Grid.from_domain(-10.0, 10.0, h, self.T)
            data = make_initial_data("gaussian", self.SHAPE, grid)
            traj = run(data, m, Scheme(kind), [])
            u, v = thirring_continuum(data, self.SHAPE, m, self.T)
            got_u, got_v = traj.snapshot_at(self.T)[:2]
            g_u, g_v = compute_profile(traj)
            errors.append((math.sqrt(charge(got_u - u, got_v - v, h)),
                           math.sqrt(charge(g_u - (u - data.u0), g_v - (v - data.v0), h))))
        return [math.log2(a / b) for coarse, fine in zip(errors, errors[1:])
                for a, b in zip(coarse, fine)]

    def nominal(self, kind):
        return all(abs(p - self.ORDERS[kind]) <= 0.1 for p in self.orders(kind))

    @pytest.mark.parametrize("kind", sorted(ORDERS))
    def test_states_and_profiles_converge_at_the_nominal_order(self, kind):
        assert self.nominal(kind), self.orders(kind)

    def test_left_endpoint_phase_misses_the_order(self, monkeypatch):
        left_endpoint(monkeypatch)
        assert not self.nominal("phase_split")


class TestConvergence:
    def test_trapezoidal_is_second_order(self):
        m = ModelParams.thirring()
        runs = {h: gaussian_run(m, h, 1.0) for h in (1 / 32, 1 / 64, 1 / 128)}
        d12 = l2_diff(runs[1 / 32], runs[1 / 64], 1.0)
        d23 = l2_diff(runs[1 / 64], runs[1 / 128], 1.0)
        assert 3.0 <= d12 / d23 <= 5.0

    def test_phase_split_is_second_order(self):
        m = ModelParams.thirring()
        runs = {h: gaussian_run(m, h, 1.0, scheme="phase_split")
                for h in (1 / 32, 1 / 64, 1 / 128)}
        d12 = l2_diff(runs[1 / 32], runs[1 / 64], 1.0)
        d23 = l2_diff(runs[1 / 64], runs[1 / 128], 1.0)
        assert 3.0 <= d12 / d23 <= 5.0

    def test_reference_scheme_is_fourth_order(self):
        m = ModelParams.gross_neveu()
        runs = {h: gaussian_run(m, h, 1.0, scheme="oracle4", fixed_point_tol=1e-14)
                for h in (1 / 32, 1 / 64, 1 / 128)}
        e1 = l2_diff(runs[1 / 32], runs[1 / 64], 1.0)
        e2 = l2_diff(runs[1 / 64], runs[1 / 128], 1.0)
        assert 12.0 <= e1 / e2 <= 20.0

    def test_production_matches_reference(self):
        m = ModelParams.gross_neveu()
        trap = gaussian_run(m, 1 / 64, 1.0)
        orc = gaussian_run(m, 1 / 256, 1.0, scheme="oracle4", fixed_point_tol=1e-14)
        assert l2_diff(trap, orc, 1.0) <= 2e-4


class TestInvariances:
    def test_global_phase_covariance(self):
        grid = Grid.from_domain(-10.0, 10.0, 1 / 32, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        m = ModelParams.gross_neveu()
        base = run(data, m, Scheme(), [1.0]).snapshot_at(1.0)[:2]
        z = np.exp(0.7j)
        rotated = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        rotated.u0 = z * rotated.u0
        rotated.v0 = z * rotated.v0
        rot = run(rotated, m, Scheme(), [1.0]).snapshot_at(1.0)[:2]
        for a, b in zip(rot, base):
            np.testing.assert_allclose(a, z * b, atol=1e-12)

    def test_fixed_point_converges_quickly(self):
        traj = gaussian_run(ModelParams.gross_neveu(), 1 / 64, 1.0)
        assert 1 <= traj.max_fp_iterations <= 8


class TestGuards:
    def test_blowup_guard(self):
        grid = Grid.from_domain(-20.0, 20.0, 0.25, 1.0)
        data = make_initial_data("gaussian", {**GAUSSIAN_PAIR, "u_amplitude": 2e6}, grid)
        # the data's largest modulus, u's peak at x = 0
        with pytest.raises(SolverError, match=r"blow-up at t = 0 \(step 0, node 80 at x = 0\)"):
            run(data, ModelParams.thirring(), Scheme(), [1.0])

    def test_fixed_point_divergence_reported(self):
        grid = Grid.from_domain(-20.0, 20.0, 0.25, 1.0)
        data = make_initial_data("gaussian", {**GAUSSIAN_PAIR, "u_amplitude": 100.0,
                                              "v_amplitude": 100.0}, grid)
        with pytest.raises(SolverError, match=r"did not converge in 3 iterations \(step 1, node "):
            run(data, ModelParams.thirring(), Scheme(fixed_point_max_iter=3), [1.0])

    def test_nonfinite_sweep_stops_with_its_time(self):
        # amplitude 8 at h = 1/32: the first step's fixed point overflows
        grid = Grid.from_domain(-12.0, 12.0, 1.0 / 32.0, 4.0)
        data = make_initial_data("gaussian", {**GAUSSIAN_PAIR, "u_amplitude": 8.0,
                                              "v_amplitude": 8.0}, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=r"diverged at t = 0\.\d+: sweep \d+ ") as err:
                run(data, ModelParams.gross_neveu(), Scheme(), [4.0])
        # the first step, at the node whose iterate first stopped being finite
        assert str(err.value).endswith("by nan (step 1, node 394 at x = 0.3125)")

    @pytest.mark.parametrize("kind,stage", [("trapezoidal", 0), ("oracle4", 0), ("oracle4", 1)])
    def test_failing_sweep_names_its_worst_node(self, kind, stage, monkeypatch):
        # a sweep that breaks v at one node of a stage (oracle4's 1 is the half
        # level's): the error names that node
        from dirac1d import solver
        fixed_point, grid = solver._fixed_point, Grid.from_domain(-30.0, 30.0, 1.0 / 16.0, 1.0)
        bad = grid.index_of(0.5)

        def breaking(sweep, start, slots, lab, firsts, shifts):
            def broken(cols, out, *x):
                new = sweep(cols, out, *x)
                new[stage][1, bad - firsts[stage]] = np.nan
                return new
            return fixed_point(broken, start, slots, lab, firsts, shifts)
        monkeypatch.setattr(solver, "_fixed_point", breaking)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        with pytest.raises(SolverError, match=rf"sweep 1 .* \(step 1, node {bad} at x = 0.5\)"):
            run(data, ModelParams.gross_neveu(), Scheme(kind), [1.0])

    def test_phase_split_turns_that_overflow_stop_the_run(self):
        # alpha h |v0|^2 past the float range: the table would turn u by NaN
        grid = Grid.from_domain(-10.0, 10.0, 0.25, 1.0)
        shape = {**GAUSSIAN_PAIR, "u_amplitude": 100.0, "v_amplitude": 100.0}
        data = make_initial_data("gaussian", shape, grid)
        with pytest.raises(SolverError, match=r"turns overflow: alpha h = 2\.5e\+305"):
            run(data, ModelParams(1e306, 0.0), Scheme("phase_split"), [1.0])

    def test_phase_split_requires_beta_zero(self):
        grid = Grid.from_domain(-10.0, 10.0, 0.25, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        with pytest.raises(ValueError, match="beta"):
            run(data, ModelParams.gross_neveu(), Scheme("phase_split"), [1.0])

    def test_reference_scheme_needs_even_steps(self):
        grid = Grid.from_domain(-10.0, 10.0, 0.25, 0.75)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        with pytest.raises(ValueError, match="even"):
            run(data, ModelParams.thirring(), Scheme("oracle4"), [0.0])

    def test_record_time_off_lattice(self):
        grid = Grid.from_domain(-10.0, 10.0, 0.25, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        with pytest.raises(ValueError, match="t = 0.3 is not a multiple of h"):
            run(data, ModelParams.thirring(), Scheme(), [0.3])
        with pytest.raises(ValueError, match="t = 2.0 outside the run horizon"):
            run(data, ModelParams.thirring(), Scheme(), [2.0])
        # on the lattice, but an odd number of cells: between two oracle4 steps
        with pytest.raises(ValueError, match=r"t = 0.75 is 3 cells of h = 0.25.*evenly"):
            run(data, ModelParams.thirring(), Scheme("oracle4"), [0.0, 0.75])

    def test_final_time_always_recorded(self):
        traj = gaussian_run(ModelParams.thirring(), 0.25, 1.0, record=())
        assert traj.times[-1] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            traj.snapshot_at(0.5)

    def test_states_keyed_by_cell_level(self):
        # oracle4 records every other level; 3 * 0.1 is 0.30000000000000004
        traj = gaussian_run(ModelParams.thirring(), 0.1, 0.4, scheme="oracle4", record=(0.0, 0.2))
        assert list(traj.snapshots) == [0, 2, 4]
        assert traj.times == [0.0, 2 * 0.1, 4 * 0.1]
        assert traj.snapshot_at(0.2) is traj.snapshots[2]
        assert traj.snapshot_at(0.1 + 0.1 + 0.1 + 0.1) is traj.snapshots[4]
        assert len(traj.snapshots[4]) == 4  # (u, v, A1, A2)
        for t in (0.1, 0.2 + 1e-6):
            with pytest.raises(ValueError, match="nothing recorded"):
                traj.snapshot_at(t)


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
        # x_min 500 fine cells apart: the grids share no node
        with pytest.raises(ValueError):
            restrict(np.zeros(2001), Grid(0.0, 1e-12, 2001, 0), Grid(5e-10, 2e-12, 1001, 0))


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
        run(data, m, Scheme(), [1.0], [sides])
        k0, kt, ja, jb = sides.k0, sides.kt, sides.ja, sides.jb
        ref = [(np.abs(u) ** 2, np.abs(v) ** 2) for u, v in reference_nodes(data, grid, m)]
        rows, right, left = sides.rows, np.abs(sides.right) ** 2, np.abs(sides.left) ** 2
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
        run(data, ModelParams.thirring(), Scheme("phase_split"), [0.0, 200.0, 400.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_label_bytes_count_the_arrays_a_run_holds():
    # the memory rule of `check` and `sweep` (cli.LABEL_BYTES) counts the solver's
    # arrays per label through solver.LABEL_BYTES
    from dirac1d import solver
    grid = Grid.from_domain(-10.0, 10.0, 0.25, 1.0)
    lab = solver._Labels(make_initial_data("gaussian", GAUSSIAN_PAIR, grid),
                         ModelParams.gross_neveu(), Scheme())
    arrays = (lab.w, lab.moduli, lab.sources, lab.traces, lab.work)
    assert all(a.shape[1] == lab.w.shape[1] for a in arrays)
    assert solver.LABEL_BYTES == sum(a.itemsize * a.shape[0] for a in arrays)


def full_window_fixed_point(sweep, start, slots, lab, firsts, shifts):
    """`solver._fixed_point` with every sweep on the full window: the reference the
    settled-node span must reproduce bit for bit (its data never diverge)."""
    x, every = start, slice(None)
    scale = 1.0 + np.max(lab.moduli)
    for iters in range(1, lab.s.fixed_point_max_iter + 1):
        new = sweep(every, slots[iters % 2], *x)
        delta = max(np.max(np.abs(a - b)) for a, b in zip(new, x))
        x = new
        if delta <= lab.s.fixed_point_tol * scale:
            return x, iters, every
    raise SolverError("no fixed point")


def recording(fixed_point, log):
    """fixed_point, logging every iterate (the input of each sweep, then the last)
    as bytes, the sweeps and the columns each sweep was handed."""
    def fp(sweep, start, slots, lab, firsts, shifts):
        def recorded(cols, out, *x):
            log["iterates"].append([a.tobytes() for a in x])
            log["cols"].append(cols.indices(lab.w.shape[1])[:2])
            return sweep(cols, out, *x)
        x, iters, moved = fixed_point(recorded, start, slots, lab, firsts, shifts)
        log["iterates"].append([a.tobytes() for a in x])
        log["sweeps"].append(iters)
        return x, iters, moved
    return fp


def logged(monkeypatch, full_window, call):
    """The log of call() with the solver's fixed point, or with full-window sweeps."""
    from dirac1d import solver
    log = {"iterates": [], "cols": [], "sweeps": []}
    fixed_point = full_window_fixed_point if full_window else solver._fixed_point
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_fixed_point", recording(fixed_point, log))
        call()
    return log


COUPLINGS = {"gross_neveu": ModelParams.gross_neveu(), "thirring": ModelParams.thirring(),
             "custom": ModelParams(0.9, 0.35)}


class TestSweepSpan:
    """From its second sweep on, `_fixed_point` hands a sweep only the columns
    whose inputs moved; every iterate and sweep count is that of full sweeps."""

    @pytest.mark.parametrize("kind", ["trapezoidal", "oracle4"])
    @pytest.mark.parametrize("model", list(COUPLINGS))
    def test_span_changes_no_iterate(self, kind, model, monkeypatch):
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 16.0, 2.0)
        shape = {**PHASED_PAIR, "u_amplitude": 1.5, "v_amplitude": -1.2}
        data = make_initial_data("gaussian", shape, grid)
        logs = [logged(monkeypatch, full, lambda: run(data, COUPLINGS[model], Scheme(kind), []))
                for full in (False, True)]
        assert logs[0]["sweeps"] == logs[1]["sweeps"] and max(logs[0]["sweeps"]) > 2
        assert logs[0]["iterates"] == logs[1]["iterates"]
        # the span did skip settled columns
        assert any(lo > 0 for lo, _ in logs[0]["cols"])

    @staticmethod
    def crafted_step(mover: int):
        """One oracle4 double step from a state built by hand: the other mover is
        0.5 + 0.2i on every label, this mover 0 on every label, and its stored
        source is zero but at one label of column C.  So sweep 1 moves this
        mover at column C alone, and sweep 2 moves the full-level pair that it
        shares with the other mover, whose row sits 2 labels away."""
        from dirac1d import solver
        grid = Grid(x_min=-2.0, h=1.0 / 16.0, n_cells=65, n_steps=4)
        lab = solver._Labels(InitialData(grid, np.ones(65, complex), np.ones(65, complex)),
                             COUPLINGS["custom"], Scheme("oracle4"))
        lab.level = 2
        iu, iv, n = lab.labels(20, 40, lab.level)
        lab.w[...], lab.sources[...] = 0.0, 0.0
        lab.w[1 - mover] = 0.5 + 0.2j
        lab.sources[mover, (iu, iv - 2)[mover] + TestSweepSpan.C] = 3.0 + 1.0j
        lab.moduli[...] = np.abs(lab.w)
        return lambda: solver._step_oracle4(lab, iu, iv, n)

    C = 10

    @pytest.mark.parametrize("mover", [0, 1])
    def test_span_reaches_a_pair_whose_one_mover_moved(self, mover, monkeypatch):
        logs = [logged(monkeypatch, full, self.crafted_step(mover)) for full in (False, True)]
        # sweep 2 is handed the columns C - 2 .. C + 2: the moved column C widened by 2
        assert logs[0]["cols"][1] == (self.C - 2, self.C + 3)
        assert logs[0]["sweeps"] == logs[1]["sweeps"]
        assert logs[0]["iterates"] == logs[1]["iterates"]

    @pytest.mark.parametrize("kind", ["trapezoidal", "oracle4"])
    def test_no_sweep_writes_over_its_input(self, kind, monkeypatch):
        # the span proof reads the previous iterate outside `cols` while the sweep
        # writes its slot: `_fixed_point` must alternate the slots it hands out
        from dirac1d import solver
        fixed_point, seen = solver._fixed_point, {"sweeps": [], "spans": 0, "shared": 0}

        def spy(sweep, start, slots, lab, firsts, shifts):
            def checked(cols, out, *x):
                seen["shared"] += any(np.shares_memory(out, stage) for stage in x)
                seen["spans"] += cols.indices(lab.w.shape[1])[:2] != (0, lab.w.shape[1])
                return sweep(cols, out, *x)
            x, iters, moved = fixed_point(checked, start, slots, lab, firsts, shifts)
            seen["sweeps"].append(iters)
            return x, iters, moved
        monkeypatch.setattr(solver, "_fixed_point", spy)
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 16.0, 2.0)
        shape = {**PHASED_PAIR, "u_amplitude": 1.5, "v_amplitude": -1.2}
        run(make_initial_data("gaussian", shape, grid), COUPLINGS["custom"], Scheme(kind), [])
        assert seen["shared"] == 0
        assert max(seen["sweeps"]) > 2 and seen["spans"]  # multi-sweep steps and spans


class TestFoldedWeights:
    """oracle4 sums -i N with the weights -1j * w where the dynamics has w * (-i N)."""

    def test_folded_weight_agrees_in_value(self):
        from dirac1d.solver import _L_FULL, _L_HALF
        rng = np.random.default_rng(11)
        parts = np.concatenate([rng.normal(size=40_000), rng.normal(size=20_000) * 1e-310,
                                rng.normal(size=20_000) * 1e300, [0.0, -0.0, 5e-324, -5e-324]])
        parts[rng.choice(parts.size, 20_000, replace=False)] = 0.0
        parts[rng.choice(parts.size, 20_000, replace=False)] = -0.0
        N = rng.choice(parts, 200_000) + 1j * rng.choice(parts, 200_000)
        signs = 0
        with np.errstate(over="ignore"):
            for w in (*_L_FULL, *_L_HALF):
                folded, plain = np.multiply(-1j * w, N), np.multiply(w, np.multiply(-1j, N))
                for a, b in ((folded.real, plain.real), (folded.imag, plain.imag)):
                    assert np.array_equal(a, b)  # in value: -0 == +0
                    differ = a.view(np.uint64) != b.view(np.uint64)
                    assert not a[differ].any()  # bits differ only in the sign of a zero
                    signs += np.count_nonzero(differ)
        assert signs  # the two forms do differ there

    def test_oracle4_stores_no_negative_zero(self):
        # the lemma the fold rests on: from negative amplitudes at a phase of pi/2,
        # whose real parts are tiny negative numbers, no step stores a -0
        class NoNegativeZero:
            steps = 0

            def on_step(self, step):
                for part in (step.w.real, step.w.imag):
                    assert not np.signbit(part[part == 0]).any(), step.level
                self.steps += 1

        grid = Grid.from_domain(-12.0, 12.0, 1.0 / 16.0, 4.0)
        shape = {**GAUSSIAN_PAIR, "u_amplitude": -1.5, "v_amplitude": -1.0,
                 "u_phase": math.pi / 2, "v_phase": math.pi / 2}
        data = make_initial_data("gaussian", shape, grid)
        assert (data.u0.real < 0).any() and (data.v0.imag < 0).any()
        probe = NoNegativeZero()
        for m in COUPLINGS.values():
            run(data, m, Scheme("oracle4"), [], [probe])
        assert probe.steps == 3 * (grid.n_steps // 2 + 1)
