"""Grid geometry, model presets, charge and the initial-data families."""

import numpy as np
import pytest

from dirac1d import Grid, InitialData, ModelParams, TriangleRegion, charge, make_initial_data
from dirac1d.fields import at_nodes

# Exact charge of the reference pair u0 = exp(-x^2), v0 = exp(-(x-1)^2):
# each component integrates to sqrt(pi/2); value from the closed form.
REFERENCE_CHARGE = 2.5066282746310002
COMPONENT_CHARGE = 1.2533141373155003

GAUSSIAN_PAIR = {"u_center": 0.0, "u_width": 1.0, "v_center": 1.0, "v_width": 1.0}


class TestModelParams:
    def test_presets(self):
        th = ModelParams.thirring()
        gn = ModelParams.gross_neveu()
        assert (th.alpha, th.beta) == (1.0, 0.0)
        assert (gn.alpha, gn.beta) == (0.0, 0.25)

    def test_c_star_is_derived(self):
        assert ModelParams.thirring().c_star == 1.0
        assert ModelParams.gross_neveu().c_star == 1.0
        assert ModelParams(-2.0, 0.5).c_star == 4.0
        assert ModelParams(0.0, -0.25).c_star == 1.0

    @pytest.mark.parametrize("alpha,beta", [(float("nan"), 0.0), (float("inf"), 0.0),
                                            (0.0, float("nan")), (np.array([0.5, np.nan]), 0.0)])
    def test_couplings_must_be_finite(self, alpha, beta):
        # run would blame the solver: "fixed-point iteration diverged at t = 0.0625"
        with pytest.raises(ValueError, match="alpha and beta must be finite"):
            ModelParams(alpha, beta)
        ModelParams(np.full(2, 0.5), np.zeros(2))  # one coupling per sample is fine


def _parent_scaled(const, x):
    """The tail bounds' rule before `scaled`: an infinite const bounds a zero by 0."""
    return const * x if x else 0.0


class TestEnvelope:
    """The bounds built on `ModelParams.envelope` and `scaled` keep the bits of the
    literal expressions each of them once spelled out, overflow and inf * 0 included."""

    # (u, v) amplitudes of the Gaussian pair on [-12, 12]: C0 from 0.23 to 4.0e3,
    # and data with one or both components zero
    AMPLITUDES = [(0.3, 0.3), (1.0, 1.0), (5.0, 5.0), (12.0, 12.0), (40.0, 40.0),
                  (0.0, 12.0), (12.0, 0.0), (0.0, 0.0)]

    @pytest.mark.parametrize("amplitudes", AMPLITUDES)
    @pytest.mark.parametrize("beta", [0.0, 0.25, -0.35, 1e3])
    def test_bounds_keep_their_bits(self, beta, amplitudes):
        from dirac1d import Trajectory, check_pointwise_bound, sup_tail_bound, tail_bound
        grid = Grid.from_domain(-12.0, 12.0, 1.0 / 16.0, 2.0)
        shape = {**GAUSSIAN_PAIR, "u_amplitude": amplitudes[0], "v_amplitude": amplitudes[1]}
        data = make_initial_data("gaussian", shape, grid)
        m, c0 = ModelParams(0.7, beta), data.c0
        zero = np.zeros_like(data.u0)
        traj = Trajectory(m, data, snapshots={0: (data.u0, data.v0, zero, zero),
                                              32: (1.01 * data.u0, 0.5 * data.v0, zero, zero)})
        with np.errstate(over="ignore", invalid="ignore"):
            factor = float(np.exp(8.0 * abs(beta) * c0))
            bu, bv = (np.nan_to_num(factor * np.abs(a) ** 2, nan=0.0, posinf=np.inf)
                      for a in (data.u0, data.v0))
            l2_const = m.c_star * m.c_star * 0.25 * float(np.exp(24.0 * abs(beta) * c0))
            sup_const = m.c_star * float(np.exp(12.0 * abs(beta) * c0))
        worst = 0.0
        for u, v, *_ in traj.snapshots.values():
            worst = max(worst, float(np.max(np.abs(u) ** 2 - bu)),
                        float(np.max(np.abs(v) ** 2 - bv)))
        assert repr(check_pointwise_bound(traj)) == repr(worst)

        # couplings with a unit constant (c_star 2 and 1, beta 0) return the sums alone
        for t in (0.0, 1.0, 2.0):
            sums = tail_bound(data, ModelParams(2.0, 0.0), t)
            expected = tuple(_parent_scaled(l2_const, x) for x in sums)
            assert repr(tail_bound(data, m, t)) == repr(expected)
            for split in (-20.0, 0.5, 20.0):
                sums = sup_tail_bound(data, ModelParams(1.0, 0.0), t, split)
                expected = tuple(_parent_scaled(sup_const, x) for x in sums)
                assert repr(sup_tail_bound(data, m, t, split)) == repr(expected)
        if np.isinf(factor) and 0.0 in amplitudes:  # an infinite factor bounds a zero by 0
            side = amplitudes.index(0.0)
            assert tail_bound(data, m, 0.0)[side] == sup_tail_bound(data, m, 0.0, 0.5)[side] == 0.0

    def test_cases_reach_overflow(self):
        # the largest C0 above overflows every power the bounds take, at beta = 0.25
        data = make_initial_data("gaussian", {**GAUSSIAN_PAIR, "u_amplitude": 40.0,
                                              "v_amplitude": 40.0},
                                 Grid.from_domain(-12.0, 12.0, 1.0 / 16.0, 2.0))
        m = ModelParams(0.7, 0.25)
        assert [m.envelope(data.c0, k) for k in (2, 3, 6)] == [np.inf] * 3
        assert m.envelope(0.0, 6) == ModelParams(0.7, 0.0).envelope(data.c0, 6) == 1.0


class TestGrid:
    def test_from_domain_counts(self):
        g = Grid.from_domain(-10.0, 10.0, 0.25, 2.0)
        assert g.n_cells == 81
        assert g.n_steps == 8
        assert g.x_max == pytest.approx(10.0)
        assert g.t_final == pytest.approx(2.0)

    def test_x_nodes(self):
        g = Grid.from_domain(0.0, 1.0, 0.5, 1.0)
        assert g.x() == pytest.approx([0.0, 0.5, 1.0])

    def test_index_and_step_lookup(self):
        g = Grid.from_domain(-1.0, 1.0, 0.5, 1.0)
        assert g.index_of(-1.0) == 0
        assert g.index_of(0.5) == 3
        assert g.step_of(1.0) == 2
        with pytest.raises(ValueError):
            g.index_of(0.3)
        with pytest.raises(ValueError, match="outside"):
            g.index_of(1.5)
        with pytest.raises(ValueError):
            g.step_of(0.25)
        with pytest.raises(ValueError):
            g.step_of(5.0)

    @pytest.mark.parametrize("h", [0.0, -0.5, float("nan"), float("inf")])
    def test_step_must_be_positive(self, h):
        with pytest.raises(ValueError, match="positive"):
            Grid(x_min=0.0, h=h, n_cells=3, n_steps=1)

    def test_fields_checked_on_construction(self):
        Grid(-10.0, 1.0 / 16.0, np.int64(321), np.int64(32))
        # `run` would die on a float count with TypeError, or report that
        # n_steps = 2.5 does not divide evenly
        for n_cells, n_steps, name in ((321.0, 32, "n_cells"), (321, 32.0, "n_steps"),
                                       (321, 2.5, "n_steps"), ("321", 32, "n_cells"),
                                       (0, 32, "n_cells"), (321, -1, "n_steps")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                Grid(-10.0, 1.0 / 16.0, n_cells, n_steps)
        # from 2**52 steps up every float is a whole number of steps
        Grid(-10.0, 0.125, 161, 2 ** 52 - 1)
        with pytest.raises(ValueError, match="n_steps must be below 2\\*\\*52"):
            Grid(-10.0, 0.125, 161, 2 ** 52)
        with pytest.raises(ValueError, match="n_steps must be below"):
            Grid.from_domain(-10.0, 10.0, 0.125, 1e300)
        # make_initial_data would blame u_width for a NaN x_min
        for x_min in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="x_min must be finite"):
                Grid(x_min, 1.0 / 16.0, 321, 32)

    def test_non_multiple_domain_rejected(self):
        with pytest.raises(ValueError):
            Grid.from_domain(0.0, 1.0, 0.3, 1.0)
        with pytest.raises(ValueError):
            Grid.from_domain(0.0, 1.0, 0.5, 0.7)


class TestInitialData:
    def test_reference_charge(self):
        g = Grid.from_domain(-40.0, 40.0, 1.0 / 128.0, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, g)
        assert data.c0 == pytest.approx(REFERENCE_CHARGE, rel=1e-12)
        u_charge = g.h * np.sum(np.abs(data.u0) ** 2)
        assert u_charge == pytest.approx(COMPONENT_CHARGE, rel=1e-12)

    def test_charge_follows_reassigned_samples(self):
        g = Grid.from_domain(-20.0, 20.0, 0.25, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, g)
        u_charge = g.h * np.sum(np.abs(data.u0) ** 2)
        before = data.c0
        data.u0 = 2.0 * data.u0
        assert data.c0 == pytest.approx(before + 3.0 * u_charge, rel=1e-12)

    def test_samples_checked_on_construction(self):
        g = Grid.from_domain(-1.0, 1.0, 0.5, 1.0)
        z = np.zeros(g.n_cells, dtype=complex)
        with pytest.raises(ValueError):
            InitialData(g, z[:-1], z)
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                InitialData(g, np.full(g.n_cells, bad + 0j), z)
            with pytest.raises(ValueError, match="must be finite"):
                InitialData(g, z, np.full(g.n_cells, bad + 0j))

    def test_shape_validation(self):
        g = Grid.from_domain(-1.0, 1.0, 0.5, 1.0)
        z = np.zeros(g.n_cells, dtype=complex)
        InitialData(g, z, z.copy())
        for u0, v0 in ((z[:-1], z), (z, z[:-1]), (z, np.zeros(g.n_cells + 1, complex)),
                       (z, z.reshape(1, -1))):
            with pytest.raises(ValueError, match="n_cells = 5"):
                InitialData(g, u0, v0)
        with pytest.raises(ValueError, match="must be finite"):
            InitialData(g, np.full(g.n_cells, np.nan + 0j), z)

    def test_zero_family(self):
        g = Grid.from_domain(-1.0, 1.0, 0.5, 1.0)
        data = make_initial_data("zero", {}, g)
        assert not data.u0.any() and not data.v0.any()
        assert data.c0 == 0.0

    def test_amplitude_and_phase(self):
        g = Grid.from_domain(-20.0, 20.0, 0.25, 1.0)
        data = make_initial_data(
            "gaussian", {**GAUSSIAN_PAIR, "u_amplitude": 2.0, "u_phase": np.pi / 2}, g)
        j = g.index_of(0.0)
        assert data.u0[j] == pytest.approx(2.0j)
        assert data.v0[g.index_of(1.0)] == pytest.approx(1.0)

    def test_samples_vanish_outside_domain(self):
        # samples exist on the domain's nodes only; nodes past it read zero
        g = Grid.from_domain(-20.0, 20.0, 0.25, 2.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, g)
        assert data.u0.shape == data.v0.shape == (g.n_cells,)
        for lo, hi in ((-8, -1), (g.n_cells, g.n_cells + 7)):
            u, v = at_nodes(data.u0, data.v0, lo, hi, 0)
            assert not u.any() and not v.any()

    def test_gaussian_too_wide_for_domain(self):
        g = Grid.from_domain(-2.0, 2.0, 0.25, 1.0)
        with pytest.raises(ValueError, match="support"):
            make_initial_data("gaussian", GAUSSIAN_PAIR, g)

    def test_gaussian_edge_check_scales_with_amplitude(self):
        # exp(-(20/3.8)^2) = 9.3e-13 at the edge of [-20, 20]: amplitude 1 is
        # cut off below 1e-12, amplitude 1e6 would jump by 9.3e-7 there
        g = Grid.from_domain(-20.0, 20.0, 0.25, 1.0)
        wide = {"u_width": 3.8, "v_width": 3.8}
        data = make_initial_data("gaussian", wide, g)
        assert data.u0.any()
        with pytest.raises(ValueError, match="support"):
            make_initial_data("gaussian", {**wide, "u_amplitude": 1e6}, g)
        with pytest.raises(ValueError, match="support"):
            make_initial_data("gaussian", {**wide, "v_amplitude": -1e6}, g)

    def test_bump_is_compact(self):
        g = Grid.from_domain(-5.0, 5.0, 0.125, 1.0)
        data = make_initial_data("bump", {"u_width": 2.0, "v_width": 2.0}, g)
        x = g.x()
        assert not data.u0[np.abs(x) >= 2.0].any()
        assert data.u0[g.index_of(0.0)] == pytest.approx(1.0)

    def test_bump_support_must_fit(self):
        g = Grid.from_domain(-1.0, 1.0, 0.25, 0.5)
        with pytest.raises(ValueError, match="support"):
            make_initial_data("bump", {"u_width": 3.0}, g)

    def test_separated_order_enforced(self):
        g = Grid.from_domain(-10.0, 10.0, 0.25, 1.0)
        with pytest.raises(ValueError, match="separated"):
            make_initial_data("separated",
                              {"u_center": -3.0, "u_width": 1.0,
                               "v_center": 3.0, "v_width": 1.0}, g)
        data = make_initial_data("separated",
                                 {"u_center": 3.0, "u_width": 1.0,
                                  "v_center": -3.0, "v_width": 1.0}, g)
        assert data.u0.any() and data.v0.any()

    def test_bad_shape_params(self):
        g = Grid.from_domain(-5.0, 5.0, 0.25, 1.0)
        for width in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="u_width"):
                make_initial_data("gaussian", {"u_width": width}, g)
        for key in ("v_center", "u_amplitude", "v_phase"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"{key} must be finite"):
                    make_initial_data("bump", {key: value}, g)
        with pytest.raises(ValueError, match="unknown family"):
            make_initial_data("plane_wave", {}, g)


class TestState:
    """A state is the pair (u, v) of arrays over the domain's labels."""

    def test_at_nodes_reads_labels(self):
        # u's label i sits at node i + s, v's at node i - s; off the domain: 0
        a, b = np.arange(1.0, 6.0), np.arange(10.0, 15.0)
        u, v = at_nodes(a, b, -1, 4, 2)
        np.testing.assert_array_equal(u, [0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(v, [11.0, 12.0, 13.0, 14.0, 0.0, 0.0])
        # wholly off the domain on either side, with labels to spare
        long = np.arange(1.0, 101.0)
        for lo, hi in ((-9, -7), (100, 102)):
            assert not any(r.any() for r in at_nodes(long, long, lo, hi, 0))

    def test_charge_rejects_nonfinite(self):
        g = Grid.from_domain(-20.0, 20.0, 0.25, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, g)
        u, v = data.u0.copy(), data.v0.copy()
        assert charge(u, v, g.h) == data.c0
        u[0] = np.nan
        with pytest.raises(FloatingPointError):
            charge(u, v, g.h)
        with pytest.raises(FloatingPointError):
            charge(v, np.full_like(v, np.inf), g.h)


class TestTriangleRegion:
    def test_apex(self):
        r = TriangleRegion(-2.0, 4.0, 1.0)
        assert r.apex_t == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TriangleRegion(1.0, 1.0)
        with pytest.raises(ValueError):
            TriangleRegion(0.0, 1.0, t0=-0.5)
        with pytest.raises(ValueError, match="t0 must be"):
            TriangleRegion(0.0, 1.0, t0=float("nan"))
