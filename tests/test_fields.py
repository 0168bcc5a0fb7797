"""Grid geometry, model presets, charge and the initial-data families."""

import numpy as np
import pytest

from dirac1d import (Grid, InitialData, ModelParams, SpinorField, TriangleRegion, charge,
                     make_initial_data)
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
            InitialData("custom", {}, g, z[:-1], z)
        with pytest.raises(FloatingPointError):
            InitialData("custom", {}, g, np.full(g.n_cells, np.nan + 0j), z)

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
        with pytest.raises(ValueError, match="width"):
            make_initial_data("gaussian", {"u_width": -1.0}, g)
        with pytest.raises(ValueError, match="unknown family"):
            make_initial_data("plane_wave", {}, g)


class TestSpinorField:
    def test_shape_validation(self):
        g = Grid.from_domain(-1.0, 1.0, 0.5, 1.0)
        z = np.zeros(g.n_cells, dtype=complex)
        SpinorField(0.0, z, z.copy(), g)
        with pytest.raises(ValueError):
            SpinorField(0.0, z[:-1], z, g)

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
        state = SpinorField(0.0, data.u0.copy(), data.v0.copy(), g)
        state.u[0] = np.nan
        with pytest.raises(FloatingPointError):
            charge(state)


class TestTriangleRegion:
    def test_apex(self):
        r = TriangleRegion(-2.0, 4.0, 1.0)
        assert r.apex_x == pytest.approx(1.0)
        assert r.apex_t == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TriangleRegion(1.0, 1.0)
        with pytest.raises(ValueError):
            TriangleRegion(0.0, 1.0, t0=-0.5)
