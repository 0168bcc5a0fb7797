"""Scattering profiles, residual reports and the explicit tail bounds."""

import math
from dataclasses import fields

import numpy as np
import pytest

from dirac1d import (Grid, ModelParams, Scheme, asymptotics, compute_profile, l2_norm,
                     make_initial_data, residual, sup_tail_bound, tail_bound)
from dirac1d.solver import run

GAUSSIAN_PAIR = {"u_center": 0.0, "u_width": 1.0, "v_center": 1.0, "v_width": 1.0}

# Quadrature references for the u-side tail bound with the reference Gaussian
# pair, computed independently from the closed form
#   (1/4) e^{24|beta| C0} int e^{-2y^2} (sqrt(pi/8) erfc(sqrt(2)(y+2t-1)))^2 dy
# with C0 = 2 sqrt(pi/2), via adaptive quadrature to 1e-13 relative error.
TAIL_ORACLE = {
    (0.0, 0.0): 0.42610922875182383,
    (0.0, 2.5): 3.066791241635318e-12,
    (0.25, 0.0): 1449472.2573918453,
    (0.25, 2.5): 1.0432134589020346e-05,
}


def gaussian_data(h, T=1.0, span=40.0):
    grid = Grid.from_domain(-span, span, h, T)
    return make_initial_data("gaussian", GAUSSIAN_PAIR, grid)


class TestTailBound:
    @pytest.mark.parametrize("beta,t,rtol", [
        (0.0, 0.0, 1e-5), (0.0, 2.5, 1e-3), (0.25, 0.0, 1e-5), (0.25, 2.5, 1e-3),
    ])
    def test_matches_quadrature_oracle(self, beta, t, rtol):
        data = gaussian_data(1.0 / 128.0)
        m = ModelParams(alpha=1.0 - 4.0 * beta, beta=beta)
        assert tail_bound(data, m, t)[0] == pytest.approx(TAIL_ORACLE[(beta, t)], rel=rtol)

    def test_second_order_approach_to_oracle(self):
        m = ModelParams.thirring()
        exact = TAIL_ORACLE[(0.0, 0.0)]
        errs = [abs(tail_bound(gaussian_data(h), m, 0.0)[0] - exact)
                for h in (1.0 / 128.0, 1.0 / 256.0)]
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_monotone_nonincreasing(self):
        data = gaussian_data(1.0 / 64.0)
        m = ModelParams.gross_neveu()
        for vals in zip(*(tail_bound(data, m, t) for t in (0.0, 1.0, 2.5, 5.0, 10.0))):
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_mirror_symmetry(self):
        # swapping the two pulses turns the u-side bound into the v-side one
        h = 1.0 / 64.0
        grid = Grid.from_domain(-40.0, 40.0, h, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        swapped = make_initial_data(
            "gaussian", {"u_center": -1.0, "u_width": 1.0,
                         "v_center": 0.0, "v_width": 1.0}, grid)
        m = ModelParams.gross_neveu()
        for t in (0.0, 1.5):
            assert tail_bound(data, m, t)[0] == pytest.approx(
                tail_bound(swapped, m, t)[1], rel=1e-9)

    def test_scaling_in_c_star(self):
        data = gaussian_data(1.0 / 64.0)
        one = tail_bound(data, ModelParams(1.0, 0.0), 1.0)[0]
        three = tail_bound(data, ModelParams(3.0, 0.0), 1.0)[0]
        assert three == pytest.approx(9.0 * one, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            tail_bound(gaussian_data(0.25), ModelParams.thirring(), -1.0)
        # 2t is counted in cells by the lattice rule, not floored
        with pytest.raises(ValueError, match="multiple of h"):
            tail_bound(gaussian_data(0.25), ModelParams.thirring(), 0.3)


class TestSupTailBound:
    def test_nonincreasing_in_time(self):
        data = gaussian_data(1.0 / 64.0)
        m = ModelParams.gross_neveu()
        vals = [sup_tail_bound(data, m, t, -5.0)[0] for t in (0.0, 1.0, 2.5, 5.0)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[0] > 0.0

    def test_split_point_tradeoff(self):
        # moving the split deep into the left tail shrinks the near-field piece
        data = gaussian_data(1.0 / 64.0)
        m = ModelParams.thirring()
        far_left = sup_tail_bound(data, m, 5.0, -8.0)[0]
        middle = sup_tail_bound(data, m, 5.0, 0.0)[0]
        assert far_left < middle

    def test_sides_mirror(self):
        grid = Grid.from_domain(-40.0, 40.0, 1.0 / 64.0, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        swapped = make_initial_data(
            "gaussian", {"u_center": -1.0, "u_width": 1.0,
                         "v_center": 0.0, "v_width": 1.0}, grid)
        m = ModelParams.gross_neveu()
        # the two sides round their truncation node in opposite (conservative)
        # directions, so they mirror only up to one lattice cell of mass
        assert sup_tail_bound(data, m, 2.0, -5.0)[0] == pytest.approx(
            sup_tail_bound(swapped, m, 2.0, -5.0)[1], rel=1e-3)

    def test_scaling_in_the_envelope_constant(self):
        # the same c_star = 1 with beta 0 and 1/4: the bounds differ by exp(12|beta| C0)
        data = gaussian_data(1.0 / 64.0)
        plain = sup_tail_bound(data, ModelParams(1.0, 0.0), 1.0, -5.0)
        quartic = sup_tail_bound(data, ModelParams(0.0, 0.25), 1.0, -5.0)
        for p, q in zip(plain, quartic):
            assert q == pytest.approx(np.exp(3.0 * data.c0) * p, rel=1e-12)

    def test_overflowing_constant(self):
        # C0 = 250.7 here, so exp(12|beta| C0) overflows: the bound is inf over a
        # nonzero envelope and 0 over a zero one, never NaN, and no warning is raised
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 16.0, 1.0)
        m = ModelParams(0.0, 5.0)
        loud = make_initial_data("gaussian", {**GAUSSIAN_PAIR, "u_amplitude": 10.0,
                                              "v_amplitude": 10.0}, grid)
        lone = make_initial_data("gaussian", {**GAUSSIAN_PAIR, "u_amplitude": 10.0,
                                              "v_amplitude": 0.0}, grid)
        assert sup_tail_bound(loud, m, 1.0, -5.0) == (np.inf, np.inf)
        assert sup_tail_bound(lone, m, 1.0, -5.0) == (0.0, 0.0)
        assert tail_bound(lone, m, 1.0) == (0.0, 0.0)

    def test_nan_arguments_rejected(self):
        # a NaN split put no label near, so the u side read 1e-69 where split 0
        # gives 2311; a NaN t returned the t = 0 value
        data = gaussian_data(1.0 / 16.0, span=10.0)
        m = ModelParams.gross_neveu()
        with pytest.raises(ValueError, match="split_point"):
            sup_tail_bound(data, m, 0.0, np.nan)
        with pytest.raises(ValueError, match="t must be >= 0"):
            sup_tail_bound(data, m, np.nan, 0.0)


@pytest.fixture(scope="module")
def gn_traj():
    grid = Grid.from_domain(-10.0, 10.0, 1.0 / 64.0, 4.0)
    data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
    return run(data, ModelParams.gross_neveu(), Scheme(),
               [0.0, 1.0, 2.0, 4.0])


class TestProfiles:
    def test_profile_from_traces(self, gn_traj, monkeypatch):
        # the profiles read the traces alone: no bound is computed
        monkeypatch.setattr(asymptotics, "tail_bound", None)
        g, _ = compute_profile(gn_traj)
        *_, a1, _ = gn_traj.snapshot_at(4.0)
        np.testing.assert_allclose(g, -1j * a1)
        assert l2_norm(g, gn_traj.grid.h) > 0.1
        assert math.sqrt(tail_bound(gn_traj.data, gn_traj.params, 4.0)[0]) >= 0.0

    def test_certificate_shrinks_with_horizon(self):
        grid = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 2.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        grid4 = Grid.from_domain(-10.0, 10.0, 1.0 / 32.0, 4.0)
        data4 = make_initial_data("gaussian", GAUSSIAN_PAIR, grid4)
        m = ModelParams.gross_neveu()
        assert math.sqrt(tail_bound(data4, m, 4.0)[0]) < math.sqrt(tail_bound(data, m, 2.0)[0])

    @pytest.mark.parametrize("alpha,beta", [(0.25, 0.0), (0.5, 0.0), (2.0, 0.0), (0.0, 0.1)])
    def test_certificate_bounds_the_discarded_tail(self, alpha, beta):
        # by T = 6 the pulses have parted, so the profile of that run less the
        # profile of a run to 0.25 is the tail the short run's certificate bounds
        h, m = 1.0 / 64.0, ModelParams(alpha, beta)

        def profiles(T):
            grid = Grid.from_domain(-20.0, 20.0, h, T)
            data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
            return compute_profile(run(data, m, Scheme(), [T])), tail_bound(data, m, T)

        (shorts, bounds), (longs, _) = profiles(0.25), profiles(6.0)
        for short, long, bound in zip(shorts, longs, bounds):
            tail = long - short
            assert math.sqrt(bound) >= np.sqrt(h * np.sum(np.abs(tail) ** 2))

    def test_separated_data_has_zero_profile(self):
        grid = Grid.from_domain(-10.0, 10.0, 0.125, 2.0)
        data = make_initial_data("separated",
                                 {"u_center": 3.0, "u_width": 2.0,
                                  "v_center": -3.0, "v_width": 2.0}, grid)
        traj = run(data, ModelParams.thirring(), Scheme(), [2.0])
        g1, g2 = compute_profile(traj)
        assert l2_norm(g1, grid.h) == 0.0
        assert l2_norm(g2, grid.h) == 0.0


class TestResiduals:
    def test_routes_agree_while_above_roundoff(self, gn_traj):
        traj = gn_traj
        rep = residual(traj, 1.0)
        # the direct route: u - u0 - G1 with G1 = -i * A1(t_max), and its v analogue
        u, v, *_ = traj.snapshot_at(1.0)
        *_, a1, a2 = traj.snapshot_at(traj.grid.t_final)
        ru, rv = u - traj.data.u0 + 1j * a1, v - traj.data.v0 + 1j * a2
        h = traj.grid.h
        assert np.sqrt(h * np.sum(np.abs(ru) ** 2)) == pytest.approx(rep.l2_u, abs=1e-10)
        assert np.sqrt(h * np.sum(np.abs(rv) ** 2)) == pytest.approx(rep.l2_v, abs=1e-10)

    def test_decreasing_in_time(self, gn_traj):
        reps = [residual(gn_traj, t) for t in (1.0, 2.0)]
        assert reps[1].l2_u < reps[0].l2_u
        assert reps[1].sup_v < reps[0].sup_v
        assert residual(gn_traj, 4.0).l2_u == 0.0

    def test_report_fields(self, gn_traj, monkeypatch):
        # a report holds the norms alone, read from the traces; its bound is
        # tail_bound at its t, which the caller pairs with it
        monkeypatch.setattr(asymptotics, "tail_bound", None)
        rep = residual(gn_traj, 2.0)
        assert rep.t == 2.0
        assert [f.name for f in fields(rep)] == ["t", "l2_u", "sup_u", "l2_v", "sup_v"]
