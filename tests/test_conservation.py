"""Charge drift, triangle balance law and the pointwise exponential envelope."""

import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from dirac1d import (Grid, ModelParams, Scheme, TriangleRegion, TriangleSides,
                     check_pointwise_bound, make_initial_data, total_charge_drift,
                     triangle_balance)
from dirac1d.fields import charge
from dirac1d.solver import run

GAUSSIAN_PAIR = {"u_center": 0.0, "u_width": 1.0, "v_center": 1.0, "v_width": 1.0}


def moduli_run(m, h, T=2.0, span=10.0, triangles=()):
    """A Gaussian-pair run; returns it with the TriangleSides of each (region, tau)."""
    grid = Grid.from_domain(-span, span, h, T)
    data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
    sides = [TriangleSides(region, tau, grid, Scheme()) for region, tau in triangles]
    return run(data, m, Scheme(), [0.0, T], sides), sides


class TestChargeDrift:
    def test_small_and_second_order(self, gn_small):
        d1 = total_charge_drift(gn_small)
        assert d1 <= 1e-4
        fine, _ = moduli_run(ModelParams.gross_neveu(), 1.0 / 128.0)
        d2 = total_charge_drift(fine)
        assert 3.0 <= d1 / d2 <= 5.0

    def test_phase_split_conserves_exactly(self, thirring_phase_small):
        assert total_charge_drift(thirring_phase_small) <= 1e-13

    def test_initial_charge_of_the_samples_run(self):
        # data changed after sampling: Q(0) is the charge of the samples the run started from
        grid = Grid.from_domain(-20.0, 20.0, 0.25, 1.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        data.u0 = 2.0 * data.u0
        traj = run(data, ModelParams.thirring(), Scheme("phase_split"), [1.0])
        assert total_charge_drift(traj) <= 1e-13

    def test_requires_snapshots(self, gn_small):
        bare = type(gn_small)(params=gn_small.params, data=gn_small.data)
        with pytest.raises(ValueError):
            total_charge_drift(bare)

    @pytest.mark.parametrize("drifting", [0, 1, 2])
    def test_every_snapshot_is_judged(self, gn_small, drifting):
        # one snapshot of three holds u scaled by 1 + 1e-3, the others the data
        data, h, levels = gn_small.data, gn_small.grid.h, (0, 64, 128)
        zero = np.zeros_like(data.u0)
        snapshots = {level: (data.u0 * (1.0 + 1e-3 * (i == drifting)), data.v0, zero, zero)
                     for i, level in enumerate(levels)}
        traj = type(gn_small)(params=gn_small.params, data=data, snapshots=snapshots)
        u, v, *_ = snapshots[levels[drifting]]
        expected = abs(charge(u, v, h) - data.c0) / data.c0
        assert expected > 1e-4
        assert total_charge_drift(traj) == expected


def seed_triangle_balance(moduli, grid, pad, region, tau):
    """The balance terms as once computed from the full per-step history
    moduli[k] = (|u|^2, |v|^2) on the lattice padded by pad cells at step k."""
    h = grid.h
    k0, kt = grid.step_of(region.t0), grid.step_of(tau)
    ja, jb = pad + grid.index_of(region.a), pad + grid.index_of(region.b)
    seg = lambda vals: 0.0 if len(vals) < 2 else float(np.trapezoid(vals, dx=h))
    mu0, mv0 = moduli[k0]
    initial = seg(mu0[ja:jb + 1] + mv0[ja:jb + 1])
    off = kt - k0
    mu_t, mv_t = moduli[kt]
    interior = seg(mu_t[ja + off:jb - off + 1] + mv_t[ja + off:jb - off + 1])
    right = 2.0 * seg(np.array([moduli[k][0][jb - (k - k0)] for k in range(k0, kt + 1)]))
    left = 2.0 * seg(np.array([moduli[k][1][ja + (k - k0)] for k in range(k0, kt + 1)]))
    return {"interior_charge": interior, "right_flux": right, "left_flux": left,
            "initial_charge": initial, "defect": interior + right + left - initial}


class TestTriangleBalance:
    def test_equals_full_history_formula(self):
        # criterion 4's regions, the light cone and an elevated base; the last two are
        # elevated cones at the domain's ends, whose corner labels leave the domain
        h, T = 1.0 / 32.0, 2.0
        triangles = [(TriangleRegion(-6.0, 6.0, 0.0), 2.0), (TriangleRegion(-4.0, 4.0, 0.0), 2.0),
                     (TriangleRegion(-2.0, 3.0, 0.5), 2.0), (TriangleRegion(-1.5, 2.5, 0.0), 2.0),
                     (TriangleRegion(-2.0, 2.0, 0.5), 1.5), (TriangleRegion(11.0, 12.0, 0.5), 1.0),
                     (TriangleRegion(-12.0, -11.0, 0.5), 1.0)]
        grid = Grid.from_domain(-12.0, 12.0, h, T)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        every_step = [k * h for k in range(grid.n_steps + 1)]
        sides = [TriangleSides(region, tau, grid, Scheme()) for region, tau in triangles]
        traj = run(data, ModelParams.gross_neveu(), Scheme(), every_step, sides)
        # the snapshots hold labels: move step k's u right and v left by k nodes
        pad = grid.n_steps + 8
        moduli = [(np.roll(np.pad(np.abs(u) ** 2, pad), k),
                   np.roll(np.pad(np.abs(v) ** 2, pad), -k))
                  for k, (u, v, *_) in traj.snapshots.items()]
        assert len(moduli) == grid.n_steps + 1
        for (region, tau), s in zip(triangles, sides):
            rep = triangle_balance(s)
            for name, value in seed_triangle_balance(moduli, grid, pad, region, tau).items():
                assert getattr(rep, name) == value, (region, tau, name)

    def test_memory_bounded_by_the_triangle(self):
        # the full per-step history of this run would take 158 MB
        grid = Grid.from_domain(-40.0, 40.0, 1.0 / 64.0, 20.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        sides = TriangleSides(TriangleRegion(-20.0, 20.0, 0.0), 20.0, grid, Scheme("phase_split"))
        tracemalloc.start()
        try:
            run(data, ModelParams.thirring(), Scheme("phase_split"), [20.0], [sides])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert abs(triangle_balance(sides).defect) <= 1e-12

    def test_defect_is_second_order(self):
        region = TriangleRegion(-4.0, 4.0, 0.0)
        defects = {}
        for h in (1.0 / 32.0, 1.0 / 64.0):
            _, (sides,) = moduli_run(ModelParams.gross_neveu(), h, triangles=[(region, 2.0)])
            defects[h] = triangle_balance(sides).defect
        assert abs(defects[1.0 / 32.0]) <= 1.0 * (1.0 / 32.0) ** 2
        ratio = defects[1.0 / 32.0] / defects[1.0 / 64.0]
        assert 3.0 <= ratio <= 5.0

    def test_elevated_base(self):
        region = TriangleRegion(-2.0, 2.0, 0.5)
        _, (sides,) = moduli_run(ModelParams.gross_neveu(), 1.0 / 32.0, triangles=[(region, 1.5)])
        rep = triangle_balance(sides)
        assert abs(rep.defect) <= 1.0 * (1.0 / 32.0) ** 2
        assert rep.initial_charge > 0.0

    def test_light_cone_case(self):
        # the backward light cone of (0.5, 1.5): the triangle cut at its apex
        cone = (TriangleRegion(0.5 - 1.5, 0.5 + 1.5, 0.0), 1.5)
        _, (sides,) = moduli_run(ModelParams.gross_neveu(), 1.0 / 32.0, triangles=[cone])
        rep = triangle_balance(sides)
        # degenerate apex: everything leaves through the slanted sides
        assert rep.interior_charge == 0.0
        assert abs(rep.defect) <= 1.0 * (1.0 / 32.0) ** 2
        assert rep.right_flux > 0.0 and rep.left_flux > 0.0

    def test_balance_terms_sum(self):
        region = TriangleRegion(-4.0, 4.0, 0.0)
        _, (sides,) = moduli_run(ModelParams.gross_neveu(), 1.0 / 32.0, triangles=[(region, 1.0)])
        rep = triangle_balance(sides)
        assert rep.defect == pytest.approx(
            rep.interior_charge + rep.right_flux + rep.left_flux - rep.initial_charge)
        d = asdict(rep)
        assert d["region"] == {"a": -4.0, "b": 4.0, "t0": 0.0}
        assert set(d) >= {"tau", "interior_charge", "right_flux", "left_flux",
                          "initial_charge", "defect"}

    def test_zero_data_zero_defect(self):
        grid = Grid.from_domain(-4.0, 4.0, 0.25, 1.0)
        data = make_initial_data("zero", {}, grid)
        sides = TriangleSides(TriangleRegion(-2.0, 2.0, 0.0), 1.0, grid, Scheme())
        run(data, ModelParams.thirring(), Scheme(), [1.0], [sides])
        rep = triangle_balance(sides)
        assert rep.defect == 0.0

    def test_unfed_probe_names_the_fix(self):
        grid = Grid.from_domain(-4.0, 4.0, 0.25, 1.0)
        sides = TriangleSides(TriangleRegion(-2.0, 2.0, 0.0), 1.0, grid, Scheme())
        with pytest.raises(ValueError, match=r"a=-2\.0, b=2\.0.*0 of its 5 steps.*probes="):
            triangle_balance(sides)
        # a run that stops before tau leaves the probe short as well
        short = Grid.from_domain(-4.0, 4.0, 0.25, 0.5)
        run(make_initial_data("zero", {}, short), ModelParams.thirring(), Scheme(),
            [0.5], [sides])
        with pytest.raises(ValueError, match="3 of its 5 steps"):
            triangle_balance(sides)

    def test_rejects_double_step_scheme(self):
        grid = Grid.from_domain(-10.0, 10.0, 0.125, 1.0)
        with pytest.raises(ValueError, match="oracle4"):
            TriangleSides(TriangleRegion(-2.0, 2.0, 0.0), 1.0, grid, Scheme("oracle4"))

    def test_tau_range_checked(self):
        with pytest.raises(ValueError, match="tau"):
            moduli_run(ModelParams.gross_neveu(), 1.0 / 32.0,
                       triangles=[(TriangleRegion(-1.0, 1.0, 0.0), 1.5)])

    def test_cut_at_apex_on_a_large_domain(self):
        # the apex time (b - a) / 2 rounds below tau here, so the cut is compared
        # in cells; building the grid and the probe samples no array
        h = 0.3
        grid = Grid.from_domain(-150000.0, 150000.0, h, 45000.0)
        a, b, tau = grid.x_min + 141987 * h, grid.x_min + 409523 * h, 133768 * h
        region = TriangleRegion(a, b, 0.0)
        assert tau > region.apex_t
        sides = TriangleSides(region, tau, grid, Scheme())
        assert (sides.k0, sides.kt, sides.ja, sides.jb) == (0, 133768, 141987, 409523)
        with pytest.raises(ValueError, match="apex"):
            TriangleSides(region, tau + h, grid, Scheme())


class TestPointwiseBound:
    def test_holds_for_quartic_coupling(self, gn_small):
        assert check_pointwise_bound(gn_small) <= 1e-8

    def test_tight_for_modulus_preserving_run(self, thirring_phase_small):
        # beta = 0 makes the envelope factor exactly 1, so the bound is
        # saturated and only roundoff can show up
        assert check_pointwise_bound(thirring_phase_small) <= 1e-12

    @pytest.mark.parametrize("scale,over", [(1.0 + 1e-6, True), (1.0 - 1e-6, False)])
    def test_edge_of_the_envelope(self, gn_small, scale, over):
        # u at the envelope exp(8|beta| C0) |u0|^2 times scale^2, v at its data
        data = gn_small.data
        factor = np.exp(8.0 * abs(gn_small.params.beta) * data.c0)
        zero = np.zeros_like(data.u0)
        u = data.u0 * np.sqrt(factor) * scale
        traj = type(gn_small)(params=gn_small.params, data=data,
                              snapshots={0: (data.u0, data.v0, zero, zero),
                                         128: (u, data.v0, zero, zero)})
        expected = float(np.max(np.abs(u) ** 2 - factor * np.abs(data.u0) ** 2))
        assert (expected > 1e-6 * factor * np.max(np.abs(data.u0) ** 2)) == over
        assert check_pointwise_bound(traj) == (expected if over else 0.0)
