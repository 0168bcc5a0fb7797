"""Acceptance gate: ten end-to-end criteria at pinned tolerances.

Reference setting: x in [-40, 40], h = 1/128, T = 20, Gaussian data
u0 = exp(-x^2), v0 = exp(-(x-1)^2), for both coupling presets.  Each test
prints a single PASS/FAIL line with the measured numbers.

Frozen constants (from a one-off h = 1/128 vs h = 1/256 refinement study,
values recorded in the assertions' comments):

* triangle balance constant C = 1.0 (measured |defect| <= 0.25 h^2);
* residual slack K = 1e-47 (measured excess of l2^2 over the analytic tail
  bound is at most 2e-48 h^2 at both grids);
* sup-norm slack K' = 0.0 (the measured sup never exceeded the analytic
  bound at either grid).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from dirac1d import (Grid, ModelParams, ModulusDrift, Scheme, TriangleRegion, TriangleSides,
                     check_pointwise_bound, compute_profile, make_initial_data,
                     residual, run, sup_tail_bound,
                     tail_bound, total_charge_drift, triangle_balance)
from dirac1d.cli import parse_config, run_experiment
from dirac1d.nonlinearity import charge_flux_defect, eval_N
from dirac1d.solver import l2_diff, restrict
from reference import (GAUSSIAN_PAIR, RECORD, first_variation, first_variation_fd,
                       reference_run, wirtinger_fd)

LATE = (5.0, 10.0, 20.0)

TRIANGLE_C = 1.0
RESIDUAL_K = 1e-47
SUP_K = 0.0


def report(num, title, ok, detail):
    print(f"[criterion {num:2d}] {title}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def ref():
    return {(model, h): reference_run(model, h)
            for model in ("thirring", "gross_neveu")
            for h in (1.0 / 128.0, 1.0 / 256.0)}


@pytest.fixture(scope="module")
def thirring_exact():
    """The beta = 0 reference run on the phase-rotation scheme, and its modulus drift."""
    grid = Grid.from_domain(-40.0, 40.0, 1.0 / 128.0, 20.0)
    data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
    drift = ModulusDrift(data)
    traj = run(data, ModelParams.thirring(), Scheme("phase_split"), list(RECORD), [drift])
    return traj, drift


@pytest.fixture(scope="module")
def triangles():
    runs = {}
    for h in (1.0 / 128.0, 1.0 / 256.0):
        grid = Grid.from_domain(-12.0, 12.0, h, 4.0)
        data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
        # criterion 4's regions at tau = 2, and its light cone with apex (0.5, 2)
        sides = [TriangleSides(region, 2.0, grid, Scheme())
                 for region in (TriangleRegion(-6.0, 6.0, 0.0), TriangleRegion(-4.0, 4.0, 0.0),
                                TriangleRegion(-2.0, 3.0, 0.5), TriangleRegion(-1.5, 2.5, 0.0))]
        run(data, ModelParams.gross_neveu(), Scheme(), [0.0, 4.0], sides)
        runs[h] = sides
    return runs


@pytest.fixture(scope="module")
def oracle_pair(oracle_future):
    # the oracle4 run at h = 1/1024 is CHILD_RUNS["oracle_future"], made in conftest's
    # worker while the suite ran
    trap = reference_run("gross_neveu", 1.0 / 256.0, T=10.0, record=[10.0])
    return trap, oracle_future.result()


def test_criterion_01_algebraic_identities():
    rng = np.random.default_rng(20260823)
    n = 100_000
    u = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
    v = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
    worst = 0.0
    for alpha, beta in ((1.0, 0.0), (0.0, 0.25), (-1.3, 0.7)):
        m = ModelParams(alpha, beta)
        d = np.abs(charge_flux_defect(u, v, m)) / (1.0 + np.abs(u) ** 2 * np.abs(v) ** 2)
        worst = max(worst, float(np.max(d)))
    defect_ok = worst <= 1e-12

    m = ModelParams(0.9, 0.35)
    pts = rng.uniform(-2, 2, (4, 8))
    fd_ok, ratios = True, []
    for k in range(4):
        uu = pts[k, 0] + 1j * pts[k, 1]
        vv = pts[k, 2] + 1j * pts[k, 3]
        p = pts[k, 4] + 1j * pts[k, 5]
        q = pts[k, 6] + 1j * pts[k, 7]
        n1, n2 = eval_N(np.array([uu, vv]), m)
        fd_ok &= abs(wirtinger_fd(uu, vv, m, 1e-4, 1, 0) - n1) <= 1e-9
        fd_ok &= abs(wirtinger_fd(uu, vv, m, 1e-4, 0, 1) - n2) <= 1e-9
        exact = first_variation(uu, vv, p, q, m)
        e1 = abs(first_variation_fd(uu, vv, p, q, m, 1e-3) - exact)
        e2 = abs(first_variation_fd(uu, vv, p, q, m, 5e-4) - exact)
        ratios.append(e1 / e2)
    order_ok = all(3.0 <= r <= 5.0 for r in ratios)
    report(1, "algebraic identity sweep", defect_ok and fd_ok and order_ok,
           f"max defect {worst:.2e} over {3 * n} samples, "
           f"fd ratios {[f'{r:.2f}' for r in ratios]}")


def test_criterion_02_charge_conservation(ref):
    details, ok = [], True
    for model in ("thirring", "gross_neveu"):
        d1 = total_charge_drift(ref[(model, 1.0 / 128.0)])
        d2 = total_charge_drift(ref[(model, 1.0 / 256.0)])
        ratio = d1 / d2
        ok &= d1 <= 1e-5 and 3.0 <= ratio <= 5.0
        details.append(f"{model}: drift {d1:.2e}, halving ratio {ratio:.2f}")
    report(2, "total charge drift <= 1e-5, second order", ok, "; ".join(details))


def test_criterion_03_exact_modulus_transport(thirring_exact):
    traj, probe = thirring_exact
    tol = 1e-12 * float(np.max(np.abs(traj.data.u0)))
    drift = probe.value
    report(3, "modulus transport with the phase-rotation scheme",
           drift <= tol, f"max modulus drift {drift:.2e} vs tol {tol:.1e}")


def test_criterion_04_triangle_balance(triangles):
    ok, details = True, []
    for i in range(3):
        defects = {h: triangle_balance(sides[i]).defect for h, sides in triangles.items()}
        d1 = defects[1.0 / 128.0]
        ratio = d1 / defects[1.0 / 256.0]
        ok &= abs(d1) <= TRIANGLE_C * (1.0 / 128.0) ** 2 and 3.0 <= ratio <= 5.0
        details.append(f"region{i}: {d1:.2e} (ratio {ratio:.2f})")
    cones = {h: triangle_balance(sides[3]).defect for h, sides in triangles.items()}
    c1 = cones[1.0 / 128.0]
    cr = c1 / cones[1.0 / 256.0]
    ok &= abs(c1) <= TRIANGLE_C * (1.0 / 128.0) ** 2 and 3.0 <= cr <= 5.0
    details.append(f"light cone: {c1:.2e} (ratio {cr:.2f})")
    report(4, "triangle balance defect O(h^2)", ok, "; ".join(details))


def test_criterion_05_pointwise_envelope(ref, thirring_exact):
    # the beta = 0 envelope has factor exactly 1 and is saturated along every
    # characteristic, so it is checked on the modulus-preserving scheme; the
    # quartic-coupling run keeps the production trapezoid scheme
    v_gn = check_pointwise_bound(ref[("gross_neveu", 1.0 / 128.0)])
    v_th = check_pointwise_bound(thirring_exact[0])
    ok = v_gn <= 1e-8 and v_th <= 1e-8
    report(5, "pointwise exponential envelope", ok,
           f"violation gross_neveu {v_gn:.2e}, thirring {v_th:.2e}")


def _late_reports(traj):
    return [residual(traj, t) for t in LATE]


def test_criterion_06_l2_convergence(ref):
    ok, details = True, []
    for model in ("thirring", "gross_neveu"):
        for h in (1.0 / 128.0, 1.0 / 256.0):
            traj = ref[(model, h)]
            reps = _late_reports(traj)
            seq_u = [r.l2_u for r in reps]
            seq_v = [r.l2_v for r in reps]
            decreasing = all(b < a for a, b in zip(seq_u, seq_u[1:]))
            decreasing &= all(b < a for a, b in zip(seq_v, seq_v[1:]))
            bounds = [tail_bound(traj.data, traj.params, r.t) for r in reps]
            bounded = all(r.l2_u ** 2 <= b_u + RESIDUAL_K * h ** 2
                          and r.l2_v ** 2 <= b_v + RESIDUAL_K * h ** 2
                          for r, (b_u, b_v) in zip(reps, bounds))
            ok &= decreasing and bounded
            if h == 1.0 / 128.0:
                details.append(f"{model}: l2_u at t=5,10,20 = "
                               + ",".join(f"{x:.1e}" for x in seq_u))
    sep_grid = Grid.from_domain(-40.0, 40.0, 1.0 / 128.0, 20.0)
    sep = make_initial_data("separated", {"u_center": 5.0, "u_width": 2.0,
                                          "v_center": -5.0, "v_width": 2.0}, sep_grid)
    traj = run(sep, ModelParams.thirring(), Scheme(), list(RECORD))
    sep_worst = max(max(r.l2_u, r.l2_v) for r in _late_reports(traj))
    ok &= sep_worst <= 1e-13
    details.append(f"separated worst residual {sep_worst:.1e}")
    report(6, "L2 residuals decrease and obey tail bound + K h^2", ok,
           "; ".join(details))


def test_criterion_07_sup_convergence(ref):
    ok, details = True, []
    for model in ("thirring", "gross_neveu"):
        traj = ref[(model, 1.0 / 128.0)]
        h = traj.grid.h
        reps = _late_reports(traj)
        sups = [max(r.sup_u, r.sup_v) for r in reps]
        decreasing = all(b < a for a, b in zip(sups, sups[1:]))
        bounds = [sup_tail_bound(traj.data, traj.params, r.t, -5.0) for r in reps]
        bounded = all(r.sup_u <= b_u + SUP_K * h ** 2 and r.sup_v <= b_v + SUP_K * h ** 2
                      for r, (b_u, b_v) in zip(reps, bounds))
        ok &= decreasing and bounded
        details.append(f"{model}: sup at t=5,10,20 = "
                       + ",".join(f"{x:.1e}" for x in sups))
    report(7, "sup-norm residuals decrease under the split bound", ok,
           "; ".join(details))


def test_criterion_08_tail_decay(ref):
    ok, details = True, []
    for model in ("thirring", "gross_neveu"):
        traj = ref[(model, 1.0 / 128.0)]
        sides = zip(*(tail_bound(traj.data, traj.params, t) for t in RECORD))
        for name, vals in zip(("u", "v"), sides):
            ok &= all(b <= a for a, b in zip(vals, vals[1:]))
            ok &= vals[-1] <= 1e-6 * vals[0]
            details.append(f"{model}: {name}-side {vals[0]:.2e} -> {vals[-1]:.2e}")
    report(8, "tail bound nonincreasing with super-Gaussian decay", ok,
           "; ".join(details))


def test_criterion_09_oracle_equivalence(oracle_pair):
    trap, oracle = oracle_pair
    sol_diff = l2_diff(trap, oracle, 10.0)
    h = trap.grid.h
    worst_prof = 0.0
    for g, go in zip(compute_profile(trap), compute_profile(oracle)):
        d = g - restrict(go, oracle.grid, trap.grid)
        worst_prof = max(worst_prof, float(np.sqrt(h * np.sum(np.abs(d) ** 2))))
    ok = sol_diff <= 1e-4 and worst_prof <= 1e-5
    report(9, "production scheme vs 4th-order reference at h/4", ok,
           f"solution L2 diff {sol_diff:.2e} (<= 1e-4), "
           f"profile L2 diff {worst_prof:.2e} (<= 1e-5)")


def test_criterion_10_determinism(tmp_path):
    text = (Path(__file__).parent.parent
            / "configs" / "gross_neveu_reference.json").read_text()
    blobs = []
    for tag in ("first", "second"):
        cfg = parse_config(text)
        cfg.output_dir = str(tmp_path / tag)
        status = run_experiment(cfg)
        assert status == 0
        blobs.append((tmp_path / tag / "summary.json").read_bytes())
    identical = blobs[0] == blobs[1]
    checks = json.loads(blobs[0])["checks"]
    report(10, "byte-identical reruns of the reference config",
           identical and all(c["pass"] for c in checks),
           f"summary.json {len(blobs[0])} bytes, {len(checks)} checks all green")
