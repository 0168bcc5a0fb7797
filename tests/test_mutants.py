"""Seeded defects in the solver and its probes, each monkeypatched into the
production code: some check of `run_experiment` must turn red in summary.json.

Each mutant runs one small experiment (Gaussian pair on [-12, 12], h = 1/64,
T = 4, every check on, two triangles for the unit-step schemes: a wide one, and
one whose right side starts inside u's bump).  A mutant that no check
catches is an expected failure whose reason names the gap; it is strict, so
a new certificate that catches it turns the suite red until the mark goes.
"""

import json

import numpy as np
import pytest

from dirac1d import ModelParams, conservation, solver
from dirac1d.cli import parse_config, run_experiment

RUN = {"family": "gaussian", "u_center": 0.0, "u_width": 1.0, "v_center": 1.0,
       "v_width": 1.0, "v_phase": 0.3, "x_min": -12.0, "x_max": 12.0, "h": 1.0 / 64.0,
       "T": 4.0, "record_times": [0.0, 1.0, 2.0, 4.0]}
MODELS = {"trapezoidal": "gross_neveu", "phase_split": "thirring", "oracle4": "gross_neveu"}


def red_checks(tmp_path, scheme):
    """The names of the checks that fail on the small run of `scheme`."""
    raw = {**RUN, "model": MODELS[scheme], "scheme": scheme, "output_dir": str(tmp_path)}
    if solver.Scheme(scheme).cells == 1:
        raw["triangle_regions"] = [[-6.0, 6.0, 0.0, 2.0], [-4.0, 0.25, 0.0, 2.0]]
    else:
        raw["checks"] = ["charge", "pointwise", "profile", "residual", "tails"]
    status = run_experiment(parse_config(json.dumps(raw)))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert status != 2, summary.get("error")
    return [c["name"] for c in summary["checks"] if not c["pass"]]


def scaled_panel(mp):
    """trace panel x 1.1"""
    panel = solver._Labels.trapezoid_panel
    mp.setattr(solver._Labels, "trapezoid_panel",
               lambda self, old, new: 1.1 * panel(self, old, new))


def no_old_endpoint(mp):
    """the panel without its old endpoint: h/2 times the new source alone"""
    mp.setattr(solver._Labels, "trapezoid_panel",
               lambda self, old, new: 0.5 * self.h * new)


def panel_twice(mp):
    """each step adds its panel to the traces twice"""
    panel = solver._Labels.trapezoid_panel

    def twice(self, old, new):
        p = panel(self, old, new)
        return p + p
    mp.setattr(solver._Labels, "trapezoid_panel", twice)


def wrong_lobatto_weight(mp):
    """oracle4's full-step weight of the half-level source 0.7, not 2/3"""
    mp.setattr(solver, "_L_FULL", (1.0 / 6.0, 0.7, 1.0 / 6.0))


def side_off_by_one(mp):
    """the triangle's right side sampled one node right of its corner"""
    on_step = conservation.TriangleSides.on_step

    def shifted(self, step):
        seen = len(self.right)
        on_step(self, step)
        if len(self.right) > seen:
            level, u = step.level, step.w[0]
            i = self.jb - level + self.k0 - level + 1
            self.right[-1] = u[i] if 0 <= i < len(u) else 0j
    mp.setattr(conservation.TriangleSides, "on_step", shifted)


def scaled_angle(mp):
    """phase_split's turns built with alpha x 1.1; the traced sources keep alpha"""
    turns = solver._turns

    def scaled(lab):
        m = lab.m
        lab.m = ModelParams(1.1 * m.alpha, m.beta)
        try:
            turns(lab)
        finally:
            lab.m = m
    mp.setattr(solver, "_turns", scaled)


def left_endpoint(mp):
    """u turned by the |v|^2 at its characteristic's start, not the midpoint"""
    turns = solver._turns

    def start(lab):
        turns(lab)  # then u's turns, row 1 of the table at v label j, from |v0|^2 at j - 2
        lab.work[9, 2:] = np.exp(-1j * lab.m.alpha * lab.h * np.square(lab.moduli[1, :-2]))
    mp.setattr(solver, "_turns", start)


def scaled_alpha(mp):
    """alpha x 1.1 in phase_split's rotation and in its traced sources"""
    init = solver._Labels.__init__

    def scaled(self, data, m, s):
        init(self, data, ModelParams(1.1 * m.alpha, m.beta), s)
    mp.setattr(solver._Labels, "__init__", scaled)


def scaled_couplings(mp):
    """alpha and beta x 1.1 in oracle4's steps and in its traced sources"""
    init = solver._Labels.__init__

    def scaled(self, data, m, s):
        init(self, data, ModelParams(1.1 * m.alpha, 1.1 * m.beta), s)
    mp.setattr(solver._Labels, "__init__", scaled)


def gap(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


MUTANTS = [
    pytest.param(scaled_panel, "trapezoidal", id="panel-x1.1", marks=gap(
        "no check ties the traces to the states: charge, triangle and pointwise read "
        "|u|, |v|; profile asks only for finite values; residual reads the traces alone")),
    pytest.param(no_old_endpoint, "trapezoidal", id="panel-drops-old-endpoint", marks=gap(
        "as panel-x1.1: the traces are checked only against the analytic tail bound")),
    pytest.param(panel_twice, "trapezoidal", id="panel-twice", marks=gap(
        "as panel-x1.1: doubled traces stay under the residual check's loose bound")),
    pytest.param(wrong_lobatto_weight, "oracle4", id="lobatto-weight"),
    pytest.param(side_off_by_one, "trapezoidal", id="triangle-side-off-by-one"),
    pytest.param(scaled_angle, "phase_split", id="phase-split-angle-x1.1", marks=gap(
        "phase_split keeps |u| and |v| exactly, so no check of a summary sees its phase")),
    pytest.param(left_endpoint, "phase_split", id="phase-split-left-endpoint", marks=gap(
        "as phase-split-angle-x1.1: a first-order phase keeps every modulus")),
    pytest.param(scaled_alpha, "phase_split", id="phase-split-alpha-x1.1", marks=gap(
        "the rotation and the traces agree with each other, and no check compares "
        "either with the configured alpha")),
    pytest.param(scaled_couplings, "oracle4", id="oracle4-couplings-x1.1", marks=gap(
        "as phase-split-alpha-x1.1: no check recomputes a step from the configured "
        "couplings (the step-equation certificate, ROADMAP item 12)")),
]


@pytest.mark.parametrize("scheme", sorted(MODELS))
def test_unmutated_runs_pass_every_check(tmp_path, scheme):
    assert red_checks(tmp_path, scheme) == []


@pytest.mark.parametrize("mutant,scheme", MUTANTS)
def test_mutant_turns_a_check_red(tmp_path, monkeypatch, mutant, scheme):
    mutant(monkeypatch)
    assert red_checks(tmp_path, scheme)
