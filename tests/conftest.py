"""Shared fixtures: small, fast runs reused across the unit test modules."""

import pytest

from dirac1d import Grid, ModelParams, Scheme, make_initial_data, run

GAUSSIAN_PAIR = {"u_center": 0.0, "u_width": 1.0, "v_center": 1.0, "v_width": 1.0}


def small_run(model="gross_neveu", h=1.0 / 64.0, T=2.0, span=10.0,
              scheme="trapezoidal", record_times=(0.0, 1.0, 2.0), **kwargs):
    m = ModelParams.thirring() if model == "thirring" else ModelParams.gross_neveu()
    grid = Grid.from_domain(-span, span, h, T)
    data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
    return run(data, m, Scheme(scheme), list(record_times), **kwargs)


@pytest.fixture(scope="session")
def gn_small():
    return small_run("gross_neveu")


@pytest.fixture(scope="session")
def thirring_small():
    return small_run("thirring")


@pytest.fixture(scope="session")
def thirring_phase_small():
    return small_run("thirring", scheme="phase_split")
