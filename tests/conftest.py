"""Shared fixtures: small, fast runs reused across the unit test modules, and the
long reference runs of `reference.CHILD_RUNS`, which one worker process makes
while the rest of the suite runs.

When a selected test reads a child run (a fixture named in `CHILD_RUNS`, which
returns the run's future), `pytest_collection_modifyitems` starts a one-worker
process pool, submits the runs that the selected tests read and moves those
tests to the end, keeping every other test in its order.  A test takes the
run's `result()`, so a run that raises, or a worker that dies, fails it with
that error.  `pytest_unconfigure` shuts the pool down, so no process outlives
the session.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from dirac1d import Grid, ModelParams, Scheme, make_initial_data, run
from reference import CHILD_RUNS, GAUSSIAN_PAIR, reference_run

POOL = pytest.StashKey[ProcessPoolExecutor]()
FUTURES = pytest.StashKey[dict]()


def small_run(model="gross_neveu", h=1.0 / 64.0, T=2.0, span=10.0,
              scheme="trapezoidal", record_times=(0.0, 1.0, 2.0), **kwargs):
    m = ModelParams.thirring() if model == "thirring" else ModelParams.gross_neveu()
    grid = Grid.from_domain(-span, span, h, T)
    data = make_initial_data("gaussian", GAUSSIAN_PAIR, grid)
    return run(data, m, Scheme(scheme), list(record_times), **kwargs)


@pytest.hookimpl(trylast=True)  # after -k and -m have deselected
def pytest_collection_modifyitems(config, items):
    readers = [item for item in items if set(CHILD_RUNS) & set(item.fixturenames)]
    if not readers or config.option.collectonly:
        return
    items[:] = [item for item in items if item not in readers] + readers
    # spawned, not forked: numpy's BLAS pool already runs a thread in this process,
    # and a fork copies no thread; the worker unpickles reference_run by import path
    pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"))
    config.stash[POOL] = pool
    config.stash[FUTURES] = {name: pool.submit(reference_run, **kwargs)
                             for name, kwargs in CHILD_RUNS.items()
                             if any(name in item.fixturenames for item in readers)}


def pytest_unconfigure(config):
    if POOL in config.stash:
        config.stash[POOL].shutdown(cancel_futures=True)


@pytest.fixture(scope="session")
def oracle_future(pytestconfig):
    return pytestconfig.stash[FUTURES]["oracle_future"]


@pytest.fixture(scope="session")
def small_oracle_future(pytestconfig):
    return pytestconfig.stash[FUTURES]["small_oracle_future"]


@pytest.fixture(scope="session")
def gn_small():
    return small_run("gross_neveu")


@pytest.fixture(scope="session")
def thirring_small():
    return small_run("thirring")


@pytest.fixture(scope="session")
def thirring_phase_small():
    return small_run("thirring", scheme="phase_split")
