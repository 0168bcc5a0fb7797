"""Config parsing, report files, exit codes and the command-line verbs."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dirac1d
from dirac1d import Grid, Scheme, asymptotics, conservation, make_initial_data, solver
from dirac1d.asymptotics import ResidualReport
from dirac1d.cli import (ALL_CHECKS, CHECKS, CHUNK_ROWS, KNOWN_KEYS, MODELS, ConfigError,
                         ExperimentConfig, _identity_sweep, _is_number, _setup, _write_table,
                         main, parse_config, run_experiment, sweep)
from dirac1d.fields import FAMILIES, SHAPE, SHAPE_KEYS, at_nodes

NAN, INF = float("nan"), float("inf")
ROOT = Path(__file__).resolve().parents[1]

SMALL = {
    "model": "gross_neveu",
    "x_min": -10.0, "x_max": 10.0,
    "h": 0.0078125, "T": 1.0,
    "record_times": [0.0, 0.5, 1.0],
}


# oracle4 at h = 1/128 with a record time that check once passed and run rejected
DRIFT = {"scheme": "oracle4", "checks": ["charge"], "record_times": [0.0, 0.0156250000109375]}


def write_config(tmp_path, extra=None, **overrides):
    cfg = {**SMALL, **overrides}
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes os.fork makes while the test runs."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids, runs=1):
    """One process forked per run, and none left to reap."""
    assert len(pids) == runs
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _accepts(call, error) -> bool:
    """Whether call() returns without raising error."""
    try:
        call()
    except error:
        return False
    return True


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("{}")
        assert cfg.model == "thirring"
        assert cfg.h == pytest.approx(1.0 / 128.0)
        assert cfg.T == 20.0
        assert cfg.record_times == [0.0, 20.0]
        assert cfg.checks == ["charge", "triangle", "pointwise", "profile",
                              "residual", "tails"]
        # default triangle region: middle half of the domain, base at t = 0
        assert cfg.triangle_regions == [[-20.0, 20.0, 0.0, 10.0]]

    def test_all_violations_reported_at_once(self):
        bad = json.dumps({
            "model": "sine_gordon",
            "family": "soliton",
            "scheme": "leapfrog",
            "h": 0.25, "T": 1.1,
            "record_times": [0.3, "soon"],
            "triangle_regions": [[0.0, 1.0, 0.0]],
            "warp_factor": 9,
        })
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        text = "\n".join(exc.value.violations)
        for fragment in ("model:", "family:", "scheme:", "T:", "record_times[0]:",
                         "record_times[1]:", "triangle_regions[0]:", "warp_factor:"):
            assert fragment in text

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")

    def test_custom_model_needs_couplings(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(json.dumps({"model": "custom"}))
        cfg = parse_config(json.dumps({"model": "custom", "alpha": 0.5, "beta": -0.1}))
        m = cfg.model_params()
        assert (m.alpha, m.beta) == (0.5, -0.1)
        assert m.c_star == pytest.approx(0.9)

    def test_support_validated_by_sampling(self):
        with pytest.raises(ConfigError, match="support"):
            parse_config(json.dumps({"x_min": -2.0, "x_max": 2.0, "h": 0.25,
                                     "T": 1.0, "u_width": 4.0}))

    def test_off_lattice_region_rejected(self):
        with pytest.raises(ConfigError, match="lattice"):
            parse_config(json.dumps({**SMALL, "triangle_regions": [[-1.01, 1.0, 0.0, 0.5]]}))

    @pytest.mark.parametrize("overrides,prefix,fragment", [
        # the default triangle region needs a unit-step scheme
        ({"scheme": "oracle4"}, "triangle_regions[0]:", "unit-step"),
        ({"triangle_regions": [[1.0, 1.0, 0.0, 0.0]]}, "triangle_regions[0]:", "a < b"),
        ({"triangle_regions": [[-1.0, 1.0, -0.5, 0.0]]}, "triangle_regions[0]:", "t0 must be"),
        ({"triangle_regions": [[-1.0, 1.0, 0.5, 0.25]]}, "triangle_regions[0]:", "tau = 0.25"),
        ({"triangle_regions": [[-0.5, 0.5, 0.0, 0.75]]}, "triangle_regions[0]:", "apex"),
        ({"triangle_regions": [[-4.0, 4.0, 0.0, 2.0]]}, "triangle_regions[0]:", "horizon"),
        ({"fixed_point_tol": 0.0}, "fixed_point_tol:", "> 0"),
        ({"fixed_point_tol": -1e-9}, "fixed_point_tol:", "> 0"),
        ({"fixed_point_max_iter": 0}, "fixed_point_max_iter:", ">= 1"),
        ({"triangle_regions": [[True, 1.0, 0.0, 0.5]]}, "triangle_regions[0]:", "expected"),
        ({"h": 0.0}, "h:", "positive"),
        # a corner outside [x_min, x_max] is off the lattice whatever T is
        ({"triangle_regions": [[-11.0, 1.0, 0.0, 0.5]]}, "triangle_regions[0]:", "outside"),
        ({"triangle_regions": [[1.0, 10.5, 0.5, 1.0]]}, "triangle_regions[0]:", "outside"),
        # 257 steps of h: oracle4 advances two cells per step
        ({"scheme": "oracle4", "T": 2.0 + 0.0078125, "checks": ["charge"]}, "T:", "oracle4"),
        # the identity preflight seeds numpy's generator, which takes no negative seed
        ({"seed": -1}, "seed:", ">= 0"),
        # json.loads accepts NaN and Infinity
        ({"h": NAN}, "h:", "finite"),
        ({"record_times": [NAN]}, "record_times[0]:", "finite"),
        ({"T": INF}, "T:", "finite"),
        ({"T": 10 ** 400}, "T:", "finite"),
        ({"record_times": [10 ** 400]}, "record_times[0]:", "finite"),
        ({"x_max": INF}, "x_max:", "finite"),
        ({"u_width": NAN}, "u_width:", "finite"),
        ({"u_center": NAN}, "u_center:", "finite"),
        ({"model": "custom", "alpha": NAN, "beta": 0}, "alpha:", "finite"),
        ({"residual_k": NAN}, "residual_k:", "finite"),
        ({"triangle_regions": [[-INF, 1.0, 0.0, 0.5]]}, "triangle_regions[0]:", "expected"),
        # phase_split is exact only where the nonlinearity is a pure phase rotation
        ({"model": "gross_neveu", "scheme": "phase_split"}, "scheme:", "beta = 0"),
        ({"model": "custom", "alpha": 1.0, "beta": -0.5, "scheme": "phase_split"},
         "scheme:", "beta = 0"),
        # a quotient past the float range is no lattice count
        ({"x_min": -1e308, "x_max": 1e308}, "x_max:", "multiple of h"),
        ({"x_min": -1e308, "x_max": 1e308, "h": 1e308}, "x_max:", "multiple of h"),
        ({"T": 1e308}, "T:", "multiple of h"),
        ({"x_min": 5e-324, "x_max": 1e-323, "h": 5e-324}, "T:", "multiple of h"),
        # ((x - center) / width)^2 would overflow on the domain
        ({"u_width": 1e-300}, "u_width:", "overflows"),
        ({"v_width": 1e-300}, "v_width:", "overflows"),
        # a nonzero span or time is never zero cells
        ({"family": "zero", "h": 1e308, "T": 4.0}, "x_max:", "multiple of h"),
        ({"family": "zero", "h": 1e100, "T": 4.0}, "T:", "multiple of h"),
        ({"record_times": [0.0, 1e-12, 1.0]}, "record_times[1]:", "multiple"),
        # more nodes than an array holds, named by h and the domain
        ({"h": 1e-300}, "h:", "[-10.0, 10.0]"),
        # found by the fuzzer below: the tolerances scale with h^2, the charge with |amp|^2
        ({"family": "zero", "x_min": 0.0, "x_max": 1e308, "h": 1e308, "T": 0.0,
          "record_times": [0.0]}, "h:", "h^2"),
        ({"u_amplitude": 1e200, "u_width": 0.125}, "family:", "charge"),
        # 8e300 steps: from 2**52 up every T / h is a whole number
        ({"h": 0.125, "T": 1e300}, "T:", "2**52"),
        # 2.0000000014 cells of h: one oracle4 step of 2h within 1e-9, yet no cell level
        (DRIFT, "record_times[1]:", "multiple"),
        # an unhashable entry is no check name, not a TypeError
        ({"checks": [["charge"]]}, "checks[0]:", "unknown check"),
    ])
    def test_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                       overrides, prefix, fragment):
        monkeypatch.setattr(solver, "run", lambda *a, **k: pytest.fail("solver ran"))
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError) as exc:
            parse_config(path.read_text())
        assert any(v.startswith(prefix) and fragment in v for v in exc.value.violations)
        assert main(["check", str(path)]) == 1
        assert main(["run", str(path)]) == 1
        assert f"  {prefix}" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(solver.SCHEME_KINDS), k=st.integers(-1, 9),
           drift=st.floats(-2e-9, 2e-9), final=st.booleans())
    @example(kind="oracle4", k=2, drift=7e-10, final=False)  # the DRIFT case on this lattice
    @example(kind="oracle4", k=3, drift=0.0, final=True)  # T at an odd level
    def test_check_accepts_a_record_time_iff_run_does(self, kind, k, drift, final):
        # on the fuzzer's lattice (97 nodes, 8 steps), near cell level k and past T;
        # with final, T itself near level k
        raw = {**FUZZ_BASE, "model": "thirring", "scheme": kind, "checks": ["charge"]}
        cfg, t = parse_config(json.dumps(raw)), k * FUZZ_BASE["h"] * (1.0 + drift)
        T, times = (t, [0.0]) if final else (cfg.T, [t])
        checked = _accepts(lambda: parse_config(json.dumps({**raw, "T": T, "record_times": times})),
                           ConfigError)

        def run():
            grid = Grid.from_domain(cfg.x_min, cfg.x_max, cfg.h, T)
            data = make_initial_data(cfg.family, cfg.shape_params, grid)
            solver.run(data, cfg.model_params(), Scheme(kind), times)
        assert checked == _accepts(run, ValueError), (T, times, checked)

    @pytest.mark.parametrize("couplings", [
        *({"model": name} for name in MODELS),
        {"model": "custom", "alpha": 1.0, "beta": -0.5},
        {"model": "custom", "alpha": 0.9, "beta": 0.0},
    ])
    def test_check_accepts_phase_split_iff_run_does(self, couplings):
        raw = {**FUZZ_BASE, **couplings, "checks": ["charge"]}
        cfg = parse_config(json.dumps(raw))
        checked = _accepts(lambda: parse_config(json.dumps({**raw, "scheme": "phase_split"})),
                           ConfigError)
        data = make_initial_data(cfg.family, cfg.shape_params,
                                 Grid.from_domain(cfg.x_min, cfg.x_max, cfg.h, cfg.T))
        ran = _accepts(lambda: solver.run(data, cfg.model_params(), Scheme("phase_split"), []),
                       ValueError)
        assert checked == ran == (cfg.model_params().beta == 0.0)

    def test_lattice_too_large_to_sample(self, tmp_path, capsys, monkeypatch):
        # 2^34 nodes are below numpy's size limit; a real allocation that size can be
        # granted by overcommit and the process killed while filling it, so Grid.x
        # raises the MemoryError numpy would.  The byte rule, which would stop this
        # lattice first, is set aside, as where a process limit sits below physical
        # memory: the MemoryError then comes from sampling the data in _setup
        def no_memory(grid):
            raise MemoryError(f"cannot allocate {grid.n_cells} nodes")

        monkeypatch.setattr(Grid, "x", no_memory)
        monkeypatch.setattr(dirac1d.cli, "LABEL_BYTES", 0)
        path = write_config(tmp_path, h=2.0 ** -30)
        with pytest.raises(ConfigError) as exc:
            parse_config(path.read_text())
        assert exc.value.violations == [
            f"h: {2.0 ** -30} cuts [-10.0, 10.0] into too many cells (21474836480) for memory"]
        assert main(["check", str(path)]) == 1
        assert "  h: " in capsys.readouterr().err

    @pytest.mark.parametrize("raw,expected", [
        ({"scheme": "leapfrog", "fixed_point_tol": 0, "triangle_regions": [[1, 0, 0, 0]],
          "record_times": [0.3]},
         ["scheme:", "fixed_point_tol:", "record_times[0]:", "triangle_regions[0]: need a < b"]),
        ({"fixed_point_tol": 0, "fixed_point_max_iter": 0, "triangle_regions": [[0, 1, -1, 0]]},
         ["fixed_point_tol:", "fixed_point_max_iter:", "triangle_regions[0]: t0 must be"]),
    ])
    def test_every_violation_listed(self, raw, expected):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        assert len(exc.value.violations) == len(expected)
        for v, prefix in zip(exc.value.violations, expected):
            assert v.startswith(prefix), (v, prefix)

    def test_support_message_stays_finite(self):
        # the radius is formed as log|amp| - log(floor), finite for any finite amplitude
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({**SMALL, "u_amplitude": 1e200}))
        [message] = exc.value.violations
        assert message.startswith("family: u0 support [") and "inf" not in message

    def test_amplitude_below_the_floor_is_accepted_quietly(self):
        # every sample of u0 is below the underflow floor: no support, no warning
        cfg = parse_config(json.dumps({**SMALL, "u_amplitude": 1e-320}))
        assert cfg.shape_params == {"u_amplitude": 1e-320}

    def test_digest_stable_and_sensitive(self):
        a = parse_config(json.dumps(SMALL)).digest()
        b = parse_config(json.dumps(SMALL)).digest()
        c = parse_config(json.dumps({**SMALL, "seed": 7})).digest()
        assert a == b
        assert a != c


# A valid config whose lattice (97 nodes, 8 steps) runs in a few milliseconds
FUZZ_BASE = {"model": "gross_neveu", "x_min": -6.0, "x_max": 6.0, "h": 0.125, "T": 1.0,
             "record_times": [0.0, 0.5, 1.0]}
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-12, 1e100,
            1e200, 1e308, -1e308, NAN, INF, -INF, 10 ** 400, -10 ** 400]
WRONG_TYPES = ["", "1.0", None, True, [], [1.0], {}]
NUMBERS = (st.sampled_from(EXTREMES) | st.sampled_from([-6.0, -1.0, 0.125, 0.5, 1.0, 2.0, 4.0])
           | st.integers(-3, 60) | st.floats(-20.0, 20.0))
WORDS = {"model": [*MODELS, "custom"], "family": FAMILIES, "scheme": solver.SCHEME_KINDS,
         "output_dir": ["out"]}
# check samples the data, so a drawn lattice between these cell counts is skipped;
# past sys.maxsize cells check rejects h before it samples anything
MAX_CHECKED_CELLS = 100_000
MAX_RUN_NODE_STEPS = 20_000  # the fuzzer runs only lattices this small


def _values(key):
    """Values drawn for one key of the table: plausible, extreme and of the wrong type."""
    wrong = st.sampled_from(WRONG_TYPES)
    if key == "record_times":
        return st.lists(NUMBERS, max_size=4) | wrong
    if key == "checks":
        return st.lists(st.sampled_from([*ALL_CHECKS, "bogus", 3]), max_size=4) | wrong
    if key == "triangle_regions":
        return st.lists(st.lists(NUMBERS, min_size=3, max_size=5), max_size=2) | wrong
    default = SHAPE[key[2:]] if key in SHAPE_KEYS else getattr(ExperimentConfig, key)
    if isinstance(default, str):
        return st.sampled_from([*WORDS.get(key, []), "bogus"]) | wrong
    if isinstance(default, int):
        return st.integers(-2, 60) | st.sampled_from([10 ** 400, 1.5, NAN]) | wrong
    return NUMBERS | wrong


PATCHES = st.lists(st.one_of([st.tuples(st.just(k), _values(k)) for k in sorted(KNOWN_KEYS)]),
                   max_size=4).map(dict)


def _cells(raw: dict) -> float:
    """|x_max - x_min| / h from raw's finite numbers, the defaults standing in for the rest."""
    def number(key):
        v = raw.get(key)
        return float(v) if _is_number(v) else getattr(ExperimentConfig, key)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return abs(np.float64(number("x_max") - number("x_min")) / number("h"))


class TestConfigFuzzer:
    """Every config is either rejected, each violation under a key, or checks and runs."""

    @settings(max_examples=500, deadline=None)
    @given(patch=PATCHES, drop=st.lists(st.sampled_from(sorted(FUZZ_BASE)), max_size=2),
           unknown=st.booleans())
    # the inputs that crashed or misled check before the lattice rule
    @example(patch={"x_min": -1e308, "x_max": 1e308}, drop=[], unknown=False)
    @example(patch={"x_min": -1e308, "x_max": 1e308, "h": 1e308}, drop=[], unknown=False)
    @example(patch={"T": 1e308}, drop=[], unknown=False)
    @example(patch={"x_min": 5e-324, "x_max": 1e-323, "h": 5e-324}, drop=[], unknown=False)
    @example(patch={"u_width": 1e-300}, drop=[], unknown=False)
    @example(patch={"v_width": 1e-300}, drop=[], unknown=False)
    @example(patch={"family": "zero", "x_min": -12.0, "x_max": 12.0, "h": 1e308, "T": 4.0},
             drop=["record_times"], unknown=False)
    @example(patch={"h": 1e-300}, drop=[], unknown=False)
    @example(patch={"u_amplitude": 1e200}, drop=[], unknown=False)
    @example(patch={"u_amplitude": 1e-320}, drop=[], unknown=False)
    # and those it found: an h whose square overflows, a charge past the float range,
    # and runs whose bound constants c_star^2, exp(24|beta| C0) or exp(8|beta| C0) overflow
    @example(patch={"family": "zero", "x_min": 0.0, "x_max": 1e308, "h": 1e308, "T": 0.0,
                    "record_times": [0.0]}, drop=[], unknown=False)
    @example(patch={"u_amplitude": 1e200, "u_width": 0.125}, drop=[], unknown=False)
    @example(patch={"model": "custom", "alpha": 1e200, "beta": 0, "family": "zero"},
             drop=[], unknown=False)
    @example(patch={"v_amplitude": 10.0, "v_phase": -1.0}, drop=[], unknown=False)
    @example(patch={"u_amplitude": 20.0, "v_amplitude": 0.0}, drop=[], unknown=False)
    # and the record time that check passed and run rejected, before they shared one rule
    @example(patch={**DRIFT, "h": 0.0078125, "T": 0.03125}, drop=[], unknown=False)
    def test_config_is_rejected_or_runs(self, tmp_path_factory, patch, drop, unknown):
        raw = {k: v for k, v in FUZZ_BASE.items() if k not in drop} | patch
        if unknown:
            raw["warp_factor"] = 9
        if MAX_CHECKED_CELLS < _cells(raw) < sys.maxsize:
            return
        try:
            cfg = parse_config(json.dumps(raw))
        except ConfigError as exc:
            keys = "|".join(re.escape(k) for k in ["<root>", *KNOWN_KEYS, *raw])
            for v in exc.violations:
                assert re.match(rf"({keys})(\[\d+\])?: ", v), v
            return
        grid = Grid.from_domain(cfg.x_min, cfg.x_max, cfg.h, cfg.T)
        if grid.n_cells * (grid.n_steps + 1) > MAX_RUN_NODE_STEPS:
            return
        cfg.output_dir = str(tmp_path_factory.mktemp("fuzz"))
        assert run_experiment(cfg) in (0, 1, 2)
        assert (Path(cfg.output_dir) / "summary.json").exists()


class TestRunExperiment:
    def test_artifacts_and_status(self, tmp_path):
        cfg = parse_config(write_config(tmp_path).read_text())
        cfg.output_dir = str(tmp_path / "out")
        assert run_experiment(cfg) == 0
        out = tmp_path / "out"
        for name in ("snapshots.csv", "profiles.csv", "residuals.csv",
                     "balance.json", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == 0
        names = {c["name"] for c in summary["checks"]}
        assert names == {"identity", "charge", "triangle", "pointwise",
                         "profile", "residual", "tails"}
        assert all(c["pass"] for c in summary["checks"])
        assert all("identity" in c for c in summary["checks"])

    def test_every_requested_check_reported_at_t_zero(self, tmp_path):
        # no step and no residual time: the residual check passes vacuously,
        # as triangle and tails do on empty input
        raw = {"model": "gross_neveu", "x_min": -10, "x_max": 10, "h": 0.125, "T": 0.0,
               "output_dir": str(tmp_path / "out")}
        (tmp_path / "t0.json").write_text(json.dumps(raw))
        assert main(["run", str(tmp_path / "t0.json")]) == 0
        checks = json.loads((tmp_path / "out" / "summary.json").read_text())["checks"]
        assert [c["name"] for c in checks] == ["identity", *ALL_CHECKS]
        residual = next(c for c in checks if c["name"] == "residual")
        assert residual["value"] == 0.0 and residual["pass"]

    def test_every_bound_in_the_reports_is_tail_bound_at_its_time(self, tmp_path):
        # residuals.csv, the tails entry and the profile entry read one bound per time
        cfg = parse_config(write_config(tmp_path).read_text())
        cfg.output_dir = str(tmp_path / "out")
        assert run_experiment(cfg) == 0
        _, m, data, _ = _setup(cfg)
        bounds = {t: asymptotics.tail_bound(data, m, t) for t in cfg.record_times}
        rows = (tmp_path / "out" / "residuals.csv").read_text().splitlines()
        assert rows[0].split(",")[-2:] == ["bound_u", "bound_v"]
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.5, 1.0]
        for r in rows[1:]:
            t, *_, b_u, b_v = map(float, r.split(","))
            assert repr((b_u, b_v)) == repr(bounds[t])
        checks = {c["name"]: c for c in json.loads(
            (tmp_path / "out" / "summary.json").read_text())["checks"]}
        tails = checks["tails"]
        assert tails["times"] == [0.0, 0.5, 1.0]
        assert repr((tails["bounds_u"], tails["bounds_v"])) == \
            repr(tuple(map(list, zip(*bounds.values()))))
        assert repr(checks["profile"]["value"]) == \
            repr(max(math.sqrt(b) for b in bounds[1.0]))

    def test_snapshot_rows(self, tmp_path):
        cfg = parse_config(write_config(tmp_path).read_text())
        cfg.output_dir = str(tmp_path / "out")
        run_experiment(cfg)
        lines = (tmp_path / "out" / "snapshots.csv").read_text().splitlines()
        assert lines[0] == "t,x,re_u,im_u,re_v,im_v"
        n_cells = int(round((10.0 - -10.0) / 0.0078125)) + 1
        assert len(lines) == 1 + 3 * n_cells

    def test_profiles_parse_back(self, tmp_path):
        cfg = parse_config(write_config(tmp_path).read_text())
        cfg.output_dir = str(tmp_path / "out")
        run_experiment(cfg)
        rows = (tmp_path / "out" / "profiles.csv").read_text().splitlines()[1:]
        sides = {r.split(",")[0] for r in rows}
        assert sides == {"u", "v"}
        vals = np.array([float(r.split(",")[2]) for r in rows])
        assert np.all(np.isfinite(vals)) and np.abs(vals).max() > 0.0

    def test_byte_identical_reruns(self, tmp_path):
        text = write_config(tmp_path).read_text()
        blobs = []
        for tag in ("a", "b"):
            cfg = parse_config(text)
            cfg.output_dir = str(tmp_path / tag)
            run_experiment(cfg)
            blobs.append((tmp_path / tag / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_solver_abort_reports_status_2(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, u_amplitude=2e6).read_text())
        cfg.output_dir = str(tmp_path / "out")
        assert run_experiment(cfg) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == 2
        assert "blow-up" in summary["error"]

    def test_solver_abort_removes_the_previous_reports(self, tmp_path):
        # an aborted rerun into the same directory leaves only its own summary
        for extra in ({}, {"u_amplitude": 2e6}):
            cfg = parse_config(write_config(tmp_path, **extra).read_text())
            cfg.output_dir = str(tmp_path / "out")
            status = run_experiment(cfg)
        assert status == 2
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["summary.json"]

    def test_failed_run_leaves_no_earlier_reports(self, tmp_path, monkeypatch, forks):
        # any failure of the solve, not only a SolverError, finds the directory cleared
        cfg = parse_config(write_config(tmp_path).read_text())
        cfg.output_dir = str(tmp_path / "out")
        assert run_experiment(cfg) == 0
        monkeypatch.setattr(solver, "run", lambda *a, **k: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_experiment(cfg)
        assert list((tmp_path / "out").iterdir()) == []
        assert_reaped(forks, runs=2)

    def test_failing_check_reports_status_1(self, tmp_path):
        # the trapezoid update overshoots the saturated beta = 0 envelope by
        # O(h^2), far above the pointwise tolerance
        cfg = parse_config(write_config(
            tmp_path, model="thirring", h=0.015625,
            extra={"checks": ["pointwise"]},
        ).read_text())
        cfg.output_dir = str(tmp_path / "out")
        assert run_experiment(cfg) == 1

    def test_identity_sweep_is_clean(self):
        assert _identity_sweep(seed=0) <= 1e-12
        assert _identity_sweep(seed=123) <= 1e-12

    def test_identity_sweep_values_pinned(self):
        # the sweep runs the production N1/N2 with the operation order of the
        # formulas it once repeated inline, so summary.json keeps its bytes
        assert _identity_sweep(seed=0) == 1.726121328767894e-15
        assert _identity_sweep(seed=123) == 1.6599033027606637e-15

    def test_identity_sweep_runs_production_code(self, monkeypatch):
        from dirac1d import nonlinearity
        calls = []
        original = nonlinearity.eval_N
        monkeypatch.setattr(nonlinearity, "eval_N",
                            lambda *a: calls.append(1) or original(*a))
        _identity_sweep(seed=0)
        assert calls


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(l2_u, l2_v, t=1.0):
    return ResidualReport(t=t, l2_u=l2_u, sup_u=0.0, l2_v=l2_v, sup_v=0.0)


def _straddle(edge: float) -> tuple[float, float]:
    """The adjacent floats lo < hi with lo**2 <= edge < hi**2."""
    lo = math.sqrt(edge)
    while lo ** 2 > edge:
        lo = math.nextafter(lo, 0.0)
    while math.nextafter(lo, INF) ** 2 <= edge:
        lo = math.nextafter(lo, INF)
    return lo, math.nextafter(lo, INF)


class TestSnapshotWriter:
    """snapshots.csv comes from one forked writer, which every exit of a run reaps."""

    @pytest.mark.parametrize("overrides, status", [
        ({}, 0),
        ({"model": "thirring", "h": 0.015625, "checks": ["pointwise"]}, 1),
        ({"u_amplitude": 2e6}, 2),
    ])
    def test_reaped_on_every_status(self, tmp_path, forks, overrides, status):
        cfg = parse_config(write_config(tmp_path, **overrides).read_text())
        cfg.output_dir = str(tmp_path / "out")
        assert run_experiment(cfg) == status
        assert_reaped(forks)
        assert (tmp_path / "out" / "snapshots.csv").exists() == (status != 2)

    def test_reaped_when_a_report_raises_after_the_solve(self, tmp_path, monkeypatch, forks):
        # raised once the writer has written the whole file and exited, unreaped
        def failing(traj):
            for _ in range(3000):  # 30 s at most
                if os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT | os.WNOHANG):
                    return 1 / 0
                time.sleep(0.01)
            raise AssertionError("the writer did not exit")
        cfg = parse_config(write_config(tmp_path).read_text())
        cfg.output_dir = str(tmp_path / "out")
        monkeypatch.setattr(asymptotics, "compute_profile", failing)
        with pytest.raises(ZeroDivisionError):
            run_experiment(cfg)
        assert_reaped(forks)
        assert not (tmp_path / "out" / "snapshots.csv").exists()

    def test_reaped_when_interrupted_mid_solve(self, tmp_path, monkeypatch, forks):
        # level 32 of 128: the writer has the record at t = 0 and waits for t = 0.5
        class Interrupt:
            def on_step(self, step):
                if step.level == 32:
                    raise KeyboardInterrupt
        run = solver.run
        monkeypatch.setattr(solver, "run", lambda data, m, s, times, probes:
                            run(data, m, s, times, [*probes, Interrupt()]))
        cfg = parse_config(write_config(tmp_path).read_text())
        cfg.output_dir = str(tmp_path / "out")
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg)
        assert_reaped(forks)
        assert not (tmp_path / "out" / "snapshots.csv").exists()

    # A writer that fails after its first block leaves the solve writing into a pipe
    # no one reads (a record, 80 kB, is more than a pipe holds); one that fails after
    # its last block is seen when the run reaps it.
    @pytest.mark.parametrize("take, error", [(lambda blocks: [next(blocks)], BrokenPipeError),
                                             (list, RuntimeError)])
    def test_failed_writer_fails_the_run(self, tmp_path, monkeypatch, capfd, forks, take, error):
        write_table = _write_table

        def failing(path, header, blocks):
            if path.name != "snapshots.csv":
                return write_table(path, header, blocks)
            write_table(path, header, take(blocks))
            raise OSError("no space left")
        monkeypatch.setattr(dirac1d.cli, "_write_table", failing)  # before the fork: the writer's too
        cfg = parse_config(write_config(tmp_path).read_text())
        cfg.output_dir = str(tmp_path / "out")
        with pytest.raises(error):
            run_experiment(cfg)
        assert_reaped(forks)
        assert not (tmp_path / "out" / "snapshots.csv").exists()
        assert "snapshots.csv writer: OSError('no space left')" in capfd.readouterr().err

    def test_every_level_recorded_through_the_pipe(self, tmp_path):
        # 33 records of 20 kB, more than a pipe holds, so the solve waits on the writer;
        # the rows equal the per-cell writer's on an in-process solve's records
        h = 0.0625
        cfg = parse_config(write_config(tmp_path, x_min=-20.0, x_max=20.0, h=h, T=2.0,
                                        record_times=[k * h for k in range(33)],
                                        checks=["tails"]).read_text())
        cfg.output_dir = str(tmp_path / "out")
        assert run_experiment(cfg) == 0
        grid, m, data, scheme = _setup(cfg)
        rows = []
        for level, (u, v, *_) in solver.run(data, m, scheme, cfg.record_times).snapshots.items():
            u, v = at_nodes(u, v, 0, grid.n_cells - 1, level)
            rows += [(level * h, *map(float, r))
                     for r in zip(grid.x(), u.real, u.imag, v.real, v.imag)]
        assert len(rows) == 33 * grid.n_cells
        _write_cells(tmp_path / "cells.csv", ["t", "x", "re_u", "im_u", "re_v", "im_v"], rows)
        assert (tmp_path / "out" / "snapshots.csv").read_bytes() == \
            (tmp_path / "cells.csv").read_bytes()


class TestChecks:
    """Each rule of `cli.CHECKS` at its edge, on facts made by hand with no run."""

    @pytest.mark.parametrize("side", ["u", "v"])
    def test_residual_that_rises_by_one_ulp_fails(self, side):
        rule = CHECKS["residual"][1]
        bounds = {1.0: (1.0, 1.0), 2.0: (1.0, 1.0)}
        flat = [_report(0.5, 0.5, t) for t in (1.0, 2.0)]
        assert rule(residuals=flat, bounds=bounds, residual_k=10.0, h=1.0 / 64.0)[2:] == (
            True, {"nonincreasing": True})
        l2 = {"l2_u": 0.5, "l2_v": 0.5, f"l2_{side}": math.nextafter(0.5, INF)}
        risen = [flat[0], _report(**l2, t=2.0)]
        assert rule(residuals=risen, bounds=bounds, residual_k=10.0, h=1.0 / 64.0)[2:] == (
            False, {"nonincreasing": False})

    @pytest.mark.parametrize("side", ["u", "v"])
    @pytest.mark.parametrize("bound", [0.0, 0.75])
    def test_residual_at_the_edge_of_its_slack(self, side, bound):
        h, k = 1.0 / 64.0, 10.0
        slack = k * h ** 2
        lo, hi = _straddle(bound + slack)
        bounds = {1.0: (bound, 0.0) if side == "u" else (0.0, bound)}
        for l2, expected in ((lo, True), (hi, False)):
            report = _report(**{"l2_u": 0.0, "l2_v": 0.0, f"l2_{side}": l2})
            value, tol, passed, _ = CHECKS["residual"][1](residuals=[report], bounds=bounds,
                                                          residual_k=k, h=h)
            assert (tol, passed) == (slack, expected)
            assert value == l2 ** 2 - bound

    @pytest.mark.parametrize("side", [0, 1])
    def test_tail_bound_that_rises_by_one_ulp_fails(self, side):
        flat = {0.0: 2.0, 1.0: 0.5, 2.0: 0.5}
        risen = {**flat, 2.0: math.nextafter(0.5, INF)}
        for side_bounds, expected in ((flat, True), (risen, False)):
            bounds = {}
            for t in flat:
                pair = [flat[t], flat[t]]
                pair[side] = side_bounds[t]
                bounds[t] = tuple(pair)
            value, tol, passed, extra = CHECKS["tails"][1](bounds=bounds)
            assert (tol, passed) == (0.0, expected)
            assert value == (0.0 if expected else math.nextafter(0.5, INF) - 0.5)
            assert extra["times"] == list(flat)
            assert (extra["bounds_u"], extra["bounds_v"]) == tuple(map(list, zip(*bounds.values())))

    def test_profile_value_is_the_larger_root_of_the_bounds_at_T(self):
        rule, h = CHECKS["profile"][1], 0.25
        traj = SimpleNamespace(grid=SimpleNamespace(t_final=2.0))
        g = np.array([0.0, 2.0j, 0.0])
        for pair, root in (((0.25, 0.0625), 0.5), ((0.0625, 0.25), 0.5)):
            bounds = {0.0: (9.0, 9.0), 2.0: pair}
            assert rule(traj=traj, profiles=(g, 2 * g), bounds=bounds, h=h) == (
                root, None, True, {"l2_G1": 1.0, "l2_G2": 2.0})
        not_finite = (g, np.array([0.0, NAN, 0.0]))
        assert rule(traj=traj, profiles=not_finite, bounds=bounds, h=h)[2] is False

    def test_triangle_defect_one_ulp_past_its_tolerance_fails(self):
        rule, tol = CHECKS["triangle"][1], 1e-3
        for defect, expected in ((tol, True), (-tol, True), (math.nextafter(tol, INF), False),
                                 (-math.nextafter(tol, INF), False)):
            balance = [SimpleNamespace(defect=0.0), SimpleNamespace(defect=defect)]
            assert rule(balance=balance, triangle_tol=tol) == (
                abs(defect), tol, expected, {"regions": 2})

    @pytest.mark.parametrize("name,layer", [("charge", "total_charge_drift"),
                                            ("pointwise", "check_pointwise_bound")])
    def test_value_one_ulp_past_its_tolerance_fails(self, monkeypatch, name, layer):
        rule = CHECKS[name][1]
        monkeypatch.setattr(conservation, layer, lambda traj: 0.0)
        tol = rule(traj=None)[1]
        for value, expected in ((tol, True), (math.nextafter(tol, INF), False)):
            monkeypatch.setattr(conservation, layer, lambda traj: value)
            assert rule(traj=None) == (value, tol, expected, {})

    @pytest.mark.parametrize("workload", ["gn_reference", "thirring_triangle",
                                          "oracle4_crossval"])
    def test_declared_tolerances_match_the_benchmark_record(self, tmp_path, workload):
        # perfbench/check.py's bound on every recorded value
        close = lambda got, ref: abs(got - ref) <= 1e-12 + 1e-9 * abs(ref)
        workloads = _perfbench_workloads()
        cfg = parse_config(json.dumps(workloads.make_config(workload, 0, ROOT)))
        cfg.output_dir = str(tmp_path)
        assert run_experiment(cfg) == 0
        record = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        ref = record[workload][cfg.digest()]
        got = json.loads((tmp_path / "summary.json").read_text())["checks"]
        assert [c["name"] for c in got] == [c["name"] for c in ref["summary"]["checks"]]
        for c, r in zip(got, ref["summary"]["checks"]):
            if r["tolerance"] is None:
                assert c["tolerance"] is None, c["name"]
            else:
                assert close(c["tolerance"], r["tolerance"]), c["name"]
        balance = json.loads((tmp_path / "balance.json").read_text())
        assert len(balance) == len(ref["balance"])
        assert all(close(b["tolerance"], r["tolerance"]) for b, r in zip(balance, ref["balance"]))

    @pytest.mark.parametrize("checks,calls", [
        (list(ALL_CHECKS), {"total_charge_drift": 1, "triangle_balance": 2,
                            "check_pointwise_bound": 1, "compute_profile": 1, "residual": 2,
                            "tail_bound": 3}),
        # profiles.csv and residuals.csv are always written, with one bound per recorded time
        (["charge", "residual"], {"total_charge_drift": 1, "compute_profile": 1,
                                  "residual": 2, "tail_bound": 3}),
    ])
    def test_layers_called_through_their_modules(self, tmp_path, monkeypatch, checks, calls):
        # the benchmark's tracer wraps these module attributes: each must be
        # looked up at call time, once per fact, and only for a requested check
        layers = {conservation: ["total_charge_drift", "triangle_balance",
                                 "check_pointwise_bound"],
                  asymptotics: ["compute_profile", "residual", "tail_bound"]}
        counts = {}
        for module, names in layers.items():
            for name in names:
                counts[name] = 0
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original, **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        regions = [[-6.0, 6.0, 0.0, 0.5], [-4.0, 4.0, 0.0, 1.0]]
        cfg = parse_config(write_config(tmp_path, checks=checks,
                                        triangle_regions=regions).read_text())
        cfg.output_dir = str(tmp_path / "out")
        assert run_experiment(cfg) == 0
        assert counts == {**dict.fromkeys(counts, 0), **calls}


class TestSweep:
    def test_orders_estimated(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, record_times=[0.0, 1.0]).read_text())
        rows = sweep(cfg, halvings=2)
        assert len(rows) == 3
        assert rows[1]["order_estimate"] == pytest.approx(2.0, abs=0.4)
        assert rows[2]["drift_ratio"] == pytest.approx(4.0, abs=1.0)

    def test_final_time_not_a_float_multiple_of_h(self, tmp_path):
        # 3 * 0.1 is 0.30000000000000004: the final snapshot is looked up
        # within the recorded-time tolerance, not by the exact key T
        cfg = parse_config(write_config(tmp_path, h=0.1, T=0.3, record_times=[0.0, 0.3],
                                        checks=["tails"]).read_text())
        rows = sweep(cfg, halvings=1)
        assert len(rows) == 2 and rows[0]["l2_diff_to_next"] > 0


def _write_cells(path, header, rows):
    """The per-cell writer the table writer replaced: the bytes it must keep."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{c:.17g}" if isinstance(c, float) else str(c) for c in row)
                     + "\n")


class TestWriteTable:
    VALUES = [-0.0, float("nan"), 5e-324, 1e-300, 20.0, 1e16, 0.1, -2.5e-7, 1.0 / 3.0,
              float("inf"), -1e308, 123456789.125]

    def test_bytes_equal_the_per_cell_writer(self, tmp_path):
        a = np.array(self.VALUES).reshape(-1, 3)
        b = np.array(self.VALUES[::-1]).reshape(-1, 3)
        # two full chunks and a part of one, and an empty block, from a generator
        c = np.resize(np.array(self.VALUES), (2 * CHUNK_ROWS + 5, 3))
        c[:, 0] = np.arange(len(c))  # no two rows alike
        blocks = ((p, t) for p, t in (("u,", a), ("v,", b), ("w,", c), ("e,", c[:0])))
        _write_table(tmp_path / "new.csv", ["side", "x", "y", "z"], blocks)
        _write_cells(tmp_path / "old.csv", ["side", "x", "y", "z"],
                     [(side, *map(float, r)) for side, t in (("u", a), ("v", b), ("w", c))
                      for r in t])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_report_files_equal_the_per_cell_writer(self, tmp_path):
        cfg = parse_config(write_config(tmp_path).read_text())
        cfg.output_dir = str(tmp_path / "out")
        run_experiment(cfg)
        for name, prefixed in (("snapshots.csv", False), ("profiles.csv", True),
                               ("residuals.csv", False)):
            header, *lines = (tmp_path / "out" / name).read_text().splitlines()
            rows = [c.split(",") for c in lines]
            rows = [(r[0], *map(float, r[1:])) if prefixed else tuple(map(float, r))
                    for r in rows]
            _write_cells(tmp_path / "old.csv", header.split(","), rows)
            assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "out" / name).read_bytes()


class TestMain:
    def test_check_verb(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["check", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": "nope"}))
        assert main(["check", str(path)]) == 1
        assert "model" in capsys.readouterr().err

    def test_run_verb(self, tmp_path, capsys):
        path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert "status 0" in capsys.readouterr().out

    def test_module_entry_point_warns_nothing(self, tmp_path):
        # importing the package must not import cli, or runpy warns that it is loaded twice
        src = Path(dirac1d.__file__).resolve().parents[1]
        cmd = [sys.executable, "-W", "error", "-m", "dirac1d.cli", "check",
               str(write_config(tmp_path))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "configuration OK\n", "")

    def test_sweep_rejects_a_negative_count(self, tmp_path, capsys):
        path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(path), "--halve-h", "-1"])
        assert exc.value.code == 2
        assert "--halve-h" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_verb(self, tmp_path):
        path = write_config(tmp_path, output_dir=str(tmp_path / "out"),
                            record_times=[0.0, 1.0])
        assert main(["sweep", str(path), "--halve-h", "1"]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("h,charge_drift")
        assert len(lines) == 3
        # the level without a next one has nan differences, as the per-cell writer wrote
        header, *rows = lines
        _write_cells(tmp_path / "old.csv", header.split(","),
                     [tuple(map(float, r.split(","))) for r in rows])
        assert (tmp_path / "old.csv").read_text().splitlines() == lines

    @pytest.mark.parametrize("halvings", [70, 1100])
    def test_sweep_checks_every_level_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                       halvings):
        # h / 2**1100 overflowed, and from h / 2**45 on T / h is 2**52 steps or more;
        # the memory rule, which stops far coarser levels, is set aside here and tested
        # by test_sweep_rejects_a_level_no_run_can_hold
        monkeypatch.setattr(solver, "run", lambda *a, **k: pytest.fail("solver ran"))
        monkeypatch.setattr(dirac1d.cli, "LABEL_BYTES", 0)
        path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["sweep", str(path), "--halve-h", str(halvings)]) == 1
        err = capsys.readouterr().err
        assert f"  level h = {2.0 ** -52!r}: T: " in err and "2**52" in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_sweep_rejects_a_level_no_run_can_hold(self, tmp_path, capsys, monkeypatch):
        # each level passes the array and step limits down to h / 2**40, but from some
        # level on its labels need more bytes than the machine has: named before any solve
        from dirac1d.cli import LABEL_BYTES
        monkeypatch.setattr(solver, "run", lambda *a, **k: pytest.fail("solver ran"))
        raw = json.loads((ROOT / "configs" / "triangle_balance.json").read_text())
        path = tmp_path / "triangle_balance.json"
        path.write_text(json.dumps({**raw, "output_dir": str(tmp_path / "out")}))
        assert main(["sweep", str(path), "-k", "40"]) == 1
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        j = next(j for j in range(41) if 3072 * 2 ** j * LABEL_BYTES > memory)  # 24 / h cells
        h = raw["h"] / 2 ** j
        assert capsys.readouterr().err.splitlines()[1:] == [
            f"  level h = {h!r}: h: {h} cuts [-12.0, 12.0] into too many cells "
            f"({3072 * 2 ** j}) for memory"]
        assert not (tmp_path / "out").exists()

    def test_sweep_verb_reports_a_level_too_large_for_memory(self, tmp_path, capsys,
                                                             monkeypatch):
        # the finer level's samples cannot be allocated; see test_lattice_too_large_to_sample
        x = Grid.x

        def x_or_no_memory(grid):
            if grid.n_cells > 3000:
                raise MemoryError(f"cannot allocate {grid.n_cells} nodes")
            return x(grid)

        monkeypatch.setattr(Grid, "x", x_or_no_memory)
        path = write_config(tmp_path, output_dir=str(tmp_path / "out"), record_times=[0.0, 1.0])
        assert main(["sweep", str(path), "--halve-h", "1"]) == 2
        err = capsys.readouterr().err
        assert "sweep aborted at level h = 0.00390625: cannot allocate 5121 nodes" in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_sweep_verb_reports_a_solver_abort(self, tmp_path, capsys):
        # the fixed point diverges at the coarse level, as `run` would report it
        path = write_config(tmp_path, output_dir=str(tmp_path / "out"), h=0.03125,
                            record_times=[0.0, 1.0], u_amplitude=8.0, v_amplitude=8.0)
        assert main(["sweep", str(path), "--halve-h", "1"]) == 2
        err = capsys.readouterr().err
        assert "h = 0.03125" in err and "diverged at t = " in err
        assert not (tmp_path / "out" / "sweep.csv").exists()
