"""Config parsing, report files, exit codes and the command-line verbs."""

import json

import numpy as np
import pytest

from dirac1d import ConfigError, parse_config, run_experiment
from dirac1d.cli import _identity_sweep, _write_table, main, sweep

NAN, INF = float("nan"), float("inf")

SMALL = {
    "model": "gross_neveu",
    "x_min": -10.0, "x_max": 10.0,
    "h": 0.0078125, "T": 1.0,
    "record_times": [0.0, 0.5, 1.0],
}


def write_config(tmp_path, extra=None, **overrides):
    cfg = {**SMALL, **overrides}
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


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
    ])
    def test_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                       overrides, prefix, fragment):
        from dirac1d import solver
        monkeypatch.setattr(solver, "run", lambda *a, **k: pytest.fail("solver ran"))
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError) as exc:
            parse_config(path.read_text())
        assert any(v.startswith(prefix) and fragment in v for v in exc.value.violations)
        assert main(["check", str(path)]) == 1
        assert main(["run", str(path)]) == 1
        assert f"  {prefix}" in capsys.readouterr().err

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

    def test_digest_stable_and_sensitive(self):
        a = parse_config(json.dumps(SMALL)).digest()
        b = parse_config(json.dumps(SMALL)).digest()
        c = parse_config(json.dumps({**SMALL, "seed": 7})).digest()
        assert a == b
        assert a != c


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
                                        checks=["charge"]).read_text())
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
        _write_table(tmp_path / "new.csv", ["side", "x", "y", "z"], [("u,", a), ("v,", b)])
        _write_cells(tmp_path / "old.csv", ["side", "x", "y", "z"],
                     [("u", *map(float, r)) for r in a] + [("v", *map(float, r)) for r in b])
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
