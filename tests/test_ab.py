"""The statistics `tools/ab.py` prints, CPU time's included, on fixed inputs, its
path-length rule, its counts of one run and its line on whether they moved."""

import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

AB = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("_tools_ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles(ab):
    assert ab.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_pairs_won_counts_ties_for_neither(ab):
    this, parent = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    assert ab.pairs_won(this, parent, "lower") == (2, 1)
    assert ab.pairs_won(this, parent, "higher") == (1, 2)


def test_sign_test(ab):
    assert ab.sign_test(10, 0) == ab.sign_test(0, 10) == pytest.approx(2 / 1024)
    assert ab.sign_test(9, 1) == pytest.approx(2 * 11 / 1024)
    assert ab.sign_test(8, 0) == pytest.approx(2 / 256)
    assert ab.sign_test(5, 5) == 1.0
    assert ab.sign_test(0, 0) == 1.0


def test_cpu_seconds_compared_like_wall_time(ab):
    assert ab.CPU == {"name": "cpu_s", "unit": "s", "better": "lower"}
    this = [{"cpu_s": x} for x in (1.0, 1.1, 0.9, 1.2, 1.0)]
    parent = [{"cpu_s": x} for x in (1.2, 1.3, 1.0, 1.1, 1.0)]
    # 3 pairs won, 1 lost, 1 tied: p = 2 * 5 / 16
    assert ab.row(ab.CPU, this, parent).split() == [
        "cpu_s", "s", "1.1", "[1-1.2]", "1", "[1-1.1]", "3/5", "0.625"]


def test_count_moves(ab):
    parent = {"status": 0, "sweeps": 3776, "eval_N_calls": 3776, "eval_N_nodes": 19316053}
    assert ab.count_moves(dict(parent), parent) == (
        "counts equal: sweeps, eval_N_calls, eval_N_nodes")
    # one more eval_N call per sweep, as a scratch defect makes it; status is no count
    this = {**parent, "status": 1, "eval_N_calls": 7552, "eval_N_nodes": 21247658}
    assert ab.count_moves(this, parent) == (
        "counts differ: eval_N_calls 3,776 -> 7,552 (+100.0 %); "
        "eval_N_nodes 19,316,053 -> 21,247,658 (+10.0 %)")
    assert ab.count_moves({**parent, "sweeps": 0}, parent) == (
        "counts differ: sweeps 3,776 -> 0 (-100.0 %)")
    assert ab.count_moves(parent, {**parent, "sweeps": 0}) == (
        "counts differ: sweeps 0 -> 3,776 (from 0)")


def test_refuses_paths_of_unequal_length(ab, tmp_path, capsys):
    name = "p" if len(str(tmp_path / "p")) != len(str(ab.ROOT)) else "pp"
    (tmp_path / name / "src" / "dirac1d").mkdir(parents=True)
    with pytest.raises(SystemExit) as exc:
        ab.main([str(tmp_path / name)])
    assert exc.value.code == 2
    assert "path length" in capsys.readouterr().err


def test_counts_repeat_and_match_an_in_process_run(ab, monkeypatch):
    # a small oracle4 run: several sweeps a step, and every eval_N call counted
    from dirac1d import cli, solver
    raw = {"model": "gross_neveu", "scheme": "oracle4", "x_min": -6.0, "x_max": 6.0,
           "h": 0.0625, "T": 1.0, "record_times": [0.0, 1.0], "checks": ["charge"]}
    counts = ab.count(ab.ROOT, raw)
    assert counts == ab.count(ab.ROOT, raw)

    seen = {"status": None, "sweeps": 0, "eval_N_calls": 0, "eval_N_nodes": 0}
    eval_N, run, steps = solver.eval_N, solver.run, []

    def counted(w, *args, **kwargs):
        seen["eval_N_calls"] += 1
        seen["eval_N_nodes"] += w.shape[1]
        return eval_N(w, *args, **kwargs)

    class Sweeps:
        def on_step(self, step):
            seen["sweeps"] += step.sweeps
            steps.append(step.level)

    monkeypatch.setattr(solver, "eval_N", counted)
    monkeypatch.setattr(solver, "run", lambda data, m, s, times, probes=(): run(
        data, m, s, times, (*probes, Sweeps())))
    with tempfile.TemporaryDirectory() as tmp:
        seen["status"] = cli.run_experiment(cli.parse_config(json.dumps(
            {**raw, "output_dir": tmp})))
    assert counts == seen and counts["sweeps"] > len(steps) - 1 > 0
