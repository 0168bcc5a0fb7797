"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import check  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import N_VARIANTS, WORKLOADS, make_config  # noqa: E402

from dirac1d import cli  # noqa: E402


def _digest(raw: dict) -> str:
    return cli.parse_config(json.dumps(raw)).digest()


def test_seed_zero_gn_reference_is_the_shipped_config():
    shipped = (ROOT / "configs" / "gross_neveu_reference.json").read_text()
    assert _digest(make_config("gn_reference", 0, ROOT)) == cli.parse_config(shipped).digest()


def test_every_variant_parses_and_differs_from_the_others():
    for workload in WORKLOADS:
        digests = {_digest(make_config(workload, seed, ROOT)) for seed in range(N_VARIANTS)}
        assert len(digests) == N_VARIANTS
        assert _digest(make_config(workload, N_VARIANTS + 3, ROOT)) == \
            _digest(make_config(workload, 3, ROOT))


def test_reference_holds_every_variant():
    refs = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for workload in WORKLOADS:
        hashes = {_digest(make_config(workload, s, ROOT)) for s in range(N_VARIANTS)}
        assert set(refs[workload]) == hashes


def test_aborting_run_counts_as_failed_and_is_not_timed(monkeypatch):
    monkeypatch.setattr(bench, "make_config", lambda *args: {
        **make_config(*args), "fixed_point_max_iter": 1})
    m = bench.measure("gn_reference", 0, 0.1, False, ROOT)
    assert m.attempted >= bench.MIN_RUNS
    assert m.failed == m.attempted
    assert all(any("exit status 2" in r for r in e.reasons) for e in m.executions)
    assert m.metrics == {}


def _small_config(tmp_path) -> cli.ExperimentConfig:
    cfg = cli.parse_config((ROOT / "configs" / "triangle_balance.json").read_text())
    cfg.T = 1.0
    cfg.record_times = [0.0, 0.5, 1.0]
    cfg.triangle_regions = [[-2.0, 2.0, 0.0, 1.0]]
    cfg.output_dir = str(tmp_path / "out")
    return cfg


def _targets():
    import importlib
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, _ in tracing.SPANNED + tracing.TALLIED}


def test_tracer_restores_module_attributes(tmp_path):
    before = _targets()
    with tracing.Tracer() as tracer:
        assert all(_targets()[k] is not v for k, v in before.items())
        assert cli.run_experiment(_small_config(tmp_path)) == 0
    assert all(_targets()[k] is v for k, v in before.items())
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("escapes the traced block")
    assert all(_targets()[k] is v for k, v in before.items())
    assert tracer.tallies["nonlinearity"].calls > 0


def test_wrapper_costs_are_positive():
    tallied, spanned = tracing.wrapper_costs()
    assert tallied > 0 and spanned > 0


def test_layer_self_times_account_for_the_run(tmp_path):
    cfg = _small_config(tmp_path)
    with tracing.Tracer() as tracer:
        cli.run_experiment(cfg)
    (run_span,) = tracer.find("cli.run_experiment")
    layers = {s.layer for s in tracer.spans}
    assert {"cli", "fields", "solver", "conservation", "asymptotics"} <= layers
    inside = sum(s.self_s for s in tracer.spans if s.id != run_span.id) \
        + tracer.tallies["nonlinearity"].seconds + run_span.self_s
    assert inside == pytest.approx(run_span.duration, rel=1e-9, abs=1e-9)
    (solver_span,) = tracer.find("solver.run")
    assert solver_span.parent == run_span.id
    assert solver_span.facts["history_bytes"] > 0


def test_gate_passes_roundoff_and_fails_a_wrong_answer(tmp_path):
    cfg = _small_config(tmp_path)
    cli.run_experiment(cfg)
    out = Path(cfg.output_dir)
    ref = json.loads(json.dumps(check.record(out)))
    assert check.compare(ref, out) == []

    snaps = (out / "snapshots.csv").read_text().splitlines()
    row = int(next(iter(ref["snapshots"]["rows"])))
    line = snaps[row + 1].split(",")
    base = float(line[2])

    def rewrite(value):
        line[2] = f"{value:.17g}"
        snaps[row + 1] = ",".join(line)
        (out / "snapshots.csv").write_text("\n".join(snaps) + "\n")

    rewrite(base + 1e-14)
    assert check.compare(ref, out) == []
    rewrite(base + 1e-6)
    assert check.compare(ref, out)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--workload", "gn_reference", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
