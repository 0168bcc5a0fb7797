"""Benchmark of `dirac1d run`, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  For each workload the benchmark writes the
config generated from the seed (workloads.py), parses it in a few set-up-only
processes (rejecting it if `parse_config` does), then repeats the run, each
time in a fresh child process and one at a time, until the next run would
end after S seconds (at least MIN_RUNS runs).  A set-up-only process goes
before each run.  Every run's outputs go to a
temporary directory that is removed once they are checked.  A run fails when
its exit status is not 0, a summary.json check is red, its summary.json is not
byte-identical to the first run's, or its outputs differ from the values
recorded from the seed code (reference.json, see check.py).

It reports medians over the runs that did not fail: with --trace 0 of the
end-to-end metrics, with --trace 1 of the per-layer metrics, and then every
run is traced (tracing.py).  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
failed share is failed / attempted.  The exit code is 0 only if no run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import compare, red_checks
from workloads import WORKLOADS, make_config, node_steps

HERE = Path(__file__).resolve().parent
WORK = "perfbench/_work"  # generated configs, temporary run outputs, results

# Every child process gets this environment and no other, and paths of fixed
# length relative to the checkout in its argv.  The solver's temporaries (246 KB
# on the reference grid) sit just above glibc's initial mmap threshold; under
# its dynamic threshold, whether each step maps and unmaps them, or trims and
# regrows the heap, depends on the heap layout, which moves with the length of
# argv and of the environment.  Fixing both keeps the layout, and the timing,
# the same from run to run and from checkout to checkout while the program
# keeps glibc's default allocator.  dirac1d calls no BLAS routine: one BLAS
# thread keeps `import numpy` from starting idle threads.
CHILD_ENV = {"PYTHONPATH": "src" + os.pathsep + "perfbench", "PYTHONHASHSEED": "0",
             "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up time is sampled by SETUP_SAMPLES set-up-only processes first, then one
# before each run, and by every run that does not fail: short samples spread
# over the whole measurement give a steadier median than a burst at its start.
SETUP_SAMPLES = 4
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150


class ConfigRejected(ValueError):
    pass


class ChildFailed(RuntimeError):
    pass


@dataclass
class Execution:
    reasons: list[str]
    result: dict = field(default_factory=dict)
    summary: bytes = b""

    @property
    def ok(self) -> bool:
        return not self.reasons


@dataclass
class Measurement:
    workload: str
    executions: list[Execution]
    metrics: dict[str, tuple[float, str]]
    spans: list[dict]

    @property
    def attempted(self) -> int:
        return len(self.executions)

    @property
    def failed(self) -> int:
        return sum(not e.ok for e in self.executions)


def check_checkout(root: Path) -> None:
    """Raise FileNotFoundError unless `root` holds the dirac1d sources and configs."""
    for rel in ("src/dirac1d/__init__.py", "configs/gross_neveu_reference.json",
                "configs/thirring_reference.json"):
        if not (root / rel).is_file():
            raise FileNotFoundError(f"{rel} not found: run from the root of a dirac1d checkout")


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics listed in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


def run_child(root: Path, config: str, out: str | None = None, trace: bool = False,
              setup_only: bool = False) -> dict:
    """Run child.py in `root`; `config` and `out` are paths relative to `root`."""
    # -P: no script directory (an absolute path) on sys.path; CHILD_ENV has it
    cmd = [sys.executable, "-P", "perfbench/child.py", config]
    if out is not None:
        cmd += ["--out", str(out)]
    if not setup_only:  # as long for a traced run as for an untraced one: see CHILD_ENV
        cmd += ["--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=root, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"run took over {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"child exited with {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def _setup_sample(root: Path, config: str) -> float:
    res = run_child(root, config, setup_only=True)
    if "config_error" in res:
        raise ConfigRejected(f"{config}: " + "; ".join(res["config_error"]))
    return res["setup_s"]


def _references(workload: str) -> dict:
    return json.loads((HERE / "reference.json").read_text()).get(workload, {})


def _execute(root: Path, config: str, traced: bool, refs: dict) -> Execution:
    out = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORK))
    try:
        try:
            res = run_child(root, config, out=str(out.relative_to(root)), trace=traced)
        except ChildFailed as exc:
            return Execution([str(exc)])
        reasons = []
        if res.get("status") != 0:
            reasons.append(f"exit status {res.get('status')}")
        path = out / "summary.json"
        summary = path.read_bytes() if path.exists() else b""
        try:
            parsed = json.loads(summary)
        except json.JSONDecodeError:
            parsed = {}
            reasons.append("summary.json missing or not JSON")
        reasons += [f"check {name} is red" for name in red_checks(parsed)]
        ref = refs.get(parsed.get("config_hash"))
        if ref is None:
            reasons.append("no reference outputs recorded for this config")
        else:
            reasons += compare(ref, out)
        return Execution(reasons, res, summary)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> Measurement:
    """Run `workload` for about `seconds` and collect its metrics."""
    (root / WORK).mkdir(parents=True, exist_ok=True)
    cfg = make_config(workload, seed, root)
    config = f"{WORK}/config.json"  # one name for every workload and seed: see CHILD_ENV
    (root / config).write_text(json.dumps(cfg, indent=1) + "\n")

    _setup_sample(root, config)  # warms the byte-code cache
    setup = [_setup_sample(root, config) for _ in range(SETUP_SAMPLES)]

    refs = _references(workload)
    executions: list[Execution] = []
    start = time.perf_counter()
    while True:
        setup.append(_setup_sample(root, config))
        ex = _execute(root, config, trace, refs)
        if executions and ex.summary != executions[0].summary:
            ex.reasons.append("summary.json differs from the first run's")
        executions.append(ex)
        elapsed = time.perf_counter() - start
        if len(executions) >= MIN_RUNS and elapsed * (1 + 1 / len(executions)) > seconds:
            break

    good = [e.result for e in executions if e.ok]
    values: dict[str, float] = {}
    spans: list[dict] = []
    if good and trace:
        values = {name: statistics.median(r["layers"][name] for r in good)
                  for name in good[0]["layers"]}
        spans = good[-1]["spans"]
    elif good:
        run_s = statistics.median(r["run_s"] for r in good)
        setup += [r["setup_s"] for r in good]
        values = {"setup_s": statistics.median(setup),
                  "run_s": run_s,
                  "node_steps_per_s": node_steps(cfg) / run_s,
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good)}
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {name: (values[name], unit) for name, unit in units.items() if values}
    return Measurement(workload, executions, metrics, spans)


def _save(root: Path, m: Measurement, seed: int, trace: bool) -> None:
    record = {"workload": m.workload, "seed": seed, "trace": trace,
              "attempted": m.attempted, "failed": m.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.metrics.items()},
              "runs": [{"failures": e.reasons,
                        **{k: v for k, v in e.result.items() if k != "spans"}}
                       for e in m.executions],
              "spans": m.spans}
    path = root / WORK / f"result-{m.workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def _report(m: Measurement) -> None:
    print(f"{m.workload}: {m.attempted} runs, {m.failed} failed, "
          f"failed_share {m.failed / m.attempted:.3g}")
    for e in m.executions:
        for reason in e.reasons[:5]:
            print(f"  FAILED: {reason}")
    for name, (value, unit) in m.metrics.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    if "trace.run_s" in m.metrics:
        run_s = m.metrics["trace.run_s"][0]
        shares = {layer: m.metrics[f"{layer}.self_s"][0] / run_s
                  for layer in ("nonlinearity", "solver", "conservation", "asymptotics", "cli")}
        print("  share of traced run_s: "
              + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        check_checkout(root)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace), root) for w in names]
    except (ConfigRejected, ChildFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for m in results:
        _report(m)
        _save(root, m, args.seed, bool(args.trace))
        prefix = "" if len(results) == 1 else f"{m.workload}."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.metrics.items()})
    attempted = sum(m.attempted for m in results)
    failed = sum(m.failed for m in results)
    correct = failed == 0 and all(m.metrics for m in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
