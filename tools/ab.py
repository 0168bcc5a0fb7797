"""Paired timing of `perfbench/child.py` runs in this tree and in another checkout.

    python3 tools/ab.py PARENT_CHECKOUT [--workload NAME|all] [--pairs N] [--seed S]

For each workload it writes the benchmark's config for seed S
(`perfbench/workloads.py`) to the benchmark's config path in both trees, then
runs N pairs of untraced child runs, as `perfbench/run.py` does (its
environment, its output checks), alternating which tree runs first.  Per
end-to-end metric of BENCHMARK.json, and for the child's CPU time (user plus
system, from RUSAGE_CHILDREN), it prints each side's median and Q1-Q3, the
pairs this tree won (ties count for neither side) and a two-sided sign-test p,
then each side's median minor page faults, and every pair's run_s and minor
faults.  Last, per tree, it prints counts of one run of the workload that repeat
exactly, so they resolve a change that timings cannot: the fixed-point sweeps
of all its steps, and the `eval_N` calls and node evaluations (the columns of
the pairs passed to `dirac1d.solver.eval_N`).  A counting launcher imports
that tree's `src`, wraps `eval_N` and hands `run` one more probe.  A last line
says whether those counts are equal in the two trees or which of them moved,
and by what percentage of the parent's count.

Each child is spawned by a short-lived launcher process that calls
`perfbench/run.py`'s `_execute`.  Linux carries a process's maximum resident
size into the `ru_maxrss` of every child it spawns, so a child spawned from
this process, which holds the parsed outputs of earlier runs, would report that
as its `peak_rss_mb`; spawned from the launcher it starts from the launcher's
few MiB, and a change in the program's own memory shows.

The trees' paths must have the same length: the heap layout of a run, and with
it its timing, moves with the length of its argv and environment.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORK, _setup_sample, load_spec  # noqa: E402
from workloads import WORKLOADS, make_config, node_steps  # noqa: E402

CONFIG = f"{WORK}/config.json"  # where `run.measure` writes a workload's config

# argv: perfbench directory, tree, config, workload.  Prints the run's failure
# reasons, its result line and the CPU seconds of the child alone.
LAUNCHER = """
import json, resource, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from run import _execute, _references
ex = _execute(Path(sys.argv[2]), sys.argv[3], False, _references(sys.argv[4]))
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"reasons": ex.reasons, "result": ex.result,
                  "cpu_s": usage.ru_utime + usage.ru_stime}))
"""

# argv: tree, config.  Runs `dirac1d run` on the config with the tree's src and
# prints its exit status, the sweeps of all its steps and its eval_N calls and nodes.
COUNTER = """
import contextlib, json, sys
sys.path.insert(0, sys.argv[1] + "/src")
from dirac1d import cli, solver
counts = {"sweeps": 0, "eval_N_calls": 0, "eval_N_nodes": 0}
eval_N, run = solver.eval_N, solver.run

def counted(w, *args, **kwargs):
    counts["eval_N_calls"] += 1
    counts["eval_N_nodes"] += w.shape[-1]
    return eval_N(w, *args, **kwargs)

class Sweeps:
    def on_step(self, step):
        counts["sweeps"] += step.sweeps

solver.eval_N = counted
solver.run = lambda data, m, s, times, probes=(): run(data, m, s, times, (*probes, Sweeps()))
with contextlib.redirect_stdout(sys.stderr):
    status = cli.main(["run", sys.argv[2]])
print(json.dumps({"status": status, **counts}))
"""

# compared like the end-to-end metrics of BENCHMARK.json
CPU = {"name": "cpu_s", "unit": "s", "better": "lower"}

# the counts of one run that repeat exactly, as COUNTER prints them
COUNTS = ("sweeps", "eval_N_calls", "eval_N_nodes")


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of a sample of at least two values."""
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def pairs_won(this: list[float], parent: list[float], better: str) -> tuple[int, int]:
    """(pairs this side won, pairs it lost); a tie counts for neither."""
    sign = 1 if better == "lower" else -1
    won = sum(sign * (b - a) > 0 for a, b in zip(this, parent))
    lost = sum(sign * (a - b) > 0 for a, b in zip(this, parent))
    return won, lost


def sign_test(won: int, lost: int) -> float:
    """Two-sided sign-test p of `won` wins against `lost` losses."""
    n, k = won + lost, min(won, lost)
    if n == 0:
        return 1.0
    return min(1.0, 2.0 * sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n)


def count_moves(this: dict, parent: dict) -> str:
    """Whether `COUNTS` are equal in the two trees' runs, or which differ and by
    what percentage of the parent's count."""
    moved = []
    for key in COUNTS:
        a, b = this[key], parent[key]
        if a != b:
            change = f"{100.0 * (a - b) / b:+.1f} %" if b else "from 0"
            moved.append(f"{key} {b:,} -> {a:,} ({change})")
    if not moved:
        return "counts equal: " + ", ".join(COUNTS)
    return "counts differ: " + "; ".join(moved)


def launch(tree: Path, workload: str) -> dict:
    """One untraced child run in `tree`, spawned by the launcher; returns its
    end-to-end metrics, minor faults and CPU seconds, or the reasons it failed."""
    proc = subprocess.run([sys.executable, "-B", "-c", LAUNCHER, str(ROOT / "perfbench"),
                           str(tree), CONFIG, workload],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return {"failed": [f"launcher exited with {proc.returncode}: "
                           + (proc.stderr.strip().splitlines() or ["no output"])[-1]]}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["reasons"]:
        return {"failed": out["reasons"]}
    res = out["result"]
    return {"setup_s": res["setup_s"], "run_s": res["run_s"],
            "peak_rss_mb": res["peak_rss_mb"], "minor_faults": res["minor_faults"],
            "cpu_s": out["cpu_s"]}


def count(tree: Path, cfg: dict) -> dict:
    """The exit status, total sweeps and eval_N calls and nodes of one `dirac1d run`
    of the raw config `cfg` with `tree`'s src, its reports written to a temporary
    directory."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({**cfg, "output_dir": str(Path(tmp) / "out")}))
        proc = subprocess.run([sys.executable, "-B", "-c", COUNTER, str(tree), str(config)],
                              cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_pairs(workload: str, seed: int, pairs: int, trees: dict[str, Path]) -> list:
    """`pairs` pairs of runs, each a dict side -> the run's end-to-end metrics,
    minor faults and CPU seconds, or the reasons it failed."""
    cfg = make_config(workload, seed, ROOT)
    for root in trees.values():
        (root / WORK).mkdir(parents=True, exist_ok=True)
        (root / CONFIG).write_text(json.dumps(cfg, indent=1) + "\n")
        _setup_sample(root, CONFIG)  # warms the byte-code cache
    runs = []
    for k in range(pairs):
        pair = {}
        for side in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
            pair[side] = r = launch(trees[side], workload)
            if "failed" not in r:
                r["node_steps_per_s"] = node_steps(cfg) / r["run_s"]
        runs.append(pair)
    return runs


def row(metric: dict, this: list[dict], parent: list[dict]) -> str:
    """The metric's line: each side's median [Q1-Q3], the pairs this side won
    and the sign-test p."""
    a, b = ([r[metric["name"]] for r in side] for side in (this, parent))
    won, lost = pairs_won(a, b, metric["better"])
    cells = [f"{m:.4g} [{q1:.4g}-{q3:.4g}]" for q1, m, q3 in (quartiles(b), quartiles(a))]
    return (f"  {metric['name'] + ' ' + metric['unit']:18s} {cells[0]:>30s} {cells[1]:>30s}"
            f" {won:>3d}/{len(a):<3d} {sign_test(won, lost):8.3g}")


def report(workload: str, runs: list) -> None:
    failed = [(k, side, p[side]["failed"]) for k, p in enumerate(runs) for side in p
              if "failed" in p[side]]
    for k, side, reasons in failed:
        print(f"  pair {k}: the {side} run failed: {'; '.join(reasons[:3])}")
    ok = [p for p in runs if not any("failed" in r for r in p.values())]
    print(f"{workload}: {len(runs)} pairs, {len(failed)} failed runs, {len(ok)} pairs compared")
    if len(ok) < 2:
        return
    this, parent = ([p[side] for p in ok] for side in ("this", "parent"))
    print(f"  {'metric':18s} {'parent median [Q1-Q3]':>30s} {'this median [Q1-Q3]':>30s}"
          f" {'won':>7s} {'sign p':>8s}")
    for metric in [*load_spec()["end_to_end"], CPU]:
        print(row(metric, this, parent))
    a, b = (statistics.median(r["minor_faults"] for r in side) for side in (this, parent))
    print(f"  median minor_faults: parent {b:.4g}, this {a:.4g}")
    print("  pairs (run_s s, minor faults), parent -> this: " + "; ".join(
        f"{p['run_s']:.3f} -> {t['run_s']:.3f} ({p['minor_faults']} -> {t['minor_faults']})"
        for p, t in zip(parent, this)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare this tree with")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "dirac1d").is_dir():
        parser.error(f"{parent} holds no src/dirac1d")
    if len(str(parent)) != len(str(ROOT)):
        parser.error(f"{parent} and {ROOT} differ in path length, so their runs' heap "
                     "layouts differ; compare checkouts at paths of equal length")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees = {"this": ROOT, "parent": parent}
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        report(workload, measure_pairs(workload, args.seed, args.pairs, trees))
        cfg = make_config(workload, args.seed, ROOT)
        counts = {side: count(tree, cfg) for side, tree in reversed(trees.items())}
        for side, counted in counts.items():
            print(f"  one run in {side}: " + ", ".join(
                f"{key} {value:,}" for key, value in counted.items()))
        print("  " + count_moves(counts["this"], counts["parent"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
