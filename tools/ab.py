"""Paired timing of `perfbench/child.py` runs in this tree and in another checkout.

    python3 tools/ab.py PARENT_CHECKOUT [--workload NAME|all] [--pairs N] [--seed S]

For each workload it writes the benchmark's config for seed S
(`perfbench/workloads.py`) to the benchmark's config path in both trees, then
runs N pairs of untraced child runs, as `perfbench/run.py` does (its
environment, its output checks), alternating which tree runs first.  Per
end-to-end metric of BENCHMARK.json it prints each side's median and Q1-Q3,
the pairs this tree won (ties count for neither side) and a two-sided sign-test
p, then each side's median minor page faults and child CPU time (user plus
system, from RUSAGE_CHILDREN), and every pair's run_s and minor faults.

The trees' paths must have the same length: the heap layout of a run, and with
it its timing, moves with the length of its argv and environment.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORK, _execute, _references, _setup_sample, load_spec  # noqa: E402
from workloads import WORKLOADS, make_config, node_steps  # noqa: E402

CONFIG = f"{WORK}/config.json"  # where `run.measure` writes a workload's config


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


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_pairs(workload: str, seed: int, pairs: int, trees: dict[str, Path]) -> list:
    """`pairs` pairs of runs, each a dict side -> the run's end-to-end metrics,
    minor faults and CPU seconds, or the reasons it failed."""
    cfg = make_config(workload, seed, ROOT)
    for root in trees.values():
        (root / WORK).mkdir(parents=True, exist_ok=True)
        (root / CONFIG).write_text(json.dumps(cfg, indent=1) + "\n")
        _setup_sample(root, CONFIG)  # warms the byte-code cache
    refs, runs = _references(workload), []
    for k in range(pairs):
        pair = {}
        for side in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
            cpu = cpu_seconds()
            ex = _execute(trees[side], CONFIG, False, refs)
            res = ex.result
            pair[side] = {"failed": ex.reasons} if not ex.ok else {
                "setup_s": res["setup_s"], "run_s": res["run_s"],
                "node_steps_per_s": node_steps(cfg) / res["run_s"],
                "peak_rss_mb": res["peak_rss_mb"], "minor_faults": res["minor_faults"],
                "cpu_s": cpu_seconds() - cpu}
        runs.append(pair)
    return runs


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
    for metric in load_spec()["end_to_end"]:
        name = metric["name"]
        a, b = ([r[name] for r in side] for side in (this, parent))
        won, lost = pairs_won(a, b, metric["better"])
        cells = [f"{m:.4g} [{q1:.4g}-{q3:.4g}]" for q1, m, q3 in (quartiles(b), quartiles(a))]
        print(f"  {name + ' ' + metric['unit']:18s} {cells[0]:>30s} {cells[1]:>30s}"
              f" {won:>3d}/{len(a):<3d} {sign_test(won, lost):8.3g}")
    for name in ("minor_faults", "cpu_s"):
        a, b = (statistics.median(r[name] for r in side) for side in (this, parent))
        print(f"  median {name}: parent {b:.4g}, this {a:.4g}")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
