"""Summarize benchmark results over seeds: median, quartiles and spread per metric.

    python3 perfbench/summarize.py [OUT.json]

Run from the repository root after `perfbench/run.py` runs on several seeds.
Reads the result files those runs left in perfbench/_work and prints, per
workload and metric, the median of the per-run values, their quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median.  With OUT.json
it also writes that table with the machine facts and the run length set in
BENCHMARK.json, as perfbench/baseline.json was written.
"""

import json
import os
import platform
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import WORK


def summarize(root: Path) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    for path in sorted((root / WORK).glob("result-*.json")):
        res = json.loads(path.read_text())
        if res["failed"] or not res["metrics"]:
            raise SystemExit(f"{path.name}: {res['failed']} of {res['attempted']} runs failed")
        group = f"{res['workload']}/{'per_layer' if res['trace'] else 'end_to_end'}"
        seeds[group].append(res["seed"])
        for name, m in res["metrics"].items():
            values[group][name].append((m["value"], m["unit"]))
    table = {}
    for group, metrics in sorted(values.items()):
        table[group] = {"seeds": sorted(seeds[group]), "metrics": {}}
        for name, pairs in metrics.items():
            vals = [v for v, _ in pairs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            table[group]["metrics"][name] = {
                "unit": pairs[0][1], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(med) if med else 0.0}
    return table


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    table = summarize(Path.cwd())
    for group, entry in table.items():
        print(f"{group} (seeds {entry['seeds']})")
        for name, m in entry["metrics"].items():
            print(f"  {name:26s} median {m['median']:14.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f}")
    if argv:
        import numpy

        machine = {"nproc": os.cpu_count(), "machine": platform.machine(),
                   "system": f"{platform.system()} {platform.release()}",
                   "python": platform.python_version(), "numpy": numpy.__version__}
        spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
        Path(argv[0]).write_text(json.dumps(
            {"machine": machine, "run_seconds": spec["run_seconds"], "results": table},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
