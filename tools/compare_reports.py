"""Compare the reports `dirac1d run` writes in this tree and in another checkout.

    python3 tools/compare_reports.py PARENT_CHECKOUT

Runs the three shipped configs (`configs/*.json`), perfbench seeds 0, 3 and
6 of each workload (`perfbench/workloads.py`), the implicit schemes on every
path of the sources (`IMPLICIT`: Thirring and a custom coupling with alpha and
beta both nonzero, on the trapezoid and on oracle4), acceptance criterion 9's
trapezoid run (h = 1/256, T = 10), the same setup on oracle4 with record times
[0, 5, 10], whose double steps take many sweeps each, gross_neveu_reference
at T = 0 with every check, with record times [5, 20] and with u_amplitude 2e6
(a solver abort, which writes summary.json alone), and the refinement sweep
`dirac1d sweep configs/triangle_balance.json -k 2`, once with this tree's
`src` and once with PARENT_CHECKOUT's.  Both trees run the same config,
written from this tree, with PYTHONDONTWRITEBYTECODE=1 and their outputs
under one temporary directory.  The five reports of each pair of runs (the
abort's summary.json), and the sweep's sweep.csv, are compared byte for byte.
Every file that differs, or that one run did not write, is listed; the exit
status is 1 if any is, else 0.  A differing file's line gives the largest
absolute and relative difference over its numbers (CSV cells, JSON leaves),
relative to the parent's value, and says whether the two differ in more than
numbers: in their keys, their row counts or their text.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, make_config  # noqa: E402

REPORTS = ("summary.json", "balance.json", "snapshots.csv", "profiles.csv", "residuals.csv")
SEEDS = (0, 3, 6)
SWEEP = ("sweep", "-k", "2")
# couplings that take eval_N's alpha != 0 branches, run on gross_neveu_reference's setup
IMPLICIT = {"thirring": {"model": "thirring"},
            "custom": {"model": "custom", "alpha": 0.9, "beta": 0.35}}


def cases():
    """(name, raw config, dirac1d verb and options, reports) of every run compared."""
    configs = {path.stem: json.loads(path.read_text())
               for path in sorted((ROOT / "configs").glob("*.json"))}
    for name, raw in configs.items():
        yield name, raw, ("run",), REPORTS
    for workload in WORKLOADS:
        for seed in SEEDS:
            yield f"{workload}_seed{seed}", make_config(workload, seed, ROOT), ("run",), REPORTS
    reference = configs["gross_neveu_reference"]
    for scheme in ("trapezoidal", "oracle4"):
        for name, model in IMPLICIT.items():
            yield f"{name}_{scheme}", {**reference, **model, "scheme": scheme}, ("run",), REPORTS
    yield ("criterion09_trapezoid", {**reference, "h": 1.0 / 256.0, "T": 10.0,
                                     "record_times": [0.0, 10.0]}, ("run",), REPORTS)
    yield ("gross_neveu_oracle4_h256", {**reference, "scheme": "oracle4", "h": 1.0 / 256.0,
                                        "T": 10.0, "record_times": [0.0, 5.0, 10.0]},
           ("run",), REPORTS)
    # the tail bound looked up at its edges: a run of no steps with every check, whose
    # profile value is the bound at t = 0, and record times that omit t = 0
    every_check = {k: v for k, v in reference.items() if k != "checks"}
    yield "gross_neveu_T0", {**every_check, "T": 0.0, "record_times": [0.0]}, ("run",), REPORTS
    yield ("gross_neveu_no_t0", {**reference, "record_times": [5.0, 20.0]}, ("run",),
           REPORTS)
    # a solver abort, whose only report is the summary naming the step and the node
    yield ("gross_neveu_blowup", {**reference, "u_amplitude": 2e6}, ("run",),
           ("summary.json",))
    yield "triangle_balance_sweep", configs["triangle_balance"], SWEEP, ("sweep.csv",)


def run(tree: Path, raw: dict, verb: tuple, out: Path) -> None:
    """`dirac1d <verb> <config>` on `raw` with `tree`'s src, writing its reports into `out`."""
    config = out.with_suffix(".json")
    config.write_text(json.dumps({**raw, "output_dir": str(out)}))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, "-m", "dirac1d.cli", *verb, str(config)], cwd=tree,
                   env=env, stdout=subprocess.DEVNULL, check=False)


def leaves(path: Path) -> tuple[dict, int]:
    """The values of a report by position, and its row count: a JSON file's leaves keyed by
    their path of keys and indices (one row), a CSV file's cells by (row, column)."""
    if path.suffix == ".json":
        out = {}

        def walk(key, x):
            if isinstance(x, (dict, list)):
                for k, y in (x.items() if isinstance(x, dict) else enumerate(x)):
                    walk(key + (k,), y)
            else:
                out[key] = x
        walk((), json.loads(path.read_text()))
        return out, 1
    rows = [row.split(",") for row in path.read_text().splitlines()]
    return {(i, j): cell for i, row in enumerate(rows) for j, cell in enumerate(row)}, len(rows)


def number(x):
    """x as a float if it is a number or a CSV cell that reads as one, else None."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def difference(this: Path, parent: Path) -> str:
    """How this tree's report differs from the parent's: the largest absolute and relative
    difference over the numbers at the same position, and what else differs."""
    (a, rows_a), (b, rows_b) = leaves(this), leaves(parent)
    worst_abs, worst_rel, text = 0.0, 0.0, False
    for key in a.keys() & b.keys():
        x, y = number(a[key]), number(b[key])
        if x is None or y is None:
            text |= a[key] != b[key]
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            d = abs(x - y)
            worst_abs = max(worst_abs, d)
            worst_rel = max(worst_rel, d / abs(y) if y else math.inf)
    notes = [f"max abs {worst_abs:.3g}, max rel {worst_rel:.3g}"]
    if rows_a != rows_b:
        notes.append(f"row counts differ ({rows_a} against {rows_b})")
    elif a.keys() != b.keys():
        notes.append("keys differ")
    if text:
        notes.append("text differs")
    return "; ".join(notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose src is the reference")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "dirac1d").is_dir():
        parser.error(f"{parent} holds no src/dirac1d")

    differ, total = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw, verb, reports in cases():
            outs = [Path(tmp) / f"{name}.{tag}" for tag in ("this", "parent")]
            for tree, out in zip((ROOT, parent), outs):
                run(tree, raw, verb, out)
            for report in reports:
                total += 1
                a, b = (out / report for out in outs)
                if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
                    differ.append(f"{name}/{report}")
                    how = (difference(a, b) if a.exists() and b.exists() else
                           f"written only by {'this tree' if a.exists() else 'the parent'}"
                           if a.exists() or b.exists() else "written by neither")
                    print(f"DIFFERS {name}/{report}: {how}", flush=True)
            print(f"{name}: compared", flush=True)
    print(f"{len(differ)} of {total} report files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
