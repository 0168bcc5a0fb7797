"""Correctness gate: compare a run's output files with reference values.

A reference record holds all of summary.json, balance.json and
residuals.csv, and for snapshots.csv and profiles.csv the row count, the
column sums and a fixed subsample of rows (half of them where the field is
not negligible).  Numbers agree when |got - ref| <= ATOL + RTOL * |ref|:
loose enough for a refactor that only reorders floating-point operations
(fields within 1e-14), tight enough that any change of the scheme fails.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

ATOL = 1e-12
RTOL = 1e-9
SAMPLED_ROWS = 40


def _read_csv(path: Path) -> tuple[list[str], list[list]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[c if c.isalpha() else float(c) for c in row] for row in rows[1:]]


def _numeric(row: list) -> list[float]:
    return [c for c in row if isinstance(c, float)]


def _table_record(path: Path) -> dict:
    """Row count, column sums and a subsample of a CSV written by `dirac1d run`."""
    header, rows = _read_csv(path)
    sums = [math.fsum(col) for col in zip(*(_numeric(r) for r in rows))] if rows else []
    half = SAMPLED_ROWS // 2
    values = [j for j, name in enumerate(header) if name.startswith(("re", "im"))]
    live = [i for i, r in enumerate(rows) if max(abs(r[j]) for j in values) > 1e-3]
    picks = {round(k * (len(rows) - 1) / (half - 1)) for k in range(half)} if rows else set()
    if live:
        picks |= {live[round(k * (len(live) - 1) / max(half - 1, 1))] for k in range(half)}
    return {"header": header, "n_rows": len(rows), "column_sums": sums,
            "rows": {str(i): rows[i] for i in sorted(picks)}}


def record(out_dir: Path) -> dict:
    """The reference record of one run's output directory."""
    out_dir = Path(out_dir)
    rec = {"summary": json.loads((out_dir / "summary.json").read_text()),
           "balance": json.loads((out_dir / "balance.json").read_text())}
    header, rows = _read_csv(out_dir / "residuals.csv")
    rec["residuals"] = {"header": header, "rows": rows}
    for name in ("snapshots", "profiles"):
        rec[name] = _table_record(out_dir / f"{name}.csv")
    return rec


def _close(got, ref) -> bool:
    if isinstance(ref, bool) or isinstance(got, bool):
        return got is ref
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return abs(got - ref) <= ATOL + RTOL * abs(ref)
    return got == ref


def compare(ref: dict, out_dir: Path) -> list[str]:
    """Every disagreement between a reference record and a run's outputs."""
    try:
        got = record(out_dir)
    except (OSError, ValueError, IndexError) as exc:
        return [f"outputs unreadable: {exc}"]
    return list(_diff(ref, got, ""))


def _diff(ref, got, path: str):
    if isinstance(ref, dict) and isinstance(got, dict):
        for key in sorted(set(ref) | set(got)):
            if key not in got or key not in ref:
                yield f"{path}.{key}: present in only one of reference and run"
            else:
                yield from _diff(ref[key], got[key], f"{path}.{key}")
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            yield f"{path}: length {len(got)} != reference {len(ref)}"
        else:
            for i, (r, g) in enumerate(zip(ref, got)):
                yield from _diff(r, g, f"{path}[{i}]")
    elif not _close(got, ref):
        yield f"{path}: {got!r} != reference {ref!r}"


def red_checks(summary: dict) -> list[str]:
    """Names of the summary.json checks that did not pass."""
    return [c.get("name", "?") for c in summary.get("checks", []) if c.get("pass") is not True]
