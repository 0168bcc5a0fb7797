"""The line `tools/compare_reports.py` prints for a differing report, on two
hand-made pairs: a summary.json and a residuals.csv."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("_tools_compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_json_leaves(compare, tmp_path):
    parent = {"status": 0, "l2_G1": 0.25, "checks": [{"name": "charge", "value": 1e-15,
                                                       "pass": True}]}
    this = json.loads(json.dumps(parent))
    this["l2_G1"] = 0.25 + 2.0 ** -54  # one ulp away
    this["checks"][0]["value"] = 3e-15
    a, b = (write(tmp_path, f"{tag}.json", json.dumps(d)) for tag, d in
            (("this", this), ("parent", parent)))
    assert compare.difference(a, b) == "max abs 2e-15, max rel 2"
    this["checks"][0]["name"], this["extra"] = "triangle", 1.0
    a.write_text(json.dumps(this))
    assert compare.difference(a, b) == "max abs 2e-15, max rel 2; keys differ; text differs"
    # a flag that turns is text, not the number 1
    this = {**parent, "checks": [{**parent["checks"][0], "pass": False}]}
    a.write_text(json.dumps(this))
    assert compare.difference(a, b) == "max abs 0, max rel 0; text differs"


def test_csv_cells(compare, tmp_path):
    parent = "t,l2_u,sup_u\n0,0,0\n1,0.5,2\n"
    a = write(tmp_path, "this.csv", "t,l2_u,sup_u\n0,1e-300,0\n1,0.50000000000000011,2\n")
    b = write(tmp_path, "parent.csv", parent)
    # a value whose reference is zero differs by an infinite relative amount
    assert compare.difference(a, b) == "max abs 1.11e-16, max rel inf"
    a.write_text("t,l2_u,sup_u\n0,0,0\n")
    assert compare.difference(a, b) == "max abs 0, max rel 0; row counts differ (2 against 3)"
    a.write_text("t,l2_v,sup_u\n0,0,0\n1,0.5,2,7\n")
    assert compare.difference(a, b) == "max abs 0, max rel 0; keys differ; text differs"
