"""Workload configs for the dirac1d benchmark, generated from a seed.

Seed 0 reproduces the shipped reference configs exactly.  Any other seed
selects one of N_VARIANTS input variants (seed mod N_VARIANTS).  A variant
draws the relative phase of v0 and the config's own `seed` (which seeds the
identity preflight).  The phase is drawn from [-pi/4, pi/4]: across that band
the Gross-Neveu overlap term, and with it the fixed-point work, stays within
1 % of the shipped config, while near pi/2 the overlap vanishes and the
work drops by 10 %.  Each variant has reference outputs recorded from the
seed code (reference.json), so every seed is checked against known values.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

N_VARIANTS = 8
PHASE_BAND = math.pi / 4

# triangle regions of configs/triangle_balance.json plus one whose apex reaches T = 20
THIRRING_TRIANGLES = [[-6.0, 6.0, 0.0, 2.0], [-4.0, 4.0, 0.0, 2.0], [-2.0, 3.0, 0.5, 2.0],
                      [-20.0, 20.0, 0.0, 20.0]]

# the reason for each is in BENCHMARK.json
WORKLOADS = ("gn_reference", "thirring_triangle", "oracle4_crossval")


def _shipped(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text())


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def make_config(workload: str, seed: int, root: Path) -> dict:
    """The raw JSON config of `workload` for `seed`; `root` is the repo checkout."""
    if workload == "gn_reference":
        cfg = _shipped(root, "gross_neveu_reference.json")
    elif workload == "thirring_triangle":
        cfg = _shipped(root, "thirring_reference.json")
        cfg["checks"] = ["charge", "triangle", "pointwise", "tails"]
        cfg["triangle_regions"] = [list(r) for r in THIRRING_TRIANGLES]
    elif workload == "oracle4_crossval":
        cfg = _shipped(root, "gross_neveu_reference.json")
        cfg.update(scheme="oracle4", T=10.0, record_times=[0.0, 2.5, 5.0, 10.0])
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {list(WORKLOADS)}")
    cfg["output_dir"] = f"out/{workload}"
    variant = variant_of(seed)
    if variant:
        rng = random.Random(variant)
        cfg["v_phase"] = rng.uniform(-PHASE_BAND, PHASE_BAND)
        cfg["seed"] = rng.randrange(1, 2 ** 31)
    return cfg


def node_steps(cfg: dict) -> int:
    """Physical node-steps of a config: nodes of [x_min, x_max] times time levels T / h.

    Padding is left out, and oracle4's double step counts as two levels, so
    the figure depends only on the config, not on how the solver stores it.
    """
    h = cfg["h"]
    n_cells = round((cfg["x_max"] - cfg["x_min"]) / h) + 1
    return n_cells * round(cfg["T"] / h)
