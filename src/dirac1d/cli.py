"""Experiment orchestration: config parsing, runs, checks, report emission.

Configs are flat JSON objects.  Verbs:

    dirac1d run <config.json>            execute the run and all requested checks
    dirac1d check <config.json>          parse and validate only
    dirac1d sweep <config.json> -k N     refinement study with N halvings of h

Every verb parses the config with one rule pass (`parse_config`); `sweep`
also checks every level's lattice by the rule `check` applies to h
(`_lattice`) before its first solve.  A run's grid, couplings, data and
scheme come from one helper (`_setup`).

`run` writes snapshots.csv, profiles.csv, residuals.csv, balance.json and
summary.json into the configured output directory and exits 0 iff every
requested check passes its declared tolerance.  Each check's name, the
identity it certifies and its pass rule are stated once, in `CHECKS`; a rule
reads the facts `run_experiment` derives once from the solve, so it can also
be called on facts made by hand.  All numbers are serialized with 17
significant digits ('.' decimal, no locale), so identical configs produce
byte-identical outputs on one platform.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import asymptotics, conservation, solver
from .fields import (FAMILIES, MAX_STEPS, SHAPE_KEYS, Grid, InitialData, ModelParams,
                     TriangleRegion, at_nodes, lattice_count, make_initial_data, time_level)
from .nonlinearity import charge_flux_defect
from .solver import Scheme, SolverError

MODELS = {"thirring": ModelParams.thirring, "gross_neveu": ModelParams.gross_neveu}

# Declared tolerances, embedded next to every reported value.
CHARGE_DRIFT_TOL = 1e-5
POINTWISE_TOL = 1e-8
IDENTITY_TOL = 1e-12
TRIANGLE_TOL_COEFF = 10.0  # |defect| <= coeff * h^2 * max(1, initial charge)

# the identity the preflight certifies, on this many seeded samples; each
# requested check's is in CHECKS
IDENTITY = "Re(i conj(N1) u) + Re(i conj(N2) v) = 0"
IDENTITY_SAMPLES = 10000


class ConfigError(ValueError):
    """Carries the full list of validation violations, not just the first."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


@dataclass
class ExperimentConfig:
    """The config keys, each declared once.  A field with a plain default is a
    scalar key of that type; shape_params collects the shape keys present
    (`fields.SHAPE_KEYS`), and `parse_config` reads the list keys."""

    model: str = "thirring"
    alpha: float = 1.0
    beta: float = 0.0
    family: str = "gaussian"
    shape_params: dict = field(default_factory=dict)
    x_min: float = -40.0
    x_max: float = 40.0
    h: float = 1.0 / 128.0
    T: float = 20.0
    scheme: str = "trapezoidal"
    fixed_point_tol: float = 1e-12
    fixed_point_max_iter: int = 50
    record_times: list[float] = field(default_factory=list)
    checks: list[str] = field(default_factory=lambda: list(ALL_CHECKS))
    triangle_regions: list[list[float]] = field(default_factory=list)
    residual_k: float = 10.0
    output_dir: str = "out"
    seed: int = 0

    def model_params(self) -> ModelParams:
        if self.model == "custom":
            return ModelParams(self.alpha, self.beta)
        return MODELS[self.model]()

    def digest(self) -> str:
        # where the reports land is not part of the experiment's identity
        d = {k: v for k, v in asdict(self).items() if k != "output_dir"}
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)} - {"shape_params"} | set(SHAPE_KEYS)

# the JSON types a scalar key accepts, by the type of its default
_JSON_TYPES = {float: (int, float), int: int, str: str}


def _is_number(x) -> bool:
    """True for a JSON number that is a finite float (json.loads also accepts
    NaN, Infinity and integers past the float range)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


# Bytes a run holds per label at the least: the data's u0, v0 and x, and the solver's
LABEL_BYTES = 2 * 16 + 8 + solver.LABEL_BYTES


def _lattice(cfg: ExperimentConfig, cells: int) -> tuple[list[str], int | None, int | None]:
    """The lattice rule, applied by `check` and by `sweep` at each level: h is
    positive with a finite square, x_max - x_min spans a whole number of cells
    of h (`lattice_count`) that an array holds and whose labels' `LABEL_BYTES`
    fit in the machine's physical memory, and T is a cell level that steps
    of `cells` cells reach (`time_level`, the rule `run` applies to T), below
    2**52 steps.  Returns the violations and the cell counts of the span and
    of T, None where a count is not a whole number."""
    errors, span, steps = [], None, None
    if cfg.h <= 0:
        errors.append(f"h: must be positive, got {cfg.h}")
    elif cfg.h * cfg.h == math.inf:
        errors.append(f"h: {cfg.h} is too large: the check tolerances scale with h^2")
    if cfg.x_max <= cfg.x_min:
        errors.append(f"x_max: must exceed x_min, got [{cfg.x_min}, {cfg.x_max}]")
    if cfg.h <= 0:
        return errors, span, steps
    span = lattice_count(cfg.x_max - cfg.x_min, cfg.h)
    if span is None:
        errors.append("x_max: x_max - x_min not a multiple of h")
    elif span > sys.maxsize // 16:  # numpy's size limit for complex samples
        errors.append(f"h: {cfg.h} cuts [{cfg.x_min}, {cfg.x_max}] into too many cells ({span})")
    elif span * LABEL_BYTES > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        errors.append(f"h: {cfg.h} cuts [{cfg.x_min}, {cfg.x_max}] into too many cells "
                      f"({span}) for memory")
    try:
        steps = time_level(cfg.T, cfg.h, cells)
    except ValueError as exc:
        errors.append(f"T: {exc} (scheme {cfg.scheme})")
    else:
        if steps >= MAX_STEPS:
            errors.append(f"T: T / h = {cfg.T / cfg.h:.3g} steps; a run takes fewer than 2**52")
    return errors, span, steps


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat JSON config; raises ConfigError listing
    every violation found, each prefixed by the offending key.

    One pass: the unknown keys, then each key's type in field order, then the
    rules in field order, except that the scheme's come before the lattice's,
    which take its step (`_lattice`).  Only a config that passes all of them
    has its data sampled, to validate their support, and its triangles placed
    on the lattice.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"<root>: not valid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["<root>: config must be a JSON object"])
    errors = [f"{key}: unknown key" for key in sorted(set(raw) - KNOWN_KEYS)]

    def take(key, default):
        val, types = raw.get(key, default), _JSON_TYPES[type(default)]
        if not isinstance(val, types) or isinstance(val, bool):
            errors.append(f"{key}: expected {types}, got {val!r}")
        elif not isinstance(val, str) and not _is_number(val):
            errors.append(f"{key}: must be finite, got {val!r}")
        else:
            return type(default)(val)
        return default

    cfg = ExperimentConfig()
    for f in fields(cfg):
        if f.default is not MISSING:
            setattr(cfg, f.name, take(f.name, f.default))
        elif f.name == "shape_params":
            cfg.shape_params = {key: take(key, 0.0) for key in SHAPE_KEYS if key in raw}

    known_model = cfg.model in (*MODELS, "custom")
    if not known_model:
        errors.append(f"model: unknown model {cfg.model!r}")
    elif cfg.model == "custom" and not ("alpha" in raw and "beta" in raw):
        errors.append("model: custom model requires explicit alpha and beta")
    if cfg.family not in FAMILIES:
        errors.append(f"family: unknown family {cfg.family!r}")
    # each scheme field checked alone, so every bad one is reported
    scheme = None
    try:
        scheme = Scheme(cfg.scheme)
        if known_model:
            scheme.check_couplings(cfg.model_params())
    except ValueError as exc:
        errors.append(f"scheme: {exc}")
    for name in ("fixed_point_tol", "fixed_point_max_iter"):
        try:
            Scheme(**{name: getattr(cfg, name)})
        except ValueError as exc:
            errors.append(f"{name}: {exc}")
    cells = scheme.cells if scheme else 1
    found, span, steps = _lattice(cfg, cells)
    errors += found

    times = raw.get("record_times", None)
    if times is None:
        cfg.record_times = [0.0, cfg.T]
    elif not isinstance(times, list):
        errors.append(f"record_times: expected a list, got {times!r}")
    else:
        for i, t in enumerate(times):
            if not _is_number(t):
                errors.append(f"record_times[{i}]: not a finite number: {t!r}")
                continue
            cfg.record_times.append(float(t))
            if cfg.h > 0:  # the rule `run` applies; no horizon when T is off the lattice
                try:
                    time_level(float(t), cfg.h, cells, math.inf if steps is None else steps)
                except ValueError as exc:
                    errors.append(f"record_times[{i}]: {exc}")

    checks = raw.get("checks", cfg.checks)
    if not isinstance(checks, list):
        errors.append(f"checks: expected a list, got {checks!r}")
    else:
        cfg.checks = [c for c in checks if c in ALL_CHECKS]
        errors += (f"checks[{i}]: unknown check {c!r}" for i, c in enumerate(checks)
                   if c not in ALL_CHECKS)

    regions = raw.get("triangle_regions", None)
    if regions is None:
        if "triangle" in cfg.checks and span and span > 0:
            # default region: middle half of the domain from t0 = 0 up to mid-height
            q = round(span / 4)
            a, b = cfg.x_min + q * cfg.h, cfg.x_max - q * cfg.h
            cfg.triangle_regions = [[a, b, 0.0, min(cfg.T, round((span - 2 * q) / 4) * cfg.h)]]
    elif not isinstance(regions, list):
        errors.append("triangle_regions: expected a list of [a, b, t0, tau]")
    else:
        for i, r in enumerate(regions):
            if not isinstance(r, list) or len(r) != 4 or not all(map(_is_number, r)):
                errors.append(f"triangle_regions[{i}]: expected [a, b, t0, tau], got {r!r}")
                continue
            a, b, t0, tau = map(float, r)
            cfg.triangle_regions.append([a, b, t0, tau])
            try:
                TriangleRegion(a, b, t0)
            except ValueError as exc:
                errors.append(f"triangle_regions[{i}]: {exc}")

    if cfg.seed < 0:
        errors.append(f"seed: must be >= 0, got {cfg.seed}")

    if not errors:
        try:
            _setup(cfg)
        except ValueError as exc:  # a complaint about one shape key is listed under it
            key = next((k for k in SHAPE_KEYS if str(exc).startswith(k)), "family")
            errors.append(f"{key}: {exc}")
        except MemoryError:  # below numpy's size limit, yet too large to sample
            errors.append(f"h: {cfg.h} cuts [{cfg.x_min}, {cfg.x_max}] into too many cells "
                          f"({span}) for memory")
        # placed on the lattice the rules counted, so listed whether or not the data fit
        grid = Grid(cfg.x_min, cfg.h, span + 1, steps)
        for i, (a, b, t0, tau) in enumerate(cfg.triangle_regions):
            try:
                conservation.TriangleSides(TriangleRegion(a, b, t0), tau, grid, scheme)
            except ValueError as exc:
                errors.append(f"triangle_regions[{i}]: {exc}")

    if errors:
        raise ConfigError(errors)
    return cfg


def _setup(cfg: ExperimentConfig) -> tuple[Grid, ModelParams, InitialData, Scheme]:
    """The objects of a run of a config that passes the rules: its grid,
    couplings, sampled initial data and scheme."""
    grid = Grid.from_domain(cfg.x_min, cfg.x_max, cfg.h, cfg.T)
    return (grid, cfg.model_params(), make_initial_data(cfg.family, cfg.shape_params, grid),
            Scheme(cfg.scheme, cfg.fixed_point_tol, cfg.fixed_point_max_iter))


CHUNK_ROWS = 1024  # CSV rows formatted at once


def _write_table(path: Path, header: list[str], blocks) -> None:
    """CSV of blocks (prefix, 2-D float array), each CHUNK_ROWS rows of a block one
    %-format, so the text held at once does not grow with the lattice."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for prefix, table in blocks:
            row = prefix + ",".join(["%.17g"] * table.shape[1]) + "\n"
            for chunk in np.split(table, range(CHUNK_ROWS, len(table), CHUNK_ROWS)):
                fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


class _SnapshotWriter:
    """The probe that writes snapshots.csv from a forked process while the
    solve runs.  At each of `levels`, in increasing order, it sends u and v by
    label (`Step.w`) down an unbuffered pipe, which blocks the solve while the
    writer is behind: at most one record is in flight.  The writer hands
    `_write_table` each record's block of u and v at the domain's nodes, and
    leaves by os._exit, so it runs no handler and flushes no stream it
    inherited; its status is 1 if it failed."""

    def __init__(self, path: Path, grid: Grid, levels: list[int]):
        self.path, self.levels = path, frozenset(levels)
        (r, w), self.pid = os.pipe(), os.fork()  # the pipe first: both ends are inherited
        if self.pid == 0:
            try:
                os.close(w)
                with open(r, "rb") as fh:
                    _write_table(path, ["t", "x", "re_u", "im_u", "re_v", "im_v"],
                                 _snapshot_blocks(fh, grid, levels))
                os._exit(0)
            except Exception as exc:
                os.write(2, f"snapshots.csv writer: {exc!r}\n".encode())
            finally:
                os._exit(1)
        os.close(r)
        self.pipe = open(w, "wb", buffering=0)  # so closing it flushes nothing

    def on_step(self, step: solver.Step):
        if step.level in self.levels:
            for row in step.w:
                view = memoryview(row).cast("B")
                while view:  # a write to a pipe may take part of the row
                    view = view[self.pipe.write(view):]

    def reap(self, kill: bool = False) -> int:
        """Reap the writer, first killing it if kill, and close the pipe;
        returns its wait status.  A killed or failed writer's file is removed."""
        if kill:
            os.kill(self.pid, 9)  # SIGKILL, before the pipe's end of file reaches it
        self.pipe.close()
        status, self.pid = os.waitpid(self.pid, 0)[1], 0
        if status or kill:
            self.path.unlink(missing_ok=True)
        return status


def _snapshot_blocks(fh, grid: Grid, levels: list[int]):
    """The `_write_table` blocks of the records read from fh, one per level
    of levels: u and v by label, as `_SnapshotWriter.on_step` sends them."""
    x, n = grid.x(), grid.n_cells
    for level in levels:
        u, v = at_nodes(*np.frombuffer(fh.read(32 * n), complex).reshape(2, n), 0, n - 1, level)
        yield "%.17g," % (level * grid.h), np.column_stack((x, u.real, u.imag, v.real, v.imag))


def _identity_sweep(seed: int) -> float:
    """Max normalized charge-flux defect over `IDENTITY_SAMPLES` seeded random
    states and couplings.

    The production N1/N2 are elementwise, so each sample carries its own
    (alpha, beta) through charge_flux_defect as arrays.  The draws come in the
    order Re u, Im u, Re v, Im v, alpha, beta.
    """
    rng = np.random.default_rng(seed)
    (ur, ui), (vr, vi) = rng.uniform(-10, 10, (2, 2, IDENTITY_SAMPLES))
    alpha, beta = rng.uniform(-2, 2, (2, IDENTITY_SAMPLES))
    u, v = ur + 1j * ui, vr + 1j * vi
    d = charge_flux_defect(u, v, ModelParams(alpha, beta))
    return float(np.max(np.abs(d) / (1.0 + np.abs(u) ** 2 * np.abs(v) ** 2)))


def _charge(traj, **_):
    drift = conservation.total_charge_drift(traj)
    return drift, CHARGE_DRIFT_TOL, drift <= CHARGE_DRIFT_TOL, {}


def _triangle(balance, triangle_tol, **_):
    worst = max((abs(r.defect) for r in balance), default=0.0)
    return worst, triangle_tol, worst <= triangle_tol, {"regions": len(balance)}


def _pointwise(traj, **_):
    violation = conservation.check_pointwise_bound(traj)
    return violation, POINTWISE_TOL, violation <= POINTWISE_TOL, {}


def _profile(traj, profiles, bounds, h, **_):
    """The profiles finite; the value is the larger root of the two tail bounds at T."""
    finite = bool(all(np.all(np.isfinite(g)) for g in profiles))
    return (math.sqrt(max(bounds[traj.grid.t_final])), None, finite,
            {f"l2_G{i}": asymptotics.l2_norm(g, h) for i, g in enumerate(profiles, 1)})


def _residual(residuals, bounds, residual_k, h, **_):
    """Each squared residual within its tail bound plus residual_k * h^2, and
    the residuals nonincreasing in t."""
    slack = residual_k * h ** 2
    bounded = all(r.l2_u ** 2 <= bounds[r.t][0] + slack
                  and r.l2_v ** 2 <= bounds[r.t][1] + slack for r in residuals)
    decreasing = all(n.l2_u <= p.l2_u and n.l2_v <= p.l2_v
                     for p, n in zip(residuals, residuals[1:]))
    worst = max((max(r.l2_u ** 2 - bounds[r.t][0], r.l2_v ** 2 - bounds[r.t][1])
                 for r in residuals), default=0.0)
    return worst, slack, bounded and decreasing, {"nonincreasing": decreasing}


def _tails(bounds, **_):
    """Each side's tail bound nonincreasing over the recorded times."""
    bounds_u, bounds_v = ([b[i] for b in bounds.values()] for i in (0, 1))
    rise = 0.0
    for seq in (bounds_u, bounds_v):
        rise = max(rise, max((b - a for a, b in zip(seq, seq[1:])), default=0.0))
    return rise, 0.0, rise <= 0.0, {"times": list(bounds), "bounds_u": bounds_u,
                                    "bounds_v": bounds_v}


# Each check a config can request: the identity it certifies and its rule, in
# the order summary.json lists them.  A rule takes the run's facts (see
# run_experiment) as keywords and returns (value, tolerance, pass, extra keys).
CHECKS = {
    "charge": ("(|u|^2+|v|^2)_t + (|u|^2-|v|^2)_x = 0", _charge),
    "triangle": ("int_{a-t0+tau}^{b+t0-tau}(|u|^2+|v|^2)dx + 2 int_{t0}^{tau}|u(b+t0-s,s)|^2 ds"
                 " + 2 int_{t0}^{tau}|v(a-t0+s,s)|^2 ds = int_a^b(|u|^2+|v|^2)dx", _triangle),
    "pointwise": ("|u(x,t)|^2 <= exp(8|beta| C0) |u0(x-t)|^2 (and mirrored in v)", _pointwise),
    "profile": ("G1(y) = -i int_0^inf N1(u(y+s,s), v(y+s,s)) ds (truncated, tail certified)",
                _profile),
    "residual": ("int |u(x,t) - u0(x-t) - G1(x-t)|^2 dx -> 0 as t -> inf", _residual),
    "tails": ("int |u0(y)|^2 (int_{y+2t}^inf |v0|^2)^2 dy nonincreasing in t", _tails),
}
ALL_CHECKS = tuple(CHECKS)


def _entry(name, identity, value, tolerance, passed, extra) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance, "pass": bool(passed),
            "identity": identity, **extra}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the configured run and checks; write all artifact files.

    The identity preflight runs first.  The reports of an earlier run in the
    directory are removed before the solve.  A forked writer
    (`_SnapshotWriter`) writes snapshots.csv while the solve runs.  After the
    solve the run's facts are derived once: the trajectory
    `traj`, h, residual_k, the triangle `balance` reports and their
    `triangle_tol`, the `profiles` (G1, G2), the `residuals` at the recorded
    times t > 0 and the `bounds`, one `tail_bound` pair per recorded time.
    The profiles and residuals read the traces alone, the bounds the data
    alone.  The other reports are written from them; once the writer has
    finished, each requested check's rule reads them, in `CHECKS` order.
    Returns 0 iff every requested check passes, 1 on check failure, 2 on
    solver abort (a diagnostic summary.json is written, no other report).
    Every exit, a raise included, reaps the writer; one that does not return
    0 or 1 leaves no snapshots.csv, and a failed writer raises.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid, m, data, scheme = _setup(cfg)

    # algebraic identity preflight, always on (cheap, seeded)
    defect = _identity_sweep(cfg.seed)
    summary = {
        "config_hash": cfg.digest(),
        "model": cfg.model,
        "alpha": m.alpha,
        "beta": m.beta,
        "c_star": m.c_star,
        "scheme": cfg.scheme,
        "h": cfg.h,
        "T": cfg.T,
        "seed": cfg.seed,
        "initial_charge": data.c0,
        "checks": [_entry("identity", IDENTITY, defect, IDENTITY_TOL, defect <= IDENTITY_TOL, {})],
    }

    sides = ([conservation.TriangleSides(TriangleRegion(a, b, t0), tau, grid, scheme)
              for a, b, t0, tau in cfg.triangle_regions] if "triangle" in cfg.checks else [])
    # a failed rerun into the directory must not leave stale reports
    for name in ("snapshots.csv", "profiles.csv", "residuals.csv", "balance.json", "summary.json"):
        (out / name).unlink(missing_ok=True)
    # the levels `solver.run` records: the record times' and the final time's
    levels = sorted({grid.step_of(t, scheme.cells) for t in (*cfg.record_times, grid.t_final)})
    writer = _SnapshotWriter(out / "snapshots.csv", grid, levels)
    try:
        traj = solver.run(data, m, scheme, cfg.record_times, [writer, *sides])
    except SolverError as exc:  # `finally` kills the writer and removes its file
        summary["error"] = str(exc)
        summary["status"] = 2
        _dump_json(out / "summary.json", summary)
        return 2
    else:
        writer.pipe.close()  # the writer formats the last block while the reports are made
        tol = TRIANGLE_TOL_COEFF * cfg.h ** 2 * max(1.0, data.c0)
        facts = {"traj": traj, "h": cfg.h, "residual_k": cfg.residual_k, "triangle_tol": tol,
                 "balance": [conservation.triangle_balance(s) for s in sides],
                 "profiles": asymptotics.compute_profile(traj),
                 "residuals": [asymptotics.residual(traj, t) for t in traj.times if t > 0],
                 "bounds": {t: asymptotics.tail_bound(data, m, t) for t in traj.times}}
        _dump_json(out / "balance.json", [{**asdict(r), "tolerance": tol,
                                           "pass": abs(r.defect) <= tol} for r in facts["balance"]])
        _write_table(out / "profiles.csv", ["side", "y", "re", "im"],
                     [(f"{side},", np.column_stack((grid.x(), g.real, g.imag)))
                      for side, g in zip("uv", facts["profiles"])])
        rows = [(r.t, r.l2_u, r.sup_u, r.l2_v, r.sup_v, *facts["bounds"][r.t])
                for r in facts["residuals"]]
        _write_table(out / "residuals.csv",
                     ["t", "l2_u", "sup_u", "l2_v", "sup_v", "bound_u", "bound_v"],
                     [("", np.reshape(rows, (-1, 7)))])
        if status := writer.reap():
            raise RuntimeError(f"the snapshots.csv writer failed (wait status {status})")
    finally:
        if writer.pid:  # not reaped: the run did not finish
            writer.reap(kill=True)

    summary["checks"] += [_entry(name, identity, *rule(**facts))
                          for name, (identity, rule) in CHECKS.items() if name in cfg.checks]
    status = 0 if all(c["pass"] for c in summary["checks"]) else 1
    summary["status"] = status
    summary["max_fixed_point_iterations"] = traj.max_fp_iterations
    _dump_json(out / "summary.json", summary)
    return status


def _dump_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def sweep(cfg: ExperimentConfig, halvings: int) -> list[dict]:
    """Refinement study: run at h, h/2, ..., h/2^halvings and estimate orders.

    Reports the charge drift at each level and the Richardson L2 difference
    between consecutive levels, with log2 order estimates.  Before the first
    solve every level's lattice passes the rule `check` applies to h
    (`_lattice`), or ConfigError names the first level that does not.  A level
    whose solve aborts, or whose lattice is too large for memory, raises
    SolverError naming its h.
    """
    cells = Scheme(cfg.scheme).cells
    levels = []
    for j in range(halvings + 1):
        level = replace(cfg, h=math.ldexp(cfg.h, -j))  # h / 2**j, which fails past 2**1023
        if found := _lattice(level, cells)[0]:
            raise ConfigError([f"level h = {level.h!r}: {v}" for v in found])
        levels.append(level)
    rows, coarse = [], None  # only the previous level's run is kept
    for level in levels:
        try:
            _, m, data, scheme = _setup(level)
            traj = solver.run(data, m, scheme, [0.0, cfg.T])
        except (SolverError, MemoryError) as exc:
            raise SolverError(f"level h = {level.h!r}: {exc}") from exc
        if coarse is not None:
            rows[-1]["l2_diff_to_next"] = solver.l2_diff(coarse, traj, cfg.T)
        rows.append({"h": level.h, "charge_drift": conservation.total_charge_drift(traj)})
        coarse = traj
    for prev, cur in zip(rows, rows[1:]):
        if "l2_diff_to_next" in prev and "l2_diff_to_next" in cur and cur["l2_diff_to_next"] > 0:
            cur["order_estimate"] = math.log2(prev["l2_diff_to_next"] / cur["l2_diff_to_next"])
        if cur["charge_drift"] > 0:
            cur["drift_ratio"] = prev["charge_drift"] / cur["charge_drift"]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dirac1d",
                                     description="characteristics solver for the 1+1D "
                                                 "massless nonlinear Dirac system")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "check", "sweep"):
        p = sub.add_parser(verb)
        p.add_argument("config", type=Path)
        if verb == "sweep":
            p.add_argument("--halve-h", "-k", type=int, default=2, dest="halvings")
    args = parser.parse_args(argv)
    if args.verb == "sweep" and args.halvings < 0:
        parser.error(f"--halve-h must be >= 0, got {args.halvings}")

    try:
        cfg = parse_config(args.config.read_text())
        rows = sweep(cfg, args.halvings) if args.verb == "sweep" else []
    except ConfigError as exc:
        print("configuration invalid:", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"sweep aborted at {exc}", file=sys.stderr)
        return 2

    if args.verb == "check":
        print("configuration OK")
        return 0
    if args.verb == "run":
        status = run_experiment(cfg)
        print(f"run finished with status {status}; reports in {cfg.output_dir}/")
        return status

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    keys = ["h", "charge_drift", "l2_diff_to_next", "order_estimate", "drift_ratio"]
    _write_table(out / "sweep.csv", keys,
                 [("", np.array([[r.get(k, float("nan")) for k in keys] for r in rows]))])
    for r in rows:
        print("  ".join(f"{k}={float(r[k]):.17g}" for k in keys if k in r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
