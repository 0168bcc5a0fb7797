"""Experiment orchestration: config parsing, runs, checks, report emission.

Configs are flat JSON objects.  Verbs:

    dirac1d run <config.json>            execute the run and all requested checks
    dirac1d check <config.json>          parse and validate only
    dirac1d sweep <config.json> -k N     refinement study with N halvings of h

`run` writes snapshots.csv, profiles.csv, residuals.csv, balance.json and
summary.json into the configured output directory and exits 0 iff every
requested check passes its declared tolerance.  All numbers are serialized
with 17 significant digits ('.' decimal, no locale), so identical configs
produce byte-identical outputs on one platform.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import asymptotics, conservation, solver
from .fields import (FAMILIES, Grid, ModelParams, TriangleRegion, at_nodes, make_initial_data,
                     triangle_nodes)
from .nonlinearity import charge_flux_defect
from .solver import Scheme, SolverError

ALL_CHECKS = ("charge", "triangle", "pointwise", "profile", "residual", "tails")

MODELS = {"thirring": ModelParams.thirring, "gross_neveu": ModelParams.gross_neveu}

# Declared tolerances, embedded next to every reported value.
CHARGE_DRIFT_TOL = 1e-5
POINTWISE_TOL = 1e-8
IDENTITY_TOL = 1e-12
TRIANGLE_TOL_COEFF = 10.0  # |defect| <= coeff * h^2 * max(1, initial charge)

IDENTITIES = {
    "charge": "(|u|^2+|v|^2)_t + (|u|^2-|v|^2)_x = 0",
    "triangle": ("int_{a-t0+tau}^{b+t0-tau}(|u|^2+|v|^2)dx + 2 int_{t0}^{tau}|u(b+t0-s,s)|^2 ds"
                 " + 2 int_{t0}^{tau}|v(a-t0+s,s)|^2 ds = int_a^b(|u|^2+|v|^2)dx"),
    "pointwise": "|u(x,t)|^2 <= exp(8|beta| C0) |u0(x-t)|^2 (and mirrored in v)",
    "profile": "G1(y) = -i int_0^inf N1(u(y+s,s), v(y+s,s)) ds (truncated, tail certified)",
    "residual": "int |u(x,t) - u0(x-t) - G1(x-t)|^2 dx -> 0 as t -> inf",
    "tails": "int |u0(y)|^2 (int_{y+2t}^inf |v0|^2)^2 dy nonincreasing in t",
    "identity": "Re(i conj(N1) u) + Re(i conj(N2) v) = 0",
}

_SHAPE_KEYS = tuple(f"{c}_{k}" for c in "uv" for k in ("center", "width", "amplitude", "phase"))

KNOWN_KEYS = {
    "model", "alpha", "beta", "family", "x_min", "x_max", "h", "T",
    "scheme", "fixed_point_tol", "fixed_point_max_iter",
    "record_times", "checks", "triangle_regions", "residual_k",
    "output_dir", "seed", *_SHAPE_KEYS,
}


class ConfigError(ValueError):
    """Carries the full list of validation violations, not just the first."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


@dataclass
class ExperimentConfig:
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

    def canonical(self) -> dict:
        d = asdict(self)
        # where the reports land is not part of the experiment's identity
        d.pop("output_dir")
        return d

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.canonical(), sort_keys=True).encode()).hexdigest()


def _is_number(x) -> bool:
    """True for a JSON number that is a finite float (json.loads also accepts
    NaN, Infinity and integers past the float range)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _is_multiple(value: float, h: float) -> bool:
    r = value / h
    return abs(r - round(r)) <= 1e-9


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat JSON config; raises ConfigError listing
    every violation found, each prefixed by the offending key."""
    errors: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"<root>: not valid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["<root>: config must be a JSON object"])

    for key in sorted(set(raw) - KNOWN_KEYS):
        errors.append(f"{key}: unknown key")

    cfg = ExperimentConfig()

    def take(key, default, types, convert=lambda x: x):
        val = raw.get(key, default)
        if not isinstance(val, types) or isinstance(val, bool):
            errors.append(f"{key}: expected {types}, got {val!r}")
            return default
        if not isinstance(val, str) and not _is_number(val):
            errors.append(f"{key}: must be finite, got {val!r}")
            return default
        return convert(val)

    cfg.model = take("model", cfg.model, str)
    if cfg.model not in (*MODELS, "custom"):
        errors.append(f"model: unknown model {cfg.model!r}")
    cfg.alpha = take("alpha", cfg.alpha, (int, float), float)
    cfg.beta = take("beta", cfg.beta, (int, float), float)
    if cfg.model == "custom" and not ("alpha" in raw and "beta" in raw):
        errors.append("model: custom model requires explicit alpha and beta")

    cfg.family = take("family", cfg.family, str)
    if cfg.family not in FAMILIES:
        errors.append(f"family: unknown family {cfg.family!r}")
    for key in _SHAPE_KEYS:
        if key in raw:
            cfg.shape_params[key] = take(key, 0.0, (int, float), float)

    cfg.x_min = take("x_min", cfg.x_min, (int, float), float)
    cfg.x_max = take("x_max", cfg.x_max, (int, float), float)
    cfg.h = take("h", cfg.h, (int, float), float)
    cfg.T = take("T", cfg.T, (int, float), float)
    if cfg.h <= 0:
        errors.append(f"h: must be positive, got {cfg.h}")
    if cfg.x_max <= cfg.x_min:
        errors.append(f"x_max: must exceed x_min, got [{cfg.x_min}, {cfg.x_max}]")
    if cfg.h > 0:
        if not _is_multiple(cfg.x_max - cfg.x_min, cfg.h):
            errors.append("x_max: x_max - x_min not a multiple of h")
        if cfg.T < 0 or not _is_multiple(cfg.T, cfg.h):
            errors.append(f"T: not a nonnegative multiple of h (T={cfg.T}, h={cfg.h})")

    cfg.scheme = take("scheme", cfg.scheme, str)
    cfg.fixed_point_tol = take("fixed_point_tol", cfg.fixed_point_tol, (int, float), float)
    cfg.fixed_point_max_iter = take("fixed_point_max_iter", cfg.fixed_point_max_iter, int)
    scheme_errors = []  # each field checked alone, so every bad one is reported
    for key, name in (("scheme", "kind"), ("fixed_point_tol", "fixed_point_tol"),
                      ("fixed_point_max_iter", "fixed_point_max_iter")):
        try:
            Scheme(**{name: getattr(cfg, key)})
        except ValueError as exc:
            scheme_errors.append(f"{key}: {exc}")
    errors += scheme_errors
    scheme = (None if scheme_errors
              else Scheme(cfg.scheme, cfg.fixed_point_tol, cfg.fixed_point_max_iter))
    if scheme and cfg.h > 0 and cfg.T > 0 and round(cfg.T / cfg.h) % scheme.cells:
        errors.append(f"T: {scheme.kind} advances {scheme.cells} cells per step; "
                      f"T / h = {round(cfg.T / cfg.h)} is not a multiple of {scheme.cells}")

    times = raw.get("record_times", None)
    if times is None:
        cfg.record_times = [0.0, cfg.T]
    elif not isinstance(times, list):
        errors.append(f"record_times: expected a list, got {times!r}")
    else:
        cfg.record_times = []
        step = (scheme.cells if scheme else 1) * cfg.h
        for i, t in enumerate(times):
            if not _is_number(t):
                errors.append(f"record_times[{i}]: not a finite number: {t!r}")
                continue
            t = float(t)
            if cfg.h > 0 and (not _is_multiple(t, step) or not 0 <= t <= cfg.T):
                errors.append(
                    f"record_times[{i}]: {t} is not a multiple of the time step "
                    f"{step} within [0, {cfg.T}]")
            cfg.record_times.append(t)

    checks = raw.get("checks", None)
    if checks is not None:
        if not isinstance(checks, list):
            errors.append(f"checks: expected a list, got {checks!r}")
        else:
            cfg.checks = []
            for i, c in enumerate(checks):
                if c not in ALL_CHECKS:
                    errors.append(f"checks[{i}]: unknown check {c!r}")
                else:
                    cfg.checks.append(c)

    triangles = []  # (index, region, tau) of every region that could be built
    regions = raw.get("triangle_regions", None)
    if regions is not None:
        if not isinstance(regions, list):
            errors.append(f"triangle_regions: expected a list of [a, b, t0, tau]")
        else:
            cfg.triangle_regions = []
            for i, r in enumerate(regions):
                if not isinstance(r, list) or len(r) != 4 or not all(map(_is_number, r)):
                    errors.append(f"triangle_regions[{i}]: expected [a, b, t0, tau], got {r!r}")
                    continue
                a, b, t0, tau = map(float, r)
                cfg.triangle_regions.append([a, b, t0, tau])
                try:
                    triangles.append((i, TriangleRegion(a, b, t0), tau))
                except ValueError as exc:
                    errors.append(f"triangle_regions[{i}]: {exc}")
    elif "triangle" in cfg.checks and cfg.h > 0 and cfg.x_max > cfg.x_min:
        # default region: middle half of the domain from t0 = 0 up to mid-height
        span = cfg.x_max - cfg.x_min
        a = cfg.x_min + round(span / 4 / cfg.h) * cfg.h
        b = cfg.x_max - round(span / 4 / cfg.h) * cfg.h
        tau = min(cfg.T, round((b - a) / 4 / cfg.h) * cfg.h)
        cfg.triangle_regions = [[a, b, 0.0, tau]]
        triangles = [(0, TriangleRegion(a, b, 0.0), tau)]

    cfg.residual_k = take("residual_k", cfg.residual_k, (int, float), float)
    cfg.output_dir = take("output_dir", cfg.output_dir, str)
    cfg.seed = take("seed", cfg.seed, int)
    if cfg.seed < 0:
        errors.append(f"seed: must be >= 0, got {cfg.seed}")

    # sample the data to validate its support; the triangles need the grid too
    if not errors:
        grid = Grid.from_domain(cfg.x_min, cfg.x_max, cfg.h, cfg.T)
        try:
            make_initial_data(cfg.family, cfg.shape_params, grid)
        except ValueError as exc:
            errors.append(f"family: {exc}")
        for i, region, tau in triangles:
            try:
                triangle_nodes(region, tau, grid, scheme)
            except ValueError as exc:
                errors.append(f"triangle_regions[{i}]: {exc}")

    if errors:
        raise ConfigError(errors)
    return cfg


def _write_table(path: Path, header: list[str], blocks) -> None:
    """CSV of blocks (prefix, 2-D float array), each block one %-format of its rows."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for prefix, table in blocks:
            fmt = prefix + ",".join(["%.17g"] * table.shape[1]) + "\n"
            fh.write(fmt * table.shape[0] % tuple(table.ravel().tolist()))


def _identity_sweep(seed: int, n: int = 10000) -> float:
    """Max normalized charge-flux defect over seeded random states and couplings.

    The production N1/N2 are elementwise, so each sample carries its own
    (alpha, beta) through charge_flux_defect as arrays.
    """
    rng = np.random.default_rng(seed)
    u = (rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n))
    v = (rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n))
    alpha = rng.uniform(-2, 2, n)
    beta = rng.uniform(-2, 2, n)
    d = charge_flux_defect(u, v, ModelParams(alpha, beta))
    return float(np.max(np.abs(d) / (1.0 + np.abs(u) ** 2 * np.abs(v) ** 2)))


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the configured run and checks; write all artifact files.

    Returns 0 iff every requested check passes, 1 on check failure,
    2 on solver abort (a diagnostic summary.json is still written).
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = Grid.from_domain(cfg.x_min, cfg.x_max, cfg.h, cfg.T)
    m = cfg.model_params()
    data = make_initial_data(cfg.family, cfg.shape_params, grid)
    scheme = Scheme(cfg.scheme, cfg.fixed_point_tol, cfg.fixed_point_max_iter)

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
        "checks": [],
    }

    def add_check(name, value, tolerance, passed, extra=None):
        entry = {"name": name, "value": value, "tolerance": tolerance,
                 "pass": bool(passed), "identity": IDENTITIES[name]}
        if extra:
            entry.update(extra)
        summary["checks"].append(entry)

    # algebraic identity preflight, always on (cheap, seeded)
    defect = _identity_sweep(cfg.seed)
    add_check("identity", defect, IDENTITY_TOL, defect <= IDENTITY_TOL)

    sides = ([conservation.TriangleSides(TriangleRegion(a, b, t0), tau, grid, scheme)
              for a, b, t0, tau in cfg.triangle_regions] if "triangle" in cfg.checks else [])
    try:
        traj = solver.run(data, grid, m, scheme, cfg.record_times, sides)
    except SolverError as exc:
        summary["error"] = str(exc)
        summary["status"] = 2
        _dump_json(out / "summary.json", summary)
        return 2

    # snapshots.csv: u and v at the domain's nodes at each recorded time
    x = grid.x()
    blocks = []
    for t in traj.times:
        snap = traj.snapshots[t]
        u, v = at_nodes(snap.u, snap.v, 0, grid.n_cells - 1, grid.step_of(t))
        blocks.append(("", np.column_stack((np.full(len(x), t), x, u.real, u.imag,
                                             v.real, v.imag))))
    _write_table(out / "snapshots.csv", ["t", "x", "re_u", "im_u", "re_v", "im_v"], blocks)

    if "charge" in cfg.checks:
        drift = conservation.total_charge_drift(traj)
        add_check("charge", drift, CHARGE_DRIFT_TOL, drift <= CHARGE_DRIFT_TOL)

    # sides is empty unless the triangle check is on
    tol = TRIANGLE_TOL_COEFF * cfg.h ** 2 * max(1.0, data.c0)
    reps = [conservation.triangle_balance(s) for s in sides]
    _dump_json(out / "balance.json", [{**r.as_dict(), "tolerance": tol,
                                       "pass": abs(r.defect) <= tol} for r in reps])
    if "triangle" in cfg.checks:
        worst = max((abs(r.defect) for r in reps), default=0.0)
        add_check("triangle", worst, tol, worst <= tol, {"regions": len(reps)})

    if "pointwise" in cfg.checks:
        violation = conservation.check_pointwise_bound(traj)
        add_check("pointwise", violation, POINTWISE_TOL, violation <= POINTWISE_TOL)

    p_u = asymptotics.compute_profile(traj, "u")
    p_v = asymptotics.compute_profile(traj, "v")
    if "profile" in cfg.checks:
        finite = bool(np.all(np.isfinite(p_u.values)) and np.all(np.isfinite(p_v.values)))
        add_check("profile", max(p_u.tail_certificate, p_v.tail_certificate),
                  None, finite,
                  {"l2_G1": p_u.l2_norm(cfg.h), "l2_G2": p_v.l2_norm(cfg.h)})
    _write_table(out / "profiles.csv", ["side", "y", "re", "im"],
                 [(f"{side},", np.column_stack((prof.y_grid, prof.values.real,
                                                prof.values.imag)))
                  for side, prof in (("u", p_u), ("v", p_v))])

    reports = [asymptotics.residual(traj, t, p_u, p_v)
               for t in traj.times if t > 0]
    _write_table(out / "residuals.csv",
                 ["t", "l2_u", "sup_u", "l2_v", "sup_v", "bound_u", "bound_v"],
                 [("", np.reshape([(r.t, r.l2_u, r.sup_u, r.l2_v, r.sup_v, r.analytic_bound_u,
                                    r.analytic_bound_v) for r in reports], (-1, 7)))])

    if "residual" in cfg.checks and reports:
        slack = cfg.residual_k * cfg.h ** 2
        bounded = all(r.l2_u ** 2 <= r.analytic_bound_u + slack
                      and r.l2_v ** 2 <= r.analytic_bound_v + slack for r in reports)
        decreasing = all(n.l2_u <= p.l2_u and n.l2_v <= p.l2_v
                         for p, n in zip(reports, reports[1:]))
        worst = max(max(r.l2_u ** 2 - r.analytic_bound_u,
                        r.l2_v ** 2 - r.analytic_bound_v) for r in reports)
        add_check("residual", worst, slack, bounded and decreasing,
                  {"nonincreasing": decreasing})

    if "tails" in cfg.checks:
        ts = sorted({t for t in traj.times})
        bounds_u = [asymptotics.tail_bound(data, m, t, "u") for t in ts]
        bounds_v = [asymptotics.tail_bound(data, m, t, "v") for t in ts]
        rise = 0.0
        for seq in (bounds_u, bounds_v):
            rise = max(rise, max((b - a for a, b in zip(seq, seq[1:])), default=0.0))
        add_check("tails", rise, 0.0, rise <= 0.0,
                  {"times": ts, "bounds_u": bounds_u, "bounds_v": bounds_v})

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
    between consecutive levels, with log2 order estimates.
    """
    m = cfg.model_params()
    levels = []
    for j in range(halvings + 1):
        h = cfg.h / 2 ** j
        grid = Grid.from_domain(cfg.x_min, cfg.x_max, h, cfg.T)
        data = make_initial_data(cfg.family, cfg.shape_params, grid)
        scheme = Scheme(cfg.scheme, cfg.fixed_point_tol, cfg.fixed_point_max_iter)
        traj = solver.run(data, grid, m, scheme, [0.0, cfg.T])
        levels.append({"h": h, "grid": grid, "final": traj.snapshot_at(cfg.T),
                       "drift": conservation.total_charge_drift(traj)})
    rows = []
    for j, lev in enumerate(levels):
        row = {"h": lev["h"], "charge_drift": lev["drift"]}
        if j + 1 < len(levels):
            row["l2_diff_to_next"] = solver.l2_diff(lev["final"], levels[j + 1]["final"])
        rows.append(row)
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
    except ConfigError as exc:
        print("configuration invalid:", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return 1

    if args.verb == "check":
        print("configuration OK")
        return 0
    if args.verb == "run":
        status = run_experiment(cfg)
        print(f"run finished with status {status}; reports in {cfg.output_dir}/")
        return status

    rows = sweep(cfg, args.halvings)
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
