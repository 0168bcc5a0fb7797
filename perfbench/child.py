"""One measured `dirac1d run`, in a fresh process.

    python3 perfbench/child.py CONFIG --out DIR [--trace 0|1] [--setup-only]

Run from the repository root with PYTHONPATH pointing at its `src` and at
`perfbench`.  Times `import dirac1d` plus `parse_config` (set-up) and
`run_experiment` (the run), writes the run's outputs into DIR and prints one
JSON line with the timings, the run's exit status, and the process's peak
resident memory and page faults.  With --trace 1 the run is traced (see
tracing.py) and the line also carries per-layer figures and the spans.
"""

import argparse
import contextlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

from tracing import Tally, Tracer, wrapper_costs


def _layers(tracer, steps: int, summary: dict, output_bytes: int) -> dict:
    run_span = tracer.find("cli.run_experiment")[0]
    nl = tracer.tallies.get("nonlinearity", Tally())
    tallied_cost, span_cost = wrapper_costs()
    history = sum(s.facts.get("history_bytes", 0) for s in tracer.find("solver.run"))
    return {
        "fields.sample_s": tracer.self_seconds("fields"),
        "nonlinearity.calls": nl.calls,
        "nonlinearity.node_evals": nl.elements,
        "nonlinearity.self_s": nl.seconds,
        "nonlinearity.ns_per_node": 1e9 * nl.seconds / nl.elements if nl.elements else 0.0,
        "solver.self_s": tracer.self_seconds("solver"),
        "solver.steps": steps,
        "solver.evals_per_step": nl.calls / 2 / steps,
        "solver.fp_sweeps_max": summary.get("max_fixed_point_iterations", 0),
        "conservation.self_s": tracer.self_seconds("conservation"),
        "conservation.history_mb": history / 1e6,
        "asymptotics.self_s": tracer.self_seconds("asymptotics"),
        "asymptotics.calls": sum(1 for s in tracer.spans if s.layer == "asymptotics"),
        "cli.self_s": run_span.self_s,
        "cli.output_bytes": output_bytes,
        "cli.parse_s": tracer.find("cli.parse_config")[0].duration,
        "trace.run_s": run_span.duration,
        "trace.overhead_s": nl.calls * tallied_cost + len(tracer.spans) * span_cost,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    dirac1d = importlib.import_module("dirac1d")
    cli = importlib.import_module("dirac1d.cli")
    src = Path.cwd().resolve() / "src"
    if src not in Path(dirac1d.__file__).resolve().parents:
        print(f"dirac1d imported from {dirac1d.__file__}, not from {src}", file=sys.stderr)
        return 3

    with Tracer() if args.trace else contextlib.nullcontext() as tracer:
        try:
            cfg = cli.parse_config(args.config.read_text())
        except cli.ConfigError as exc:
            print(json.dumps({"config_error": exc.violations}))
            return 0
        result = {"setup_s": time.perf_counter() - t0}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        cfg.output_dir = str(args.out)
        t = time.perf_counter()
        status = cli.run_experiment(cfg)
        result["run_s"] = time.perf_counter() - t

    summary_path = args.out / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
    output_bytes = sum(p.stat().st_size for p in args.out.iterdir())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(status=status, peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
                  minor_faults=usage.ru_minflt, output_bytes=output_bytes)
    if tracer is not None:
        steps = round(cfg.T / cfg.h) // (2 if cfg.scheme == "oracle4" else 1)
        result["layers"] = _layers(tracer, steps, summary, output_bytes)
        result["spans"] = [s.as_dict() for s in tracer.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
