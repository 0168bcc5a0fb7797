"""Record the reference outputs that the benchmark's correctness gate checks.

    python3 perfbench/record_reference.py

Run from the repository root.  Runs every workload once for each input
variant (seeds 0 .. N_VARIANTS - 1) and writes perfbench/reference.json,
keyed by workload and config hash.  The committed file was recorded from the
seed code; record again only for a change that alters outputs on purpose.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from check import record
from run import HERE, WORK, check_checkout, run_child
from workloads import N_VARIANTS, WORKLOADS, make_config


def main() -> int:
    root = Path.cwd()
    check_checkout(root)
    (root / WORK).mkdir(parents=True, exist_ok=True)
    refs = {}
    for workload in WORKLOADS:
        refs[workload] = {}
        for seed in range(N_VARIANTS):
            config = f"{WORK}/{workload}-seed{seed}.json"
            (root / config).write_text(json.dumps(make_config(workload, seed, root), indent=1) + "\n")
            out = Path(tempfile.mkdtemp(prefix="ref-", dir=root / WORK))
            try:
                res = run_child(root, config, out=str(out.relative_to(root)))
                if res.get("status") != 0:
                    raise SystemExit(f"{workload} seed {seed}: run exited with {res.get('status')}")
                rec = record(out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            refs[workload][rec["summary"]["config_hash"]] = rec
            print(f"{workload} seed {seed}: recorded in {res['run_s']:.2f} s", flush=True)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
