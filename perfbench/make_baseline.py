"""Record BASELINE.json: every workload at the default seed, untraced and
traced, with the machine it ran on.

    python3 perfbench/make_baseline.py

The traced run's throughput against the untraced one is the tracing
overhead; module shares are each module's part of all traced self time.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import corpus  # noqa: E402
from perfbench.run import MODULES, WORKLOADS  # noqa: E402

SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(corpus.DEFAULT_SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} (trace {trace}) failed its checks:\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    out = {
        "seed": corpus.DEFAULT_SEED,
        "run_seconds": SECONDS,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system(), "machine": platform.machine()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        plain = _run(workload, 0)
        layers = _run(workload, 1)
        self_s = {k[:-len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
        traced = sum(self_s.values())
        shares = {m: sum(v for k, v in self_s.items() if k.split(".")[0] == m) / traced
                  for m in MODULES}
        out["workloads"][workload] = {
            "end_to_end": plain,
            "per_layer": layers,
            "layer_self_share": {k: v / traced for k, v in sorted(self_s.items(), key=lambda kv: -kv[1]) if v},
            "module_self_share": shares,
            "trace_overhead": plain["jobs_per_s"] / layers["traced.jobs_per_s"],
        }
        print(workload, json.dumps(out["workloads"][workload]["end_to_end"]), flush=True)
    (HERE / "BASELINE.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
