#!/usr/bin/env python3
"""Run every workload once and print one row per workload.

    python3 perfbench/summary.py --seed 0 --seconds 25

Each workload runs in its own interpreter through run.py, one after
another. A row lists every end-to-end metric with its unit, then the
attempted and failed request counts and whether every output checked.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    args = p.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        cells = [f"{name} {m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()]
        cells += [f"attempted {result['attempted']}", f"failed {result['failed']}",
                  f"correct {str(result['correct']).lower()}"]
        print(f"{workload:15} " + " | ".join(cells))
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
