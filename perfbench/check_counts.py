"""Count determinism self-check: every per-layer count must repeat for a seed.

Runs the traced benchmark twice per workload with the same seed, each in
its own process, and compares every count (every per-layer metric that is
not a time).  Exits 1 when any count differs.

    python3 perfbench/check_counts.py --seed 3
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] != "s"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    args = parser.parse_args()
    mismatches = 0
    for workload in args.workload or WORKLOAD_NAMES:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        for name in sorted(first.keys() | second.keys()):
            same = first.get(name) == second.get(name)
            mismatches += not same
            print(f"{workload:12s} {name:32s} {first.get(name)!s:>12} {second.get(name)!s:>12} {'ok' if same else 'DIFFERS'}")
    print(f"{mismatches} counts differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
