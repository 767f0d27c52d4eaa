"""Self-test of the benchmark at tiny corpus sizes (about half a minute).

    python3 perfbench/selftest.py

Shows that every workload runs, traced and untraced (which includes the
``--batch`` pass), with no failed input, and that corrupting one output
makes that workload's check fail, so the checks are not vacuous.  Exits 1
if either does not hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from corpus import WORKLOADS  # noqa: E402


def main() -> int:
    bad = 0
    for w in WORKLOADS:
        for trace in (False, True):
            res = run.run_one(w, seed=7, seconds=1, trace=trace, tiny=True)
            ok = res["correct"] and res["attempted"] > 0
            names = [n for n, _ in (run.per_layer_names() if trace
                                    else run.END_TO_END)]
            ok = ok and list(res["metrics"]) == names
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {w} trace={int(trace)} "
                  f"attempted={res['attempted']} failed={res['failed']}")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "pass",
             "--workload", w, "--seed", "7", "--tiny", "--check", "--corrupt"],
            capture_output=True, text=True, check=True)
        failures = json.loads(proc.stdout.splitlines()[-1])["failures"]
        caught = [f for f in failures if f[0] == 0]
        bad += not caught
        print(f"{'ok  ' if caught else 'FAIL'} {w} corrupted output "
              f"{'caught: ' + caught[0][1] if caught else 'NOT caught'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
