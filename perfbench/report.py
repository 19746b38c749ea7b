"""Run every workload once and print each metric by name, with its unit.

    python3 perfbench/report.py

Each workload runs through run.py at the benchmark's own settings: seed 1
and BENCHMARK.json's ``run_seconds``, tracing off.  run.py checks every
output; the table adds the workload's own figures from the run record
(fail_ratio, op_tail_s, iterates_per_s, cycle_yield).  Exits 1 if any run
was not correct.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED = 1


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    all_correct = True
    print(f"{'workload':14} {'metric':26} {'value':>14} unit")
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload:14} run failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            all_correct = False
            continue
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        all_correct &= result["correct"]
        print(f"{workload:14} {'correct':26} {str(result['correct']):>14} "
              f"({result['failed']} of {result['attempted']} operations failed)")
        for name, metric in {**result["metrics"], **record["figures"]}.items():
            print(f"{workload:14} {name:26} {metric['value']:14.6g} {metric['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
