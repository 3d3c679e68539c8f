"""Print every end-to-end and per-layer metric of every workload.

Usage, from the repository root::

    python3 perfbench/report.py [--seed 1] [--seconds 32]

Runs ``run.py`` untraced and then traced for each workload, one after
the other, and prints one table: workload, metric, value, unit and
sample count, then each run's environment.  Exits non-zero if any run
fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT, ROOT, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    args = parser.parse_args(argv)
    correct = True
    environments = []
    print(f"{'workload':<17} {'metric':<42} {'value':>14} unit   samples")
    for workload in WORKLOADS:
        for trace in (0, 1):
            subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            )
            name = f"{workload}-seed{args.seed}-trace{trace}.json"
            document = json.loads((OUT / name).read_text())
            correct = correct and document["correct"]
            environments.append(document["environment"])
            for failure in document["failures"]:
                print(f"# {workload} failure: {failure}")
            for metric, entry in document["metrics"].items():
                print(
                    f"{workload:<17} {metric:<42} {entry['value']:>14.6g} "
                    f"{entry['unit']:<6} {entry['samples']}"
                )
    for environment in environments:
        print("# environment " + json.dumps(environment))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
