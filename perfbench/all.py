"""Run every workload of the benchmark, one after the other.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace {0,1}]

Runs perfbench/run.py once per workload and prints, per workload, the
operations attempted and failed and every metric by name with its unit.
The last line is one JSON object: workload -> run.py's result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit("%s: run.py exited %d" % (workload, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[workload] = result
        print("%s: correct %s, attempted %d, failed %d" % (
            workload, result["correct"], result["attempted"],
            result["failed"]))
        for name, metric in result["metrics"].items():
            print("  %-34s %14.6g %s" % (name, metric["value"],
                                         metric["unit"]))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
