"""ffrace benchmark: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload {paper,explicit-deep,wide-group}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source tree (src/ffrace and tests/published_values.py
must be there).  A run is a series of passes; each pass is one whole
workload in a fresh, single-threaded interpreter, so its caches are cold as
a command-line user's are.  Passes repeat until the next one would end past
--seconds (at least MIN_PASSES), and every metric is the median over the
passes.  The last line of output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The run's per-pass record is written to
.perfbench-out/WORKLOAD-seedN-traceT.json.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "explicit-deep", "wide-group")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "solve_s": "s",
              "peak_rss_mb": "MB"}
# The median of at least three passes rides out one slow pass.
MIN_PASSES = 3
# A run must end within 180 s; no pass may start after this.
DEADLINE_S = 150
PASS_TIMEOUT_S = 120
# Every run's passes (and, traced, their per-layer metrics) are kept here.
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def run_pass(workload, seed, trace, cross_check, timeout):
    """One pass in a child interpreter; returns its measurements."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), "1" if trace else "0", "1" if cross_check else "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("pass of %s exited %d" % (workload, proc.returncode))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # times without the host-speed samples, in reference seconds
    factor = out["host_factor"]
    out["setup_s"] = (out["setup_end"] - start - out["pause_setup_s"]) * factor
    out["solve_s"] = (out["solve_end"] - out["setup_end"] - out["pause_s"]
                      + out["pause_setup_s"]) * factor
    out["wall_s"] = out["setup_s"] + out["solve_s"]
    out["cpu_s"] = (out["cpu_s"] - out["pause_cpu_s"]) * factor
    out["peak_rss_mb"] = out["rss_kb"] / 1024.0
    if out["layers"]:
        out["layers"] = {name: (value * factor if unit == "s" else value, unit)
                         for name, (value, unit) in out["layers"].items()}
    out["elapsed_s"] = time.monotonic() - start
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for need in (("src", "ffrace", "__init__.py"),
                 ("tests", "published_values.py")):
        if not os.path.isfile(os.path.join(ROOT, *need)):
            sys.exit("error: %s not found; run from an ffrace source tree"
                     % os.path.join(*need))
    # passes and their host-speed samples share one CPU: the host's speed
    # differs between CPUs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # bytecode is compiled once, as an installed command's would be
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    begin = time.monotonic()
    passes = []
    while True:
        elapsed = time.monotonic() - begin
        if len(passes) >= MIN_PASSES:
            typical = statistics.median(p["elapsed_s"] for p in passes)
            if elapsed + typical > min(args.seconds, DEADLINE_S):
                break
        passes.append(run_pass(args.workload, args.seed, args.trace == 1,
                               cross_check=not passes,
                               timeout=PASS_TIMEOUT_S))

    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:20]:
        sys.stderr.write("check failed: %s\n" % f)
    for e in sorted({e for p in passes for e in p["errors"]})[:20]:
        sys.stderr.write("operation failed: %s\n" % e)
    for i, p in enumerate(passes):
        if args.trace:
            p["metrics"] = dict(p["layers"], **{"trace.wall_s": (p["wall_s"],
                                                                  "s")})
        else:
            p["metrics"] = {name: (p[name], unit)
                            for name, unit in END_TO_END.items()}
        shown = sorted(p["metrics"].items()) if not args.trace else \
            [("trace.wall_s", p["metrics"]["trace.wall_s"])]
        print("pass %d: host factor %.4f (%d samples) %s" % (
            i, p["host_factor"], p["samples"],
            " ".join("%s %.4g" % (n, v) for n, (v, _u) in shown)))
    metrics = {name: {"value": statistics.median(p["metrics"][name][0]
                                                 for p in passes),
                      "unit": unit}
               for name, (_v, unit) in sorted(passes[0]["metrics"].items())}
    result = {"correct": not failures,
              "attempted": sum(p["attempted"] for p in passes),
              "failed": sum(p["failed"] for p in passes),
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"result": result, "passes": passes}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
