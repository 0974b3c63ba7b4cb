"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE CROSS_CHECK

Prints one JSON line: monotonic clock readings at the end of set-up and of
the solve, the process's CPU time and peak RSS at the end of the solve, the
time spent sampling the host's speed and the speed factor (hostspeed.py),
the operations attempted and failed, the failed checks and, when TRACE is 1,
the per-layer metrics.  Checks run after the solve, outside the timed region.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    name, seed, trace, cross_check = argv[0], int(argv[1]), argv[2] == "1", \
        argv[3] == "1"
    from hostspeed import HostSpeed
    speed = HostSpeed()
    speed.start()
    import workloads   # imports ffrace: part of set-up
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer(speed.clock).install()
    setup, solve = workloads.WORKLOADS[name]
    ops = workloads.Ops()
    state = setup(ops, seed)
    setup_end = time.monotonic()
    pause_setup_s = speed.pause_s
    outputs = solve(ops, state)
    solve_end = time.monotonic()
    cpu_s = time.process_time()
    speed.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        tracer.stop()
        layers = tracer.metrics()
    failures = workloads.check(name, state, outputs, cross_check)
    print(json.dumps({"setup_end": setup_end, "solve_end": solve_end,
                      "cpu_s": cpu_s, "rss_kb": rss_kb,
                      "pause_setup_s": pause_setup_s,
                      "pause_s": speed.pause_s,
                      "pause_cpu_s": speed.pause_cpu_s,
                      "samples": speed.samples,
                      "host_factor": speed.factor(),
                      "attempted": ops.attempted, "failed": ops.failed,
                      "errors": ops.errors, "failures": failures,
                      "layers": layers}))


if __name__ == "__main__":
    main(sys.argv[1:])
