"""One pass of one workload in a fresh interpreter.

``run.py`` starts this script once per pass, the way a user starts a script
or the ``borelstein`` command, so every pass pays the same cold start and no
cache survives from one pass to the next.  It times the imports (setup), then
the pass itself (wall and process CPU time), checks the outputs, and prints
one JSON object as the last line of its standard output.  With ``--trace 1``
the pass runs under the span tracer and the object also holds the per-layer
metrics.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# Times are rescaled by a machine-speed gauge timed in the same process right
# before and after the pass: value = measured * GAUGE_REF_S / gauge.  On a
# shared two-vCPU host the speed of the whole machine swings by up to 2x
# within minutes, which no number of passes averages out.  A pure-Python
# probe follows those swings best of the probes tried (log correlation with
# pass time 0.75 on exact-algebra, 0.87 on queue-heavy; a probe of strided
# numpy loads did worse), and rescaling by it cut the pass-to-pass spread
# by a third to a half there.  GAUGE_REF_S is roughly its median on that
# host, so rescaled times read as seconds there; raw seconds are reported too.
GAUGE_REF_S = 0.003
GAUGE_REPEATS = 20

# what a user of each workload imports before the first call
SETUP_IMPORTS = {
    "report-full": ("borelstein", "borelstein.cli"),
    "queue-heavy": ("borelstein",),
    "exact-algebra": ("borelstein",),
}


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration", blas.get("name"))
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "BOREL_STEIN_THREADS": os.environ.get("BOREL_STEIN_THREADS"),
    }


def gauge() -> list[float]:
    """Times of a fixed pure-Python probe of the machine's current speed."""
    times = []
    for _ in range(GAUGE_REPEATS):
        start = time.perf_counter()
        s = 0
        for i in range(40_000):
            s += i * i
        times.append(time.perf_counter() - start)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(SETUP_IMPORTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    for name in SETUP_IMPORTS[args.workload]:
        importlib.import_module(name)
    setup_s = time.perf_counter() - start

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    args.work_dir.mkdir(parents=True, exist_ok=True)
    inputs = workload.inputs(args.seed, args.pass_index, args.work_dir)

    speed = gauge()
    tracer = spans.Tracer() if args.trace else None
    restore = spans.install(tracer) if tracer else None
    raised = False
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        outputs = workload.run(inputs)
    except Exception:
        traceback.print_exc()
        outputs, raised = None, True
    finally:
        cpu_s = time.process_time() - cpu0
        wall_s = time.perf_counter() - wall0
        if restore:
            restore()
    speed += gauge()
    scale = GAUGE_REF_S / statistics.median(speed)

    # a check never reported, or one whose pass or check code raised, fails
    checks = dict.fromkeys(workload.checks, False)
    info = {}
    if not raised:
        try:
            results = workload.check(inputs, outputs)
            checks.update((n, bool(ok)) for n, ok in results.items() if n in checks)
            info = workload.info(inputs)
        except Exception:
            traceback.print_exc()

    result = {
        "setup_s": setup_s * scale,
        "wall_s": wall_s * scale,
        "cpu_s": cpu_s * scale,
        "raw": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s},
        "gauge_s": statistics.median(speed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "info": info,
        "env": environment(),
    }
    if tracer:
        result["layers"] = {
            name: value * scale if name.endswith(".s") else value
            for name, value in spans.layer_metrics(tracer).items()
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
