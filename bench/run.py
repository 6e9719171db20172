"""Benchmark for borelstein: one workload, timed from outside the library.

Usage, from the root of a checkout::

    python3 bench/run.py --workload report-full --seed 1 --seconds 15 --trace 0

Workloads are defined in ``workloads.py``.  Each pass runs in a fresh
interpreter (``worker.py``), one after another, so all load comes from one
process at a time and the benchmark starts no threads; the library's own
thread knob ``BOREL_STEIN_THREADS`` is pinned to its default of 1.  Passes
repeat until at least ``--seconds`` of pass time is measured, with at least
seven passes.  Pass i gets its own inputs, made from ``--seed`` and i, so a
run's median spans several draws of the inputs rather than one.

``--trace 0`` prints the end-to-end metrics, each the median over the
passes: ``wall_s`` and ``cpu_s`` of the pass, ``setup_s`` (the imports a user
pays before the first call), ``peak_rss_mb`` of the pass process, and
``fail_frac``.  ``--trace 1`` alternates untraced and traced passes, at least
two of each, and prints the per-layer metrics of ``spans.py``, medians over
the traced passes, plus ``trace.overhead_frac`` = traced ``wall_s`` /
untraced ``wall_s`` - 1.  Every time is rescaled by a machine-speed gauge
timed around the pass (see ``worker.py``), because the shared host's speed
swings by up to 2x within minutes; the raw seconds are in the detail line.

The last line of standard output is the result object; the line before it
holds the details: every sample, the check results, the environment, and
for report-full the CSV digest.  Without ``src/borelstein`` next to this
directory the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COMPUTED, PER_LAYER
from worker import SETUP_IMPORTS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "borelstein"

MIN_PASSES = 7  # also the least number of setup_s samples
MIN_TRACED_PAIRS = 2
DEADLINE_S = 150.0  # stop starting passes after this; the run must end by 180 s

# one-sided 95 % normal quantile, for the Wilson upper bound of fail_frac
Z95 = 1.6448536269514722

# measured in every untraced pass, reported as medians
PASS_METRICS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def wilson_upper(failed: int, total: int) -> float:
    """One-sided 95 % Wilson upper bound on a failure probability.

    Unlike the raw share it is never 0 (it is z^2 / (total + z^2) when
    nothing failed), and one failure out of a dozen checks raises it by more
    than half.
    """
    p = failed / total
    z2 = Z95 * Z95
    centre = p + z2 / (2 * total)
    half = Z95 * math.sqrt(p * (1 - p) / total + z2 / (4 * total * total))
    return (centre + half) / (1 + z2 / total)


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_pass(workload, seed, index, trace, work_dir: Path, env, timeout: float):
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--pass-index", str(index),
        "--trace", str(trace),
        "--work-dir", str(work_dir),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass exited with status {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, work: Path):
    """Run passes until enough time is measured; traced runs go in pairs."""
    env = dict(os.environ, BOREL_STEIN_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    start = time.monotonic()
    plain, traced = [], []
    while True:
        done = plain + traced
        elapsed = time.monotonic() - start
        enough = sum(p["wall_s"] for p in done) >= seconds and (
            len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) >= MIN_PASSES
        )
        per_pass = elapsed / len(done) if done else 0.0
        if enough or (done and elapsed + (2 if trace else 1) * per_pass > DEADLINE_S):
            return plain, traced
        # the two passes of a traced pair share their inputs
        index = len(traced) if trace else len(plain)
        order = (0, 1) if index % 2 == 0 else (1, 0)
        for flag in order if trace else (0,):
            timeout = max(DEADLINE_S + 25.0 - (time.monotonic() - start), 1.0)
            result = run_pass(workload, seed, index, flag, work, env, timeout)
            (traced if flag else plain).append(result)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=SETUP_IMPORTS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no borelstein package at {PACKAGE}", file=sys.stderr)
        return 2
    # byte-compile first, as an installed package would be
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        print("error: borelstein does not compile", file=sys.stderr)
        return 3

    # the library takes non-negative seeds only
    seed = args.seed % 2**63
    work = ROOT / ".bench_work" / str(os.getpid())
    try:
        plain, traced = measure(args.workload, seed, args.seconds, args.trace, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    passes = plain + traced
    check_names = list(passes[0]["checks"])
    attempted = sum(len(p["checks"]) for p in passes)
    failed = sum(not ok for p in passes for ok in p["checks"].values())
    failed_names = sorted({n for p in passes for n, ok in p["checks"].items() if not ok})

    samples = {name: summary([p[name] for p in plain]) for name in PASS_METRICS}
    if args.trace:
        basis = f"median of {len(traced)} traced passes"
        metrics = {
            name: (
                statistics.median(p["layers"][name] for p in traced),
                layer_unit(name),
                "; ".join(filter(None, (basis, COMPUTED.get(name)))),
            )
            for name in PER_LAYER
        }
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_frac"] = (
            traced_wall / samples["wall_s"]["median"] - 1.0,
            "ratio",
            f"median traced over median untraced wall_s, {len(traced)} + {len(plain)} passes",
        )
    else:
        metrics = {
            name: (s["median"], PASS_METRICS[name], f"median of {s['n']} passes")
            for name, s in samples.items()
        }
        metrics["fail_frac"] = (
            wilson_upper(len(failed_names), len(check_names)),
            "ratio",
            f"95% Wilson upper bound: {len(failed_names)} of the {len(check_names)} "
            "checks failed in some pass",
        )

    digests = {
        str(p["info"]["report_seed"]): p["info"]["csv_sha256"] for p in passes if p["info"]
    }
    detail = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "env": passes[0]["env"],
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "samples": samples,
        "values": {name: [p[name] for p in plain] for name in samples},
        "raw_seconds": {
            name: summary([p["raw"][name] for p in plain]) for name in plain[0]["raw"]
        },
        "gauge_s": summary([p["gauge_s"] for p in passes]),
        "checks": {
            "per_pass": len(check_names),
            "attempted": attempted,
            "failed": failed,
            "failed_names": failed_names,
        },
    }
    if digests:
        detail["csv_sha256"] = digests  # by report seed; changes with a random stream
    for name, (value, unit, basis) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({basis})")
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
