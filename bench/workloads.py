"""The benchmark's three workloads: inputs, one pass, and output checks.

Each workload builds its inputs from the benchmark seed and the pass index,
so the library receives only generated inputs, then runs one pass of public ``borelstein``
calls and checks what they returned.  The check names are fixed per
workload; a check that raises, or every check of a pass that raised, counts
as failed.

Why these three:

* ``report-full`` is ``borelstein report --seed <s>`` at full scale
  through ``cli.main``, CSV writing included: the shipped artifact and the
  acceptance gate.  Suites 9 and 10 (the branching sampler over about 20
  rounds of 10**6 paths) take most of it, with a thin slice of every other
  module.
* ``queue-heavy`` drives the same sampler in the other regime: ``simulate``
  at lambda 0.8 and 0.9 runs hundreds to thousands of rounds with few live
  paths.  A sampler change that helps only one regime gains on one of these
  two workloads and loses on the other.
* ``exact-algebra`` samples nothing.  The Stein table dominates it, next to
  the geometric-sum construction and its convolutions, so it is where a
  Stein solve or convolution change shows and a sampler change must not.

Known defects that lie outside these inputs, so that none is hidden:

* Poisson inversion starts at exp(-mu), which underflows for mu >= 745;
  ``two_point(0.01, 0.999)`` reaches it at lambda 0.9.  queue-heavy uses
  deterministic, exponential and gamma(0.5) service, whose means stay far
  below that.
* ``service_abs_moment(gamma_service(1e-9))`` integrates to 1e-9 where the
  value is 1e9.  report-full only asks for gamma(4), where the quadrature
  is right.
* ``borel.law(0.98, 1e-13)`` raises ``WindowOverflow``; exact-algebra stops
  at ``borel.law(0.95, 1e-13)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import traceback
from pathlib import Path

import numpy as np

from borelstein import acceptance, borel, lawkit, mg1, sizebias, stein
from borelstein.borel import BorelParams


def _seeds(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, index])


def _safe(check) -> bool:
    """Evaluate one check; an exception is reported and counts as failed."""
    try:
        return bool(check())
    except Exception:
        traceback.print_exc()
        return False


class Workload:
    checks: tuple[str, ...] = ()

    def info(self, inp) -> dict:
        """Informational fields of a pass; never a failure."""
        return {}


# ---------------------------------------------------------------- report-full

N_CRITERIA = 12


class ReportFull(Workload):
    checks = ("exit_code",) + tuple(
        f"criterion_{cid:02d}" for cid in range(1, N_CRITERIA + 1)
    )

    def inputs(self, seed: int, index: int, work_dir: Path):
        out = work_dir / "report"
        shutil.rmtree(out, ignore_errors=True)
        report_seed = int(_seeds(seed, index).generate_state(1)[0])
        argv = ["report", "--seed", str(report_seed), "--out", str(out)]
        return {"argv": argv, "out": out, "seed": report_seed}

    def run(self, inp):
        from borelstein import cli

        return cli.main(inp["argv"])

    def check(self, inp, code) -> dict[str, bool]:
        status = {}

        def load():
            summary = json.loads((inp["out"] / "summary.json").read_text())
            status.update({c["criterion_id"]: c["status"] for c in summary["criteria"]})
            return True

        result = {"exit_code": code == 0}
        loaded = _safe(load)
        for cid in range(1, N_CRITERIA + 1):
            result[f"criterion_{cid:02d}"] = loaded and status.get(str(cid)) == "pass"
        return result

    def info(self, inp) -> dict:
        """SHA-256 over the CSVs, by file name: shows a changed random stream."""
        digest = hashlib.sha256()
        for path in sorted(inp["out"].glob("*.csv")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return {"report_seed": inp["seed"], "csv_sha256": digest.hexdigest()}


# ---------------------------------------------------------------- queue-heavy

QUEUE_LAMBDAS = (0.8, 0.9)
QUEUE_N = 100_000


def _queue_services():
    return [mg1.deterministic(), mg1.exponential(), mg1.gamma_service(0.5)]


def _queue_cells():
    return [(lam, s) for lam in QUEUE_LAMBDAS for s in _queue_services()]


class QueueHeavy(Workload):
    checks = tuple(
        f"{what}[{lam:g},{s.label()}]"
        for lam, s in _queue_cells()
        for what in ("censored", "mean")
    ) + tuple(f"tv[{lam:g},deterministic]" for lam in QUEUE_LAMBDAS)

    def inputs(self, seed: int, index: int, work_dir: Path):
        cells = _queue_cells()
        seeds = _seeds(seed, index).generate_state(len(cells), np.uint64)
        return [(lam, s, int(cell_seed)) for (lam, s), cell_seed in zip(cells, seeds)]

    def run(self, cells):
        out, windows = [], {}
        for lam, s, cell_seed in cells:
            if lam not in windows:
                windows[lam] = borel.law(BorelParams(lam), 1e-10)
            exact = windows[lam]
            out.append((exact, mg1.simulate(lam, s, QUEUE_N, seed=cell_seed, window=exact.end)))
        return out

    def check(self, cells, out) -> dict[str, bool]:
        result = {}
        for (lam, s, _), (exact, summary) in zip(cells, out):
            cell = f"{lam:g},{s.label()}"
            result[f"censored[{cell}]"] = summary.censored_count == 0

            def mean_ok():
                # Var N = (lam + lam^2 Var S) / (1 - lam)^3 for the count N of
                # a busy period with unit-mean service S
                var_n = (lam + lam**2 * mg1.service_variance(s)) / (1.0 - lam) ** 3
                se = math.sqrt(var_n / QUEUE_N)
                return abs(summary.mean_uncensored - 1.0 / (1.0 - lam)) <= 4.0 * se

            result[f"mean[{cell}]"] = _safe(mean_ok)
            if s.kind == "deterministic":
                sigma = math.sqrt(exact.end / (4.0 * QUEUE_N))
                result[f"tv[{cell}]"] = _safe(
                    lambda: lawkit.tv_distance(summary.empirical, exact).lower <= 3.0 * sigma
                )
        return result


# -------------------------------------------------------------- exact-algebra

STEIN_LAMBDA = 0.5
STEIN_WINDOWS = (60, 400, 1000)
N_TEST_FUNCTIONS = 5
RESIDUAL_K_MAX = 30
HP_WINDOW = 20


class ExactAlgebra(Workload):
    checks = (
        ("table_vs_hp",)
        + tuple(
            f"residual[M={M},h={i}]"
            for M in STEIN_WINDOWS
            for i in range(N_TEST_FUNCTIONS)
        )
        + ("geometric_sum_tv", "tv_bound_dominates")
    )

    def inputs(self, seed: int, index: int, work_dir: Path):
        rng = np.random.default_rng(_seeds(seed, index))
        hs = {M: [rng.uniform(-1.0, 1.0, size=M) for _ in range(N_TEST_FUNCTIONS)]
              for M in STEIN_WINDOWS}
        base = acceptance.mean_matched_borel_window(STEIN_LAMBDA)
        return {"h": hs, "w": acceptance.perturb_mean_preserving(base, rng)}

    def run(self, inp):
        p = BorelParams(STEIN_LAMBDA)
        residuals = {}
        for M in STEIN_WINDOWS:
            table = stein.build_table(p, M)
            for i, h in enumerate(inp["h"][M]):
                sol = stein.solve_f(h, table)
                residuals[M, i] = max(
                    stein.stein_residual(sol, h, k).residual
                    for k in range(2, RESIDUAL_K_MAX + 1)
                )
        p9 = BorelParams(0.9)
        geo = sizebias.geometric_sum_law(p9, 1e-10)
        geo_tv = lawkit.tv_distance(sizebias.size_bias(borel.law(p9, 1e-13)), geo)
        bound = stein.size_bias_tv_bound(inp["w"], p, 1e-10)
        borel.law(BorelParams(0.95), 1e-13)
        return {"residuals": residuals, "geo_tv": geo_tv, "bound": bound}

    def check(self, inp, out) -> dict[str, bool]:
        p = BorelParams(STEIN_LAMBDA)

        def table_vs_hp():
            a = stein.build_table(p, HP_WINDOW).a
            hp = stein.build_table_hp(p, HP_WINDOW)
            worst = max(
                abs(a[k, m] - float(hp[k][m])) / abs(float(hp[k][m]))
                for m in range(2, HP_WINDOW + 1)
                for k in range(2, m + 1)
            )
            return worst <= 1e-12

        result = {"table_vs_hp": _safe(table_vs_hp)}
        for (M, i), r in out["residuals"].items():
            result[f"residual[M={M},h={i}]"] = r <= 1e-7
        result["geometric_sum_tv"] = out["geo_tv"].upper <= 1e-8
        result["tv_bound_dominates"] = _safe(
            lambda: out["bound"].upper
            >= lawkit.tv_distance(inp["w"], borel.law(p, 1e-13)).lower
        )
        return result


WORKLOADS = {
    "report-full": ReportFull(),
    "queue-heavy": QueueHeavy(),
    "exact-algebra": ExactAlgebra(),
}
