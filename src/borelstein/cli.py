"""Command-line front end.

Subcommands::

    pmf           adaptive pmf/cdf table for one lambda
    stein-check   acceptance suites 4-7: envelope, Abel, residual, sup-norm
    sb-check      acceptance suites 2, 3, 12: size-bias identities
    queue-sim     seeded busy-period simulation with bound columns
    queue-bounds  bound columns only (no simulation)
    tails         acceptance suite 11: exact tails vs lower/upper bounds
    report        every acceptance suite; CSVs plus a JSON summary

The check commands and ``report`` run the acceptance suites through one
runner at the suites' own thresholds; ``--lambda``/``--lambda-grid`` narrow
the rate grid and ``--table-size`` sets M of suites 4, 6, 7.  ``--out DIR``
(``report``: default ``report_out``) gets ``crit_XX_<slug>.csv`` per
criterion plus ``summary.json``; ``stein-check --lambda L`` adds
``stein_table.csv``.  ``sb-check`` ignores ``--eps``: suites 2 and 3 keep
the 1e-10 / 1e-13 targets their 1e-8 thresholds were calibrated for.

Every command is deterministic given its flags and ``--seed``; floats are
printed with 17 significant digits so output round-trips exactly.  Exit
codes: 0 all checks pass, 1 an assertion failed, 2 usage error (also an
``--eps`` below machine epsilon, a non-integer ``BOREL_STEIN_THREADS``), 3
numeric failure (window overflow, quadrature, or series divergence).
``BOREL_STEIN_THREADS`` caps suite parallelism of the suite runner.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import acceptance, borel, mg1, stein
from .borel import BorelParams
from .errors import (
    BorelSteinError,
    InsufficientWindow,
    QuadratureFailure,
    SumDivergenceGuard,
    WindowOverflow,
)
from .lawkit import tv_distance

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (WindowOverflow, QuadratureFailure, SumDivergenceGuard, InsufficientWindow)

SUITE_SLUGS = {
    "1": "borel_validity",
    "2": "sizebias_mixture",
    "3": "sizebias_geometric",
    "4": "stein_envelope",
    "5": "abel_identity",
    "6": "stein_residual",
    "7": "stein_supnorm",
    "8": "tv_bound_domination",
    "9": "md1_exactness",
    "10": "queue_bounds",
    "11": "tail_bounds",
    "12": "aux_facts",
}


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return "NA"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_table(columns, rows, out: str | None, fmt: str) -> None:
    if fmt == "json":
        payload = {"columns": columns, "rows": [[_fmt(v) for v in r] for r in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_lambda_grid(args, parser):
    """The rates from ``--lambda`` or ``--lambda-grid``; None when neither is given."""
    if args.lam is not None and args.lambda_grid:
        parser.error("give either --lambda or --lambda-grid, not both")
    if args.lam is not None:
        grid = [args.lam]
    elif args.lambda_grid:
        try:
            grid = [float(tok) for tok in args.lambda_grid.split(",") if tok.strip()]
        except ValueError:
            parser.error(f"cannot parse --lambda-grid {args.lambda_grid!r}")
    else:
        return None
    for lam in grid:
        if not 0.0 < lam < 1.0:
            parser.error(f"lambda must lie strictly in (0, 1), got {lam}")
    return grid


def _parse_service(spec: str, parser) -> mg1.ServiceModel:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "deterministic":
            return mg1.deterministic()
        if kind == "exponential":
            return mg1.exponential()
        if kind == "gamma":
            return mg1.gamma_service(float(rest))
        if kind == "uniform":
            return mg1.uniform_symmetric(float(rest))
        if kind == "twopoint":
            low, prob = rest.split(":")
            return mg1.two_point(float(low), float(prob))
    except (ValueError, BorelSteinError) as exc:
        parser.error(f"bad service spec {spec!r}: {exc}")
    parser.error(
        f"unknown service {spec!r}; use deterministic, exponential, gamma:A, "
        "uniform:A, or twopoint:L:P"
    )


def _services_from(args, parser):
    if args.service == "all":
        return [
            mg1.deterministic(),
            mg1.exponential(),
            mg1.gamma_service(4.0),
            mg1.uniform_symmetric(0.5),
            mg1.two_point(0.5, 0.5),
        ]
    return [_parse_service(tok, parser) for tok in args.service.split(";")]


def _service_fields(s: mg1.ServiceModel):
    if s.kind == "gamma":
        return s.kind, _fmt(s.alpha)
    if s.kind == "uniform":
        return s.kind, _fmt(s.half_width)
    if s.kind == "two_point":
        return s.kind, f"{s.low:g}:{s.low_prob:g}"
    return s.kind, ""


def cmd_pmf(args, parser) -> int:
    grid = _parse_lambda_grid(args, parser)
    if grid is None or len(grid) != 1:
        parser.error("pmf expects a single --lambda")
    p = BorelParams(grid[0])
    L = borel.law(p, args.eps, cap=args.cap)
    cdf = np.cumsum(L.probs)
    rows = [[j, L.probs[j - 1], cdf[j - 1]] for j in range(1, L.end + 1)]
    _write_table(["j", "pmf", "cdf"], rows, args.out, args.format)
    return EXIT_OK


QUEUE_COLUMNS = [
    "lambda",
    "service_kind",
    "service_params",
    "n",
    "censored",
    "tv_lower",
    "tv_upper",
    "qbd1",
    "qbd2_or_NA",
    "var_s",
    "e_abs_s",
]


def _queue_row(lam, service, n, censored, tv_lo, tv_hi):
    kind, params = _service_fields(service)
    qbd2 = mg1.bound_qbd2(lam, service) if lam < 0.5 else None
    return [
        lam,
        kind,
        params,
        n,
        censored,
        tv_lo,
        tv_hi,
        mg1.bound_qbd1(lam, service),
        qbd2,
        mg1.service_variance(service),
        mg1.service_abs_moment(service),
    ]


def cmd_queue_sim(args, parser) -> int:
    grid = _parse_lambda_grid(args, parser) or acceptance.QUEUE_LAMBDAS
    services = _services_from(args, parser)
    rows = []
    cell = 0
    for lam in sorted(grid):
        exact = borel.law(BorelParams(lam), 1e-10, cap=args.cap)
        for service in services:
            run_seed = int(
                acceptance.task_rng(args.seed, 20, cell).integers(0, 2**63 - 1)
            )
            cell += 1
            summary = mg1.simulate(
                lam, service, args.n, seed=run_seed, cap=args.cap, window=exact.end
            )
            iv = tv_distance(summary.empirical, exact)
            rows.append(
                _queue_row(
                    lam, service, args.n, summary.censored_count, iv.lower, iv.upper
                )
            )
    _write_table(QUEUE_COLUMNS, rows, args.out, args.format)
    return EXIT_OK


def cmd_queue_bounds(args, parser) -> int:
    grid = _parse_lambda_grid(args, parser) or acceptance.QUEUE_LAMBDAS
    services = _services_from(args, parser)
    rows = []
    for lam in sorted(grid):
        for service in services:
            rows.append(_queue_row(lam, service, 0, 0, None, None))
            if lam >= 0.5:
                print(
                    f"note: qbd2 is NA at lambda={lam:g} (needs lambda < 1/2)",
                    file=sys.stderr,
                )
    _write_table(QUEUE_COLUMNS, rows, args.out, args.format)
    return EXIT_OK


def _run_suites(args, parser, suite_kwargs, default_out=None) -> int:
    """Run the suites keyed in ``suite_kwargs`` (id -> ``grid``/``M`` keywords).

    Suites come from ``acceptance.ALL_SUITES`` at call time, via
    ``acceptance.run_all``.  Prints a status line per criterion and writes
    the CSVs and ``summary.json`` to ``--out`` (else ``default_out``).
    """
    threads = os.environ.get("BOREL_STEIN_THREADS", "1") or "1"
    try:
        workers = int(threads)
    except ValueError:
        parser.error(f"BOREL_STEIN_THREADS must be an integer, got {threads!r}")
    suites = [
        (cid, functools.partial(fn, **suite_kwargs[cid]))
        for cid, fn in acceptance.ALL_SUITES
        if cid in suite_kwargs
    ]
    results = acceptance.run_all(
        seed=args.seed, quick=args.quick, max_workers=max(workers, 1), suites=suites
    )
    out = args.out or default_out
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for r in results:
            slug = SUITE_SLUGS[r.criterion_id]
            path = out_dir / f"crit_{int(r.criterion_id):02d}_{slug}.csv"
            _write_table(r.columns, r.rows, path, "csv")
        summary = {
            "seed": args.seed,
            "quick": bool(args.quick),
            "criteria": [
                {
                    "criterion_id": r.criterion_id,
                    "status": r.status,
                    "observed": r.observed,
                    "threshold": r.threshold,
                }
                for r in results
            ],
        }
        (out_dir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    for r in results:
        print(
            f"[{r.status.upper():4s}] criterion {r.criterion_id:>2s}: {r.title} "
            f"(observed {_fmt(r.observed)}, threshold {_fmt(r.threshold)})"
        )
    if out:
        print(f"report written to {out}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_ASSERTION


def _narrowed(args, parser, suite_ids, **extra) -> dict:
    """Per-suite keyword arguments: the ``--lambda`` grid, if given, plus ``extra``."""
    grid = _parse_lambda_grid(args, parser)
    kwargs = extra if grid is None else {"grid": grid, **extra}
    return {cid: kwargs for cid in suite_ids}


def cmd_stein_check(args, parser) -> int:
    M = args.table_size
    if M < 3:
        parser.error("--table-size must be at least 3")
    suites = {"5": {}, **_narrowed(args, parser, ("4", "6", "7"), M=M)}
    code = _run_suites(args, parser, suites)
    if args.out and args.lam is not None:
        p = BorelParams(args.lam)
        a = stein.build_table(p, M).a
        k, m = np.triu_indices(M - 1)  # rows 2 <= k <= m <= M, k-major
        k, m = k + 2, m + 2
        bound = stein.coefficient_bound(p, k, m - k)
        rows = list(zip(k.tolist(), m.tolist(), a[k, m].tolist(), bound.tolist()))
        table = Path(args.out) / "stein_table.csv"
        _write_table(["k", "m", "a_km", "lemma1_bound"], rows, table, "csv")
    return code


def cmd_sb_check(args, parser) -> int:
    return _run_suites(args, parser, _narrowed(args, parser, ("2", "3", "12")))


def cmd_tails(args, parser) -> int:
    return _run_suites(args, parser, _narrowed(args, parser, ("11",)))


def cmd_report(args, parser) -> int:
    every = {cid: {} for cid, _ in acceptance.ALL_SUITES}
    return _run_suites(args, parser, every, default_out="report_out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borelstein",
        description="Borel-distribution toolkit: laws, identities, bounds, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, n_default=100_000):
        sp.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="single offspring/arrival rate in (0,1)")
        sp.add_argument("--lambda-grid", default=None,
                        help="comma-separated rates, e.g. 0.1,0.3,0.5")
        sp.add_argument("--eps", type=float, default=1e-10,
                        help="truncation target for adaptive windows")
        sp.add_argument("--n", type=int, default=n_default, help="sample count")
        sp.add_argument("--seed", type=int, default=42, help="64-bit master seed")
        sp.add_argument("--cap", type=int, default=borel.DEFAULT_WINDOW_CAP,
                        help="censoring cap / window cap")
        sp.add_argument("--table-size", type=int, default=60,
                        help="coefficient-table window M")
        sp.add_argument("--out", default=None,
                        help="output file (pmf, queue-*) or directory (checks, report)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--quick", action="store_true",
                        help="reduced sample sizes for fast runs")
        return sp

    common(sub.add_parser("pmf", help="pmf/cdf table"))
    common(sub.add_parser("stein-check", help="coefficient and equation suites"))
    common(sub.add_parser("sb-check", help="size-bias identity cross-checks"))
    qs = common(sub.add_parser("queue-sim", help="busy-period simulation"))
    qb = common(sub.add_parser("queue-bounds", help="bound columns only"))
    for sp in (qs, qb):
        sp.add_argument(
            "--service",
            default="all",
            help="deterministic | exponential | gamma:A | uniform:A | twopoint:L:P "
            "(semicolon-separated list, or 'all')",
        )
    common(sub.add_parser("tails", help="exact tails vs bounds"))
    common(sub.add_parser("report", help="run every suite, write CSVs + summary"))
    return parser


_DISPATCH = {
    "pmf": cmd_pmf,
    "stein-check": cmd_stein_check,
    "sb-check": cmd_sb_check,
    "queue-sim": cmd_queue_sim,
    "queue-bounds": cmd_queue_bounds,
    "tails": cmd_tails,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.eps is not None and not borel.MIN_EPS <= args.eps < 1.0:
        parser.error(f"--eps must lie in [{borel.MIN_EPS:g}, 1), got {args.eps}")
    if args.n is not None and args.n < 1:
        parser.error("--n must be >= 1")
    try:
        return _DISPATCH[args.command](args, parser)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BorelSteinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
