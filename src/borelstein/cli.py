"""Command-line front end.

Subcommands, and the flags each takes; any other flag is a usage error::

    pmf           adaptive pmf/cdf table for one lambda
                  --lambda --lambda-grid --eps --cap --out --format
    stein-check   acceptance suites 4-7: envelope, Abel, residual, sup-norm
                  --lambda --lambda-grid --table-size --seed --quick --out
    sb-check      acceptance suites 2, 3, 12: size-bias identities
                  --lambda --lambda-grid --seed --quick --out
    queue-sim     seeded busy-period simulation with bound columns
                  --lambda --lambda-grid --service --n --seed --cap --out --format
    queue-bounds  bound columns only (no simulation)
                  --lambda --lambda-grid --service --out --format
    tails         acceptance suite 11: exact tails vs lower/upper bounds
                  --lambda --lambda-grid --seed --quick --out
    report        every acceptance suite; CSVs plus a JSON summary
                  --seed --quick --out

The check commands and ``report`` run the acceptance suites through one
runner at the suites' own thresholds; ``--lambda``/``--lambda-grid`` narrow
the rate grid and ``--table-size`` sets M of suites 4, 6, 7.  ``--out DIR``
(``report``: default ``report_out``) gets ``crit_XX_<slug>.csv`` per
criterion plus ``summary.json``; ``stein-check --lambda L`` adds
``stein_table.csv``.  ``--service`` takes a kind of ``mg1.SERVICE_KINDS``
followed by that kind's values, e.g. ``two_point:LOW:LOW_PROB`` (``--help``
lists them all); an output row's ``service_kind:service_params`` parses back
to the same service.

Every command is deterministic given its flags and ``--seed``; floats are
printed with 17 significant digits so output round-trips exactly.  Exit
codes: 0 all checks pass, 1 an assertion failed, 2 usage error (also an
``--eps`` below machine epsilon or a negative ``--seed``), 3 numeric failure
(window overflow, a ``--table-size`` above ``stein.MAX_TABLE_WINDOW``, or
series divergence).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import acceptance, borel, mg1, stein
from .borel import BorelParams
from .errors import (
    BorelSteinError,
    InsufficientWindow,
    SumDivergenceGuard,
    WindowOverflow,
)
from .lawkit import tv_distance

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (WindowOverflow, SumDivergenceGuard, InsufficientWindow)

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


# the spellings --service takes, e.g. "two_point:LOW:LOW_PROB"
_SERVICE_SPECS = " | ".join(
    ":".join([kind, *(f.upper() for f in fields)])
    for kind, (_, fields) in mg1.SERVICE_KINDS.items()
)


def _parse_service(spec: str, parser) -> mg1.ServiceModel:
    kind, _, rest = spec.partition(":")
    if kind not in mg1.SERVICE_KINDS:
        parser.error(f"unknown service {spec!r}; use {_SERVICE_SPECS}")
    factory, fields = mg1.SERVICE_KINDS[kind]
    values = rest.split(":") if rest else []
    try:
        if len(values) != len(fields):
            raise ValueError(f"{kind} takes {len(fields)} value(s), got {len(values)}")
        return factory(*map(float, values))
    except (ValueError, BorelSteinError) as exc:
        parser.error(f"bad service spec {spec!r}: {exc}")


def _services_from(args, parser):
    if args.service == "all":
        return [mg1.deterministic(), *acceptance.QUEUE_SERVICES]
    return [_parse_service(tok, parser) for tok in args.service.split(";")]


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
    _, fields = mg1.SERVICE_KINDS[service.kind]
    qbd2 = mg1.bound_qbd2(lam, service) if lam < 0.5 else None
    return [
        lam,
        service.kind,
        ":".join(_fmt(getattr(service, f)) for f in fields),
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
        exact = borel.law(BorelParams(lam), 1e-10)
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


def _run_suites(args, suite_kwargs, default_out=None) -> int:
    """Run the suites keyed in ``suite_kwargs`` (id -> ``grid``/``M`` keywords).

    Suites come from ``acceptance.ALL_SUITES`` at call time, via
    ``acceptance.run_all``.  Prints a status line per criterion and writes
    the CSVs and ``summary.json`` to ``--out`` (else ``default_out``).
    """
    suites = [
        (cid, functools.partial(fn, **suite_kwargs[cid]))
        for cid, fn in acceptance.ALL_SUITES
        if cid in suite_kwargs
    ]
    results = acceptance.run_all(seed=args.seed, quick=args.quick, suites=suites)
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
    code = _run_suites(args, suites)
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
    return _run_suites(args, _narrowed(args, parser, ("2", "3", "12")))


def cmd_tails(args, parser) -> int:
    return _run_suites(args, _narrowed(args, parser, ("11",)))


def cmd_report(args, parser) -> int:
    every = {cid: {} for cid, _ in acceptance.ALL_SUITES}
    return _run_suites(args, every, default_out="report_out")


# one definition per flag; each command takes only the flags its handler reads
_FLAGS = {
    "lambda": dict(dest="lam", type=float, default=None,
                   help="single offspring/arrival rate in (0,1)"),
    "lambda-grid": dict(default=None, help="comma-separated rates, e.g. 0.1,0.3,0.5"),
    "eps": dict(type=float, default=1e-10, help="truncation target for adaptive windows"),
    "n": dict(type=int, default=100_000, help="sample count"),
    "seed": dict(type=int, default=42, help="64-bit master seed"),
    "cap": dict(type=int, default=borel.DEFAULT_WINDOW_CAP,
                help="window cap (pmf); censoring cap on busy-period size (queue-sim)"),
    "table-size": dict(type=int, default=60, help="coefficient-table window M"),
    "out": dict(default=None,
                help="output file (pmf, queue-*) or directory (checks, report)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "quick": dict(action="store_true", help="reduced sample sizes for fast runs"),
    "service": dict(default="all",
                    help=f"{_SERVICE_SPECS} (semicolon-separated list, or 'all')"),
}

# command -> (handler, help, the flags it takes)
_COMMANDS = {
    "pmf": (cmd_pmf, "pmf/cdf table", "lambda lambda-grid eps cap out format"),
    "stein-check": (cmd_stein_check, "coefficient and equation suites",
                    "lambda lambda-grid table-size seed quick out"),
    "sb-check": (cmd_sb_check, "size-bias identity cross-checks",
                 "lambda lambda-grid seed quick out"),
    "queue-sim": (cmd_queue_sim, "busy-period simulation",
                  "lambda lambda-grid service n seed cap out format"),
    "queue-bounds": (cmd_queue_bounds, "bound columns only",
                     "lambda lambda-grid service out format"),
    "tails": (cmd_tails, "exact tails vs bounds", "lambda lambda-grid seed quick out"),
    "report": (cmd_report, "run every suite, write CSVs + summary", "seed quick out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borelstein",
        description="Borel-distribution toolkit: laws, identities, bounds, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(command_parser=sp)
        for flag in flags.split():
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    # usage errors print the subcommand's own usage line, not the top-level one
    parser = args.command_parser
    if unread:
        parser.error(f"unrecognized arguments: {' '.join(unread)}")
    if "eps" in args and not borel.MIN_EPS <= args.eps < 1.0:
        parser.error(f"--eps must lie in [{borel.MIN_EPS:g}, 1), got {args.eps}")
    if "n" in args and args.n < 1:
        parser.error("--n must be >= 1")
    if "cap" in args and args.cap < 1:
        parser.error("--cap must be >= 1")
    if "seed" in args and args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        return _COMMANDS[args.command][0](args, parser)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BorelSteinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
