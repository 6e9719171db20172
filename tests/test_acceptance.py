"""Top-level verification gate: every headline guarantee at full scale.

Each test runs one suite from :mod:`borelstein.acceptance` (the same code
the ``report`` command ships), asserts it passes at its stated tolerance,
checks its runtime budget, and prints a one-line verdict.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from borelstein import acceptance, stein
from borelstein.borel import BorelParams
from borelstein.cli import main

SEED = 42

BUDGET_SECONDS = {
    "1": 5,
    "2": 30,
    "3": 60,
    "4": 60,
    "5": 1,
    "6": 120,
    "7": 120,
    "8": 180,
    "9": 60,
    "10": 600,
    "11": 120,
    "12": 10,
}


def _run(cid, fn):
    start = time.time()
    result = fn(seed=SEED, quick=False)
    elapsed = time.time() - start
    print(
        f"CRITERION {cid:>2s}: {result.status.upper()}  "
        f"observed={result.observed:.6g} threshold={result.threshold:.6g} "
        f"({elapsed:.1f}s)  {result.title}"
    )
    assert elapsed <= BUDGET_SECONDS[cid], f"criterion {cid} over budget: {elapsed:.1f}s"
    assert result.passed, (
        f"criterion {cid} failed: observed {result.observed!r} "
        f"exceeds threshold {result.threshold!r}"
    )
    return result


@pytest.mark.parametrize("cid,fn", acceptance.ALL_SUITES, ids=[c for c, _ in acceptance.ALL_SUITES])
def test_criterion(cid, fn):
    _run(cid, fn)


def test_criterion_13_reproducibility(tmp_path):
    """Same seed, same flags: byte-identical CSV bodies and summary."""
    start = time.time()
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for target in (dir_a, dir_b):
        code = main(
            ["report", "--quick", "--seed", "42", "--out", str(target)]
        )
        assert code == 0
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    assert not mismatch and not errors
    elapsed = time.time() - start
    print(f"CRITERION 13: PASS  {len(names)} files byte-identical ({elapsed:.1f}s)")
    assert elapsed <= 300


@pytest.mark.parametrize("draw", ["uniform", "random"])
def test_one_stacked_draw_equals_row_by_row_draws(draw):
    """Suites 6 and 7 draw a cell's test functions as one (n_h, M) array."""
    stacked = acceptance.task_rng(SEED, 6, 0)
    rows = acceptance.task_rng(SEED, 6, 0)
    if draw == "uniform":
        got = stacked.uniform(-1.0, 1.0, size=(20, 120))
        want = [rows.uniform(-1.0, 1.0, size=120) for _ in range(20)]
    else:
        got = stacked.random((100, 60))
        want = [rows.random(60) for _ in range(100)]
    assert np.array_equal(got, np.array(want))
    assert stacked.random() == rows.random()


def test_stacked_suites_match_one_solve_per_test_function():
    """Suites 6 and 7 against loops of single solves and single-k residuals."""
    grid, M = (0.3, 0.9), 60
    six = acceptance.run_stein_residual(SEED, grid=grid, M=M)
    seven = acceptance.run_stein_supnorm(SEED, grid=grid, M=M)
    for cell, lam in enumerate(grid):
        table = stein.build_table(BorelParams(lam), M)
        rng = acceptance.task_rng(SEED, 6, cell)
        worst = 0.0
        for _ in range(20):
            h = rng.uniform(-1.0, 1.0, size=M)
            sol = stein.solve_f(h, table)
            for k in range(2, 31):
                worst = max(worst, stein.stein_residual(sol, h, k).residual)
        assert abs(six.rows[cell][3] - worst) <= 1e-15
        rng = acceptance.task_rng(SEED, 7, cell)
        cap = 1.0 / (1.0 - lam) ** 2
        sharper = 1.0 / ((1.0 - lam) ** 2 * np.arange(1, M))
        excess = -math.inf
        for _ in range(100):
            sol = stein.solve_f(rng.random(M), table)
            fv, slack = np.abs(sol.f[2:]), sol.trunc_error[2:]
            excess = max(
                excess,
                float(np.max(fv - (cap + slack))),
                float(np.max(fv - (sharper + slack))),
            )
        assert seven.rows[cell][2] == excess


@pytest.mark.parametrize("M", [2 * acceptance.ENVELOPE_BLOCK_ROWS + 3, 60])
def test_envelope_blocks_match_the_whole_triangle(M):
    """Suite 4 compares the table in blocks of rows; the excess is the whole triangle's."""
    grid = (0.1, 0.5, 0.9)
    got = acceptance.run_stein_envelope(SEED, grid=grid, M=M)
    for row, lam in zip(got.rows, grid):
        p = BorelParams(lam)
        a = stein.build_table(p, M).a
        k, m = np.add(np.triu_indices(M - 1, 1), 2)
        excess = np.abs(a[k, m]) - stein.coefficient_bound(p, k, m - k)
        assert row[2] == float(excess.max())
