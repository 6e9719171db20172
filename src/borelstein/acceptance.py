"""Library-wide verification suites, one per headline guarantee.

Each suite returns a :class:`CriterionResult` holding a normalized observed
value, its threshold, and per-cell rows ready for CSV export.  The pytest
acceptance module and the command-line ``report`` command both run exactly
these functions, so the shipped artifacts and the test suite cannot drift
apart.

Seeding: every randomized cell draws its generator from
``SeedSequence(master_seed, spawn_key=(suite_index, cell_index))`` with
fixed indices, so results are bit-reproducible and adding suites or cells
never perturbs existing streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import borel, concentration, mg1, sizebias, stein
from .borel import BorelParams
from .lawkit import make_law, moments, tv_distance

LAMBDA_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
T_GRID = [0.25, 0.5, 1.0, 2.0, 4.0]
QUEUE_LAMBDAS = [0.1, 0.2, 0.3, 0.4]
QUEUE_SERVICES = [
    mg1.exponential(),
    mg1.gamma_service(4.0),
    mg1.uniform_symmetric(0.5),
    mg1.two_point(0.5, 0.5),
]
SMALL_LAMBDAS = [0.05, 0.025, 0.0125]
ENVELOPE_BLOCK_ROWS = 128  # suite 4 compares the table this many rows at a time

# finer truncation for reference laws, so reference error cannot dominate
# the construction under test (see the cross-check notes in sizebias)
REFERENCE_EPS = 1e-13


@dataclass
class CriterionResult:
    criterion_id: str
    title: str
    status: str
    observed: float
    threshold: float
    columns: list[str]
    rows: list[list] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _result(cid, title, observed, threshold, columns, rows) -> CriterionResult:
    status = "pass" if observed <= threshold else "fail"
    return CriterionResult(
        criterion_id=cid,
        title=title,
        status=status,
        observed=float(observed),
        threshold=float(threshold),
        columns=columns,
        rows=rows,
    )


def task_rng(seed: int, suite: int, cell: int) -> np.random.Generator:
    """Stream-split generator with a stable (suite, cell) address."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(suite, cell))
    )


def mean_matched_borel_window(lam: float):
    """Zero-tail Borel window, cut at 1e-10, with the mean pinned to 1/(1-lam)."""
    L = borel.law(BorelParams(lam), 1e-10)
    probs = np.array(L.probs / L.window_sum())
    delta = 1.0 / (1.0 - lam) - float(
        np.dot(np.arange(1.0, probs.size + 1.0), probs)
    )
    probs[0] -= delta
    probs[1] += delta
    return make_law(probs)


def perturb_mean_preserving(base, rng):
    """Mass shift by eps*(+1, -2, +1) on a random triple; mean untouched.

    eps is uniform below 0.3 of the mass the triple can give up.
    """
    probs = np.array(base.probs)
    i = int(rng.integers(0, min(8, probs.size - 2)))
    room = min(probs[i], probs[i + 1] / 2.0, probs[i + 2])
    eps = rng.random() * 0.3 * room
    sign = 1.0 if rng.random() < 0.5 else -1.0
    probs[i] += sign * eps
    probs[i + 1] -= 2.0 * sign * eps
    probs[i + 2] += sign * eps
    return make_law(probs)


def run_borel_validity(seed: int = 42, quick: bool = False) -> CriterionResult:
    """1: window + tail conserve mass; truncated moments hit the closed forms."""
    rows, worst = [], 0.0
    for lam in LAMBDA_GRID:
        p = BorelParams(lam)
        L = borel.law(p, 1e-12)
        defect = abs(L.window_sum() + L.tail_mass - 1.0)
        m = moments(L)
        mean_err = abs(m.mean - p.mean) / p.mean
        var_err = abs((m.second_moment - m.mean**2) - p.variance) / p.variance
        worst = max(worst, defect / 1e-12, mean_err / 1e-6, var_err / 1e-6)
        rows.append([lam, L.end, defect, mean_err, var_err])
    return _result(
        "1",
        "Borel law validity (conservation 1e-12, moments 1e-6 rel)",
        worst,
        1.0,
        ["lambda", "window", "conservation_defect", "mean_rel_err", "var_rel_err"],
        rows,
    )


def run_sizebias_mixture(
    seed: int = 42, quick: bool = False, *, grid=LAMBDA_GRID
) -> CriterionResult:
    """2: size-biased law vs the Bernoulli(lambda) mixture construction."""
    rows, worst = [], 0.0
    for lam in grid:
        p = BorelParams(lam)
        L = borel.law(p, 1e-10)
        star = sizebias.size_bias(L)
        rhs = sizebias.mixture_rhs(L, star, p, 1e-10)
        iv = tv_distance(star, rhs)
        worst = max(worst, iv.upper)
        rows.append([lam, iv.lower, iv.upper])
    return _result(
        "2",
        "mixture identity for the size-biased law (TV upper <= 1e-8)",
        worst,
        1e-8,
        ["lambda", "tv_lower", "tv_upper"],
        rows,
    )


def run_sizebias_geometric(
    seed: int = 42, quick: bool = False, *, grid=LAMBDA_GRID
) -> CriterionResult:
    """3: geometric-sum reconstruction vs a finely resolved size-biased law."""
    rows, worst = [], 0.0
    for lam in grid:
        p = BorelParams(lam)
        geo = sizebias.geometric_sum_law(p, 1e-10)
        ref = sizebias.size_bias(borel.law(p, REFERENCE_EPS))
        iv = tv_distance(ref, geo)
        worst = max(worst, iv.upper)
        rows.append([lam, iv.lower, iv.upper, geo.tail_mass])
    return _result(
        "3",
        "geometric-sum identity for the size-biased law (TV upper <= 1e-8)",
        worst,
        1e-8,
        ["lambda", "tv_lower", "tv_upper", "geo_tail_mass"],
        rows,
    )


def run_stein_envelope(
    seed: int = 42, quick: bool = False, *, grid=LAMBDA_GRID, M: int = 60
) -> CriterionResult:
    """4: every table entry within its coefficient envelope, slack 1e-12."""
    rows, worst = [], -math.inf
    for lam in grid:
        p = BorelParams(lam)
        a = stein.build_table(p, M).a
        # entries 2 <= k < m <= M, indexed once the build has accepted M, a
        # block of rows at a time so that the temporaries stay O(M)
        excess = -math.inf
        for r0 in range(0, M - 2, ENVELOPE_BLOCK_ROWS):
            n = min(ENVELOPE_BLOCK_ROWS, M - 2 - r0)  # rows k = r0 + 2 .. r0 + n + 1
            k, m = np.add(np.triu_indices(n, 1 + r0, M - 1), [[r0 + 2], [2]])
            gap = np.abs(a[k, m]) - stein.coefficient_bound(p, k, m - k)
            excess = max(excess, float(gap.max()))
        worst = max(worst, excess)
        rows.append([lam, M, excess])
    return _result(
        "4",
        "coefficient envelope |a[k,k+j]| <= j lam q(j)/(k-1) (slack 1e-12)",
        worst,
        1e-12,
        ["lambda", "M", "max_envelope_excess"],
        rows,
    )


def run_abel(seed: int = 42, quick: bool = False) -> CriterionResult:
    """5: the combinatorial identity behind the envelope, exact to j = 60."""
    rows, worst = [], 0
    for j in range(1, 61):
        gap = abs(stein.abel_sum(j) - j**j)
        worst = max(worst, gap)
        if j in (1, 2, 3, 30, 60):
            rows.append([j, stein.abel_sum(j), j**j])
    return _result(
        "5",
        "Abel identity sum equals j^j exactly, j <= 60",
        worst,
        0.0,
        ["j", "abel_sum", "j_to_the_j"],
        rows,
    )


def run_stein_residual(
    seed: int = 42, quick: bool = False, *, grid=(0.3, 0.5, 0.7), M: int = 120
) -> CriterionResult:
    """6: equation defect <= 1e-7 for random bounded h, k <= 30 (and k < M)."""
    rows, worst = [], 0.0
    n_h = 20
    for cell, lam in enumerate(grid):
        rng = task_rng(seed, 6, cell)
        table = stein.build_table(BorelParams(lam), M)
        h = rng.uniform(-1.0, 1.0, size=(n_h, M))  # one test function per row
        sol = stein.solve_f(h, table)
        k = np.arange(2, min(31, M))
        cell_worst = float(stein.stein_residual(sol, h, k).residual.max())
        worst = max(worst, cell_worst)
        rows.append([lam, M, n_h, cell_worst])
    return _result(
        "6",
        f"Stein equation residual <= 1e-7 (20 random h, k <= 30, M = {M})",
        worst,
        1e-7,
        ["lambda", "M", "n_test_functions", "max_residual"],
        rows,
    )


def run_stein_supnorm(
    seed: int = 42, quick: bool = False, *, grid=LAMBDA_GRID, M: int = 60
) -> CriterionResult:
    """7: solution sup bounded by (1-lam)^-2 plus tracked truncation error."""
    rows, worst = [], -math.inf
    n_h = 100
    for cell, lam in enumerate(grid):
        rng = task_rng(seed, 7, cell)
        table = stein.build_table(BorelParams(lam), M)
        cap = 1.0 / (1.0 - lam) ** 2
        k = np.arange(2, M + 1)
        sharper = 1.0 / ((1.0 - lam) ** 2 * (k - 1))
        h = rng.random((n_h, M))  # one per row, values in [0, 1], sup norm <= 1
        sol = stein.solve_f(h, table)
        fv = np.abs(sol.f[:, 2:]).max(axis=0)  # the largest |f(k)| over the functions
        slack = sol.trunc_error[2:]
        excess = max(
            float(np.max(fv - (cap + slack))),
            float(np.max(fv - (sharper + slack))),
        )
        worst = max(worst, excess)
        rows.append([lam, n_h, excess])
    return _result(
        "7",
        "solution sup-norm within (1-lam)^-2 plus truncation error (slack 1e-12)",
        worst,
        1e-12,
        ["lambda", "n_test_functions", "max_bound_excess"],
        rows,
    )


def run_tv_bound_domination(seed: int = 42, quick: bool = False) -> CriterionResult:
    """8: exact TV below the computable bound on mean-preserving perturbations."""
    rows, worst = [], -math.inf
    n_perturb = 50
    for cell, lam in enumerate((0.3, 0.5)):
        rng = task_rng(seed, 8, cell)
        p = BorelParams(lam)
        base = mean_matched_borel_window(lam)
        L = borel.law(p, 1e-10)
        excess = -math.inf
        for _ in range(n_perturb):
            w = perturb_mean_preserving(base, rng)
            exact = tv_distance(w, L).lower
            bound = stein.size_bias_tv_bound(w, p, 1e-10)
            excess = max(excess, exact - bound.upper)
        worst = max(worst, excess)
        rows.append([lam, n_perturb, excess])
    return _result(
        "8",
        "TV bound dominates exact TV on 50 perturbed laws per lambda",
        worst,
        0.0,
        ["lambda", "n_perturbations", "max_tv_minus_bound"],
        rows,
    )


def run_md1_exactness(seed: int = 42, quick: bool = False) -> CriterionResult:
    """9: deterministic service reproduces the Borel law to sampling accuracy."""
    n = 100_000 if quick else 1_000_000
    rows, worst = [], 0.0
    for cell, lam in enumerate((0.3, 0.5)):
        p = BorelParams(lam)
        exact = borel.law(p, 1e-10)
        rng_seed = task_rng(seed, 9, cell).integers(0, 2**63 - 1)
        summary = mg1.simulate(
            lam, mg1.deterministic(), n, seed=int(rng_seed), window=exact.end
        )
        tv_low = tv_distance(summary.empirical, exact).lower
        worst = max(worst, tv_low)
        rows.append([lam, n, summary.censored_count, tv_low])
    return _result(
        "9",
        "M/D/1 counts match Borel (empirical TV lower <= 0.01)",
        worst,
        0.01,
        ["lambda", "n", "censored", "tv_lower"],
        rows,
    )


def run_queue_bounds(seed: int = 42, quick: bool = False) -> CriterionResult:
    """10: both bounds dominate the sampled distance; both scale as lambda^2."""
    n = 100_000 if quick else 1_000_000
    rows, worst = [], -math.inf
    cell = 0
    for lam in QUEUE_LAMBDAS:
        p = BorelParams(lam)
        exact = borel.law(p, 1e-10)
        sigma = math.sqrt(exact.end / (4.0 * n))
        for service in QUEUE_SERVICES:
            rng_seed = int(task_rng(seed, 10, cell).integers(0, 2**63 - 1))
            cell += 1
            summary = mg1.simulate(lam, service, n, seed=rng_seed, window=exact.end)
            iv = tv_distance(summary.empirical, exact)
            qbd1 = mg1.bound_qbd1(lam, service)
            qbd2 = mg1.bound_qbd2(lam, service)
            excess = iv.lower - 3.0 * sigma - min(qbd1, qbd2)
            worst = max(worst, excess)
            rows.append(
                [
                    lam,
                    service.label(),
                    n,
                    summary.censored_count,
                    iv.lower,
                    3.0 * sigma,
                    qbd1,
                    qbd2,
                    excess,
                ]
            )
    # quadratic scaling: bound / lambda^2 must settle on the service constant
    for service in QUEUE_SERVICES:
        var_s = mg1.service_variance(service)
        abs_m = mg1.service_abs_moment(service)
        r1 = [mg1.bound_qbd1(lam, service) / lam**2 for lam in SMALL_LAMBDAS]
        r2 = [mg1.bound_qbd2(lam, service) / lam**2 for lam in SMALL_LAMBDAS]
        gaps1 = [abs(r / var_s - 1.0) for r in r1]
        gaps2 = [abs(r / abs_m - 1.0) for r in r2]
        monotone = all(a >= b for a, b in zip(gaps1, gaps1[1:])) and all(
            a >= b for a, b in zip(gaps2, gaps2[1:])
        )
        settled = max(gaps1[-1], gaps2[-1]) <= 0.04
        if not (monotone and settled):
            worst = max(worst, 1.0)
        rows.append(
            [0.0, service.label() + "/lam2-ratio", 0, 0, r1[-1], r2[-1], var_s, abs_m, 0.0]
        )
    return _result(
        "10",
        "queue bounds dominate sampled TV within 3 sigma; O(lambda^2) scaling",
        worst,
        0.0,
        [
            "lambda",
            "service",
            "n",
            "censored",
            "tv_lower",
            "three_sigma",
            "qbd1",
            "qbd2",
            "excess",
        ],
        rows,
    )


def run_concentration(
    seed: int = 42, quick: bool = False, *, grid=LAMBDA_GRID
) -> CriterionResult:
    """11: exact tails under the bounds; breakpoint continuity; moment caps."""
    rows, worst = [], -math.inf
    for lam in grid:
        p = BorelParams(lam)
        limit = concentration.delta_limit(lam)
        params_mid = concentration.make_params(lam, limit / 2.0)
        t_star = params_mid.breakpoint
        gauss = math.exp(
            -lam * t_star**2 / (2.0 * params_mid.K * (1.0 - lam) ** 2)
        )
        linear = math.exp(
            -params_mid.gamma * t_star
            + params_mid.K * params_mid.gamma**2 * (1.0 - lam) ** 2 / (2.0 * lam)
        )
        continuity = abs(gauss - linear)
        worst = max(worst, continuity / 1e-12 - 1.0)
        mgf_ok = all(
            concentration.mgf_moment_check(concentration.make_params(lam, f * limit))
            for f in (0.25, 0.5, 0.75)
        )
        if not mgf_ok:
            worst = max(worst, 1.0)
        for t in T_GRID:
            low = concentration.exact_tail(p, t, "lower")
            low_excess = low.value - concentration.lower_tail_bound(t)
            choice = concentration.optimize_delta(lam, t)
            up = concentration.exact_tail(p, t, "upper")
            up_excess = up.value - (choice.bound + up.error_bar)
            worst = max(worst, low_excess / 1e-12, up_excess / 1e-12)
            rows.append(
                [
                    lam,
                    t,
                    low.value,
                    concentration.lower_tail_bound(t),
                    up.value,
                    up.error_bar,
                    choice.bound,
                    choice.delta,
                    continuity,
                    int(mgf_ok),
                ]
            )
    return _result(
        "11",
        "tail bounds dominate exact tails; breakpoint continuous; moment caps hold",
        worst,
        0.0,
        [
            "lambda",
            "t",
            "exact_lower",
            "lower_bound",
            "exact_upper",
            "exact_upper_err",
            "upper_bound_opt",
            "delta_used",
            "breakpoint_gap",
            "mgf_ok",
        ],
        rows,
    )


def run_aux_facts(
    seed: int = 42, quick: bool = False, *, grid=LAMBDA_GRID
) -> CriterionResult:
    """12: mean-gap formula and the shifted-Poisson vs geometric CDF order."""
    rows, worst = [], 0.0
    for lam in grid:
        p = BorelParams(lam)
        L = borel.law(p, 1e-12)
        gap = moments(sizebias.size_bias(L)).mean - moments(L).mean
        rel = abs(gap - sizebias.x_mean(p)) / sizebias.x_mean(p)
        order_ok = sizebias.check_stochastic_order(p, 500)
        worst = max(worst, rel / 1e-6, 0.0 if order_ok else 2.0)
        rows.append([lam, sizebias.x_mean(p), gap, rel, int(order_ok)])
    return _result(
        "12",
        "mean gap lam/(1-lam)^2 within 1e-6; CDF dominance up to 500",
        worst,
        1.0,
        ["lambda", "x_mean_formula", "moment_gap", "rel_err", "order_ok"],
        rows,
    )


ALL_SUITES = [
    ("1", run_borel_validity),
    ("2", run_sizebias_mixture),
    ("3", run_sizebias_geometric),
    ("4", run_stein_envelope),
    ("5", run_abel),
    ("6", run_stein_residual),
    ("7", run_stein_supnorm),
    ("8", run_tv_bound_domination),
    ("9", run_md1_exactness),
    ("10", run_queue_bounds),
    ("11", run_concentration),
    ("12", run_aux_facts),
]


def run_all(seed: int = 42, quick: bool = False, suites=None):
    """Run ``suites`` (default ``ALL_SUITES``) in order; one result each."""
    suites = ALL_SUITES if suites is None else suites
    return [fn(seed, quick) for _, fn in suites]
