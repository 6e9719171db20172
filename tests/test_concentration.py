"""Tail-bound tests: constants, branches, exact-tail domination, moment checks."""

import math

import mpmath as mp
import numpy as np
import pytest

from borelstein.borel import BorelParams, _log_pmf_array
from borelstein.concentration import (
    UpperTailParams,
    _tree,
    biased_exp_moment,
    delta_limit,
    exact_tail,
    exp_moment_gap_check,
    lower_tail_bound,
    make_params,
    mgf_moment_check,
    optimize_delta,
    upper_tail_bound,
)
from borelstein.errors import DeltaOutOfRange

GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
T_GRID = [0.25, 0.5, 1.0, 2.0, 4.0]


def oracle_K(lam, delta):
    with mp.workdps(40):
        lam, delta = mp.mpf(lam), mp.mpf(delta)
        first = (1 - lam) * mp.e**-delta / (
            lam * mp.sqrt(2 * mp.pi) * (1 - mp.e**-delta) ** 2
        )
        return float(lam / 2 * (first + 1 / (1 - lam) ** 2))


class TestParams:
    def test_gamma_value(self):
        params = make_params(0.5, 0.1)
        assert params.gamma == pytest.approx(0.5 + math.log(2.0) - 1.1, abs=1e-15)
        assert params.gamma == pytest.approx(0.09315, abs=5e-6)

    def test_K_value(self):
        params = make_params(0.5, 0.1)
        assert params.K == pytest.approx(oracle_K(0.5, 0.1), rel=1e-13)
        assert params.K == pytest.approx(10.96, abs=0.01)

    def test_delta_out_of_range(self):
        # feasible slack at lambda = 0.5 tops out near 0.19315
        with pytest.raises(DeltaOutOfRange):
            make_params(0.5, 0.2)
        with pytest.raises(DeltaOutOfRange):
            make_params(0.5, -0.01)

    @pytest.mark.parametrize("lam", GRID)
    def test_feasible_range_nonempty(self, lam):
        assert delta_limit(lam) > 0.0
        make_params(lam, delta_limit(lam) / 2.0)  # must not raise


class TestUpperTail:
    @pytest.mark.parametrize("lam", GRID)
    def test_breakpoint_continuity(self, lam):
        params = make_params(lam, delta_limit(lam) / 2.0)
        t_star = params.breakpoint
        gauss = math.exp(
            -params.lam * t_star**2 / (2.0 * params.K * (1.0 - params.lam) ** 2)
        )
        linear = math.exp(
            -params.gamma * t_star
            + params.K * params.gamma**2 * (1.0 - params.lam) ** 2 / (2.0 * params.lam)
        )
        assert abs(gauss - linear) <= 1e-12

    def test_dominates_exact_tail_at_example_point(self):
        params = make_params(0.5, 0.1)
        est = exact_tail(BorelParams(0.5), 1.0, "upper")
        assert est.value <= upper_tail_bound(params, 1.0) + est.error_bar

    def test_decays_at_linear_rate_for_large_t(self):
        params = make_params(0.5, 0.1)
        big, bigger = upper_tail_bound(params, 50.0), upper_tail_bound(params, 51.0)
        assert bigger / big == pytest.approx(math.exp(-params.gamma), rel=1e-9)
        assert upper_tail_bound(params, 1e4) < 1e-300 or upper_tail_bound(
            params, 1e4
        ) < big

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            upper_tail_bound(make_params(0.5, 0.1), 0.0)


class TestLowerTail:
    def test_formula_value(self):
        assert lower_tail_bound(0.5) == pytest.approx(math.exp(-0.125), abs=1e-15)
        assert lower_tail_bound(0.5) == pytest.approx(0.88250, abs=5e-6)

    def test_dominates_exact_lower_tail(self):
        est = exact_tail(BorelParams(0.5), 0.5, "lower")
        assert est.value == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert est.value <= lower_tail_bound(0.5)

    def test_vanishes_at_infinity(self):
        assert lower_tail_bound(40.0) < 1e-300


class TestExactTail:
    def test_lower_tail_below_support(self):
        # threshold under 1 leaves nothing: support starts at 1
        est = exact_tail(BorelParams(0.5), 0.51, "lower")
        assert est.value == 0.0

    def test_lower_tail_catches_first_atom(self):
        est = exact_tail(BorelParams(0.5), 0.5, "lower")
        assert est.value == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_upper_tail_monotone_in_t(self):
        p = BorelParams(0.4)
        values = [exact_tail(p, t, "upper").value for t in T_GRID]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_error_bar_semantics(self):
        p = BorelParams(0.3)
        est = exact_tail(p, 1.0, "upper")
        assert 0.0 <= est.error_bar < 1e-12
        with pytest.raises(ValueError):
            exact_tail(p, 1.0, "both")


class TestOptimizeDelta:
    def test_beats_midpoint_baseline(self):
        for lam in (0.3, 0.5, 0.8):
            for t in (0.5, 2.0):
                mid = delta_limit(lam) / 2.0
                baseline = upper_tail_bound(make_params(lam, mid), t)
                assert optimize_delta(lam, t).bound <= baseline + 1e-15

    def test_optimized_bound_still_dominates(self):
        est = exact_tail(BorelParams(0.5), 2.0, "upper")
        choice = optimize_delta(0.5, 2.0)
        assert est.value <= choice.bound + est.error_bar

    def test_bound_decreasing_in_t(self):
        values = [optimize_delta(0.3, t).bound for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_deterministic(self):
        a = optimize_delta(0.45, 1.5)
        b = optimize_delta(0.45, 1.5)
        assert a == b


def reference_make_params(lam, delta):
    """The constants as make_params built them before its float helpers."""
    BorelParams(lam)
    gamma = delta_limit(lam) - delta
    if delta <= 0.0 or gamma <= 0.0:
        raise DeltaOutOfRange(f"delta {delta} out of range")
    first = (1.0 - lam) * math.exp(-delta) / (
        lam * math.sqrt(2.0 * math.pi) * (1.0 - math.exp(-delta)) ** 2
    )
    K = 0.5 * lam * (first + 1.0 / (1.0 - lam) ** 2)
    return UpperTailParams(lam=lam, delta=delta, gamma=gamma, K=K)


def reference_upper_tail_bound(params, t):
    lam, gamma, K = params.lam, params.gamma, params.K
    if t < params.breakpoint:
        return math.exp(-lam * t * t / (2.0 * K * (1.0 - lam) ** 2))
    return math.exp(-gamma * t + K * gamma * gamma * (1.0 - lam) ** 2 / (2.0 * lam))


def reference_optimize_delta(lam, t):
    """The slack search with one validated parameter bundle per probe."""
    limit = delta_limit(lam)
    lo, hi = 1e-6, limit - 1e-6
    if lo >= hi:
        mid = limit / 2.0
        return mid, reference_upper_tail_bound(reference_make_params(lam, mid), t)

    def objective(delta):
        return reference_upper_tail_bound(reference_make_params(lam, delta), t)

    grid = np.linspace(lo, hi, 64)
    values = [objective(d) for d in grid]
    best = int(np.argmin(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    delta = (a + b) / 2.0
    return delta, objective(delta)


class TestFloatObjective:
    """The float objective against one validated parameter bundle per probe."""

    @pytest.mark.parametrize("lam", GRID + [1e-3, 0.998, 0.999])
    def test_optimize_delta_bit_for_bit(self, lam):
        for t in T_GRID:
            choice = optimize_delta(lam, t)
            assert (choice.delta, choice.bound) == reference_optimize_delta(lam, t)

    @pytest.mark.parametrize("lam", [1e-3, 0.5, 0.999])
    def test_make_params_and_bound_bit_for_bit(self, lam):
        for frac in (0.1, 0.5, 0.9):
            delta = frac * delta_limit(lam)
            got, want = make_params(lam, delta), reference_make_params(lam, delta)
            assert got == want
            for t in T_GRID + [got.breakpoint]:
                assert upper_tail_bound(got, t) == reference_upper_tail_bound(want, t)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, -0.2])
    def test_optimize_delta_rejects_lambda_outside_0_1(self, lam):
        with pytest.raises(ValueError):
            optimize_delta(lam, 1.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteT:
    """Every tail function rejects a t that is not a finite positive number."""

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_upper_tail_bound(self, t):
        with pytest.raises(ValueError):
            upper_tail_bound(make_params(0.5, 0.1), t)

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_lower_tail_bound(self, t):
        with pytest.raises(ValueError):
            lower_tail_bound(t)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("t", NON_FINITE)
    def test_exact_tail(self, t, side):
        with pytest.raises(ValueError):
            exact_tail(BorelParams(0.5), t, side)

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_optimize_delta(self, t):
        with pytest.raises(ValueError):
            optimize_delta(0.5, t)

    def test_huge_finite_t_gives_empty_tails(self):
        p = BorelParams(0.5)
        assert exact_tail(p, 1e308, "lower") == (0.0, 0.0)
        up = exact_tail(p, 1e308, "upper")
        assert up.value == 0.0 and up.error_bar >= 0.0


class TestMomentChecks:
    def test_reference_points(self):
        assert mgf_moment_check(make_params(0.5, 0.1))
        assert mgf_moment_check(make_params(0.2, 0.3))

    def test_near_feasibility_edge(self):
        lam = 0.5
        delta = delta_limit(lam) - 1e-4  # gamma just above zero
        assert mgf_moment_check(make_params(lam, delta))

    @pytest.mark.parametrize("lam", GRID)
    def test_across_grid(self, lam):
        for frac in (0.25, 0.5, 0.75):
            assert mgf_moment_check(make_params(lam, frac * delta_limit(lam)))

    def test_biased_moment_against_mpmath(self):
        params = make_params(0.5, 0.1)
        got = biased_exp_moment(params)
        with mp.workdps(40):
            lam, gamma = mp.mpf(0.5), mp.mpf(params.gamma)
            oracle = (1 - lam) * mp.nsum(
                lambda j: mp.e ** ((gamma - lam) * j)
                * lam ** (j - 1)
                * j ** (j + 1)
                / mp.factorial(j),
                [1, mp.inf],
            )
        assert got == pytest.approx(float(oracle), rel=1e-10)

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_exp_moment_gap(self, lam):
        params = make_params(lam, delta_limit(lam) / 2.0)
        assert exp_moment_gap_check(params)

    @pytest.mark.parametrize("frac", [0.01, 0.5])
    @pytest.mark.parametrize("lam", [0.99, 0.999])
    def test_near_critical(self, lam, frac):
        params = make_params(lam, frac * delta_limit(lam))
        assert mgf_moment_check(params)
        assert exp_moment_gap_check(params)

    @pytest.mark.parametrize("lam,frac", [(0.5, 1e-6), (1e-9, 0.999)])
    def test_small_and_large_slack(self, lam, frac):
        params = make_params(lam, frac * delta_limit(lam))
        assert mgf_moment_check(params)
        assert exp_moment_gap_check(params)
        with mp.workdps(50):
            T = tree_oracle(params.delta)
            oracle = (1 - mp.mpf(lam)) * T / (lam * (1 - T) ** 3)
        assert biased_exp_moment(params) == pytest.approx(float(oracle), rel=1e-14)


def tree_oracle(delta):
    """T in (0, 1] with T - log T = 1 + delta, from the principal Lambert W."""
    return -mp.lambertw(-mp.exp(-1 - mp.mpf(delta))).real


def series(lam, theta, power, slack):
    """sum_j j^power e^(theta j) q(j), summed until e^(-slack j) is below 1e-22."""
    j = np.arange(1.0, math.ceil(50.0 / slack) + 1.0)
    terms = np.exp(theta * j + power * np.log(j) + _log_pmf_array(lam, j))
    return math.fsum(terms.tolist())


class TestClosedForms:
    @pytest.mark.parametrize(
        "delta", [1e-16, 1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 690.0]
    )
    def test_tree_against_lambert_w(self, delta):
        T, one_minus_T = _tree(delta)
        with mp.workdps(50):
            oracle = tree_oracle(delta)
            assert T == pytest.approx(float(oracle), rel=1e-15)
            assert one_minus_T == pytest.approx(float(1 - oracle), rel=5e-16)

    @pytest.mark.parametrize("frac", [0.25, 0.75])
    @pytest.mark.parametrize("lam", [0.1, 0.4, 0.7])
    def test_against_series(self, lam, frac):
        limit = delta_limit(lam)
        params = make_params(lam, frac * limit)
        moment = (1 - lam) * series(lam, params.gamma, 2, params.delta)
        assert biased_exp_moment(params) == pytest.approx(moment, rel=4e-15)
        theta = params.gamma / 2.0
        T, one_minus_T = _tree(limit - theta)
        plain = series(lam, theta, 0, limit - theta)
        biased = (1 - lam) * series(lam, theta, 1, limit - theta)
        assert T / lam == pytest.approx(plain, rel=4e-15)
        assert (1 - lam) * T / (lam * one_minus_T) == pytest.approx(biased, rel=4e-15)


class TestDomination:
    @pytest.mark.parametrize("lam", GRID)
    def test_both_sides_across_grid(self, lam):
        p = BorelParams(lam)
        for t in T_GRID:
            low = exact_tail(p, t, "lower")
            assert low.value <= lower_tail_bound(t)
            up = exact_tail(p, t, "upper")
            assert up.value <= optimize_delta(lam, t).bound + up.error_bar
