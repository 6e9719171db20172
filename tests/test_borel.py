"""Borel distribution tests: pmf accuracy, adaptive law, moments, sampler."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from borelstein import borel
from borelstein.borel import (
    BorelParams,
    law,
    log_pmf,
    pmf,
    poisson_draw_vec,
    sample_many,
)
from borelstein.errors import InvalidIndex, WindowOverflow
from borelstein.lawkit import empirical_law, moments, tv_distance

mp.mp.dps = 50

GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def oracle_log_pmf(lam, j):
    lam, j = mp.mpf(lam), mp.mpf(j)
    return -lam * j + (j - 1) * mp.log(lam * j) - mp.loggamma(j + 1)


class TestLogPmf:
    def test_mass_at_one_is_exp_minus_lambda(self):
        assert log_pmf(BorelParams(0.5), 1) == pytest.approx(-0.5, abs=1e-15)

    def test_mass_at_two(self):
        # e^-1 / 2, from the mass function evaluated directly
        assert pmf(BorelParams(0.5), 2) == pytest.approx(
            float(mp.e**-1 / 2), rel=1e-13
        )
        assert pmf(BorelParams(0.5), 2) == pytest.approx(0.18394, abs=5e-6)

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9, 0.99])
    def test_relative_error_within_1e12_where_representable(self, lam):
        # holds wherever exp() of the log mass does not underflow; above that
        # the double-precision ulp of the log magnitude itself exceeds 1e-12
        p = BorelParams(lam)
        for j in [1, 2, 3, 10, 31, 32, 33, 50, 100, 1000, 10**4, 10**5, 10**6]:
            got = log_pmf(p, j)
            if got < -700.0:
                continue
            assert abs(got - float(oracle_log_pmf(lam, j))) <= 1e-12

    def test_hybrid_paths_agree_at_switchover(self):
        for lam in (0.2, 0.7):
            vals = borel._log_pmf_array(lam, np.arange(25.0, 45.0))
            direct = [
                -lam * j + (j - 1) * math.log(lam * j) - math.lgamma(j + 1)
                for j in range(25, 45)
            ]
            np.testing.assert_allclose(vals, direct, atol=2e-13)

    def test_invalid_index(self):
        with pytest.raises(InvalidIndex):
            log_pmf(BorelParams(0.5), 0)

    def test_partial_sums_approach_one(self):
        for lam in (0.2, 0.5, 0.8):
            q = borel.pmf_values(BorelParams(lam), 5000)
            assert q.sum() == pytest.approx(1.0, abs=1e-6)


class TestLaw:
    def test_tail_below_eps_by_construction(self):
        L = law(BorelParams(0.5), 1e-10)
        assert 0.0 <= L.tail_mass < 1e-10

    def test_moments_close_to_closed_forms(self):
        L = law(BorelParams(0.5), 1e-12)
        m = moments(L)
        assert m.mean == pytest.approx(2.0, abs=1e-8)
        var = m.second_moment - m.mean**2
        assert var == pytest.approx(4.0, abs=1e-6)

    def test_high_lambda_normalization(self):
        L = law(BorelParams(0.9), 1e-6)
        assert abs(L.window_sum() + L.tail_mass - 1.0) <= 1e-12

    @pytest.mark.parametrize("lam", GRID)
    def test_window_entries_match_log_pmf_exactly(self, lam):
        L = law(BorelParams(lam), 1e-10)
        expected = borel.pmf_values(BorelParams(lam), L.end)
        np.testing.assert_array_equal(L.probs, expected)

    def test_rejects_eps_below_double_precision(self):
        with pytest.raises(ValueError):
            law(BorelParams(0.5), 1e-300)
        with pytest.raises(ValueError):
            law(BorelParams(0.5), 0.0)

    def test_window_cap_overflow(self):
        with pytest.raises(WindowOverflow):
            law(BorelParams(0.99), 1e-10, cap=1000)

    def test_mean_variance_limits_near_zero(self):
        p = BorelParams(1e-9)
        assert p.mean == pytest.approx(1.0, rel=1e-8)
        assert p.variance == pytest.approx(0.0, abs=1e-8)


class TestPoissonInversion:
    @pytest.mark.parametrize("mu", [0.05, 0.5, 3.0])
    def test_matches_scipy_pmf(self, mu):
        rng = np.random.default_rng(42)
        n = 200_000
        draws = poisson_draw_vec(rng, np.full(n, mu))
        for k in range(0, int(mu) + 4):
            p = stats.poisson.pmf(k, mu)
            se = math.sqrt(p * (1 - p) / n)
            assert abs((draws == k).mean() - p) <= 4 * se + 1e-9


class TestSampler:
    def test_nearly_all_singletons_at_tiny_lambda(self):
        rng = np.random.default_rng(0)
        totals, censored = sample_many(BorelParams(0.01), 1_000_000, rng)
        assert not censored.any()
        frac = (totals == 1).mean()
        p1 = math.exp(-0.01)
        assert abs(frac - p1) <= 3 * math.sqrt(p1 * (1 - p1) / 1_000_000)

    def test_empirical_mean_within_three_sigma(self):
        rng = np.random.default_rng(1)
        totals, censored = sample_many(BorelParams(0.5), 1_000_000, rng)
        assert not censored.any()
        sigma = 2.0 / 1000.0  # sd(Z) = 2 at lambda = 0.5, n = 1e6
        assert abs(totals.mean() - 2.0) <= 3 * sigma

    def test_cap_one_censors_any_branching(self):
        rng = np.random.default_rng(3)
        totals, censored = sample_many(BorelParams(0.6), 50, rng, cap=1)
        assert censored.any()
        assert np.all(censored | (totals == 1))

    @pytest.mark.parametrize("lam,window", [(0.5, 200), (0.7, None)])
    def test_sampler_law_close_to_exact(self, lam, window):
        rng = np.random.default_rng(7)
        p = BorelParams(lam)
        totals, censored = sample_many(p, 1_000_000, rng)
        exact = law(p, 1e-10)
        emp = empirical_law(
            totals[~censored], M=window or exact.end, n_total=totals.size
        )
        assert tv_distance(emp, exact).lower <= 0.01

    def test_deterministic_given_seed(self):
        a, _ = sample_many(BorelParams(0.4), 1000, np.random.default_rng(9))
        b, _ = sample_many(BorelParams(0.4), 1000, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            BorelParams(1.0)
        with pytest.raises(ValueError):
            BorelParams(0.0)
