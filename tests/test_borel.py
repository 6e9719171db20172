"""Borel distribution tests: pmf accuracy, adaptive law, moments, sampler."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from borelstein import borel, mg1
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


def _reference_poisson_draw_vec(rng, mu):
    """The uncompacted inversion loop, kept to pin the library's random stream."""
    mu = np.asarray(mu, dtype=float)
    u = rng.random(mu.shape)
    prob = np.exp(-mu)
    cum = prob.copy()
    k = np.zeros(mu.shape, dtype=np.int64)
    active = u > cum
    limit = int(mu.max(initial=0.0) + 40.0 * math.sqrt(mu.max(initial=0.0) + 1.0) + 60.0)
    rounds = 0
    while active.any() and rounds < limit:
        rounds += 1
        k[active] += 1
        prob[active] *= mu[active] / rounds
        cum[active] += prob[active]
        active &= u > cum
    return k


def _reference_branching_totals(rng, first_mu, next_mu, cap):
    """The uncompacted frontier walk, scanning every path each round."""
    n = first_mu.size
    total = np.ones(n, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    pending = _reference_poisson_draw_vec(rng, first_mu)
    active = pending > 0
    while active.any():
        idx = np.flatnonzero(active)
        over = total[idx] + 1 > cap
        if over.any():
            hit = idx[over]
            censored[hit] = True
            active[hit] = False
            idx = idx[~over]
            if idx.size == 0:
                break
        draws = _reference_poisson_draw_vec(rng, next_mu(idx.size))
        pending[idx] += draws - 1
        total[idx] += 1
        active[idx] = pending[idx] > 0
    return total, censored


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

    @pytest.mark.parametrize("mu", [745.0, 800.0, 900.0, 1e4])
    def test_large_means_have_poisson_mean_and_variance(self, mu):
        # exp(-mu) underflows from mu near 745; every draw must still be exact
        n = 200_000
        draws = poisson_draw_vec(np.random.default_rng(11), np.full(n, mu))
        assert abs(draws.mean() - mu) <= 4 * math.sqrt(mu / n)
        # Var of the sample variance of a Poisson(mu) is about (2 mu^2 + mu) / n
        assert abs(draws.var() - mu) <= 4 * math.sqrt((2 * mu**2 + mu) / n)

    def test_large_mean_frequencies_near_mode(self):
        mu, n = 800.0, 200_000
        draws = poisson_draw_vec(np.random.default_rng(12), np.full(n, mu))
        for k in range(780, 821, 5):
            p = stats.poisson.pmf(k, mu)
            se = math.sqrt(p * (1 - p) / n)
            assert abs((draws == k).mean() - p) <= 4 * se

    def test_mixed_small_and_large_means(self):
        mu = np.array([0.0, 2.0, 5000.0, 0.5, 1e6])
        draws = poisson_draw_vec(np.random.default_rng(13), np.tile(mu, 4000))
        got = draws.reshape(-1, mu.size).mean(axis=0)
        assert np.all(np.abs(got - mu) <= 4 * np.sqrt(mu / 4000))


class TestSameStream:
    """The compacted loops reproduce the full-scan loops draw for draw."""

    @pytest.mark.parametrize(
        "mu",
        [
            np.zeros(0),
            np.array([0.0, 0.3, 0.0, 4.0, 60.0, 699.0]),
            np.linspace(0.0, 30.0, 5000),
            np.random.default_rng(5).gamma(0.5, 40.0, size=(40, 60)),
            np.full(3000, 250.0),
        ],
    )
    def test_poisson_draws_match_reference(self, mu):
        got = poisson_draw_vec(np.random.default_rng(21), mu)
        want = _reference_poisson_draw_vec(np.random.default_rng(21), mu)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mu", [0.0, 0.7, 12.5])
    def test_zero_dim_mean_draws_as_length_one(self, mu):
        got = poisson_draw_vec(np.random.default_rng(22), np.array(mu))
        want = _reference_poisson_draw_vec(np.random.default_rng(22), np.array([mu]))
        assert got.shape == ()
        assert got == want[0]

    @pytest.mark.parametrize("cap", [1, 2, 50])
    def test_censored_totals_match_reference(self, cap):
        lam = 0.8
        args = (np.full(5000, lam), lambda k: np.full(k, lam), cap)
        got = borel.branching_totals(np.random.default_rng(23), *args)
        want = _reference_branching_totals(np.random.default_rng(23), *args)
        assert want[1].any()
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("lam", [0.3, 0.9])
    def test_sample_many_matches_reference(self, lam, monkeypatch):
        got = sample_many(BorelParams(lam), 20_000, np.random.default_rng(24))
        monkeypatch.setattr(borel, "branching_totals", _reference_branching_totals)
        want = sample_many(BorelParams(lam), 20_000, np.random.default_rng(24))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize(
        "service",
        [
            mg1.deterministic(),
            mg1.exponential(),
            mg1.gamma_service(0.5),
            mg1.uniform_symmetric(0.5),
            mg1.two_point(0.2, 0.5),
        ],
        ids=lambda s: s.kind,
    )
    def test_simulate_matches_reference(self, service, monkeypatch):
        got = mg1.simulate(0.9, service, 20_000, seed=25, cap=2000)
        monkeypatch.setattr(mg1, "branching_totals", _reference_branching_totals)
        want = mg1.simulate(0.9, service, 20_000, seed=25, cap=2000)
        np.testing.assert_array_equal(got.empirical.probs, want.empirical.probs)
        assert got.empirical.tail_mass == want.empirical.tail_mass
        assert got.censored_count == want.censored_count
        assert got.mean_uncensored == want.mean_uncensored


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
