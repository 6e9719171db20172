"""Borel distribution tests: pmf accuracy, adaptive law, moments, sampler."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from borelstein import borel, concentration, mg1
from borelstein.borel import (
    BorelParams,
    law,
    log_pmf,
    pmf,
    sample_many,
)
from borelstein.errors import InvalidIndex, WindowOverflow
from borelstein.lawkit import empirical_law, moments, tv_distance

mp.mp.dps = 50

GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def _reference_poisson_draw_vec(rng, mu):
    """Poisson inversion from k = 0: a reference independent of ``rng.poisson``."""
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


def _reference_branching_totals(rng, first, next_mu, cap):
    """The uncompacted per-customer walk, scanning every path each round."""
    n = first.size
    total = np.ones(n, dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    pending = first.copy()
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


class TestLogFactorial:
    def test_matches_mpmath(self):
        # the table range, then 1,000 consecutive points past it, where the
        # Stirling correction matters most, and 1,000 up to 1e7
        n = np.concatenate(
            [np.arange(1033.0), np.geomspace(1033.0, 1e7, 1001)[1:].round()]
        )
        got = borel._log_factorial(n)
        want = np.array([float(mp.loggamma(int(k) + 1)) for k in n])
        assert np.unique(n).size == n.size == 2033
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))

    def test_small_inputs_read_the_table(self):
        n = np.arange(33)
        want = np.array([math.lgamma(k + 1.0) for k in n])
        assert np.array_equal(borel._log_factorial(n), want)
        assert np.array_equal(borel._log_factorial(n.astype(float)), want)


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

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_stirling_branch_within_2e15_relative(self, lam):
        # just past the direct branch the first omitted Stirling term is
        # largest: 1/(1680 j^7) was 1.7e-14 at j = 33
        j = np.arange(33, 65)
        got = borel._log_pmf_array(lam, j)
        want = np.array([float(oracle_log_pmf(lam, int(k))) for k in j])
        assert np.abs(got / want - 1.0).max() <= 2e-15

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


class TestDecayRate:
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6])
    def test_every_form_within_4e16_relative(self, lam):
        # written out, lam - 1 - log(lam) is off by 8.6e-15 at 0.99 and by
        # 1.3e-10 at 1 - 1e-6, and lam - log(lam) - 1 by 8.8e-5 there
        want = mp.mpf(lam) - 1 - mp.log(mp.mpf(lam))
        for got in (
            borel._decay_rate(lam),
            BorelParams(lam).decay_rate,
            concentration.delta_limit(lam),
        ):
            assert abs(got / want - 1) <= 4e-16

    @pytest.mark.parametrize("lam", [0.9, 0.99, 0.999])
    def test_log_pmf_at_large_j_within_4e16_relative(self, lam):
        # the term g0 j carries the rate's error into the log mass; with g0
        # written out, it is off by 6.1e-15 relative at lam 0.99, j = 10^6
        for j in (10**3, 10**4, 10**5, 10**6):
            want = float(oracle_log_pmf(lam, j))
            assert abs(log_pmf(BorelParams(lam), j) / want - 1.0) <= 4e-16


class TestLaw:
    def test_tail_below_eps_by_construction(self):
        L = law(BorelParams(0.5), 1e-10)
        assert 0.0 <= L.tail_mass < 1e-10

    @pytest.mark.parametrize("eps", [1e-10, 1e-12, 1e-13])
    @pytest.mark.parametrize("lam", GRID)
    def test_tail_is_at_most_eps_at_the_first_certified_cut(self, lam, eps):
        L = law(BorelParams(lam), eps)
        assert 0.0 <= L.tail_mass <= eps
        assert borel._suffix_remainders(lam, L.end)[0] <= eps
        if L.end > 1:
            assert borel._suffix_remainders(lam, L.end - 1)[0] > eps

    @pytest.mark.parametrize("lam", [0.98, 0.99])
    def test_near_critical_window_is_certified_quickly(self, lam):
        # cut by cumsum(pmf) >= 1 - eps, these grew to the 10^7 cap and overflowed
        borel._law.cache_clear()
        start = time.perf_counter()
        L = law(BorelParams(lam), 1e-13)
        assert time.perf_counter() - start < 1.0
        assert 0.0 <= L.tail_mass <= 1e-13

    @pytest.mark.parametrize("lam, eps", [(0.9, 1e-10), (0.5, 1e-13), (0.1, 0.5)])
    def test_law_pins_no_search_buffer(self, lam, eps):
        L = law(BorelParams(lam), eps)
        assert L.probs.base is None or L.probs.base.size <= L.probs.size

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

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("W", [40, 1000])
    def test_suffix_remainders_bound_the_tail_sums(self, lam, W):
        # summed far enough out that the rest is below 1e-30 of the bound
        far = 40 * W + int(80.0 / BorelParams(lam).decay_rate)
        q = borel.pmf_values(BorelParams(lam), far)[W:]
        j = np.arange(W + 1.0, far + 1.0)
        rem_q, rem_jq = borel._suffix_remainders(lam, W)
        assert q.sum() <= rem_q
        assert (j * q).sum() <= rem_jq

    def test_window_cap_overflow(self):
        with pytest.raises(WindowOverflow):
            law(BorelParams(0.99), 1e-10, cap=1000)

    def test_cap_below_the_window_fails_before_the_search(self, monkeypatch):
        assert law(BorelParams(0.99), 1e-13, cap=389_625).end == 389_625

        def no_search(*args):
            raise AssertionError("searched a window the cap cannot hold")

        monkeypatch.setattr(borel, "_pmf_window", no_search)
        with pytest.raises(WindowOverflow):
            law(BorelParams(0.99), 1e-13, cap=389_624)

    def test_mean_variance_limits_near_zero(self):
        p = BorelParams(1e-9)
        assert p.mean == pytest.approx(1.0, rel=1e-8)
        assert p.variance == pytest.approx(0.0, abs=1e-8)


class TestCertifiedWindow:
    """The one window search: masses 2^-k, whose mass beyond k is 2^-k."""

    @staticmethod
    def _halvings(sizes):
        def masses(size):
            sizes.append(size)
            return 0.5 ** np.arange(size)

        return masses

    def test_doubles_from_64_and_cuts_at_the_first_certified_index(self):
        sizes = []
        w = borel._certified_window(self._halvings(sizes), lambda a: a, 2.0**-100, 1000)
        assert sizes == [64, 128]
        assert w.size == 101 and w.base is None

    def test_overflow_past_the_cap(self):
        sizes = []
        with pytest.raises(WindowOverflow):
            borel._certified_window(self._halvings(sizes), lambda a: a, 2.0**-100, 100)
        assert sizes == [64, 100]


class TestLawCache:
    """Equal arguments share one immutable law; failures are not remembered."""

    def test_equal_arguments_return_the_same_law(self):
        a = law(BorelParams(0.37), 1e-11)
        assert law(BorelParams(0.37), 1e-11) is a
        assert law(BorelParams(0.37), 1e-11, cap=borel.DEFAULT_WINDOW_CAP) is a
        assert not a.probs.flags.writeable
        with pytest.raises(ValueError):
            a.probs[0] = 0.0

    def test_different_arguments_return_different_laws(self):
        a = law(BorelParams(0.37), 1e-11)
        assert law(BorelParams(0.38), 1e-11) is not a
        assert law(BorelParams(0.37), 1e-12) is not a

    @pytest.mark.parametrize("eps", [0.0, 1e-300, -1e-3, 1.0, math.nan])
    def test_bad_eps_rejected_before_the_cache(self, eps):
        for _ in range(2):
            with pytest.raises(ValueError):
                law(BorelParams(0.5), eps)

    def test_window_overflow_is_not_cached(self):
        p = BorelParams(0.9)
        for _ in range(2):
            with pytest.raises(WindowOverflow):
                law(p, 1e-10, cap=100)
        L = law(p, 1e-10, cap=100_000)
        assert 0.0 <= L.tail_mass < 1e-10
        with pytest.raises(WindowOverflow):
            law(p, 1e-10, cap=100)

    def test_cache_is_small(self):
        for j in range(3 * borel._LAW_CACHE_SIZE):
            law(BorelParams(0.1 + 0.01 * j), 1e-10)
        assert borel._law.cache_info().currsize == borel._LAW_CACHE_SIZE


class TestSameStream:
    """The library's walks against the full-scan, per-customer references.

    At ``cap = 1`` both walks draw nothing: they return ``first + 1`` with
    the same censoring.  Deeper walks spend the stream a generation at a
    time, through numpy's Poisson sampler rather than the reference
    inversion, so they are compared in law: with the per-customer reference
    and with exact values.
    """

    @pytest.mark.parametrize("cap", [1, 2, 50])
    def test_censored_totals_match_reference(self, cap):
        # a path is censored iff N > cap, so the censored share is Borel's tail
        lam, n = 0.8, 20_000
        p_over = 1.0 - math.fsum(borel.pmf_values(BorelParams(lam), cap))
        se = math.sqrt(p_over * (1.0 - p_over) / n)
        first = np.random.default_rng(22).poisson(lam, n)
        args = (first, lambda k: np.full(k, lam), cap)
        got = borel.branching_totals(np.random.default_rng(23), *args)
        want = _reference_branching_totals(np.random.default_rng(23), *args)
        for totals, censored in (got, want):
            assert abs(censored.mean() - p_over) <= 4.0 * se
            assert np.all(totals[censored] == cap)
            assert totals[~censored].max() <= cap
        if cap == 1:
            # no walk past the first generation: both return the same totals
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("lam", [0.3, 0.9])
    def test_sample_many_matches_reference(self, lam, monkeypatch):
        n = 20_000
        p = BorelParams(lam)
        exact = law(p, 1e-10)
        sigma = math.sqrt(exact.end / (4.0 * n))
        se = math.sqrt(p.variance / n)
        got = sample_many(p, n, np.random.default_rng(24))
        monkeypatch.setattr(borel, "branching_totals", _reference_branching_totals)
        want = sample_many(p, n, np.random.default_rng(24))
        for totals, censored in (got, want):
            assert not censored.any()
            emp = empirical_law(totals, M=exact.end)
            assert tv_distance(emp, exact).lower <= 3.0 * sigma
        assert abs(got[0].mean() - want[0].mean()) <= 4.0 * math.sqrt(2.0) * se

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
        lam, n = 0.9, 20_000
        # Var N = (lam + lam^2 Var S) / (1 - lam)^3 for unit-mean service S
        var_n = (lam + lam**2 * mg1.service_variance(service)) / (1.0 - lam) ** 3
        se = math.sqrt(var_n / n)
        got = mg1.simulate(lam, service, n, seed=25)
        monkeypatch.setattr(mg1, "branching_totals", _reference_branching_totals)
        want = mg1.simulate(lam, service, n, seed=25)
        for summary in (got, want):
            assert summary.censored_count == 0
            assert abs(summary.mean_uncensored - 1.0 / (1.0 - lam)) <= 4.0 * se
        assert abs(got.mean_uncensored - want.mean_uncensored) <= 4.0 * math.sqrt(2.0) * se


SERVICES = [
    mg1.deterministic(),
    mg1.exponential(),
    mg1.gamma_service(0.5),
    mg1.uniform_symmetric(0.5),
    mg1.two_point(0.2, 0.5),
]


def _per_path_run(lam, service, n, seed, cap):
    """Busy periods walked customer by customer: the count walk's reference."""
    rng = np.random.default_rng(seed)
    first = _reference_poisson_draw_vec(rng, lam * service.draw(rng, n))
    return _reference_branching_totals(
        rng, first, lambda k: lam * service.draw(rng, k), cap
    )


def _mm1_pmf(lam, M):
    """P(N = j), j = 1..M, for exponential service: (1/j) P(NegBin(j, 1/(1+lam)) = j-1)."""
    j = np.arange(1, M + 1)
    return stats.nbinom.pmf(j - 1, j, 1.0 / (1.0 + lam)) / j


class _RecordingRng:
    """A generator that records the size of every multinomial draw it makes."""

    def __init__(self, rng):
        self._rng = rng
        self.entries = 0

    def multinomial(self, n, pvals):
        out = self._rng.multinomial(n, pvals)
        self.entries += out.size
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestCountWalk:
    """``mg1.simulate`` walks busy periods by counts and hands the last paths back.

    The count walk and the per-customer reference share no draws, so they
    are compared in law; censoring is compared with exact tail masses.
    """

    @pytest.mark.parametrize("service", SERVICES, ids=lambda s: s.kind)
    def test_law_matches_per_path_reference(self, service):
        lam, n = 0.4, 200_000
        M = law(BorelParams(lam), 1e-10).end
        var_n = (lam + lam**2 * mg1.service_variance(service)) / (1.0 - lam) ** 3
        se, sigma = math.sqrt(var_n / n), math.sqrt(M / (4.0 * n))
        got = mg1.simulate(lam, service, n, seed=41, window=M)
        totals, censored = _per_path_run(lam, service, n, 42, borel.DEFAULT_WINDOW_CAP)
        assert got.censored_count == 0 and not censored.any()
        want = empirical_law(totals, M=M)
        assert tv_distance(got.empirical, want).lower <= 3.0 * math.sqrt(2.0) * sigma
        assert abs(got.mean_uncensored - totals.mean()) <= 4.0 * math.sqrt(2.0) * se

    def test_censoring_inside_the_count_route(self):
        lam, n, cap = 0.8, 100_000, 5
        q = borel.pmf_values(BorelParams(lam), cap)
        p_over = 1.0 - math.fsum(q)
        summary = mg1.simulate(lam, mg1.deterministic(), n, seed=43, cap=cap, window=20)
        se = math.sqrt(p_over * (1.0 - p_over) / n)
        assert abs(summary.censored_fraction - p_over) <= 4.0 * se
        # no kept total above cap, and every size up to cap at its Borel mass
        assert not summary.empirical.probs[cap:].any()
        assert summary.empirical.tail_mass == summary.censored_fraction
        for j in range(1, cap + 1):
            se_j = math.sqrt(q[j - 1] * (1.0 - q[j - 1]) / n)
            assert abs(summary.empirical.at(j) - q[j - 1]) <= 4.0 * se_j

    @pytest.mark.parametrize("cap", [20, 200])
    def test_cap_crossed_after_the_hand_back(self, cap):
        # the count walk hands back within a few generations, before most
        # states reach the cap, so the per-path walk meets it
        lam, n = 0.9, 100_000
        q = _mm1_pmf(lam, cap)
        p_over = 1.0 - math.fsum(q)
        se = math.sqrt(p_over * (1.0 - p_over) / n)
        summary = mg1.simulate(lam, mg1.exponential(), n, seed=44, cap=cap, window=cap)
        totals, censored = _per_path_run(lam, mg1.exponential(), n, 45, cap)
        assert summary.walked_paths > 0
        assert abs(summary.censored_fraction - p_over) <= 4.0 * se
        assert abs(censored.mean() - p_over) <= 4.0 * se
        assert summary.empirical.tail_mass == summary.censored_fraction
        assert totals[~censored].max() <= cap
        # a busy period of exactly cap customers is kept
        se_cap = math.sqrt(q[-1] * (1.0 - q[-1]) / n)
        assert abs(summary.empirical.at(cap) - q[-1]) <= 4.0 * se_cap
        kept = totals[~censored]
        se_mean = kept.std() / math.sqrt(kept.size)
        assert abs(summary.mean_uncensored - kept.mean()) <= 4.0 * math.sqrt(2.0) * se_mean

    def test_few_paths_are_handed_back_in_the_report_regime(self, monkeypatch):
        walked = []

        def counting_walk(rng, first, next_mu, cap):
            walked.append(first.size)
            return borel.branching_totals(rng, first, next_mu, cap)

        monkeypatch.setattr(mg1, "branching_totals", counting_walk)
        lam, n = 0.4, 1_000_000
        summary = mg1.simulate(lam, mg1.exponential(), n, seed=46)
        assert sum(walked) == summary.walked_paths <= 0.03 * n
        # a handed-back path resumes where the count walk left it
        se = math.sqrt((lam + lam**2) / (1.0 - lam) ** 3 / n)
        assert abs(summary.mean_uncensored - 1.0 / (1.0 - lam)) <= 4.0 * se

    @pytest.mark.parametrize("lam", [0.4, 0.9])
    def test_no_generation_fills_more_entries_than_live_paths(self, lam, monkeypatch):
        generations = []
        next_generation = mg1._next_generation

        def recording_generation(rng, total, pending, count, power):
            recorder = _RecordingRng(rng)
            out = next_generation(recorder, total, pending, count, power)
            generations.append((recorder.entries, int(count.sum())))
            return out

        monkeypatch.setattr(mg1, "_next_generation", recording_generation)
        mg1.simulate(lam, mg1.exponential(), 100_000, seed=47)
        assert generations
        assert all(entries <= live for entries, live in generations)


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

    def test_rounds_follow_tree_height(self, monkeypatch):
        # one next_mu call per generation: rounds follow the tallest tree,
        # not the largest busy period (over 1,000 customers here)
        calls = 0

        def counting_walk(rng, first, next_mu, cap):
            def counted(k):
                nonlocal calls
                calls += 1
                return next_mu(k)

            return borel.branching_totals(rng, first, counted, cap)

        monkeypatch.setattr(mg1, "branching_totals", counting_walk)
        mg1.simulate(0.9, mg1.exponential(), 100_000, seed=26)
        assert 0 < calls <= 300

    def test_cap_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            sample_many(BorelParams(0.5), 100, np.random.default_rng(0), cap=0)
        with pytest.raises(ValueError):
            mg1.simulate(0.5, mg1.exponential(), 1000, seed=1, cap=0)

    def test_deterministic_given_seed(self):
        a, _ = sample_many(BorelParams(0.4), 1000, np.random.default_rng(9))
        b, _ = sample_many(BorelParams(0.4), 1000, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            BorelParams(1.0)
        with pytest.raises(ValueError):
            BorelParams(0.0)
