"""Busy-period tests: service functionals, the two bounds, simulator laws."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from borelstein import borel, mg1
from borelstein.borel import BorelParams
from borelstein.errors import LambdaOutOfRange, WindowOverflow
from borelstein.lawkit import tv_distance
from borelstein.mg1 import (
    arrival_law,
    bound_qbd1,
    bound_qbd2,
    deterministic,
    exponential,
    gamma_service,
    service_abs_moment,
    service_variance,
    simulate,
    two_point,
    uniform_symmetric,
)

EXP_ABS_MOMENT = 6.0 / math.e - 1.0  # E[S|S-1|] for unit-mean exponential


class TestServiceFunctionals:
    def test_variances(self):
        assert service_variance(deterministic()) == 0.0
        assert service_variance(exponential()) == 1.0
        assert service_variance(gamma_service(4.0)) == pytest.approx(0.25)
        assert service_variance(uniform_symmetric(0.5)) == pytest.approx(0.25 / 3)
        assert service_variance(two_point(0.5, 0.5)) == pytest.approx(0.25)

    def test_exponential_draws_the_standard_exponential_stream(self):
        # exponential() is gamma(1): rng.gamma(1, 1) must stay this exact stream
        n = 1000
        for seed in range(5):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(
                exponential().draw(rng_a, n), rng_b.standard_exponential(n)
            )
            assert rng_a.random() == rng_b.random()

    def test_two_point_high_solves_mean_one(self):
        s = two_point(0.5, 0.5)
        assert s.high == pytest.approx(1.5)
        assert s.low_prob * s.low + (1 - s.low_prob) * s.high == pytest.approx(1.0)

    def test_abs_moment_closed_forms(self):
        assert service_abs_moment(deterministic()) == 0.0
        assert service_abs_moment(uniform_symmetric(0.5)) == pytest.approx(0.25)
        # 0.5*0.5*0.5 + 0.5*1.5*0.5, two hand-checkable terms
        assert service_abs_moment(two_point(0.5, 0.5)) == pytest.approx(0.5)

    def test_exponential_abs_moment_against_two_oracles(self):
        got = service_abs_moment(exponential())
        assert got == pytest.approx(EXP_ABS_MOMENT, abs=1e-10)
        with mp.workdps(40):
            oracle = mp.quad(lambda x: x * abs(x - 1) * mp.e**-x, [0, 1, mp.inf])
        assert got == pytest.approx(float(oracle), abs=1e-10)
        assert got == pytest.approx(1.20728, abs=5e-6)

    def test_gamma_abs_moment_against_mpmath(self):
        alpha = 4.0
        got = service_abs_moment(gamma_service(alpha))
        with mp.workdps(40):
            a = mp.mpf(alpha)
            dens = lambda x: a**a * x ** (a - 1) * mp.e ** (-a * x) / mp.gamma(a)
            oracle = mp.quad(lambda x: x * abs(x - 1) * dens(x), [0, 1, mp.inf])
        assert got == pytest.approx(float(oracle), abs=1e-10)

    @pytest.mark.parametrize(
        "alpha", [1e-9, 0.01, 0.5, 1.0, 4.0, 100.0, 1e4, 1e6, 1e8, 1e9, 1e12, 1e15]
    )
    def test_gamma_abs_moment_closed_form_across_shapes(self, alpha):
        # the mass sits near 0 for tiny shapes and within ~1/sqrt(alpha) of 1
        # for large ones; log-space density and split points keep mpmath exact
        got = service_abs_moment(gamma_service(alpha))
        with mp.workdps(30):
            a = mp.mpf(alpha)
            w = 10 / mp.sqrt(a)
            log_c = a * mp.log(a) - mp.loggamma(a)
            dens = lambda x: mp.exp(log_c + (a - 1) * mp.log(x) - a * x)
            cuts = [0, 1, mp.inf] if w >= 1 else [0, 1 - w, 1, 1 + w, mp.inf]
            oracle = mp.quad(lambda x: x * abs(x - 1) * dens(x), cuts)
        assert got == pytest.approx(float(oracle), rel=1e-12, abs=0.0)

    def test_huge_gamma_shape_takes_constant_time(self):
        # from alpha = 1e8 on the expansion replaces the O(sqrt(alpha)) series
        start = time.perf_counter()
        got = service_abs_moment(gamma_service(1e15))
        assert time.perf_counter() - start < 0.01
        assert got == pytest.approx(math.sqrt(2.0 / (math.pi * 1e15)), rel=1e-6)

    def test_uniform_abs_moment_against_quadrature(self):
        for a in (0.25, 0.5, 1.0):
            got = service_abs_moment(uniform_symmetric(a))
            with mp.workdps(30):
                oracle = mp.quad(
                    lambda x: x * abs(x - 1) / (2 * a), [1 - a, 1, 1 + a]
                )
            assert got == pytest.approx(float(oracle), abs=1e-12)

    def test_integer_supported_service_matches_variance(self):
        # when S sits on nonnegative integers the two functionals coincide;
        # a two-point law approaching {0, 2} shows the limit numerically
        s = two_point(1e-9, 0.5)
        assert service_abs_moment(s) == pytest.approx(service_variance(s), rel=1e-6)

    def test_factory_validation(self):
        with pytest.raises(ValueError):
            gamma_service(0.0)
        # no unit-mean gamma law has a non-finite shape
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValueError):
                gamma_service(alpha)
        with pytest.raises(ValueError):
            uniform_symmetric(1.5)
        with pytest.raises(ValueError):
            two_point(1.2, 0.5)


class TestBounds:
    def test_qbd1_values(self):
        assert bound_qbd1(0.7, deterministic()) == 0.0
        assert bound_qbd1(0.5, exponential()) == pytest.approx(0.5)
        assert bound_qbd1(0.3, gamma_service(4.0)) == pytest.approx(
            0.09 * 0.25 / 0.7
        )
        assert bound_qbd1(0.3, gamma_service(4.0)) == pytest.approx(0.032143, abs=5e-7)

    def test_qbd2_values(self):
        assert bound_qbd2(0.25, deterministic()) == 0.0
        got = bound_qbd2(0.25, exponential())
        assert got == pytest.approx(0.0625 * EXP_ABS_MOMENT / 0.5, rel=1e-9)
        assert got == pytest.approx(0.15091, abs=5e-6)

    def test_qbd2_range_restriction(self):
        with pytest.raises(LambdaOutOfRange):
            bound_qbd2(0.5, exponential())
        with pytest.raises(LambdaOutOfRange):
            bound_qbd2(0.7, deterministic())

    def test_qbd2_tiny_gamma_shape(self):
        # E[S|S-1|] = 1/alpha + O(1) as alpha -> 0: 0.09 * 1e9 / 0.4
        assert bound_qbd2(0.3, gamma_service(1e-9)) == pytest.approx(2.25e8, rel=1e-12)

    def test_quadratic_small_lambda_scaling(self):
        # bound / lambda^2 tends to the service functional as lambda -> 0
        for s in (exponential(), gamma_service(4.0)):
            r1 = [bound_qbd1(lam, s) / lam**2 for lam in (0.05, 0.025, 0.0125)]
            assert abs(r1[-1] - service_variance(s)) < abs(r1[0] - service_variance(s))
            r2 = [bound_qbd2(lam, s) / lam**2 for lam in (0.05, 0.025, 0.0125)]
            target = service_abs_moment(s)
            assert abs(r2[-1] - target) < abs(r2[0] - target)


def oracle_arrival_law(lam, s, size):
    """P(Poisson(lam S) = k) for k < size, and the mass beyond, at 40 digits."""
    with mp.workdps(40):
        lam = mp.mpf(lam)

        def pois(k, x):
            return mp.exp(k * mp.log(x) - x - mp.loggamma(k + 1))

        if s.kind == "deterministic":
            terms = [pois(k, lam) for k in range(size)]
        elif s.kind in ("exponential", "gamma"):
            a = mp.mpf(1 if s.kind == "exponential" else s.alpha)
            p = a / (a + lam)
            terms = [
                mp.exp(
                    mp.loggamma(k + a) - mp.loggamma(a) - mp.loggamma(k + 1)
                    + a * mp.log(p) + k * mp.log(1 - p)
                )
                for k in range(size)
            ]
        elif s.kind == "uniform":
            h = mp.mpf(s.half_width)
            lo, hi = lam * (1 - h), lam * (1 + h)
            terms = [
                mp.gammainc(k + 1, lo, hi, regularized=True) / (2 * h * lam)
                for k in range(size)
            ]
        else:
            q, low = mp.mpf(s.low_prob), mp.mpf(s.low)
            high = (1 - q * low) / (1 - q)
            terms = [
                q * pois(k, lam * low) + (1 - q) * pois(k, lam * high)
                for k in range(size)
            ]
        return terms, 1 - mp.fsum(terms)


ARRIVAL_SERVICES = [
    deterministic(),
    exponential(),
    gamma_service(0.5),
    gamma_service(4.0),
    uniform_symmetric(1e-3),
    uniform_symmetric(1.0),
    two_point(0.5, 0.5),
]


class TestArrivalLaw:
    @pytest.mark.parametrize("h", [1e-3, 0.5, 1.0])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_uniform_masses_match_gammainc(self, lam, h):
        # the difference of the two gammainc values, divided by 2 h lam,
        # loses about eps / h to cancellation; the masses near the end of
        # the window, down to 1e-151, keep their relative accuracy too
        from scipy.special import gammainc

        k1 = np.arange(1.0, 65.0)
        want = (gammainc(k1, lam * (1.0 + h)) - gammainc(k1, lam * (1.0 - h))) / (2.0 * h * lam)
        got = mg1._uniform_masses(lam, h, 64)
        assert np.abs(got - want).max() <= (3e-13 if h < 0.01 else 1e-15)
        assert np.abs(got / want - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("service", ARRIVAL_SERVICES, ids=lambda s: s.label())
    def test_matches_oracle_with_certified_remainder(self, service, lam):
        a = arrival_law(lam, service)
        terms, beyond = oracle_arrival_law(lam, service, a.size)
        # the uniform masses are a difference of two incomplete-gamma values
        # divided by 2 h lam, so they lose about eps / h: 2e-13 at h = 1e-3,
        # far below the 1e-3 a multinomial over 10^6 draws can resolve
        tol = 1e-12 if service.kind == "uniform" else 1e-14
        assert math.fsum(abs(x - float(t)) for x, t in zip(a, terms)) <= tol
        assert abs(math.fsum(a) - 1.0) <= max(tol, 1e-13)
        assert abs(math.fsum(np.arange(a.size) * a) - lam) <= max(tol, 1e-13)
        K = a.size - 1
        if service.kind in ("exponential", "gamma"):
            alpha = 1.0 if service.kind == "exponential" else service.alpha
            rho = max(1.0, (K + alpha) / (K + 1)) * lam / (alpha + lam)
        else:
            top = {"deterministic": 1.0, "uniform": 1.0 + service.half_width}.get(
                service.kind, service.high
            )
            rho = lam * top / (K + 1)
        assert rho < 1.0 and a[K] * rho / (1.0 - rho) <= 2.0**-60
        assert 0.0 <= float(beyond) <= 2.0**-60

    def test_tiny_gamma_shape_takes_the_per_path_route(self):
        lam, n = 0.5, 100_000
        with pytest.raises(WindowOverflow):
            arrival_law(lam, gamma_service(1e-6))
        summary = simulate(lam, gamma_service(1e-6), n, seed=31)
        assert summary.walked_paths == n
        var_n = (lam + lam**2 * 1e6) / (1.0 - lam) ** 3
        assert summary.censored_count == 0
        se = math.sqrt(var_n / n)
        assert abs(summary.mean_uncensored - 1.0 / (1.0 - lam)) <= 4.0 * se


class TestLargePoissonMeans:
    """Busy periods whose per-path Poisson draws have means past 745.

    There ``exp(-mu)`` underflows, so an inversion started at k = 0 fails.
    The high value of ``two_point(0.01, p)`` is about 1 / (1 - p).
    """

    @staticmethod
    def _check_mean(summary, lam, s, n):
        # Var N = (lam + lam^2 Var S) / (1 - lam)^3 for unit-mean service S
        var_n = (lam + lam**2 * service_variance(s)) / (1.0 - lam) ** 3
        assert summary.censored_count == 0
        se = math.sqrt(var_n / n)
        assert abs(summary.mean_uncensored - 1.0 / (1.0 - lam)) <= 4.0 * se

    def test_handed_back_paths(self, monkeypatch):
        lam, n, s = 0.9, 100_000, two_point(0.01, 0.999)
        means = []

        def recording_walk(rng, first, next_mu, cap):
            def recorded(k):
                mu = next_mu(k)
                means.append(mu.max())
                return mu

            return borel.branching_totals(rng, first, recorded, cap)

        monkeypatch.setattr(mg1, "branching_totals", recording_walk)
        summary = simulate(lam, s, n, seed=51)
        # one customer's mean is lam * 990.01 = 891
        assert 0 < summary.walked_paths < n and max(means) >= 745.0
        self._check_mean(summary, lam, s, n)

    def test_every_path_walked_when_the_arrival_law_overflows(self):
        lam, n, s = 0.9, 100_000, two_point(0.01, 0.99999)
        with pytest.raises(WindowOverflow):
            arrival_law(lam, s)
        summary = simulate(lam, s, n, seed=52)
        assert summary.walked_paths == n
        self._check_mean(summary, lam, s, n)


class TestSimulator:
    def test_deterministic_service_reduces_to_borel(self):
        lam = 0.3
        summary = simulate(lam, deterministic(), 1_000_000, seed=704, window=60)
        exact = borel.law(BorelParams(lam), 1e-10)
        assert summary.censored_count == 0
        assert tv_distance(summary.empirical, exact).lower <= 0.01

    def test_mean_customers_served(self):
        lam = 0.4
        summary = simulate(lam, exponential(), 1_000_000, seed=11)
        sd_proxy = math.sqrt(BorelParams(lam).variance / 1_000_000)
        # branching mean is distribution-free given unit-mean service
        assert abs(summary.mean_uncensored - 1.0 / (1.0 - lam)) <= 4 * sd_proxy

    def test_cap_produces_censored_values(self):
        summary = simulate(0.6, exponential(), 200, seed=13, cap=2)
        assert summary.censored_count > 0
        # every kept total is at most 2: no window mass above 2
        assert not summary.empirical.probs[2:].any()

    def test_summary_deterministic_given_seed(self):
        a = simulate(0.35, two_point(0.5, 0.5), 20_000, seed=99)
        b = simulate(0.35, two_point(0.5, 0.5), 20_000, seed=99)
        np.testing.assert_array_equal(a.empirical.probs, b.empirical.probs)
        assert a.mean_uncensored == b.mean_uncensored

    def test_censoring_lands_in_tail_mass(self):
        summary = simulate(0.45, exponential(), 5_000, seed=21, cap=3, window=3)
        assert summary.censored_count > 0
        assert summary.empirical.tail_mass >= summary.censored_fraction

    @pytest.mark.parametrize(
        "service",
        [exponential(), gamma_service(4.0), uniform_symmetric(0.5), two_point(0.5, 0.5)],
    )
    def test_bounds_dominate_empirical_distance(self, service):
        lam, n = 0.3, 200_000
        exact = borel.law(BorelParams(lam), 1e-10)
        summary = simulate(lam, service, n, seed=2024, window=exact.end)
        tv_low = tv_distance(summary.empirical, exact).lower
        sigma = math.sqrt(exact.end / (4.0 * n))
        assert tv_low - 3.0 * sigma <= bound_qbd1(lam, service)
        assert tv_low - 3.0 * sigma <= bound_qbd2(lam, service)

    def test_lambda_validation(self):
        with pytest.raises(LambdaOutOfRange):
            simulate(1.2, exponential(), 10, seed=1)

    def test_window_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="window"):
            simulate(0.5, exponential(), 10, seed=1, window=0)
