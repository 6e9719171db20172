"""Size-bias transform tests: mixture identity, geometric-sum identity, order facts."""

import time

import numpy as np
import pytest

from borelstein import borel, sizebias
from borelstein.borel import BorelParams
from borelstein.errors import UnresolvedTail
from borelstein.lawkit import _convolve_masses, make_law, moments, point_mass, tv_distance
from borelstein.sizebias import (
    check_stochastic_order,
    geometric_sum_law,
    mixture_rhs,
    size_bias,
    size_bias_tail_estimate,
    x_mean,
)

GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def _per_term_geometric_sum(p, eps):
    """Window of ``geometric_sum_law`` summed one convolution power at a time.

    The loop the library ran before it took the compound-geometric FFT:
    ``(1 - lam) lam^(n-1)`` times the n-fold power of the same base window,
    until ``lam^n < eps``.
    """
    lam = p.lam
    base = borel.law(p, eps * (1.0 - lam) / 2.0)
    cap = max(sizebias._biased_cut(lam, eps / 8.0), base.end)
    base0 = np.zeros(cap + 1)
    base0[1 : base.end + 1] = base.probs
    cur = base0.copy()
    acc = np.zeros(cap + 1)
    n = 1
    while True:
        acc += (1.0 - lam) * lam ** (n - 1) * cur
        if lam**n < eps:
            break
        cur = _convolve_masses(cur, base0[: base.end + 1])[: cap + 1]
        n += 1
        if not cur.any():
            break
    return acc[1:]


class TestSizeBias:
    def test_point_mass_invariant(self):
        for k in (1, 3, 7):
            out = size_bias(point_mass(k))
            assert tv_distance(out, point_mass(k)).upper == 0.0

    def test_uniform_two_points(self):
        out = size_bias(make_law([0.5, 0.5]))
        np.testing.assert_allclose(out.probs, [1 / 3, 2 / 3], atol=1e-15)

    def test_biased_mean_is_moment_ratio(self):
        L = borel.law(BorelParams(0.5), 1e-12)
        biased_mean = moments(size_bias(L)).mean
        # E[Z^2]/E[Z] = (Var + mean^2)/mean = (4 + 4)/2
        assert biased_mean == pytest.approx(4.0, abs=1e-6)

    def test_moment_ratio_on_zero_tail_laws(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.random(rng.integers(2, 15))
            zeros = np.zeros(int(rng.integers(1, 4)) - 1)  # support from 1, 2 or 3
            w = make_law(np.concatenate([zeros, v / v.sum()]))
            m = moments(w)
            got = moments(size_bias(w)).mean
            assert got == pytest.approx(m.second_moment / m.mean, rel=1e-9)

    def test_unresolved_tail_rejected(self):
        with pytest.raises(UnresolvedTail):
            size_bias(make_law([0.9], tail_mass=0.1))

    def test_pair_proportionality(self):
        base = borel.law(BorelParams(0.4), 1e-10)
        biased = size_bias(base)
        assert biased.size == base.size
        expected = base.support() * base.probs / moments(base).mean
        assert np.abs(biased.probs - expected).max() <= 1e-12

    def test_idempotent_only_for_point_masses(self):
        # degenerate laws are fixed points; anything with spread is not
        assert tv_distance(size_bias(point_mass(4)), point_mass(4)).upper == 0.0
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.random(4) + 0.05
            w = make_law(v / v.sum())
            assert tv_distance(size_bias(w), w).lower > 1e-6

    def test_tail_estimate(self):
        assert size_bias_tail_estimate(make_law([1.0])) == 0.0
        w = make_law([0.5, 0.5 - 1e-7], tail_mass=1e-7)
        est = size_bias_tail_estimate(w)
        assert 0.0 < est < 1e-6


class TestMixtureIdentity:
    @pytest.mark.parametrize("lam", GRID)
    def test_rhs_matches_size_biased_borel(self, lam):
        p = BorelParams(lam)
        L = borel.law(p, 1e-10)
        star = size_bias(L)
        rhs = mixture_rhs(L, star, p, 1e-10)
        iv = tv_distance(star, rhs)
        budget = 10.0 * (
            L.tail_mass + rhs.tail_mass + size_bias_tail_estimate(L)
        )
        assert iv.upper <= max(budget, 1e-12)

    def test_small_lambda_mixture_stays_close_to_base(self):
        p = BorelParams(0.01)
        L = borel.law(p, 1e-10)
        rhs = mixture_rhs(L, size_bias(L), p, 1e-10)
        assert tv_distance(rhs, L).lower <= 0.02

    def test_point_mass_plumbing(self):
        # not mean-matched; exercises the mix/convolve wiring only
        p = BorelParams(0.3)
        w = point_mass(1)
        out = mixture_rhs(w, w, p, 1e-10)
        z = borel.law(p, 1e-10)
        assert out.at(1) == pytest.approx(0.7, abs=1e-12)
        assert out.at(2) == pytest.approx(0.3 * z.at(1), rel=1e-12)


class TestGeometricSum:
    @pytest.mark.parametrize("lam", GRID)
    def test_matches_finely_resolved_size_bias(self, lam):
        p = BorelParams(lam)
        geo = geometric_sum_law(p, 1e-10)
        ref = size_bias(borel.law(p, 1e-13))
        iv = tv_distance(ref, geo)
        budget = 10.0 * (
            geo.tail_mass
            + size_bias_tail_estimate(borel.law(p, 1e-13))
            + 1e-10
        )
        assert iv.upper <= budget

    def test_equal_resolution_comparison_at_moderate_lambda(self):
        # at lambda = 0.3 even the reference built at the same eps agrees to
        # 1e-8; at higher lambda the shared-window truncation mass forbids
        # that, which is why the grid check above resolves the reference finer
        p = BorelParams(0.3)
        geo = geometric_sum_law(p, 1e-10)
        ref = size_bias(borel.law(p, 1e-10))
        assert tv_distance(ref, geo).upper <= 1e-8

    def test_first_term_dominates_at_tiny_lambda(self):
        geo = geometric_sum_law(BorelParams(0.01), 1e-10)
        single = borel.law(BorelParams(0.01), 1e-10)
        # weight (1 - lam) = 0.99 sits on the plain law
        overlap = 1.0 - tv_distance(geo, single).upper
        assert overlap >= 0.99

    def test_wald_mean(self):
        p = BorelParams(0.3)
        geo = geometric_sum_law(p, 1e-12)
        assert moments(geo).mean == pytest.approx(1.0 / 0.7**2, rel=1e-7)

    def test_conservation(self):
        geo = geometric_sum_law(BorelParams(0.6), 1e-10)
        total = geo.window_sum() + geo.tail_mass
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            geometric_sum_law(BorelParams(0.3), 0.0)

    def test_eps_floor_is_stated_in_the_callers_terms(self):
        # the base window is cut at eps (1 - lam) / 2, which must reach MIN_EPS
        floor = 2.0 * borel.MIN_EPS / (1.0 - 0.9)
        with pytest.raises(ValueError) as err:
            geometric_sum_law(BorelParams(0.9), 1e-15)
        assert str(err.value) == (
            f"eps must lie in [{floor:g}, 1) at lambda=0.9, got 1e-15"
        )
        # at the floor itself the window sum's rounding outweighs eps
        geo = geometric_sum_law(BorelParams(0.5), 2.0 * borel.MIN_EPS / 0.5)
        assert geo.tail_mass <= 1e-14

    @pytest.mark.parametrize("lam", GRID + [0.95])
    def test_matches_per_term_loop(self, lam):
        p = BorelParams(lam)
        geo = geometric_sum_law(p, 1e-10)
        ref = _per_term_geometric_sum(p, 1e-10)
        assert geo.probs.size == ref.size
        assert np.abs(geo.probs - ref).sum() <= 2e-10

    @pytest.mark.parametrize("lam", [0.9, 0.95, 0.98])
    def test_matches_closed_form(self, lam):
        # the size-biased Borel mass at j is (1 - lam) j q(j)
        p = BorelParams(lam)
        geo = geometric_sum_law(p, 1e-10)
        j = np.arange(1.0, geo.end + 1.0)
        exact = (1.0 - lam) * j * borel.pmf_values(p, geo.end)
        assert np.abs(geo.probs - exact).sum() <= 1e-10

    @pytest.mark.parametrize("eps", [1e-3, 1e-10])
    @pytest.mark.parametrize("lam", [0.01] + GRID + [0.95, 0.97, 0.98])
    def test_wrapped_mass_is_certified(self, lam, eps, monkeypatch):
        # the FFT length geometric_sum_law takes, seen through np.fft.rfft
        lengths = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, n: lengths.append(n) or rfft(a, n))
        geo = geometric_sum_law(BorelParams(lam), eps)
        (size,) = lengths
        assert size >= 2 * (geo.end + 1)
        wrapped = (1.0 - lam) * borel._suffix_remainders(lam, size - 1)[1]
        assert wrapped <= sizebias.WRAP_REMAINDER == 2.0**-60

    def test_near_critical_lambda_is_fast(self):
        # the per-term loop took about 4 s here
        start = time.perf_counter()
        geo = geometric_sum_law(BorelParams(0.97), 1e-10)
        assert time.perf_counter() - start < 1.0
        assert geo.tail_mass <= 1e-10

    @pytest.mark.parametrize("lam", [0.95, 0.98])
    def test_near_critical_tight_eps_is_certified_quickly(self, lam):
        # with the base window cut by cumsum(pmf), these overflowed the 10^7 cap
        start = time.perf_counter()
        geo = geometric_sum_law(BorelParams(lam), 1e-12)
        assert time.perf_counter() - start < 1.0
        assert 0.0 <= geo.tail_mass <= 1e-12
        assert geo.window_sum() + geo.tail_mass == pytest.approx(1.0, abs=1e-12)

    def test_coarse_eps_keeps_residual_in_tail(self):
        geo = geometric_sum_law(BorelParams(0.5), 1e-3)
        assert geo.tail_mass <= 2e-3
        assert geo.window_sum() + geo.tail_mass == pytest.approx(1.0, abs=1e-12)


class TestAuxiliaryFacts:
    def test_x_mean_values(self):
        assert x_mean(BorelParams(0.5)) == pytest.approx(2.0, abs=1e-15)
        assert x_mean(BorelParams(1e-9)) == pytest.approx(0.0, abs=1e-8)
        assert x_mean(BorelParams(0.3)) == pytest.approx(0.3 / 0.49, rel=1e-12)

    @pytest.mark.parametrize("lam", GRID)
    def test_x_mean_matches_truncated_moment_gap(self, lam):
        p = BorelParams(lam)
        L = borel.law(p, 1e-12)
        gap = moments(size_bias(L)).mean - moments(L).mean
        assert gap == pytest.approx(x_mean(p), rel=1e-6, abs=1e-8)

    def test_stochastic_order_small_and_large_lambda(self):
        assert check_stochastic_order(BorelParams(0.5), 100)
        assert check_stochastic_order(BorelParams(0.9), 500)

    @pytest.mark.parametrize("lam", [1e-6, 0.1, 0.5, 0.9, 0.999])
    def test_poisson_cdf_matches_pdtr(self, lam):
        # check_stochastic_order's CDF is the running sum of the masses
        from scipy.special import pdtr

        M = 400
        k = np.arange(1, M + 1)
        cdf = np.cumsum(borel._poisson_masses(lam, M))
        assert np.abs(cdf - pdtr(k - 1, lam)).max() <= 1e-15
        geometric_cdf = 1.0 - lam**k
        for m in (1, 2, 5, 50, M):
            want = bool(np.all(pdtr(k[:m] - 1, lam) >= geometric_cdf[:m] - 1e-12))
            assert check_stochastic_order(BorelParams(lam), m) == want

    def test_order_at_k_equals_one_is_analytic(self):
        # P(xi + 1 <= 1) = exp(-lam) >= 1 - lam = P(eta <= 1)
        for lam in GRID:
            assert np.exp(-lam) >= 1.0 - lam
        assert check_stochastic_order(BorelParams(0.2), 1)
