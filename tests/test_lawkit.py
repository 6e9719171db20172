"""Window-algebra unit tests: constructors, convolution, mixtures, TV brackets."""

import math

import numpy as np
import pytest

from borelstein import borel
from borelstein.errors import (
    EmptySample,
    NegativeMass,
    NotNormalized,
    WeightOutOfRange,
)
from borelstein.lawkit import (
    TruncatedLaw,
    TVInterval,
    _DIRECT_CONV_LIMIT,
    _convolve_masses,
    _fast_len,
    convolve,
    empirical_law,
    make_law,
    mix,
    moments,
    point_mass,
    tv_distance,
)

CONS_TOL = 1e-12


def law_from(v, start):
    """The law with masses ``v`` (normalized) at start, start + 1, ..."""
    return make_law(np.concatenate([np.zeros(start - 1), v / v.sum()]))


def conservation(law):
    return abs(math.fsum(law.probs.tolist()) + law.tail_mass - 1.0)


class TestMakeLaw:
    def test_point_mass_at_one(self):
        law = make_law([1.0])
        assert law.at(1) == 1.0
        assert law.tail_mass == 0.0

    def test_uniform_on_two_points(self):
        law = make_law([0.5, 0.5])
        assert law.at(1) == 0.5 and law.at(2) == 0.5

    def test_forty_percent_tail(self):
        law = make_law([0.3, 0.3], tail_mass=0.4)
        assert law.tail_mass == pytest.approx(0.4, abs=1e-15)
        assert conservation(law) <= CONS_TOL

    def test_renormalizes_small_input_error(self):
        law = make_law([0.5, 0.5 + 3e-10])
        assert conservation(law) <= CONS_TOL

    def test_negative_mass_rejected(self):
        with pytest.raises(NegativeMass):
            make_law([0.5, -0.1, 0.6])
        with pytest.raises(NegativeMass):
            make_law([0.5], tail_mass=-0.5)

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            make_law([0.5, 0.4])


class TestConvolve:
    def test_point_masses_add(self):
        out = convolve(point_mass(1), point_mass(1))
        assert out.end == 2 and out.at(1) == 0.0
        assert out.at(2) == 1.0

    def test_uniform_square(self):
        u = make_law([0.5, 0.5])
        out = convolve(u, u)
        assert out.probs[0] == 0.0
        np.testing.assert_allclose(out.probs, [0.0, 0.25, 0.5, 0.25], atol=1e-15)

    def test_borel_self_convolution_normalized(self):
        L = borel.law(borel.BorelParams(0.3), 1e-10)
        out = convolve(L, L)
        assert conservation(out) <= CONS_TOL

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(7)
        laws = []
        for _ in range(3):
            v = rng.random(rng.integers(2, 9))
            laws.append(law_from(v, int(rng.integers(1, 4))))
        a, b, c = laws
        ab = convolve(a, b)
        ba = convolve(b, a)
        np.testing.assert_allclose(ab.probs, ba.probs, atol=1e-12)
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        assert left.size == right.size
        np.testing.assert_allclose(left.probs, right.probs, atol=1e-12)
        assert conservation(left) <= CONS_TOL


class TestMix:
    def test_identity_weights(self):
        a, b = point_mass(1), point_mass(2)
        assert tv_distance(mix(1.0, a, b), a).upper == 0.0
        assert tv_distance(mix(0.0, a, b), b).upper == 0.0

    def test_even_mixture_of_points(self):
        out = mix(0.5, point_mass(1), point_mass(2))
        np.testing.assert_allclose(out.probs, [0.5, 0.5], atol=1e-15)

    def test_tails_combine_linearly(self):
        a = make_law([0.7], tail_mass=0.3)
        b = make_law([0.4, 0.4], tail_mass=0.2)
        out = mix(0.25, a, b)
        assert out.tail_mass == pytest.approx(0.25 * 0.3 + 0.75 * 0.2, abs=1e-15)
        assert conservation(out) <= CONS_TOL

    def test_weight_out_of_range(self):
        with pytest.raises(WeightOutOfRange):
            mix(1.5, point_mass(1), point_mass(2))


class TestTVDistance:
    def test_identical_zero_tail_laws(self):
        L = make_law([0.2, 0.3, 0.5])
        iv = tv_distance(L, L)
        assert iv.lower == 0.0 and iv.upper == 0.0

    def test_disjoint_point_masses(self):
        iv = tv_distance(point_mass(1), point_mass(2))
        assert iv.lower == 1.0 and iv.upper == 1.0

    def test_zero_tails_give_point_interval(self):
        a = make_law([0.5, 0.5])
        b = make_law([0.0, 0.25, 0.5, 0.25])
        iv = tv_distance(a, b)
        assert iv.width <= 1e-15
        assert iv.lower == pytest.approx(0.75, abs=1e-15)

    def test_independent_borel_builds_agree(self):
        p = borel.BorelParams(0.3)
        iv = tv_distance(borel.law(p, 1e-10), borel.law(p, 1e-12))
        assert iv.width <= 1e-9
        assert iv.lower <= 1e-9

    def test_triangle_inequality_zero_tail(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            laws = []
            for _ in range(3):
                v = rng.random(rng.integers(1, 12))
                laws.append(law_from(v, int(rng.integers(1, 5))))
            a, b, c = laws
            ab = tv_distance(a, b).lower
            bc = tv_distance(b, c).lower
            ac = tv_distance(a, c).lower
            assert ac <= ab + bc + 1e-12

    def test_interval_brackets_tailed_laws(self):
        # a holds 10% unplaced mass; against the laws realizing the two
        # extremes the bracket must contain the exact distance
        a = make_law([0.9], tail_mass=0.1)
        overlap = make_law([0.9, 0.1])  # tail placed where b has mass
        iv = tv_distance(a, overlap)
        assert iv.lower == 0.0 and iv.upper == pytest.approx(0.1, abs=1e-15)


class TestEmpiricalLaw:
    def test_simple_counts(self):
        law = empirical_law(np.array([1, 1, 2, 2]), M=2)
        np.testing.assert_allclose(law.probs, [0.5, 0.5])
        assert law.tail_mass == 0.0

    def test_all_mass_beyond_window(self):
        law = empirical_law(np.array([3]), M=2)
        np.testing.assert_allclose(law.probs, [0.0, 0.0])
        assert law.tail_mass == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            empirical_law(np.array([], dtype=int), M=2)

    def test_censored_accounting_via_n_total(self):
        law = empirical_law(np.array([1, 1, 2]), M=2, n_total=4)
        np.testing.assert_allclose(law.probs, [0.5, 0.25])
        assert law.tail_mass == pytest.approx(0.25)

    def test_n_total_must_cover_samples(self):
        with pytest.raises(ValueError):
            empirical_law(np.array([1, 2, 3]), M=3, n_total=2)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, float])
    def test_counts_match_mask_and_bincount(self, dtype):
        # samples straddle the window: counts inside it must equal a masked
        # bincount, and everything above it goes to the tail
        rng = np.random.default_rng(31)
        M = 40
        samples = rng.integers(1, 2 * M, size=20_000).astype(dtype)
        law = empirical_law(samples, M=M, n_total=25_000)
        inside = samples[samples <= M].astype(np.int64)
        counts = np.bincount(inside, minlength=M + 1)[1:]
        np.testing.assert_array_equal(law.probs, counts / 25_000)
        assert law.tail_mass == float(25_000 - counts.sum()) / 25_000

    @pytest.mark.parametrize("bad", [[1.5, 2.0], [1.0, np.nan], [np.inf, 2.0]])
    def test_non_integral_samples_rejected(self, bad):
        with pytest.raises(ValueError):
            empirical_law(np.array(bad), M=3)

    def test_monte_carlo_convergence_rate(self):
        # empirical vs exact TV lower bound <= 2*sqrt(M/n) at n = 1e6
        rng = np.random.default_rng(123)
        M, n = 50, 1_000_000
        weights = 1.0 / np.arange(1.0, M + 1.0) ** 2
        exact = make_law(weights / weights.sum())
        draws = rng.choice(np.arange(1, M + 1), size=n, p=exact.probs)
        emp = empirical_law(draws, M=M)
        assert tv_distance(emp, exact).lower <= 2.0 * math.sqrt(M / n)


class TestMoments:
    def test_point_mass(self):
        assert moments(point_mass(2)).mean == 2.0

    def test_uniform(self):
        m = moments(make_law([0.5, 0.5]))
        assert m.mean == pytest.approx(1.5, abs=1e-15)
        assert not m.tail_unresolved

    def test_tail_flag_and_lower_bound(self):
        m = moments(make_law([0.5], tail_mass=0.5))
        assert m.tail_unresolved
        assert m.mean == pytest.approx(0.5)  # window part only

    def test_borel_mean_matches_closed_form(self):
        L = borel.law(borel.BorelParams(0.5), 1e-12)
        assert moments(L).mean == pytest.approx(2.0, abs=1e-8)


class TestFftConvolution:
    @pytest.mark.parametrize(
        "sizes", [(1001, 1000), (1000, 1003), (4097, 300), (12345, 99), (333, 33333), (100_000, 11)]
    )
    def test_fft_path_equals_scipy_fftconvolve(self, sizes):
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(sum(sizes))
        a, b = (rng.random(n) / n for n in sizes)
        assert a.size * b.size > _DIRECT_CONV_LIMIT
        want = np.maximum(fftconvolve(a, b), 0.0)
        assert np.array_equal(_convolve_masses(a, b), want)

    def test_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len

        # every small length, plus the multi-million lengths geometric_sum_law
        # asks for and beyond, up to 2^40
        rng = np.random.default_rng(5)
        large = (2.0 ** rng.uniform(18, 40, 1000)).astype(int).tolist()
        n = [*range(1, 200_000), *large, 2**40]
        assert [_fast_len(k) for k in n] == [next_fast_len(k, True) for k in n]


class TestConservationEverywhere:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_pipelines(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.random(8)
        a = make_law(v / v.sum() * 0.95, tail_mass=0.05)
        w = rng.random(5)
        b = make_law(w / w.sum())
        for out in (convolve(a, b), mix(0.3, a, b), convolve(b, b)):
            assert conservation(out) <= CONS_TOL

    def test_tv_interval_validates(self):
        with pytest.raises(ValueError):
            TVInterval(lower=0.5, upper=0.4)

    def test_law_rejects_bad_window(self):
        for probs in (np.zeros(0), np.ones((1, 1))):
            with pytest.raises(ValueError):
                TruncatedLaw(probs=probs, tail_mass=0.0)
