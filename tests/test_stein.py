"""Stein machinery tests: recursion, envelopes, residuals, TV bound, Abel oracle."""

import math
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from borelstein import borel, stein
from borelstein.acceptance import mean_matched_borel_window
from borelstein.borel import BorelParams
from borelstein.errors import MeanMismatch, WindowOverflow
from borelstein.lawkit import make_law, point_mass, tv_distance
from borelstein.sizebias import mixture_rhs, size_bias, size_bias_tail_estimate
from borelstein.stein import (
    MAX_TABLE_WINDOW,
    abel_sum,
    build_table,
    build_table_hp,
    coefficient_bound,
    solve_f,
    stein_residual,
    size_bias_tv_bound,
)

GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def column_descent_table(p, M):
    """The earlier build_table: fix a column m, descend k, one dot product each."""
    lam = p.lam
    q = np.concatenate([[0.0], borel.pmf_values(p, M)])
    a = np.zeros((M + 1, M + 1))
    for m in range(2, M + 1):
        a[m, m] = 1.0 / (m - 1)
        for k in range(m - 1, 1, -1):
            s = float(np.dot(a[k + 1 : m + 1, m], q[1 : m - k + 1]))
            a[k, m] = k * lam / (k - 1) * s
    return a


class TestRowRecursion:
    """The row recursion against the column-descent loop it replaced."""

    @pytest.mark.parametrize("M", [60, 400])
    @pytest.mark.parametrize("lam", [0.001, 0.1, 0.5, 0.9, 0.999])
    def test_matches_column_descent(self, lam, M):
        self.check_against_reference(lam, M)

    def test_matches_column_descent_with_subnormal_entries(self):
        self.check_against_reference(0.1, 1000, expect_subnormal=True)

    @staticmethod
    def check_against_reference(lam, M, expect_subnormal=False):
        got = build_table(BorelParams(lam), M).a
        ref = column_descent_table(BorelParams(lam), M)
        assert np.all(np.isfinite(got))
        assert np.all(got[np.tril_indices(M + 1, -1)] == 0.0)
        k = np.arange(2, M + 1)
        assert np.array_equal(got[k, k], 1.0 / (k - 1))
        normal = np.abs(ref) >= 1e-290
        rel = np.abs(got[normal] - ref[normal]) / np.abs(ref[normal])
        assert rel.max() <= 1e-13
        upper = np.triu(np.ones_like(ref, dtype=bool))
        tiny = upper & ~normal
        if expect_subnormal:
            assert np.any((ref[tiny] != 0.0) & (np.abs(ref[tiny]) < np.finfo(float).tiny))
        assert np.all(np.abs(got[tiny] - ref[tiny]) <= 1e-300)

    def test_window_above_cap_is_refused(self):
        with pytest.raises(WindowOverflow):
            build_table(BorelParams(0.5), MAX_TABLE_WINDOW + 1)
        with pytest.raises(WindowOverflow):
            build_table(BorelParams(0.5), 100_000)


class TestTable:
    def test_diagonal_entry(self):
        t = build_table(BorelParams(0.5), 10)
        assert t.a[2, 2] == 1.0
        for m in range(2, 11):
            assert t.a[m, m] == pytest.approx(1.0 / (m - 1), rel=1e-15)

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_first_superdiagonal_closed_form(self, lam):
        t = build_table(BorelParams(lam), 12)
        for k in range(2, 12):
            expect = lam * math.exp(-lam) / (k - 1)
            assert t.a[k, k + 1] == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("lam", GRID)
    def test_envelope_all_entries(self, lam):
        p = BorelParams(lam)
        t = build_table(p, 60)
        q = borel.pmf_values(p, 60)
        for k in range(2, 61):
            j = np.arange(1, 61 - k)
            envelope = j * lam * q[j - 1] / (k - 1)
            assert np.all(np.abs(t.a[k, k + 1 : 61]) <= envelope + 1e-12)

    def test_envelope_example_k2_j5(self):
        p = BorelParams(0.5)
        t = build_table(p, 10)
        assert abs(t.a[2, 7]) <= 5 * 0.5 * borel.pmf(p, 5) / 1 + 1e-12

    def test_coefficient_bound_values(self):
        assert coefficient_bound(BorelParams(0.5), 2, 0) == 1.0
        got = coefficient_bound(BorelParams(0.5), 3, 1)
        assert got == pytest.approx(0.5 * math.exp(-0.5) / 2, rel=1e-13)
        assert got == pytest.approx(0.15163, abs=5e-6)

    def test_array_bounds_equal_scalar_bounds(self):
        p = BorelParams(0.3)
        k, m = np.triu_indices(39)
        k, m = k + 2, m + 2
        got = coefficient_bound(p, k, m - k)
        assert got.shape == k.shape
        want = [coefficient_bound(p, int(a), int(b)) for a, b in zip(k, m - k)]
        assert all(isinstance(w, float) for w in want)
        np.testing.assert_array_equal(got, want)
        assert got[0] == 1.0  # (k, m) = (2, 2)

    def test_bound_rejects_any_bad_entry(self):
        with pytest.raises(ValueError):
            coefficient_bound(BorelParams(0.5), np.array([2, 1]), np.array([0, 3]))
        with pytest.raises(ValueError):
            coefficient_bound(BorelParams(0.5), np.array([2, 3]), np.array([0, -1]))

    def test_bound_summable_in_j(self):
        p = BorelParams(0.5)
        vals = [coefficient_bound(p, 2, j) for j in range(1, 200)]
        assert vals[-1] < 1e-12
        assert all(b >= 0 for b in vals)

    def test_high_precision_drift(self):
        assert self.worst_drift(0.5) <= 1e-13

    @pytest.mark.parametrize("lam", [0.05, 0.95])
    def test_high_precision_drift_near_ends(self, lam):
        assert self.worst_drift(lam) <= 1e-13

    @staticmethod
    def worst_drift(lam):
        p = BorelParams(lam)
        t = build_table(p, 20)
        hp = build_table_hp(p, 20)
        worst = 0.0
        for m in range(2, 21):
            for k in range(2, m + 1):
                exact = float(hp[k][m])
                worst = max(worst, abs(t.a[k, m] - exact) / exact)
        return worst

    def test_table_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            build_table(BorelParams(0.5), 1)


def mpmath_table(lam, M):
    """Reference: the recursion over mpmath's pmf at 50 digits."""
    with mp.workdps(50):
        lam = mp.mpf(lam)
        q = [mp.mpf(0)] + [
            mp.e ** (-lam * j) * (lam * j) ** (j - 1) / mp.factorial(j)
            for j in range(1, M + 1)
        ]
        a = [[mp.mpf(0)] * (M + 1) for _ in range(M + 1)]
        for m in range(2, M + 1):
            a[m][m] = mp.mpf(1) / (m - 1)
            for k in range(m - 1, 1, -1):
                s = mp.fsum(a[k + i][m] * q[i] for i in range(1, m - k + 1))
                a[k][m] = k * lam / (k - 1) * s
        return a


class TestHighPrecision:
    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.95, 0.999])
    def test_matches_mpmath_recursion(self, lam):
        hp = build_table_hp(BorelParams(lam), 20)
        ref = mpmath_table(lam, 20)
        with mp.workdps(60):
            for k in range(21):
                for m in range(21):
                    assert isinstance(hp[k][m], Decimal)
                    if not 2 <= k <= m:
                        assert hp[k][m] == 0 and ref[k][m] == 0
                        continue
                    assert abs(mp.mpf(str(hp[k][m])) / ref[k][m] - 1) <= 1e-45
                    # 50 digits pin the double: both round to the same float
                    assert float(hp[k][m]) == float(ref[k][m])

    def test_window_above_cap_is_refused(self):
        with pytest.raises(ValueError):
            build_table_hp(BorelParams(0.5), 21)

    def test_free_coefficients_closed_forms(self):
        # d = (k-1) c: d[k, k] = d[k, k+1] = 1, d[k, k+2] = (2k+1)/(k+1)
        c = stein._free_coefficients(20)
        for k in range(2, 21):
            d = [(k - 1) * c[k, m] for m in range(k, 21)]
            assert d[0] == 1
            assert d[1:2] in ([], [1])
            assert d[2:3] in ([], [Fraction(2 * k + 1, k + 1)])

    def test_envelope_holds_exactly(self):
        # |a[k, k+j]| <= j lam q(j)/(k-1) is d[k, k+j] <= j^j/j!, free of lam;
        # equality at j = 0 and j = 1
        c = stein._free_coefficients(20)
        assert len(c) == 19 * 20 // 2
        for (k, m), ckm in c.items():
            j = m - k
            d, cap = (k - 1) * ckm, Fraction(j**j, math.factorial(j))
            assert d == cap if j <= 1 else 0 < d < cap


class TestSolveF:
    def test_constant_h_gives_zero_solution(self):
        # h constant on a window holding all but ~1e-14 of the mass
        t = build_table(BorelParams(0.3), 60)
        sol = solve_f(np.ones(60), t)
        assert np.max(np.abs(sol.f)) <= 1e-12

    def test_f1_is_zero_by_convention(self):
        t = build_table(BorelParams(0.5), 30)
        sol = solve_f(np.sin(np.arange(30.0)), t)
        assert sol.f[1] == 0.0

    @pytest.mark.parametrize("lam", GRID)
    def test_uniform_envelope_random_unit_h(self, lam):
        rng = np.random.default_rng(17)
        t = build_table(BorelParams(lam), 60)
        cap = 1.0 / (1.0 - lam) ** 2
        for _ in range(100):
            h = rng.random(60)  # values in [0, 1]
            sol = solve_f(h, t)
            slack = sol.trunc_error[2:]
            assert np.all(np.abs(sol.f[2:]) <= cap + slack + 1e-12)

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_per_k_envelope_random_unit_h(self, lam):
        rng = np.random.default_rng(23)
        t = build_table(BorelParams(lam), 60)
        k = np.arange(2, 61)
        cap = 1.0 / ((1.0 - lam) ** 2 * (k - 1))
        for _ in range(25):
            sol = solve_f(rng.random(60), t)
            assert np.all(np.abs(sol.f[2:]) <= cap + sol.trunc_error[2:] + 1e-12)

    def test_indicator_h_solution_is_finite_and_bounded(self):
        t = build_table(BorelParams(0.3), 60)
        h = np.zeros(60)
        h[::2] = 1.0  # indicator of even window positions
        sol = solve_f(h, t)
        assert np.all(np.isfinite(sol.f))
        assert np.max(np.abs(sol.f[2:])) <= 1.0 / 0.49 + 1e-12


class TestResidual:
    def test_indicator_residuals_small(self):
        t = build_table(BorelParams(0.3), 120)
        h = np.zeros(120)
        h[0] = 1.0
        sol = solve_f(h, t)
        for k in range(2, 31):
            assert stein_residual(sol, h, k).residual <= 1e-8

    def test_even_indicator_residuals(self):
        t = build_table(BorelParams(0.3), 60)
        h = np.zeros(60)
        h[1::2] = 1.0
        sol = solve_f(h, t)
        for k in range(2, 31):
            assert stein_residual(sol, h, k).residual <= 1e-8

    def test_random_sign_h_residuals(self):
        rng = np.random.default_rng(31)
        t = build_table(BorelParams(0.5), 120)
        for _ in range(20):
            h = rng.choice([-1.0, 1.0], size=120)
            sol = solve_f(h, t)
            for k in range(2, 21):
                assert stein_residual(sol, h, k).residual <= 1e-7

    def test_constant_h_zero_residual(self):
        t = build_table(BorelParams(0.3), 60)
        h = np.full(60, 0.7)
        sol = solve_f(h, t)
        rep = stein_residual(sol, h, 5)
        assert rep.residual <= 1e-12

    def test_distributional_identity(self):
        # averaging the equation's right side under the Borel law itself
        # must vanish, since the left side centers h
        for lam in (0.3, 0.5):
            p = BorelParams(lam)
            t = build_table(p, 80)
            rng = np.random.default_rng(37)
            h = rng.random(80)
            sol = solve_f(h, t)
            total = 0.0
            for k in range(2, 79):
                inner = float(np.dot(sol.f[k + 1 : 81], t.q[1 : 80 - k + 1]))
                rhs = (1 - lam) * (k - 1) * sol.f[k] - lam * (1 - lam) * k * inner
                total += t.q[k] * rhs
            # k = 1 contributes h(1) - e_h times q(1); add the LHS there
            total += t.q[1] * (h[0] - sol.e_h)
            assert abs(total) <= 1e-8

    def test_remainder_bound_is_positive(self):
        t = build_table(BorelParams(0.7), 60)
        h = np.ones(60)
        h[5] = -1.0
        sol = solve_f(h, t)
        rep = stein_residual(sol, h, 30)
        assert rep.remainder_bound > 0.0

    def test_expectation_identity_for_mean_matched_law(self):
        # E[h(W)] - E[h(Z)] equals E[f(W*)] - E[f(mixture)] for a law with
        # the matched mean, up to the tracked truncation residue
        lam = 0.3
        p = BorelParams(lam)
        M = 120
        t = build_table(p, M)
        w = mean_matched_borel_window(lam)
        assert w.end + borel.law(p, 1e-10).end <= M
        wstar = size_bias(w)
        mixed = mixture_rhs(w, wstar, p, 1e-10)
        rng = np.random.default_rng(41)
        for _ in range(5):
            h = rng.random(M)
            sol = solve_f(h, t)
            lhs = float(np.dot(h[: w.size], w.probs)) - sol.e_h
            e_f_star = float(np.dot(sol.f[1 : wstar.end + 1], wstar.probs))
            e_f_mix = float(np.dot(sol.f[1 : mixed.end + 1], mixed.probs[:M]))
            assert lhs == pytest.approx(e_f_star - e_f_mix, abs=1e-7)


def scalar_residual(sol, h, k):
    """The single-k defect the library computed before it took an array of k.

    One dot product for the inner sum at one k; returns (residual, remainder).
    """
    table = sol.table
    M, lam = table.M, table.lam
    lhs = h[k - 1] - sol.e_h
    inner = float(np.dot(sol.f[k + 1 : M + 1], table.q[1 : M - k + 1]))
    rhs = (1.0 - lam) * (k - 1) * sol.f[k] - lam * (1.0 - lam) * k * inner
    hz_sup = max(float(np.max(np.abs(h - sol.e_h))), abs(sol.e_h)) / (1.0 - lam)
    sums_q, _ = table._tail_sums
    remainder = lam * k * hz_sup * float(sums_q[M - k]) / M
    return abs(lhs - rhs), remainder


def far_tail_sums(lam, M):
    """``sum_{j > W} q(j)`` and ``sum_{j > W} j q(j)`` for W < M, summed far past M.

    Each suffix is an exact float sum (``math.fsum``) of the pmf out to
    ``M + 40 M + 80 / decay_rate`` points, or 10^5 past M near lam -> 1: a
    lower bound on each tail, and within 1e-30 of it wherever it reaches
    that far.
    """
    p = BorelParams(lam)
    far = M + min(40 * M + int(80.0 / p.decay_rate), 10**5)
    q = borel.pmf_values(p, far)
    jq = np.arange(1.0, far + 1.0) * q
    sums = []
    for terms in (q, jq):
        beyond = math.fsum(terms[M:].tolist())
        sums.append(np.array([math.fsum(terms[W:M].tolist()) + beyond for W in range(M)]))
    return sums


class TestTailSums:
    """The table's tail sums against far-summed references: upper bounds everywhere."""

    # float summation order alone may move a sum by this much, relative
    ROUNDING = 1e-13

    @pytest.mark.parametrize("M", [60, 120])
    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.9, 0.999])
    def test_trunc_error_and_remainder_bound_are_upper_bounds(self, lam, M):
        ref_q, ref_jq = far_tail_sums(lam, M)
        h = np.random.default_rng(79).random(M)
        sol = solve_f(h, build_table(BorelParams(lam), M))
        k = np.arange(2, M)
        want = lam * ref_jq[M - k] / ((k - 1) * (1.0 - lam))
        assert np.all(sol.trunc_error[k] >= want * (1.0 - self.ROUNDING))
        rep = stein_residual(sol, h, k)
        want = lam * k * sol.hz_sup * ref_q[M - k] / M
        assert np.all(rep.remainder_bound >= want * (1.0 - self.ROUNDING))
        assert np.all(rep.remainder_bound > 0.0)


class TestStackedSolve:
    """An (n, M) stack of test functions against n single solves."""

    @pytest.mark.parametrize("M", [60, 400])
    @pytest.mark.parametrize("lam", [0.001, 0.3, 0.9, 0.999])
    def test_rows_equal_single_solves_bit_for_bit(self, lam, M):
        t = build_table(BorelParams(lam), M)
        hs = np.random.default_rng(61).uniform(-1.0, 1.0, size=(7, M))
        stacked = solve_f(hs, t)
        assert stacked.f.shape == (7, M + 1) and stacked.e_h.shape == (7,)
        for i, h in enumerate(hs):
            single = solve_f(h, t)
            assert isinstance(single.e_h, float)
            assert stacked.e_h[i] == single.e_h
            assert stacked.hz_sup[i] == single.hz_sup
            assert np.array_equal(stacked.f[i], single.f)
            assert np.array_equal(stacked.trunc_error, single.trunc_error)

    def test_one_row_stack_keeps_its_axis(self):
        t = build_table(BorelParams(0.5), 30)
        sol = solve_f(np.ones((1, 30)), t)
        assert sol.f.shape == (1, 31) and sol.e_h.shape == (1,)

    @pytest.mark.parametrize("M", [60, 400])
    @pytest.mark.parametrize("lam", GRID)
    def test_back_substitution_matches_the_table(self, lam, M):
        t = build_table(BorelParams(lam), M)
        hs = np.random.default_rng(83).uniform(-1.0, 1.0, size=(5, M))
        sol = solve_f(hs, t)
        h_z = np.zeros((5, M + 1))
        h_z[:, 1:] = (hs - sol.e_h[:, None]) / (1.0 - lam)
        want = h_z @ t.a.T  # a's rows 0 and 1 are zero, as f(0) and f(1) are
        assert np.abs(sol.f - want).max() <= 1e-14 * np.abs(want).max()

    def test_solves_never_build_the_table(self):
        t = build_table(BorelParams(0.5), 1000)
        hs = np.random.default_rng(89).random((3, 1000))
        sol = solve_f(hs, t)
        stein_residual(sol, hs, np.arange(2, 1000))
        assert "a" not in vars(t)
        assert t.a[2, 2] == 1.0 and "a" in vars(t)
        assert not t.a.flags.writeable

    @pytest.mark.parametrize("shape", [(29,), (31,), (2, 29), (2, 3, 30), ()])
    def test_wrong_shape_rejected(self, shape):
        t = build_table(BorelParams(0.5), 30)
        with pytest.raises(ValueError):
            solve_f(np.zeros(shape), t)


class TestResidualArrayK:
    """Array k and stacked h against the single-k loop, one dot product each."""

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.9])
    def test_vector_h_matches_scalar_loop(self, lam):
        t = build_table(BorelParams(lam), 120)
        h = np.random.default_rng(67).uniform(-1.0, 1.0, size=120)
        sol = solve_f(h, t)
        k = np.arange(2, 120)
        rep = stein_residual(sol, h, k)
        assert rep.residual.shape == rep.remainder_bound.shape == k.shape
        for i, kk in enumerate(k.tolist()):
            residual, remainder = scalar_residual(sol, h, kk)
            assert abs(rep.residual[i] - residual) <= 1e-15
            assert rep.remainder_bound[i] == remainder

    def test_stacked_h_matches_scalar_loop(self):
        t = build_table(BorelParams(0.7), 80)
        hs = np.random.default_rng(71).random((5, 80))
        sol = solve_f(hs, t)
        k = np.array([2, 9, 30, 79])
        rep = stein_residual(sol, hs, k)
        assert rep.residual.shape == (5, 4)
        for n, h in enumerate(hs):
            single = solve_f(h, t)
            for i, kk in enumerate(k.tolist()):
                residual, remainder = scalar_residual(single, h, kk)
                assert abs(rep.residual[n, i] - residual) <= 1e-15
                assert rep.remainder_bound[n, i] == remainder

    def test_scalar_k_gives_floats_and_stacks_give_rows(self):
        t = build_table(BorelParams(0.5), 40)
        hs = np.random.default_rng(73).random((3, 40))
        one = stein_residual(solve_f(hs[0], t), hs[0], 7)
        assert isinstance(one.residual, float) and isinstance(one.remainder_bound, float)
        rows = stein_residual(solve_f(hs, t), hs, np.int32(7))
        assert rows.residual.shape == (3,)
        assert rows.remainder_bound[0] == one.remainder_bound

    @pytest.mark.parametrize("k", [1, 40, 2.0, np.array([2, 40]), np.array([3.0])])
    def test_bad_k_rejected(self, k):
        t = build_table(BorelParams(0.5), 40)
        h = np.ones(40)
        with pytest.raises(ValueError):
            stein_residual(solve_f(h, t), h, k)

    def test_h_must_match_the_solution(self):
        t = build_table(BorelParams(0.5), 40)
        hs = np.ones((2, 40))
        with pytest.raises(ValueError):
            stein_residual(solve_f(hs, t), hs[0], 5)


class TestSizeBiasTvBound:
    def test_borel_itself_scores_near_zero(self):
        for lam in (0.3, 0.5, 0.9):
            p = BorelParams(lam)
            w = mean_matched_borel_window(lam)
            bound = size_bias_tv_bound(w, p, 1e-10)
            budget = 10.0 * (
                size_bias_tail_estimate(borel.law(p, 1e-10)) + 2e-10
            ) / (1.0 - lam) ** 2
            assert bound.upper <= budget

    def test_mean_mismatch_rejected(self):
        with pytest.raises(MeanMismatch):
            size_bias_tv_bound(point_mass(3), BorelParams(0.5), 1e-10)

    @pytest.mark.parametrize("lam", [0.3, 0.5])
    def test_dominates_exact_tv_on_perturbations(self, lam):
        p = BorelParams(lam)
        base = mean_matched_borel_window(lam)
        L = borel.law(p, 1e-10)
        rng = np.random.default_rng(53)
        for _ in range(25):
            w = perturb_mean_preserving(base, rng)
            exact = tv_distance(w, L).lower
            bound = size_bias_tv_bound(w, p, 1e-10)
            assert exact <= bound.upper

    def test_small_perturbation_scale(self):
        p = BorelParams(0.5)
        base = mean_matched_borel_window(0.5)
        rng = np.random.default_rng(59)
        w = perturb_mean_preserving(base, rng, scale=1e-3)
        exact = tv_distance(w, borel.law(p, 1e-10)).lower
        assert exact <= size_bias_tv_bound(w, p, 1e-10).upper


def perturb_mean_preserving(base, rng, scale=None):
    """Shift mass by eps * (+1, -2, +1) on a random consecutive triple.

    Leaves both the total mass and the mean untouched; the perturbation size
    is capped so no entry can go negative.
    """
    probs = np.array(base.probs)
    i = int(rng.integers(0, min(8, probs.size - 2)))
    room = min(probs[i], probs[i + 1] / 2.0, probs[i + 2])
    eps = (scale if scale is not None else rng.random() * 0.3) * room
    sign = 1.0 if rng.random() < 0.5 else -1.0
    probs[i] += sign * eps
    probs[i + 1] -= 2.0 * sign * eps
    probs[i + 2] += sign * eps
    return make_law(probs)


class TestAbel:
    def test_first_values(self):
        assert abel_sum(1) == 1
        assert abel_sum(2) == 4
        assert abel_sum(3) == 27

    def test_exact_up_to_sixty(self):
        for j in range(1, 61):
            assert abel_sum(j) == j**j

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            abel_sum(0)
