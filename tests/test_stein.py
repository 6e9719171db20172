"""Stein machinery tests: recursion, envelopes, residuals, TV bound, Abel oracle."""

import math

import numpy as np
import pytest

from borelstein import borel
from borelstein.borel import BorelParams
from borelstein.errors import InsufficientWindow, MeanMismatch
from borelstein.lawkit import make_law, point_mass, tv_distance
from borelstein.sizebias import mixture_rhs, size_bias, size_bias_tail_estimate
from borelstein.stein import (
    abel_sum,
    build_table,
    build_table_hp,
    coefficient_bound,
    solve_f,
    stein_residual,
    size_bias_tv_bound,
)

GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def mean_matched_borel_window(lam, eps=1e-10):
    """Borel window renormalized to a zero-tail law with exactly matched mean.

    A small mass shift between the first two support points pins the mean to
    1/(1-lam) exactly, so the TV-bound hypothesis holds with no slack.
    """
    L = borel.law(BorelParams(lam), eps)
    probs = np.array(L.probs / (L.window_sum()))
    target = 1.0 / (1.0 - lam)
    delta = target - float(np.dot(np.arange(1.0, probs.size + 1.0), probs))
    probs[0] -= delta
    probs[1] += delta
    return make_law(probs)


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
        p = BorelParams(0.5)
        t = build_table(p, 20)
        hp = build_table_hp(p, 20)
        worst = 0.0
        for m in range(2, 21):
            for k in range(2, m + 1):
                exact = float(hp[k][m])
                worst = max(worst, abs(t.a[k, m] - exact) / exact)
        assert worst <= 1e-13

    def test_table_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            build_table(BorelParams(0.5), 1)


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

    def test_remainder_bound_and_insufficient_window(self):
        t = build_table(BorelParams(0.7), 60)
        h = np.ones(60)
        h[5] = -1.0
        sol = solve_f(h, t)
        rep = stein_residual(sol, h, 30)
        assert rep.remainder_bound > 0.0
        with pytest.raises(InsufficientWindow):
            stein_residual(sol, h, 30, accuracy=rep.remainder_bound / 10.0)

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
            e_f_star = float(np.dot(sol.f[wstar.start : wstar.end + 1], wstar.probs))
            e_f_mix = float(
                np.dot(sol.f[mixed.start : mixed.end + 1], mixed.probs[: M])
            )
            assert lhs == pytest.approx(e_f_star - e_f_mix, abs=1e-7)


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
