"""Tail inequalities for the Borel(lambda) distribution.

The distribution function has no tractable closed form, so explicit tail
bounds matter.  Standardizing by the mean 1/(1-lam) and standard deviation
sqrt(lam) (1-lam)^(-3/2):

* lower tail:  P(std(Z) <= -t) <= exp(-t^2 / 2) for all t > 0;
* upper tail:  for any slack delta in (0, lam - log(lam) - 1), with
  gamma = lam - log(lam) - 1 - delta and

      K = (lam/2) * ( (1-lam) e^-delta / (lam sqrt(2 pi) (1 - e^-delta)^2)
                      + (1-lam)^-2 ),

  P(std(Z) >= t) is at most exp(-lam t^2 / (2 K (1-lam)^2)) below the
  breakpoint t = K gamma (1-lam)^2 / lam and exp(-gamma t + K gamma^2
  (1-lam)^2 / (2 lam)) above it; the two branches agree at the breakpoint.

The exponential-moment engine behind the upper bound is the size-bias
moment inequality

    E[Z* exp(gamma Z*)] <= (1-lam) e^-delta / (lam sqrt(2 pi) (1-e^-delta)^2),

which :func:`mgf_moment_check` verifies in closed form, and the
moment-generating-function gap bound E[e^(th Z*) - e^(th Z)] <= K th m(th)
for th in (0, gamma), verified by :func:`exp_moment_gap_check`.  Both use
the tree function T (Haight & Breuer 1960; Corless et al. 1996), the root
in (0, 1] of T - log T = 1 + delta at slack delta = delta_limit(lam) - th:
m(th) = E e^(th Z) = T / lam, and Z* is a geometric sum of Borel draws, so
E e^(th Z*) = (1-lam) m / (1 - lam m) = (1-lam) T / (lam (1-T)).  Exact tails
for comparison come from the truncated law with the residual window mass as
an explicit error bar, so every domination check is one-sided rigorous.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import borel
from .borel import BorelParams
from .errors import DeltaOutOfRange

_EXACT_TAIL_EPS = 1e-13
_GAP_REL_TOL = 1e-9
# far from the root each step about halves the distance to it, so from
# u = -1 - delta every positive double delta converges in under 540 steps
_TREE_STEPS = 600
# 1/k! for k = 16, ..., 2: Horner coefficients of (e^u - 1 - u) / u^2, whose
# first omitted term is below 1e-18 of the sum for |u| < 1/2
_EXP_SERIES = [1.0 / math.factorial(k) for k in range(16, 1, -1)]

TailEstimate = namedtuple("TailEstimate", ["value", "error_bar"])
DeltaChoice = namedtuple("DeltaChoice", ["delta", "bound"])


def delta_limit(lam: float) -> float:
    """Feasible slack range is (0, lam - log(lam) - 1), nonempty for lam != 1."""
    return borel._decay_rate(lam)


@dataclass(frozen=True)
class UpperTailParams:
    """Parameter bundle (lambda, delta, gamma, K) for the upper tail bound."""

    lam: float
    delta: float
    gamma: float
    K: float

    @property
    def breakpoint(self) -> float:
        """Where the Gaussian-type branch hands over to the linear-rate one."""
        return _breakpoint(self.lam, self.gamma, self.K)


def _check_t(t: float) -> None:
    """Every tail function needs a finite standardized distance ``t > 0``."""
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"need finite t > 0, got {t}")


def _moment_cap(lam: float, delta: float) -> float:
    """Closed-form cap (1-lam) e^-delta / (lam sqrt(2 pi) (1 - e^-delta)^2)."""
    return (1.0 - lam) * math.exp(-delta) / (
        lam * math.sqrt(2.0 * math.pi) * (1.0 - math.exp(-delta)) ** 2
    )


def _gamma_K(lam: float, limit: float, delta: float) -> tuple[float, float]:
    """The derived constants (gamma, K) for a slack, with ``limit = delta_limit(lam)``."""
    K = 0.5 * lam * (_moment_cap(lam, delta) + 1.0 / (1.0 - lam) ** 2)
    return limit - delta, K


def _breakpoint(lam: float, gamma: float, K: float) -> float:
    return K * gamma * (1.0 - lam) ** 2 / lam


def _piecewise_bound(lam: float, gamma: float, K: float, t: float) -> float:
    """The two-branch upper-tail bound, continuous at the breakpoint."""
    if t < _breakpoint(lam, gamma, K):
        return math.exp(-lam * t * t / (2.0 * K * (1.0 - lam) ** 2))
    return math.exp(-gamma * t + K * gamma * gamma * (1.0 - lam) ** 2 / (2.0 * lam))


def make_params(lam: float, delta: float) -> UpperTailParams:
    """Validate the slack and fill in the derived constants."""
    BorelParams(lam)  # range check on lambda
    limit = delta_limit(lam)
    if delta <= 0.0 or limit - delta <= 0.0:
        raise DeltaOutOfRange(
            f"delta must lie in (0, {limit:g}) for lambda={lam}, got {delta}"
        )
    gamma, K = _gamma_K(lam, limit, delta)
    return UpperTailParams(lam=lam, delta=delta, gamma=gamma, K=K)


def upper_tail_bound(params: UpperTailParams, t: float) -> float:
    """Piecewise upper-tail bound, continuous at the breakpoint."""
    _check_t(t)
    return _piecewise_bound(params.lam, params.gamma, params.K, t)


def lower_tail_bound(t: float) -> float:
    """Gaussian lower-tail bound exp(-t^2 / 2)."""
    _check_t(t)
    return math.exp(-t * t / 2.0)


def exact_tail(p: BorelParams, t: float, side: str) -> TailEstimate:
    """Exact standardized tail from the truncated law.

    The lower side is a finite window sum, so its error bar is zero; the
    upper side is one minus a partial sum, so the unresolved window tail is
    returned as the error bar (true value in [value, value + error_bar]).
    """
    _check_t(t)
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    sd = math.sqrt(p.variance)
    L = borel.law(p, _EXACT_TAIL_EPS)
    if side == "lower":
        threshold = p.mean - t * sd
        if threshold < 1.0:
            return TailEstimate(value=0.0, error_bar=0.0)
        top = min(math.floor(threshold), L.end)
        value = float(math.fsum(L.probs[:top].tolist()))
        return TailEstimate(value=value, error_bar=0.0)
    threshold = p.mean + t * sd
    if threshold > L.end:
        return TailEstimate(value=0.0, error_bar=L.tail_mass)
    j_min = math.ceil(threshold)
    if j_min <= 1:
        return TailEstimate(value=1.0 - L.tail_mass, error_bar=L.tail_mass)
    value = float(math.fsum(L.probs[j_min - 1 :].tolist()))
    return TailEstimate(value=value, error_bar=L.tail_mass)


def optimize_delta(lam: float, t: float) -> DeltaChoice:
    """Best slack for one (lambda, t): grid seed plus golden-section polish.

    Every feasible delta yields a valid bound, so minimizing only tightens;
    the search is deterministic, making reported bounds reproducible.  The
    objective is the float arithmetic of :func:`make_params` and
    :func:`upper_tail_bound` without their per-call validation: lambda and
    t are checked once here, and every probed delta lies inside the range.
    """
    _check_t(t)
    BorelParams(lam)  # range check on lambda
    limit = delta_limit(lam)
    lo, hi = 1e-6, limit - 1e-6

    def objective(delta: float) -> float:
        return _piecewise_bound(lam, *_gamma_K(lam, limit, delta), t)

    if lo >= hi:  # extremely small feasible range; fall back to its middle
        mid = limit / 2.0
        return DeltaChoice(delta=mid, bound=objective(mid))
    grid = np.linspace(lo, hi, 64).tolist()
    values = [objective(d) for d in grid]
    best = values.index(min(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
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
    return DeltaChoice(delta=delta, bound=objective(delta))


def _tree(delta: float) -> tuple[float, float]:
    """``(T, 1 - T)`` for the root T in (0, 1] of ``T - log T = 1 + delta``.

    Newton in ``u = log T`` on ``F(u) = delta - (e^u - 1 - u)``, which is
    increasing and concave for u <= 0 and negative at the start
    ``u = -1 - delta``, so the iterates rise to the root without
    overshooting.  For ``|u| < 1/2``, where the leading terms of
    ``e^u - 1 - u`` cancel, it is summed as ``u^2/2! + u^3/3! + ...``.
    """
    u = -1.0 - delta
    for _ in range(_TREE_STEPS):
        if u > -0.5:
            excess = 0.0
            for c in _EXP_SERIES:
                excess = excess * u + c
            excess *= u * u
        else:
            excess = math.exp(u) - 1.0 - u
        step = (excess - delta) / -math.expm1(u)
        if not u + step > u:
            break
        u += step
    return math.exp(u), -math.expm1(u)


def biased_exp_moment(params: UpperTailParams) -> float:
    """E[Z* exp(gamma Z*)] = (1-lam) T / (lam (1-T)^3), T at slack delta.

    This is the th-derivative of E e^(th Z*) = (1-lam) T / (lam (1-T)) at
    th = gamma, since dT/dth = T / (1-T).
    """
    lam = params.lam
    T, one_minus_T = _tree(params.delta)
    return (1.0 - lam) * T / (lam * one_minus_T**3)


def mgf_moment_check(params: UpperTailParams) -> bool:
    """Does the closed-form E[Z* exp(gamma Z*)] respect its cap?"""
    return biased_exp_moment(params) <= _moment_cap(params.lam, params.delta)


def exp_moment_gap_check(params: UpperTailParams) -> bool:
    """Verify E[e^(th Z*)] - E[e^(th Z)] <= K th m(th) at th = gamma / 2.

    Both sides take T at slack ``delta_limit(lam) - th``, and the check
    allows ``_GAP_REL_TOL`` of relative float slack on the dominating side.
    """
    lam = params.lam
    theta = params.gamma / 2.0
    T, one_minus_T = _tree(delta_limit(lam) - theta)
    m_theta = T / lam
    star = (1.0 - lam) * T / (lam * one_minus_T)
    gap = star - m_theta
    return gap <= params.K * theta * m_theta * (1.0 + _GAP_REL_TOL)
