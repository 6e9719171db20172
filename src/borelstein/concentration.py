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

which :func:`mgf_moment_check` verifies by direct summation, and the
moment-generating-function gap bound E[e^(th Z*) - e^(th Z)] <= K th m(th)
for th in (0, gamma), verified by :func:`exp_moment_gap_check`.  Exact tails
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
from .errors import DeltaOutOfRange, SumDivergenceGuard

_EXACT_TAIL_EPS = 1e-13
_MAX_SERIES_INDEX = 10_000_000
_SERIES_CHUNK = 4096

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
        return self.K * self.gamma * (1.0 - self.lam) ** 2 / self.lam


def make_params(lam: float, delta: float) -> UpperTailParams:
    """Validate the slack and fill in the derived constants."""
    BorelParams(lam)  # range check on lambda
    gamma = delta_limit(lam) - delta
    if delta <= 0.0 or gamma <= 0.0:
        raise DeltaOutOfRange(
            f"delta must lie in (0, {delta_limit(lam):g}) for lambda={lam}, got {delta}"
        )
    first = (1.0 - lam) * math.exp(-delta) / (
        lam * math.sqrt(2.0 * math.pi) * (1.0 - math.exp(-delta)) ** 2
    )
    K = 0.5 * lam * (first + 1.0 / (1.0 - lam) ** 2)
    return UpperTailParams(lam=lam, delta=delta, gamma=gamma, K=K)


def upper_tail_bound(params: UpperTailParams, t: float) -> float:
    """Piecewise upper-tail bound, continuous at the breakpoint."""
    if t <= 0.0:
        raise ValueError("need t > 0")
    lam, gamma, K = params.lam, params.gamma, params.K
    if t < params.breakpoint:
        return math.exp(-lam * t * t / (2.0 * K * (1.0 - lam) ** 2))
    return math.exp(-gamma * t + K * gamma * gamma * (1.0 - lam) ** 2 / (2.0 * lam))


def lower_tail_bound(t: float) -> float:
    """Gaussian lower-tail bound exp(-t^2 / 2)."""
    if t <= 0.0:
        raise ValueError("need t > 0")
    return math.exp(-t * t / 2.0)


def exact_tail(p: BorelParams, t: float, side: str) -> TailEstimate:
    """Exact standardized tail from the truncated law.

    The lower side is a finite window sum, so its error bar is zero; the
    upper side is one minus a partial sum, so the unresolved window tail is
    returned as the error bar (true value in [value, value + error_bar]).
    """
    if t <= 0.0:
        raise ValueError("need t > 0")
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    sd = math.sqrt(p.variance)
    L = borel.law(p, _EXACT_TAIL_EPS)
    if side == "lower":
        threshold = p.mean - t * sd
        top = math.floor(threshold)
        if top < 1:
            return TailEstimate(value=0.0, error_bar=0.0)
        top = min(top, L.end)
        value = float(math.fsum(L.probs[: top - L.start + 1].tolist()))
        return TailEstimate(value=value, error_bar=0.0)
    threshold = p.mean + t * sd
    j_min = math.ceil(threshold)
    if j_min <= L.start:
        return TailEstimate(value=1.0 - L.tail_mass, error_bar=L.tail_mass)
    if j_min > L.end:
        return TailEstimate(value=0.0, error_bar=L.tail_mass)
    value = float(math.fsum(L.probs[j_min - L.start :].tolist()))
    return TailEstimate(value=value, error_bar=L.tail_mass)


def optimize_delta(lam: float, t: float) -> DeltaChoice:
    """Best slack for one (lambda, t): grid seed plus golden-section polish.

    Every feasible delta yields a valid bound, so minimizing only tightens;
    the search is deterministic, making reported bounds reproducible.
    """
    if t <= 0.0:
        raise ValueError("need t > 0")
    limit = delta_limit(lam)
    lo, hi = 1e-6, limit - 1e-6
    if lo >= hi:  # extremely small feasible range; fall back to its middle
        mid = limit / 2.0
        return DeltaChoice(delta=mid, bound=upper_tail_bound(make_params(lam, mid), t))

    def objective(delta: float) -> float:
        return upper_tail_bound(make_params(lam, delta), t)

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
    return DeltaChoice(delta=delta, bound=objective(delta))


def _sum_series(log_term, eps: float, what: str) -> float:
    """Sum exp(log_term(j)) over j >= 1 until the terms stop mattering.

    Terms must eventually decay geometrically; the guard trips if they fail
    to fall below round-off relevance within the index budget.
    """
    total = 0.0
    start = 1
    prev_max = math.inf
    while start <= _MAX_SERIES_INDEX:
        j = np.arange(start, start + _SERIES_CHUNK, dtype=float)
        terms = np.exp(log_term(j))
        total += float(math.fsum(terms.tolist()))
        chunk_max = float(terms.max())
        if chunk_max <= eps * max(total, 1e-300):
            return total
        if chunk_max > prev_max and start > 100_000:
            raise SumDivergenceGuard(f"{what}: terms not decreasing by j={start}")
        prev_max = chunk_max
        start += _SERIES_CHUNK
    raise SumDivergenceGuard(f"{what}: no convergence within {_MAX_SERIES_INDEX} terms")


def biased_exp_moment(params: UpperTailParams, eps: float = 1e-16) -> float:
    """E[Z* exp(gamma Z*)] by direct summation.

    Series form: (1-lam) sum_j exp((gamma-lam) j) lam^(j-1) j^(j+1) / j!,
    with the j = 1 edge equal to exp(gamma - lam).  Summable because the
    slack leaves exp(-delta j) sqrt(j) inside the terms.
    """
    lam, gamma = params.lam, params.gamma
    log_lam = math.log(lam)

    def log_term(j):
        return (
            (gamma - lam) * j
            + (j - 1.0) * log_lam
            + (j + 1.0) * np.log(j)
            - borel._log_factorial(j)
        )

    return (1.0 - lam) * _sum_series(log_term, eps, "size-biased exp moment")


def mgf_moment_check(params: UpperTailParams, eps: float = 1e-12) -> bool:
    """Does the summed E[Z* exp(gamma Z*)] respect its closed-form cap?"""
    cap = (1.0 - params.lam) * math.exp(-params.delta) / (
        params.lam * math.sqrt(2.0 * math.pi) * (1.0 - math.exp(-params.delta)) ** 2
    )
    return biased_exp_moment(params, eps=eps) <= cap


def exp_moment_gap_check(params: UpperTailParams, rel_tol: float = 1e-9) -> bool:
    """Verify E[e^(th Z*)] - E[e^(th Z)] <= K th m(th) at th = gamma / 2.

    All three expectations are summed directly from the pmf; the check
    allows ``rel_tol`` of relative float slack on the dominating side.
    """
    lam = params.lam
    theta = params.gamma / 2.0

    def log_q(j):
        return borel._log_pmf_array(lam, j)

    m_theta = _sum_series(lambda j: theta * j + log_q(j), 1e-16, "plain exp moment")
    star = (1.0 - lam) * _sum_series(
        lambda j: theta * j + np.log(j) + log_q(j), 1e-16, "biased exp moment"
    )
    gap = star - m_theta
    return gap <= params.K * theta * m_theta * (1.0 + rel_tol)
