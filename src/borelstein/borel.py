"""The Borel(lambda) distribution: pmf, truncated law, moments, sampler.

The law of the total progeny of a branching process whose offspring counts
are Poisson with mean ``lambda < 1``.  Mass function at j >= 1:

    p(j) = exp(-lambda * j) * (lambda * j)**(j - 1) / j!

Everything is computed in log space; the direct formula is used only for
small j, where its terms are small enough that double precision keeps the
relative error near 1e-15.  For larger j the factorial is expanded with a
Stirling series so the O(j log j) terms cancel analytically instead of
numerically, keeping the relative error of the pmf below 1e-12 out to at
least j = 1e6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidIndex, WindowOverflow
from .lawkit import TruncatedLaw, _trusted

DEFAULT_WINDOW_CAP = 10_000_000
# below machine epsilon, the rounding of the window sum, whose complement is
# the reported tail mass, outweighs eps
MIN_EPS = float(np.finfo(float).eps)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# largest j computed with the naive formula; above it the Stirling path is
# both cheaper and more accurate
_DIRECT_J_MAX = 32
# log n! for n <= _DIRECT_J_MAX
_LOG_FACTORIALS = np.array([math.lgamma(n + 1.0) for n in range(_DIRECT_J_MAX + 1)])


def _stirling(x):
    """Stirling correction ``log x! - (x + 1/2) log x + x - log(2 pi) / 2``.

    The series ``1/(12x) - 1/(360x^3) + 1/(1260x^5) - 1/(1680x^7)``, by
    Horner in 1/x^2; its first omitted term, ``1/(1188x^9)``, is below
    2e-17 for x > 32.
    """
    r = 1.0 / x
    r2 = r * r
    return r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)))


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """log n! for an array of integers n >= 0 (any numeric dtype).

    Up to ``_DIRECT_J_MAX`` from a table of ``math.lgamma``; above it from
    Stirling's formula with the correction ``_stirling``.  Arrays whose
    entries all lie in the table only index it.
    """
    n = np.asarray(n)
    if n.max(initial=0) <= _DIRECT_J_MAX:
        return _LOG_FACTORIALS[n.astype(np.intp)]
    n = n.astype(float)
    out = np.empty_like(n)
    small = n <= _DIRECT_J_MAX
    out[small] = _LOG_FACTORIALS[n[small].astype(np.intp)]
    big = n[~small]
    out[~small] = (big + 0.5) * np.log(big) - big + _HALF_LOG_TWO_PI + _stirling(big)
    return out


def _poisson_masses(mu: float, size: int) -> np.ndarray:
    """P(Poisson(mu) = k) for k = 0, ..., size - 1, from the log-space mass; mu > 0."""
    k = np.arange(size, dtype=float)
    return np.exp(k * math.log(mu) - mu - _log_factorial(k))


@dataclass(frozen=True)
class BorelParams:
    """Offspring mean ``lam`` in (0, 1), strictly subcritical."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lambda must lie strictly in (0, 1), got {self.lam}")

    @property
    def mean(self) -> float:
        return 1.0 / (1.0 - self.lam)

    @property
    def variance(self) -> float:
        return self.lam / (1.0 - self.lam) ** 3

    @property
    def decay_rate(self) -> float:
        """Exponential decay rate of the pmf: lambda - 1 - log(lambda) > 0."""
        return _decay_rate(self.lam)


@lru_cache(maxsize=1024)
def _decay_rate(lam: float) -> float:
    """``lam - 1 - log(lam)``, summed without cancellation.

    For ``1/2 <= lam <= 1``, where ``x = 1 - lam`` is exact, it is summed as
    ``x^2/2 + x^3/3 + ...``, every term positive.  Written out, two terms
    near ``x`` cancel to about ``x^2 / 2`` and leave a relative error near
    ``eps / x`` (8.6e-15 at lam 0.99).  Other ``lam`` take the written-out
    form, whose terms do not cancel.
    """
    if not 0.5 <= lam <= 1.0:
        return lam - 1.0 - math.log(lam)
    x = 1.0 - lam
    terms, power, k = [], x * x, 2
    # the first term is x^2 / 2; stop once a term is below 2^-60 of it
    while power > 2.0**-60 * x * x:
        terms.append(power / k)
        power *= x
        k += 1
    return math.fsum(reversed(terms))


def _log_pmf_array(lam: float, j: np.ndarray) -> np.ndarray:
    """log p(j) for a vector of indices j >= 1."""
    j = np.asarray(j, dtype=float)
    out = np.empty_like(j)
    small = j <= _DIRECT_J_MAX
    if small.any():
        js = j[small]
        out[small] = -lam * js + (js - 1.0) * np.log(lam * js) - _log_factorial(js)
    if (~small).any():
        jl = j[~small]
        # p(j) = exp(-g0*j) / (lam * sqrt(2*pi) * j^{3/2}) * exp(-S(j)) with
        # g0 = lam - 1 - log(lam) and S the Stirling correction series
        g0 = _decay_rate(lam)
        out[~small] = (
            -g0 * jl - math.log(lam) - 1.5 * np.log(jl) - _HALF_LOG_TWO_PI - _stirling(jl)
        )
    return out


def log_pmf(p: BorelParams, j: int) -> float:
    """Log of the mass at the positive integer ``j``."""
    if j < 1 or int(j) != j:
        raise InvalidIndex(f"support is {{1, 2, ...}}, got {j}")
    return float(_log_pmf_array(p.lam, np.array([float(j)]))[0])


def pmf(p: BorelParams, j: int) -> float:
    return math.exp(log_pmf(p, j))


def pmf_values(p: BorelParams, M: int) -> np.ndarray:
    """Vector of p(1), ..., p(M)."""
    if M < 1:
        raise InvalidIndex(f"window must be >= 1, got {M}")
    return np.exp(_log_pmf_array(p.lam, np.arange(1.0, M + 1.0)))


def _suffix_remainders(lam: float, W, q_w=None):
    """Upper bounds on ``sum_{j > W} q(j)`` and ``sum_{j > W} j q(j)``, elementwise in W.

    The pmf ratio ``q(j+1) / q(j) = lam e^-lam (1 + 1/j)^(j-1)`` rises to
    ``r = exp(-decay_rate)``, so ``q(W + k) <= r^k q(W)`` and the two sums
    are at most ``q(W) r / (1 - r)`` and
    ``q(W) (W r / (1 - r) + r / (1 - r)^2)``.  A caller that holds the pmf
    at W passes it as ``q_w`` rather than have it evaluated again.
    """
    if q_w is None:
        q_w = np.exp(_log_pmf_array(lam, W))
    decay = _decay_rate(lam)
    gap = -math.expm1(-decay)  # 1 - r, without cancellation near lam -> 1
    ratio = math.exp(-decay) / gap
    return q_w * ratio, q_w * (W * ratio + ratio / gap)


def _certified_window(masses, remainders, tol: float, cap: int) -> np.ndarray:
    """The terms ``a[0..K]`` of a series, cut where a certified remainder allows.

    ``masses(size)`` gives the terms at indices 0, ..., size - 1, and
    ``remainders(a)``, from those terms alone, an upper bound per index on
    the mass beyond that index.  K is the first index whose bound is at most
    ``tol``.  The window doubles from 64 points up to ``cap`` and raises
    ``WindowOverflow`` past it; the result is a copy, so it pins no search
    buffer.
    """
    size = min(64, cap)
    while True:
        a = masses(size)
        hit = np.flatnonzero(remainders(a) <= tol)
        if hit.size:
            return a[: hit[0] + 1].copy()
        if size >= cap:
            raise WindowOverflow(f"window cap {cap} too small for a remainder below {tol:g}")
        size = min(2 * size, cap)


def _pmf_window(lam: float, tol: float, cap: int, moment: int) -> np.ndarray:
    """p(1), ..., p(W) for the first W with ``sum_{j > W} j^moment q(j)`` bounded by tol.

    ``moment`` is 0 (the tail mass) or 1 (the tail of ``j q(j)``); the
    bound is ``_suffix_remainders``, from the masses already evaluated.
    """
    return _certified_window(
        lambda size: np.exp(_log_pmf_array(lam, np.arange(1.0, size + 1.0))),
        lambda q: _suffix_remainders(lam, np.arange(1.0, q.size + 1.0), q)[moment],
        tol,
        cap,
    )


def law(p: BorelParams, eps: float, cap: int = DEFAULT_WINDOW_CAP) -> TruncatedLaw:
    """Truncated law cut at the first W whose certified tail bound is at most ``eps``.

    The bound on the mass above W is ``_suffix_remainders``, a geometric
    ratio remainder; the tail mass is the exact complement of the window
    sum.  Raises ``WindowOverflow`` when more than ``cap`` window points
    would be needed, which signals that ``lam`` is too close to 1 for the
    requested ``eps``.  An ``eps`` below ``MIN_EPS`` is rejected: the
    window sum's rounding would outweigh it.

    Equal arguments return the same law object: ``TruncatedLaw`` is frozen
    with read-only probabilities, so the last few laws are memoized (see
    ``_LAW_CACHE_SIZE``).  A ``WindowOverflow`` is raised afresh each call.
    """
    if not MIN_EPS <= eps < 1.0:
        raise ValueError(f"eps must lie in [{MIN_EPS:g}, 1), got {eps}")
    return _law(p.lam, eps, cap)


# The report asks for 254 laws but only 36 distinct (lam, eps) pairs, and
# its repeats come back to back: 4 entries catch 195 of the 218 repeats
# while holding at most 9,257 points.  The size stays small because one
# window near lam -> 1 can take up to ``cap`` points (80 MB at the default).
_LAW_CACHE_SIZE = 4


@lru_cache(maxsize=_LAW_CACHE_SIZE)
def _law(lam: float, eps: float, cap: int) -> TruncatedLaw:
    # q(j) decreases in j, so if the bound at the cap exceeds eps, so does
    # the bound at every W <= cap: fail before searching
    if cap < 1 or _suffix_remainders(lam, cap)[0] > eps:
        raise WindowOverflow(f"window cap {cap} too small for a remainder below {eps:g}")
    probs = _pmf_window(lam, eps, cap, 0)
    tail = 1.0 - math.fsum(probs.tolist())
    return _trusted(probs, tail)


def sample_many(
    p: BorelParams,
    n: int,
    rng: np.random.Generator,
    cap: int = DEFAULT_WINDOW_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` independent total-progeny draws, vectorized over the frontier.

    The first generations are ``rng.poisson(lam, n)`` and every later one is
    walked by ``branching_totals``.  Returns ``(totals, censored)``;
    censored entries hold the cap value and are flagged rather than dropped.
    """
    first = rng.poisson(p.lam, n)
    return branching_totals(rng, first, lambda k: np.full(k, p.lam), cap)


def branching_totals(
    rng: np.random.Generator,
    first: np.ndarray,
    next_mu,
    cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized generation walk shared by the Borel and busy-period samplers.

    ``first`` gives each path's first-generation size (an integer array; a
    path with 0 ends after its root); ``next_mu(k)`` must return ``k`` fresh
    Poisson means, one per customer served in the round, consuming the
    generator in a fixed order so runs are reproducible.

    Each round serves a whole generation: every customer pending on a live
    path.  Poisson laws superpose, so the next generation of a path is one
    ``rng.poisson`` draw whose mean is the sum of its customers' means; numpy
    draws it exactly at every mean, with no cut-off.  The number of rounds is
    the height of the tallest tree, and each round costs one ``next_mu`` call
    for the customers served and one Poisson draw per live path.  Only the
    live paths, kept in increasing order, are touched.

    A path is censored iff its total exceeds ``cap``, found as soon as its
    served plus pending customers pass ``cap``; censored totals read ``cap``.
    A ``cap`` below 1 raises ``ValueError``.
    """
    if cap < 1:
        raise ValueError(f"censoring cap must be >= 1, got {cap}")
    first = np.asarray(first, dtype=np.int64).ravel()
    # totals count served plus pending customers; a live path has pending > 0
    totals = first + 1
    live = np.flatnonzero(first)
    pending = first[live]
    censored = np.zeros(totals.size, dtype=bool)
    most = 1  # upper bound on the served customers of every live path
    while live.size:
        most += int(pending.max())
        if most > cap:
            reach = totals[live]
            over = reach > cap
            totals[live[over]] = cap
            censored[live[over]] = True
            keep = ~over
            live, pending = live[keep], pending[keep]
            if not live.size:
                break
            most = int(reach[keep].max())
        starts = np.cumsum(pending)
        size = int(starts[-1])
        starts -= pending
        pending = rng.poisson(np.add.reduceat(next_mu(size), starts))
        totals[live] += pending
        going = pending > 0
        live, pending = live[going], pending[going]
    return totals, censored
