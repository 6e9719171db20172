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
# below machine epsilon, 1 - eps rounds so close to 1 that no window sum certifies it
MIN_EPS = float(np.finfo(float).eps)
# accuracy to which tail sums of q(j) and j q(j) are resolved by default
_TAIL_REPORT_TOL = 1e-14

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# largest j computed with the naive formula; above it the Stirling path is
# both cheaper and more accurate
_DIRECT_J_MAX = 32
# largest Poisson mean whose inversion starts at k = 0; exp(-mu) underflows
# near mu = 745
_EXP_SAFE_MU = 700.0
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
        return self.lam - 1.0 - math.log(self.lam)


def mean(p: BorelParams) -> float:
    """Expected total progeny, 1 / (1 - lambda)."""
    return p.mean


def variance(p: BorelParams) -> float:
    """Variance of the total progeny, lambda / (1 - lambda)^3."""
    return p.variance


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
        g0 = lam - 1.0 - math.log(lam)
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


def _suffix_remainders(lam: float, W: int) -> tuple[float, float]:
    """Upper bounds on ``sum_{j > W} q(j)`` and ``sum_{j > W} j q(j)``.

    The pmf ratio ``q(j+1) / q(j) = lam e^-lam (1 + 1/j)^(j-1)`` rises to
    ``r = exp(-decay_rate)``, so ``q(W + k) <= r^k q(W)`` and the two sums
    are at most ``q(W) r / (1 - r)`` and
    ``q(W) (W r / (1 - r) + r / (1 - r)^2)``.
    """
    r = math.exp(-BorelParams(lam).decay_rate)
    q_w = float(np.exp(_log_pmf_array(lam, np.array([float(W)])))[0])
    return q_w * r / (1.0 - r), q_w * (W * r / (1.0 - r) + r / (1.0 - r) ** 2)


@lru_cache(maxsize=64)
def _pmf_suffix_sums(lam: float, tol: float = _TAIL_REPORT_TOL, min_size: int = 0):
    """Suffix sums of q(j) and j*q(j), indexed by cutoff W, with remainders.

    ``sums_q[W]`` bounds ``sum_{j > W} q(j)`` from above (same for j*q);
    the window extends until ``_suffix_remainders`` certifies the
    uncomputed part of ``sum j q(j)`` below ``tol``, and the remainders are
    folded into every entry so the reported sums stay upper bounds.
    """
    size = 1024
    while size < min_size:
        size *= 2
    while True:
        rem_q, rem_jq = _suffix_remainders(lam, size)
        if rem_jq <= tol:
            break
        size *= 2
    q = pmf_values(BorelParams(lam), size)
    jq = np.arange(1.0, size + 1.0) * q
    cum_q, cum_jq = np.cumsum(q), np.cumsum(jq)
    sums_q = np.concatenate([[cum_q[-1]], cum_q[-1] - cum_q]) + rem_q
    sums_jq = np.concatenate([[cum_jq[-1]], cum_jq[-1] - cum_jq]) + rem_jq
    sums_q.setflags(write=False)
    sums_jq.setflags(write=False)
    return sums_q, sums_jq


def law(p: BorelParams, eps: float, cap: int = DEFAULT_WINDOW_CAP) -> TruncatedLaw:
    """Smallest truncated law whose window holds at least ``1 - eps`` mass.

    The tail mass is the exact complement of the window sum.  Raises
    ``WindowOverflow`` when more than ``cap`` window points would be needed,
    which signals that ``lam`` is too close to 1 for the requested ``eps``.
    An ``eps`` below ``MIN_EPS`` is rejected: no double-precision window sum
    can certify it.
    """
    if not MIN_EPS <= eps < 1.0:
        raise ValueError(f"eps must lie in [{MIN_EPS:g}, 1), got {eps}")
    target = 1.0 - eps
    size = 512
    while True:
        if size > cap:
            size = cap
        q = np.exp(_log_pmf_array(p.lam, np.arange(1.0, size + 1.0)))
        cum = np.cumsum(q)
        hit = np.searchsorted(cum, target)
        if hit < q.size:
            M = int(hit) + 1
            probs = q[:M]
            tail = 1.0 - math.fsum(probs.tolist())
            return _trusted(probs, tail, 1)
        if size == cap:
            raise WindowOverflow(
                f"window cap {cap} too small for lambda={p.lam}, eps={eps}"
            )
        size *= 2


def _shifted_start(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``k0 = floor(mu - 10 sqrt(mu))`` and ``P(Poisson(mu) = k0)``, mu > 700.

    The log mass is ``-bd0 - log(2 pi k0) / 2 - stirling(k0)``, where
    ``bd0 = k0 log(k0 / mu) + mu - k0`` is summed as Loader's (2000) series
    ``d v + 2 k0 sum_{i >= 1} v^(2i+1) / (2i+1)`` with ``d = k0 - mu`` and
    ``v = d / (k0 + mu)``.  Written as ``k0 log mu - mu - log k0!``, terms of
    size k0 log k0 cancel to about -50 and keep an ulp of log k0! as error
    (1.9e-9 relative at mu = 1e6); here ``|v| < 0.2`` and the series keeps
    the mass within a few ulps.
    """
    k0 = np.floor(mu - 10.0 * np.sqrt(mu))
    d = k0 - mu
    v = d / (k0 + mu)
    v2 = v * v
    bd0 = d * v
    term = 2.0 * k0 * v
    i = 1
    while True:
        term = term * v2
        summed = bd0 + term / (2 * i + 1)
        if np.array_equal(summed, bd0):
            break
        bd0 = summed
        i += 1
    return k0, np.exp(-bd0 - 0.5 * np.log(2.0 * math.pi * k0) - _stirling(k0))


def poisson_draw_vec(rng: np.random.Generator, mu: np.ndarray) -> np.ndarray:
    """Vectorized Poisson inversion, one uniform per entry.

    Each draw is the least k with ``u <= P(X <= k)``, found by walking k
    upward with ``prob *= mu / k``.  Only the entries still walking are
    touched, so the cost is proportional to the sum of the draws, not to
    ``size * max draw``.  Means up to ``_EXP_SAFE_MU`` start at k = 0 from
    ``exp(-mu)``; larger means, where ``exp(-mu)`` underflows, start at
    ``k0 = floor(mu - 10 sqrt(mu))`` with the running sum at the log-space
    mass of k0 alone.  The Poisson lower tail obeys
    ``P(X < mu - t) <= exp(-t^2 / (2 mu))``, so the skipped mass is below
    ``exp(-50)``, under the 2^-53 spacing of the uniforms: only ``u == 0``
    draws differently than from k = 0.  A draw that would pass the guard
    ``mu.max() + 40 sqrt(mu.max() + 1) + 60`` returns the guard.
    """
    mu = np.asarray(mu, dtype=float)
    shape, n = mu.shape, mu.size
    mu = mu.ravel()
    u = rng.random(shape).ravel()
    top = mu.max(initial=0.0)
    limit = int(top + 40.0 * math.sqrt(top + 1.0) + 60.0)
    prob = np.exp(-mu)
    cum = prob
    shifted = top > _EXP_SAFE_MU
    if shifted:
        big = np.flatnonzero(mu > _EXP_SAFE_MU)
        k0, prob[big] = _shifted_start(mu[big])
        draws = np.zeros(n, dtype=np.int64)
        draws[big] = k0
    live = np.flatnonzero(u > cum)
    u, mu, prob, cum = u[live], mu[live], prob[live], cum[live]
    if shifted:
        start = draws[live]
    else:
        start = 0
        draws = np.zeros(n, dtype=np.int64)
    rounds = 0
    while live.size and rounds < limit:
        rounds += 1
        at = start + rounds
        prob *= mu / at
        cum += prob
        going = u > cum
        if shifted:
            going &= at < limit
        keep = np.flatnonzero(going)
        if keep.size < live.size:
            stop = ~going
            draws[live[stop]] = at[stop] if shifted else at
            live, u, mu, prob, cum = live[keep], u[keep], mu[keep], prob[keep], cum[keep]
            if shifted:
                start = start[keep]
    draws[live] = start + rounds
    return draws.reshape(shape)


def sample_many(
    p: BorelParams,
    n: int,
    rng: np.random.Generator,
    cap: int = DEFAULT_WINDOW_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` independent total-progeny draws, vectorized over the frontier.

    Returns ``(totals, censored)``; censored entries hold the cap value and
    are flagged rather than dropped.
    """
    first = poisson_draw_vec(rng, np.full(n, p.lam))
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
    Poisson draw whose mean is the sum of its customers' means.  The number
    of rounds is the height of the tallest tree, and each round costs one
    ``next_mu`` call for the customers served and one Poisson draw per live
    path.  Only the live paths, kept in increasing order, are touched.

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
        pending = poisson_draw_vec(rng, np.add.reduceat(next_mu(size), starts))
        totals[live] += pending
        going = pending > 0
        live, pending = live[going], pending[going]
    return totals, censored
