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
from scipy.special import gammaln, pdtr

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
        out[small] = -lam * js + (js - 1.0) * np.log(lam * js) - gammaln(js + 1.0)
    if (~small).any():
        jl = j[~small]
        # p(j) = exp(-g0*j) / (lam * sqrt(2*pi) * j^{3/2}) * exp(-S(j)) with
        # g0 = lam - 1 - log(lam) and S the Stirling correction series
        g0 = lam - 1.0 - math.log(lam)
        stirling = 1.0 / (12.0 * jl) - 1.0 / (360.0 * jl**3) + 1.0 / (1260.0 * jl**5)
        out[~small] = (
            -g0 * jl - math.log(lam) - 1.5 * np.log(jl) - _HALF_LOG_TWO_PI - stirling
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


@lru_cache(maxsize=64)
def _pmf_suffix_sums(lam: float, tol: float = _TAIL_REPORT_TOL, min_size: int = 0):
    """Suffix sums of q(j) and j*q(j), indexed by cutoff W, with remainders.

    ``sums_q[W]`` bounds ``sum_{j > W} q(j)`` from above (same for j*q);
    the window extends until the geometric-ratio bound
    ``q(j+1) <= exp(-decay_rate) q(j)`` certifies the uncomputed part of
    ``sum j q(j)`` below ``tol``, and that remainder is folded into every
    entry so the reported sums stay upper bounds.
    """
    p = BorelParams(lam)
    r = math.exp(-p.decay_rate)
    size = 1024
    while size < min_size:
        size *= 2
    while True:
        q = pmf_values(p, size)
        rem_jq = q[-1] * (size * r / (1.0 - r) + r / (1.0 - r) ** 2)
        if rem_jq <= tol:
            break
        size *= 2
    rem_q = q[-1] * r / (1.0 - r)
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


def poisson_draw_vec(rng: np.random.Generator, mu: np.ndarray) -> np.ndarray:
    """Vectorized Poisson inversion, one uniform per entry.

    Each draw is the least k with ``u <= P(X <= k)``, found by walking k
    upward with ``prob *= mu / k``.  Only the entries still walking are
    touched, so the cost is proportional to the sum of the draws, not to
    ``size * max draw``.  Means up to ``_EXP_SAFE_MU`` start at k = 0 from
    ``exp(-mu)``; larger means, where ``exp(-mu)`` underflows, start at
    ``k0 = floor(mu - 10 sqrt(mu))`` from the log-space mass and
    ``pdtr(k0, mu)``.  The Poisson lower tail obeys
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
        mb = mu[big]
        k0 = np.floor(mb - 10.0 * np.sqrt(mb))
        prob[big] = np.exp(k0 * np.log(mb) - mb - gammaln(k0 + 1.0))
        cum = prob.copy()
        cum[big] = pdtr(k0, mb)
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
    mus = np.full(n, p.lam)
    return branching_totals(rng, mus, lambda k: np.full(k, p.lam), cap)


def branching_totals(
    rng: np.random.Generator,
    first_mu: np.ndarray,
    next_mu,
    cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized frontier walk shared by the Borel and busy-period samplers.

    ``first_mu`` gives each path's initial Poisson mean; ``next_mu(k)`` must
    return ``k`` fresh means, one per still-active path, consuming the
    generator in a fixed order so runs are reproducible.

    Each round serves one pending customer on every live path, so all live
    paths share one total.  Only the live paths, kept in increasing order,
    are touched, and a path's result is written when it ends or is
    censored: the cost is proportional to the sum of the totals, not to
    ``n`` times the number of rounds.
    """
    # a path is live while it has had at least as many arrivals as services
    arrived = poisson_draw_vec(rng, first_mu).ravel()
    live = np.flatnonzero(arrived > 0)
    arrived = arrived[live]
    totals = np.ones(first_mu.size, dtype=np.int64)
    censored = np.zeros(first_mu.size, dtype=bool)
    total = 1
    while live.size:
        if total + 1 > cap:
            totals[live] = total
            censored[live] = True
            break
        arrived += poisson_draw_vec(rng, next_mu(live.size))
        total += 1
        going = arrived >= total
        keep = np.flatnonzero(going)
        if keep.size < live.size:
            totals[live[~going]] = total
            live, arrived = live[keep], arrived[keep]
    return totals, censored
