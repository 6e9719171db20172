"""M/G/1 busy-period customer counts and their Borel-approximation bounds.

With Poisson(lambda) arrivals and unit-mean service times S, the number N of
customers served in a busy period satisfies the branching identity

    N  =  1 + sum of N_i over the Poisson(lambda * S) arrivals during the
          initiating service,

so N is simulated here as a branching walk, one generation per round.
Only counts matter, so no event timestamps are needed.  The arrivals
during one service have the exact law ``a = arrival_law(lam, s)`` (a
Poisson mixture in closed form for every kind), and those during the
services of k pending customers the convolution power ``a^{*k}``.  Busy
periods in the same state (customers so far, customers pending) are
exchangeable, so the walk goes by counts: the first generations of all n
busy periods are one multinomial draw, and each later generation is one
multinomial per pending size k over ``a^{*k}``, which splits every state
with k pending at once.  Each power is cut where ``a`` is, so the mass it
leaves out is at most k 2^-60; it is drawn as the last entry.  Once a
generation would fill more multinomial entries than there are live busy
periods, the rest are handed back to the per-path walk, where Poisson laws
superpose: the arrivals during each generation's services are one
``rng.poisson`` draw per path, with mean lambda times the generation's
summed service time.
Deterministic service makes N exactly Borel(lambda).  Two computable bounds
control the distance to Borel(lambda) in total variation:

    lambda^2 Var(S) / (1 - lambda)          valid for all lambda < 1,
    lambda^2 E[S|S - 1|] / (1 - 2 lambda)   valid for lambda < 1/2.

Both are O(lambda^2).  For integer-supported S the two service functionals
coincide; in general they differ, with Var(S) the smaller in the examples
computed here, so both are reported side by side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .borel import (
    _DIRECT_J_MAX,
    DEFAULT_WINDOW_CAP,
    _certified_window,
    _poisson_masses,
    _stirling,
    branching_totals,
)
from .errors import LambdaOutOfRange, WindowOverflow
from .lawkit import TruncatedLaw, _convolve_masses, _count_law

DEFAULT_SUMMARY_WINDOW = 200
# mass an arrival law may leave beyond its window (drawn at the window end)
ARRIVAL_REMAINDER = 2.0**-60
# largest arrival-law window; a law needing more is drawn per path
MAX_ARRIVAL_WINDOW = 2**16
# from this gamma shape on, E[S|S-1|] takes the two-term expansion of P(a+1, a)
_GAMMA_SHAPE_ASYMPTOTIC = 1e8


@dataclass(frozen=True)
class ServiceModel:
    """A unit-mean, almost-surely-positive service-time law.

    Use the factory functions below; they pick the parametrization that
    pins the mean at exactly 1.
    """

    kind: str
    alpha: float = 0.0  # Gamma shape; 1 for exponential, 0 for the other kinds
    half_width: float = 0.0  # symmetric-uniform half width
    low: float = 0.0  # two-point lower value
    low_prob: float = 0.0  # mass on the lower value

    @property
    def high(self) -> float:
        """Upper value of the two-point law solving p*low + (1-p)*high = 1."""
        return (1.0 - self.low_prob * self.low) / (1.0 - self.low_prob)

    def label(self) -> str:
        if self.kind == "gamma":
            return f"gamma({self.alpha:g})"
        if self.kind == "uniform":
            return f"uniform(±{self.half_width:g})"
        if self.kind == "two_point":
            return f"two_point({self.low:g}:{self.low_prob:g})"
        return self.kind

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "deterministic":
            return np.ones(size)
        if self.alpha:  # gamma, exponential included
            return rng.gamma(self.alpha, 1.0 / self.alpha, size)
        if self.kind == "uniform":
            a = self.half_width
            return 1.0 - a + 2.0 * a * rng.random(size)
        if self.kind == "two_point":
            return np.where(rng.random(size) < self.low_prob, self.low, self.high)
        raise ValueError(f"unknown service kind {self.kind!r}")


def deterministic() -> ServiceModel:
    return ServiceModel(kind="deterministic")


def exponential() -> ServiceModel:
    """Gamma service with shape 1, labelled ``exponential``."""
    return ServiceModel(kind="exponential", alpha=1.0)


def gamma_service(alpha: float) -> ServiceModel:
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"Gamma shape must be positive and finite, got {alpha}")
    return ServiceModel(kind="gamma", alpha=alpha)


def uniform_symmetric(half_width: float) -> ServiceModel:
    if not 0.0 < half_width <= 1.0:
        raise ValueError("half width must lie in (0, 1]")
    return ServiceModel(kind="uniform", half_width=half_width)


def two_point(low: float, low_prob: float) -> ServiceModel:
    if not 0.0 < low < 1.0:
        raise ValueError("low value must lie in (0, 1)")
    if not 0.0 < low_prob < 1.0:
        raise ValueError("low probability must lie in (0, 1)")
    return ServiceModel(kind="two_point", low=low, low_prob=low_prob)


# kind name, as labels and CSVs print it -> its factory and the ServiceModel
# fields the factory takes, in argument order
SERVICE_KINDS = {
    "deterministic": (deterministic, ()),
    "exponential": (exponential, ()),
    "gamma": (gamma_service, ("alpha",)),
    "uniform": (uniform_symmetric, ("half_width",)),
    "two_point": (two_point, ("low", "low_prob")),
}


def service_variance(s: ServiceModel) -> float:
    """Var(S) in closed form for every supported kind."""
    if s.kind == "deterministic":
        return 0.0
    if s.alpha:  # gamma, exponential included
        return 1.0 / s.alpha
    if s.kind == "uniform":
        return s.half_width**2 / 3.0
    if s.kind == "two_point":
        second = s.low_prob * s.low**2 + (1.0 - s.low_prob) * s.high**2
        return second - 1.0
    raise ValueError(f"unknown service kind {s.kind!r}")


def service_abs_moment(s: ServiceModel) -> float:
    """E[S |S - 1|], the service functional of the lambda < 1/2 bound.

    Closed form for every supported kind.  For S ~ Gamma(alpha, 1/alpha)
    (exponential is alpha = 1), E[S^2] - E[S] = 1/alpha and the part below
    the kink adds 2 E[(S - S^2); S < 1], whose two truncated moments are
    regularized incomplete gamma functions P(a, x).  The recurrence
    P(a+1, x) = P(a, x) - x^a e^-x / Gamma(a+1) folds them into one:

        E[S|S-1|] = (1 - 2 P(alpha+1, alpha)) / alpha + 2 d,
        d = alpha^alpha e^-alpha / Gamma(alpha+1).

    ``log d`` comes from ``math.lgamma`` up to alpha = 32 and above it from
    ``-log(2 pi alpha) / 2 - stirling(alpha)``, where the O(alpha log alpha)
    terms have cancelled analytically.  P(alpha+1, alpha) is the series
    ``d alpha / (alpha+1) sum_n prod_{i<=n} alpha / (alpha+1+i)``, whose
    terms fall below e^-72 after 12 sqrt(alpha) + 80 of them.  From
    alpha = 1e8 on, P(alpha+1, alpha) = 1/2 - 2 / (3 sqrt(2 pi alpha)),
    within 1e-15 relative in E there, so no finite shape sums more than
    about 1.2e5 terms.
    """
    if s.kind == "deterministic":
        return 0.0
    if s.kind == "uniform":
        # (1/2a) * int_{-a}^{a} (1+t)|t| dt; the odd part drops
        return s.half_width / 2.0
    if s.kind == "two_point":
        return s.low_prob * s.low * (1.0 - s.low) + (1.0 - s.low_prob) * s.high * (
            s.high - 1.0
        )
    if s.alpha:  # gamma, exponential included
        a = s.alpha
        if a <= _DIRECT_J_MAX:
            d = math.exp(a * math.log(a) - a - math.lgamma(a + 1.0))
        else:
            d = math.exp(-0.5 * math.log(2.0 * math.pi * a) - _stirling(a))
        if a >= _GAMMA_SHAPE_ASYMPTOTIC:
            p = 0.5 - 2.0 / (3.0 * math.sqrt(2.0 * math.pi * a))
        else:
            i = np.arange(1.0, 12.0 * math.sqrt(a) + 81.0)
            terms = np.cumprod(a / (a + 1.0 + i))
            p = d * a / (a + 1.0) * (1.0 + float(terms.sum()))
        return (1.0 - 2.0 * p) / a + 2.0 * d
    raise ValueError(f"unknown service kind {s.kind!r}")


def bound_qbd1(lam: float, s: ServiceModel) -> float:
    """TV bound lambda^2 Var(S) / (1 - lambda), valid for all lambda < 1."""
    if not 0.0 < lam < 1.0:
        raise LambdaOutOfRange(f"need 0 < lambda < 1, got {lam}")
    return lam**2 * service_variance(s) / (1.0 - lam)


def bound_qbd2(lam: float, s: ServiceModel) -> float:
    """TV bound lambda^2 E[S|S-1|] / (1 - 2 lambda), needs lambda < 1/2.

    The restriction is structural, not numerical: the derivation gathers two
    copies of the target distance and only closes when lambda < 1/2.
    """
    if not 0.0 < lam < 0.5:
        raise LambdaOutOfRange(f"the bound is meaningful only for lambda < 1/2, got {lam}")
    return lam**2 * service_abs_moment(s) / (1.0 - 2.0 * lam)


def _poisson_upper_tails(x: float, size: int) -> np.ndarray:
    """P(k+1, x) = P(Poisson(x) > k), k < size, for 0 <= x < 2.

    Suffix sums of the Poisson(x) masses, summed smallest first from 64
    points past the window; the masses dropped beyond those are below
    x^(size+64) / (size+64)! < 1e-70.  x = 0 gives zeros.
    """
    if x == 0.0:
        return np.zeros(size)
    masses = _poisson_masses(x, size + 64)
    return np.cumsum(masses[:0:-1])[::-1][:size]


def _uniform_masses(lam: float, h: float, size: int) -> np.ndarray:
    """P(Poisson(lam S) = k), k < size, for S uniform on [1 - h, 1 + h].

    The mass is ``[P(k+1, hi) - P(k+1, lo)] / (2 h lam)``, with P the
    regularized lower incomplete gamma function and ``lo, hi = lam (1 -+ h)``.
    P(k+1, x) is the Poisson(x) upper tail ``P(X > k)``, summed from its
    masses (``_poisson_upper_tails``).  With lam < 1 and h <= 1 both
    arguments stay below 2 and both values below ``P(1, 2) < 0.87``, so
    taking the difference of the complements would gain nothing.  Dividing
    by 2 h lam costs about eps / h: 2e-13 in total at h = 1e-3.
    """
    diff = _poisson_upper_tails(lam * (1.0 + h), size) - _poisson_upper_tails(
        lam * (1.0 - h), size
    )
    return diff / (2.0 * h * lam)


def arrival_law(lam: float, s: ServiceModel) -> np.ndarray:
    """``a[k] = P(Poisson(lam S) = k)``, k = 0..K: the arrivals during one service.

    Closed forms, in log space: Poisson(lam) for deterministic service;
    NegBin(alpha, alpha / (alpha + lam)) for gamma(alpha), exponential being
    alpha = 1; ``[P(k+1, lam(1+h)) - P(k+1, lam(1-h))] / (2 h lam)`` with
    P the regularized incomplete gamma function for uniform(1 +- h); a
    two-Poisson mixture for two-point.
    The window ends at the first K whose geometric-ratio remainder
    ``a[K] rho / (1 - rho)`` is at most 2^-60, where ``rho`` bounds
    ``a[k+1] / a[k]`` beyond K: ``lam s_max / (K + 1)`` for service bounded
    by ``s_max``, ``max(1, (K + alpha) / (K + 1)) lam / (alpha + lam)`` for
    gamma.  A law whose remainder needs more than ``MAX_ARRIVAL_WINDOW``
    points (gamma shapes below about 4e-4 at lam = 0.9, smaller ones at
    smaller lam) raises ``WindowOverflow``.  The mass beyond K, at most
    2^-60, is drawn as K by ``rng.multinomial``, which gives the last
    category ``1 - sum(a[:-1])``; among 10^6 draws it moves one with
    probability below 1e-12.
    """
    if not 0.0 < lam < 1.0:
        raise LambdaOutOfRange(f"need 0 < lambda < 1, got {lam}")
    if s.alpha:  # gamma, exponential included
        alpha = s.alpha
        tilt = lam / (alpha + lam)

        def masses(size):
            # log a[k] = alpha log p + sum_{i<k} log((alpha + i) / (i + 1) (1 - p))
            i = np.arange(size - 1, dtype=float)
            steps = np.log((alpha + i) / (i + 1.0) * tilt)
            log_a = np.concatenate([[0.0], np.cumsum(steps)])
            return np.exp(log_a - alpha * math.log1p(lam / alpha))

        def ratio_bound(k):
            return np.maximum(1.0, (k + alpha) / (k + 1.0)) * tilt

    else:
        if s.kind == "deterministic":
            top = lam
            masses = functools.partial(_poisson_masses, lam)
        elif s.kind == "uniform":
            top = lam * (1.0 + s.half_width)
            masses = functools.partial(_uniform_masses, lam, s.half_width)
        elif s.kind == "two_point":
            top = lam * s.high

            def masses(size):
                low = _poisson_masses(lam * s.low, size)
                return s.low_prob * low + (1.0 - s.low_prob) * _poisson_masses(top, size)

        else:
            raise ValueError(f"unknown service kind {s.kind!r}")

        def ratio_bound(k):
            return top / (k + 1.0)

    def remainders(a):
        # a[k] rho / (1 - rho) bounds the mass beyond k once rho < 1
        rho = ratio_bound(np.arange(a.size, dtype=float))
        with np.errstate(divide="ignore"):
            return np.where(rho < 1.0, a * rho / (1.0 - rho), np.inf)

    return _certified_window(masses, remainders, ARRIVAL_REMAINDER, MAX_ARRIVAL_WINDOW)


@dataclass(frozen=True)
class BusyPeriodSummary:
    """Seeded-simulation summary with censoring accounted explicitly.

    The empirical law divides by the full draw count, so censored paths sit
    in its tail mass and TV lower bounds stay valid lower bounds.
    ``walked_paths`` counts the busy periods handed to the per-path walk.
    """

    n_samples: int
    empirical: TruncatedLaw
    censored_count: int
    lam: float
    service: str
    seed: int
    mean_uncensored: float
    walked_paths: int

    @property
    def censored_fraction(self) -> float:
        return self.censored_count / self.n_samples


def _next_generation(rng: np.random.Generator, total, pending, count, power):
    """One generation of the count walk: the states it leads to, merged.

    The paths of every state with k pending customers are split by one
    ``rng.multinomial(counts, power(k))``, ``power(k)`` being ``a^{*k}``;
    entry j moves its paths to ``(total + j, j)``.
    """
    parts = []
    # every pending size, ascending; np.unique would load numpy.ma here
    for k in np.flatnonzero(np.bincount(pending)):
        rows = pending == k
        # the mass beyond the cut, at most k 2^-60, rides in the last entry
        draws = rng.multinomial(count[rows], power(int(k)))
        row, j = np.nonzero(draws)
        parts.append((total[rows][row] + j, j, draws[row, j]))
    total, pending, count = (np.concatenate(x) for x in zip(*parts))
    base = int(pending.max()) + 1
    states, where = np.unique(total * base + pending, return_inverse=True)
    total, pending = np.divmod(states, base)
    return total, pending, np.bincount(where, weights=count).astype(np.int64)


def _walk_by_counts(rng: np.random.Generator, a: np.ndarray, n: int, cap: int):
    """Walk ``n`` busy periods as states ``(total, pending, count)``.

    ``total`` counts served plus pending customers and ``count`` the
    exchangeable paths in the state.  Given k pending customers, the next
    generation is the sum of k draws from ``a``, whose law is the
    convolution power ``a^{*k}`` (``_next_generation``).  A state with no
    pending customer ends its paths; one with ``total > cap`` is censored.
    The walk stops when the next generation would fill more multinomial
    entries (k K + 1 per state, K + 1 = ``a.size``) than there are live
    paths, so it never does more work per generation than the per-path
    walk.  The paths left are returned one entry each, with
    ``offset = total - pending - 1``: the customers already served less the
    root that a new walk counts again (0 while no generation past the first
    has been drawn).

    Returns ``(sizes, counts, censored, first, offset)``: the ended busy
    periods by size, the censored count, and the paths left over.
    """
    width = a.size - 1
    powers = {1: a}

    def power(k):  # a^{*k}, each power built from two cached halves
        if k not in powers:
            powers[k] = _convolve_masses(power(k // 2), power(k - k // 2))
        return powers[k]

    counts = rng.multinomial(n, a)
    pending = np.flatnonzero(counts)
    total, count = pending + 1, counts[pending]
    sizes, ended, censored = [], [], 0
    while True:
        over = total > cap
        censored += int(count[over].sum())
        done = pending == 0  # a state that ends has total <= cap
        sizes.append(total[done])
        ended.append(count[done])
        live = ~(over | done)
        total, pending, count = total[live], pending[live], count[live]
        if not count.size:
            break
        if int(pending.sum()) * width + pending.size > int(count.sum()):
            break  # a path-by-path generation is cheaper from here
        total, pending, count = _next_generation(rng, total, pending, count, power)
    first = np.repeat(pending, count)
    offset = np.repeat(total - pending - 1, count)
    return np.concatenate(sizes), np.concatenate(ended), censored, first, offset


def simulate(
    lam: float,
    s: ServiceModel,
    n: int,
    seed: int,
    cap: int = DEFAULT_WINDOW_CAP,
    window: int = DEFAULT_SUMMARY_WINDOW,
) -> BusyPeriodSummary:
    """``n`` independent busy periods, bit-reproducible for a given seed.

    The busy periods are walked by counts: one
    ``rng.multinomial(n, arrival_law(lam, s))`` draws every first
    generation, and each later generation splits the paths that share a
    ``(total, pending)`` state with one multinomial over the convolution
    power ``a^{*k}`` for their k pending customers (see ``_walk_by_counts``).
    The mass each power leaves beyond its cut, at most k 2^-60, is drawn in
    its last entry.  When a generation would fill more multinomial entries
    than there are live paths, the paths left are handed to
    ``branching_totals`` path by path; a path's size is that walk's total
    plus the customers it had already served, less its root.  When
    ``arrival_law`` cannot certify its window (``WindowOverflow``), each
    path's first generation is ``rng.poisson(lam * S)`` for its own service
    time S instead, and every path is walked by ``branching_totals``.  All
    draws run through one generator in a fixed order, so the summary is a
    pure function of ``(lam, s, n, seed, cap, window)``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 0.0 < lam < 1.0:
        raise LambdaOutOfRange(f"need 0 < lambda < 1, got {lam}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    try:
        a = arrival_law(lam, s)
    except WindowOverflow:
        # the law cannot be cut below 2^-60 in MAX_ARRIVAL_WINDOW points
        sizes = counts = np.zeros(0, dtype=np.int64)
        censored_count, offset = 0, 0
        first = rng.poisson(lam * s.draw(rng, n))
    else:
        sizes, counts, censored_count, first, offset = _walk_by_counts(rng, a, n, cap)
    totals, censored = branching_totals(
        rng, first, lambda k: lam * s.draw(rng, k), cap
    )
    totals += offset
    censored |= totals > cap
    kept = totals[~censored]
    censored_count += totals.size - kept.size
    # histogram of the sizes: the count walk's ended states plus the walked paths
    top = window + 1
    hist = np.bincount(np.minimum(sizes, top), weights=counts, minlength=top + 1)
    hist += np.bincount(np.minimum(kept, top), minlength=top + 1)
    served = int(counts.sum()) + kept.size
    mean = (int(sizes @ counts) + int(kept.sum())) / served if served else float("nan")
    return BusyPeriodSummary(
        n_samples=n,
        empirical=_count_law(hist[1:top].astype(np.int64), n),
        censored_count=censored_count,
        lam=lam,
        service=s.label(),
        seed=seed,
        mean_uncensored=mean,
        walked_paths=first.size,
    )
