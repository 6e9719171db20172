"""M/G/1 busy-period customer counts and their Borel-approximation bounds.

With Poisson(lambda) arrivals and unit-mean service times S, the number N of
customers served in a busy period satisfies the branching identity

    N  =  1 + sum of N_i over the Poisson(lambda * S) arrivals during the
          initiating service,

so N is simulated here as a branching walk, one generation per round.
Poisson laws superpose, so the arrivals during a whole generation's services
are one Poisson draw per path per generation, with mean lambda times the
generation's summed service time; no event timestamps are needed because
only the count matters.
Deterministic service makes N exactly Borel(lambda).  Two computable bounds
control the distance to Borel(lambda) in total variation:

    lambda^2 Var(S) / (1 - lambda)          valid for all lambda < 1,
    lambda^2 E[S|S - 1|] / (1 - 2 lambda)   valid for lambda < 1/2.

Both are O(lambda^2).  For integer-supported S the two service functionals
coincide; in general they differ, with Var(S) the smaller in the examples
computed here, so both are reported side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .borel import DEFAULT_WINDOW_CAP, branching_totals
from .errors import LambdaOutOfRange
from .lawkit import TruncatedLaw, empirical_law

DEFAULT_SUMMARY_WINDOW = 200


@dataclass(frozen=True)
class ServiceModel:
    """A unit-mean, almost-surely-positive service-time law.

    Use the factory functions below; they pick the parametrization that
    pins the mean at exactly 1.
    """

    kind: str
    alpha: float = 0.0  # Gamma shape
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
            return f"two_point({self.low:g},{self.low_prob:g})"
        return self.kind

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "deterministic":
            return np.ones(size)
        if self.kind == "exponential":
            return rng.standard_exponential(size)
        if self.kind == "gamma":
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
    return ServiceModel(kind="exponential")


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


def service_variance(s: ServiceModel) -> float:
    """Var(S) in closed form for every supported kind."""
    if s.kind == "deterministic":
        return 0.0
    if s.kind == "exponential":
        return 1.0
    if s.kind == "gamma":
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
    regularized incomplete gamma functions P(a, x) = ``gammainc(a, x)``:

        E[S|S-1|] = 1/alpha - 2 [(1 + 1/alpha) P(alpha+2, alpha) - P(alpha+1, alpha)].
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
    if s.kind in ("exponential", "gamma"):
        a = 1.0 if s.kind == "exponential" else s.alpha
        below = (1.0 + 1.0 / a) * gammainc(a + 2.0, a) - gammainc(a + 1.0, a)
        return float(1.0 / a - 2.0 * below)
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


@dataclass(frozen=True)
class BusyPeriodSummary:
    """Seeded-simulation summary with censoring accounted explicitly.

    The empirical law divides by the full draw count, so censored paths sit
    in its tail mass and TV lower bounds stay valid lower bounds.
    """

    n_samples: int
    empirical: TruncatedLaw
    censored_count: int
    lam: float
    service: str
    seed: int
    mean_uncensored: float

    @property
    def censored_fraction(self) -> float:
        return self.censored_count / self.n_samples


def simulate(
    lam: float,
    s: ServiceModel,
    n: int,
    seed: int,
    cap: int = DEFAULT_WINDOW_CAP,
    window: int = DEFAULT_SUMMARY_WINDOW,
) -> BusyPeriodSummary:
    """``n`` independent busy periods, bit-reproducible for a given seed.

    All draws run through one generator in a fixed vectorized order, so the
    summary is a pure function of ``(lam, s, n, seed, cap, window)``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < lam < 1.0:
        raise LambdaOutOfRange(f"need 0 < lambda < 1, got {lam}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    totals, censored = branching_totals(
        rng,
        lam * s.draw(rng, n),
        lambda k: lam * s.draw(rng, k),
        cap,
    )
    censored_count = int(censored.sum())
    kept = totals[~censored] if censored_count else totals
    emp = empirical_law(kept, M=window, n_total=n)
    return BusyPeriodSummary(
        n_samples=n,
        empirical=emp,
        censored_count=censored_count,
        lam=lam,
        service=s.label(),
        seed=seed,
        mean_uncensored=float(kept.mean()) if kept.size else float("nan"),
    )
