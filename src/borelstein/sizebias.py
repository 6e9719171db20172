"""Size-biased laws and two reconstructions of the size-biased Borel law.

For a positive integer law W the size-biased version W* puts mass
``j * P(W = j) / E[W]`` at j.  For W Borel(lambda) two other routes reach
the same law:

* the mixture identity: W* equals in distribution ``(1 - I) W + I (Z + W*)``
  with I Bernoulli(lambda) and Z an independent Borel draw, realized here by
  :func:`mixture_rhs`;
* the geometric-sum form: W* equals a sum of ``eta`` independent Borel draws
  where ``P(eta = n) = (1 - lambda) lambda^(n-1)``, realized by
  :func:`geometric_sum_law` from the sum's generating function
  ``(1 - lambda) Q(z) / (1 - lambda Q(z))`` in one FFT.

Cross-checking the three constructions against each other, with truncation
residuals tracked explicitly, is the main correctness instrument for this
package's law algebra.
"""

from __future__ import annotations

import math

import numpy as np

from . import borel
from .borel import BorelParams
from .errors import UnresolvedTail
from .lawkit import TruncatedLaw, _fast_len, _trusted, convolve, mix, moments

# above this input tail, the window mean is too uncertain to size-bias:
# biasing weights outcomes by j, so unplaced tail mass has unbounded pull
UNRESOLVED_TAIL_LIMIT = 1e-6
# FFT wrap-around mass geometric_sum_law leaves in its window, at most
WRAP_REMAINDER = 2.0**-60


def size_bias(w: TruncatedLaw) -> TruncatedLaw:
    """Size-biased version of ``w`` computed over its window.

    The normalizer is the window mean, so the output window sums to one and
    any true biased mass above the window is folded back in.  That folded
    mass is at least :func:`size_bias_tail_estimate`; inputs with tail mass
    above 1e-6 are rejected because the fold-back would no longer be small.
    """
    if w.tail_mass > UNRESOLVED_TAIL_LIMIT:
        raise UnresolvedTail(
            f"tail mass {w.tail_mass:g} too large to size-bias accurately"
        )
    support = w.support().astype(float)
    mean = moments(w).mean
    probs = support * w.probs / mean
    tail = max(0.0, 1.0 - math.fsum(probs.tolist()))
    return _trusted(probs, tail)


def size_bias_tail_estimate(w: TruncatedLaw) -> float:
    """Smallest biased mass above the window consistent with ``w``.

    Places the input's tail at the first point above the window; the true
    biased law has at least this much mass beyond the stored window, which
    quantifies how much :func:`size_bias` folded back.
    """
    if w.tail_mass == 0.0:
        return 0.0
    mean_floor = moments(w).mean + (w.end + 1) * w.tail_mass
    return (w.end + 1) * w.tail_mass / mean_floor


def mixture_rhs(
    w: TruncatedLaw, wstar: TruncatedLaw, p: BorelParams, eps: float
) -> TruncatedLaw:
    """Law of ``(1 - I) W + I (Z + W*)`` with I Bernoulli(lambda).

    ``Z`` is truncated at ``eps``; all truncation residue lands in the
    result's tail mass.
    """
    z = borel.law(p, eps)
    return mix(1.0 - p.lam, w, convolve(z, wstar))


def geometric_sum_law(p: BorelParams, eps: float) -> TruncatedLaw:
    """Size-biased Borel law rebuilt as a geometric sum of Borel draws.

    With ``Q(z)`` the generating function of the Borel window, the sum of
    ``eta`` independent draws, ``P(eta = n) = (1 - lam) lam^(n-1)``, has
    generating function ``(1 - lam) Q(z) / (1 - lam Q(z))``, a compound
    geometric (Panjer 1981).  One real FFT of the window, that map applied
    pointwise and one inverse FFT give the whole law at once.

    Tail accounting: the base window leaves out ``eps (1 - lam) / 2``,
    which costs the sum at most ``eps / 2``; the output window ends where
    the size-biased mass above it is at most ``eps / 8``.  Both losses land
    in ``tail_mass``, the exact complement of the window sum, never spread
    over the window.  The FFT of length L adds the sum's mass at j + L,
    j + 2L, ... to the mass at j.  That wrapped mass is nonnegative and at
    most the size-biased mass at ``j >= L``.  So L is at least 2 (W + 1)
    for the output window W, and above the first cut past which that mass
    is certified at most ``WRAP_REMAINDER`` = 2^-60.  ``eps`` must be at least
    ``2 MIN_EPS / (1 - lam)``, so that the base window can be certified.
    """
    lam = p.lam
    base_eps = eps * (1.0 - lam) / 2.0
    if not (borel.MIN_EPS <= base_eps and eps < 1.0):
        floor = 2.0 * borel.MIN_EPS / (1.0 - lam)
        raise ValueError(f"eps must lie in [{floor:g}, 1) at lambda={lam}, got {eps}")
    base = borel.law(p, base_eps)
    cap = max(_biased_cut(lam, eps / 8.0), base.end)
    size = _fast_len(max(2 * (cap + 1), _biased_cut(lam, WRAP_REMAINDER) + 1))
    # index j holds the mass at j; the sum starts at 1
    q = np.fft.rfft(np.concatenate([[0.0], base.probs]), size)
    acc = np.fft.irfft((1.0 - lam) * q / (1.0 - lam * q), size)[1 : cap + 1]
    probs = np.maximum(acc, 0.0)
    tail = 1.0 - math.fsum(probs.tolist())
    return _trusted(probs, tail)


def _biased_cut(lam: float, target: float) -> int:
    """First W whose size-biased Borel mass above W is certified <= ``target``.

    That mass is ``(1 - lam) sum_{j > W} j q(j)``, bounded by
    ``borel._suffix_remainders``.
    """
    return borel._pmf_window(lam, target / (1.0 - lam), borel.DEFAULT_WINDOW_CAP, 1).size


def x_mean(p: BorelParams) -> float:
    """Mean gap between the size-biased and plain Borel laws.

    Equals ``lam / (1 - lam)^2``; cross-checkable as the difference of the
    truncated-law means.
    """
    return p.lam / (1.0 - p.lam) ** 2


def check_stochastic_order(p: BorelParams, M: int) -> bool:
    """Check ``xi + 1`` is stochastically below the geometric count ``eta``.

    ``xi`` is Poisson(lambda) and ``P(eta = n) = (1 - lam) lam^(n-1)``; the
    check compares CDFs pointwise for every k up to ``M``, with float slack.
    """
    k = np.arange(1, M + 1)
    shifted_poisson_cdf = np.cumsum(borel._poisson_masses(p.lam, M))
    geometric_cdf = 1.0 - p.lam**k
    return bool(np.all(shifted_poisson_cdf >= geometric_cdf - 1e-12))
