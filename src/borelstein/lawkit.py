"""Exact finite-window algebra for integer-valued probability laws.

A law on {1, 2, ...} is stored as a contiguous window of probabilities plus
an explicit tail mass for everything above the window.  All operations keep
``sum(probs) + tail_mass = 1`` to within 1e-12, pushing any mass they cannot
place (convolution cross-tails, truncation residuals) into ``tail_mass``.
Keeping the residual explicit is what makes the total-variation comparisons
below two-sided: the interval returned by :func:`tv_distance` brackets the
exact distance of every pair of full laws consistent with the stored windows.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, NegativeMass, NotNormalized, WeightOutOfRange

CONSERVATION_TOL = 1e-12
INPUT_TOL = 1e-9

# below this product of window lengths, direct convolution beats the FFT
_DIRECT_CONV_LIMIT = 1_000_000


@dataclass(frozen=True)
class TruncatedLaw:
    """A probability law on the positive integers with a finite window.

    ``probs[i]`` is the mass at ``i + 1``; ``tail_mass`` is the mass
    attributed to ``{end + 1, end + 2, ...}``.  Instances are immutable and
    safe to share across threads.
    """

    probs: np.ndarray
    tail_mass: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-D vector")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite")
        if probs.min(initial=0.0) < 0.0:
            raise NegativeMass(f"negative window mass {probs.min():g}")
        if self.tail_mass < 0.0:
            raise NegativeMass(f"negative tail mass {self.tail_mass:g}")
        total = math.fsum(probs.tolist()) + self.tail_mass
        if abs(total - 1.0) > CONSERVATION_TOL:
            raise NotNormalized(f"window + tail is {total!r}, not 1")

    @property
    def end(self) -> int:
        """Largest support point inside the window."""
        return self.probs.size

    @property
    def size(self) -> int:
        return self.probs.size

    def support(self) -> np.ndarray:
        return np.arange(1, self.end + 1)

    def window_sum(self) -> float:
        return float(math.fsum(self.probs.tolist()))

    def at(self, j: int) -> float:
        """Mass at the integer ``j`` (zero below 1)."""
        if j < 1:
            return 0.0
        if j > self.end:
            raise ValueError(f"{j} is above the window; only tail mass is known there")
        return float(self.probs[j - 1])


@dataclass(frozen=True)
class TVInterval:
    """Two-sided bracket for a total-variation distance."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(f"invalid TV interval [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower


Moments = namedtuple("Moments", ["mean", "second_moment", "tail_unresolved"])


def _trusted(probs: np.ndarray, tail_mass: float) -> TruncatedLaw:
    """Build a law from internally computed arrays, absorbing float dust."""
    probs = np.asarray(probs, dtype=float)
    lo = probs.min(initial=0.0)
    if lo < -CONSERVATION_TOL:
        raise NegativeMass(f"internal law has negative mass {lo:g}")
    if lo < 0.0:
        probs = np.maximum(probs, 0.0)
    if -CONSERVATION_TOL < tail_mass < 0.0:
        tail_mass = 0.0
    return TruncatedLaw(probs=probs, tail_mass=tail_mass)


def make_law(probs, tail_mass: float = 0.0) -> TruncatedLaw:
    """Validate user-supplied masses and renormalize the total to exactly 1.

    Raises ``NegativeMass`` for any negative entry and ``NotNormalized`` when
    the total deviates from 1 by more than 1e-9.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probs must be a nonempty 1-D vector")
    if probs.min(initial=0.0) < 0.0 or tail_mass < 0.0:
        raise NegativeMass("mass entries must be nonnegative")
    total = math.fsum(probs.tolist()) + tail_mass
    if abs(total - 1.0) > INPUT_TOL:
        raise NotNormalized(f"masses sum to {total!r}; expected 1 within {INPUT_TOL:g}")
    return TruncatedLaw(probs=probs / total, tail_mass=tail_mass / total)


def point_mass(j: int) -> TruncatedLaw:
    """The degenerate law at the positive integer ``j``."""
    if j < 1:
        raise ValueError("support point must be >= 1")
    probs = np.zeros(j)
    probs[-1] = 1.0
    return TruncatedLaw(probs=probs, tail_mass=0.0)


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n, for n >= 1.

    The real-FFT length ``scipy.fft.next_fast_len(n, True)`` picks.  Each
    odd part 3^b 5^c below the next power of two is shifted up by the
    fewest factors of two that reach n.
    """
    m = n - 1
    best = 1 << m.bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35 << (m // p35).bit_length()
            if p < best:
                best = p
            p35 *= 3
        p5 *= 5
    return best


def _convolve_masses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two nonnegative mass vectors.

    Direct for small inputs, by ``numpy.fft`` real FFT above
    ``_DIRECT_CONV_LIMIT``, zero-padded to the 5-smooth length
    ``_fast_len`` (the same transforms and padding as
    ``scipy.signal.fftconvolve``); the FFT's round-off can dip below zero,
    so its output is clamped at 0.
    """
    if a.size * b.size <= _DIRECT_CONV_LIMIT:
        return np.convolve(a, b)
    n = a.size + b.size - 1
    size = _fast_len(n)
    out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]
    np.maximum(out, 0.0, out=out)
    return out


def convolve(a: TruncatedLaw, b: TruncatedLaw) -> TruncatedLaw:
    """Law of the sum of independent draws from ``a`` and ``b``.

    The result window spans every sum of window points, which starts at 2,
    so its first entry is a zero; all cross terms involving either tail land
    in the result's ``tail_mass``.
    """
    probs = np.concatenate([[0.0], _convolve_masses(a.probs, b.probs)])
    tail = 1.0 - math.fsum(probs.tolist())
    return _trusted(probs, tail)


def mix(w: float, a: TruncatedLaw, b: TruncatedLaw) -> TruncatedLaw:
    """Mixture ``w * a + (1 - w) * b`` on the union of the two windows."""
    if not 0.0 <= w <= 1.0:
        raise WeightOutOfRange(f"mixture weight {w} outside [0, 1]")
    probs = np.zeros(max(a.end, b.end))
    probs[: a.end] += w * a.probs
    probs[: b.end] += (1.0 - w) * b.probs
    tail = w * a.tail_mass + (1.0 - w) * b.tail_mass
    return _trusted(probs, tail)


def _beyond(law: TruncatedLaw, cutoff: int) -> float:
    """Mass the law holds strictly above ``cutoff`` (window part plus tail)."""
    return float(math.fsum(law.probs[cutoff:].tolist())) + law.tail_mass


def tv_distance(a: TruncatedLaw, b: TruncatedLaw) -> TVInterval:
    """Exact bracket for the total-variation distance between two laws.

    On the common window the pointwise difference is known.  Above it, each
    law holds a known excess-window mass plus an unplaced tail; over all full
    laws consistent with the stored data the distance ranges between placing
    the unknown mass for maximal overlap and placing it fully apart.  Both
    endpoints are attained, so the interval is sharp; with two zero tails it
    collapses to the exact distance.
    """
    common_end = min(a.end, b.end)
    diff = a.probs[:common_end] - b.probs[:common_end]
    common_l1 = float(math.fsum(np.abs(diff).tolist()))
    beyond_a = _beyond(a, common_end)
    beyond_b = _beyond(b, common_end)
    lower = 0.5 * (common_l1 + abs(beyond_a - beyond_b))
    upper = lower + min(beyond_a, beyond_b)
    lower = min(max(lower, 0.0), 1.0)
    upper = min(max(upper, lower), 1.0)
    return TVInterval(lower=lower, upper=upper)


def _count_law(counts: np.ndarray, n: int) -> TruncatedLaw:
    """The law with mass ``counts[i] / n`` at i + 1; the rest of n is tail mass."""
    return _trusted(counts / n, float(n - counts.sum()) / n)


def empirical_law(samples, M: int, n_total: int | None = None) -> TruncatedLaw:
    """Empirical law of positive-integer samples on the window {1, ..., M}.

    ``n_total`` lets callers account for draws excluded from ``samples``
    (for example censored simulation paths); the excluded fraction then sits
    in the tail mass, keeping TV lower bounds against this law valid.
    """
    samples = np.asarray(samples).ravel()
    if samples.size == 0 and not n_total:
        raise EmptySample("no samples")
    if M < 1:
        raise ValueError("window must be >= 1")
    if samples.dtype.kind not in "iu" and not np.all(
        np.isfinite(samples) & (samples == np.trunc(samples))
    ):
        raise ValueError("samples must be positive integers")
    samples = samples.astype(np.int64, copy=False)
    if samples.size and samples.min() < 1:
        raise ValueError("samples must be positive integers")
    n = samples.size if n_total is None else int(n_total)
    if n < samples.size:
        raise ValueError("n_total smaller than the sample count")
    # one counting pass: everything above the window lands in bin M + 1
    counts = np.bincount(np.minimum(samples, M + 1), minlength=M + 2)[1 : M + 1]
    return _count_law(counts, n)


def moments(a: TruncatedLaw) -> Moments:
    """Window-only mean and second moment (lower bounds when a tail remains).

    Support lies in {1, 2, ...}, so any tail mass can only push both moments
    up; ``tail_unresolved`` flags that the returned values are strict lower
    bounds rather than exact.
    """
    support = a.support().astype(float)
    mean = float(math.fsum((support * a.probs).tolist()))
    second = float(math.fsum((support * support * a.probs).tolist()))
    return Moments(mean=mean, second_moment=second, tail_unresolved=a.tail_mass > 0.0)
