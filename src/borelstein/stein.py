"""Stein-equation machinery for comparing integer laws against Borel(lambda).

For a bounded test function h on {1, 2, ...} the equation

    h(k) - E[h(Z)] = (1-lam)(k-1) f(k) - lam (1-lam) k * sum_i f(i+k) q(i)

(with Z Borel(lambda), q its pmf, and f(1) = 0) has the solution

    f(k) = sum_{m >= k} a[k, m] * (h(m) - E[h(Z)]) / (1 - lam),   k >= 2,

where the coefficients satisfy a[k, k] = 1/(k-1) and, column by column,

    a[k, m] = (k lam / (k-1)) * sum_{i=1}^{m-k} a[k+i, m] q(i).

The recursion fixes a column m and descends k, because each entry needs the
deeper-k entries of its own column.  Every entry obeys
``|a[k, k+j]| <= j lam q(j) / (k-1)``, which yields the uniform solution
bound ``sup_k |f(k)| <= 1/(1-lam)^2`` for test functions with values in
[0, 1] and drives the computable comparison bound of :func:`size_bias_tv_bound`:

    TV(W, Borel(lam)) <= (1-lam)^-2 * TV(W*, (1-I) W + I (Z + W*)).

A useful structural fact: truncating both the solution series and the
equation's sum at the same window M keeps the equation *exactly* satisfied
(the recursion is precisely the statement that the truncated pieces match),
so the residual reported by :func:`stein_residual` isolates floating-point
drift, while the window remainder is bounded separately.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import borel
from .borel import _TAIL_REPORT_TOL, BorelParams, _pmf_suffix_sums
from .errors import InsufficientWindow, MeanMismatch
from .lawkit import TruncatedLaw, moments, tv_distance
from .sizebias import mixture_rhs, size_bias

MEAN_TOLERANCE = 1e-6  # relative slack on the mean hypothesis of the TV bound
_HP_MAX_WINDOW = 20


@dataclass(frozen=True)
class SteinTable:
    """Triangular coefficient array for one (lambda, M) pair.

    ``a[k, m]`` is populated for 2 <= k <= m <= M and zero elsewhere;
    ``q[j]`` caches the Borel pmf for 1 <= j <= M (``q[0]`` unused).
    Immutable once built; share freely across threads.
    """

    lam: float
    M: int
    a: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.a.setflags(write=False)
        self.q.setflags(write=False)

    def params(self) -> BorelParams:
        return BorelParams(self.lam)


SteinSolution = namedtuple("SteinSolution", ["f", "trunc_error", "e_h", "table"])
ResidualReport = namedtuple("ResidualReport", ["residual", "remainder_bound"])
ScaledBound = namedtuple("ScaledBound", ["lower", "upper"])


def build_table(p: BorelParams, M: int) -> SteinTable:
    """Coefficient table via the column-descent recursion.

    O(M^3) time, O(M^2) space.  All recursion terms are positive, so there
    is no cancellation and double precision tracks the exact values to a
    relative error near machine epsilon (see :func:`build_table_hp`).
    """
    if M < 2:
        raise ValueError(f"need M >= 2, got {M}")
    lam = p.lam
    q = np.concatenate([[0.0], borel.pmf_values(p, M)])
    a = np.zeros((M + 1, M + 1))
    for m in range(2, M + 1):
        a[m, m] = 1.0 / (m - 1)
        for k in range(m - 1, 1, -1):
            # needs a[k+1 .. m, m], all already filled for this column
            s = float(np.dot(a[k + 1 : m + 1, m], q[1 : m - k + 1]))
            a[k, m] = k * lam / (k - 1) * s
    return SteinTable(lam=lam, M=M, a=a, q=q)


def build_table_hp(p: BorelParams, M: int, dps: int = 50):
    """Same recursion at ``dps`` decimal digits, for measuring float drift.

    The pmf has no exact rational form (it involves exp(-lam j)), so entries
    are pinned at high decimal precision instead.  Restricted to small
    windows; the point is drift measurement, not production use.
    """
    if M > _HP_MAX_WINDOW:
        raise ValueError(f"high-precision mode supports M <= {_HP_MAX_WINDOW}")
    with mp.workdps(dps):
        lam = mp.mpf(p.lam)
        q = [mp.mpf(0)] + [
            mp.e ** (-lam * j) * (lam * j) ** (j - 1) / mp.factorial(j)
            for j in range(1, M + 1)
        ]
        a = [[mp.mpf(0)] * (M + 1) for _ in range(M + 1)]
        for m in range(2, M + 1):
            a[m][m] = mp.mpf(1) / (m - 1)
            for k in range(m - 1, 1, -1):
                s = mp.fsum(a[k + i][m] * q[i] for i in range(1, m - k + 1))
                a[k][m] = k * lam / (k - 1) * s
        return a


def coefficient_bound(p: BorelParams, k, j):
    """Proven envelope for ``|a[k, k+j]|``: 1/(k-1) at j = 0, else j lam q(j)/(k-1).

    ``k`` and ``j`` are integers or integer arrays of one broadcast shape;
    scalars give a float, arrays an array, through the same expression.
    """
    k, j = np.asarray(k), np.asarray(j)
    if np.any(k < 2) or np.any(j < 0):
        raise ValueError("need k >= 2 and j >= 0")
    q = np.concatenate([[0.0], borel.pmf_values(p, max(int(j.max(initial=0)), 1))])
    bound = np.where(j == 0, 1.0, j * p.lam * q[j]) / (k - 1)
    return float(bound) if bound.ndim == 0 else bound


def solve_f(h: np.ndarray, table: SteinTable, eps_tail: float = 1e-12) -> SteinSolution:
    """Solve the equation on the table's window for one test function.

    ``h[i]`` is the value at i + 1; the function is treated as zero above
    the window, which makes ``E[h(Z)]`` a finite exact sum.  Returns the
    solution values (index k, with f[0] unused and f[1] = 0 by convention)
    plus a per-k bound on the series mass discarded beyond the window,
    accumulated from the coefficient envelope with the pmf sums resolved to
    ``eps_tail`` absolute accuracy.
    """
    M, lam = table.M, table.lam
    h = np.asarray(h, dtype=float)
    if h.size != M:
        raise ValueError(f"h must supply values at 1..{M}, got length {h.size}")
    e_h = float(math.fsum((h * table.q[1:]).tolist()))
    h_z = np.concatenate([[0.0], (h - e_h) / (1.0 - lam)])
    f = table.a @ h_z
    f[:2] = 0.0
    _, sums_jq = _pmf_suffix_sums(lam, tol=min(eps_tail, _TAIL_REPORT_TOL), min_size=M + 1)
    k = np.arange(2, M + 1)
    trunc = np.zeros(M + 1)
    trunc[2:] = lam * sums_jq[M - k] / ((k - 1) * (1.0 - lam))
    return SteinSolution(f=f, trunc_error=trunc, e_h=e_h, table=table)


def stein_residual(
    sol: SteinSolution,
    h: np.ndarray,
    k: int,
    accuracy: float | None = None,
) -> ResidualReport:
    """Defect of the equation at ``k`` for a solved test function.

    Both the solution series and the equation's sum stop at the same window,
    so in exact arithmetic the defect vanishes and ``residual`` measures
    floating-point drift alone.  ``remainder_bound`` bounds the terms the
    window ignores, via the solution envelope above M times the pmf tail;
    passing ``accuracy`` turns an oversized remainder into
    ``InsufficientWindow``.
    """
    table = sol.table
    M, lam = table.M, table.lam
    if not 2 <= k < M:
        raise ValueError(f"need 2 <= k < {M}, got {k}")
    h = np.asarray(h, dtype=float)
    lhs = h[k - 1] - sol.e_h
    inner = float(np.dot(sol.f[k + 1 : M + 1], table.q[1 : M - k + 1]))
    rhs = (1.0 - lam) * (k - 1) * sol.f[k] - lam * (1.0 - lam) * k * inner
    # envelope above the window: |f(j)| <= sup|h_z| / ((1-lam)(j-1)), j > M,
    # with h == 0 there, so sup|h_z| accounts for the centering constant too
    hz_sup = max(float(np.max(np.abs(h - sol.e_h))), abs(sol.e_h)) / (1.0 - lam)
    sums_q, _ = _pmf_suffix_sums(lam, min_size=M + 1)
    tail_q = float(sums_q[M - k])  # sum_{i > M-k} q(i)
    remainder = lam * k * hz_sup * tail_q / M
    if accuracy is not None and remainder > accuracy:
        raise InsufficientWindow(
            f"window remainder {remainder:g} exceeds requested accuracy {accuracy:g}"
        )
    return ResidualReport(residual=abs(lhs - rhs), remainder_bound=remainder)


def size_bias_tv_bound(w: TruncatedLaw, p: BorelParams, eps: float) -> ScaledBound:
    """Computable TV bound against Borel(lambda) for a mean-matched law.

    Requires ``E[W] = 1/(1-lam)`` within 1e-6 relative slack, then returns
    ``(1-lam)^-2`` times the TV bracket between the size-biased law and the
    mixture ``(1-I) W + I (Z + W*)``; the bracket is exact for the stored
    windows, so the upper value is a valid bound up to their tails.
    """
    target = 1.0 / (1.0 - p.lam)
    got = moments(w).mean
    if abs(got - target) > MEAN_TOLERANCE * target:
        raise MeanMismatch(
            f"E[W] = {got!r} but the bound needs {target!r} (rel tol {MEAN_TOLERANCE:g})"
        )
    wstar = size_bias(w)
    rhs = mixture_rhs(w, wstar, p, eps)
    iv = tv_distance(wstar, rhs)
    factor = 1.0 / (1.0 - p.lam) ** 2
    return ScaledBound(lower=factor * iv.lower, upper=factor * iv.upper)


def abel_sum(j: int) -> int:
    """Abel-identity check value: sum_i C(j,i) i^(i-1) (j-i)^(j-i), 0^0 = 1.

    Computed in exact integer arithmetic and asserted equal to j^j before
    returning; this is the combinatorial identity behind the coefficient
    envelope's induction step.
    """
    if j < 1:
        raise ValueError("need j >= 1")
    total = sum(
        math.comb(j, i) * i ** (i - 1) * (j - i) ** (j - i) for i in range(1, j + 1)
    )
    assert total == j**j, f"Abel identity failed at j={j}: {total} != {j**j}"
    return total
