"""Stein-equation machinery for comparing integer laws against Borel(lambda).

For a bounded test function h on {1, 2, ...} the equation

    h(k) - E[h(Z)] = (1-lam)(k-1) f(k) - lam (1-lam) k * sum_i f(i+k) q(i)

(with Z Borel(lambda), q its pmf, and f(1) = 0) is solved on a window M by
back-substitution from k = M down to 2, with h_z = (h - E[h(Z)]) / (1 - lam):

    f(k) = (k lam / (k-1)) * sum_{i=1}^{M-k} q(i) f(k+i) + h_z(k) / (k-1).

Unrolled, f(k) = sum_{m >= k} a[k, m] h_z(m), where a[k, k] = 1/(k-1) and

    a[k, m] = (k lam / (k-1)) * sum_{i=1}^{m-k} a[k+i, m] q(i),

the inverse of the triangular system the substitution solves.  The table is
built a row at a time on first read of ``SteinTable.a``; only the envelope
checks read it.  Every entry obeys
``|a[k, k+j]| <= j lam q(j) / (k-1)``, which yields the uniform solution
bound ``sup_k |f(k)| <= 1/(1-lam)^2`` for test functions with values in
[0, 1] and drives the computable comparison bound of :func:`size_bias_tv_bound`:

    TV(W, Borel(lam)) <= (1-lam)^-2 * TV(W*, (1-I) W + I (Z + W*)).

Truncating both the solution series and the equation's sum at the same
window M keeps the equation *exactly* satisfied (that is what the recursion
states), so the residual reported by :func:`stein_residual` isolates
floating-point drift, while the window remainder is bounded separately: from
tail sums of the table's own pmf window, summed from the far end, plus the
certified geometric-ratio remainder ``borel._suffix_remainders`` beyond M.

Both :func:`solve_f` and :func:`stein_residual` take an ``(n, M)`` stack of
test functions as readily as one, and the residual takes an array of k, so
checking many test functions against one table costs one call of each.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import borel
from .borel import BorelParams
from .errors import MeanMismatch, WindowOverflow
from .lawkit import TruncatedLaw, moments, tv_distance
from .sizebias import mixture_rhs, size_bias

MEAN_TOLERANCE = 1e-6  # relative slack on the mean hypothesis of the TV bound
_HP_MAX_WINDOW = 20
_HP_DPS = 50  # decimal digits of build_table_hp
MAX_TABLE_WINDOW = 5000  # a 200 MB table; build_table refuses larger M


@dataclass(frozen=True)
class SteinTable:
    """The pmf window of one (lambda, M) pair; its coefficient table on first read.

    ``q[j]`` caches the Borel pmf for 1 <= j <= M (``q[0]`` unused), all that
    solves read.  Immutable once built; share freely across threads.
    """

    lam: float
    M: int
    q: np.ndarray

    def __post_init__(self):
        self.q.setflags(write=False)

    @cached_property
    def a(self) -> np.ndarray:
        """Read-only ``(M+1, M+1)`` table, ``a[k, m]`` for 2 <= k <= m <= M, zero elsewhere.

        One matrix-vector product per row: O(M^3) flops, O(M^2) space.  All
        terms are positive, so the entries carry a relative error near
        machine epsilon (see :func:`build_table_hp`).
        """
        M, lam, q = self.M, self.lam, self.q
        a = np.zeros((M + 1, M + 1))
        a[M, M] = 1.0 / (M - 1)
        for k in range(M - 1, 1, -1):
            # rows k+1 .. M are finished, and a[k+i, m] = 0 for k+i > m
            a[k, k + 1 :] = (k * lam / (k - 1)) * (q[1 : M - k + 1] @ a[k + 1 :, k + 1 :])
            a[k, k] = 1.0 / (k - 1)
        a.setflags(write=False)
        return a

    @cached_property
    def _q_by_offset(self) -> np.ndarray:
        """Read-only ``(M+1, M+1)`` view whose ``[k, m]`` is q(m - k), zero for m <= k.

        Row k is a window of one padded copy of q, so the view costs O(M).
        """
        padded = np.concatenate([np.zeros(self.M), self.q])
        return sliding_window_view(padded, self.M + 1)[::-1]

    @cached_property
    def _tail_sums(self) -> np.ndarray:
        """Read-only bounds on ``sum_{j > W} q(j)`` (row 0) and ``j q(j)`` (row 1), W = 0..M.

        The window's terms are summed from the far end, so a tail far below
        the total keeps its digits, and the mass beyond M adds
        ``borel._suffix_remainders(lam, M)``.
        """
        terms = np.stack([self.q, np.arange(self.M + 1) * self.q])
        sums = np.zeros_like(terms)
        sums[:, :-1] = np.cumsum(terms[:, :0:-1], axis=1)[:, ::-1]
        sums += np.array(borel._suffix_remainders(self.lam, self.M))[:, None]
        sums.setflags(write=False)
        return sums


SteinSolution = namedtuple("SteinSolution", ["f", "trunc_error", "e_h", "table", "hz_sup"])
ResidualReport = namedtuple("ResidualReport", ["residual", "remainder_bound"])
ScaledBound = namedtuple("ScaledBound", ["lower", "upper"])


def build_table(p: BorelParams, M: int) -> SteinTable:
    """The table of one (lambda, M) pair: its pmf window now, ``a`` on first read.

    Raises ``ValueError`` below M = 2 and ``WindowOverflow`` above
    ``MAX_TABLE_WINDOW``, whether or not ``a`` is ever read.
    """
    if M < 2:
        raise ValueError(f"need M >= 2, got {M}")
    if M > MAX_TABLE_WINDOW:
        raise WindowOverflow(
            f"table window M = {M} exceeds MAX_TABLE_WINDOW = {MAX_TABLE_WINDOW}"
        )
    return SteinTable(lam=p.lam, M=M, q=np.concatenate([[0.0], borel.pmf_values(p, M)]))


def build_table_hp(p: BorelParams, M: int):
    """The table in ``Decimal`` at ``_HP_DPS`` digits, for measuring float drift.

    With x = lam e^(-lam) the pmf is q(i) = x^i i^(i-1) / (lam i!), so
    ``a[k, m] = x^(m-k) c[k, m]`` with the exact rationals c of
    :func:`_free_coefficients`; each entry is one ``decimal`` product of c
    with a power of x.  ``a[k][m]`` is zero outside 2 <= k <= m <= M.
    Restricted to small windows; the point is drift measurement, not
    production use.
    """
    if M > _HP_MAX_WINDOW:
        raise ValueError(f"high-precision mode supports M <= {_HP_MAX_WINDOW}")
    # decimal and fractions load on call: importing them costs the package's
    # import about 2 ms, and only this drift mode uses them
    from decimal import Decimal, localcontext

    a = [[Decimal(0)] * (M + 1) for _ in range(M + 1)]
    with localcontext() as ctx:
        ctx.prec = _HP_DPS
        lam = Decimal(p.lam)
        x = lam * (-lam).exp()
        for (k, m), c in _free_coefficients(M).items():
            a[k][m] = x ** (m - k) * c.numerator / c.denominator
    return a


def _free_coefficients(M: int) -> dict:
    """The rationals ``c[k, m] = a[k, m] / (lam e^(-lam))^(m-k)``, free of lam.

    c[m, m] = 1/(m-1) and c[k, m] = (k/(k-1)) sum_{i=1}^{m-k} c[k+i, m] i^(i-1)/i!,
    in exact arithmetic, keyed by (k, m) for 2 <= k <= m <= M.
    """
    from fractions import Fraction

    w = [Fraction(i ** (i - 1), math.factorial(i)) for i in range(1, M + 1)]
    c = {}
    for m in range(2, M + 1):
        c[m, m] = Fraction(1, m - 1)
        for k in range(m - 1, 1, -1):
            s = sum(c[k + i, m] * w[i - 1] for i in range(1, m - k + 1))
            c[k, m] = Fraction(k, k - 1) * s
    return c


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


def solve_f(h: np.ndarray, table: SteinTable) -> SteinSolution:
    """Solve the equation on the table's window for one or a stack of test functions.

    ``h`` is a length-M vector, ``h[i]`` the value at i + 1, or an ``(n, M)``
    stack of them; the function is treated as zero above the window, which
    makes ``E[h(Z)]`` a finite exact sum.  Returns the solution values (last
    axis indexed by k, with f[0] unused and f[1] = 0 by convention), one
    ``e_h`` per test function (a float for a vector ``h``) and a per-k bound
    on the series mass discarded beyond the window, shared by every row:
    it comes from the coefficient envelope and the table's certified tail
    sums of ``j q(j)``.  ``hz_sup`` is ``sup_k |h_z(k)|`` for
    ``h_z = (h - E[h(Z)]) / (1 - lam)``, with h = 0 above the window, one per
    test function.  The back-substitution's inner sums reduce within each
    row, so a stacked row equals the solution of that row alone bit for bit.
    """
    M, lam = table.M, table.lam
    h = np.asarray(h, dtype=float)
    if h.ndim not in (1, 2) or h.shape[-1] != M:
        raise ValueError(f"h must supply values at 1..{M}, got shape {h.shape}")
    rows = np.atleast_2d(h)
    e_h = np.array([math.fsum(r.tolist()) for r in rows * table.q[1:]])
    h_z = np.zeros((rows.shape[0], M + 1))
    h_z[:, 1:] = (rows - e_h[:, None]) / (1.0 - lam)
    hz_sup = np.maximum(np.abs(h_z).max(axis=1), np.abs(e_h) / (1.0 - lam))
    f = np.zeros_like(h_z)
    for k in range(M, 1, -1):
        # f(k+1) .. f(M) are finished; einsum sums within each row, where a
        # BLAS product over the stack could round rows differently
        inner = np.einsum("ij,j->i", f[:, k + 1 :], table.q[1 : M - k + 1])
        f[:, k] = (k * lam / (k - 1)) * inner + h_z[:, k] / (k - 1)
    _, sums_jq = table._tail_sums
    k = np.arange(2, M + 1)
    trunc = np.zeros(M + 1)
    trunc[2:] = lam * sums_jq[M - k] / ((k - 1) * (1.0 - lam))
    if h.ndim == 1:
        f, e_h, hz_sup = f[0], float(e_h[0]), float(hz_sup[0])
    return SteinSolution(f=f, trunc_error=trunc, e_h=e_h, table=table, hz_sup=hz_sup)


def stein_residual(sol: SteinSolution, h: np.ndarray, k) -> ResidualReport:
    """Defect of the equation at ``k`` for solved test functions.

    ``h`` is what :func:`solve_f` solved, a vector or an ``(n, M)`` stack,
    and ``k`` an integer or an integer array with ``2 <= k < M``.  The
    report's fields have shape ``h.shape[:-1] + k.shape`` (floats for a
    vector ``h`` and an integer ``k``); the equation's inner sums for every
    k come from one matrix-vector product per test function, with the pmf
    arranged by offset.

    Both the solution series and the equation's sum stop at the same window,
    so in exact arithmetic the defect vanishes and ``residual`` measures
    floating-point drift alone.  ``remainder_bound`` bounds the terms the
    window ignores, via the solution envelope above M,
    ``|f(j)| <= sol.hz_sup / ((1-lam)(j-1))``, times the pmf tail.
    """
    table = sol.table
    M, lam = table.M, table.lam
    # an integer k becomes a numpy scalar, so that a single defect is scalar
    # arithmetic; an array k broadcasts through the same expressions
    k = np.asarray(k)[()]
    if k.dtype.kind not in "iu" or ((k < 2) | (k >= M)).any():
        raise ValueError(f"need integer 2 <= k < {M}, got {k}")
    h = np.asarray(h, dtype=float)
    if h.shape != sol.f.shape[:-1] + (M,):
        raise ValueError(f"h has shape {h.shape}, the solution {sol.f.shape}")
    # one value per test function, given the axes of k
    k_axes = (...,) + (None,) * k.ndim
    e_h = np.asarray(sol.e_h)[k_axes][()]
    hz_sup = np.asarray(sol.hz_sup)[k_axes][()]
    # inner[..., k] = sum_{m > k} f[..., m] q(m - k): one matrix-vector
    # product per test function gives every k
    inner = (table._q_by_offset[k] @ sol.f[..., None])[..., 0]
    rhs = (1.0 - lam) * (k - 1) * sol.f[..., k][()] - lam * (1.0 - lam) * k * inner
    residual = abs(h[..., k - 1][()] - e_h - rhs)
    sums_q, _ = table._tail_sums
    # sums_q[M - k] = sum_{i > M-k} q(i)
    remainder = lam * k * hz_sup * sums_q[M - k] / M
    if residual.ndim == 0:
        return ResidualReport(residual=float(residual), remainder_bound=float(remainder))
    return ResidualReport(residual=residual, remainder_bound=remainder)


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
