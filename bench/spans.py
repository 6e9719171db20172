"""Outside-in tracing of borelstein's public functions.

Nothing in the library is edited.  :func:`install` replaces each target
function at every module binding that resolves to it, because a name
imported with ``from .borel import branching_totals`` is a binding of its own
next to ``borel.branching_totals``; a caller is traced whichever name it
uses.  The acceptance suites are also replaced inside ``ALL_SUITES``, which
``run_all`` iterates.  The returned function puts every original back.

Every wrapped call records a span ``(id, parent_id, name, start, end,
child_seconds)``.  A span's self time is its duration minus the time its
child spans cover.  Counters are derived from arguments, return values and
the ``next_mu`` callback of ``branching_totals``; apart from that callback
they are taken after the span has closed, so their cost lands in the traced
pass time (and hence in ``trace.overhead_frac``), not in a self time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter

# lawkit convolves directly up to this product of window sizes and by FFT
# above it; the FFT count is computed from the input sizes, not observed
FFT_SWITCH = 1_000_000

N_SUITES = 12

# counters that are computed rather than observed at a call
COMPUTED = {
    "lawkit.convolve.fft_calls": "computed from the input sizes",
    "stein.build_table.entries": "computed as M(M-1)/2",
}

# the per-layer metrics a traced run reports, besides trace.overhead_frac
PER_LAYER = [
    f"{layer}.{metric}"
    for layer, metrics in [
        ("borel.law", "s calls points"),
        ("borel.pmf_values", "s points"),
        ("borel.poisson_draw_vec", "s calls draws useful_frac"),
        ("borel.branching_totals", "s rounds scanned useful_frac"),
        ("lawkit.convolve", "s calls fft_calls out_points"),
        ("lawkit.tv_distance", "s calls"),
        ("lawkit.empirical_law", "s"),
        ("sizebias.size_bias", "s calls"),
        ("sizebias.geometric_sum_law", "s calls"),
        ("sizebias.mixture_rhs", "s"),
        ("stein.build_table", "s calls entries"),
        ("stein.solve_f", "s calls"),
        ("stein.stein_residual", "s calls"),
        ("stein.size_bias_tv_bound", "s"),
        ("mg1.simulate", "s busy_periods"),
        ("mg1.service_abs_moment", "s calls"),
        ("mg1.draw", "samples"),
        ("concentration.optimize_delta", "s calls"),
        ("concentration.exact_tail", "s calls"),
        ("concentration.mgf_moment_check", "s"),
        ("acceptance.run_all", "s"),
    ]
    + [(f"acceptance.suite_{cid:02d}", "s") for cid in range(1, N_SUITES + 1)]
    for metric in metrics.split()
]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []  # [span_id, child_seconds] for each call in progress
        self._ids = itertools.count()

    def span(self, name, fn):
        open_calls, spans, ids = self._open, self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = open_calls[-1][0] if open_calls else None
            frame = [next(ids), 0.0]
            open_calls.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_calls.pop()
                if open_calls:
                    open_calls[-1][1] += end - start
                spans.append((frame[0], parent, name, start, end, frame[1]))

        return wrapper

    def counted(self, fn, hook):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counts, result, *args, **kwargs)
            return result

        return wrapper

    def self_seconds(self) -> Counter:
        totals = Counter()
        for _, _, name, start, end, child in self.spans:
            totals[name] += (end - start) - child
        return totals

    def calls(self) -> Counter:
        return Counter(name for _, _, name, _, _, _ in self.spans)


def _law(c, law, p, eps, *args, **kwargs):
    c["borel.law.points"] += law.size


def _pmf_values(c, q, p, M):
    c["borel.pmf_values.points"] += M


def _poisson_draw_vec(c, k, rng, mu):
    # the inversion sweeps every entry until the largest draw is reached, so
    # it scans size * (max k + 1) slots of which sum(k + 1) do useful work
    c["borel.poisson_draw_vec.draws"] += k.size
    if k.size:
        c["borel.poisson_draw_vec.useful"] += int(k.sum()) + k.size
        c["borel.poisson_draw_vec.scanned"] += k.size * (int(k.max()) + 1)


def _convolve(c, out, a, b):
    c["lawkit.convolve.out_points"] += out.size
    c["lawkit.convolve.fft_calls"] += int(a.size * b.size > FFT_SWITCH)


def _build_table(c, table, p, M):
    c["stein.build_table.entries"] += M * (M - 1) // 2


def _simulate(c, summary, lam, s, n, *args, **kwargs):
    c["mg1.simulate.busy_periods"] += n


# (module, function, counter hook); every one of them is also a span
TARGETS = [
    ("borel", "law", _law),
    ("borel", "pmf_values", _pmf_values),
    ("borel", "poisson_draw_vec", _poisson_draw_vec),
    ("borel", "branching_totals", None),
    ("lawkit", "convolve", _convolve),
    ("lawkit", "tv_distance", None),
    ("lawkit", "empirical_law", None),
    ("sizebias", "size_bias", None),
    ("sizebias", "geometric_sum_law", None),
    ("sizebias", "mixture_rhs", None),
    ("stein", "build_table", _build_table),
    ("stein", "solve_f", None),
    ("stein", "stein_residual", None),
    ("stein", "size_bias_tv_bound", None),
    ("mg1", "simulate", _simulate),
    ("mg1", "service_abs_moment", None),
    ("concentration", "optimize_delta", None),
    ("concentration", "exact_tail", None),
    ("concentration", "mgf_moment_check", None),
    ("acceptance", "run_all", None),
]


def _count_rounds(counts, fn):
    """Count frontier rounds through the ``next_mu`` callback.

    ``branching_totals`` asks ``next_mu`` for one fresh mean per live path
    once per round, and each round scans all ``n`` paths.
    """

    @functools.wraps(fn)
    def wrapper(rng, first_mu, next_mu, cap):
        rounds = 0

        def counting_next_mu(k):
            nonlocal rounds
            rounds += 1
            counts["borel.branching_totals.draws"] += k
            return next_mu(k)

        try:
            return fn(rng, first_mu, counting_next_mu, cap)
        finally:
            counts["borel.branching_totals.rounds"] += rounds
            counts["borel.branching_totals.scanned"] += first_mu.size * rounds

    return wrapper


def _count_samples(counts, draw):
    @functools.wraps(draw)
    def wrapper(self, rng, size):
        counts["mg1.draw.samples"] += size
        return draw(self, rng, size)

    return wrapper


def install(tracer: Tracer):
    """Wrap every target at every binding; return a function that undoes it."""
    modules = [
        m
        for name, m in list(sys.modules.items())
        if name == "borelstein" or name.startswith("borelstein.")
    ]
    undo = []

    def rebind(orig, new):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    undo.append((m, attr, orig))
                    setattr(m, attr, new)

    for module, name, hook in TARGETS:
        mod = sys.modules.get(f"borelstein.{module}")
        orig = getattr(mod, name, None)
        if orig is None:
            continue  # a later refactor removed it; its metrics read 0
        new = tracer.span(f"{module}.{name}", orig)
        if hook is not None:
            new = tracer.counted(new, hook)
        if name == "branching_totals":
            new = _count_rounds(tracer.counts, new)
        rebind(orig, new)

    mg1 = sys.modules.get("borelstein.mg1")
    if mg1 is not None:
        draw = mg1.ServiceModel.draw
        undo.append((mg1.ServiceModel, "draw", draw))
        mg1.ServiceModel.draw = _count_samples(tracer.counts, draw)

    acceptance = sys.modules.get("borelstein.acceptance")
    if acceptance is not None:
        suites = list(acceptance.ALL_SUITES)
        traced = []
        for cid, fn in suites:
            new = tracer.span(f"acceptance.suite_{int(cid):02d}", fn)
            rebind(fn, new)
            traced.append((cid, new))
        acceptance.ALL_SUITES[:] = traced
    else:
        suites = None

    def restore():
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)
        if suites is not None:
            acceptance.ALL_SUITES[:] = suites

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The PER_LAYER metrics of one traced pass; absent layers read 0."""
    own, calls, c = tracer.self_seconds(), tracer.calls(), tracer.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    c["borel.poisson_draw_vec.useful_frac"] = ratio(
        "borel.poisson_draw_vec.useful", "borel.poisson_draw_vec.scanned"
    )
    c["borel.branching_totals.useful_frac"] = ratio(
        "borel.branching_totals.draws", "borel.branching_totals.scanned"
    )
    out = {}
    for name in PER_LAYER:
        span, metric = name.rsplit(".", 1)
        out[name] = own[span] if metric == "s" else calls[span] if metric == "calls" else c[name]
    return out
