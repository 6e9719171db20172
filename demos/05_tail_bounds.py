"""Concentration inequalities for Borel(lambda) versus exact tails.

The lower tail admits a clean Gaussian bound; the upper tail comes from an
exponential-moment argument with a tunable slack delta, optimized per point
here.  Exact tails are computed from the truncated law with the residual
window mass as an explicit error bar, so every comparison is one-sided
rigorous.

Run:  python demos/05_tail_bounds.py
"""

from borelstein import (
    BorelParams,
    exact_tail,
    lower_tail_bound,
    make_params,
    mgf_moment_check,
    optimize_delta,
    upper_tail_bound,
)
from borelstein.concentration import delta_limit

lam = 0.5
p = BorelParams(lam)

print(f"Borel({lam}), standardized tails\n")
print(f"{'t':>5}{'exact lower':>14}{'bound':>10}{'exact upper':>14}{'opt bound':>12}{'delta*':>9}")
for t in (0.25, 0.5, 1.0, 2.0, 4.0):
    low = exact_tail(p, t, "lower")
    up = exact_tail(p, t, "upper")
    choice = optimize_delta(lam, t)
    print(
        f"{t:>5}{low.value:>14.6f}{lower_tail_bound(t):>10.5f}"
        f"{up.value:>14.6e}{choice.bound:>12.5e}{choice.delta:>9.4f}"
    )

print(f"\nfeasible slack range at lambda={lam}: (0, {delta_limit(lam):.5f})")
params = make_params(lam, 0.1)
print(f"delta=0.1 gives gamma={params.gamma:.5f}, K={params.K:.3f}")
print(f"branch handover at t* = {params.breakpoint:.4f}")
t_star = params.breakpoint
print(
    "bound just below / just above t*: "
    f"{upper_tail_bound(params, t_star * (1 - 1e-9)):.10f} / "
    f"{upper_tail_bound(params, t_star * (1 + 1e-9)):.10f}"
)

print(
    "\nexponential-moment cap behind the upper bound holds in closed form: "
    f"{mgf_moment_check(params)}"
)
