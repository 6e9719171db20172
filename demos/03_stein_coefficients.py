"""The coefficient table, its envelope, and the computable TV bound.

The comparison equation for Borel approximation is solved by a series with
triangular coefficients a[k, m].  Everything checkable about them is checked
here: the diagonal closed form, the envelope j*lam*q(j)/(k-1), the solution
sup-norm, the (floating-point-level) equation residual, and finally the
headline application: a computable bound that dominates the exact TV
distance for a mean-matched perturbation of the Borel law.

Run:  python demos/03_stein_coefficients.py
"""

import numpy as np

from borelstein import BorelParams, abel_sum, build_table, coefficient_bound, law
from borelstein import pmf_values, solve_f, stein_residual, size_bias_tv_bound, tv_distance
from borelstein.acceptance import mean_matched_borel_window, perturb_mean_preserving

lam, M = 0.3, 60
p = BorelParams(lam)
table = build_table(p, M)

print(f"a[2,2] = {table.a[2, 2]} (exactly 1)")
print(f"a[5,6] = {table.a[5, 6]:.12f} vs closed form {lam * np.exp(-lam) / 4:.12f}")

q = pmf_values(p, M)
worst = max(
    float(np.max(np.abs(table.a[k, k + 1 : M + 1]) - np.arange(1, M - k + 1) * lam * q[: M - k] / (k - 1)))
    for k in range(2, M)
)
print(f"worst envelope excess over the table: {worst:.3e} (must be <= 0 up to dust)")

print(f"\nAbel check: sum at j=6 is {abel_sum(6)} = 6^6 = {6**6}")
print(f"envelope at (k=2, j=5): {coefficient_bound(p, 2, 5):.6e}")

rng = np.random.default_rng(7)
h = rng.uniform(-1.0, 1.0, size=M)
sol = solve_f(h, table)
print(f"\nrandom bounded h: sup|f| = {np.max(np.abs(sol.f)):.4f}"
      f" (uniform cap {1 / (1 - lam) ** 2:.4f} for [0,1]-valued h)")
reps = stein_residual(sol, h, np.arange(2, 31)).residual  # every k in one call
print(f"equation residual over k <= 30: max {reps.max():.3e} (float drift only)")

# The application: perturb the Borel window without moving its mean, then
# compare the exact TV distance against the computable bound.
base = mean_matched_borel_window(lam)
w = perturb_mean_preserving(base, rng)
exact = tv_distance(w, law(p, 1e-10)).lower
bound = size_bias_tv_bound(w, p, eps=1e-10)
print(f"\nperturbed law: exact TV {exact:.6e} <= bound {bound.upper:.6e}")
