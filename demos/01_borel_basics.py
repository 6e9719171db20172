"""Tour of the Borel(lambda) basics: pmf, truncated law, moments, sampler.

Run:  python demos/01_borel_basics.py
"""

import numpy as np

from borelstein import BorelParams, empirical_law, law, moments, pmf, sample_many, tv_distance

lam = 0.5
p = BorelParams(lam)

print(f"Borel({lam}): mean {p.mean:g}, variance {p.variance:g}")
print("first few masses:")
for j in range(1, 6):
    print(f"  P(Z = {j}) = {pmf(p, j):.12f}")

# The adaptive law stops at the first window whose certified tail bound is
# at most eps and books the exact complement as tail mass.
L = law(p, eps=1e-10)
print(f"\nwindow for eps=1e-10: {L.end} points, tail mass {L.tail_mass:.3e}")
print(f"conservation defect: {abs(L.window_sum() + L.tail_mass - 1.0):.3e}")

m = moments(L)
print(f"truncated mean {m.mean:.10f} (closed form {p.mean:g})")
print(f"truncated variance {m.second_moment - m.mean**2:.10f} (closed form {p.variance:g})")

# The sampler walks the branching frontier: one initial individual, each
# service adds a Poisson(lambda) batch, and the total progeny is the draw.
rng = np.random.default_rng(2024)
n = 200_000
totals, censored = sample_many(p, n, rng)
print(f"\n{n} sampler draws: empirical mean {totals.mean():.4f}, censored {censored.sum()}")

emp = empirical_law(totals[~censored], M=L.end, n_total=n)
iv = tv_distance(emp, L)
print(f"TV(empirical, exact) bracket: [{iv.lower:.5f}, {iv.upper:.5f}]")
print(f"sampling-noise scale sqrt(M/4n) = {np.sqrt(L.end / (4 * n)):.5f}")
