"""Two independent reconstructions of the size-biased Borel law.

The size-biased version of Z weights each outcome by its value.  It can be
rebuilt without ever size-biasing directly:

  * mixture route: with probability 1 - lambda keep Z, otherwise add an
    independent Z to a fresh size-biased copy;
  * geometric-sum route: sum a Geometric(1 - lambda) number of independent
    Borel draws, whose law is computed in one FFT from its generating
    function (1 - lambda) Q(z) / (1 - lambda Q(z)).

Both land on the same law; the TV brackets below quantify how closely the
finite-window computations agree.

Run:  python demos/02_size_bias_identities.py
"""

from borelstein import (
    BorelParams,
    geometric_sum_law,
    law,
    mixture_rhs,
    moments,
    size_bias,
    tv_distance,
    x_mean,
)

for lam in (0.2, 0.5, 0.8):
    p = BorelParams(lam)
    L = law(p, eps=1e-10)
    star = size_bias(L)

    mixed = mixture_rhs(L, star, p, eps=1e-10)
    iv_mix = tv_distance(star, mixed)

    geo = geometric_sum_law(p, eps=1e-10)
    ref = size_bias(law(p, eps=1e-13))  # finer reference, see module notes
    iv_geo = tv_distance(ref, geo)

    print(f"lambda = {lam}")
    print(f"  TV(size-biased, mixture route)   <= {iv_mix.upper:.3e}")
    print(f"  TV(size-biased, geometric route) <= {iv_geo.upper:.3e}")

    gap = moments(star).mean - moments(L).mean
    print(f"  biased-mean gap {gap:.8f} vs lam/(1-lam)^2 = {x_mean(p):.8f}\n")
