"""Hypercube moments against their spectral bounds, all by exhaustive
enumeration (n is small; the claims are exact)."""

import numpy as np

from ptffool import (DegTwoPoly, eigenbound_ratio, exact_moment_hypercube,
                     khintchine_check, mc_moment_hypercube)

rng = np.random.default_rng(0)

# the degree-2 second moment identity: for a trace-free symmetric A,
# E[(x' A x)^2] = 4 * sum of squared strictly-upper entries
A = rng.normal(size=(8, 8))
A = 0.5 * (A + A.T)
np.fill_diagonal(A, 0.0)
rep = eigenbound_ratio(A, 2)
target = 4.0 * float(np.sum(np.triu(A, 1) ** 2))
print(f"E[(x'Ax)^2] = {rep.value:.12f}")
print(f"4*sum A_ij^2 = {target:.12f}   (gap {abs(rep.value - target):.2e})")

# higher even moments stay under max(sqrt(k)||A||_F, k ||A||_op)^k with a
# universal constant; the report's ratio is the k-th root comparison
for k in (2, 4, 6, 8):
    r = eigenbound_ratio(A, k)
    print(f"k={k}: ratio {r.ratio:.4f} (constant allows up to 128)")

# Khintchine for linear forms: E[(a.x)^k] <= |a|^k k^(k/2)
a = rng.normal(size=10)
for k in (2, 4, 8):
    kr = khintchine_check(a, k)
    print(f"Khintchine k={k}: moment {kr.value:.4f} <= bound {kr.bound:.4f}")

# Monte Carlo agrees with enumeration where both are available
p = DegTwoPoly(n=10, quad=np.pad(A, ((0, 2), (0, 2))))
exact = exact_moment_hypercube(p, 4).value
mc = mc_moment_hypercube(p, 4, samples=400_000, seed=1).value
print(f"\n4th moment exact {exact:.4f} vs MC {mc:.4f} "
      f"(rel gap {abs(mc - exact) / exact:.1%})")
