"""Hyperplane rounding of unit-vector embeddings, driven by k-wise
Gaussian seed spaces instead of fresh iid randomness."""

import math

from ptffool import (build_kwise_gaussian, cycle_graph, expected_cut_exact,
                     generate_test_embedding, k_for_eps, round_with_space,
                     single_edge)

# two antipodal vectors: every hyperplane separates them, cut = 1
edge = single_edge()
anti = generate_test_embedding(edge, "antipodal")
print("antipodal expected cut:", expected_cut_exact(edge, anti))

# pentagon at the optimal embedding: angle 4pi/5 per edge, cut exactly
# 5 * arccos(cos(4pi/5)) / pi = 4
c5 = cycle_graph(5)
opt = generate_test_embedding(c5, "cycle_optimal")
print("pentagon optimal expected cut:", expected_cut_exact(c5, opt))

# a 2-wise Gaussian seed space is already enough for the antipodal
# edge, and small enough to sweep every seed exactly
gs2 = build_kwise_gaussian(2, 2, resolution=256)
sweep = round_with_space(edge, anti, gs2)
print(f"exact sweep over {sweep.trials} seeds: mean cut {sweep.mean_cut}")

# accuracy eps needs k ~ 4/eps^2 independence; eps = 0.05 gives 1600
k = k_for_eps(0.05)
print(f"\ntarget eps=0.05 -> k = {k}")

emb = generate_test_embedding(c5, "random_unit", dim=3, seed=11)
exact = expected_cut_exact(c5, emb)
gsk = build_kwise_gaussian(3, k)
rep = round_with_space(c5, emb, gsk, trials=20_000, seed=5)
print(f"random pentagon embedding: exact {exact:.5f}, "
      f"k-wise MC {rep.mean_cut:.5f} +- {rep.ci:.5f}")
print(f"difference {abs(rep.diff_vs_exact):.5f} "
      f"(allowed drift {0.05 * c5.total_weight:.3f} plus noise)")
