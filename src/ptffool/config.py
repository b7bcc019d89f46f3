"""Central namespace for tolerances, budgets, and defaults.

Numeric literals that govern pass/fail decisions live here and nowhere
else.  Each constant documents what it protects.  The few constants that
come from proofs rather than engineering judgment say so; the rest are
defensible defaults, some of which functions take as default arguments.
Nothing here reads the environment.
"""


# --------------------------------------------------------------------------
# hard caps and exact-arithmetic budgets

#: Largest sample-space support that may be materialized point by point.
SUPPORT_BUDGET = 2 ** 24

#: Largest n for which worst-case LPs over the full cube are attempted.
LP_MAX_N = 14

#: Largest n for exhaustive enumeration of the hypercube in moment and
#: tail computations.
ENUM_MAX_N = 20

#: Largest moment order accepted by the exact enumeration paths.
MOMENT_MAX_K = 16

#: Largest matrix side accepted by the eigensolver.
EIGEN_MAX_N = 2048

#: Largest support size for which the exact rational repair of an LP
#: witness is attempted.  Its float LU takes 0.01 s at 638 and 0.85 s at
#: 4096 on a 2-core machine.  LP witnesses at n = 10 (support 638, 848)
#: repair in about 0.15 s a side; random ±1 systems, with denominators near
#: the Hadamard bound, take 1.2 s at 1024, 12 s at 2048 and 157 s at 4096.
WITNESS_REPAIR_MAX_SUPPORT = 4096


# --------------------------------------------------------------------------
# eigensolver and spectral decomposition

#: Eigenvalues within this absolute distance of the split threshold are
#: routed to the small-eigenvalue bucket so the split is stable.
SPECTRAL_TIE_TOL = 1e-12

#: Reconstruction tolerance for the three-way quadratic split.
SPECTRAL_RECONSTRUCT_TOL = 1e-10


# --------------------------------------------------------------------------
# LP harness and certificates

#: Feasibility tolerance of the floating LP solve, passed to HiGHS as its
#: primal and dual feasibility tolerance.
LP_FEAS_TOL = 1e-9

#: Denominator cap when rounding dual certificates to exact rationals.
CERT_DENOMINATOR = 2 ** 32

#: A repaired certificate must reproduce the floating LP gap this closely.
CERT_GAP_TOL = 1e-6

#: Entries of an LP solution below this threshold are treated as zero when
#: reconstructing the witness support.
WITNESS_SUPPORT_TOL = 1e-9


# --------------------------------------------------------------------------
# mollifier numerics

#: Largest |integral - 1| at which the kernel's unit-integral quadrature
#: check passes.
QUAD_TOL = 1e-3

#: Switch to the Taylor series for the closed-form transform profile when
#: the radius falls below this value.
BHAT_SERIES_CUTOFF = 1e-2

#: Number of Taylor terms used below the cutoff.
BHAT_SERIES_TERMS = 6


# --------------------------------------------------------------------------
# sample spaces

#: Default number of quantile levels for the inverse-CDF Gaussian space.
GAUSSIAN_LEVELS_DEFAULT = 2 ** 20

#: Default averaging depth N for the bit-averaging Gaussian space.
BINOMIAL_N_DEFAULT = 10 ** 4

#: Acceptable deviation of an inverse-CDF marginal's variance from 1.
GAUSSIAN_VARIANCE_TOL = 1e-2


# --------------------------------------------------------------------------
# regularity trees

#: Hard cap on tree depth regardless of tau.
TREE_DEPTH_CAP = 18


# --------------------------------------------------------------------------
# rounding experiments

#: Numerator of the default independence order k = ceil(GW_K_NUM / eps^2).
GW_K_NUM = 4

#: How far an embedding row's Euclidean norm may sit from 1.
EMBED_UNIT_TOL = 1e-8


# --------------------------------------------------------------------------
# constants carried by proofs (do not tune)

#: Hard moment-ratio ceiling for centered quadratic forms: the proof fixes
#: a base constant of 64 which one power-mean step doubles.
EIGENBOUND_CONST = 128.0

