"""Fooling measurements: how far a limited-independence distribution can
pull the expectation of a degree-2 sign function away from uniform.

Three levels of machinery live here.  The exact level enumerates
expectations as rationals, for the uniform cube and for explicit sample
spaces.  The adversarial level phrases "worst k-wise independent
distribution" as a linear program over point masses w >= 0 on the 2^n
cube points, with one equality row per set of at most k coordinates, and
extracts three artifacts from one solve: the optimum, an optimal
distribution repaired to exact rational feasibility, and a degree-k
sandwiching polynomial certificate recovered from the dual and
re-verified in integer arithmetic.

The LP states k-wise independence by marginal rows: Pr[x_i = -1 for all
i in S] = 2^-|S| for every |S| <= k.  By inclusion-exclusion these rows
span the same space as the parity rows, but row S has only 2^(n-|S|)
nonzeros (54,528 in all at (n, k) = (10, 5), against 653,312 for dense ±1
parity rows), so HiGHS solves it faster: by the dual simplex up to 600
rows, by interior point with crossover above.  The rows' duals map to the
parity basis by one Walsh-Hadamard transform and are the certificate, and
q is evaluated on the cube by one integer transform.

When the R marginal rows are more than half the 2^n points, the same LP
is solved from the certificate's side instead, with one row per vector of
the kernel of the marginal rows, K = 2^n - R rows in all: the variables
are the slack between q and the objective, and the rows say that q has
degree <= k.  Its reduced costs are the optimal distribution.

The repair solves the marginal rows, restricted to the optimal vertex's
support, by one float LU, integer iterative refinement and rational
reconstruction; floats only search, and an integer check of every row is
the proof.  The sgn LP and the intersection LP share one driver.  The
probe level is Monte Carlo, for quantities with no exact counterpart.

Every sign of p is exact (``poly.signs``), with sgn(0) = +1 everywhere
applied as ``signs(...) >= 0``.  Reports carry the sign-scale deviation;
the {0,1}-indicator scale is exactly half of it and appears alongside
where it matters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import config, cube
from .errors import (ConfigurationError, ContractViolationError,
                     ConvergenceError, DegenerateInputError,
                     InconclusiveError, ResourceBudgetError)
from .gf2 import BLOCK_ELEMENTS, popcount_u64
from .poly import DegTwoPoly, signs
from .spaces import SampleSpace, VerificationReport, verify_kwise_exact

if TYPE_CHECKING:
    from scipy import sparse

_CERT_DEN = config.CERT_DENOMINATOR
_PIVOT_TOL = 1e-9            # LU pivots at or below this count as zero
_REFINE_BITS = 47            # bits of each refinement correction; support * 2^47
                             # fits int64 for any support below 2^15
_RECONSTRUCT_EVERY = 4       # refinement steps between reconstruction attempts
_LIMB_BITS = 31              # limb width of the exact integer matmul


# scipy.optimize alone takes about 0.4 s and 50 MiB to import, which commands
# that solve no LP should not pay.  The solvers stay module attributes, so
# callers can trace or replace them.

def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def lu_factor(*args, **kwargs):
    """``scipy.linalg.lu_factor``, imported on the first call."""
    from scipy.linalg import lu_factor
    return lu_factor(*args, **kwargs)


def lu_solve(*args, **kwargs):
    """``scipy.linalg.lu_solve``, imported on the first call."""
    from scipy.linalg import lu_solve
    return lu_solve(*args, **kwargs)


def sgn_values(p: DegTwoPoly) -> np.ndarray:
    """sgn(p) over the full cube in row order, int8, exact."""
    return np.where(signs(p, cube.all_points(p.n)) >= 0, 1, -1).astype(np.int8)


def exact_sgn_expectation(p: DegTwoPoly,
                          space: Optional[SampleSpace] = None) -> Fraction:
    """E[sgn(p)] as an exact rational, under ``space`` or else uniform."""
    if space is None:
        if p.n > config.ENUM_MAX_N:
            raise ResourceBudgetError(
                f"uniform enumeration capped at n = {config.ENUM_MAX_N}")
        values = sgn_values(p)
        return Fraction(int(np.sum(values, dtype=np.int64)), values.size)
    if space.n != p.n:
        raise ConfigurationError("space dimension does not match polynomial")
    return 2 * space.probability(signs(p, space.points) >= 0) - 1


# --------------------------------------------------------------------------
# reports


@dataclass
class SandwichCertificate:
    """Degree-k polynomial bounding the objective from one side.

    Coefficients are exact rationals over a power-of-two denominator.
    ``verified`` means the pointwise inequality was checked in integer
    arithmetic at every cube point after rounding (with any slack
    repair already applied), and the re-measured gap agreed with the
    LP's within tolerance.
    """

    k: int
    direction: str                       # "upper" | "lower"
    coefficients: dict[tuple[int, ...], Fraction]
    expectation: Fraction                # E_U[q]: the empty-set coefficient
    gap: Fraction                        # |E_U[q] - E_U[objective]|, exact
    lp_gap: float                        # same gap as the LP measured it
    slack_added: Fraction
    verified: bool


@dataclass
class DeviationReport:
    n: int
    k: Optional[int]
    mode: str                            # "space" | "lp"
    uniform_expectation: Fraction
    space_expectation: Optional[Fraction] = None
    lp_max: Optional[float] = None
    lp_min: Optional[float] = None
    deviation: float = 0.0
    indicator_deviation: float = 0.0
    certificate_upper: Optional[SandwichCertificate] = None
    certificate_lower: Optional[SandwichCertificate] = None
    witness_max: Optional[SampleSpace] = None
    witness_min: Optional[SampleSpace] = None
    witness_max_check: Optional[VerificationReport] = None
    witness_min_check: Optional[VerificationReport] = None
    witness_repair_failed: bool = False
    witness_repair_reason: Optional[str] = None
    objective: str = "sgn"               # "sgn" | "indicator"
    lp: Optional[dict] = None            # form, size, method; per side status,
                                         # iterations, support

    def check_order_invariant(self) -> bool:
        """lp_min <= uniform <= lp_max, within LP tolerance."""
        if self.lp_max is None or self.lp_min is None:
            return True
        u, tol = float(self.uniform_expectation), config.LP_FEAS_TOL
        return self.lp_min <= u + tol and u - tol <= self.lp_max


def deviation(p: DegTwoPoly, space: SampleSpace) -> DeviationReport:
    """Exact |E_space[sgn p] - E_uniform[sgn p]|."""
    uni = exact_sgn_expectation(p)
    spc = exact_sgn_expectation(p, space)
    dev = abs(spc - uni)
    return DeviationReport(n=p.n, k=space.k_claimed, mode="space",
                           uniform_expectation=uni, space_expectation=spc,
                           deviation=float(dev),
                           indicator_deviation=float(dev / 2))


# --------------------------------------------------------------------------
# the adversarial LP


def _marginal_rows(masks: np.ndarray, columns: np.ndarray) -> sparse.csc_matrix:
    """AND_S(x), 0/1, for every subset mask S of ``masks`` (rows) and cube
    row index x of ``columns`` (uint64): 1 where x has every bit of S set,
    that is x_i = -1 for all i in S.  Over the whole cube row S has 2^(n -
    |S|) ones.  Built a block of columns at a time, so each block's nonzeros
    come out in CSC order.

    By inclusion-exclusion AND_S = 2^-|S| sum_{T <= S} (-1)^|T| chi_T, so
    the rows AND_S w = 2^-|S| (|S| <= k) state exactly what the parity rows
    chi_T w = [T = 0] do: every marginal of at most k coordinates uniform.
    The empty set's row is the normalization.
    """
    from scipy import sparse

    step = max(1, BLOCK_ELEMENTS // max(masks.size, 1))
    indices, counts = [], [np.zeros(1, dtype=np.int64)]
    for lo in range(0, columns.size, step):
        hit = (columns[lo:lo + step, None] & masks) == masks
        indices.append(np.nonzero(hit)[1])
        counts.append(np.count_nonzero(hit, axis=1))
    rows = np.concatenate(indices)
    return sparse.csc_matrix((np.ones(rows.size), rows, np.cumsum(np.concatenate(counts))),
                             shape=(masks.size, columns.size))


def _kernel_rows(n: int, k: int) -> sparse.csc_matrix:
    """V^T: one row per set T of more than k coordinates, (-1)^(|T|+|x|) at
    every cube row index x <= T, and 0 elsewhere.

    Every marginal row of order <= k annihilates row T, because the sum
    over S <= x <= T of (-1)^|T - x| is [S = T].  The 2^n - R rows are
    independent: on the columns x = T, taken in order of |T|, they are unit
    triangular.  So they span the kernel of the R marginal rows.  They are
    the marginal rows of the complements, with the sign put on their data.
    """
    points = np.arange(1 << n, dtype=np.uint64)
    sizes = popcount_u64(points)
    tops = points[sizes > k]
    full = np.uint64(points.size - 1)
    V = _marginal_rows(full ^ tops, full ^ points)
    V.data = 1.0 - 2.0 * ((sizes[tops][V.indices] ^ np.repeat(sizes, np.diff(V.indptr))) & 1)
    return V


def _check_lp_input(n: int, k: int) -> None:
    """Refuse, before the cube is enumerated, an LP above the size cap or an
    independence order outside 0..n."""
    if n > config.LP_MAX_N:
        raise ResourceBudgetError(f"LP enumeration capped at n = {config.LP_MAX_N}")
    if not 0 <= k <= n:
        raise ConfigurationError("independence order must lie in 0..n")


def _lp_method(rows: int) -> str:
    """The solver rule: HiGHS's dual simplex up to 600 rows, interior point
    with crossover (which still ends at the vertex the witness repair
    needs) above.  Both sides' HiGHS time for a random p on a 2-core
    machine, dual simplex against interior point: at n = 10, 0.05/0.09 s
    at k = 2 (56 rows), 0.18/0.32 s at k = 3 (176), 0.61/0.82 s at k = 4
    (386), 0.85/0.78 s at k = 5 (638), 1.02/0.71 s at k = 6 (848); at
    n = 11, 2.6/2.9 s at k = 4 (562) and 6.8/5.2 s at k = 5 (1,024); at
    n = 12, 18.9/12.4 s at k = 4 (794).

    The rule sizes the marginal form only.  The kernel form is always
    solved by interior point with crossover.  Both sides' time on the same
    machine on one OpenBLAS thread, against the marginal form's (interior
    point for both): at n = 10, 0.4/0.9 s at k = 5 (386 rows against 638)
    and 0.2/1.0 s at k = 6 (176 against 848); at n = 11, 1.9/3.6 s at
    k = 6 (562 against 1,486); at n = 12, 20/24 s at k = 6 (1,586 against
    2,510) and 6.6/20 s at k = 7 (794 against 3,302)."""
    return "highs-ds" if rows <= 600 else "highs-ipm"


@dataclass
class _LpSide:
    sense: str                           # "max" | "min"
    optimum: float
    weights: np.ndarray                  # an optimal distribution: the marginal form's
                                         # solution, or the kernel form's reduced costs
    dual: np.ndarray                     # sign times q's χ coefficients on masks
    subsets: list[tuple[int, ...]]
    masks: np.ndarray                    # uint64: 0 (normalization), then subsets'
    objective_values: np.ndarray         # s(x) over the cube
    uniform_expectation: Fraction
    k: int
    n: int


def _solve_lp(values: np.ndarray, n: int, k: int,
              objective: str) -> tuple[DeviationReport, list[_LpSide]]:
    """The LP driver shared by every objective (integer ``values`` over the
    cube): solve the max side, then the min side, and return both with a
    report of the optima, the deviation on both scales, the certificates
    and the LP's size.

    The LP takes one of two forms, whichever has fewer rows; the report's
    ``lp`` names it and gives the size of the matrix HiGHS was given.

    - *Marginal:* the variables are the 2^n point masses and the rows are
      :func:`_marginal_rows`, one per subset of order <= k, the empty
      set's being the normalization.  Their duals u give the Lagrangian
      function A^T u = sign q on the cube.
    - *Kernel,* when 1 <= K = 2^n - R < R: the certificate's side.  The
      variables are the slack mu = sign (s - q) >= 0 (q - s on the max
      side, s - q on the min side), the cost is the uniform 2^-n, and the
      rows :func:`_kernel_rows` say V^T mu = sign V^T s, that is V^T q =
      0: q has degree <= k.  The optimum is E_U[s] - sign fun.  The
      reduced costs 2^-n - V z are nonnegative, satisfy every marginal
      row and vanish where mu does not, so they are an optimal
      distribution.
      Under the dual simplex they need not be a vertex, which the witness
      repair needs, so this form is solved by interior point with
      crossover.

    Either way the Walsh-Hadamard coefficients of sign q on ``masks`` are
    the parity rows' duals that :func:`sandwich_from_dual` expects."""
    uni = Fraction(int(np.sum(values, dtype=np.int64)), values.size)
    report = DeviationReport(n=n, k=k, mode="lp", uniform_expectation=uni,
                             objective=objective)
    s = values.astype(np.float64)
    subsets = cube.subsets_up_to(n, k)
    masks = np.array([0] + [cube.subset_mask(t) for t in subsets], dtype=np.uint64)
    points = np.arange(1 << n, dtype=np.uint64)
    kernel = 0 < points.size - masks.size < masks.size
    if kernel:
        A, form, method = _kernel_rows(n, k), "kernel", "highs-ipm"
    else:
        A = _marginal_rows(masks, points)
        form, method = "marginal", _lp_method(A.shape[0])
    sides, stats = [], {}
    for side_sense, sign in (("max", -1.0), ("min", 1.0)):
        if kernel:
            c, b = np.full(points.size, 1.0 / points.size), sign * (A @ s)
        else:
            c, b = sign * s, 0.5 ** popcount_u64(masks).astype(np.float64)
        # at HiGHS's default 1e-7 tolerances a vertex can miss its marginal
        # rows by more than the witness repair's exact check forgives
        res = linprog(c, A_eq=A, b_eq=b, bounds=(0.0, None), method=method,
                      options={"primal_feasibility_tolerance": config.LP_FEAS_TOL,
                               "dual_feasibility_tolerance": config.LP_FEAS_TOL})
        if res.status == 1:
            raise InconclusiveError("LP hit its iteration cap")
        if res.status != 0:
            # The uniform distribution is always feasible, so anything but
            # success means the solve itself broke.
            raise ConvergenceError(f"LP solver failure: {res.message}")
        if kernel:
            optimum = float(uni) - sign * res.fun
            weights, lagrangian = res.lower.marginals, sign * s - res.x
        else:
            optimum, weights, lagrangian = sign * res.fun, res.x, A.T @ res.eqlin.marginals
        dual = cube.fwht_inplace(lagrangian)[masks] / points.size
        sides.append(_LpSide(sense=side_sense, optimum=optimum, weights=weights,
                             dual=dual, subsets=subsets, masks=masks, objective_values=s,
                             uniform_expectation=uni, n=n, k=k))
        support = int(np.count_nonzero(weights > config.WITNESS_SUPPORT_TOL))
        stats[side_sense] = {"status": res.status, "iterations": res.nit, "support": support}
    report.lp = {"form": form, "rows": A.shape[0], "cols": A.shape[1], "nonzeros": A.nnz,
                 "method": method, **stats}
    hi, lo = sides
    report.lp_max, report.lp_min = hi.optimum, lo.optimum
    report.certificate_upper, report.certificate_lower = map(sandwich_from_dual, sides)
    report.deviation = max(0.0, hi.optimum - float(uni), float(uni) - lo.optimum)
    report.indicator_deviation = (report.deviation if objective == "indicator"
                                  else report.deviation / 2.0)
    return report, sides


def sandwich_from_dual(side: _LpSide) -> SandwichCertificate:
    """Turn LP duals into a verified sandwiching polynomial.

    For the max side the dual gives q = -sum_S y_S chi_S with q >= s
    pointwise and E_U[q] = lp_max; the min side flips to q = +sum_S y_S
    chi_S <= s with E_U[q] = lp_min.  Coefficients are rounded onto the
    grid of multiples of 2^-32, q is evaluated at every cube point by one
    integer Walsh-Hadamard transform, and the inequality is re-checked in
    pure integer arithmetic, repairing any rounding violation by shifting
    the constant term.  The exact gap must then agree with the LP's.
    """
    sign = -1 if side.sense == "max" else 1
    # Round onto the fixed dyadic grid.
    nums = [int(round(float(v) * _CERT_DEN)) for v in sign * side.dual]
    # Every value of q is at most sum |nums| in magnitude: the transform is
    # exact in int64 below 2^63, and in Python ints above.
    exact_int64 = sum(abs(v) for v in nums) < 1 << 63
    qnum = np.zeros(1 << side.n, dtype=np.int64 if exact_int64 else object)
    qnum[side.masks] = nums
    cube.fwht_inplace(qnum)

    snum = side.objective_values.astype(np.int64) * _CERT_DEN
    direction = "upper" if side.sense == "max" else "lower"
    worst = int(np.max(sign * (qnum - snum)))      # upper: s - q; lower: q - s
    slack = Fraction(0)
    if worst > 0:
        # Rounding nudged q across s somewhere; shift the constant out.
        slack = Fraction(worst, _CERT_DEN)
        nums[0] -= sign * worst

    coeffs = {subset: Fraction(v, _CERT_DEN)
              for subset, v in zip([()] + side.subsets, nums) if v}

    expectation = Fraction(nums[0], _CERT_DEN)
    gap = abs(expectation - side.uniform_expectation)
    lp_gap = abs(side.optimum - float(side.uniform_expectation))
    verified = abs(float(gap) - lp_gap) <= config.CERT_GAP_TOL
    return SandwichCertificate(k=side.k, direction=direction,
                               coefficients=coeffs, expectation=expectation,
                               gap=gap, lp_gap=lp_gap, slack_added=slack,
                               verified=verified)


def _pivot_rows(M: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """One float LU of M with partial row pivoting: the first min(rows,
    cols) pivot rows, how many pivots are not zero, and the LU factors of
    the square system those rows form (no further row swaps needed)."""
    # Fortran order is LAPACK's own: a C-order input made the call 20x
    # slower at 638 x 638 on a 2-core machine.
    lu, piv = lu_factor(np.asfortranarray(M, dtype=np.float64), check_finite=False)
    perm = np.arange(M.shape[0])
    for i, j in enumerate(piv):
        perm[[i, j]] = perm[[j, i]]
    m = min(M.shape)
    rank = int(np.count_nonzero(np.abs(np.diagonal(lu)) > _PIVOT_TOL))
    return perm[:m], rank, lu[:m, :m]


def _exact_matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v in Python ints for a matrix M with entries in {-1, 0, 1} and a
    Python-int vector v.

    v is split into signed 31-bit limbs, so one int64 matmul multiplies
    them all exactly (each sum stays below cols * 2^31), and the columns of
    the product are shifted back together.
    """
    mag = np.abs(v)
    limbs = 1 + max(int(x).bit_length() for x in mag) // _LIMB_BITS
    parts = np.empty((v.size, limbs), dtype=np.int64)
    for t in range(limbs):
        parts[:, t] = (mag >> (_LIMB_BITS * t)) & ((1 << _LIMB_BITS) - 1)
    parts[v < 0] *= -1
    prod = M.astype(np.int64) @ parts
    return sum(prod[:, t].astype(object) << (_LIMB_BITS * t) for t in range(limbs))


def _reconstruct(N: np.ndarray, D: int, E: int) -> Optional[tuple[np.ndarray, int]]:
    """Rationals num/L with one common denominator L, each within E/D of
    N/D, by continued fractions (``Fraction.limit_denominator``); None if
    D is not yet large enough for the denominators met on the way."""
    bound = math.isqrt(D // (2 * E))     # fractions with denominators up to
    L = 1                                # this are unique within E/D
    for a in N:
        a = int(a) * L
        if abs(a - (2 * a + D) // (2 * D) * D) > L * E:   # L * x_j is no integer
            f = Fraction(a, D).limit_denominator(max(1, bound // L))
            if abs(a * f.denominator - f.numerator * D) > L * E * f.denominator:
                return None              # no fraction that small is close enough
            L *= f.denominator
    return None if L > bound else ((2 * L * N + D) // (2 * D), L)


def _solve_exact(B: np.ndarray, lu: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact solution num/den of the square 0/1 system B x = c (c int64).

    Numeric-symbolic iterative refinement (Dixon 1982; Wan 2006): each step
    solves the residual in floats, scales it by 2^e to _REFINE_BITS bits,
    rounds it to an integer correction x and updates r <- 2^e r - B x in
    int64, so B N + r = D c with D = 2^(sum of e).  Every few steps N/D is
    reconstructed over one common denominator and returned once B num =
    den c holds.  The budget is twice the Hadamard bound on det B in bits,
    m^(m/2) for entries of magnitude at most 1.
    """
    m = c.size
    budget = int(m * math.log2(max(m, 2))) + 2 * int(np.abs(c).max()).bit_length() + 64
    factors = (lu, np.arange(m, dtype=np.int32))
    r, N, D = c.copy(), np.zeros(m, dtype=object), 1
    for step in itertools.count(1):
        if not r.any():
            return N, D
        y = lu_solve(factors, r.astype(np.float64), check_finite=False)
        top = float(np.max(np.abs(y)))
        e = _REFINE_BITS - math.frexp(top)[1]          # 2^e * |y| < 2^_REFINE_BITS
        rmax = int(np.abs(r).max())
        if not math.isfinite(top) or e < 1 or rmax.bit_length() + e > 62:
            raise InconclusiveError("iterative refinement did not converge")
        spent = D.bit_length() > budget
        if spent or step % _RECONSTRUCT_EVERY == 0:
            found = _reconstruct(N, D, int(2 * top) + 2)
            if found is not None and np.array_equal(_exact_matvec(B, found[0]),
                                                   found[1] * c.astype(object)):
                return found
        if spent:
            raise InconclusiveError(
                f"rational reconstruction failed within the {budget}-bit budget")
        x = np.rint(np.ldexp(y, e)).astype(np.int64)
        r = (r << e) - B @ x
        if int(np.abs(r).max()) > rmax << (e - 1):   # the error B^-1 r / D must halve
            raise InconclusiveError("iterative refinement did not converge")
        N, D = (N << e) + x.astype(object), D << e


def _repair_witness(side: _LpSide) -> tuple[Optional[SampleSpace], Optional[str]]:
    """Exact-rational repair of the LP's optimal vertex: (witness, None),
    or (None, reason) when the repair gives up, never an unchecked witness.

    The float solution nominates a support; M is the LP's marginal rows on
    it (rows x support, int8 0/1), with integer right-hand side 2^(32-|S|).
    One float LU of M picks independent rows; if they fall short, the
    lightest columns are pinned to multiples of 2^-32 near their float
    weights.  :func:`_solve_exact` solves the square system.  The proof is
    integer: over their common denominator D the weights are nonnegative and
    every row S of M sums to D 2^-|S|.
    """
    w = side.weights
    support = np.nonzero(w > config.WITNESS_SUPPORT_TOL)[0]
    cols = support.size
    if cols > config.WITNESS_REPAIR_MAX_SUPPORT:
        return None, (f"LP support of {cols} points is above the repair cap "
                      f"of {config.WITNESS_REPAIR_MAX_SUPPORT}")
    # int8 in C order: a float64 M is 8x larger, and the exact int64 matmuls
    # over M ran 5x slower at 1,024 x 1,024 on the F-order array that a CSC
    # matrix gives by default.
    M = _marginal_rows(side.masks, support.astype(np.uint64)).astype(np.int8).toarray(order="C")
    rhs = _CERT_DEN >> popcount_u64(side.masks).astype(np.int64)
    rows, rank, lu = _pivot_rows(M)
    free = np.arange(cols)
    pin = np.zeros(cols, dtype=np.int64)
    if rank < cols:
        pinned = np.argsort(w[support])[:cols - rank]   # the lightest columns
        pin[pinned] = np.rint(w[support[pinned]] * _CERT_DEN)
        free = np.setdiff1d(free, pinned)
        rows, rank, lu = _pivot_rows(M[:, free])
        if rank < free.size:
            return None, "the support's marginal rows are singular after pinning"
    B = M[rows][:, free].astype(np.int64)
    c = rhs[rows] - M[rows].astype(np.int64) @ pin
    try:
        num, den = _solve_exact(B, lu, c)
    except InconclusiveError as exc:
        return None, str(exc)
    full = pin.astype(object) * den
    full[free] = num
    if any(v < 0 for v in full):
        return None, "a reconstructed weight is negative"
    if not np.array_equal(_exact_matvec(M, full), den * rhs.astype(object)):
        return None, "the exact marginal check failed on the full system"
    pts = cube.signs_for_indices(support.astype(np.uint64), side.n)
    den *= _CERT_DEN
    return SampleSpace(n=side.n, k_claimed=side.k, points=pts,
                       weights=[Fraction(int(v), den) for v in full],
                       method="lp_witness"), None


def worst_case_lp(p: DegTwoPoly, k: int,
                  emit_witness: bool = True) -> DeviationReport:
    """Extremes of E[sgn(p)] over every k-wise independent distribution.

    Max and min of the LP over point masses on the 2^n cube points:
    nonnegative, summing to 1, every marginal of at most k coordinates
    uniform; each with its dual sandwiching certificate.  Each optimum is
    attained by a k-wise independent distribution, which ``emit_witness``
    repairs to exact rational feasibility and attaches.
    """
    n = p.n
    _check_lp_input(n, k)
    report, sides = _solve_lp(sgn_values(p), n, k, "sgn")
    if not emit_witness:
        return report
    reasons = []
    for side in sides:
        witness, why = _repair_witness(side)
        if witness is None:
            reasons.append(f"{side.sense} side: {why}")
        else:
            setattr(report, f"witness_{side.sense}", witness)
            setattr(report, f"witness_{side.sense}_check", verify_kwise_exact(witness, k))
    report.witness_repair_failed = bool(reasons)
    report.witness_repair_reason = "; ".join(reasons) or None
    return report


def lp_sweep(p: DegTwoPoly, ks: Sequence[int]) -> list[DeviationReport]:
    """worst_case_lp without witnesses across orders; deviation may not grow in k."""
    reports = [worst_case_lp(p, k, emit_witness=False) for k in sorted(ks)]
    for lo, hi in zip(reports, reports[1:]):
        if hi.deviation > lo.deviation + 1e-7:
            raise ContractViolationError(
                "LP deviation increased as independence grew; "
                "the feasible set only shrinks, so this is a defect")
    return reports


# --------------------------------------------------------------------------
# intersections of threshold functions


def intersection_deviation(ps: Sequence[DegTwoPoly], k: int) -> DeviationReport:
    """Worst-case LP for the indicator that every polynomial is >= 0.

    Same machinery, {0,1} objective; the report's deviation is on the
    indicator scale directly.
    """
    ps = list(ps)
    if not ps:
        raise ConfigurationError("an intersection needs at least one polynomial")
    n = ps[0].n
    if any(q.n != n for q in ps):
        raise ConfigurationError("all polynomials must share a dimension")
    _check_lp_input(n, k)

    points = cube.all_points(n)
    member = np.ones(1 << n, dtype=np.int64)
    for q in ps:
        member &= (signs(q, points) >= 0).astype(np.int64)
    return _solve_lp(member, n, k, "indicator")[0]


# --------------------------------------------------------------------------
# anticoncentration


@dataclass
class ProbeReport:
    probability: float
    exact: Optional[Fraction]
    mode: str                            # "space" | "gaussian-mc"
    eps_prime: float
    t: float
    samples: Optional[int] = None
    seed: Optional[int] = None
    ci_halfwidth: Optional[float] = None


def _normalized(p: DegTwoPoly) -> DegTwoPoly:
    mass = math.fsum(v * v for subset, v in p.fourier().items() if subset)
    if mass == 0.0:
        raise DegenerateInputError("polynomial has no non-constant part")
    return p.scale(1.0 / math.sqrt(mass))


def anticoncentration_probe(p: DegTwoPoly, eps_prime: float, t: float,
                            space: Optional[SampleSpace] = None,
                            samples: int = 200_000,
                            seed: int = 0) -> ProbeReport:
    """Pr[|p - t| < eps'] with p normalized to unit non-constant Fourier
    mass, exactly under ``space`` or, without one, by Gaussian Monte Carlo.

    Report-only: the bounds this probes have unspecified constants.
    """
    if not (0 < eps_prime < math.inf and math.isfinite(t) and samples >= 1):
        raise ConfigurationError("need finite eps_prime > 0, finite t and samples >= 1")
    q = _normalized(p)
    if space is not None:
        if space.n != p.n:
            raise ConfigurationError("space dimension does not match polynomial")
        lo, hi = (Fraction(t) + d * Fraction(eps_prime) for d in (-1, 1))
        prob = space.probability((signs(q, space.points, hi) < 0)
                                 & (signs(q, space.points, lo) > 0))
        return ProbeReport(probability=float(prob), exact=prob, mode="space",
                           eps_prime=eps_prime, t=t)
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        m = min(1 << 15, samples - done)
        G = rng.standard_normal(size=(m, q.n))
        vals = q.evaluate_multilinear_many(G)
        hits += int(np.count_nonzero(np.abs(vals - t) < eps_prime))
        done += m
    phat = hits / samples
    ci = 1.96 * math.sqrt(max(phat * (1.0 - phat), 1e-12) / samples)
    return ProbeReport(probability=phat, exact=None, mode="gaussian-mc",
                       eps_prime=eps_prime, t=t, samples=samples, seed=seed,
                       ci_halfwidth=ci)
