"""Fooling measurements: how far a limited-independence distribution can
pull the expectation of a degree-2 sign function away from uniform.

Three levels of machinery live here.  The exact level enumerates
expectations as rationals, for the uniform cube and for explicit sample
spaces.  The adversarial level phrases "worst k-wise independent
distribution" as a linear program over point masses w >= 0 on the 2^n
cube points, with one equality row per parity of order up to k, and
extracts three artifacts from one solve: the optimum, an optimal
distribution repaired to exact rational feasibility, and a degree-k
sandwiching polynomial certificate recovered from the dual and
re-verified in integer arithmetic.

The LP comes in two forms with the same optimum and the same artifacts.
The point-mass form states the parity rows as a dense ±1 matrix, solved
by the dual simplex.  The transform form reaches the same rows through the
n butterfly stages of the Walsh-Hadamard transform: free stage vectors
z_1..z_{n-1} and one sparse row per butterfly, at most 3 n 2^n nonzeros
against (rows) x 2^n, solved by interior point with crossover.  One fixed
rule picks the form: the transform form for k >= 4, where the dense rows
are many, and the point-mass form below.  In both, the parity rows' duals
are the certificate, and q is evaluated on the cube by one integer
transform.  The repair solves the support's parity system by one float LU,
integer iterative refinement and rational reconstruction; floats only
search, and an integer check of every row is the proof.  The sgn LP and
the intersection LP share one driver.  The probe level is Monte Carlo,
for quantities with no exact counterpart.

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
from typing import TYPE_CHECKING, Optional, Sequence, Union

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
                          dist: Union[str, SampleSpace] = "uniform"
                          ) -> Fraction:
    """E[sgn(p)] as an exact rational, under uniform or a sample space."""
    if isinstance(dist, str):
        if dist != "uniform":
            raise ConfigurationError(f"unknown distribution {dist!r}")
        if p.n > config.ENUM_MAX_N:
            raise ResourceBudgetError(
                f"uniform enumeration capped at n = {config.ENUM_MAX_N}")
        values = sgn_values(p)
        return Fraction(int(np.sum(values, dtype=np.int64)), values.size)
    space = dist
    if space.n != p.n:
        raise ConfigurationError("space dimension does not match polynomial")
    return 2 * space.probability(signs(p, space.points) >= 0) - 1


def indicator_expectation(p: DegTwoPoly,
                          dist: Union[str, SampleSpace] = "uniform"
                          ) -> Fraction:
    """E[1{p >= 0}] on the same distributions; equals (1 + E[sgn])/2."""
    return (1 + exact_sgn_expectation(p, dist)) / 2


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

    def check_order_invariant(self, tol: float = config.LP_FEAS_TOL) -> bool:
        """lp_min <= uniform <= lp_max, within LP tolerance."""
        if self.lp_max is None or self.lp_min is None:
            return True
        u = float(self.uniform_expectation)
        return self.lp_min <= u + tol and u - tol <= self.lp_max


def deviation(p: DegTwoPoly, space: SampleSpace) -> DeviationReport:
    """Exact |E_space[sgn p] - E_uniform[sgn p]|."""
    uni = exact_sgn_expectation(p, "uniform")
    spc = exact_sgn_expectation(p, space)
    dev = abs(spc - uni)
    return DeviationReport(n=p.n, k=space.k_claimed, mode="space",
                           uniform_expectation=uni, space_expectation=spc,
                           deviation=float(dev),
                           indicator_deviation=float(dev / 2))


# --------------------------------------------------------------------------
# the adversarial LP


def _parity_rows(masks: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """chi_S(x), int8 ±1, for every subset mask S (rows) and cube row index
    x (columns): one broadcast popcount, a block of rows at a time."""
    out = np.empty((masks.size, columns.size), dtype=np.int8)
    step = max(1, BLOCK_ELEMENTS // max(columns.size, 1))
    for lo in range(0, masks.size, step):
        odd = popcount_u64(masks[lo:lo + step, None] & columns) & 1
        out[lo:lo + step] = 1 - 2 * odd.astype(np.int8)
    return out


def _butterfly_rows(n: int, masks: np.ndarray) -> sparse.csc_matrix:
    """The transform form's equality rows, over the variables [w, z_1, ...,
    z_{n-1}] with z_0 = w.

    Stage i (b = 2^(i-1)) is one butterfly of ``cube.fwht_inplace``, in its
    row order: z_{i-1}[a & ~b] ± z_{i-1}[a | b] - z_i[a] = 0, with + where
    bit b of a is clear.  The last stage's z_n is fixed, so it moves to the
    right-hand side: one row per mask S of ``masks``, in their order, with
    z_n[S] = 1 for S = ∅ and 0 for 1 <= |S| <= k.  The entries with
    |S| > k are free and have no row.  Row S then holds
    sum_x chi_S(x) w[x], the point-mass row.
    """
    from scipy import sparse

    size = 1 << n
    rows, cols, vals = [], [], []
    for i in range(1, n + 1):
        b = 1 << (i - 1)
        out = np.arange(size) if i < n else masks.astype(np.int64)
        row = (i - 1) * size + np.arange(out.size)
        prev = (i - 1) * size                          # z_{i-1}'s first column
        rows += [row, row]
        cols += [prev + (out & ~b), prev + (out | b)]
        vals += [np.ones(out.size), np.where(out & b, -1.0, 1.0)]
        if i < n:
            rows.append(row)
            cols.append(i * size + out)
            vals.append(-np.ones(out.size))
    return sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=((n - 1) * size + masks.size, n * size))


def _transform_form(n: int, k: int) -> bool:
    """The form rule: the transform form from k = 4 on, the point-mass form
    below.  HiGHS time for both sides on a 2-core machine, transform form
    (interior point) against point-mass form (dual simplex): 0.37 s
    against 0.87 s at (n, k) = (9, 4), 1.7 s against 14.5 s at (10, 5);
    but 0.34 s against 0.13 s at (10, 2) and 0.28 s against 0.22 s at
    (9, 3)."""
    return k >= 4


@dataclass
class _LpSide:
    sense: str                           # "max" | "min"
    optimum: float
    weights: np.ndarray
    dual: np.ndarray                     # marginals of the parity rows
    subsets: list[tuple[int, ...]]
    masks: np.ndarray                    # uint64: 0 (normalization), then subsets'
    objective_values: np.ndarray         # s(x) over the cube
    uniform_expectation: Fraction
    k: int
    n: int


def _solve_lp(values: np.ndarray, n: int, k: int, sense: str, objective: str,
              emit_certificates: bool) -> tuple[DeviationReport, list[_LpSide]]:
    """The LP driver shared by every objective (integer ``values`` over the
    cube): solve the requested sides, max first, and return them with a
    report of the optima, the deviation on both scales and the certificates.

    Both forms have one equality row per parity of order <= k plus the
    normalization, the last ``masks.size`` rows; the transform form puts
    the butterfly stages before them."""
    uni = Fraction(int(np.sum(values, dtype=np.int64)), values.size)
    report = DeviationReport(n=n, k=k, mode="lp", uniform_expectation=uni,
                             objective=objective)
    s = values.astype(np.float64)
    subsets = cube.subsets_up_to(n, k)
    masks = np.array([0] + [cube.subset_mask(t) for t in subsets], dtype=np.uint64)
    size = 1 << n
    if _transform_form(n, k):
        # Interior point with crossover: faster here than the dual simplex,
        # and it still ends at a vertex, which the witness repair expects.
        A, method = _butterfly_rows(n, masks), "highs-ipm"
        cost = np.zeros(A.shape[1])
        cost[:size] = s
        bounds = [(0.0, None)] * size + [(None, None)] * (A.shape[1] - size)
    else:
        A = _parity_rows(masks, np.arange(size, dtype=np.uint64)).astype(np.float64)
        cost, bounds, method = s, (0.0, None), "highs-ds"
    b = np.zeros(A.shape[0])
    b[-masks.size] = 1.0
    sides, devs = [], [0.0]
    for side_sense, sign, bound in (("max", -1.0, "upper"), ("min", 1.0, "lower")):
        if sense not in (side_sense, "both"):
            continue
        res = linprog(sign * cost, A_eq=A, b_eq=b, bounds=bounds, method=method)
        if res.status == 1:
            raise InconclusiveError("LP hit its iteration cap")
        if res.status != 0:
            # The uniform distribution is always feasible, so anything but
            # success means the solve itself broke.
            raise ConvergenceError(f"LP solver failure: {res.message}")
        side = _LpSide(sense=side_sense, optimum=sign * res.fun, weights=res.x[:size],
                       dual=np.asarray(res.eqlin.marginals)[-masks.size:],
                       subsets=subsets, masks=masks, objective_values=s,
                       uniform_expectation=uni, n=n, k=k)
        sides.append(side)
        setattr(report, f"lp_{side_sense}", side.optimum)
        devs.append(-sign * (side.optimum - float(uni)))
        if emit_certificates:
            setattr(report, f"certificate_{bound}", sandwich_from_dual(side))
    report.deviation = max(devs)
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
    """M @ v in Python ints for a ±1 matrix M and Python-int vector v.

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
    """Exact solution num/den of the square ±1 system B x = c (c int64).

    Numeric-symbolic iterative refinement (Dixon 1982; Wan 2006): each step
    solves the residual in floats, scales it by 2^e to _REFINE_BITS bits,
    rounds it to an integer correction x and updates r <- 2^e r - B x in
    int64, so B N + r = D c with D = 2^(sum of e).  Every few steps N/D is
    reconstructed over one common denominator and returned once B num =
    den c holds.  The budget is twice the Hadamard bound on det B in bits.
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

    The float solution nominates a support; M is the parity rows on it
    (rows x support).
    One float LU of M picks independent rows; if they fall short, the
    lightest columns are pinned to multiples of 2^-32 near their float
    weights.  :func:`_solve_exact` solves the square system.  The proof is
    integer: over their common denominator D the weights are nonnegative and
    every row of M sums to D (normalization) or 0 (parities).
    """
    w = side.weights
    support = np.nonzero(w > config.WITNESS_SUPPORT_TOL)[0]
    cols = support.size
    if cols > config.WITNESS_REPAIR_MAX_SUPPORT:
        return None, (f"LP support of {cols} points is above the repair cap "
                      f"of {config.WITNESS_REPAIR_MAX_SUPPORT}")
    M = _parity_rows(side.masks, support.astype(np.uint64))
    rows, rank, lu = _pivot_rows(M)
    free = np.arange(cols)
    pin = np.zeros(cols, dtype=np.int64)
    if rank < cols:
        pinned = np.argsort(w[support])[:cols - rank]   # the lightest columns
        pin[pinned] = np.rint(w[support[pinned]] * _CERT_DEN)
        free = np.setdiff1d(free, pinned)
        rows, rank, lu = _pivot_rows(M[:, free])
        if rank < free.size:
            return None, "the support's parity rows are singular after pinning"
    B = M[rows][:, free].astype(np.int64)
    # Row 0 is the normalization row: right-hand side 1, scaled by 2^32.
    c = np.where(rows == 0, _CERT_DEN, 0) - M[rows].astype(np.int64) @ pin
    try:
        num, den = _solve_exact(B, lu, c)
    except InconclusiveError as exc:
        return None, str(exc)
    full = pin.astype(object) * den
    full[free] = num
    den *= _CERT_DEN
    if any(v < 0 for v in full):
        return None, "a reconstructed weight is negative"
    sums = _exact_matvec(M, full)
    if sums[0] != den or sums[1:].any():
        return None, "the exact parity check failed on the full system"
    pts = cube.signs_for_indices(support.astype(np.uint64), side.n)
    return SampleSpace(n=side.n, k_claimed=side.k, points=pts,
                       weights=[Fraction(int(v), den) for v in full],
                       method="lp_witness"), None


def worst_case_lp(p: DegTwoPoly, k: int, sense: str = "both",
                  emit_witness: bool = True,
                  emit_certificates: bool = True) -> DeviationReport:
    """Extremes of E[sgn(p)] over every k-wise independent distribution.

    Solves the point-mass LP exactly as stated: weights over all 2^n
    cube points, nonnegative, summing to 1, with every parity of order
    1..k unbiased.  The optimum is attained by a distribution that is
    itself k-wise independent; it is repaired to exact rational
    feasibility and attached, along with dual sandwiching certificates.
    """
    n = p.n
    if n > config.LP_MAX_N:
        raise ResourceBudgetError(f"LP enumeration capped at n = {config.LP_MAX_N}")
    if not 0 <= k <= n:
        raise ConfigurationError("independence order must lie in 0..n")
    if sense not in ("max", "min", "both"):
        raise ConfigurationError("sense must be max, min, or both")

    report, sides = _solve_lp(sgn_values(p), n, k, sense, "sgn", emit_certificates)
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


def lp_sweep(p: DegTwoPoly, ks: Sequence[int],
             emit_witness: bool = False) -> list[DeviationReport]:
    """worst_case_lp across orders, asserting deviation never grows in k."""
    reports = [worst_case_lp(p, k, emit_witness=emit_witness) for k in sorted(ks)]
    for lo, hi in zip(reports, reports[1:]):
        if hi.deviation > lo.deviation + 1e-7:
            raise ContractViolationError(
                "LP deviation increased as independence grew; "
                "the feasible set only shrinks, so this is a defect")
    return reports


# --------------------------------------------------------------------------
# intersections of threshold functions


def intersection_deviation(ps: Sequence[DegTwoPoly], k: int,
                           sense: str = "both") -> DeviationReport:
    """Worst-case LP for the indicator that every polynomial is >= 0.

    Same machinery, {0,1} objective; the report's deviation is on the
    indicator scale directly.
    """
    ps = list(ps)
    if not 1 <= len(ps) <= 3:
        raise ConfigurationError("intersections support 1 to 3 polynomials")
    n = ps[0].n
    if any(q.n != n for q in ps):
        raise ConfigurationError("all polynomials must share a dimension")
    if n > config.LP_MAX_N:
        raise ResourceBudgetError(f"LP enumeration capped at n = {config.LP_MAX_N}")

    points = cube.all_points(n)
    member = np.ones(1 << n, dtype=np.int64)
    for q in ps:
        member &= (signs(q, points) >= 0).astype(np.int64)
    return _solve_lp(member, n, k, sense, "indicator", emit_certificates=True)[0]


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
                            space: Union[SampleSpace, str] = "gaussian-mc",
                            samples: int = 200_000,
                            seed: int = 0) -> ProbeReport:
    """Pr[|p - t| < eps'] with p normalized to unit non-constant Fourier
    mass, exactly under a sample space or by Gaussian Monte Carlo.

    Report-only: the bounds this probes have unspecified constants.
    """
    if eps_prime <= 0:
        raise ConfigurationError("eps_prime must be positive")
    q = _normalized(p)
    if isinstance(space, SampleSpace):
        lo, hi = (Fraction(t) + d * Fraction(eps_prime) for d in (-1, 1))
        prob = space.probability((signs(q, space.points, hi) < 0)
                                 & (signs(q, space.points, lo) > 0))
        return ProbeReport(probability=float(prob), exact=prob, mode="space",
                           eps_prime=eps_prime, t=t)
    if space != "gaussian-mc":
        raise ConfigurationError("space must be a SampleSpace or 'gaussian-mc'")
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
