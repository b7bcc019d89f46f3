"""Fooling measurements: how far a limited-independence distribution can
pull the expectation of a degree-2 sign function away from uniform.

Three levels of machinery live here.  The exact level enumerates
expectations as rationals, for the uniform cube and for explicit sample
spaces.  The adversarial level phrases "worst k-wise independent
distribution" as a linear program over point masses (2^n variables,
one constraint per parity up to order k) and extracts three artifacts
from one solve: the optimum, an optimal distribution repaired to exact
rational feasibility, and a degree-k sandwiching polynomial certificate
recovered from the dual and re-verified in integer arithmetic.  The
probe level is Monte Carlo, for quantities with no exact counterpart.

The sign convention is sgn(0) = +1 everywhere.  Reports carry the
sign-scale deviation; the {0,1}-indicator scale is exactly half of it
and appears alongside where it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import linprog

from . import config, cube
from .errors import (ConfigurationError, ContractViolationError,
                     ConvergenceError, DegenerateInputError,
                     InconclusiveError, ResourceBudgetError)
from .poly import DegTwoPoly, sgn_vec
from .spaces import SampleSpace, VerificationReport, verify_kwise_exact

_CERT_DEN = config.CERT_DENOMINATOR
_LP_MATRIX_BUDGET = 600_000_000  # bytes of dense constraint matrix


def sgn_values(p: DegTwoPoly) -> np.ndarray:
    """sgn(p) over the full cube in row order, int8."""
    return sgn_vec(cube.poly_values(p))


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
        signs = sgn_values(p)
        return Fraction(int(np.sum(signs, dtype=np.int64)), signs.size)
    space = dist
    if space.n != p.n:
        raise ConfigurationError("space dimension does not match polynomial")
    signs = sgn_vec(p.evaluate_many(space.points.astype(np.float64)))
    return 2 * space.probability(signs > 0) - 1


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

    def evaluate(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        total = 0.0
        for subset, coef in self.coefficients.items():
            val = float(coef)
            for i in subset:
                val *= x[i]
            total += val
        return total


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


def _parity_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    return cube.subsets_up_to(n, k)


def _constraint_matrix(n: int, k: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Equality rows for the LP: the all-ones normalization row followed
    by one chi_S row per nonempty subset of size <= k."""
    subsets = _parity_subsets(n, k)
    cols = 1 << n
    need = (len(subsets) + 1) * cols * 8
    if need > _LP_MATRIX_BUDGET:
        raise ResourceBudgetError(
            f"constraint matrix would take {need / 1e9:.1f} GB; "
            "reduce n or k")
    A = np.empty((len(subsets) + 1, cols), dtype=np.float64)
    A[0, :] = 1.0
    for r, subset in enumerate(subsets, start=1):
        A[r, :] = cube.parity_column(n, subset)
    return A, subsets


@dataclass
class _LpSide:
    sense: str                           # "max" | "min"
    optimum: float
    weights: np.ndarray
    dual: np.ndarray                     # marginals of the equality rows
    subsets: list[tuple[int, ...]]
    objective_values: np.ndarray         # s(x) over the cube
    uniform_expectation: Fraction
    k: int
    n: int


def _solve_side(sense: str, s: np.ndarray, A: np.ndarray,
                subsets: list[tuple[int, ...]], uni: Fraction,
                n: int, k: int) -> _LpSide:
    b = np.zeros(A.shape[0])
    b[0] = 1.0
    cvec = -s if sense == "max" else s
    res = linprog(cvec, A_eq=A, b_eq=b, bounds=(0.0, None),
                  method="highs-ds")
    if res.status == 1:
        raise InconclusiveError("LP hit its iteration cap")
    if res.status != 0:
        # The uniform distribution is always feasible, so anything but
        # success means the solve itself broke.
        raise ConvergenceError(f"LP solver failure: {res.message}")
    optimum = -res.fun if sense == "max" else res.fun
    return _LpSide(sense=sense, optimum=optimum, weights=res.x,
                   dual=np.asarray(res.eqlin.marginals), subsets=subsets,
                   objective_values=s, uniform_expectation=uni, n=n, k=k)


def sandwich_from_dual(side: _LpSide) -> SandwichCertificate:
    """Turn LP duals into a verified sandwiching polynomial.

    For the max side the dual gives q = -A^T y with q >= s pointwise
    and E_U[q] = lp_max; the min side flips to q = +A^T y <= s with
    E_U[q] = lp_min.  Coefficients are rounded onto the grid of
    multiples of 2^-32 and the inequality is re-checked in pure integer
    arithmetic, repairing any rounding violation by shifting the
    constant term.  The exact gap must then agree with the LP's.
    """
    sign = -1.0 if side.sense == "max" else 1.0
    raw = sign * side.dual
    # Round onto the fixed dyadic grid; numerators stay well inside int64.
    nums = [int(round(float(v) * _CERT_DEN)) for v in raw]

    qnum = np.full(1 << side.n, nums[0], dtype=np.int64)
    for r, subset in enumerate(side.subsets, start=1):
        if nums[r]:
            qnum += nums[r] * cube.parity_column(side.n, subset).astype(np.int64)

    snum = side.objective_values.astype(np.int64) * _CERT_DEN
    direction = "upper" if side.sense == "max" else "lower"
    if direction == "upper":
        worst = int(np.max(snum - qnum))
    else:
        worst = int(np.max(qnum - snum))
    slack = Fraction(0)
    if worst > 0:
        # Rounding nudged q across s somewhere; shift the constant out.
        slack = Fraction(worst, _CERT_DEN)
        nums[0] += worst if direction == "upper" else -worst

    coeffs: dict[tuple[int, ...], Fraction] = {}
    if nums[0]:
        coeffs[()] = Fraction(nums[0], _CERT_DEN)
    for r, subset in enumerate(side.subsets, start=1):
        if nums[r]:
            coeffs[subset] = Fraction(nums[r], _CERT_DEN)

    expectation = Fraction(nums[0], _CERT_DEN)
    gap = abs(expectation - side.uniform_expectation)
    lp_gap = abs(side.optimum - float(side.uniform_expectation))
    verified = abs(float(gap) - lp_gap) <= config.CERT_GAP_TOL
    return SandwichCertificate(k=side.k, direction=direction,
                               coefficients=coeffs, expectation=expectation,
                               gap=gap, lp_gap=lp_gap, slack_added=slack,
                               verified=verified)


def _bareiss_solve(M: list[list[int]], rhs: list[Fraction]
                   ) -> Optional[list[Fraction]]:
    """Exact solve of a square integer system by fraction-free
    elimination; None if singular."""
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = A[col][col]
        for r in range(n):
            if r != col and A[r][col] != 0:
                factor = A[r][col] / inv
                A[r] = [a - factor * b for a, b in zip(A[r], A[col])]
    return [A[i][n] / A[i][i] for i in range(n)]


def _repair_witness(side: _LpSide) -> Optional[SampleSpace]:
    """Exact-rational repair of the LP's optimal vertex.

    The float solution nominates a support; the parity constraints
    restricted to that support are solved exactly, free columns pinned
    to dyadic roundings of their float weights.  The result must be
    nonnegative, sum to one, and kill every parity exactly, otherwise
    the repair is reported as failed rather than papered over.
    """
    w = side.weights
    support = np.nonzero(w > config.WITNESS_SUPPORT_TOL)[0]
    if support.size == 0 or support.size > config.WITNESS_REPAIR_MAX_SUPPORT:
        return None
    cols = support.size
    rows_int: list[list[int]] = [[1] * cols]
    for subset in side.subsets:
        chi = cube.parity_column(side.n, subset)
        rows_int.append([int(chi[j]) for j in support])
    rhs_full = [Fraction(1)] + [Fraction(0)] * len(side.subsets)

    # Select a set of independent rows (float rank detection is fine
    # here; the exact solve below is what actually certifies).
    M = np.array(rows_int, dtype=np.float64)
    chosen: list[int] = []
    basis: list[np.ndarray] = []
    for r in range(M.shape[0]):
        v = M[r].copy()
        for bvec in basis:
            v -= (v @ bvec) * bvec
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            basis.append(v / norm)
            chosen.append(r)
        if len(chosen) == cols:
            break

    pivot_rows = [rows_int[r] for r in chosen]
    pivot_rhs = [rhs_full[r] for r in chosen]
    rank = len(chosen)
    if rank < cols:
        # Pin the extra columns to rounded float values, solve the rest.
        keep = cols - rank
        order = np.argsort(w[support])  # pin the lightest columns
        pinned = set(int(i) for i in order[:keep])
        pin_vals = {j: Fraction(float(w[support[j]])).limit_denominator(_CERT_DEN)
                    for j in pinned}
        free = [j for j in range(cols) if j not in pinned]
        sq = [[row[j] for j in free] for row in pivot_rows]
        adj = [pivot_rhs[i]
               - sum(pin_vals[j] * pivot_rows[i][j] for j in pinned)
               for i in range(rank)]
        sol = _bareiss_solve(sq, adj)
        if sol is None:
            return None
        full = [Fraction(0)] * cols
        for j, v in zip(free, sol):
            full[j] = v
        for j, v in pin_vals.items():
            full[j] = v
    else:
        sol = _bareiss_solve(pivot_rows, pivot_rhs)
        if sol is None:
            return None
        full = sol

    if any(v < 0 for v in full):
        return None
    for row, target in zip(rows_int, rhs_full):
        acc = sum(c * v for c, v in zip(row, full))
        if acc != target:
            return None

    pts = cube.signs_for_indices(support.astype(np.uint64), side.n)
    return SampleSpace(n=side.n, k_claimed=side.k, points=pts,
                       weights=[Fraction(v) for v in full],
                       method="lp_witness")


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

    signs = sgn_values(p)
    s = signs.astype(np.float64)
    uni = Fraction(int(np.sum(signs, dtype=np.int64)), signs.size)
    A, subsets = _constraint_matrix(n, k)

    report = DeviationReport(n=n, k=k, mode="lp", uniform_expectation=uni)
    sides: list[_LpSide] = []
    if sense in ("max", "both"):
        side = _solve_side("max", s, A, subsets, uni, n, k)
        report.lp_max = side.optimum
        sides.append(side)
    if sense in ("min", "both"):
        side = _solve_side("min", s, A, subsets, uni, n, k)
        report.lp_min = side.optimum
        sides.append(side)

    u = float(uni)
    devs = []
    if report.lp_max is not None:
        devs.append(report.lp_max - u)
    if report.lp_min is not None:
        devs.append(u - report.lp_min)
    report.deviation = max(0.0, max(devs))
    report.indicator_deviation = report.deviation / 2.0

    for side in sides:
        if emit_certificates:
            cert = sandwich_from_dual(side)
            if side.sense == "max":
                report.certificate_upper = cert
            else:
                report.certificate_lower = cert
        if emit_witness:
            witness = _repair_witness(side)
            if witness is None:
                report.witness_repair_failed = True
            else:
                check = verify_kwise_exact(witness, k)
                if side.sense == "max":
                    report.witness_max = witness
                    report.witness_max_check = check
                else:
                    report.witness_min = witness
                    report.witness_min_check = check
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

    member = np.ones(1 << n, dtype=np.int64)
    for q in ps:
        member &= (cube.poly_values(q) >= 0.0).astype(np.int64)
    uni = Fraction(int(member.sum()), member.size)
    A, subsets = _constraint_matrix(n, k)
    s = member.astype(np.float64)

    report = DeviationReport(n=n, k=k, mode="lp", uniform_expectation=uni,
                             objective="indicator")
    sides = []
    if sense in ("max", "both"):
        side = _solve_side("max", s, A, subsets, uni, n, k)
        report.lp_max = side.optimum
        sides.append(side)
    if sense in ("min", "both"):
        side = _solve_side("min", s, A, subsets, uni, n, k)
        report.lp_min = side.optimum
        sides.append(side)
    u = float(uni)
    devs = [0.0]
    if report.lp_max is not None:
        devs.append(report.lp_max - u)
    if report.lp_min is not None:
        devs.append(u - report.lp_min)
    report.deviation = max(devs)
    report.indicator_deviation = report.deviation
    for side in sides:
        cert = sandwich_from_dual(side)
        if side.sense == "max":
            report.certificate_upper = cert
        else:
            report.certificate_lower = cert
    return report


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
        vals = q.evaluate_many(space.points.astype(np.float64))
        prob = space.probability(np.abs(vals - t) < eps_prime)
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
