"""Moment computation over the cube and the inequality checks built on it.

Exhaustive moments run over the full cube (n capped at 20) with
compensated summation; an independent exact path (n <= 12), which is
``value_exact``, takes p's integer form (``poly.integer_form``) through
one Walsh-Hadamard transform and sums powers in Python ints.

The validators mirror the inequalities the library depends on: the
k-th-moment eigenvalue bound for trace-centered quadratic forms (with
its explicit constant 128), Khintchine for linear forms, the
hypercontractive tail bound at its prescribed moment order, and a
fitted-constant report for the quadratic-form moment bound whose stated
constant is only asymptotic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import config, cube
from .errors import (ConfigurationError, ContractViolationError,
                     DegenerateInputError, ResourceBudgetError)
from .poly import DegTwoPoly, eigendecompose_symmetric, frobenius, integer_form

_FOURIER_EXACT_MAX_N = 12


@dataclass
class MomentReport:
    k: int
    exact_or_mc: str                 # "exact" | "mc"
    value: float
    bound: Optional[float] = None
    ratio: Optional[float] = None
    passed: bool = True
    value_exact: Optional[Fraction] = None
    samples: Optional[int] = None
    seed: Optional[int] = None


def _require_enumerable(n: int, k: int) -> None:
    if n > config.ENUM_MAX_N:
        raise ResourceBudgetError(f"exact moments need n <= {config.ENUM_MAX_N}")
    if k > config.MOMENT_MAX_K:
        raise ResourceBudgetError(f"moment order capped at {config.MOMENT_MAX_K}")
    if k < 1:
        raise ConfigurationError("moment order must be positive")


def _chunked_mean(values: np.ndarray, transform) -> float:
    """Deterministic compensated mean of transform(values): each chunk of
    2^16 values is fsum-ed and the partial sums meet in one more fsum."""
    total = values.size
    chunk = 1 << 16
    partials = []
    for start in range(0, total, chunk):
        part = transform(values[start:start + chunk])
        partials.append(math.fsum(part.tolist()))
    return math.fsum(partials) / total


def moment_fourier_exact(p: DegTwoPoly, k: int) -> Fraction:
    """E[p(x)^k] in exact arithmetic, from the Fourier side.

    Binary floats are dyadic, so over their common denominator D the
    Fourier coefficients are integers c_S (:func:`poly.integer_form`, which
    folds the diagonal exactly).  One integer Walsh-Hadamard transform of c
    gives D*p(x) at every cube point, and the moment is
    sum (D*p(x))^k / (2^n D^k) in Python ints.  None of it shares
    arithmetic with the floating enumeration it cross-checks.
    """
    if p.n > _FOURIER_EXACT_MAX_N:
        raise ResourceBudgetError(
            f"exact Fourier moments capped at n = {_FOURIER_EXACT_MAX_N}")
    if k < 0:
        raise ConfigurationError("moment order must be nonnegative")
    den, constant, linear, pairs = integer_form(p)
    bit = 1 << np.arange(p.n)
    upper = bit[:, None] < bit
    spectrum = np.zeros(1 << p.n, dtype=object)
    spectrum[0] = constant
    spectrum[bit] = linear
    spectrum[(bit[:, None] | bit)[upper]] = pairs[upper]
    values = cube.fwht_inplace(spectrum).tolist()
    return Fraction(sum(v ** k for v in values), den ** k << p.n)


def _centered(p: DegTwoPoly, center: str) -> DegTwoPoly:
    if center == "none":
        return p
    if center == "trace":       # x_i^2 = 1: p - tr A is p without its diagonal
        return DegTwoPoly(n=p.n, constant=p.constant, linear=p.linear,
                          quad=p.quad - np.diag(np.diag(p.quad)))
    raise ConfigurationError(f"unknown centering {center!r}")


def exact_moment_hypercube(p: DegTwoPoly, k: int,
                           center: str = "none") -> MomentReport:
    """E[(p(x) - optional trace)^k] by full enumeration.

    Even k uses the signed power directly and, for n <= 12, carries the
    exact value from :func:`moment_fourier_exact`.  Odd k falls back to
    the absolute value (the signed odd moment is rarely what a bound
    needs), which |.| keeps from the exact path: value_exact is None.
    """
    _require_enumerable(p.n, k)
    q = _centered(p, center)
    vals = cube.poly_values(q)
    if k % 2 == 0:
        value = _chunked_mean(vals, lambda v: v ** k)
    else:
        value = _chunked_mean(vals, lambda v: np.abs(v) ** k)
    exact = None
    if k % 2 == 0 and p.n <= _FOURIER_EXACT_MAX_N:
        exact = moment_fourier_exact(q, k)
    return MomentReport(k=k, exact_or_mc="exact", value=value,
                        value_exact=exact)


def mc_moment_hypercube(p: DegTwoPoly, k: int, samples: int = 200_000,
                        seed: int = 0, center: str = "none") -> MomentReport:
    """Monte Carlo estimate of the enumeration moment, any n.

    Same even/odd convention as the exact path.  Sampling is chunked and
    chunk sums merge in index order, so a fixed seed reproduces the value
    exactly; the seed and sample count travel in the report.
    """
    if k < 1:
        raise ConfigurationError("moment order must be positive")
    if samples < 1:
        raise ConfigurationError("need at least one sample")
    q = _centered(p, center)
    rng = np.random.default_rng(seed)
    chunk = 1 << 14
    partials = []
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        X = rng.choice(np.array([-1.0, 1.0]), size=(take, p.n))
        vals = q.evaluate_many(X)
        vk = vals ** k if k % 2 == 0 else np.abs(vals) ** k
        partials.append(math.fsum(vk.tolist()))
        done += take
    value = math.fsum(partials) / samples
    return MomentReport(k=k, exact_or_mc="mc", value=value,
                        samples=samples, seed=seed)


def moment_series(p: DegTwoPoly, ks: Sequence[int],
                  center: str = "none") -> list[MomentReport]:
    """Absolute moments for each order, with the power-mean monotonicity
    of k -> E[|f|^k]^{1/k} asserted across the series."""
    reports = []
    q = _centered(p, center)
    vals = np.abs(cube.poly_values(q))
    for k in sorted(ks):
        _require_enumerable(p.n, k)
        value = _chunked_mean(vals, lambda v, kk=k: v ** kk)
        reports.append(MomentReport(k=k, exact_or_mc="exact", value=value))
    roots = [r.value ** (1.0 / r.k) for r in reports]
    for lo, hi in zip(roots, roots[1:]):
        if hi < lo * (1.0 - 1e-12):
            raise ContractViolationError(
                "power-mean monotonicity failed; enumeration is corrupt")
    return reports


def eigenbound_ratio(A: np.ndarray, k: int, strict: bool = True
                     ) -> MomentReport:
    """Trace-centered quadratic-form moment against its spectral bound.

    ratio = E[|x'Ax - tr A|^k]^{1/k} / max(sqrt(k)*||A||_F, k*lam_max).
    The proof's explicit constant is 128; exceeding it means a real
    defect somewhere, so strict mode raises rather than returning a
    failed report.
    """
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    _require_enumerable(n, k)
    if k % 2 != 0:
        raise ConfigurationError("eigenvalue moment bound is stated for even k")
    p = DegTwoPoly(n=n, quad=A)
    rep = exact_moment_hypercube(p, k, center="trace")
    fro = frobenius(A)
    if fro == 0.0:
        return MomentReport(k=k, exact_or_mc="exact", value=0.0, bound=0.0,
                            ratio=0.0, passed=True, value_exact=Fraction(0))
    lam_max = float(np.max(eigendecompose_symmetric(A).eigenvalues))
    base = max(math.sqrt(k) * fro, k * lam_max)
    ratio = rep.value ** (1.0 / k) / base
    passed = ratio <= config.EIGENBOUND_CONST
    if strict and not passed:
        raise ContractViolationError(
            f"eigenvalue moment ratio {ratio:.3g} exceeds "
            f"{config.EIGENBOUND_CONST}")
    return MomentReport(k=k, exact_or_mc="exact", value=rep.value,
                        bound=base ** k, ratio=ratio, passed=passed,
                        value_exact=rep.value_exact)


def khintchine_check(a: np.ndarray, k: int) -> MomentReport:
    """E[(a.x)^k] against ||a||^k * k^(k/2) for even k, by enumeration."""
    a = np.asarray(a, dtype=np.float64)
    n = a.size
    _require_enumerable(n, k)
    if k % 2 != 0:
        raise ConfigurationError("Khintchine check is stated for even k")
    p = DegTwoPoly(n=n, linear=a)
    rep = exact_moment_hypercube(p, k)
    norm = float(np.linalg.norm(a))
    bound = norm ** k * k ** (k / 2.0)
    ratio = 0.0 if norm == 0.0 else rep.value ** (1.0 / k) / (norm * math.sqrt(k))
    return MomentReport(k=k, exact_or_mc="exact", value=rep.value, bound=bound,
                        ratio=ratio, passed=rep.value <= bound + 1e-12,
                        value_exact=rep.value_exact)


def boundmoment_check(p: DegTwoPoly, k: int) -> MomentReport:
    """Fitted constant for E[|x'Ax|^k] <= c^k (||A||_F k^k + |tr A|^k).

    The stated constant is asymptotic, so this is report-only: ratio
    holds the smallest c making the inequality tight and passed is
    always True.  Linear and constant parts of p are ignored.
    """
    A = p.quad
    n = p.n
    _require_enumerable(n, k)
    form = DegTwoPoly(n=n, quad=A)
    vals = cube.poly_values(form)
    value = _chunked_mean(vals, lambda v: np.abs(v) ** k)
    base = frobenius(A) * k ** float(k) + abs(float(np.trace(A))) ** k
    if base == 0.0:
        fitted = 0.0 if value == 0.0 else math.inf
    else:
        fitted = (value / base) ** (1.0 / k)
    return MomentReport(k=k, exact_or_mc="exact", value=value, bound=base,
                        ratio=fitted, passed=True)


# --------------------------------------------------------------------------
# tail bounds


@dataclass
class TailReport:
    t: float
    threshold: float            # t * ||p||_2
    empirical_tail: float
    exact_or_mc: str
    degree: int
    k_used: int
    bound: float
    applicable: bool            # precondition t > 8^(d/2) held
    passed: bool                # tail <= bound (True vacuously when not applicable)
    norm2: float
    samples: Optional[int] = None
    seed: Optional[int] = None


def _poly_degree(p: DegTwoPoly) -> int:
    off = p.quad - np.diag(np.diag(p.quad))
    if np.any(off != 0.0):
        return 2
    if np.any(p.linear != 0.0):
        return 1
    return 0


def _tail_bound(d: int, t: float) -> tuple[int, float]:
    k = 2 * int(math.floor(t ** (2.0 / d) / 4.0))
    if k < 2:
        return k, 1.0
    return k, (k ** (d / 2.0) / t) ** k


def hypercontractive_tail_check(p: DegTwoPoly, t: float,
                                trials: Optional[int] = None,
                                seed: int = 0) -> TailReport:
    """Pr[|p| >= t*||p||_2] against the bound (k^{d/2}/t)^k at
    k = 2*floor(t^{2/d}/4).

    The bound only applies for t > 8^{d/2}; below that the report is
    informational (applicable=False, passed vacuously).  The tail is
    exact by enumeration up to n = 20, Monte Carlo above with `trials`
    uniform cube samples.
    """
    d = _poly_degree(p)
    if d == 0:
        raise DegenerateInputError("constant polynomial has no tail to bound")
    # Parseval: E[p^2] is the sum of squared Fourier coefficients.
    norm2 = math.sqrt(math.fsum(v * v for v in p.fourier().values()))
    if norm2 == 0.0:
        raise DegenerateInputError("zero polynomial")
    threshold = t * norm2
    if p.n <= config.ENUM_MAX_N:
        vals = cube.poly_values(p)
        tail = float(np.count_nonzero(np.abs(vals) >= threshold)) / vals.size
        mode, samples = "exact", None
    else:
        if not trials:
            raise ConfigurationError("n too large to enumerate; pass trials")
        rng = np.random.default_rng(seed)
        hits = 0
        for start in range(0, trials, 1 << 16):
            m = min(1 << 16, trials - start)
            X = rng.choice(np.array([-1.0, 1.0]), size=(m, p.n))
            hits += int(np.count_nonzero(np.abs(p.evaluate_many(X)) >= threshold))
        tail = hits / trials
        mode, samples = "mc", trials
    applicable = t > 8.0 ** (d / 2.0)
    k_used, bound = _tail_bound(d, t)
    passed = (tail <= bound + 1e-12) if applicable else True
    return TailReport(t=t, threshold=threshold, empirical_tail=tail,
                      exact_or_mc=mode, degree=d, k_used=k_used, bound=bound,
                      applicable=applicable, passed=passed, norm2=norm2,
                      samples=samples, seed=seed if mode == "mc" else None)
