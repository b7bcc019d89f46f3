"""Degree-2 polynomials over ±1 variables and their spectral anatomy.

The central type stores p(x) = C + <linear, x> + x^T A x with A exactly
symmetric; the coefficient of x_i x_j for i < j is a_{ij} = 2 A_{ij}, and
diagonal entries multiply x_i^2.  On the hypercube x_i^2 = 1, so the
diagonal folds into the constant; the fold is tracked explicitly because
the moment bounds downstream are stated in terms of tr(A).

The arithmetic of p lives here: one float evaluator (``evaluate_many``),
one integer form (``integer_form``) and one exact sign (``signs``), a
float filter over the evaluator that the integer form backs up.

Also here: influences and regularity, the critical index of the sorted
influence sequence, the symmetric eigendecomposition (LAPACK, through
``np.linalg.eigh``), and the three-way spectral split of the quadratic
part into eigenvalue bands (at or above delta, at or below -delta, and
the small middle band).  Coefficients must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import config
from .errors import (ConfigurationError, ContractViolationError,
                     ConvergenceError, DegenerateInputError, FormatError,
                     ResourceBudgetError)


_ROWS = 1 << 16    # rows per block of the float evaluator


@dataclass
class DegTwoPoly:
    """p(x) = constant + <linear, x> + x^T quad x, quad symmetric."""

    n: int
    constant: float = 0.0
    linear: Optional[np.ndarray] = None
    quad: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.linear is None:
            self.linear = np.zeros(self.n)
        self.linear = np.asarray(self.linear, dtype=np.float64)
        if self.linear.shape != (self.n,):
            raise ConfigurationError("linear must have shape (n,)")
        if self.quad is None:
            self.quad = np.zeros((self.n, self.n))
        q = np.asarray(self.quad, dtype=np.float64)
        if q.shape != (self.n, self.n):
            raise ConfigurationError("quad must have shape (n, n)")
        if not (math.isfinite(self.constant) and np.all(np.isfinite(self.linear))
                and np.all(np.isfinite(q))):
            raise ConfigurationError("coefficients must be finite")
        if not np.array_equal(q, q.T):
            raise ContractViolationError("quad must be exactly symmetric")
        # Canonical storage: q == q.T, and q + 0.0 (every zero made +0.0) is bit-symmetric.
        self.quad = q + 0.0

    # -- construction helpers

    @classmethod
    def _trusted(cls, n: int, constant: float, linear: np.ndarray,
                 quad: np.ndarray) -> "DegTwoPoly":
        """A polynomial from parts already in canonical form, neither
        checked nor copied: a finite float, and finite float64 arrays of
        shapes (n,) and (n, n) with quad bit-symmetric and free of -0.0,
        as parts derived from a validated polynomial are."""
        p = cls.__new__(cls)
        p.n, p.constant, p.linear, p.quad = n, constant, linear, quad
        return p

    @classmethod
    def from_terms(cls, n: int, constant: float = 0.0,
                   linear: Optional[dict[int, float]] = None,
                   quad_terms: Optional[dict[tuple[int, int], float]] = None
                   ) -> "DegTwoPoly":
        """Build from sparse coefficients of the monomial basis.

        ``quad_terms[(i, j)]`` with i < j is the coefficient of x_i x_j;
        (i, i) is the coefficient of x_i^2.
        """
        lin = np.zeros(n)
        for i, v in (linear or {}).items():
            lin[i] = v
        quad = np.zeros((n, n))
        for (i, j), v in (quad_terms or {}).items():
            if i > j:
                i, j = j, i
            if i == j:
                quad[i, i] = v
            else:
                quad[i, j] = v / 2.0
                quad[j, i] = v / 2.0
        return cls(n=n, constant=constant, linear=lin, quad=quad)

    # -- views

    def trace_fold(self) -> float:
        """The constant absorbed from the diagonal on the hypercube."""
        return float(np.trace(self.quad))

    def fourier(self) -> dict[tuple[int, ...], float]:
        """Multilinear Fourier coefficients on {-1,1}^n, keyed by sorted
        index tuples; the empty tuple holds constant + trace fold."""
        coeffs = {(): self.constant + self.trace_fold()}
        coeffs.update(((i,), float(v)) for i, v in enumerate(self.linear))
        coeffs.update(((i, j), 2.0 * self.quad[i, j])
                      for i in range(self.n) for j in range(i + 1, self.n))
        return {s: v for s, v in coeffs.items() if v != 0.0}

    # -- evaluation

    def evaluate(self, x: np.ndarray) -> float:
        return float(self.evaluate_many(np.asarray(x)[None, :])[0])

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """Float values at the rows of X: c + X@l + rowsum((X@Q) * X)."""
        X = np.asarray(X)
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], _ROWS):
            B = np.asarray(X[start:start + _ROWS], dtype=np.float64)
            out[start:start + B.shape[0]] = (self.constant + B @ self.linear
                                             + np.sum((B @ self.quad) * B, axis=1))
        return out

    def evaluate_multilinear_many(self, X: np.ndarray) -> np.ndarray:
        """The multilinear form's values (x_i^2 read as 1) at real rows."""
        X = np.asarray(X, dtype=np.float64)
        return self.evaluate_many(X) + (1.0 - X * X) @ np.diag(self.quad)

    def scale(self, factor: float) -> "DegTwoPoly":
        return DegTwoPoly(n=self.n, constant=self.constant * factor,
                          linear=self.linear * factor,
                          quad=self.quad * factor)


# --------------------------------------------------------------------------
# exact arithmetic on the cube


def integer_form(p: DegTwoPoly, offset: Union[int, float, Fraction] = 0
                 ) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(D, c, l, U), Python ints (l and the strictly upper U in object arrays),
    with D (p(x) - offset) = c + <l, x> + sum_{i<j} U_ij x_i x_j on the cube.
    Floats are dyadic, so nothing rounds; the diagonal folds into c exactly."""
    ratios = [v.as_integer_ratio()
              for v in np.concatenate([p.linear, p.quad.ravel()]).tolist()]
    top = max((d for _, d in ratios), default=1)     # dyadic: each d divides top
    nums = np.array([m * (top // d) for m, d in ratios], dtype=object)
    quad = nums[p.n:].reshape(p.n, p.n)
    constant = (Fraction(p.constant) - Fraction(offset)
                + Fraction(int(np.sum(quad.diagonal())), top))
    up = math.lcm(top, constant.denominator) // top
    return (top * up, int(constant * top * up), nums[:p.n] * up,
            np.triu(quad + quad.T, 1) * up)


def signs(p: DegTwoPoly, X: np.ndarray,
          offset: Union[int, float, Fraction] = 0) -> np.ndarray:
    """The exact sign of p(x) - offset at the ±1 rows of X, int8 in {-1, 0, 1}."""
    # A static floating-point filter (Shewchuk 1997).  With c' = c - offset
    # rounded once, v = c' + X@l + rowsum((X@Q) * X).  At ±1 rows products
    # are exact and only sums round; an m-term sum in any order (BLAS and
    # FMA included) is off by gamma_{m-1} = (m-1)u/(1-(m-1)u), u = 2^-53,
    # times its terms' magnitudes.  So X@l is off by gamma_{n-1} sum|l|, the
    # quadratic part by (2 gamma_{n-1} + gamma_{n-1}^2) sum|Q|, and c' and
    # the two additions by 3u S, S = |c'| + sum|l| + sum|Q|: in all
    # |v - (p(x) - offset)| <= (2n + 3) u S (1 + O(nu)).  The factor 2 below
    # covers the O(nu) and the rounding of the float sum S.  Rows inside
    # the bound (all rows when S nears underflow or overflow) are decided by
    # the integer form, in int64 while its magnitudes sum below 2^62.
    X = np.asarray(X)
    out = np.zeros(X.shape[0], dtype=np.int8)
    try:
        shifted = float(Fraction(p.constant) - Fraction(offset))
    except OverflowError:
        shifted = math.inf
    with np.errstate(over="ignore"):           # an infinite scale means "all exact"
        scale = abs(shifted) + float(np.sum(np.abs(p.linear)) + np.sum(np.abs(p.quad)))
    unsure = np.arange(X.shape[0])
    if 2.0 ** -900 < scale < 2.0 ** 1000:
        v = DegTwoPoly(p.n, shifted, p.linear, p.quad).evaluate_many(X)
        sure = np.abs(v) > 2 * (2 * p.n + 3) * 2.0 ** -53 * scale
        out[sure] = np.sign(v[sure])
        unsure = np.flatnonzero(~sure)
    if unsure.size:
        den, c, lin, pairs = integer_form(p, offset)
        reach = abs(c) + np.sum(np.abs(lin)) + np.sum(np.abs(pairs))
        kind = np.int64 if reach < 2 ** 62 else object
        Z = X[unsure].astype(kind)
        exact = (c + Z @ lin.astype(kind)
                 + np.sum((Z @ pairs.astype(kind)) * Z, axis=1))
        out[unsure] = np.sign(exact)
    return out


# --------------------------------------------------------------------------
# influences, regularity, critical index


def influences(p: DegTwoPoly) -> tuple[np.ndarray, float]:
    """Per-variable influences and their total.

    Inf_i sums the squared Fourier coefficients of all sets containing
    i: the linear weight plus every incident off-diagonal pair weight.
    """
    pair = 2.0 * (p.quad - np.diag(np.diag(p.quad)))
    inf = p.linear ** 2 + np.sum(pair ** 2, axis=1)
    return inf, float(np.sum(inf))


@dataclass
class RegularityReport:
    is_regular: bool
    max_ratio: float
    tau: float


def _check_tau(tau: float) -> None:
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ConfigurationError(f"tau must be finite and >= 0, got {tau}")


def regularity(p: DegTwoPoly, tau: float) -> RegularityReport:
    _check_tau(tau)
    inf, total = influences(p)
    if total == 0.0:
        raise DegenerateInputError("constant polynomial has no influences")
    ratio = float(np.max(inf) / total)
    return RegularityReport(is_regular=ratio <= tau, max_ratio=ratio, tau=tau)


@dataclass
class CriticalIndexResult:
    """Critical index of the sorted influence sequence.

    ``index`` follows the total convention (a zero numerator counts as
    ratio 0, so an index always exists, at most n).  ``no_finite_index``
    flags the runs where no index strictly before the last nonzero
    influence qualifies, which the stricter convention would call +inf.
    """

    index: int
    no_finite_index: bool
    order: np.ndarray          # permutation sorting influences descending
    ratios: np.ndarray         # ratio sequence, length n+1
    tau: float


def critical_index(p: DegTwoPoly, tau: float) -> CriticalIndexResult:
    _check_tau(tau)
    inf, total = influences(p)
    if total == 0.0:
        raise DegenerateInputError("constant polynomial has no influences")
    order = np.argsort(-inf, kind="stable")
    s = inf[order]
    n = p.n
    tails = np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]])
    ratios = np.zeros(n + 1)
    for i in range(n + 1):
        num = s[i] if i < n else 0.0
        ratios[i] = 0.0 if num == 0.0 else num / tails[i]
    qualifying = np.nonzero(ratios <= tau)[0]
    index = int(qualifying[0])
    last_nonzero = int(np.count_nonzero(s))
    return CriticalIndexResult(index=index,
                               no_finite_index=index >= last_nonzero,
                               order=order, ratios=ratios, tau=tau)


# --------------------------------------------------------------------------
# eigendecomposition


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray     # sorted descending
    eigenvectors: np.ndarray    # columns matching eigenvalues


def frobenius(A: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.asarray(A, dtype=np.float64) ** 2)))


def eigendecompose_symmetric(A: np.ndarray) -> EigenDecomposition:
    """Eigenvalues in descending order and orthonormal eigenvector columns
    of a finite symmetric matrix, by LAPACK (``np.linalg.eigh``)."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolationError("square matrix required")
    n = A.shape[0]
    if n > config.EIGEN_MAX_N:
        raise ResourceBudgetError(f"n={n} exceeds eigensolver cap "
                                  f"{config.EIGEN_MAX_N}")
    if not np.all(np.isfinite(A)):
        raise ContractViolationError("matrix has a non-finite entry")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * max(frobenius(A), 1.0)):
        raise ContractViolationError("matrix is not symmetric")
    try:
        vals, vecs = np.linalg.eigh(0.5 * (A + A.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from None
    return EigenDecomposition(vals[::-1].copy(), vecs[:, ::-1].copy())


# --------------------------------------------------------------------------
# spectral decomposition


@dataclass
class SpectralDecomposition:
    """Three-way split of the quadratic part by eigenvalue band.

    p = p1 - p2 + p3 + p4 + C with p1, p2 PSD forms whose nonzero
    eigenvalues are at least delta, p3 carrying the middle band
    (spectral magnitude below delta), p4 the linear part.  Upsilon is
    the trace of the middle band's matrix.
    """

    n: int
    delta: float
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    linear: np.ndarray
    constant: float
    upsilon: float
    eigen: EigenDecomposition = field(repr=False)

    def reconstruction(self) -> np.ndarray:
        return self.a1 - self.a2 + self.a3

    def invariant_report(self, quad: np.ndarray) -> dict:
        """The four structural invariants, evaluated numerically."""
        tie = config.SPECTRAL_TIE_TOL
        out = {}
        for name, mat, sign in (("a1", self.a1, +1), ("a2", self.a2, +1)):
            vals = eigendecompose_symmetric(mat).eigenvalues
            nz = vals[np.abs(vals) > 1e-9 * max(1.0, float(np.max(np.abs(vals), initial=0.0)))]
            out[f"{name}_psd"] = bool(np.all(vals >= -1e-10))
            out[f"{name}_gap_ok"] = bool(np.all(nz >= self.delta - tie - 1e-10)) if nz.size else True
        vals3 = eigendecompose_symmetric(self.a3).eigenvalues
        lam3 = float(np.max(np.abs(vals3))) if vals3.size else 0.0
        out["a3_below_delta"] = lam3 < self.delta + tie + 1e-10
        fq = frobenius(quad)
        out["norms_bounded"] = (frobenius(self.a1) <= fq + 1e-12
                                and frobenius(self.a2) <= fq + 1e-12
                                and frobenius(self.a3) <= fq + 1e-12)
        out["reconstructs"] = bool(np.max(np.abs(self.reconstruction() - quad),
                                          initial=0.0)
                                   <= config.SPECTRAL_RECONSTRUCT_TOL)
        return out


def spectral_decompose(p: DegTwoPoly, delta: float) -> SpectralDecomposition:
    """Split p's quadratic part into eigenvalue bands around ±delta.

    Eigenvalues within SPECTRAL_TIE_TOL of ±delta are routed to the
    middle band so the PSD parts keep a strict gap.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ConfigurationError(f"delta must be finite and positive, got {delta}")
    dec = eigendecompose_symmetric(p.quad)
    vals, Q = dec.eigenvalues, dec.eigenvectors
    tie = config.SPECTRAL_TIE_TOL
    near_split = (np.abs(vals - delta) <= tie) | (np.abs(vals + delta) <= tie)
    pos = (vals >= delta) & ~near_split
    neg = (vals <= -delta) & ~near_split
    mid = ~(pos | neg)

    def build(mask: np.ndarray, flip: bool) -> np.ndarray:
        if not np.any(mask):
            return np.zeros((p.n, p.n))
        sel = Q[:, mask]
        lam = vals[mask] * (-1.0 if flip else 1.0)
        M = (sel * lam) @ sel.T
        return 0.5 * (M + M.T)

    a1 = build(pos, flip=False)
    a2 = build(neg, flip=True)
    a3 = build(mid, flip=False)
    upsilon = float(np.sum(vals[mid])) if np.any(mid) else 0.0
    return SpectralDecomposition(n=p.n, delta=delta, a1=a1, a2=a2, a3=a3,
                                 linear=p.linear.copy(), constant=p.constant,
                                 upsilon=upsilon, eigen=dec)


# --------------------------------------------------------------------------
# file format

# Line 1: n.  Then `C <value>`, `L i <value>`, `Q i j <value>` with
# 1-based indices, i <= j; Q i j holds the coefficient of x_i x_j
# (i == j: the coefficient of x_i^2).


def dumps_poly(p: DegTwoPoly) -> str:
    lines = [f"{p.n}", f"C {float(p.constant)!r}"]
    lines += [f"L {i + 1} {v!r}" for i, v in enumerate(p.linear.tolist()) if v != 0.0]
    lines += [f"Q {i + 1} {j + 1} {coef!r}" for i, row in enumerate(p.quad.tolist())
              for j in range(i, p.n)
              for coef in (row[i] if i == j else 2.0 * row[j],) if coef != 0.0]
    return "\n".join(lines) + "\n"


def dump_poly(p: DegTwoPoly, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_poly(p))


def loads_poly(text: str) -> DegTwoPoly:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty polynomial text")
    try:
        (n,) = map(int, lines[0].split())
    except ValueError:
        n = -1
    if n < 0:
        raise FormatError("first line must be the dimension n >= 0")
    constant = 0.0
    linear: dict[int, float] = {}
    quad: dict[tuple[int, int], float] = {}
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if len(parts) != {"C": 2, "L": 3, "Q": 4}.get(tag):
            raise FormatError(f"line {lineno}: unrecognized record")
        try:
            idx = tuple(int(v) - 1 for v in parts[1:-1])
            value = float(parts[-1])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if tag == "L" and not 0 <= idx[0] < n:
            raise FormatError(f"line {lineno}: index out of range")
        if tag == "Q" and not 0 <= idx[0] <= idx[1] < n:
            raise FormatError(f"line {lineno}: need 1 <= i <= j <= n")
        if (tag, idx) in seen:
            raise FormatError(f"line {lineno}: repeated {' '.join(parts[:-1])} record")
        seen.add((tag, idx))
        if tag == "C":
            constant = value
        elif tag == "L":
            linear[idx[0]] = value
        else:
            quad[idx] = value
    return DegTwoPoly.from_terms(n, constant, linear, quad)


def read_ascii(path, what: str) -> str:
    """A text file's contents; a non-ASCII byte raises FormatError."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} file {path}: {exc}") from None


def load_poly(path) -> DegTwoPoly:
    return loads_poly(read_ascii(path, "polynomial"))
