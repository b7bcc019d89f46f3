"""Fourier-side mollification: the bump, its transform, and the smoothing
kernel built from it.

The bump b(x) = sqrt(C_d)(1 - |x|^2) lives on the unit ball, normalized
so its L2 norm is 1.  Its transform g = b-hat is radial; the smoothing
kernel is B = g^2, nonnegative with unit integral by Plancherel, and
B_c(x) = c^d B(cx) concentrates it at scale 1/c.  Convolving an
indicator with B_c yields a smooth surrogate whose derivative norms and
approximation error this module computes and checks.

The transform has the one-term Bessel closed form
g(t) = 2 sqrt(C_d) J_{d/2+1}(|t|)/|t|^{d/2+1} for every d, with a short
Taylor series below |t| = 1e-2 where the quotient cancels.  It is the
evaluator every integral here uses; the unit integral and the
squared-bump moments (closed form against quadrature) check it.

Derivatives of B are analytic, never finite differences: a radial
function's partials expand into monomial-times-radial terms where each
radial factor is again a closed-form Bessel expression, and B's
derivatives follow by the product rule on g*g.  The L1 norms integrate
over one fixed polar quadrature grid per dimension, where the radial
factors depend on the radius alone: psi_0..psi_3 are tabulated once per
dimension on the grid's radii (``_l1_table``), every norm reads its rows
from that table, and the directions supply the monomials.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from . import config
from .errors import ConfigurationError, InconclusiveError

_SERIES_CUTOFF = config.BHAT_SERIES_CUTOFF
_SERIES_TERMS = config.BHAT_SERIES_TERMS
_PANEL_BLOCK = 5     # quadrature panels per evaluation: a few thousand points in d=2


@lru_cache(maxsize=None)
def bump_norm_const(d: int) -> float:
    """C_d = Gamma(d/2) d(d+2)(d+4) / (16 pi^{d/2}); makes ||b||_2 = 1."""
    if d < 1:
        raise ConfigurationError("dimension must be at least 1")
    from scipy.special import gamma     # scipy.special: on first use
    return float(gamma(d / 2.0) * d * (d + 2) * (d + 4)
                 / (16.0 * math.pi ** (d / 2.0)))


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere in R^d."""
    from scipy.special import gamma
    return float(2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0))


@lru_cache(maxsize=64)
def _gl_nodes(npts: int) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_legendre
    return roots_legendre(npts)


def _panel_nodes(lo: float, hi: float, panel: float,
                 npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes over [lo, hi], one (npts,) row per
    panel, and the panels' half widths."""
    x, _ = _gl_nodes(npts)
    a = np.arange(lo, hi, panel)
    b = np.minimum(a + panel, hi)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid[:, None] + half[:, None] * x, half


def _panel_sum(f, half: np.ndarray, npts: int) -> float:
    """Composite Gauss-Legendre sum: f(blk) is the integrand on the node
    rows of the panels in slice blk, _PANEL_BLOCK panels at a time; each
    panel's weighted sum is kept and the sums meet in fsum."""
    _, w = _gl_nodes(npts)
    total = []
    for s in range(0, half.size, _PANEL_BLOCK):
        blk = slice(s, s + _PANEL_BLOCK)
        total.extend(h * float(np.dot(w, v)) for h, v in zip(half[blk], f(blk)))
    return math.fsum(total)


def _panel_quad(f, lo: float, hi: float, panel: float, npts: int) -> float:
    """Composite Gauss-Legendre of a vectorized f over [lo, hi]; f sees
    the nodes of _PANEL_BLOCK panels at once, as a (panels, npts) array."""
    if hi <= lo:
        return 0.0
    nodes, half = _panel_nodes(lo, hi, panel, npts)
    return _panel_sum(lambda blk: f(nodes[blk]), half, npts)


# --------------------------------------------------------------------------
# the transform g = b-hat


def _psi_values(d: int, m: int, rho: np.ndarray) -> np.ndarray:
    """m-fold (1/rho d/drho) of g, closed form: the Bessel order shifts
    up by m with alternating sign.  m = 0 is g itself."""
    from scipy.special import gamma, jv
    nu = d / 2.0 + 1.0 + m
    out = np.empty_like(rho)
    small = rho < _SERIES_CUTOFF
    if np.any(small):
        acc = np.zeros_like(rho[small])
        for j in range(_SERIES_TERMS):
            term = ((-1.0) ** j / (2.0 ** (2 * j + nu)
                                   * math.factorial(j) * gamma(j + nu + 1.0)))
            acc = acc + term * rho[small] ** (2 * j)
        out[small] = acc
    big = ~small
    if np.any(big):
        r = rho[big]
        out[big] = jv(nu, r) / r ** nu
    return 2.0 * math.sqrt(bump_norm_const(d)) * ((-1.0) ** m) * out


def bhat_closed_form(d: int, t) -> np.ndarray:
    """g(|t|) = 2 sqrt(C_d) J_{d/2+1}(|t|) / |t|^{d/2+1}, any d.

    Series fallback near zero; the evaluator every integral here uses.
    """
    return _psi_values(d, 0, np.abs(np.atleast_1d(np.asarray(t, dtype=np.float64))))


def _kernel_radial(d: int, rho: np.ndarray) -> np.ndarray:
    return bhat_closed_form(d, rho) ** 2


def _radial_mass(d: int, lo: float, hi: float) -> float:
    """Kernel mass over the shell lo <= |x| <= hi, radially integrated."""
    return sphere_surface(d) * _panel_quad(
        lambda r: _kernel_radial(d, r) * r ** (d - 1), lo, hi, 1.0, 12)


def _radial_tail_mass(d: int, L: float) -> float:
    """Envelope estimate of the kernel mass beyond radius L, from
    B(rho) <= E rho^{-(d+3)} for rho >~ 1 (asymptotic Bessel envelope
    |J_nu| <= sqrt(2/(pi rho)); an estimate, not a proof)."""
    if L <= 1.0:
        return math.inf
    envelope = 4.0 * bump_norm_const(d) * 2.0 / math.pi
    return sphere_surface(d) * envelope / (3.0 * L ** 3)


# --------------------------------------------------------------------------
# unit integral


@dataclass
class UnitIntegralReport:
    d: int
    c: float
    value: float
    abs_error: float
    tail_estimate: float
    method: str
    passed: bool


def _check_scale(c: float) -> None:
    if not (math.isfinite(c) and c > 0):
        raise ConfigurationError(f"scale must be finite and positive, got {c}")


def check_unit_integral(d: int, c: float = 1.0) -> UnitIntegralReport:
    """Integral of B_c over R^d, which should be 1 (pass at config.QUAD_TOL).

    Scale drops out exactly under substitution, so c only relabels the
    grid.  Radial composite Gauss-Legendre quadrature, for d <= 4.
    """
    _check_scale(c)
    if d > 4:
        raise ConfigurationError("radial quadrature limited to d <= 4")
    L = 200.0
    value = _radial_mass(d, 0.0, L)
    err = abs(value - 1.0)
    return UnitIntegralReport(d=d, c=c, value=value, abs_error=err,
                              tail_estimate=_radial_tail_mass(d, L),
                              method="radial", passed=err <= config.QUAD_TOL)


# --------------------------------------------------------------------------
# derivatives of the kernel, analytically


@lru_cache(maxsize=None)
def _radial_deriv_terms(alpha: tuple[int, ...]) -> tuple[tuple[tuple[tuple[int, ...], int], float], ...]:
    """Expand the partial derivative of a radial function into terms.

    Each term is ((monomial exponents, radial order m), coefficient): the
    derivative equals sum coeff * x^mono * psi_m(rho).  Built by repeated
    product rule from the base term x^0 psi_0.
    """
    d = len(alpha)
    terms: dict[tuple[tuple[int, ...], int], float] = {((0,) * d, 0): 1.0}
    for axis, count in enumerate(alpha):
        for _ in range(count):
            nxt: dict[tuple[tuple[int, ...], int], float] = {}
            for (mono, m), cf in terms.items():
                if mono[axis] > 0:
                    down = mono[:axis] + (mono[axis] - 1,) + mono[axis + 1:]
                    key = (down, m)
                    nxt[key] = nxt.get(key, 0.0) + cf * mono[axis]
                up = mono[:axis] + (mono[axis] + 1,) + mono[axis + 1:]
                key = (up, m + 1)
                nxt[key] = nxt.get(key, 0.0) + cf
            terms = nxt
    return tuple(terms.items())


def _leibniz(beta: tuple[int, ...]):
    """Yield (C(beta, alpha), alpha, beta - alpha) for every alpha <= beta:
    the weights and factors of the product rule for a partial of g*g."""
    for alpha in iter_product(*(range(b + 1) for b in beta)):
        comb = 1.0
        for bi, ai in zip(beta, alpha):
            comb *= math.comb(bi, ai)
        yield comb, alpha, tuple(b - a for b, a in zip(beta, alpha))


def _kernel_partial_grid(beta: tuple[int, ...], psi: Sequence[np.ndarray], r: np.ndarray,
                         omega: np.ndarray) -> np.ndarray:
    """Partial derivative of B = g^2 at every point r * omega_j.

    r is an array of radii, psi[m] the values of psi_m at them for
    m = 0..|beta| at least, and omega a (directions, d) array of unit
    vectors; the result has shape r.shape + (directions,).  Each
    coordinate power is computed once, each partial of g is assembled
    once from its radial terms, and B's partial follows by the product
    rule on g*g.
    """
    coords = r[..., None, None] * omega
    powers = []
    for axis, b in enumerate(beta):     # by multiplication: ** leaves SIMD on x < 0
        x = coords[..., axis]
        p = [None, x]
        while len(p) <= b:
            p.append(p[-1] * x)
        powers.append(p)

    def g_partial(alpha):
        out = 0.0
        for (mono, m), cf in _radial_deriv_terms(alpha):
            vals = psi[m][..., None] * cf
            for axis, e in enumerate(mono):
                if e:
                    vals = vals * powers[axis][e]
            out = out + vals
        return out

    terms = list(_leibniz(beta))
    g = {alpha: g_partial(alpha) for _, alpha, _ in terms}
    out = np.zeros(coords.shape[:-1])
    for comb, alpha, rest in terms:
        out = out + comb * g[alpha] * g[rest]
    return out


@dataclass
class DerivNormReport:
    d: int
    beta: tuple[int, ...]
    value: float
    bound_basic: float
    bound_improved: float
    tail_estimate: float
    inconclusive: bool
    passed: bool


def _deriv_tail_estimate(d: int, beta: tuple[int, ...], L: float) -> float:
    """Envelope estimate of the L1 mass of the kernel derivative beyond
    radius L.

    Each product term is bounded by |coeff| rho^{|mono|} times two
    radial envelopes 2 sqrt(C_d) sqrt(2/(pi rho)) rho^{-(d/2+1+m)};
    the resulting radial integral always decays at least like rho^-4.
    """
    amp = 2.0 * math.sqrt(bump_norm_const(d)) * math.sqrt(2.0 / math.pi)
    surf = sphere_surface(d)
    total = 0.0
    for comb, alpha, rest in _leibniz(beta):
        for (mono1, m1), c1 in _radial_deriv_terms(alpha):
            for (mono2, m2), c2 in _radial_deriv_terms(rest):
                power = sum(mono1) + sum(mono2)
                q = (d - 1) + power - (d + m1 + m2 + 3)
                # q = power - (m1 + m2) - 4 <= -4 since |mono| <= m
                integral = L ** (q + 1) / (-q - 1)
                total += abs(comb * c1 * c2) * amp * amp * integral
    return surf * total


def _multi_index(alpha: Sequence[int], d: int) -> tuple[int, ...]:
    """alpha as a tuple of d nonnegative ints; anything else is refused."""
    try:
        alpha = tuple(operator.index(a) for a in alpha)
    except TypeError:
        raise ConfigurationError(f"multi-index entries must be integers, got {alpha!r}") from None
    if len(alpha) != d:
        raise ConfigurationError("multi-index length must equal the dimension")
    if any(a < 0 for a in alpha):
        raise ConfigurationError("multi-index must be nonnegative")
    return alpha


@lru_cache(maxsize=None)
def _l1_table(d: int) -> tuple[float, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``deriv_l1_norm``'s grid in dimension d <= 2, with psi_0..psi_3 on
    its radii: (cap, npts, radii, half, psi, omega), read-only and shared.

    Unit radial panels over [0, cap] of npts Gauss-Legendre nodes (80 of
    12 for d=1, 50 of 10 for d=2) with their half widths; psi is
    (4, panels, npts).  omega is 128 equally spaced directions for d=2
    and +1 alone for d=1, where |d^k B| is even and the sphere's measure
    2 counts both sides.
    """
    cap, npts = (80.0, 12) if d == 1 else (50.0, 10)
    radii, half = _panel_nodes(0.0, cap, 1.0, npts)
    psi = np.stack([_psi_values(d, m, radii) for m in range(4)])
    if d == 1:
        omega = np.ones((1, 1))
    else:
        theta = np.arange(128) * (2.0 * math.pi / 128)
        omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for a in (radii, half, psi, omega):
        a.setflags(write=False)
    return cap, npts, radii, half, psi, omega


def deriv_l1_norm(d: int, beta: Sequence[int]) -> DerivNormReport:
    """L1 norm of the kernel's partial derivative, with the explicit
    2^{|beta|} bound asserted and the factorial-improved bound reported.

    The norm is quadrature over a truncated ball, radial panels times
    equally spaced directions, plus an envelope tail estimate; if the
    estimate exceeds 10% of the bound the report is marked inconclusive
    and nothing is asserted.  The grid and psi_0..psi_3 on its radii come
    from ``_l1_table``, built once per dimension, so a call evaluates no
    Bessel function after the first in its dimension.
    """
    beta = _multi_index(beta, d)
    if sum(beta) > 3 or d > 2:
        raise ConfigurationError("supported range is |beta| <= 3, d <= 2")

    L, npts, radii, half, psi, omega = _l1_table(d)
    surf = sphere_surface(d)

    def shell(blk: slice) -> np.ndarray:
        r = radii[blk]
        vals = np.abs(_kernel_partial_grid(beta, psi[:, blk], r, omega))
        return vals.mean(axis=-1) * surf * r ** (d - 1)

    value = _panel_sum(shell, half, npts)
    tail = _deriv_tail_estimate(d, beta, L)
    k = sum(beta)
    bound_basic = 2.0 ** k
    # 2^k sqrt(beta! / k^k), which is 1.0 at k = 0 since 0 ** -0.0 == 1.0
    beta_fact = math.prod(map(math.factorial, beta))
    bound_improved = 2.0 ** k * math.sqrt(beta_fact * k ** (-float(k)))
    inconclusive = tail > 0.1 * bound_basic
    passed = (not inconclusive) and value <= bound_basic + 1e-9
    return DerivNormReport(d=d, beta=beta, value=value,
                           bound_basic=bound_basic,
                           bound_improved=bound_improved,
                           tail_estimate=tail, inconclusive=inconclusive,
                           passed=passed)


# --------------------------------------------------------------------------
# kernel tail mass


@dataclass
class TailMassReport:
    d: int
    z: float
    value: float                # kernel mass beyond radius d*z
    inside: float               # mass within radius d*z
    scaled: float               # value * z^2 (the curve being fitted)
    identity_gap: float         # |inside + value - 1|
    cap_estimate: float         # envelope mass beyond the quadrature cap


def tail_mass(d: int, z: float) -> TailMassReport:
    """Kernel mass outside radius d*z, radially integrated."""
    if z <= 0:
        raise ConfigurationError("z must be positive")
    if d > 2:
        raise ConfigurationError("tail mass supported for d <= 2")
    radius = d * z
    cap = max(4.0 * radius, 240.0)
    inside = _radial_mass(d, 0.0, radius)
    outside = _radial_mass(d, radius, cap)
    return TailMassReport(d=d, z=z, value=outside, inside=inside,
                          scaled=outside * z ** 2,
                          identity_gap=abs(inside + outside - 1.0),
                          cap_estimate=_radial_tail_mass(d, cap))


def tail_mass_curve(d: int, zs: Sequence[float]) -> list[TailMassReport]:
    """Tail reports over a z grid, with monotone decrease asserted."""
    reports = [tail_mass(d, z) for z in sorted(zs)]
    for lo, hi in zip(reports, reports[1:]):
        if hi.value > lo.value + 1e-12:
            raise InconclusiveError("kernel tail failed to decrease in z")
    return reports


# --------------------------------------------------------------------------
# moments of the squared bump


@dataclass
class SquaredMomentReport:
    d: int
    alpha: tuple[int, ...]
    exact: float
    quadrature: float
    relative_gap: float


def squared_bump_moment(d: int, alpha: Sequence[int]) -> SquaredMomentReport:
    """The integral of x^alpha b(x)^2, exactly and by quadrature.

    Odd components force exact zero by symmetry.  Even alpha has the
    Gamma closed form

        C_d * 2 prod Gamma((a_i+1)/2) / Gamma((|a|+d)/2)
            * 8 / (a (a+2) (a+4)),   a = |alpha| + d.

    The quadrature side avoids Gamma entirely: the radial factor is a
    polynomial integral and the angular factor is a trapezoid sum
    (exact for trigonometric polynomials), so agreement is a real
    cross-check, expected to 1e-6 relative.
    """
    alpha = _multi_index(alpha, d)
    if d > 2:
        raise ConfigurationError("bump moments supported for d <= 2")
    cd = bump_norm_const(d)

    if any(a % 2 for a in alpha):
        exact = 0.0
    else:
        from scipy.special import gamma
        a_tot = sum(alpha) + d
        angular = 2.0
        for ai in alpha:
            angular *= gamma((ai + 1) / 2.0)
        angular /= gamma((sum(alpha) + d) / 2.0)
        radial = 8.0 / (a_tot * (a_tot + 2) * (a_tot + 4))
        exact = cd * angular * radial

    npts = max(16, sum(alpha) // 2 + 8)
    x, w = _gl_nodes(npts)
    if d == 1:
        r = x  # [-1, 1] directly; integrand is a polynomial there
        quad = cd * float(np.dot(w, r ** alpha[0] * (1.0 - r ** 2) ** 2))
    else:
        r = 0.5 * (x + 1.0)
        wr = 0.5 * w
        radial_q = float(np.dot(
            wr, r ** (sum(alpha) + 1) * (1.0 - r ** 2) ** 2))
        ntheta = 4 * (sum(alpha) + 4)
        theta = np.arange(ntheta) * (2.0 * math.pi / ntheta)
        ang_q = float(np.mean(np.cos(theta) ** alpha[0]
                              * np.sin(theta) ** alpha[1])) * 2.0 * math.pi
        quad = cd * radial_q * ang_q

    scale = max(abs(exact), 1e-30)
    return SquaredMomentReport(d=d, alpha=alpha, exact=exact, quadrature=quad,
                               relative_gap=abs(exact - quad) / scale)


# --------------------------------------------------------------------------
# mollified indicators


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of closed intervals [lo_i, hi_i].  An end may
    be infinite, so half-lines and quadrants are boxes too."""
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ConfigurationError("box corners must share a dimension")
        if any(math.isnan(e) for e in (*self.lo, *self.hi)):
            raise ConfigurationError("box ends must not be NaN")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ConfigurationError("box must have positive volume")

    @property
    def d(self) -> int:
        return len(self.lo)


def HalfLine(theta: float) -> Box:
    """{t : t >= theta} on the real line."""
    return Box((theta,), (math.inf,))


def Quadrant(corner: tuple[float, float]) -> Box:
    """{y : y_i >= corner_i for every i} in the plane."""
    return Box(tuple(corner), (math.inf, math.inf))


_CDF_CAP = 80.0


def kernel_cdf_1d(v: float) -> float:
    """Mass of the one-dimensional kernel over (-inf, v]."""
    if v <= -_CDF_CAP:
        return 0.0
    if v >= _CDF_CAP:
        return 1.0
    part = _panel_quad(lambda r: _kernel_radial(1, r), 0.0, abs(v), 1.0, 12)
    return 0.5 + math.copysign(part, v)


def kernel_cdf_2d(u: float, v: float) -> float:
    """Mass of the two-dimensional kernel over (-inf,u] x (-inf,v]."""
    L = 40.0
    if u <= -L or v <= -L:
        return 0.0
    _, w = _gl_nodes(8)

    def axis(hi: float) -> tuple[np.ndarray, np.ndarray]:
        nodes, half = _panel_nodes(-L, min(hi, L), 1.0, 8)
        return nodes.ravel(), (half[:, None] * w).ravel()

    (nu, wu), (nv, wv) = axis(u), axis(v)
    rho = np.sqrt(nu[:, None] ** 2 + nv[None, :] ** 2)
    vals = _kernel_radial(2, rho.ravel()).reshape(rho.shape)
    return float(wu @ vals @ wv)


@dataclass
class Mollifier:
    """The scaled kernel B_c in dimension d <= 2.

    ``self_check`` recomputes the unit integral; a mollifier whose
    quadrature cannot see mass 1 at tolerance has no business smoothing
    anything.
    """

    d: int
    c: float

    def __post_init__(self):
        _check_scale(self.c)
        if self.d not in (1, 2):
            raise ConfigurationError("mollified evaluation supports d <= 2")

    def self_check(self) -> UnitIntegralReport:
        return check_unit_integral(self.d, self.c)

    def mollify(self, region: Box, x) -> float:
        """(B_c * indicator of the box)(x): inclusion-exclusion of the
        kernel CDF over the box's 2^d corners, first axis fastest, where a
        CDF at an infinite end is exactly 0."""
        if region.d != self.d:
            raise ConfigurationError("region dimension mismatch")
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if x.shape != (self.d,) or not np.all(np.isfinite(x)):
            raise ConfigurationError(
                f"point must have {self.d} finite coordinates, got {x.tolist()}")
        cdf = kernel_cdf_1d if self.d == 1 else kernel_cdf_2d
        ends = [(self.c * (float(t) - lo), self.c * (float(t) - hi))
                for t, lo, hi in zip(x, region.lo, region.hi)]
        total = 0.0
        for corner in iter_product((0, 1), repeat=self.d):
            pick = corner[::-1]
            total += (-1) ** sum(pick) * cdf(*(e[j] for e, j in zip(ends, pick)))
        return total
