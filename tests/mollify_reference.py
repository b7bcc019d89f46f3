"""Slow reference paths for the mollifier, kept as test oracles.

``kernel_value`` is B at one point, for integrating the kernel directly.

The rest are the per-point evaluations that ``mollify`` replaced with
one radial table per dimension (``mollify._l1_table``: psi_0..psi_3
evaluated once on the quadrature grid's radii, and read by
``mollify._kernel_partial_grid`` for every norm).  Here each partial of
g is summed term by term with psi_m recomputed at every point for every
term, B's partials take two such evaluations per product-rule term, and
the L1 norm of a partial is integrated one quadrature panel at a time.
A d=2 norm costs seconds here.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ptffool import mollify


def kernel_value(d: int, x) -> float:
    """B(x) = g(|x|)^2: nonnegative, unit integral."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    rho = float(np.linalg.norm(x))
    return float(mollify.bhat_closed_form(d, rho)[0] ** 2)


def bhat_partial(d: int, alpha, points: np.ndarray) -> np.ndarray:
    """Partial derivative of the transform g at the given points (rows)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    rho = np.linalg.norm(pts, axis=1)
    out = np.zeros(pts.shape[0])
    for (mono, m), cf in mollify._radial_deriv_terms(tuple(alpha)):
        vals = mollify._psi_values(d, m, rho) * cf
        for axis, e in enumerate(mono):
            if e:
                vals = vals * pts[:, axis] ** e
        out += vals
    return out


def kernel_partial(d: int, beta, points: np.ndarray) -> np.ndarray:
    """Partial derivative of B = g^2 by the product rule over transforms."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    out = np.zeros(pts.shape[0])
    for alpha in itertools.product(*(range(b + 1) for b in beta)):
        comb = 1.0
        for bi, ai in zip(beta, alpha):
            comb *= math.comb(bi, ai)
        rest = tuple(b - a for b, a in zip(beta, alpha))
        out += comb * bhat_partial(d, alpha, pts) * bhat_partial(d, rest, pts)
    return out


def _panel_quad(f, lo: float, hi: float, panel: float, npts: int) -> float:
    """Composite Gauss-Legendre, one panel per call of f."""
    x, w = mollify._gl_nodes(npts)
    total = []
    for a in np.arange(lo, hi, panel):
        b = min(a + panel, hi)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total.append(half * float(np.dot(w, f(mid + half * x))))
    return math.fsum(total)


def deriv_l1_value(d: int, beta) -> float:
    """The quadrature value of ``mollify.deriv_l1_norm(d, beta)``, point by
    point on the same grid: 80 unit panels of 12 nodes on the half line
    for d=1; 50 radial panels of 10 nodes times 128 angles for d=2."""
    beta = tuple(beta)
    if d == 1:
        return 2.0 * _panel_quad(
            lambda x: np.abs(kernel_partial(1, beta, x[:, None])), 0.0, 80.0, 1.0, 12)
    ntheta = 128
    theta = np.arange(ntheta) * (2.0 * math.pi / ntheta)
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)

    def ring(r: np.ndarray) -> np.ndarray:
        pts = (r[:, None, None] * omega[None, :, :]).reshape(-1, 2)
        vals = np.abs(kernel_partial(2, beta, pts)).reshape(r.size, ntheta)
        return vals.mean(axis=1) * (2.0 * math.pi) * r

    return _panel_quad(ring, 0.0, 50.0, 1.0, 10)
