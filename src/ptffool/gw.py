"""Hyperplane rounding for MaxCut driven by k-wise independent Gaussians.

The classical rounding scheme cuts edge (u, v) when a random direction r
separates the unit vectors x_u and x_v, which happens with probability
arccos(<x_u, x_v>)/pi under a fully independent Gaussian r.  This module
provides that expectation in closed form as the oracle, and an empirical
rounding loop that draws r from a k-wise independent Gaussian space
instead, so the two can be compared edge for edge.

Whether an edge is cut depends on r only through the signs of the two
inner products, i.e. on a pair of (approximately) Gaussian coordinates.
That is the entire reason limited independence suffices, and it is also
how the loop below is vectorized: one matrix product per batch of
directions, then sign comparisons along edges.

No SDP solver lives here.  Embeddings come from files written by external
solvers or from the closed-form generators, which cover the instances
whose optima are known on paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import config
from .errors import ConfigurationError, FormatError
from .poly import read_ascii
from .spaces import GaussianSpace

_GENERATOR_KINDS = ("antipodal", "cycle_optimal", "random_unit")

#: Directions drawn and rounded at a time by ``round_with_space``.
_TRIALS_PER_BATCH = 8192


# --------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph; parallel edges allowed, self-loops not."""

    num_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ConfigurationError("graph needs at least one vertex")
        for u, v, w in self.edges:
            if u == v:
                raise ConfigurationError(f"self-loop at vertex {u + 1}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ConfigurationError(f"edge ({u + 1}, {v + 1}) out of range")
            if not (math.isfinite(w) and w >= 0.0):
                raise ConfigurationError(
                    f"edge ({u + 1}, {v + 1}) has weight {w}, need finite >= 0")

    @property
    def total_weight(self) -> float:
        return math.fsum(w for _, _, w in self.edges)


def single_edge() -> Graph:
    return Graph(2, ((0, 1, 1.0),))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ConfigurationError("a cycle needs at least 3 vertices")
    return Graph(n, tuple((j, (j + 1) % n, 1.0) for j in range(n)))


def _is_canonical_cycle(graph: Graph) -> bool:
    n = graph.num_vertices
    want = {frozenset((j, (j + 1) % n)) for j in range(n)}
    got = {frozenset((u, v)) for u, v, _ in graph.edges}
    return n >= 3 and len(graph.edges) == n and want == got


# --------------------------------------------------------------------------
# embeddings


@dataclass
class Embedding:
    """One unit vector per vertex, rows of a (num_vertices, dim) matrix."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ConfigurationError("embedding must be a 2-d array")
        norms = np.linalg.norm(self.vectors, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > config.EMBED_UNIT_TOL)[0]
        if bad.size:
            v = int(bad[0])
            raise ConfigurationError(
                f"vertex {v + 1}: vector norm {norms[v]:.12g} is not 1 "
                f"within {config.EMBED_UNIT_TOL}")

    @property
    def num_vertices(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def generate_test_embedding(graph: Graph, kind: str, dim: int = 2,
                            seed: int = 0) -> Embedding:
    """Closed-form embeddings for instances with known structure.

    antipodal: vertex u sits at (-1)^u times the first basis vector, so
    every edge between vertices of opposite parity has inner product -1.

    cycle_optimal: the planar embedding placing vertex j at angle
    j*(n-1)*pi/n, which is the classical optimum for odd cycles; every
    cycle edge sees inner product cos((n-1)*pi/n).  Only accepted when
    the graph really is the canonical n-cycle.

    random_unit: rows drawn standard normal and normalized, reproducible
    from the seed.
    """
    if kind not in _GENERATOR_KINDS:
        raise ConfigurationError(
            f"unknown embedding kind {kind!r}, expected one of {_GENERATOR_KINDS}")
    if dim < 1:
        raise ConfigurationError("dim must be >= 1")
    n = graph.num_vertices
    if kind == "antipodal":
        vecs = np.zeros((n, dim))
        vecs[:, 0] = [(-1.0) ** u for u in range(n)]
        return Embedding(vecs)
    if kind == "cycle_optimal":
        if not _is_canonical_cycle(graph):
            raise ConfigurationError(
                "cycle_optimal requires the canonical cycle graph")
        theta = (n - 1) * math.pi / n
        vecs = np.zeros((n, max(dim, 2)))
        for j in range(n):
            vecs[j, 0] = math.cos(j * theta)
            vecs[j, 1] = math.sin(j * theta)
        return Embedding(vecs)
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    while np.any(norms == 0.0):            # probability zero, but cheap to cover
        vecs = rng.standard_normal((n, dim))
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return Embedding(vecs / norms)


# --------------------------------------------------------------------------
# the closed-form oracle


def expected_cut_exact(graph: Graph, embedding: Embedding) -> float:
    """Expected cut value under fully independent Gaussian rounding.

    Sum over edges of w * arccos(<x_u, x_v>)/pi.  Inner products are
    clipped to [-1, 1] before arccos so that roundoff at the endpoints
    cannot produce NaN.
    """
    if embedding.num_vertices != graph.num_vertices:
        raise ConfigurationError("embedding and graph vertex counts differ")
    vecs = embedding.vectors
    terms = []
    for u, v, w in graph.edges:
        ip = min(1.0, max(-1.0, float(vecs[u] @ vecs[v])))
        terms.append(w * math.acos(ip) / math.pi)
    return math.fsum(terms)


def k_for_eps(eps: float) -> int:
    """Default independence order for a target rounding accuracy eps.

    The supporting theorem says order 1/eps^2 up to an unspecified
    constant; the numerator here is a config default, not a calibrated
    value.
    """
    if not 0.0 < eps < 1.0:
        raise ConfigurationError("eps must lie in (0, 1)")
    return math.ceil(config.GW_K_NUM / eps ** 2)


# --------------------------------------------------------------------------
# empirical rounding


@dataclass
class RoundingReport:
    mean_cut: float
    ci: float                      # three standard errors, 0 for exact sweeps
    diff_vs_exact: float
    exact_cut: float
    trials: int
    mode: str                      # "exact_seed_sweep" | "mc"
    std_error: float
    k: Optional[int]
    seed: Optional[int]
    min_cut: float
    max_cut: float


def _cut_values(graph: Graph, embedding: Embedding,
                directions: np.ndarray) -> np.ndarray:
    """Cut value of the rounded partition for each direction (row).

    sgn(0) counts as +1 on both endpoints, so a direction exactly on an
    edge's bisecting hyperplane leaves that edge uncut.
    """
    nonneg = directions @ embedding.vectors.T >= 0.0
    U = np.fromiter((u for u, _, _ in graph.edges), dtype=np.intp)
    V = np.fromiter((v for _, v, _ in graph.edges), dtype=np.intp)
    W = np.fromiter((w for _, _, w in graph.edges), dtype=np.float64)
    return (nonneg[:, U] != nonneg[:, V]).astype(np.float64) @ W


def round_with_space(graph: Graph, embedding: Embedding,
                     gspace: Union[GaussianSpace, str],
                     trials: Optional[int] = None, seed: int = 0) -> RoundingReport:
    """Round with directions from a k-wise Gaussian space and compare.

    With a GaussianSpace and ``trials`` left as None, the full seed space
    is enumerated when its size fits the support budget, which makes the
    reported mean exact over the space (ci 0).  Otherwise ``trials``
    directions are sampled.  Passing the string "iid" uses fully
    independent Gaussian directions, the reference the derandomization
    is measured against.

    Directions are drawn ``_TRIALS_PER_BATCH`` at a time and a fixed seed
    reproduces the report bit for bit.  The batch size is part of that
    seed: a Gaussian space draws a batch's coefficients block by block,
    one value per direction in each block, so other batch sizes give
    other directions and another report.
    """
    iid = isinstance(gspace, str)
    if iid and gspace != "iid":
        raise ConfigurationError(f"unknown direction source {gspace!r}")
    if not iid and gspace.n != embedding.dim:
        raise ConfigurationError(
            f"space dimension {gspace.n} != embedding dimension {embedding.dim}")
    exact = expected_cut_exact(graph, embedding)

    if not iid and trials is None:
        cuts = _cut_values(graph, embedding, gspace.enumerate_samples())
        mean = float(math.fsum(cuts) / cuts.size)
        return RoundingReport(
            mean_cut=mean, ci=0.0, diff_vs_exact=mean - exact,
            exact_cut=exact, trials=int(cuts.size), mode="exact_seed_sweep",
            std_error=0.0, k=gspace.k_claimed, seed=None,
            min_cut=float(cuts.min()), max_cut=float(cuts.max()))

    if trials is None or trials < 1:
        raise ConfigurationError("mc rounding needs a positive trial count")
    rng = np.random.default_rng(seed)
    pieces = []
    done = 0
    while done < trials:
        take = min(_TRIALS_PER_BATCH, trials - done)
        if iid:
            R = rng.standard_normal((take, embedding.dim))
        else:
            R = gspace.sample_batch(take, rng)
        pieces.append(_cut_values(graph, embedding, R))
        done += take
    cuts = np.concatenate(pieces)
    mean = float(math.fsum(cuts) / trials)
    se = float(cuts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return RoundingReport(
        mean_cut=mean, ci=3.0 * se, diff_vs_exact=mean - exact,
        exact_cut=exact, trials=trials, mode="mc", std_error=se,
        k=None if iid else gspace.k_claimed, seed=seed,
        min_cut=float(cuts.min()), max_cut=float(cuts.max()))


# --------------------------------------------------------------------------
# file formats: graph lines are "u v" or "u v w", embedding lines are
# "v dim c1 ... cdim"; vertex ids are 1-based in both.


def load_graph(path) -> Graph:
    edges = []
    top = 0
    for lineno, line in enumerate(read_ascii(path, "graph").split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) not in (2, 3):
            raise FormatError(f"line {lineno}: need 'u v' or 'u v w'")
        try:
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if u < 0 or v < 0:
            raise FormatError(f"line {lineno}: vertex ids are 1-based")
        top = max(top, u + 1, v + 1)
        edges.append((u, v, w))
    if not edges:
        raise FormatError("graph file has no edges")
    return Graph(num_vertices=top, edges=tuple(edges))


def load_embedding(path) -> Embedding:
    rows: dict[int, np.ndarray] = {}
    dim = None
    for lineno, line in enumerate(read_ascii(path, "embedding").split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            v = int(parts[0]) - 1
            d = int(parts[1])
            coords = [float(c) for c in parts[2:]]
        except (ValueError, IndexError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if len(coords) != d:
            raise FormatError(
                f"line {lineno}: declared dim {d}, found {len(coords)} coords")
        if dim is None:
            dim = d
        elif d != dim:
            raise FormatError(f"line {lineno}: dim {d} != earlier dim {dim}")
        if v < 0:
            raise FormatError(f"line {lineno}: vertex ids are 1-based")
        if v in rows:
            raise FormatError(f"line {lineno}: vertex {v + 1} repeated")
        rows[v] = np.array(coords)
    if not rows:
        raise FormatError("embedding file has no vertices")
    count = max(rows) + 1
    if len(rows) != count:
        first = next(v for v in range(count) if v not in rows)
        raise FormatError(f"embedding file lists {len(rows)} of vertices "
                          f"1..{count}; vertex {first + 1} is missing")
    return Embedding(np.vstack([rows[v] for v in range(count)]))
