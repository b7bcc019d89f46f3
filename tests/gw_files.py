"""Writers for the graph and embedding files that ``gw.load_graph`` and
``gw.load_embedding`` read, so tests can round-trip them.

Graph lines are "u v w" and embedding lines "v dim c1 ... cdim", with
1-based vertex ids and floats written exactly by ``repr``.
"""

from __future__ import annotations

from ptffool.gw import Embedding, Graph


def dump_graph(graph: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for u, v, w in graph.edges:
            fh.write(f"{u + 1} {v + 1} {float(w)!r}\n")


def dump_embedding(embedding: Embedding, path) -> None:
    d = embedding.dim
    with open(path, "w", encoding="ascii") as fh:
        for v in range(embedding.num_vertices):
            coords = " ".join(f"{float(c)!r}" for c in embedding.vectors[v])
            fh.write(f"{v + 1} {d} {coords}\n")
