from __future__ import annotations

import pytest

from pathpack import Graph, PackingInstance

# Walkthrough fixture graph on eleven vertices: a short middle route from
# vertex 1 to vertex 5, an upper detour through 6-7-8 rejoining at 4, and a
# lower detour through 9-10-11 rejoining at 5.  Labels here are 1-based, ids
# 0-based (label i = id i-1).
GEX_EDGES_1BASED = [
    (1, 2), (2, 3), (3, 4), (4, 5),
    (1, 6), (6, 7), (7, 8), (8, 4),
    (2, 9), (9, 10), (10, 11), (11, 5),
]


def vid(label: int) -> int:
    """1-based vertex label to 0-based id."""
    return label - 1


def vids(*labels: int) -> tuple[int, ...]:
    return tuple(label - 1 for label in labels)


def grid_graph(rows: int, cols: int, dropout: float, rng) -> Graph:
    """A rows x cols grid, vertex (r, c) = r * cols + c, each edge dropped
    with probability ``dropout``."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols and rng.random() >= dropout:
                edges.append((v, v + 1))
            if r + 1 < rows and rng.random() >= dropout:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


@pytest.fixture(scope="session")
def gex() -> Graph:
    return Graph(11, [(u - 1, v - 1) for u, v in GEX_EDGES_1BASED])


@pytest.fixture(scope="session")
def gex_instance(gex) -> PackingInstance:
    return PackingInstance(gex, vid(1), vid(5), 2, 5)
