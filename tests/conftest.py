from __future__ import annotations

import pytest

from pathpack import Graph, PackingInstance, Workspace
from pathpack.flows import min_total_length_disjoint_paths, st_flow_value
from pathpack.greedy import run_greedy

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


def below_root(inst: PackingInstance):
    """The instance that ``solve`` hands the layers below it, and the paths
    it puts in front of their witness: (G - st, k - 1, ell) and ((s, t),)
    when st is an edge, else the instance itself and ().  With st an edge
    and k = 1, ``solve`` answers at once, and the instance is None."""
    g, s, t = inst.graph, inst.s, inst.t
    if not g.has_edge(s, t):
        return inst, ()
    if inst.k == 1:
        return None, ((s, t),)
    return (PackingInstance(g.without_edge(s, t), s, t, inst.k - 1, inst.ell),
            ((s, t),))


# The flows require non-adjacent terminals, as solve leaves them.  A test
# that compares a flow on G with a reference that counts a direct s-t edge
# runs the flow on G - st and adds the edge back: one unit more, and the
# path (s, t) among the paths, where a flow on G would decompose it (paths
# leave s in ascending order of their second vertex).

def flow_value(g: Graph, s: int, t: int, limit: int, closed=None) -> int:
    """``st_flow_value`` of G, through G - st when st is an edge."""
    if not g.has_edge(s, t):
        return st_flow_value(g, s, t, limit, closed)
    h = g.without_edge(s, t)
    return min(limit, 1 + st_flow_value(h, s, t, limit, closed))


def min_total_paths(g: Graph, s: int, t: int, k: int):
    """``min_total_length_disjoint_paths`` of G, through G - st and k - 1
    paths when st is an edge: a minimum packing always holds (s, t)."""
    if not g.has_edge(s, t):
        return min_total_length_disjoint_paths(g, s, t, k)
    rest = min_total_length_disjoint_paths(g.without_edge(s, t), s, t, k - 1)
    if rest is None:
        return None
    return tuple(sorted(((s, t),) + rest))


def greedy(ci, cfg):
    """``run_greedy`` with a fresh workspace."""
    return run_greedy(ci, cfg, Workspace(ci.base.graph))


@pytest.fixture(scope="session")
def gex() -> Graph:
    return Graph(11, [(u - 1, v - 1) for u, v in GEX_EDGES_1BASED])


@pytest.fixture(scope="session")
def gex_instance(gex) -> PackingInstance:
    return PackingInstance(gex, vid(1), vid(5), 2, 5)
