"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed always
yields the same edge lists, terminal pairs and instance lists.  Only the
public ``pathpack`` API is used, and only to pick terminal pairs by BFS
distance; the workloads rebuild their ``Graph`` objects from the edge lists
returned here, inside their timed set-up.
"""

from __future__ import annotations

import math
import random

import numpy as np

from pathpack import Graph, Workspace, random_gnp

Edges = list[tuple[int, int]]


def geometric_edges(n: int, radius: float, rng: random.Random) -> Edges:
    """Random geometric graph: n points in the unit square, an edge between
    every pair at Euclidean distance at most ``radius``."""
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    r2 = radius * radius
    return [(u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (pts[u][0] - pts[v][0]) ** 2 + (pts[u][1] - pts[v][1]) ** 2 <= r2]


def grid_edges(width: int, height: int, dropout: float,
               rng: random.Random) -> Edges:
    """A width x height grid; each edge is dropped with probability
    ``dropout``.  Vertex (x, y) has id y * width + x."""
    edges = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width and rng.random() >= dropout:
                edges.append((v, v + 1))
            if y + 1 < height and rng.random() >= dropout:
                edges.append((v, v + width))
    return edges


def pendant_chains(base: int, extra: int, max_len: int,
                   rng: random.Random) -> Edges:
    """Paths of 1..max_len new vertices, ``extra`` new vertices in all, with
    ids base, base+1, ...; each path hangs off a random vertex below
    ``base``."""
    edges = []
    nxt = base
    while nxt < base + extra:
        prev = rng.randrange(base)
        for _ in range(min(rng.randint(1, max_len), base + extra - nxt)):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges


def pick_pair(g: Graph, rng: random.Random, lo: int, hi: int,
              tries: int = 50) -> tuple[int, int, int] | None:
    """A seeded terminal pair (s, t, dist) with lo <= dist(s, t) <= hi: s is
    uniform, t uniform among the vertices in that distance band of s."""
    ws = Workspace(g)
    for _ in range(tries):
        s = rng.randrange(g.n)
        dist = ws.distances_unmasked(s)
        band = [int(v) for v in np.flatnonzero((dist >= lo) & (dist <= hi))]
        if band:
            t = rng.choice(band)
            return s, t, int(dist[t])
    return None


def _strata(lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    """``count`` sizes, one drawn uniformly from each of ``count`` equal
    slices of [lo, hi], so the mix of sizes barely moves between seeds."""
    step = (hi - lo) / count
    return [rng.randint(lo + round(i * step), lo + round((i + 1) * step) - 1)
            for i in range(count)]


# ---------------------------------------------------------------------------
# search-default: one candidate instance per id; scan.py keeps the ids whose
# default-config search tree is non-trivial and within a node cap
# ---------------------------------------------------------------------------

def search_candidate(cid: int) -> tuple[int, Edges, int, int, int, int]:
    """Candidate ``cid``: a random geometric graph (even ids) or a grid with
    10-30% edge dropout (odd ids), n in 100..200, terminals at distance
    2..10, k in 2..4 and ell = dist(s, t) + 0..3.
    Returns (n, edges, s, t, k, ell)."""
    rng = random.Random(cid)
    while True:
        if cid % 2 == 0:
            n = rng.randint(100, 200)
            radius = math.sqrt(rng.uniform(6.0, 9.0) / (n * math.pi))
            edges = geometric_edges(n, radius, rng)
        else:
            w, h = rng.randint(10, 14), rng.randint(10, 14)
            n = w * h
            edges = grid_edges(w, h, rng.uniform(0.1, 0.3), rng)
        pair = pick_pair(Graph(n, edges), rng, 2, 10)
        if pair is not None:
            break
    s, t, d = pair
    k = rng.randint(2, 4)
    ell = d + rng.randint(0, 3)
    return n, edges, s, t, k, ell


def sample_pool(pool: list[dict], count: int, seed: int) -> list[dict]:
    """``count`` pool entries: the pool, ordered by the solve time recorded
    when it was scanned, is cut into ``count`` equal slices and one entry is
    drawn from each, so every seed gets nearly the same spread of op times
    (ranking by node count alone leaves p90 to one or two draws).  Returned
    cheapest stratum first."""
    rng = random.Random(seed)
    ranked = sorted(pool, key=lambda e: (e["ms"], e["cid"]))
    step = len(ranked) / count
    return [rng.choice(ranked[round(i * step):round((i + 1) * step)])
            for i in range(count)]


# ---------------------------------------------------------------------------
# root-batch: a bench-style sweep over G(n, p) graphs
# ---------------------------------------------------------------------------

ROOT_GRAPHS = 6
ROOT_PAIRS = 2
ROOT_K = range(2, 8)
ROOT_ELL = range(6, 11)


def root_batch(seed: int) -> tuple[list[tuple[int, Edges]],
                                   list[tuple[int, int, int, int, int]]]:
    """ROOT_GRAPHS G(n, p) graphs with n in 200..400 and average degree
    about 8, ROOT_PAIRS terminal pairs at distance 2..10 per graph, and
    every (k, ell) in ROOT_K x ROOT_ELL per pair.
    Returns (graphs as (n, edges), instances as (graph index, s, t, k, ell))."""
    rng = random.Random(seed)
    graphs = []
    instances = []
    for gi, n in enumerate(_strata(200, 400, ROOT_GRAPHS, rng)):
        g = random_gnp(n, 8.0 / (n - 1), rng.randrange(1 << 30))
        graphs.append((n, list(g.edges())))
        for _ in range(ROOT_PAIRS):
            pair = pick_pair(g, rng, 2, 10)
            if pair is None:
                continue
            s, t, _ = pair
            instances.extend((gi, s, t, k, ell)
                             for k in ROOT_K for ell in ROOT_ELL)
    return graphs, instances


# ---------------------------------------------------------------------------
# pipeline-large: CLI solves on big sparse files
# ---------------------------------------------------------------------------

LARGE_SIZES = (10000, 15000, 20000)
LARGE_DROPOUT = 0.2
LARGE_QUERIES = 9


def large_graph(n_total: int, rng: random.Random) -> tuple[int, Edges]:
    """A square grid with LARGE_DROPOUT edge dropout holding about 90% of
    ``n_total`` vertices, plus pendant chains of 1..12 vertices hung off
    grid vertices for the rest.  Returns (n, edges)."""
    side = math.isqrt(int(n_total * 0.9))
    edges = grid_edges(side, side, LARGE_DROPOUT, rng)
    edges += pendant_chains(side * side, n_total - side * side, 12, rng)
    return n_total, edges


def large_queries(g: Graph, rng: random.Random) -> list[tuple[int, int, int, int]]:
    """LARGE_QUERIES (s, t, k, ell) queries cycling over three kinds, all
    with terminals at distance 2..10: a single path (k = 1, ell = d..d+2);
    more paths than the smaller terminal degree (a separator refutes it);
    and two paths with a wide bound (ell 30..60), so that reduction keeps
    a large region and the degree-1 peeling runs many rounds.  None of the
    three needs the search, which this workload is not about."""
    out = []
    while len(out) < LARGE_QUERIES:
        pair = pick_pair(g, rng, 2, 10)
        if pair is None:
            continue
        s, t, d = pair
        kind = len(out) % 3
        if kind == 0:
            out.append((s, t, 1, d + rng.randint(0, 2)))
        elif kind == 1:
            k = max(2, min(g.degree(s), g.degree(t)) + 1)
            out.append((s, t, k, d + rng.randint(0, 3)))
        else:
            out.append((s, t, 2, rng.randint(30, 60)))
    return out


def pipeline_large(seed: int) -> list[tuple[int, Edges, list[tuple[int, int, int, int]]]]:
    """One graph per size in LARGE_SIZES, each with its LARGE_QUERIES
    queries.  The sizes are fixed so that the seed moves the structure and
    the queries, not the amount of parsing.  Returns (n, edges, queries)
    per file."""
    rng = random.Random(seed)
    out = []
    for n_total in LARGE_SIZES:
        n, edges = large_graph(n_total, rng)
        out.append((n, edges, large_queries(Graph(n, edges), rng)))
    return out
