"""Immutable simple undirected graph, its per-run workspace, the text format
and the seeded G(n, p) generator.

Vertices are dense ``0..n-1`` internally; the text file format and the CLI
are 1-based.  Adjacency is a tuple of sorted neighbor tuples, which the BFS
kernel walks directly.  The graph itself is immutable and shareable; all
BFS scratch state lives in a per-run :class:`Workspace` so concurrent
solves on one graph never interfere.  The solver's two BFS queries are
:func:`shortest_path_blocked` (a shortest path avoiding a ``bytearray`` of
blocked vertices) and :meth:`Workspace.distances_unmasked`.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Iterable, Iterator, Optional

import numpy as np

from .flows import SplitDigraph
from .kernels import bfs_tree

__all__ = [
    "Graph",
    "Workspace",
    "GraphFormatError",
    "parse_graph",
    "load_graph",
    "format_graph",
    "random_gnp",
]


class GraphFormatError(ValueError):
    """Malformed graph text; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Simple, undirected, loopless graph over vertices ``0..n-1``.

    ``adj[v]`` is the tuple of ``v``'s neighbors, sorted ascending, which
    the BFS kernel relies on for determinism.
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        # rows share one int object per vertex id, which keeps large graphs
        # small in memory
        ids = list(range(n))
        rows: list = [[] for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u].append(ids[v])
            rows[v].append(ids[u])
            m += 1
        for u, row in enumerate(rows):
            row.sort()
            if len(set(row)) != len(row):
                v = next(a for a, b in zip(row, row[1:]) if a == b)
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] = tuple(row)  # frees each list as soon as it is copied
        self.n = n
        self.m = m
        self.adj = tuple(rows)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbor ids of ``v``."""
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges once, as (u, v) with u < v, in ascending order."""
        for u, row in enumerate(self.adj):
            for v in row:
                if u < v:
                    yield (u, v)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex id {v} out of range 0..{self.n - 1}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


class Workspace:
    """Per-run scratch buffers for BFS, mask composition and flows.

    Single-owner state: one Workspace must not be shared across concurrent
    solves.  ``dist_cache`` memoizes unmasked full-graph distance arrays
    (used by checkpoint-gap bounds and candidate ordering); they are int32
    numpy arrays so that callers can compare them vectorized.  The split
    digraph that trivial detection and the separator checks share is built
    on first use.
    """

    def __init__(self, g: Graph):
        n = g.n
        self.g = g
        self.dist = [-1] * n
        self.parent = [-1] * n
        self.queue = [0] * n
        self.blocked = bytearray(n)
        self.blocked_base = bytearray(n)
        self.dist_cache: dict[int, np.ndarray] = {}
        self.root_flow: Optional[int] = None  # memo for the unmasked s-t flow
        self._split: Optional[SplitDigraph] = None

    def split_digraph(self) -> SplitDigraph:
        """The graph's split digraph with no flow and no closed vertex:
        built on the first call, reset on each later one."""
        if self._split is None:
            self._split = SplitDigraph(self.g)
        else:
            self._split.reset()
        return self._split

    def distances_unmasked(self, src: int) -> np.ndarray:
        """Cached full-graph BFS distances from ``src`` (-1 = unreachable)."""
        hit = self.dist_cache.get(src)
        if hit is None:
            bfs_tree(self.g.adj, bytearray(self.g.n), src, -1, -1, -1,
                     self.dist, self.parent, self.queue)
            hit = np.array(self.dist, dtype=np.int32)
            self.dist_cache[src] = hit
        return hit


def _extract_path(parent: list[int], a: int, b: int) -> tuple[int, ...]:
    out = [b]
    v = b
    while v != a:
        v = parent[v]
        out.append(v)
    out.reverse()
    return tuple(out)


def shortest_path_blocked(g: Graph, blocked: bytearray, a: int, b: int,
                          ws: Workspace,
                          ban_edge: Optional[tuple[int, int]] = None,
                          ) -> Optional[tuple[int, ...]]:
    """Minimum-length a-b path avoiding the vertices with a nonzero
    ``blocked`` entry (and the edge ``ban_edge``, if given), or None if
    there is none.

    Deterministic: among equal-length routes the lexicographically smallest
    vertex sequence is returned (ascending-id BFS, parents fixed on first
    discovery).
    """
    if a == b:
        return (a,)
    bu, bv = ban_edge if ban_edge is not None else (-1, -1)
    bfs_tree(g.adj, blocked, a, b, bu, bv, ws.dist, ws.parent, ws.queue)
    if ws.dist[b] < 0:
        return None
    return _extract_path(ws.parent, a, b)


# ---------------------------------------------------------------------------
# text format and generation
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse the plain edge-list format.

    Lines starting with '#' are comments.  The first data line is
    ``<n> <m>``; exactly m lines ``<u> <v>`` follow with 1-based endpoints,
    u != v, duplicates rejected.
    """
    header: Optional[tuple[int, int]] = None
    edges: list[tuple[int, int]] = []
    n = 0
    m_expected = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError("expected two integers", line_no)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("expected two integers", line_no) from None
        if header is None:
            if a < 0 or b < 0:
                raise GraphFormatError("negative header values", line_no)
            header = (a, b)
            n, m_expected = a, b
            continue
        if len(edges) >= m_expected:
            raise GraphFormatError(
                f"more than the declared {m_expected} edges", line_no)
        if not (1 <= a <= n and 1 <= b <= n):
            raise GraphFormatError(f"endpoint out of range 1..{n}", line_no)
        if a == b:
            raise GraphFormatError("self-loop not allowed", line_no)
        edges.append((a - 1, b - 1))
    if header is None:
        raise GraphFormatError("missing '<n> <m>' header", 1)
    if len(edges) != m_expected:
        raise GraphFormatError(
            f"declared {m_expected} edges but found {len(edges)}",
            len(text.splitlines()) or 1)
    try:
        return Graph(n, edges)
    except ValueError:
        # every edge passed the range and self-loop checks above, so the
        # graph rejected a repeated edge
        _raise_repeated_edge(text)
        raise


def _raise_repeated_edge(text: str) -> None:
    """Raise GraphFormatError at the first edge line whose unordered pair
    appeared before.  ``text`` has passed every other check of
    :func:`parse_graph`."""
    seen: set[tuple[int, int]] = set()
    header = True
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header:
            header = False
            continue
        a, b = map(int, line.split())
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise GraphFormatError(f"duplicate edge {a} {b}", line_no)
        seen.add(key)


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def format_graph(g: Graph) -> str:
    """Serialize to the text format (1-based, deterministic edge order)."""
    lines = [f"{g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p): each unordered pair is an edge with probability p.

    Pairs are drawn in a fixed (u < v) order from ``random.Random(seed)``,
    so identical (n, p, seed) always yields the identical graph.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v)
             for u in range(n)
             for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)
