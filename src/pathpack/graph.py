"""Immutable simple undirected graph, its per-run workspace, the text format
and the seeded G(n, p) generator.

Vertices are dense ``0..n-1`` internally; the text file format and the CLI
are 1-based.  ``adj[v]`` is the sorted row of ``v``'s neighbors, which the
BFS kernel walks directly, in one of two layouts: a graph built from edges
or rows holds a tuple of tuples, and a parsed graph holds a
:class:`_FlatRows` view of one flat neighbor buffer, so that a file the
reduction mostly throws away never gets a Python row per vertex.  Every
reader goes through ``adj[v]``, ``len(adj)`` and iteration, which both
layouts serve alike.  The graph itself is immutable and shareable; all
BFS scratch state lives in a per-run :class:`Workspace` so concurrent
solves on one graph never interfere; the flows of ``flows`` walk the same
rows and keep their flow state per call.  The solver runs the kernel in three
places: :func:`shortest_path_blocked` (a shortest path avoiding a
``bytearray`` of blocked vertices, optionally no longer than a given
depth), :meth:`Workspace.distance_row`
(cached full-graph distances) and ``preprocess.reduce_instance`` (a
search from s stopped at distance floor(ell/2), then one from t stopped
there too when that shows dist(s, t) + floor(ell/2) <= ell, else one from
each terminal stopped at ell; all through ``graph.bfs_tree``).

:func:`parse_graph` checks the whole text with numpy in one pass; only a
text that breaks a rule is read again line by line, to name the line.
"""

from __future__ import annotations

import random
import re
from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, NoReturn, Optional, Sequence, Union

import numpy as np

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

    ``adj[v]`` is the sequence of ``v``'s neighbors, sorted ascending, which
    the BFS kernel relies on for determinism: a tuple for a graph built by
    the constructor or :meth:`from_sorted_rows`, a slice of one flat
    ``array("i")`` for a parsed one (see :class:`_FlatRows`).
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = list(edges)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
        # the rows share one int object per vertex id, which keeps large
        # graphs small in memory
        ids = list(range(n))
        rows: list = [[] for _ in range(n)]
        for u, v in edges:
            rows[u].append(ids[v])
            rows[v].append(ids[u])
        for u, row in enumerate(rows):
            row.sort()
            if len(set(row)) != len(row):
                v = next(a for a, b in zip(row, row[1:]) if a == b)
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] = tuple(row)  # frees each list as soon as it is copied
        self.n = n
        self.m = len(edges)
        self.adj = tuple(rows)

    @classmethod
    def from_sorted_rows(cls, rows: Iterable[tuple[int, ...]]) -> "Graph":
        """The graph whose adjacency is the tuple of ``rows``, taken as
        given: sorted, symmetric, loopless and free of repeats, as a
        monotone relabelling of another graph's rows is."""
        g = cls.__new__(cls)
        g.adj = tuple(rows)
        g.n = len(g.adj)
        g.m = sum(map(len, g.adj)) // 2
        return g

    def neighbors(self, v: int) -> Sequence[int]:
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


class _FlatRows:
    """The adjacency of a parsed graph: row ``v`` is the sorted slice
    ``nbr[off[v]:off[v + 1]]`` of one flat ``array("i")`` of neighbor ids,
    with the ``n + 1`` offsets in an ``array("q")``.  A row is built only
    when it is read, and holds plain ints."""

    __slots__ = ("nbr", "off")

    def __init__(self, nbr: array, off: array):
        self.nbr = nbr
        self.off = off

    def __getitem__(self, v: int) -> array:
        off = self.off
        return self.nbr[off[v]:off[v + 1]]

    def __len__(self) -> int:
        return len(self.off) - 1

    def __iter__(self) -> Iterator[array]:
        return map(self.__getitem__, range(len(self)))


class Workspace:
    """Per-run scratch buffers for BFS and mask composition.

    Single-owner state: one Workspace must not be shared across concurrent
    solves.  ``dist`` reads -1 at every vertex between calls, as the kernel
    requires; each search clears only the entries it set.  ``dist_cache``
    memoizes unmasked full-graph distance rows as plain lists, which the
    checkpoint-gap bounds and the candidate ordering index directly.
    ``blocked_base`` is also the closed mask of the greedy separator check.
    The flows keep no state here: each call walks ``adj`` with its own
    per-vertex flow lists.
    """

    def __init__(self, g: Graph):
        n = g.n
        self.g = g
        self.dist = [-1] * n
        self.parent = [-1] * n
        self.queue = [0] * n
        self.blocked = bytearray(n)
        self.blocked_base = bytearray(n)
        self.dist_cache: dict[int, list[int]] = {}

    def distance_row(self, src: int) -> list[int]:
        """Cached full-graph BFS distances from ``src`` (-1 = unreachable),
        as a list that callers index and must not modify."""
        row = self.dist_cache.get(src)
        if row is None:
            row = [-1] * self.g.n
            bfs_tree(self.g.adj, bytearray(self.g.n), src, -1, -1, -1,
                     row, self.parent, self.queue)
            self.dist_cache[src] = row
        return row

    def distances_unmasked(self, src: int) -> np.ndarray:
        """:meth:`distance_row` as a new int32 array, for vectorized use."""
        return np.array(self.distance_row(src), dtype=np.int32)


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
                          depth: int = -1,
                          ) -> Optional[tuple[int, ...]]:
    """Minimum-length a-b path avoiding the vertices with a nonzero
    ``blocked`` entry (and the edge ``ban_edge``, if given), or None if
    there is none.  A non-negative ``depth`` is the kernel's: the search
    stops there, so a path longer than ``depth`` reads as none.

    Deterministic: among equal-length routes the lexicographically smallest
    vertex sequence is returned (ascending-id BFS, parents fixed on first
    discovery).
    """
    if a == b:
        return (a,)
    bu, bv = ban_edge if ban_edge is not None else (-1, -1)
    dist, queue = ws.dist, ws.queue
    count = bfs_tree(g.adj, blocked, a, b, bu, bv, dist, ws.parent, queue,
                     depth)
    found = dist[b] >= 0
    # the next call needs dist at -1 again: clear only what this one set
    for v in queue[:count]:
        dist[v] = -1
    return _extract_path(ws.parent, a, b) if found else None


# ---------------------------------------------------------------------------
# text format and generation
# ---------------------------------------------------------------------------

# Largest header value: n and m must fit in 32 bits.
_MAX_HEADER = 2**31 - 1
# At most 2m vertices touch an edge, and a header may declare at most this
# many more, so that a short file cannot make the parser allocate rows for
# billions of isolated vertices.
_MAX_ISOLATED = 2**20
# The ASCII characters that str.splitlines treats as line breaks become
# b"\n", and the other ASCII whitespace of str.split becomes b" ".
_WHITESPACE = bytes.maketrans(b"\r\x0b\x0c\x1c\x1d\x1e\t\x1f",
                              b"\n\n\n\n\n\n  ")
_TOKEN = re.compile(r"[+-]?[0-9]+")


def parse_graph(text: Union[str, bytes]) -> Graph:
    """Parse the plain edge-list format.

    Lines starting with '#' are comments.  The first data line is
    ``<n> <m>`` with 0 <= n, m <= 2**31 - 1 and n <= 2m + 2**20; exactly
    m lines ``<u> <v>`` follow with 1-based endpoints, u != v, duplicates
    rejected.  Tokens are signed ASCII decimal integers, lines end where
    ``str.splitlines`` ends them, and non-ASCII characters may appear only
    on comment lines.
    ``bytes`` are decoded as UTF-8; bytes that are not UTF-8 count as
    non-ASCII characters.

    The whole text is checked in bulk; only a text that breaks a rule is
    read again line by line, to report the first offending line.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", "surrogateescape")
    scanned = _scan(text)
    if scanned is None:
        _raise_first_error(text)
    n, heads, tails = scanned
    # both directions of every edge, grouped by source by a stable sort.
    # The edges come in ascending (head, tail) order with head < tail, so
    # every row comes out sorted: row v gets its smaller neighbors (edges
    # (w, v), from the first half) before its larger ones (edges (v, w)),
    # each in ascending order
    src = np.concatenate((tails, heads))
    dst = np.concatenate((heads, tails))
    nbr = array("i", dst[np.argsort(src, kind="stable")].tobytes())
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=off[1:])
    g = Graph.__new__(Graph)
    g.n = n
    g.m = len(heads)
    g.adj = _FlatRows(nbr, array("q", off.tobytes()))
    return g


def _scan(text: str) -> Optional[tuple[int, np.ndarray, np.ndarray]]:
    """Check every rule of the format on the whole of ``text`` at once.

    Returns (n, heads, tails), the 0-based endpoints (head < tail) of the
    edges in ascending order as int32 arrays, or None if a rule fails.
    """
    if not text.isascii():
        lines = text.splitlines()
        if not all(line.isascii() or _is_comment(line) for line in lines):
            return None
        text = "\n".join(line if line.isascii() else "#" for line in lines)
    raw = text.encode("ascii").translate(_WHITESPACE)
    if b"#" in raw:
        raw = _drop_comment_lines(raw)
    if raw.translate(None, b"0123456789+- \n"):
        return None
    # framed so that every token has a byte before and after it, and every
    # line, the first too, starts right after a b"\n"
    b = np.frombuffer(b"\n" + raw + b" ", dtype=np.uint8)
    in_token = b > 32              # digits and signs; ' ' is 32, '\n' 10
    starts = np.flatnonzero(in_token[1:] > in_token[:-1]) + 1
    tokens = len(starts)
    if tokens < 2:
        return None
    # the number of tokens before each newline: its differences are the
    # token counts of the lines, from arrays with one entry per token or
    # per line rather than per byte
    per_line = np.diff(np.searchsorted(starts, np.flatnonzero(b == 10)),
                       append=tokens)
    # two tokens per line, or none
    if ((per_line != 0) & (per_line != 2)).any():
        return None
    if b"+" in raw or b"-" in raw:
        # a sign must start its token and be followed by a digit
        signs = np.flatnonzero((b == 43) | (b == 45))
        if in_token[signs - 1].any() or (b[signs + 1] < 48).any():
            return None
    # free the arrays with one entry per byte or token before fromstring
    # allocates its own; that lowers a parse's peak memory by about 1.4 MB
    # on a 20k-vertex file
    del b, in_token, starts, per_line
    try:
        values = np.fromstring(raw, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    if len(values) != tokens:
        return None
    # fromstring saturates an overflowing token to an extreme int64 value,
    # which the range checks below reject
    n, m = int(values[0]), int(values[1])
    if not (0 <= n <= _MAX_HEADER and 0 <= m <= _MAX_HEADER):
        return None
    if n > 2 * m + _MAX_ISOLATED:
        return None
    if len(values) != 2 + 2 * m:
        return None
    if m == 0:
        return n, np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)
    # elementwise over the two column views: a reduction along axis 1 of
    # the (m, 2) endpoint array costs about forty times as much
    low = np.minimum(values[2::2], values[3::2])
    high = np.maximum(values[2::2], values[3::2])
    del values
    if low.min() < 1 or high.max() > n or (low == high).any():
        return None
    key = (low - 1) * n + (high - 1)   # below 2**62, since n < 2**31
    key.sort()
    if (key[1:] == key[:-1]).any():
        return None
    heads, tails = np.divmod(key, n)
    return n, heads.astype(np.int32), tails.astype(np.int32)


def _is_comment(line: str) -> bool:
    return line.strip().startswith("#")


def _drop_comment_lines(raw: bytes) -> bytes:
    """``raw`` (only b"\\n" and b" " as whitespace) without its comment
    lines.  A '#' after a token is kept, and fails the character check."""
    pieces = []
    done = 0
    pos = raw.find(b"#")
    while pos >= 0:
        start = raw.rfind(b"\n", 0, pos) + 1
        end = raw.find(b"\n", pos)
        if end < 0:
            end = len(raw)
        if not raw[start:pos].strip(b" "):
            pieces.append(raw[done:start])
            done = end
        pos = raw.find(b"#", end)
    pieces.append(raw[done:])
    return b"".join(pieces)


def _raise_first_error(text: str) -> NoReturn:
    """Raise GraphFormatError at the first line of ``text`` that breaks a
    rule of :func:`parse_graph`, in the order the rules apply to a line."""
    lines = text.splitlines()
    header: Optional[tuple[int, int]] = None
    seen: set[tuple[int, int]] = set()
    for line_no, line in enumerate(lines, start=1):
        if _is_comment(line):
            continue
        parts = line.split()
        if not parts and line.isascii():
            continue
        if (len(parts) != 2 or not line.isascii()
                or not all(map(_TOKEN.fullmatch, parts))):
            raise GraphFormatError("expected two integers", line_no)
        a, b = int(parts[0]), int(parts[1])
        if header is None:
            if a < 0 or b < 0:
                raise GraphFormatError("negative header values", line_no)
            if a > _MAX_HEADER or b > _MAX_HEADER:
                raise GraphFormatError(
                    f"header values above {_MAX_HEADER}", line_no)
            if a > 2 * b + _MAX_ISOLATED:
                raise GraphFormatError(
                    f"vertex count above 2m + {_MAX_ISOLATED}", line_no)
            header = (a, b)
            continue
        n, m = header
        if len(seen) >= m:
            raise GraphFormatError(f"more than the declared {m} edges",
                                   line_no)
        if not (1 <= a <= n and 1 <= b <= n):
            raise GraphFormatError(f"endpoint out of range 1..{n}", line_no)
        if a == b:
            raise GraphFormatError("self-loop not allowed", line_no)
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise GraphFormatError(f"duplicate edge {a} {b}", line_no)
        seen.add(key)
    if header is None:
        raise GraphFormatError("missing '<n> <m>' header", 1)
    if len(seen) != header[1]:
        raise GraphFormatError(
            f"declared {header[1]} edges but found {len(seen)}",
            len(lines) or 1)
    raise AssertionError("graph text rejected in bulk but not line by line")


def load_graph(path) -> Graph:
    """Parse the graph file at ``path``; see :func:`parse_graph`."""
    with open(path, "rb") as fh:
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
