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
rows and keep their flow state per call.  This module is the only caller
of ``bfs_tree`` and the only owner of its buffers, in
:func:`shortest_path_blocked` (a shortest path avoiding a ``bytearray`` of
blocked vertices, for the search's greedy): the kernel records its visits
in that mask and leaves it as it found it.  :meth:`Workspace.distance_row`
(cached full-graph distances) fills its rows from ``kernels.ball``, with
:data:`FAR` for every vertex the ball does not reach.  The
searches on the whole input graph need no workspace: the input-graph step
(``preprocess.detect_on_input``) and the CLI's pair sampling run
``kernels.bidir_path`` over a ``set`` of blocked vertices, which gives the
same paths as :func:`shortest_path_blocked`, and
``preprocess.reduce_instance`` takes its balls as dicts from
``kernels.ball`` too.

:func:`parse_graph` reads a text by one of three routes.  A canonical
text, whose every line is ``<digits> <digits>\n`` as :func:`format_graph`
writes it, is read in bulk: one pass over its separators and one integer
read.  Any other ASCII text is rewritten to canonical form and then read
in bulk the same way.  A text with a signed token or a non-ASCII
character, and one that breaks a rule, is read line by line, which
returns its values or names the first offending line.
The parse sorts its edges as 32-bit keys when ``n * n < 2**31`` (n <=
46340) and as 64-bit keys above.
numpy is loaded only when graph text is parsed or when an edge is removed
from parsed rows (and by :meth:`Workspace.distances_unmasked`, which
returns a numpy array), never at import: most of the package's import time
would otherwise be numpy's, and building, generating and solving a graph
from edges do not need it.
"""

from __future__ import annotations

import random
import re
from array import array
from bisect import bisect_left
from typing import (TYPE_CHECKING, Iterable, Iterator, Optional, Sequence,
                    Union)

from .kernels import ball, bfs_tree

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Graph",
    "Workspace",
    "GraphFormatError",
    "parse_graph",
    "load_graph",
    "format_graph",
    "random_gnp",
]

# The distance of an unreachable vertex: past any path length of a graph
# that fits in memory, and an int32 value.
FAR = 1 << 30


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

    def without_edge(self, u: int, v: int) -> "Graph":
        """The graph minus its edge {u, v}, in its layout, by bulk copies."""
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        a, b = sorted((u, v))
        adj = self.adj
        if isinstance(adj, _FlatRows):
            import numpy as np
            # both entries leave nbr, and the offsets past them move down
            nbr, off = adj.nbr[:], adj.off[:]
            del nbr[adj.off[b] + bisect_left(adj[b], a)]
            del nbr[adj.off[a] + bisect_left(adj[a], b)]
            shift = np.frombuffer(off, dtype=np.int64)
            shift[a + 1:] -= 1
            shift[b + 1:] -= 1
            adj = _FlatRows(nbr, off)
        else:
            rows = list(adj)
            rows[a] = tuple(w for w in adj[a] if w != b)
            rows[b] = tuple(w for w in adj[b] if w != a)
            adj = tuple(rows)
        g = Graph.__new__(Graph)
        g.n, g.m, g.adj = self.n, self.m - 1, adj
        return g

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
    """Per-run scratch buffers for the search's BFS and the greedy's mask.

    Single-owner state: one Workspace must not be shared across concurrent
    solves.  The search and its greedy build one; the root steps and the
    CLI search with kernels that take no buffers.  ``blocked`` is the
    greedy's working graph, which each greedy run zeroes first; a path
    search marks its visits there and clears them before it returns, so
    the mask is unchanged after each search and is the only state carried
    from one search to the next.  ``parent`` and ``queue`` are the
    kernel's scratch, read only within one search.  ``dist_cache``
    memoizes unmasked full-graph distance rows as plain lists, which the
    checkpoint-gap bounds and the candidate ordering index and add
    directly, an unreachable vertex reading :data:`FAR`.  The
    flows keep no state here: each call walks ``adj`` with its own
    per-vertex flow lists.
    """

    def __init__(self, g: Graph):
        n = g.n
        self.g = g
        self.parent = [-1] * n
        self.queue = [0] * n
        self.blocked = bytearray(n)
        self.dist_cache: dict[int, list[int]] = {}

    def distance_row(self, src: int) -> list[int]:
        """Cached full-graph BFS distances from ``src`` (:data:`FAR` =
        unreachable), as a list that callers index and must not modify."""
        row = self.dist_cache.get(src)
        if row is None:
            row = [FAR] * self.g.n
            for v, d in ball(self.g.adj, src, self.g.n).items():
                row[v] = d
            self.dist_cache[src] = row
        return row

    def distances_unmasked(self, src: int) -> np.ndarray:
        """:meth:`distance_row` as a new int32 array, for vectorized use
        (:data:`FAR` fits in int32)."""
        import numpy as np
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
                          ws: Workspace) -> Optional[tuple[int, ...]]:
    """Minimum-length a-b path avoiding the vertices with a nonzero
    ``blocked`` entry, or None if there is none.

    Deterministic: among equal-length routes the lexicographically smallest
    vertex sequence is returned (ascending-id BFS, parents fixed on first
    discovery).  ``blocked`` reads as before when the call returns.
    """
    queue = ws.queue
    count = bfs_tree(g.adj, blocked, a, b, ws.parent, queue)
    return _extract_path(ws.parent, a, b) if queue[count - 1] == b else None


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
_DIGITS = b"0123456789"
# A comment line after its line end, a run of spaces, and a line end
# followed by blank lines or by the next line's leading spaces.  Each
# pattern starts with a literal byte, which lets re skip ahead to it: a
# text with nothing to collapse is scanned over ten times as fast as with
# one pattern that starts with b" *".
_COMMENT_LINE = re.compile(rb"\n *#[^\n]*")
_SPACE_RUN = re.compile(rb"  +")
_BLANK_RUN = re.compile(rb"\n[ \n]+")
_TOKEN = re.compile(r"[+-]?[0-9]+")


def parse_graph(text: Union[str, bytes]) -> Graph:
    """Parse the plain edge-list format.

    Lines starting with '#' are comments.  The first data line is
    ``<n> <m>`` with 0 <= n, m <= 2**31 - 1 and n <= 2m + 2**20; exactly
    m lines ``<u> <v>`` follow with 1-based endpoints, u != v, duplicates
    rejected.  Tokens are signed ASCII decimal integers, lines end where
    ``str.splitlines`` ends them, and non-ASCII characters may appear only
    on comment lines.
    ``bytes`` are read as UTF-8; bytes that are not UTF-8 count as
    non-ASCII characters.

    A text takes one of three routes.  A canonical text, each line a
    digit run, ``b" "``, a digit run and ``b"\n"``, is read in bulk with
    numpy: one pass over its separators and one integer read.  Any other
    ASCII text is rewritten to canonical form first (whitespace, comment
    lines, blank lines, padding and the final ``b"\n"``) and then read
    the same way.  A text with a signed token or a non-ASCII character,
    and one that breaks a rule, is read line by line, which reports the
    first offending line.  ASCII ``bytes``, as :func:`load_graph` reads
    a file, are read as they are, and a ``str`` is encoded once.  The
    edges are sorted as keys ``u * n + v``: int32 keys when ``n * n <
    2**31`` (n <= 46340), int64 keys otherwise.  numpy is loaded only
    here and when an edge is removed from parsed rows.
    """
    import numpy as np
    n, key = _scan(text)
    # key = src * n + dst over both directions of every edge, sorted: the
    # rows come out grouped by source, each in ascending order, and one
    # division gives both (with n = 0 the key is empty, and dividing it by
    # 0 divides nothing)
    src = key // n
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=off[1:])
    nbr = (key - src * n).astype(np.int32, copy=False)
    g = Graph.__new__(Graph)
    g.n = n
    g.m = len(key) // 2
    g.adj = _FlatRows(array("i", nbr.tobytes()), array("q", off.tobytes()))
    return g


def _scan(text: Union[str, bytes]) -> tuple[int, np.ndarray]:
    """Read ``text`` and check every rule of the format.

    Returns (n, key), where ``key`` holds ``u * n + v`` in ascending order
    for both directions (u, v) and (v, u) of every edge, 0-based, as an
    int32 array when every key fits in one (n * n < 2**31) and as an int64
    array otherwise; raises GraphFormatError at the first line that
    breaks a rule.

    An ASCII text is read by :func:`_read_canonical`, as it is or else
    after :func:`_canonical_form`.  A text that reads neither way, and one
    whose values fail :func:`_checked_keys`, goes to :func:`_read_lines`.
    """
    import numpy as np
    if text.isascii():
        raw = text.encode("ascii") if isinstance(text, str) else text
        values = _read_canonical(raw)
        if values is None:
            values = _read_canonical(_canonical_form(raw))
        scanned = None if values is None else _checked_keys(values)
        if scanned is not None:
            return scanned
    if isinstance(text, bytes):
        text = text.decode("utf-8", "surrogateescape")
    scanned = _checked_keys(np.array(_read_lines(text), dtype=np.int64))
    if scanned is None:
        raise AssertionError("graph text read line by line but rejected "
                             "in bulk")
    return scanned


def _read_canonical(raw: bytes) -> Optional[np.ndarray]:
    """The tokens of ``raw`` as int64 values if it is canonical, else None.

    Canonical: every line a digit run, b" ", a digit run and b"\n", as
    :func:`format_graph` writes it.  Such a line holds at most two tokens,
    so a count of one token per separator proves two on every line; the
    count fails on an empty digit run.  The final b"\n" is needed: in
    b"4 1\n3 \n2" a one-token line and an unterminated last line make up
    each other's token count.
    """
    import numpy as np
    seps = raw.translate(None, _DIGITS)
    if not (raw.endswith(b"\n") and seps == b" \n" * (len(seps) // 2)):
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    return values if len(values) == len(seps) else None


def _canonical_form(raw: bytes) -> bytes:
    """ASCII ``raw`` with its whitespace rewritten, so that a text whose
    tokens are unsigned becomes canonical if it holds two tokens on every
    line or none: the other whitespace becomes b" " and b"\n", comment
    lines, blank lines and the spaces at both ends of a line go, a run of
    spaces becomes one, and the text ends in b"\n".  A '#' after a token
    is kept, and keeps the text from being canonical."""
    # b"\r\n" is one line end, and one bytes.replace spares _BLANK_RUN a
    # match on every line of a CRLF text.  The leading b"\n" puts one
    # before the first line too, and goes at the end
    raw = b"\n" + raw.replace(b"\r\n", b"\n").translate(_WHITESPACE) + b"\n"
    raw = _COMMENT_LINE.sub(b"\n", raw)
    raw = _SPACE_RUN.sub(b" ", raw).replace(b" \n", b"\n")
    return _BLANK_RUN.sub(b"\n", raw)[1:]


def _checked_keys(values: np.ndarray) -> Optional[tuple[int, np.ndarray]]:
    """(n, key) as :func:`_scan` returns it from the int64 ``values`` of
    a text, n, m and then the endpoints of each edge; or None if they
    break a rule of the header, the edge count, the endpoint range, the
    self-loops or the duplicates."""
    import numpy as np
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
        return n, np.zeros(0, dtype=np.int64)
    ends = values[2:]
    if ends.min() < 1 or ends.max() > n:
        return None
    ends -= 1
    u, v = ends[0::2], ends[1::2]
    if (u == v).any():
        return None
    # both directions, below n * n: as int32 up to n = 46340, which sorts
    # and divides in half the bytes, and as int64 above (n * n < 2**62).
    # A repeated edge gives two pairs of equal keys, which the sort makes
    # adjacent
    key = np.empty(2 * m, dtype=np.int32 if n * n < 2**31 else np.int64)
    np.multiply(u, n, out=key[:m])
    key[:m] += v
    np.multiply(v, n, out=key[m:])
    key[m:] += u
    key.sort()
    if (key[1:] == key[:-1]).any():
        return None
    return n, key


def _read_lines(text: str) -> list[int]:
    """The values of ``text``, n, m and then the endpoints of each edge,
    read one line at a time; raises GraphFormatError at the first line
    that breaks a rule of :func:`parse_graph`, in the order the rules
    apply to a line."""
    lines = text.splitlines()
    header: Optional[tuple[int, int]] = None
    seen: set[tuple[int, int]] = set()
    values: list[int] = []
    for line_no, line in enumerate(lines, start=1):
        if line.strip().startswith("#"):
            continue
        parts = line.split()
        if not parts and line.isascii():
            continue
        if (len(parts) != 2 or not line.isascii()
                or not all(map(_TOKEN.fullmatch, parts))):
            raise GraphFormatError("expected two integers", line_no)
        a, b = int(parts[0]), int(parts[1])
        values += (a, b)
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
    return values


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
