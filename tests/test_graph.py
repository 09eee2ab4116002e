import random

import pytest

from pathpack import (Graph, GraphFormatError, Workspace, format_graph,
                      parse_graph, random_gnp)
from pathpack.graph import _FlatRows, shortest_path_blocked
from pathpack.oracle import enumerate_bounded_paths

from conftest import vid, vids


def _blocked(n, removed=()):
    blocked = bytearray(n)
    for v in removed:
        blocked[v] = 1
    return blocked


def _shortest_path(g, a, b, removed=()):
    return shortest_path_blocked(g, _blocked(g.n, removed), a, b,
                                 Workspace(g))


def _ball(g, src, r):
    """Distance of every vertex within ``r`` of ``src``, read from the
    unmasked distance array."""
    dist = Workspace(g).distances_unmasked(src)
    return {v: int(dist[v]) for v in range(g.n) if 0 <= dist[v] <= r}


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_adjacency_is_symmetric_sorted_and_deduplicated(gex):
    for u in range(gex.n):
        row = list(gex.neighbors(u))
        assert row == sorted(row)
        assert len(row) == len(set(row))
        for v in row:
            assert u in gex.neighbors(v)
            assert u != v
    assert sum(gex.degree(v) for v in range(gex.n)) == 2 * gex.m


def test_rejects_self_loops_duplicates_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


@pytest.mark.parametrize("seed", range(8))
def test_without_edge_keeps_the_layout_and_drops_only_that_edge(seed):
    """Removing an edge from a parsed graph keeps its flat rows, and from
    a built graph its tuple rows; either way every row is the parent's
    row minus the edge, and m drops by one."""
    rng = random.Random(seed + 700)
    built = random_gnp(rng.randrange(2, 30), 0.3, seed + 700)
    edges = list(built.edges())
    if not edges:
        built = Graph(2, [(0, 1)])
        edges = [(0, 1)]
    parsed = parse_graph(format_graph(built))
    u, v = rng.choice(edges)
    assert isinstance(parsed.adj, _FlatRows)
    for g in (built, parsed):
        h = g.without_edge(*rng.sample((u, v), 2))
        assert type(h.adj) is type(g.adj)
        assert h.n == g.n and h.m == g.m - 1
        want = [[w for w in g.adj[x] if {x, w} != {u, v}]
                for x in range(g.n)]
        assert [list(row) for row in h.adj] == want
        assert not h.has_edge(u, v) and g.has_edge(u, v)
    with pytest.raises(ValueError):
        built.without_edge(u, v).without_edge(u, v)


# ---------------------------------------------------------------------------
# shortest_path_blocked / distances_unmasked
# ---------------------------------------------------------------------------

def test_shortest_path_direct_edge_dominates():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert _shortest_path(g, 0, 2) == (0, 2)


def test_shortest_path_on_fixture(gex):
    assert _shortest_path(gex, vid(1), vid(5)) == vids(1, 2, 3, 4, 5)


def test_shortest_path_masked_disconnects(gex):
    assert _shortest_path(gex, vid(1), vid(5), vids(2, 3, 4)) is None


def test_shortest_path_same_vertex(gex):
    assert _shortest_path(gex, 3, 3) == (3,)


def test_shortest_path_deterministic(gex):
    first = _shortest_path(gex, vid(1), vid(5))
    for _ in range(5):
        assert _shortest_path(gex, vid(1), vid(5)) == first


def test_distances_radius_two_fixture(gex):
    assert _ball(gex, vid(1), 2) == {vid(1): 0, vid(2): 1, vid(6): 1,
                                     vid(3): 2, vid(7): 2, vid(9): 2}


def test_distances_radius_zero(gex):
    assert _ball(gex, vid(4), 0) == {vid(4): 0}


def test_distances_path_graph_unbounded():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert Workspace(g).distances_unmasked(0).tolist() == [0, 1, 2, 3]


def test_neighborhood_fixture(gex):
    assert set(_ball(gex, vid(1), 2)) == set(vids(1, 2, 6, 3, 7, 9))
    assert set(_ball(gex, vid(5), 2)) == set(vids(5, 4, 11, 3, 8, 10))


def test_neighborhood_zero_and_monotone(gex):
    assert set(_ball(gex, vid(3), 0)) == {vid(3)}
    for r in range(5):
        assert set(_ball(gex, vid(1), r)) <= set(_ball(gex, vid(1), r + 1))


def test_masked_view_excludes_removed_everywhere(gex):
    blocked = _blocked(gex.n, [vid(2)])
    ws = Workspace(gex)
    assert shortest_path_blocked(gex, blocked, vid(1), vid(2), ws) is None
    path = shortest_path_blocked(gex, blocked, vid(1), vid(5), ws)
    assert vid(2) not in path
    assert blocked == _blocked(gex.n, [vid(2)])


# ---------------------------------------------------------------------------
# oracle cross-check on random masked graphs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_shortest_path_matches_exhaustive_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 13)
    g = random_gnp(n, rng.choice([0.2, 0.4]), seed)
    removed = set(rng.sample(range(n), rng.randrange(0, n - 2)))
    alive = [v for v in range(n) if v not in removed]
    a, b = rng.sample(alive, 2) if len(alive) >= 2 else (alive[0], alive[0])
    sub = Graph(n, [(u, v) for u, v in g.edges()
                    if u not in removed and v not in removed])
    best = None
    if a != b:
        cands = enumerate_bounded_paths(sub, a, b, n)
        best = min((len(p) - 1 for p in cands), default=None)
    got = _shortest_path(g, a, b, removed)
    if best is None and a != b:
        assert got is None
    elif a != b:
        assert got is not None and len(got) - 1 == best
        assert not (set(got) & removed)


@pytest.mark.parametrize("seed", range(10))
def test_reused_workspace_matches_fresh_workspaces(seed):
    """Consecutive searches on one Workspace, with different masks and
    endpoints, return what a fresh Workspace returns for each, and leave
    the caller's mask as it was before the search."""
    rng = random.Random(seed + 500)
    n = rng.randrange(6, 40)
    g = random_gnp(n, rng.choice([0.08, 0.15, 0.3]), seed + 500)
    ws = Workspace(g)
    found = 0
    for _ in range(60):
        blocked = _blocked(n, rng.sample(range(n), rng.randrange(0, n // 3)))
        a, b = rng.randrange(n), rng.randrange(n)
        blocked[a] = blocked[b] = 0
        if rng.random() < 0.2:
            ws.distance_row(rng.randrange(n))  # interleaved cached rows
        mask = bytes(blocked)
        got = shortest_path_blocked(g, blocked, a, b, ws)
        assert blocked == mask
        assert got == shortest_path_blocked(g, blocked, a, b, Workspace(g))
        found += got is not None
    assert found > 0


def test_distance_row_and_array_agree(gex):
    ws = Workspace(gex)
    row = ws.distance_row(vid(1))
    assert row == [0, 1, 2, 3, 4, 1, 2, 3, 2, 3, 4]
    assert ws.distance_row(vid(1)) is row  # cached
    arr = ws.distances_unmasked(vid(1))
    assert str(arr.dtype) == "int32" and arr.tolist() == row
    arr[0] = 99  # a fresh array each call: the cached row is untouched
    assert ws.distance_row(vid(1))[0] == 0
    assert ws.distances_unmasked(vid(1))[0] == 0


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_parse_and_format_round_trip(gex):
    text = format_graph(gex)
    again = parse_graph(text)
    assert again.n == gex.n and again.m == gex.m
    assert list(again.edges()) == list(gex.edges())


def test_parse_accepts_comments_and_blanks():
    g = parse_graph("# hello\n\n3 2\n1 2\n# mid\n2 3\n")
    assert g.n == 3 and g.m == 2


@pytest.mark.parametrize("text,line", [
    ("3 2\n1 2\n2 2\n", 3),          # self-loop
    ("3 2\n1 2\n1 2\n", 3),          # duplicate
    ("3 2\n1 2\n2 1\n", 3),          # reversed duplicate
    ("# c\n3 3\n1 2\n\n# x\n2 3\n3 2\n", 7),  # after comments and blanks
    ("3 2\n1 4\n2 3\n", 2),          # out of range
    ("3 2\n1 2\nx y\n", 3),          # not integers
    ("3 1\n1 2\n2 3\n", 3),          # too many edges
])
def test_parse_errors_carry_line_number(text, line):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.line_no == line


def test_parse_missing_edges_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("3 2\n1 2\n")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_random_gnp_extremes_and_determinism():
    assert random_gnp(5, 0.0, 1).m == 0
    assert random_gnp(4, 1.0, 9).m == 6
    a = random_gnp(20, 0.2, 42)
    b = random_gnp(20, 0.2, 42)
    assert list(a.edges()) == list(b.edges())
    assert format_graph(a) == format_graph(b)
