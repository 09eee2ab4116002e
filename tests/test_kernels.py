import collections
import random

import networkx as nx
import pytest

from pathpack import Graph, Workspace, random_gnp
from pathpack.graph import format_graph, parse_graph, shortest_path_blocked
from pathpack.kernels import ball, bfs_tree, bidir_path
from pathpack.oracle import enumerate_bounded_paths


def _buffers(n):
    """Fresh kernel buffers: ``dist`` must read -1 on entry, and ``parent``
    starts at -1 so that the tests can see which entries the kernel set."""
    return [-1] * n, [-1] * n, [0] * n


def _run(g, blocked, src, target=-1):
    dist, parent, queue = _buffers(g.n)
    count = bfs_tree(g.adj, blocked, src, target, dist, parent, queue)
    return count, dist, parent, queue


def _chain(parent, a, b):
    out = [b]
    while out[-1] != a:
        out.append(parent[out[-1]])
    return out[::-1]


@pytest.mark.parametrize("seed", range(25))
def test_backends_agree_full_bfs(seed):
    """The kernel against networkx on the unblocked induced subgraph, plus
    the first-discovery parent rule checked from the queue order."""
    rng = random.Random(seed)
    n = rng.randrange(2, 16)
    g = random_gnp(n, rng.choice([0.1, 0.3, 0.6]), seed)
    blocked = bytearray(n)
    for v in rng.sample(range(n), rng.randrange(0, n // 2 + 1)):
        blocked[v] = 1
    src = rng.randrange(n)
    blocked[src] = 0
    count, dist, parent, queue = _run(g, blocked, src)

    ref = nx.Graph()
    ref.add_nodes_from(v for v in range(n) if not blocked[v])
    ref.add_edges_from((u, v) for u, v in g.edges()
                       if not blocked[u] and not blocked[v])
    want = nx.single_source_shortest_path_length(ref, src)
    assert dist == [want.get(v, -1) for v in range(n)]

    order = queue[:count]
    assert sorted(order) == sorted(want)
    assert [dist[v] for v in order] == sorted(dist[v] for v in order)
    position = {v: i for i, v in enumerate(order)}
    assert parent[src] == -1
    for v in order[1:]:
        earlier = [u for u in g.neighbors(v)
                   if u in position and dist[u] == dist[v] - 1]
        assert parent[v] == min(earlier, key=position.__getitem__)
    for v in range(n):
        if v not in position:
            assert parent[v] == -1


@pytest.mark.parametrize("parsed", [False, True])
@pytest.mark.parametrize("seed", range(25))
def test_blocked_source_searches_as_if_open(seed, parsed):
    """``src`` is enqueued without reading its mask entry, so a search from
    a blocked source sets the same count, ``dist``, ``parent`` and queue
    order as from the same source unblocked, on tuple rows and on a parsed
    graph's flat rows; the greedy searches from blocked sources."""
    rng = random.Random(seed + 400)
    n = rng.randrange(2, 16)
    g = random_gnp(n, rng.choice([0.1, 0.3, 0.6]), seed + 400)
    if parsed:
        g = parse_graph(format_graph(g))
        assert type(g.adj) is not tuple
    blocked = bytearray(n)
    for v in rng.sample(range(n), rng.randrange(0, n // 2 + 1)):
        blocked[v] = 1
    src = rng.randrange(n)
    for target in (-1, rng.randrange(n)):
        runs = []
        for mark in (0, 1):
            blocked[src] = mark
            count, dist, parent, queue = _run(g, blocked, src, target)
            runs.append((count, dist, parent, queue[:count]))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", range(25))
def test_backends_agree_target_paths(seed):
    """The route to the target is the lexicographically smallest shortest
    path, as enumerated by the brute-force oracle."""
    rng = random.Random(seed + 100)
    n = rng.randrange(2, 16)
    g = random_gnp(n, 0.3, seed + 100)
    src, target = rng.randrange(n), rng.randrange(n)
    _, dist, parent, _ = _run(g, bytearray(n), src, target=target)
    ref = nx.Graph(list(g.edges()))
    ref.add_nodes_from(range(n))
    if not nx.has_path(ref, src, target):
        assert dist[target] == -1
        return
    length = nx.shortest_path_length(ref, src, target)
    assert dist[target] == length
    if src == target:
        assert parent[target] == -1
        return
    want = min(enumerate_bounded_paths(g, src, target, length))
    assert tuple(_chain(parent, src, target)) == want


def test_blocked_vertices_unreachable():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    blocked = bytearray(4)
    blocked[3] = 1
    _, dist, _, _ = _run(g, blocked, 0)
    assert dist[3] == -1 and dist[2] == 2


def test_parent_is_first_discovery_lexicographic():
    # two equal-length routes 0-1-3 and 0-2-3: parent of 3 must be 1
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    _, _, parent, _ = _run(g, bytearray(4), 0)
    assert parent[3] == 1


@pytest.mark.parametrize("seed", range(20))
def test_depth_bound_reaches_exactly_the_ball(seed):
    """``ball`` returns the distance of every vertex within ``depth`` of the
    source and of no other, as networkx's cutoff search does, on tuple rows
    and on a parsed graph's flat rows, also at a depth beyond the graph's
    diameter."""
    rng = random.Random(seed + 200)
    n = rng.randrange(2, 40)
    g = random_gnp(n, rng.choice([0.05, 0.1, 0.2]), seed + 200)
    ref = nx.Graph(list(g.edges()))
    ref.add_nodes_from(range(n))
    src = rng.randrange(n)
    for rows in (g.adj, parse_graph(format_graph(g)).adj):
        for depth in (*range(0, 6), n):
            want = nx.single_source_shortest_path_length(ref, src,
                                                         cutoff=depth)
            assert ball(rows, src, depth) == want


@pytest.mark.parametrize("parsed", [False, True])
@pytest.mark.parametrize("depth", [-1, 0, 1, 2, 3, 5])
def test_bidir_path_is_the_masked_bfs_path(depth, parsed):
    """The bidirectional kernel returns exactly the path of
    ``shortest_path_blocked`` over the same mask when that path is no
    longer than ``depth``, and None otherwise, on tuple rows and on a
    parsed graph's flat rows, with blocked sources and targets and pairs in
    different components among the cases."""
    rng = random.Random(depth * 2 + parsed)
    seen = collections.Counter()
    for _ in range(200):
        n = rng.randrange(1, 40)
        g = random_gnp(n, rng.choice([0.03, 0.08, 0.15, 0.3]),
                       rng.randrange(1 << 30))
        if parsed:
            g = parse_graph(format_graph(g))
        a, b = rng.randrange(n), rng.randrange(n)
        blocked = set(rng.sample(range(n), rng.randrange(0, n // 3 + 1)))
        if rng.random() < 0.3:
            blocked.add(a)
        if rng.random() < 0.15:
            blocked.add(b)
        mask = bytearray(n)
        for v in blocked:
            mask[v] = 1
        want = shortest_path_blocked(g, mask, a, b, Workspace(g))
        if want is not None and 0 <= depth < len(want) - 1:
            want = None
        assert bidir_path(g.adj, blocked, a, b, depth) == want
        seen["found" if want else "none"] += 1
        seen["blocked source"] += a in blocked and a != b
        seen["blocked target"] += b in blocked and a != b
        seen["disconnected"] += Workspace(g).distance_row(a)[b] < 0
    assert all(seen[c] >= 5 for c in ("none", "blocked source",
                                      "blocked target", "disconnected"))
    assert seen["found"] >= (5 if depth else 1)
