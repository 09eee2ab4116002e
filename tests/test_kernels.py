import collections
import random

import networkx as nx
import pytest

from pathpack import Graph, Workspace, random_gnp
from pathpack.graph import (FAR, format_graph, parse_graph,
                            shortest_path_blocked)
from pathpack.kernels import ball, bfs_tree, bidir_path
from pathpack.oracle import enumerate_bounded_paths


def _run(g, blocked, src, target):
    """One kernel search with fresh buffers; ``parent`` starts at -1 so that
    the tests can see which entries the kernel set.  Every search must leave
    the mask as it found it."""
    parent, queue = [-1] * g.n, [0] * g.n
    before = bytes(blocked)
    count = bfs_tree(g.adj, blocked, src, target, parent, queue)
    assert blocked == before
    return count, parent, queue


def _chain(parent, a, b):
    out = [b]
    while out[-1] != a:
        out.append(parent[out[-1]])
    return out[::-1]


def _open_subgraph(g, blocked, src):
    """networkx's copy of ``g`` without its blocked vertices, ``src`` kept
    open, as the kernel sees it."""
    ref = nx.Graph()
    ref.add_nodes_from(v for v in range(g.n) if not blocked[v] or v == src)
    ref.add_edges_from((u, v) for u, v in g.edges()
                       if ref.has_node(u) and ref.has_node(v))
    return ref


def _random_case(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 16)
    g = random_gnp(n, rng.choice([0.1, 0.3, 0.6]), seed)
    blocked = bytearray(n)
    for v in rng.sample(range(n), rng.randrange(0, n // 2 + 1)):
        blocked[v] = 1
    return rng, g, blocked


@pytest.mark.parametrize("seed", range(25))
def test_backends_agree_full_bfs(seed):
    """``Workspace.distance_row`` against networkx on the whole graph; and a
    masked search that misses its target, against networkx on the open
    subgraph: it enqueues the source's whole component there in BFS order,
    with the first-discovery parent rule checked from the queue order."""
    rng, g, blocked = _random_case(seed)
    n = g.n
    src = rng.randrange(n)
    whole = nx.Graph(list(g.edges()))
    whole.add_nodes_from(range(n))
    want = nx.single_source_shortest_path_length(whole, src)
    assert Workspace(g).distance_row(src) == [want.get(v, FAR)
                                              for v in range(n)]

    blocked[src] = 0
    # a blocked target is never entered: the search sweeps the component
    target = rng.choice([v for v in range(n) if v != src])
    blocked[target] = 1
    count, parent, queue = _run(g, blocked, src, target)
    dist = nx.single_source_shortest_path_length(
        _open_subgraph(g, blocked, src), src)
    order = queue[:count]
    assert sorted(order) == sorted(dist)
    assert [dist[v] for v in order] == sorted(dist.values())
    position = {v: i for i, v in enumerate(order)}
    assert parent[src] == -1
    for v in order[1:]:
        earlier = [u for u in g.neighbors(v)
                   if u in position and dist[u] == dist[v] - 1]
        assert parent[v] == min(earlier, key=position.__getitem__)
    for v in range(n):
        if v not in position:
            assert parent[v] == -1


@pytest.mark.parametrize("seed", range(25))
def test_mask_restored_and_target_reached_at_queue_end(seed):
    """From open and from blocked sources (one marked 2, to see its exact
    value come back), toward every target: the mask reads as before the
    call (checked in ``_run``), and ``queue[count - 1] == target`` exactly
    when the target lies in the source's component of the open subgraph,
    the last vertex enqueued."""
    rng, g, blocked = _random_case(seed + 300)
    blocked[rng.randrange(g.n)] = 1  # a target that other sources miss
    seen = collections.Counter()
    for src in range(g.n):
        was = blocked[src]
        for mark in (0, 1, 2):
            blocked[src] = mark
            reach = nx.node_connected_component(
                _open_subgraph(g, blocked, src), src)
            for target in range(g.n):
                count, _, queue = _run(g, blocked, src, target)
                reached = queue[count - 1] == target
                assert reached == (target in reach)
                assert queue[:count].count(target) == reached
                seen[("blocked" if mark else "open", reached)] += 1
        blocked[src] = was
    assert len(seen) == 4


@pytest.mark.parametrize("parsed", [False, True])
@pytest.mark.parametrize("seed", range(25))
def test_blocked_source_searches_as_if_open(seed, parsed):
    """``src`` is enqueued without reading its mask entry, so a search from
    a blocked source sets the same count, ``parent`` and queue order as
    from the same source unblocked, toward every target, on tuple rows and
    on a parsed graph's flat rows; the greedy searches from blocked
    sources."""
    rng, g, blocked = _random_case(seed + 400)
    if parsed:
        g = parse_graph(format_graph(g))
        assert type(g.adj) is not tuple
    src = rng.randrange(g.n)
    for target in range(g.n):
        runs = []
        for mark in (0, 1):
            blocked[src] = mark
            count, parent, queue = _run(g, blocked, src, target)
            runs.append((count, parent, queue[:count]))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", range(25))
def test_backends_agree_target_paths(seed):
    """The route to the target is the lexicographically smallest shortest
    path, as enumerated by the brute-force oracle."""
    rng = random.Random(seed + 100)
    n = rng.randrange(2, 16)
    g = random_gnp(n, 0.3, seed + 100)
    src, target = rng.randrange(n), rng.randrange(n)
    count, parent, queue = _run(g, bytearray(n), src, target)
    ref = nx.Graph(list(g.edges()))
    ref.add_nodes_from(range(n))
    if not nx.has_path(ref, src, target):
        assert queue[count - 1] != target
        return
    assert queue[count - 1] == target
    if src == target:
        assert count == 1 and parent[target] == -1
        return
    length = nx.shortest_path_length(ref, src, target)
    want = min(enumerate_bounded_paths(g, src, target, length))
    assert tuple(_chain(parent, src, target)) == want


def test_blocked_vertices_unreachable():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    blocked = bytearray(4)
    blocked[3] = 1
    count, parent, queue = _run(g, blocked, 0, 3)
    assert queue[:count] == [0, 1, 2]
    assert _chain(parent, 0, 2) == [0, 1, 2]


def test_parent_is_first_discovery_lexicographic():
    # two equal-length routes 0-1-3 and 0-2-3: parent of 3 must be 1
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    _, parent, _ = _run(g, bytearray(4), 0, 3)
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
@pytest.mark.parametrize("depth", [0, 1, 2, 3, 5, 40])
def test_bidir_path_is_the_masked_bfs_path(depth, parsed):
    """The bidirectional kernel returns exactly the path of
    ``shortest_path_blocked`` over the same mask when that path is no
    longer than ``depth``, and None otherwise, on tuple rows and on a
    parsed graph's flat rows, with blocked sources and targets and pairs in
    different components among the cases.  Depth 40 exceeds every graph's
    vertex count, so no search there is cut short."""
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
        if want is not None and depth < len(want) - 1:
            want = None
        assert bidir_path(g.adj, blocked, a, b, depth) == want
        seen["found" if want else "none"] += 1
        seen["blocked source"] += a in blocked and a != b
        seen["blocked target"] += b in blocked and a != b
        seen["disconnected"] += Workspace(g).distance_row(a)[b] == FAR
    assert all(seen[c] >= 5 for c in ("none", "blocked source",
                                      "blocked target", "disconnected"))
    assert seen["found"] >= (5 if depth else 1)
