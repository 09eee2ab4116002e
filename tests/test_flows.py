import heapq
import random

import networkx as nx
import pytest

from pathpack import Graph, PackingInstance, random_gnp
from pathpack.flows import min_total_length_disjoint_paths, st_flow_value
from pathpack.oracle import enumerate_bounded_paths, oracle_decide

from conftest import flow_value, min_total_paths, vid


# ---------------------------------------------------------------------------
# split transformation
# ---------------------------------------------------------------------------

def _total_length(paths) -> int:
    return sum(len(p) - 1 for p in paths)


def test_total_length_counts_the_paths_edges():
    # s-a-t: one path of length 2, found through the split digraph
    g = Graph(3, [(0, 1), (1, 2)])
    r = min_total_length_disjoint_paths(g, 0, 2, 1)
    assert r == ((0, 1, 2),) and _total_length(r) == 2


# ---------------------------------------------------------------------------
# separator / flow value
# ---------------------------------------------------------------------------

def test_separator_path_graph():
    g = Graph(3, [(0, 1), (1, 2)])
    assert st_flow_value(g, 0, 2, g.n) == 1


def test_separator_fixture(gex):
    assert st_flow_value(gex, vid(1), vid(5), gex.n) == 2


def test_separator_complete_bipartite():
    # s and t are the two degree-3 vertices of K_{2,3}
    g = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert st_flow_value(g, 0, 1, g.n) == 3


def test_separator_adjacent_terminals_marker():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    # no vertex separates adjacent terminals: the flow on G - st counts the
    # other route, and the direct edge is one more
    assert st_flow_value(g.without_edge(0, 2), 0, 2, g.n) == 1
    assert flow_value(g, 0, 2, g.n) == 2


@pytest.mark.parametrize("seed", range(100))
def test_menger_flow_equals_max_unbounded_packing(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 13)
    g = random_gnp(n, rng.choice([0.2, 0.3, 0.45]), seed)
    s, t = rng.sample(range(n), 2)
    ans = oracle_decide(PackingInstance(g, s, t, 1, max(1, n - 1)),
                        want_max_packing=True)
    assert flow_value(g, s, t, g.n) == ans.max_packing


# ---------------------------------------------------------------------------
# minimum-total-length disjoint paths
# ---------------------------------------------------------------------------

def test_four_cycle_two_paths():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    r = min_total_length_disjoint_paths(g, 0, 2, 2)
    assert sorted(len(p) - 1 for p in r) == [2, 2]


def test_fixture_two_paths(gex):
    r = min_total_length_disjoint_paths(gex, vid(1), vid(5), 2)
    assert sorted(len(p) - 1 for p in r) == [5, 5]


def test_absent_when_separator_too_small():
    g = Graph(3, [(0, 1), (1, 2)])
    assert min_total_length_disjoint_paths(g, 0, 2, 2) is None


def _brute_min_total(g, s, t, k):
    """Exhaustive minimum over all k-sets of pairwise internally disjoint
    paths; independent of the flow code (backtracking over the full path
    enumeration, pruned only by disjointness and the current best)."""
    paths = enumerate_bounded_paths(g, s, t, g.n)
    masks = []
    for p in paths:
        bits = 0
        for v in p[1:-1]:
            bits |= 1 << v
        masks.append(bits)
    lens = [len(p) - 1 for p in paths]
    order = sorted(range(len(paths)), key=lambda i: lens[i])
    best = None

    def extend(pos, used, chosen, total):
        nonlocal best
        if best is not None and total >= best:
            return
        if chosen == k:
            best = total
            return
        for ii in range(pos, len(order)):
            i = order[ii]
            if masks[i] & used:
                continue
            extend(ii + 1, used | masks[i], chosen + 1, total + lens[i])

    extend(0, 0, 0, 0)
    return best


@pytest.mark.parametrize("seed", range(100))
def test_matches_brute_force_minimum(seed):
    rng = random.Random(seed + 1)
    n = rng.randrange(4, 11)
    g = random_gnp(n, rng.choice([0.3, 0.5]), seed + 1)
    s, t = rng.sample(range(n), 2)
    k = rng.randrange(1, 4)
    want = _brute_min_total(g, s, t, k)
    got = min_total_paths(g, s, t, k)
    if want is None:
        assert got is None
        return
    assert got is not None
    assert _total_length(got) == want
    # every path simple, endpoints right, pairwise internally disjoint
    seen = set()
    for p in got:
        assert p[0] == s and p[-1] == t
        assert len(set(p)) == len(p)
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)
        inner = set(p[1:-1])
        assert not (inner & seen)
        seen |= inner


# ---------------------------------------------------------------------------
# the explicit split digraph as a reference: the implicit flows must visit
# its arcs in the same order, so values and witnesses are identical
# ---------------------------------------------------------------------------

def _grid(w, h, dropout=0.0, seed=0):
    rng = random.Random(seed)
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w and rng.random() >= dropout:
                edges.append((v, v + 1))
            if y + 1 < h and rng.random() >= dropout:
                edges.append((v, v + w))
    return Graph(w * h, edges)


def _reference_layout(g):
    """Arc-by-arc builder: internal arcs in vertex order, then two cross
    arcs per edge in edge order, each with its reverse right after it."""
    adj = [[] for _ in range(2 * g.n)]
    to, cap = [], []

    def add(u, w):
        adj[u].append(len(to))
        to.append(w)
        cap.append(1)
        adj[w].append(len(to))
        to.append(u)
        cap.append(0)

    for v in range(g.n):
        add(2 * v, 2 * v + 1)
    for u, v in g.edges():
        add(2 * u + 1, 2 * v)
        add(2 * v + 1, 2 * u)
    return adj, to, cap


def _reference_network(g, removed):
    """The layout with the internal arcs of ``removed`` closed."""
    adj, to, cap = _reference_layout(g)
    for v in removed:
        cap[2 * v] = 0
    return adj, to, cap


def _reference_max_flow(g, s, t, limit, removed=()):
    """Edmonds-Karp from s_out to t_in on the arc arrays."""
    adj, to, cap = _reference_network(g, removed)
    source, sink = 2 * s + 1, 2 * t
    value = 0
    while limit is None or value < limit:
        parent_arc = [-1] * (2 * g.n)
        parent_arc[source] = -2
        queue = [source]
        reached = False
        for u in queue:
            for e in adj[u]:
                if cap[e]:
                    w = to[e]
                    if parent_arc[w] == -1:
                        parent_arc[w] = e
                        if w == sink:
                            reached = True
                            break
                        queue.append(w)
            if reached:
                break
        if not reached:
            break
        w = sink
        while w != source:
            e = parent_arc[w]
            cap[e] -= 1
            cap[e ^ 1] += 1
            w = to[e ^ 1]
        value += 1
    return value


def _reference_min_cost_paths(g, s, t, k, removed=()):
    """Successive shortest paths with potentials on the arc arrays (real
    arcs cost 1, reverse arcs -1), then the arc walk that splits the flow
    into paths; the paths, or None when fewer than k exist."""
    adj, to, cap = _reference_network(g, removed)
    n, nn = g.n, 2 * g.n
    source, sink = 2 * s + 1, 2 * t
    unreached = 1 << 60
    potential = [0] * nn
    for _ in range(k):
        dist = [unreached] * nn
        parent_arc = [-1] * nn
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            if u == sink:
                break
            for e in adj[u]:
                if cap[e]:
                    w = to[e]
                    nd = d + potential[u] - potential[w] + (
                        -1 if e & 1 else 1)
                    if nd < dist[w]:
                        dist[w] = nd
                        parent_arc[w] = e
                        heapq.heappush(heap, (nd, w))
        cap_at = dist[sink]
        if cap_at >= unreached:
            return None
        potential = [p + min(d, cap_at) for p, d in zip(potential, dist)]
        w = sink
        while w != source:
            e = parent_arc[w]
            cap[e] -= 1
            cap[e ^ 1] += 1
            w = to[e ^ 1]
    paths = []
    for _ in range(k):
        path = [s]
        cur = source
        while cur != sink:
            for e in adj[cur]:
                if e & 1 or not cap[e | 1]:
                    continue
                cap[e], cap[e | 1] = 1, 0
                # two flowed opposite cross arcs of one edge cancel
                partner = 2 * (n + ((e // 2 - n) ^ 1))
                if cap[partner | 1]:
                    cap[partner], cap[partner | 1] = 1, 0
                    continue
                cur = to[e]
                break
            else:
                raise AssertionError("flow decomposition ran out of arcs")
            if cur != sink:
                cap[cur], cap[cur | 1] = 1, 0
                path.append(cur // 2)
                cur |= 1
        path.append(t)
        paths.append(tuple(path))
    return tuple(paths)


def _layout_graphs():
    yield Graph(2, [(0, 1)])
    yield Graph(4, [(0, 3), (1, 2)])
    yield _grid(5, 4, 0.2, seed=3)
    for seed in range(5):
        yield random_gnp(30, 0.15, 300 + seed)


def _closed(g, removed):
    """The closed mask of ``removed``: one byte per vertex."""
    closed = bytearray(g.n)
    for v in removed:
        closed[v] = 1
    return closed


def _assert_matches_reference(g, s, t, removed=()):
    """Every capped max flow from 0 to value + 2, and the witness of every
    k from 1 to value + 1, as the reference network gives them.  The max
    flow closes ``removed``; the min-cost flow, which takes no mask, runs
    on the subgraph without them, whose order-keeping relabelling leaves
    the reference's arc order unchanged."""
    closed = _closed(g, removed) if removed else None
    value = _reference_max_flow(g, s, t, None, removed)
    assert flow_value(g, s, t, g.n, closed) == value
    for limit in range(value + 3):
        assert (flow_value(g, s, t, limit, closed)
                == _reference_max_flow(g, s, t, limit, removed)
                == min(limit, value))
    h, new = _delete(g, set(removed))
    old = {i: v for v, i in new.items()}
    for k in range(1, value + 2):
        got = min_total_paths(h, new[s], new[t], k)
        want = _reference_min_cost_paths(g, s, t, k, removed)
        assert (None if got is None else
                tuple(tuple(old[v] for v in p) for p in got)) == want
        assert (got is None) == (k > value)


def test_implicit_flows_match_reference_network(gex):
    for i, g in enumerate([gex, *_layout_graphs()]):
        pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
        if len(pairs) > 40:
            pairs = random.Random(i).sample(pairs, 40)
        for s, t in pairs:
            _assert_matches_reference(g, s, t)


def test_two_calls_on_one_graph_agree(gex):
    # no flow state is carried from one call to the next
    s, t = vid(1), vid(5)
    first = (st_flow_value(gex, s, t, gex.n),
             min_total_length_disjoint_paths(gex, s, t, 2))
    assert st_flow_value(gex, s, t, gex.n, _closed(gex, [vid(3)])) == 2
    assert (st_flow_value(gex, s, t, gex.n),
            min_total_length_disjoint_paths(gex, s, t, 2)) == first
    assert first[0] == 2 and _total_length(first[1]) == 10


def _delete(g, removed):
    """The subgraph induced on the vertices not in ``removed``, relabeled
    in ascending order, and the relabeling."""
    keep = [v for v in range(g.n) if v not in removed]
    new = {v: i for i, v in enumerate(keep)}
    edges = [(new[u], new[v]) for u, v in g.edges()
             if u in new and v in new]
    return Graph(len(keep), edges), new


@pytest.mark.parametrize("seed", range(30))
def test_closed_vertices_flow_like_deleted_ones(seed):
    rng = random.Random(seed + 500)
    n = rng.randrange(8, 40)
    g = random_gnp(n, rng.choice([0.1, 0.2, 0.35]), seed + 500)
    s, t = rng.sample(range(n), 2)
    others = [v for v in range(n) if v not in (s, t)]
    removed = set(rng.sample(others, rng.randrange(0, len(others) // 2 + 1)))
    h, new = _delete(g, removed)
    want = flow_value(h, new[s], new[t], h.n)
    assert flow_value(g, s, t, g.n, _closed(g, removed)) == want
    # a later call without the mask sees every vertex again
    assert flow_value(g, s, t, g.n) == _reference_max_flow(g, s, t, None)
    _assert_matches_reference(g, s, t, sorted(removed))


@pytest.mark.parametrize("seed", range(20))
def test_capped_max_flow_is_min_of_limit_and_value(seed):
    rng = random.Random(seed + 700)
    n = rng.randrange(6, 40)
    g = random_gnp(n, rng.choice([0.1, 0.25, 0.4]), seed + 700)
    s, t = rng.sample(range(n), 2)
    value = flow_value(g, s, t, g.n)
    for limit in range(0, value + 3):
        assert flow_value(g, s, t, limit) == min(limit, value)


# ---------------------------------------------------------------------------
# networkx as an independent reference, on graphs too large for the oracle
# ---------------------------------------------------------------------------

def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _reference_graphs():
    for seed in range(900, 912):
        rng = random.Random(seed)
        n = rng.randrange(40, 90)
        g = random_gnp(n, rng.choice([4.0, 6.0, 9.0]) / (n - 1), seed)
        yield f"gnp{seed}", g, seed
    for seed in range(950, 956):
        rng = random.Random(seed)
        g = _grid(rng.randrange(6, 10), rng.randrange(6, 10),
                  rng.choice([0.0, 0.1, 0.25]), seed)
        yield f"grid{seed}", g, seed


_REFERENCE = list(_reference_graphs())


@pytest.mark.parametrize("name,g,seed", _REFERENCE,
                         ids=[name for name, _, _ in _REFERENCE])
def test_flow_value_matches_networkx_connectivity(name, g, seed):
    rng = random.Random(seed)
    h = _to_nx(g)
    for _ in range(6):
        s, t = rng.sample(range(g.n), 2)
        if h.has_edge(s, t):
            # networkx counts no paths through an edge it cannot cut; the
            # direct edge is one more route for the split digraph
            h2 = h.copy()
            h2.remove_edge(s, t)
            want = nx.algorithms.connectivity.local_node_connectivity(
                h2, s, t) + 1
        else:
            want = nx.algorithms.connectivity.local_node_connectivity(
                h, s, t)
        assert flow_value(g, s, t, g.n) == want


def _nx_min_total_length(g, s, t, k):
    """Minimum total length of k disjoint s-t paths by networkx min-cost
    flow on the split digraph, or None when fewer than k exist."""
    d = nx.DiGraph()
    for v in range(g.n):
        d.add_edge(("in", v), ("out", v), capacity=1, weight=0)
    for u, v in g.edges():
        d.add_edge(("out", u), ("in", v), capacity=1, weight=1)
        d.add_edge(("out", v), ("in", u), capacity=1, weight=1)
    d.add_edge("source", ("out", s), capacity=k, weight=0)
    flow = nx.max_flow_min_cost(d, "source", ("in", t))
    if sum(flow["source"].values()) < k:
        return None
    return nx.cost_of_flow(d, flow)


@pytest.mark.parametrize("name,g,seed", _REFERENCE,
                         ids=[name for name, _, _ in _REFERENCE])
def test_min_total_length_matches_networkx_min_cost(name, g, seed):
    rng = random.Random(seed + 1)
    for _ in range(4):
        s, t = rng.sample(range(g.n), 2)
        k = rng.randrange(1, 5)
        got = min_total_paths(g, s, t, k)
        want = _nx_min_total_length(g, s, t, k)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert _total_length(got) == want


# ---------------------------------------------------------------------------
# pinned witnesses: the paths the flows return on seeded graphs
# ---------------------------------------------------------------------------

_PINNED = [
    (("gnp", 33, 1000), 6, 25, 3,
     ((6, 3, 7, 30, 25), (6, 10, 22, 21, 20, 9, 25), (6, 24, 27, 14, 25))),
    (("gnp", 21, 1001), 6, 2, 4,
     ((6, 1, 19, 13, 2), (6, 11, 3, 4, 2), (6, 12, 20, 2),
      (6, 18, 14, 0, 2))),
    (("gnp", 36, 1002), 26, 14, 2, ((26, 6, 7, 14), (26, 14))),
    (("gnp", 35, 1003), 23, 14, 4, None),
    (("gnp", 33, 1004), 6, 32, 4,
     ((6, 2, 11, 32), (6, 7, 32), (6, 21, 17, 32), (6, 29, 19, 32))),
    (("gnp", 35, 1005), 25, 34, 3,
     ((25, 2, 18, 11, 34), (25, 15, 29, 33, 7, 34), (25, 30, 6, 34))),
    (("grid", 5, 4), 0, 19, 2,
     ((0, 1, 2, 3, 4, 9, 14, 19), (0, 5, 6, 7, 8, 13, 18, 19))),
    (("grid", 6, 6), 7, 28, 4,
     ((7, 1, 2, 3, 4, 5, 11, 17, 23, 29, 28),
      (7, 6, 12, 18, 19, 20, 26, 32, 33, 34, 28),
      (7, 8, 9, 10, 16, 22, 28), (7, 13, 14, 15, 21, 27, 28))),
]


@pytest.mark.parametrize("spec,s,t,k,paths", _PINNED)
def test_min_total_length_witnesses_pinned(spec, s, t, k, paths):
    kind, a, b = spec
    g = random_gnp(a, 0.15, b) if kind == "gnp" else _grid(a, b)
    got = min_total_paths(g, s, t, k)
    assert got == paths
