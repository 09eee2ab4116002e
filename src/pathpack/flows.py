"""Vertex-split transformation and the two flow subroutines built on it:
minimum s-t vertex separator size (via unit-capacity max flow) and k
internally vertex-disjoint s-t paths of minimum total length (via min-cost
unit flow with successive shortest paths).

Splitting each vertex v into v_in -> v_out (unit arc) turns vertex
disjointness into arc disjointness; an original s-t path of length L becomes
an s_out -> t_in path of length 2L - 1.

A solve builds at most one split digraph and runs every flow on it:
``reset`` restores the capacities between flows, and a vertex is shut out by
closing its internal arc (capacity 0) instead of rebuilding the network.
Each flow does only the work its caller needs: ``_max_flow`` stops after
``limit`` augmentations (the separator tests only compare the value with a
target), and each shortest-path round of the min-cost flow stops once the
sink is settled.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .graph import Graph

__all__ = [
    "SplitDigraph",
    "st_flow_value",
    "min_total_length_disjoint_paths",
]


def _vin(v: int) -> int:
    return 2 * v


def _vout(v: int) -> int:
    return 2 * v + 1


class SplitDigraph:
    """Residual network over the split digraph.

    Arcs are stored in pairs: even id = real arc (capacity 1, cost 1), odd
    id = its residual reverse (capacity 0, cost -1), so a real arc carries
    flow exactly when its reverse has capacity.  Real arc v < n is the
    internal arc v_in -> v_out of vertex v; cross arcs follow in edge order,
    two per original edge {u, v} with u < v: u_out -> v_in, then
    v_out -> u_in.  Every node lists its arcs in id order, so v_out's cross
    arcs come in ascending neighbour order.

    One network serves a whole solve.  ``reset`` restores the capacities;
    ``close`` then shuts vertices out by zeroing their internal arcs, which
    leaves the same flows as deleting those vertices: a closed v_in is a
    dead end and v_out cannot be entered.
    """

    def __init__(self, g: Graph):
        n = g.n
        self.graph_n = n
        self.node_count = 2 * n
        # internal arc v is ids (2v, 2v + 1) and node v_in is 2v, so the
        # first arc of every node is the arc with the node's own id
        adj = [[x] for x in range(2 * n)]
        to = [x ^ 1 for x in range(2 * n)]
        e = 2 * n
        for u, row in enumerate(g.adj):
            u_in = 2 * u
            u_out = u_in + 1
            adj_uin = adj[u_in]
            adj_uout = adj[u_out]
            for v in row[bisect_right(row, u):]:
                v_in = 2 * v
                to += (v_in, u_out, u_in, v_in + 1)
                adj_uout.append(e)
                adj[v_in].append(e + 1)
                adj[v_in + 1].append(e + 2)
                adj_uin.append(e + 3)
                e += 4
        self.adj = adj
        self.to = to
        self.arc_count = e // 2
        self.cap = [1, 0] * self.arc_count

    def reset(self) -> None:
        """Restore every capacity: no flow, no closed vertex."""
        self.cap[:] = [1, 0] * self.arc_count

    def close(self, vertices: Iterable[int]) -> None:
        """Shut the given vertices out of the next flow (after ``reset``)."""
        cap = self.cap
        for v in vertices:
            cap[2 * v] = 0


def _max_flow(net: SplitDigraph, s: int, t: int,
              limit: Optional[int]) -> int:
    """Edmonds-Karp from s_out to t_in on the unit-capacity residual
    network; stops after ``limit`` augmentations (None: at the maximum)."""
    adj, to, cap = net.adj, net.to, net.cap
    nn = net.node_count
    source, sink = _vout(s), _vin(t)
    value = 0
    while limit is None or value < limit:
        parent_arc = [-1] * nn
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


def _check_terminals(g: Graph, s: int, t: int,
                     removed: Optional[Iterable[int]]) -> list[int]:
    if s == t:
        raise ValueError("terminals s and t must differ")
    g.check_vertex(s)
    g.check_vertex(t)
    removed_list = sorted(set(removed)) if removed is not None else []
    if s in removed_list or t in removed_list:
        raise ValueError("terminals must not be removed")
    return removed_list


def st_flow_value(g: Graph, s: int, t: int,
                  removed: Optional[Iterable[int]] = None) -> int:
    """Max s_out -> t_in flow value in the split digraph, with the
    ``removed`` vertices shut out.

    Equals the maximum number of internally vertex-disjoint s-t paths (a
    direct s-t edge contributes one unit that no internal arc can cut), so
    this is the quantity the solver compares against k.
    """
    removed_list = _check_terminals(g, s, t, removed)
    net = SplitDigraph(g)
    net.close(removed_list)
    return _max_flow(net, s, t, None)


@dataclass(frozen=True)
class DisjointPathsResult:
    """k pairwise internally vertex-disjoint s-t paths of minimum total
    length; ``split_length`` is the corresponding arc count in the split
    digraph, satisfying total_length = (split_length + k) / 2."""

    paths: tuple[tuple[int, ...], ...]
    total_length: int
    split_length: int


_UNREACHED = 1 << 60


def _dijkstra_reduced(net: SplitDigraph, source: int, sink: int,
                      potential: list[int], dist: list[int],
                      parent_arc: list[int]) -> None:
    """Shortest paths under reduced costs, stopped when the sink is settled.

    Every node still unsettled then has ``dist >= dist[sink]``, and the
    caller caps potentials at ``dist[sink]``, so stopping early gives the
    same potentials and the same sink path as settling every node.
    """
    nn = net.node_count
    adj, to, cap = net.adj, net.to, net.cap
    dist[:] = [_UNREACHED] * nn
    parent_arc[:] = [-1] * nn
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == sink:
            return
        base = d + potential[u]
        for e in adj[u]:
            if cap[e]:
                w = to[e]
                nd = base - potential[w] + (-1 if e & 1 else 1)
                if nd < dist[w]:
                    dist[w] = nd
                    parent_arc[w] = e
                    heapq.heappush(heap, (nd, w))


def _min_cost_paths(net: SplitDigraph, s: int, t: int,
                    k: int) -> Optional[DisjointPathsResult]:
    """k disjoint s-t paths of minimum total length on ``net`` (reset, and
    with any removed vertices closed), or None when fewer than k exist."""
    source, sink = _vout(s), _vin(t)
    to, cap = net.to, net.cap
    nn = net.node_count
    potential = [0] * nn
    dist = [_UNREACHED] * nn
    parent_arc = [-1] * nn
    for _ in range(k):
        _dijkstra_reduced(net, source, sink, potential, dist, parent_arc)
        cap_at = dist[sink]
        if cap_at >= _UNREACHED:
            return None
        # capping at dist[sink] keeps reduced costs non-negative even for
        # nodes this round could not reach (or did not settle)
        potential = [p + (d if d < cap_at else cap_at)
                     for p, d in zip(potential, dist)]
        w = sink
        while w != source:
            e = parent_arc[w]
            cap[e] -= 1
            cap[e ^ 1] += 1
            w = to[e ^ 1]
    return _decompose(net, s, t, k)


def _decompose(net: SplitDigraph, s: int, t: int,
               k: int) -> DisjointPathsResult:
    """Split the unit flow into k paths, walking only arcs that carry flow.

    At each v_out the flowed cross arc with the smallest head is taken; a
    used arc gets its capacity back, so it is not taken twice.  Two opposite
    cross arcs of one edge that both carry flow cancel (a cost-optimal flow
    has none, but the decomposition must not rely on that).
    """
    source, sink = _vout(s), _vin(t)
    adj, to, cap = net.adj, net.to, net.cap
    n = net.graph_n
    paths: list[tuple[int, ...]] = []
    split_total = 0
    for _ in range(k):
        path = [s]
        cur = source
        while True:
            nxt = -1
            for e in adj[cur]:
                if e & 1 or not cap[e | 1]:
                    continue
                cap[e] = 1
                cap[e | 1] = 0
                # the opposite cross arc of the same edge is the other arc
                # of its pair: real arcs n + 2j and n + 2j + 1
                partner = 2 * (n + ((e // 2 - n) ^ 1))
                if cap[partner | 1]:
                    cap[partner] = 1
                    cap[partner | 1] = 0
                    continue
                nxt = to[e]
                break
            if nxt < 0:
                raise AssertionError("flow decomposition ran out of arcs")
            if nxt == sink:
                path.append(t)
                split_total += 1
                break
            # nxt is x_in: its only real arc is the internal arc, id nxt
            if not cap[nxt | 1]:
                raise AssertionError("flow decomposition ran out of arcs")
            cap[nxt] = 1
            cap[nxt | 1] = 0
            path.append(nxt // 2)
            cur = nxt | 1
            split_total += 2
        paths.append(tuple(path))

    total = sum(len(p) - 1 for p in paths)
    if 2 * total != split_total + k:
        raise AssertionError("length conversion identity violated")
    return DisjointPathsResult(tuple(paths), total, split_total)


def min_total_length_disjoint_paths(g: Graph, s: int, t: int, k: int,
                                    removed: Optional[Iterable[int]] = None,
                                    ) -> Optional[DisjointPathsResult]:
    """k internally vertex-disjoint s-t paths minimizing total length, or
    None when fewer than k disjoint paths exist.

    Successive shortest-path augmentations with potentials keep every
    intermediate flow cost-optimal; unit costs keep everything integral.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    removed_list = _check_terminals(g, s, t, removed)
    net = SplitDigraph(g)
    net.close(removed_list)
    return _min_cost_paths(net, s, t, k)
