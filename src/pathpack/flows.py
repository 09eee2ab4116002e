"""The two flows of the solver, on the vertex-split digraph: the minimum
s-t vertex separator size by unit-capacity max flow (``st_flow_value``,
which the greedy's ``d-ms`` check runs with the consumed vertices closed)
and k internally vertex-disjoint s-t paths of minimum total length by
min-cost unit flow with successive shortest paths
(``min_total_length_disjoint_paths``, which trivial detection runs once).
Both return plain data: the flow value, and the k paths as vertex tuples.

Splitting each vertex v into v_in -> v_out (unit arc) turns vertex
disjointness into arc disjointness; an original s-t path of length L becomes
an s_out -> t_in path of length 2L - 1.  Node 2v is v_in and 2v + 1 is
v_out.

The split is implicit: the flow walks the graph's own sorted rows, and a
unit flow is kept per vertex.  ``prv[v]`` is the vertex whose out-node sends
v its unit of flow and ``nxt[v]`` the vertex it sends it on to (-1: none),
so v carries flow exactly when ``prv[v] >= 0``; s sends to every w with
``prv[w] == s``.  The terminals must not be adjacent (``search.solve`` sees
to that), so every unit passes an internal vertex.

Both flows are one augmenting loop (``_augment``): successive shortest
s_out -> t_in paths under reduced costs, each pushed one unit, until
``limit`` units flow or no path is left.  Every arc costs 1 and every
reverse arc -1.  Successive shortest paths finds a path whenever the
residual digraph has one, so the loop stops short of ``limit`` exactly at
the max flow value: the max flow is the number of rounds it makes, and the
min-cost flow is the flow its k rounds leave.  The residual arcs of a node
are visited in a fixed order, the arc order of the explicit split digraph
(internal arcs first, then cross arcs in ascending neighbour order):

* v_in: the internal arc to v_out while v carries no flow and is not
  closed, otherwise the reverse cross arc to ``prv[v]``'s out-node;
* v_out: the reverse internal arc to v_in while v carries flow, then the
  cross arc to w_in for every neighbour w in ascending order but the one v
  already sends its flow to; s_out skips every neighbour it already sends
  to.

A closed vertex is shut out of the flow, as if it were deleted.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .graph import Graph

__all__ = ["st_flow_value", "min_total_length_disjoint_paths"]

Paths = tuple[tuple[int, ...], ...]


class _UnitFlow:
    """A unit s-t flow on ``g``'s implicit split digraph, empty at first."""

    __slots__ = ("adj", "s", "t", "prv", "nxt")

    def __init__(self, g: Graph, s: int, t: int):
        self.adj = g.adj
        self.s = s
        self.t = t
        self.prv = [-1] * g.n
        self.nxt = [-1] * g.n

    def augment(self, parent: list[int], source: int, sink: int) -> None:
        """Push one unit along the residual path that ``parent`` records
        from ``source`` to ``sink``.

        A step x -> y is a cross arc u_out -> w_in (it gains flow), a
        reverse cross arc w_in -> u_out (it cancels u -> w), or one of v's
        two internal arcs (nothing to record: v carries flow exactly when
        it has a predecessor).  The walk goes backward, so a vertex's new
        successor is recorded before the cancellation of its old one.
        """
        s, t, prv, nxt = self.s, self.t, self.prv, self.nxt
        y = sink
        while y != source:
            x = parent[y]
            if x & 1:
                if y != x - 1:
                    u, w = x >> 1, y >> 1
                    if w != t:
                        prv[w] = u
                    if u != s:
                        nxt[u] = w
            elif y != x + 1:
                u, w = y >> 1, x >> 1
                prv[w] = -1
                if nxt[u] == w:
                    nxt[u] = -1
            y = x


_UNREACHED = 1 << 60


def _dijkstra_reduced(flow: _UnitFlow, source: int, sink: int,
                      potential: list[int], closed: Optional[bytearray],
                      ) -> tuple[list[int], list[int]]:
    """Shortest paths under reduced costs, with the vertices marked in
    ``closed`` (a byte per vertex, or None) shut out, stopped when the sink
    is settled: the distances and parents.

    Every node still unsettled then has ``dist >= dist[sink]``, and the
    caller caps potentials at ``dist[sink]``, so stopping early gives the
    same potentials and the same sink path as settling every node.
    """
    adj, prv, nxt = flow.adj, flow.prv, flow.nxt
    heappush, heappop = heapq.heappush, heapq.heappop
    dist = [_UNREACHED] * len(potential)
    parent = [-1] * len(potential)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, x = heappop(heap)
        if d > dist[x]:
            continue
        if x == sink:
            break
        base = d + potential[x]
        v = x >> 1
        p = prv[v]
        if not x & 1:
            # v_in: the reverse cross arc (cost -1) or the internal arc
            if p >= 0:
                y = 2 * p + 1
                nd = base - 1 - potential[y]
            elif closed is not None and closed[v]:
                continue
            else:
                y = x + 1
                nd = base + 1 - potential[y]
            if nd < dist[y]:
                dist[y] = nd
                parent[y] = x
                heappush(heap, (nd, y))
            continue
        if x == source:
            row, q = [w for w in adj[v] if prv[w] != v], -1
        else:
            row, q = adj[v], nxt[v]
            if p >= 0:
                # the reverse internal arc, cost -1
                y = x - 1
                nd = base - 1 - potential[y]
                if nd < dist[y]:
                    dist[y] = nd
                    parent[y] = x
                    heappush(heap, (nd, y))
        base += 1
        for w in row:
            if w != q:
                w += w
                nd = base - potential[w]
                if nd < dist[w]:
                    dist[w] = nd
                    parent[w] = x
                    heappush(heap, (nd, w))
    return dist, parent


def _augment(flow: _UnitFlow, limit: int,
             closed: Optional[bytearray]) -> int:
    """Push up to ``limit`` units along successive shortest paths, with the
    vertices marked in ``closed`` shut out: the number of rounds made.

    Potentials keep every intermediate flow cost-optimal and reduced costs
    non-negative; unit costs keep everything integral.
    """
    source, sink = 2 * flow.s + 1, 2 * flow.t
    potential = [0] * (2 * len(flow.prv))
    rounds = 0
    while rounds < limit:
        dist, parent = _dijkstra_reduced(flow, source, sink, potential,
                                         closed)
        cap_at = dist[sink]
        if cap_at >= _UNREACHED:
            break
        flow.augment(parent, source, sink)
        rounds += 1
        if rounds < limit:
            # capping at dist[sink] keeps reduced costs non-negative even
            # for nodes this round could not reach (or did not settle)
            potential = [p + (d if d < cap_at else cap_at)
                         for p, d in zip(potential, dist)]
    return rounds


def st_flow_value(g: Graph, s: int, t: int, limit: int,
                  closed: Optional[bytearray] = None) -> int:
    """The s_out -> t_in max flow value, with the vertices marked in
    ``closed`` (a byte per vertex, or None) shut out, or ``limit`` if it
    reaches that.

    The value is the maximum number of internally vertex-disjoint s-t paths,
    so a ``limit`` of ``g.n`` never caps it.
    """
    return _augment(_UnitFlow(g, s, t), limit, closed)


def min_total_length_disjoint_paths(g: Graph, s: int, t: int,
                                    k: int) -> Optional[Paths]:
    """k internally vertex-disjoint s-t paths minimizing total length, in
    ascending order of their second vertex, or None when fewer than k
    disjoint paths exist: the flow of k augmenting rounds, split into its
    paths.

    The rounds fall short of k exactly when the max flow is below k, so
    None also refutes a separator bound of k.
    """
    flow = _UnitFlow(g, s, t)
    if _augment(flow, k, None) < k:
        return None
    return _decompose(flow, k)


def _decompose(flow: _UnitFlow, k: int) -> Paths:
    """Split the unit flow into its k paths: one per flowed neighbour of s,
    in ascending order, each following ``nxt`` to t.

    A cost-optimal flow has no cycle, so every path reaches t; the walk
    still checks that it does.
    """
    s, t, prv, nxt = flow.s, flow.t, flow.prv, flow.nxt
    paths: list[tuple[int, ...]] = []
    for w in flow.adj[s]:
        if prv[w] != s:
            continue
        path = [s]
        while w != t:
            if w < 0 or len(path) > len(prv):
                raise AssertionError("flow decomposition ran out of arcs")
            path.append(w)
            w = nxt[w]
        path.append(t)
        paths.append(tuple(path))

    if len(paths) != k:
        raise AssertionError("flow decomposition found the wrong path count")
    return tuple(paths)
