"""Root steps: the input-graph step, the reduction and trivial detection.

The first step runs on the input graph, before anything is reduced: ell = 2
is decided by counting the terminals' common neighbours; otherwise k above
the smaller terminal degree is refuted, and k successive shortest s-t
paths, each avoiding the earlier paths' internal vertices and each searched
only to depth ell, answer yes when all k are found (and no when even the
first is missing).  An instance this step decides never pays for the
reduction or a flow.  Its searches run ``kernels.bidir_path``, a
bidirectional level search over a ``set`` of blocked vertices, so the step
allocates nothing of graph size; the search's root greedy runs
``bfs_tree`` on the reduced graph.  Both kernels return the
lexicographically smallest shortest path, so both find the same paths.

Reduction keeps only vertices that can appear on a solution path: those
within distance ell of both terminals and within distance floor(ell/2) of
at least one, followed by iterated removal of degree <= 1 vertices (the
terminals are protected).  When dist(s, t) + floor(ell/2) <= ell, that set
is the union of the two balls of radius floor(ell/2) around the terminals,
and both searches stop there; otherwise they run to distance ell.  The
balls are dicts from ``kernels.ball`` and the kept set is a ``set``, so
nothing of graph size is allocated.  The reduced instance is
decision-equivalent.

Trivial detection then runs on the reduced instance: one min-cost flow for
the k disjoint paths of minimum total length either refutes (fewer than k
disjoint paths: a separator below k), gives a witness, refutes by total
length, or leaves the instance open.  Every step runs once, at the root,
and takes only bare checkpoint lists (s, t) of non-adjacent terminals, as
``search.solve`` leaves them after taking out a direct s-t edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import kernels
from .config import _check
from .flows import min_total_length_disjoint_paths
from .graph import Graph
from .model import (CheckpointInstance, PackingInstance, Solution,
                    from_packing)

__all__ = ["detect_on_input", "reduce_instance", "detect_trivial"]


@dataclass(frozen=True)
class ReductionReport:
    """Which vertices survived and how ids translate.

    ``to_original[new_id] = old_id`` lists the kept vertices in ascending
    order, so reduced ids preserve the original relative order (BFS
    tie-breaking is unchanged).
    """

    n_before: int
    n_after: int
    m_before: int
    m_after: int
    to_original: tuple[int, ...]

    def solution_to_original(self, sol: Solution) -> Solution:
        ids = self.to_original
        return Solution(tuple(tuple(ids[v] for v in p) for p in sol.paths))


def _require_bare(inst: CheckpointInstance) -> None:
    """The precondition of the root steps: every list is still (s, t)."""
    if any(len(entries) != 2 for entries in inst.lists):
        raise ValueError("root steps expect bare checkpoint lists")


def reduce_instance(inst: CheckpointInstance,
                    ) -> tuple[CheckpointInstance, ReductionReport]:
    """Shrink the instance to the relevant neighborhood of the terminals.

    A vertex is kept when it lies within floor(ell/2) of one terminal and
    within ell of the other.  The ball of radius floor(ell/2) around s
    comes first, and shows whether dist(s, t) + floor(ell/2) <= ell.  If
    so, the second condition follows from the first, and the kept set is
    the union of that ball and the one of the same radius around t;
    otherwise the balls of radius ell around both terminals decide.  The
    balls are dicts of distances and the kept set is a ``set``, so the
    filter, the peeling and the relabelling touch only the vertices the
    searches reached: the work and the memory follow the size of those
    balls rather than the size of the graph.

    Runs at the root, on bare lists: the terminals are never peeled, so
    the reduced root is again bare.
    """
    _require_bare(inst)
    g = inst.base.graph
    s, t, ell = inst.base.s, inst.base.t, inst.base.ell
    adj = g.adj
    half = ell // 2
    ds = kernels.ball(adj, s, half)
    # dist(s, t) + half <= ell holds when t lies within half of s or, for
    # an odd ell, next to a vertex that does
    if t in ds or (ell % 2 and any(w in ds for w in adj[t])):
        # a vertex within half of one terminal is then within ell of the
        # other, so the kept set is the union of the half-balls; it holds
        # both terminals
        keep = ds.keys() | kernels.ball(adj, t, half).keys()
    else:
        ds = kernels.ball(adj, s, ell)
        dt = kernels.ball(adj, t, ell)
        keep = {v for v, d in ds.items()
                if v in dt and (d <= half or dt[v] <= half)}
        # terminals always stay so the reduced instance remains well
        # formed, even when they cannot reach each other within ell
        keep.update((s, t))

    # degree <= 1 peeling with a work queue over live degrees (Batagelj &
    # Zaversnik 2003): a vertex is queued once, when its live degree first
    # drops to 1 or below.  Removal only lowers degrees, so the kept set is
    # the same as that of any removal order.
    deg = {v: len(keep.intersection(adj[v])) for v in keep}
    peel = [v for v, dv in deg.items() if dv <= 1 and v != s and v != t]
    keep.difference_update(peel)
    for v in peel:
        for w in adj[v]:
            if w in keep:
                deg[w] -= 1
                if deg[w] == 1 and w != s and w != t:
                    keep.discard(w)
                    peel.append(w)

    # ids are relabelled in ascending order, so each reduced row is the
    # kept part of the original row and stays sorted
    kept_sorted = sorted(keep)
    to_reduced = {v: i for i, v in enumerate(kept_sorted)}
    reduced_g = Graph.from_sorted_rows(
        tuple([to_reduced[w] for w in adj[v] if w in keep])
        for v in kept_sorted)
    reduced = from_packing(PackingInstance(
        reduced_g, to_reduced[s], to_reduced[t], inst.base.k, ell))
    report = ReductionReport(
        n_before=g.n, n_after=reduced_g.n,
        m_before=g.m, m_after=reduced_g.m,
        to_original=tuple(kept_sorted),
    )
    return reduced, report


@dataclass(frozen=True)
class TrivialOutcome:
    kind: str                      # "yes" | "no" | "unknown"
    witness: Optional[Solution] = None
    via: str = ""                  # detector tag


def _yes(witness: Solution, via: str) -> TrivialOutcome:
    return TrivialOutcome("yes", witness, via)


def _no(via: str) -> TrivialOutcome:
    return TrivialOutcome("no", None, via)


def detect_on_input(inst: CheckpointInstance,
                    deadline: Optional[float] = None) -> TrivialOutcome:
    """The root step on the input graph, before the reduction.

    ell = 2 is decided by :func:`detect_trivial`'s common-neighbour count,
    which is exact on the input graph and costs O(deg) rather than k
    searches.  Otherwise the step refutes (``min-separator``) when k exceeds
    the degree of s or of t, and then packs greedily: k successive shortest
    s-t paths, each avoiding the internal vertices of the earlier ones, and
    each found by a ``kernels.bidir_path`` search bounded by ell.  All k
    found answer yes (``k1`` at k = 1, else ``greedy``); a first search
    that finds nothing shows dist(s, t) > ell and answers no (``k1``, or
    ``min-separator`` as the flow would say on the reduced graph, which
    then has no s-t path).  The paths are those the search's root greedy
    finds on the reduced graph: the reduction keeps every vertex of every
    s-t path of length <= ell and preserves id order, and both the step's
    ``kernels.bidir_path`` and the greedy's ``bfs_tree`` return the
    lexicographically smallest shortest path.  The earlier paths' internal
    vertices are kept in a ``set``, so the step allocates nothing of graph
    size.  A later missing path leaves the instance open.  A ``deadline``
    (a ``time.perf_counter()`` value) found passed after a search raises
    :class:`~pathpack.config.SolveTimeout`.
    """
    _require_bare(inst)
    g = inst.base.graph
    s, t, k, ell = inst.base.s, inst.base.t, inst.base.k, inst.base.ell
    if ell == 2:
        return detect_trivial(inst)
    # each path leaves s through its own neighbour and enters t through its
    # own neighbour, so a terminal of degree below k is a separator
    if k > min(g.degree(s), g.degree(t)):
        return _no("min-separator")
    blocked: set[int] = set()
    paths: list[tuple[int, ...]] = []
    for _ in range(k):
        path = kernels.bidir_path(g.adj, blocked, s, t, ell)
        _check(deadline)
        if path is None:
            if paths:
                return TrivialOutcome("unknown")
            return _no("k1" if k == 1 else "min-separator")
        paths.append(path)
        blocked.update(path[1:-1])
    return _yes(Solution(tuple(paths)), "k1" if k == 1 else "greedy")


def detect_trivial(inst: CheckpointInstance) -> TrivialOutcome:
    """The root detectors that need no greedy, applied in order.

    ell = 2: one path per common neighbor, so yes iff that count reaches
    k; :func:`detect_on_input` answers ell = 2 with this count on the
    input graph.  Otherwise one min-cost flow: fewer than k disjoint paths
    refute (``min-separator``), and the k disjoint paths of minimum total
    length either directly form a witness (longest path <= ell), refute
    (total > k * ell, always so at ell = 1, where every path has length at
    least 2), or leave the instance open.  At k = 1 the flow is a shortest
    path and always decides.  No max flow runs here.
    """
    _require_bare(inst)
    g = inst.base.graph
    s, t, k, ell = inst.base.s, inst.base.t, inst.base.k, inst.base.ell

    if ell == 2:
        common = sorted(set(g.neighbors(s)) & set(g.neighbors(t)))
        if len(common) < k:
            return _no("ell2")
        return _yes(Solution(tuple((s, c, t) for c in common[:k])), "ell2")

    # successive shortest paths finds k paths exactly when the max flow
    # reaches k, so its failure is the separator refutation
    paths = min_total_length_disjoint_paths(g, s, t, k)
    if paths is None:
        return _no("min-separator")
    lengths = [len(p) - 1 for p in paths]
    if max(lengths) <= ell:
        return _yes(Solution(paths), "min-total-length")
    if sum(lengths) > k * ell:
        return _no("min-total-length")
    return TrivialOutcome("unknown")
