"""Brute-force exact reference: bounded-length path enumeration plus one
exhaustive disjoint-packing search.

Every s-t path of length <= ell is held in memory, and that list is what
limits the oracle's reach: roughly graphs of up to 18 vertices.  One
depth-first search over the paths, shortest first, serves both questions:
the decision stops at k disjoint paths, a maximum packing searches on.  It
imports nothing from the solver, so it stays independently trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import Graph
from .model import PackingInstance, Solution

__all__ = ["oracle_decide"]


@dataclass(frozen=True)
class OracleAnswer:
    decision: str                       # "yes" | "no"
    witness: Optional[Solution] = None
    max_packing: Optional[int] = None   # filled only when requested


def enumerate_bounded_paths(g: Graph, s: int, t: int,
                            ell: int) -> list[tuple[int, ...]]:
    """All simple s-t paths of length <= ell, in lexicographic vertex-sequence
    order (depth-bounded DFS over ascending neighbor ids)."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    g.check_vertex(s)
    g.check_vertex(t)
    if s == t:
        return [(s,)]
    out: list[tuple[int, ...]] = []
    on_path = [False] * g.n
    on_path[s] = True
    path = [s]
    # an explicit stack of neighbor iterators, one per path vertex, so that
    # a path longer than the recursion limit is walked all the same
    todo = [iter(g.neighbors(s))]
    while todo:
        v = next(todo[-1], None)
        if v is None:
            todo.pop()
            on_path[path.pop()] = False
        elif on_path[v]:
            continue
        elif v == t:
            out.append((*path, t))
        elif len(path) < ell:       # the path has room for one more edge
            path.append(v)
            on_path[v] = True
            todo.append(iter(g.neighbors(v)))
    return out


def _internal_bits(path: tuple[int, ...]) -> int:
    bits = 0
    for v in path[1:-1]:
        bits |= 1 << v
    return bits


def oracle_decide(inst: PackingInstance,
                  want_max_packing: bool = False) -> OracleAnswer:
    """Exact decision by one depth-first search over the enumerated paths,
    taken shortest first (paths of one length in lexicographic order).

    The search keeps ``best``, the packing size to beat: k - 1 for the
    decision, 0 for a maximum packing.  A level skips each path that meets
    the chosen ones, and ends once too few paths are left or once ``need``
    more paths as long as the next would overrun the n - 2 inner vertices;
    later paths are at least as long, so both bounds hold for them too.  A
    packing that beats ``best`` is recorded, and the search stops once
    ``best`` reaches k (decision) or the path count (``want_max_packing``).

    With ``want_max_packing`` the answer also carries the maximum number of
    pairwise internally disjoint paths of length <= ell (pass ell = n to get
    the unbounded disjoint-path count).  A ``yes`` witness is the first k
    paths of the largest packing found.
    """
    paths = sorted(enumerate_bounded_paths(inst.graph, inst.s, inst.t,
                                           inst.ell), key=len)
    masks = [_internal_bits(p) for p in paths]
    inner = [len(p) - 2 for p in paths]
    n_paths = len(paths)
    k = inst.k
    budget = inst.graph.n - 2
    best = 0 if want_max_packing else k - 1
    goal = n_paths if want_max_packing else k
    packing: list[int] = []
    # depth-first over an explicit stack, one level per chosen path, so
    # that the packing may be deeper than the recursion limit; the path a
    # level chose is its next index less one
    levels = [[0, 0, 0]]                # [next index, used, spent]
    while levels and best < goal:
        level = levels[-1]
        i, used, spent = level
        need = best + 2 - len(levels)   # more paths, this one included
        while i < n_paths and masks[i] & used:
            i += 1
        if n_paths - i < need or spent + need * inner[i] > budget:
            levels.pop()
            continue
        level[0] = i + 1
        if len(levels) > best:
            best = len(levels)
            packing = [lv[0] - 1 for lv in levels]
        levels.append([i + 1, used | masks[i], spent + inner[i]])

    found = best >= k
    witness = Solution(tuple(paths[i] for i in packing[:k])) if found else None
    return OracleAnswer("yes" if found else "no", witness,
                        best if want_max_packing else None)
