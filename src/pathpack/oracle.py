"""Brute-force exact reference: bounded-length path enumeration plus
exhaustive disjoint-packing search.

Deliberately naive so it stays independently trustworthy; intended for
graphs up to roughly 18 vertices.
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
    """Exact decision by backtracking over enumerated candidate paths.

    With ``want_max_packing`` the answer also carries the maximum number of
    pairwise internally disjoint paths of length <= ell (pass ell = n to get
    the unbounded disjoint-path count).
    """
    paths = enumerate_bounded_paths(inst.graph, inst.s, inst.t, inst.ell)
    masks = [_internal_bits(p) for p in paths]
    inner = [len(p) - 2 for p in paths]
    n_paths = len(paths)
    k = inst.k
    # k disjoint paths can use at most n - 2 internal vertices in total;
    # together with per-path internal sizes this bounds the backtracking
    full_budget = inst.graph.n - 2
    suffix_min = [0] * (n_paths + 1)
    if n_paths:
        suffix_min[n_paths] = 1 << 30
        for i in range(n_paths - 1, -1, -1):
            suffix_min[i] = min(inner[i], suffix_min[i + 1])

    def fits(start: int, spent: int, need: int) -> bool:
        """Whether ``need`` more paths, from index ``start`` on, can still
        fit in the budget of internal vertices."""
        if n_paths - start < need:
            return False
        return need * suffix_min[start] <= full_budget - spent

    # depth-first over explicit stacks, one entry per chosen path, so that
    # k and the packing size may exceed the recursion limit
    chosen: list[int] = []
    found = k == 0
    levels = [[0, 0, 0]] if fits(0, 0, k) else []  # [next index, used, spent]
    while levels and not found:
        level = levels[-1]
        start, used, spent = level
        i = start
        while i < n_paths and masks[i] & used:
            i += 1
        if i == n_paths:
            levels.pop()
            if levels:
                chosen.pop()
            continue
        level[0] = i + 1
        chosen.append(i)
        need = k - len(chosen)
        if need == 0:
            found = True
        elif fits(i + 1, spent + inner[i], need):
            levels.append([i + 1, used | masks[i], spent + inner[i]])
        else:
            chosen.pop()
    witness = (Solution(tuple(paths[i] for i in chosen)) if found else None)

    best: Optional[int] = None
    if want_max_packing:
        by_len = sorted(range(n_paths), key=lambda i: (inner[i], i))
        best = 0
        levels = [[0, 0, 0]]            # [next position, used, spent]
        while levels:
            level = levels[-1]
            _, used, spent = level
            count = len(levels)         # the packing size with one more path
            for ii in range(level[0], n_paths):
                i = by_len[ii]
                # in ascending-length order every later path is at least
                # this long, so an exceeded budget ends the whole level
                if (spent + inner[i] > full_budget
                        or count + (n_paths - ii - 1) <= best):
                    levels.pop()
                    break
                if not masks[i] & used:
                    level[0] = ii + 1
                    levels.append([ii + 1, used | masks[i], spent + inner[i]])
                    best = max(best, count)
                    break
            else:
                levels.pop()

    return OracleAnswer("yes" if found else "no", witness, best)
