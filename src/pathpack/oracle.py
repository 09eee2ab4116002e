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
    out: list[tuple[int, ...]] = []
    on_path = [False] * g.n
    stack = [s]
    on_path[s] = True

    def walk() -> None:
        u = stack[-1]
        if u == t:
            out.append(tuple(stack))
            return
        if len(stack) - 1 == ell:
            return
        for v in g.neighbors(u):
            if on_path[v]:
                continue
            stack.append(v)
            on_path[v] = True
            walk()
            stack.pop()
            on_path[v] = False

    if s != t:
        walk()
    else:
        out.append((s,))
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

    chosen: list[int] = []

    def extend(start: int, used: int, spent: int, need: int) -> bool:
        if need == 0:
            return True
        if n_paths - start < need:
            return False
        if need * suffix_min[start] > full_budget - spent:
            return False
        for i in range(start, n_paths):
            if masks[i] & used:
                continue
            chosen.append(i)
            if extend(i + 1, used | masks[i], spent + inner[i], need - 1):
                return True
            chosen.pop()
        return False

    found = extend(0, 0, 0, k)
    witness = (Solution(tuple(paths[i] for i in chosen)) if found else None)

    best: Optional[int] = None
    if want_max_packing:
        by_len = sorted(range(n_paths), key=lambda i: (inner[i], i))
        best_so_far = 0

        def grow(pos: int, used: int, spent: int, count: int) -> None:
            nonlocal best_so_far
            if count > best_so_far:
                best_so_far = count
            for ii in range(pos, n_paths):
                i = by_len[ii]
                # in ascending-length order every later path is at least
                # this long, so an exceeded budget ends the whole level
                if spent + inner[i] > full_budget:
                    return
                if count + 1 + (n_paths - ii - 1) <= best_so_far:
                    return
                if masks[i] & used:
                    continue
                grow(ii + 1, used | masks[i], spent + inner[i], count + 1)

        grow(0, 0, 0, 0)
        best = best_so_far

    return OracleAnswer("yes" if found else "no", witness, best)
