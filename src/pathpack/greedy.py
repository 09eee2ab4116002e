"""Checkpoint-aware greedy path construction.

Paths are built one list at a time, each as a chain of shortest subpaths
between consecutive checkpoints in a working graph that masks every
checkpoint and everything already consumed (the terminals are never
adjacent, as ``search.solve`` leaves them).  The working graph is one
byte mask that only grows during a run, but for the one target each
search opens.  A success is the k paths themselves, one tuple of vertex
ids per list.  Failure is data, never an exception: a
:class:`GreedyFailure` holds the failure kind plus the exact partial state
at the break point, which drive the branching rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from .config import SolverConfig, SolveStats
from .flows import st_flow_value
from .graph import Workspace, shortest_path_blocked
from .model import CheckpointInstance

__all__ = ["FailureCondition", "GreedyFailure", "run_greedy"]


class FailureCondition(enum.Enum):
    """Why a greedy run broke off.

    NO_SUBPATH: two consecutive checkpoints are disconnected in the working
    graph (branching rule 1).  OVERLONG: the accumulated path length would
    exceed the bound (rule 2).  CUT_TOO_SMALL: the optional separator check
    found fewer than the still-needed number of disjoint routes (rule 3).
    """

    NO_SUBPATH = 1
    OVERLONG = 2
    CUT_TOO_SMALL = 3


@dataclass(frozen=True)
class GreedyFailure:
    """Exact break-point state.

    ``i_beta``/``j_beta`` are the 1-based outer/inner iterations of the
    break (j_beta is None for the separator check, which sits between
    outer iterations).  ``overlong_len`` carries the length of the found
    but rejected subpath under OVERLONG; the position-ordering heuristic
    sorts by it.
    """

    condition: FailureCondition
    i_beta: int
    j_beta: Optional[int]
    complete_paths: tuple[tuple[int, ...], ...]
    partial_subpaths: tuple[tuple[int, ...], ...]
    overlong_len: Optional[int] = None


# the k paths on success
GreedyOutcome = Union[tuple[tuple[int, ...], ...], GreedyFailure]


def run_greedy(inst: CheckpointInstance, cfg: SolverConfig, ws: Workspace,
               stats: SolveStats) -> GreedyOutcome:
    """One greedy attempt at the instance.

    Working graph of subpath j of path i: the input graph minus every
    checkpoint of every list, minus the vertices of the completed paths and
    of this path's earlier subpaths, with the two subpath endpoints added
    back.  It lives in the one mask ``ws.blocked``, updated in place: every
    checkpoint is marked at the start, the target is opened for its one
    search and closed again (the source stays marked: ``bfs_tree`` enters
    it without reading its entry), and each accepted subpath's inner
    vertices are marked.  A completed path is thereby marked as a whole.
    The search itself marks the vertices it visits in the same mask and
    clears them before it returns, so it leaves the mask as it found it.

    Forbidden intervals do not mask the working graph: the greedy outcome
    must depend on the checkpoint lists alone, so that enabling the
    symmetry-breaking rule can only remove subtrees (the search skips
    refuted insertions) and never perturb where a greedy run breaks.

    Requires that no list exceeds ell + 1 entries (the caller prunes that
    case first) and non-adjacent terminals.
    """
    g = inst.base.graph
    s, t, k, ell = inst.base.s, inst.base.t, inst.base.k, inst.base.ell
    lists = inst.lists
    blocked = ws.blocked
    blocked[:] = bytes(g.n)
    for entries in lists:
        for v in entries:
            blocked[v] = 1
    completed: list[tuple[int, ...]] = []

    for i0 in range(k):
        # separator check, while every pending list is still bare: fewer
        # than k - i0 disjoint routes past the consumed vertices refute the
        # node.  At the root it repeats trivial detection's flow, so it runs
        # there only when that is off.  The flow stops at the paths needed.
        # With the pending lists bare, the mask holds the completed paths
        # and the terminals, and no s-t route passes through a terminal.
        if (cfg.d_ms and (i0 > 0 or not cfg.trivial_detection)
                and all(len(lists[x]) == 2 for x in range(i0, k))):
            need = k - i0
            if st_flow_value(g, s, t, need, blocked) < need:
                stats.dms_fired += 1
                return GreedyFailure(FailureCondition.CUT_TOO_SMALL,
                                     i0 + 1, None, tuple(completed), ())
        entries = lists[i0]
        path = [s]
        subpaths: list[tuple[int, ...]] = []
        for j0 in range(len(entries) - 1):
            u, u2 = entries[j0], entries[j0 + 1]
            blocked[u2] = 0
            q = shortest_path_blocked(g, blocked, u, u2, ws)
            blocked[u2] = 1
            if q is None:
                return GreedyFailure(FailureCondition.NO_SUBPATH,
                                     i0 + 1, j0 + 1,
                                     tuple(completed), tuple(subpaths))
            q_len = len(q) - 1
            if len(path) - 1 + q_len > ell:
                return GreedyFailure(FailureCondition.OVERLONG,
                                     i0 + 1, j0 + 1,
                                     tuple(completed), tuple(subpaths),
                                     overlong_len=q_len)
            subpaths.append(q)
            path.extend(q[1:])
            for v in q[1:-1]:
                blocked[v] = 1
        completed.append(tuple(path))
    return tuple(completed)
