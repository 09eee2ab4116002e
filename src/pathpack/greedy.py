"""Checkpoint-aware greedy path construction.

Paths are built one list at a time, each as a chain of shortest subpaths
between consecutive checkpoints in a working graph that masks everything
already consumed (the terminals are never adjacent, as ``search.solve``
leaves them).  Failure is data, never an exception: the failure kind plus
the exact partial state at the break point drive the branching rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from .config import SolverConfig, SolveStats
from .flows import st_flow_value
from .graph import Workspace, shortest_path_blocked
from .model import CheckpointInstance

__all__ = ["FailureCondition", "GreedySuccess", "GreedyFailure",
           "run_greedy"]


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

    @property
    def rule(self) -> int:
        return self.value


@dataclass(frozen=True)
class GreedySuccess:
    paths: tuple[tuple[int, ...], ...]


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


GreedyOutcome = Union[GreedySuccess, GreedyFailure]


def _join(subpaths: list[tuple[int, ...]]) -> tuple[int, ...]:
    out = list(subpaths[0])
    for q in subpaths[1:]:
        out.extend(q[1:])
    return tuple(out)


def run_greedy(inst: CheckpointInstance, cfg: SolverConfig,
               ws: Optional[Workspace] = None,
               stats: Optional[SolveStats] = None) -> GreedyOutcome:
    """One greedy attempt at the instance.

    Working graph per path i: the input graph minus internal vertices of
    the completed paths (terminals stay).  Per subpath j of list L: minus
    the vertices of this path's earlier subpaths, minus every checkpoint of
    every list, with the two subpath endpoints re-added.

    Forbidden intervals do not mask the working graph: the greedy outcome
    must depend on the checkpoint lists alone, so that enabling the
    symmetry-breaking rule can only remove subtrees (the search skips
    refuted insertions) and never perturb where a greedy run breaks.

    Requires that no list exceeds ell + 1 entries (the caller prunes that
    case first) and non-adjacent terminals.
    """
    g = inst.base.graph
    s, t, k, ell = inst.base.s, inst.base.t, inst.base.k, inst.base.ell
    if ws is None:
        ws = Workspace(g)
    if stats is None:
        stats = SolveStats()
    lists = inst.lists
    cp_all = sorted(inst.checkpoint_union())

    blocked_base = ws.blocked_base
    blocked = ws.blocked
    blocked_base[:] = bytes(g.n)
    completed: list[tuple[int, ...]] = []

    for i0 in range(k):
        # separator check, while every pending list is still bare: fewer
        # than k - i0 disjoint routes past the consumed vertices refute the
        # node.  At the root it repeats trivial detection's flow, so it runs
        # there only when that is off.  The flow stops at the paths needed.
        if (cfg.d_ms and (i0 > 0 or not cfg.trivial_detection)
                and all(len(lists[x]) == 2 for x in range(i0, k))):
            need = k - i0
            if st_flow_value(g, s, t, need, blocked_base) < need:
                stats.dms_fired += 1
                return GreedyFailure(FailureCondition.CUT_TOO_SMALL,
                                     i0 + 1, None, tuple(completed), ())
        entries = lists[i0]
        ell_i = 0
        subpaths: list[tuple[int, ...]] = []
        for j0 in range(len(entries) - 1):
            u, u2 = entries[j0], entries[j0 + 1]
            blocked[:] = blocked_base
            for q in subpaths:
                for v in q:
                    blocked[v] = 1
            for v in cp_all:
                blocked[v] = 1
            blocked[u] = 0
            blocked[u2] = 0
            q = shortest_path_blocked(g, blocked, u, u2, ws)
            if q is None:
                return GreedyFailure(FailureCondition.NO_SUBPATH,
                                     i0 + 1, j0 + 1,
                                     tuple(completed), tuple(subpaths))
            q_len = len(q) - 1
            if ell_i + q_len > ell:
                return GreedyFailure(FailureCondition.OVERLONG,
                                     i0 + 1, j0 + 1,
                                     tuple(completed), tuple(subpaths),
                                     overlong_len=q_len)
            ell_i += q_len
            subpaths.append(q)
        path = _join(subpaths)
        completed.append(path)
        for v in path[1:-1]:
            blocked_base[v] = 1
    return GreedySuccess(tuple(completed))
