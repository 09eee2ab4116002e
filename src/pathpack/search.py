"""Recursive branching solver.

Each node: run the infeasibility tests, then the greedy builder; on greedy
failure, generate the rule-specific candidate insertions, order them, and
recurse.  A refuted child optionally records a forbidden interval visible to
its later siblings.  Everything is deterministic for a fixed (instance,
config) pair; tie-breaking is ascending vertex id throughout.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .config import SolverConfig, SolveStats
from .graph import Workspace
from .greedy import FailureCondition, GreedyFailure, GreedySuccess, run_greedy
from .model import (CheckpointInstance, PackingInstance, Solution,
                    from_packing, validate_solution)
from .preprocess import detect_trivial, reduce_instance

__all__ = ["solve", "node_infeasible"]

_FAR = 1 << 30  # distance placeholder for unreachable pairs


@dataclass(frozen=True)
class Candidate:
    """One child insertion: splice ``vertex`` into list ``list_index`` at
    0-based position ``pos``, splitting the consecutive pair (u, u2)."""

    list_index: int
    pos: int
    vertex: int
    u: int
    u2: int


class SolveTimeout(Exception):
    """Internal unwind signal; surfaces as the 'timeout' decision."""


DistFn = Callable[[int], "object"]  # vertex -> distance array


def _gap_distance(dist_fn: DistFn, u: int, u2: int, v: int) -> int:
    du = int(dist_fn(u)[v])
    du2 = int(dist_fn(u2)[v])
    return (du if du >= 0 else _FAR) + (du2 if du2 >= 0 else _FAR)


def _order_pool(pool: list[int], u: int, u2: int, cfg: SolverConfig,
                dist_fn: Optional[DistFn]) -> list[int]:
    if cfg.c_dist and dist_fn is not None:
        return sorted(pool, key=lambda v: (_gap_distance(dist_fn, u, u2, v), v))
    return sorted(pool)


def _pool_base(fail: GreedyFailure, cp_union: set[int],
               skip_subpath: Optional[int] = None) -> list[int]:
    """Vertices of the completed paths and of the break path's earlier
    subpaths (optionally skipping one), minus every checkpoint."""
    pool: set[int] = set()
    for p in fail.complete_paths:
        pool.update(p)
    for idx, q in enumerate(fail.partial_subpaths, start=1):
        if idx == skip_subpath:
            continue
        pool.update(q)
    return [v for v in pool if v not in cp_union]


def _expect(fail: GreedyFailure, condition: FailureCondition) -> None:
    # an explicit raise, so the check survives python -O
    if fail.condition is not condition:
        raise AssertionError(f"expected a {condition.name} failure, "
                             f"got {fail.condition.name}")


def branch_no_subpath(fail: GreedyFailure, inst: CheckpointInstance,
                      cfg: SolverConfig,
                      dist_fn: Optional[DistFn] = None) -> list[Candidate]:
    """Rule 1: the missing subpath must use a previously consumed vertex;
    try each at the break position."""
    _expect(fail, FailureCondition.NO_SUBPATH)
    cp_union = inst.checkpoint_union()
    entries = inst.lists[fail.i_beta - 1]
    j = fail.j_beta
    u, u2 = entries[j - 1], entries[j]
    pool = _pool_base(fail, cp_union)
    return [Candidate(fail.i_beta - 1, j, v, u, u2)
            for v in _order_pool(pool, u, u2, cfg, dist_fn)]


def branch_overlong(fail: GreedyFailure, inst: CheckpointInstance,
                    cfg: SolverConfig,
                    dist_fn: Optional[DistFn] = None) -> list[Candidate]:
    """Rule 2: some subpath up to the break position went wrong; try every
    position up to it, each with the pool that excludes its own subpath.

    Position order: with c-pl, descending greedy subpath length (the found
    but rejected subpath participates with its actual length), ties by
    ascending position; otherwise ascending position.
    """
    _expect(fail, FailureCondition.OVERLONG)
    cp_union = inst.checkpoint_union()
    entries = inst.lists[fail.i_beta - 1]
    j_b = fail.j_beta

    def q_len(j: int) -> int:
        if j == j_b:
            return fail.overlong_len if fail.overlong_len is not None else 0
        return len(fail.partial_subpaths[j - 1]) - 1

    positions = list(range(1, j_b + 1))
    if cfg.c_pl:
        positions.sort(key=lambda j: (-q_len(j), j))
    out: list[Candidate] = []
    for j in positions:
        u, u2 = entries[j - 1], entries[j]
        pool = _pool_base(fail, cp_union, skip_subpath=j)
        out.extend(Candidate(fail.i_beta - 1, j, v, u, u2)
                   for v in _order_pool(pool, u, u2, cfg, dist_fn))
    return out


def branch_cut(fail: GreedyFailure, inst: CheckpointInstance,
               cfg: SolverConfig,
               dist_fn: Optional[DistFn] = None) -> list[Candidate]:
    """Rule 3: after a failed separator check, some still-pending subpath of
    some still-pending list must use a consumed vertex; try every (list,
    position) combination over the completed paths' internal vertices."""
    _expect(fail, FailureCondition.CUT_TOO_SMALL)
    cp_union = inst.checkpoint_union()
    pool_set: set[int] = set()
    for p in fail.complete_paths:
        pool_set.update(p)
    pool = [v for v in pool_set if v not in cp_union]
    out: list[Candidate] = []
    for li in range(fail.i_beta - 1, inst.base.k):
        entries = inst.lists[li]
        for j in range(1, len(entries)):
            u, u2 = entries[j - 1], entries[j]
            out.extend(Candidate(li, j, v, u, u2)
                       for v in _order_pool(pool, u, u2, cfg, dist_fn))
    return out


_BRANCHERS = {
    FailureCondition.NO_SUBPATH: branch_no_subpath,
    FailureCondition.OVERLONG: branch_overlong,
    FailureCondition.CUT_TOO_SMALL: branch_cut,
}


def node_infeasible(inst: CheckpointInstance, cfg: SolverConfig,
                    dist_fn: Optional[DistFn] = None) -> Optional[str]:
    """Cheap refutations checked at node entry, in order.

    'len': some list has more than ell + 1 entries.  'bcpl': a list long
    enough that it needs at least 2(|L|-1) - ell adjacent consecutive pairs
    falls short of that count.  'bsp': the shortest-path lengths between
    consecutive entries (unmasked graph) already sum past ell.
    """
    g = inst.base.graph
    ell = inst.base.ell
    for entries in inst.lists:
        # a path of length <= ell visits at most ell + 1 entries
        if len(entries) > ell + 1:
            return "len"
    if cfg.b_cpl:
        for entries in inst.lists:
            if len(entries) > ell // 2 + 1:
                adjacent = sum(1 for a, b in zip(entries, entries[1:])
                               if g.has_edge(a, b))
                if adjacent < 2 * (len(entries) - 1) - ell:
                    return "bcpl"
    if cfg.b_sp and dist_fn is not None:
        for entries in inst.lists:
            total = 0
            for a, b in zip(entries, entries[1:]):
                d = int(dist_fn(a)[b])
                total += d if d >= 0 else _FAR
                if total > ell:
                    return "bsp"
    return None


class _TreeSearch:
    def __init__(self, root: CheckpointInstance, cfg: SolverConfig,
                 stats: SolveStats, deadline: Optional[float],
                 ws: Workspace):
        self.cfg = cfg
        self.stats = stats
        self.deadline = deadline
        self.root = root
        self.k = root.base.k
        self.ell = root.base.ell
        self.ws = ws
        self.store = root.intervals
        self.dist_fn = self.ws.distances_unmasked

    def _tick(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise SolveTimeout

    def run(self) -> Optional[tuple[tuple[int, ...], ...]]:
        # tree depth is bounded by k*ell; a few helper frames per level
        needed = max(10000, 50 * self.k * self.ell + 1000)
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        return self._node(self.root, 0)

    def _node(self, inst: CheckpointInstance,
              depth: int) -> Optional[tuple[tuple[int, ...], ...]]:
        self._tick()
        stats = self.stats
        cfg = self.cfg
        stats.nodes += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        if depth > self.k * self.ell:
            raise AssertionError("search depth bound violated")

        reason = node_infeasible(inst, cfg, self.dist_fn)
        if reason == "len":
            stats.prunes_len += 1
            return None
        if reason == "bcpl":
            stats.prunes_bcpl += 1
            return None
        if reason == "bsp":
            stats.prunes_bsp += 1
            return None

        outcome = run_greedy(inst, cfg, self.ws, stats)
        if isinstance(outcome, GreedySuccess):
            return outcome.paths

        candidates = _BRANCHERS[outcome.condition](outcome, inst, cfg,
                                                   self.dist_fn)
        rule = outcome.condition.rule
        if rule == 1:
            stats.br1 += 1
            bound = self.k * self.ell
        elif rule == 2:
            stats.br2 += 1
            bound = self.k * self.ell * self.ell
        else:
            stats.br3 += 1
            bound = self.k * self.k * self.ell * self.ell
        if len(candidates) > bound:
            raise AssertionError(f"rule {rule} branched {len(candidates)} "
                                 f"ways, above its bound {bound}")

        mark = self.store.mark()
        try:
            for cand in candidates:
                self._tick()
                if cfg.b_fi and self._skip(inst, cand):
                    stats.bfi_masked += 1
                    continue
                child = inst.with_insertion(cand.list_index, cand.pos,
                                            cand.vertex)
                result = self._node(child, depth + 1)
                if result is not None:
                    return result
                if cfg.b_fi:
                    self.store.push(cand.list_index, cand.u, cand.u2,
                                    cand.vertex)
                    stats.bfi_recorded += 1
            return None
        finally:
            self.store.pop_to(mark)

    def _skip(self, inst: CheckpointInstance, cand: Candidate) -> bool:
        """Skip insertions refuted by an active forbidden interval: placing
        the vertex anywhere between the interval endpoints would force the
        already-refuted visiting order."""
        entries = inst.lists[cand.list_index]
        positions = {v: idx + 1 for idx, v in enumerate(entries)}
        return self.store.forbids(cand.list_index, positions, cand.pos,
                                  cand.vertex)


def solve(inst: PackingInstance,
          cfg: Optional[SolverConfig] = None,
          ) -> tuple[str, Optional[Solution], SolveStats]:
    """Decide an instance.

    Returns (decision, witness, stats) with decision one of 'yes', 'no',
    'timeout'.  A 'yes' always carries a witness that validates against the
    original instance; 'no' means exhaustive refutation; 'timeout' claims
    neither.
    """
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    stats = SolveStats()
    stats.n_before = stats.n_after = inst.graph.n
    stats.m_before = stats.m_after = inst.graph.m
    deadline = (t0 + cfg.timeout_ms / 1000.0
                if cfg.timeout_ms is not None else None)

    root = from_packing(inst)
    report = None
    if cfg.preprocess:
        root, report = reduce_instance(root)
        stats.n_after = report.n_after
        stats.m_after = report.m_after

    # one workspace, and so at most one split digraph, for the whole solve
    ws = Workspace(root.base.graph)
    decision = "no"
    witness: Optional[Solution] = None
    try:
        outcome = None
        if cfg.trivial_detection:
            outcome = detect_trivial(root, ws)
        if outcome is not None and outcome.kind == "yes":
            decision = "yes"
            witness = outcome.witness
            stats.solved_by = "trivial-yes"
        elif outcome is not None and outcome.kind == "no":
            decision = "no"
            stats.solved_by = "trivial-no"
        else:
            search = _TreeSearch(root, cfg, stats, deadline, ws)
            paths = search.run()
            if paths is not None:
                decision = "yes"
                witness = Solution(paths)
                stats.solved_by = ("greedy" if stats.nodes == 1 else "search")
            else:
                decision = "no"
                stats.solved_by = "search"
    except SolveTimeout:
        decision = "timeout"
        witness = None
        stats.solved_by = "timeout"

    if witness is not None and report is not None:
        witness = report.solution_to_original(witness)
    if witness is not None:
        check = validate_solution(from_packing(inst), witness)
        if not check.ok:
            raise AssertionError(
                f"internal error: witness rejected ({check.violation})")
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return decision, witness, stats
