"""Depth-first branching solver.

Each node runs the greedy builder; a greedy failure names one of three
branching rules, and :func:`branch` turns it into that rule's candidate
insertions, in the order the node tries them.
A child differs from its parent in one list, so the parent runs the child's
two entry rules itself, on that list alone: the entry count it reads off the
list, and the one count it carries per list down the tree, the sum of the
unmasked gap distances.  A refuted child is counted as entered and pruned
without being built, and only a surviving child is built and expanded.  The
root's entry checks cover every list.  A refuted child optionally records a
forbidden interval visible to its later siblings, in the one interval store
that the search owns.
Everything is deterministic for a fixed (instance, config) pair;
tie-breaking is ascending vertex id throughout.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Any, Callable, Generator, NamedTuple, Optional, Sequence

from .config import SolverConfig, SolveStats
from .graph import Graph, Workspace
from .greedy import GreedyFailure, GreedySuccess, run_greedy
from .model import (CheckpointInstance, IntervalStore, PackingInstance,
                    Solution, from_packing, validate_solution)
from .preprocess import detect_on_input, detect_trivial, reduce_instance

__all__ = ["solve", "node_infeasible"]

_FAR = 1 << 30  # distance placeholder for unreachable pairs
_RULES = ("len", "bsp")  # entry checks, in the order they apply


class Candidate(NamedTuple):
    """One child insertion: splice ``vertex`` into list ``list_index`` at
    0-based position ``pos``, splitting the consecutive pair (u, u2).
    ``gaps`` is gap(u, vertex) + gap(vertex, u2), the unmasked distances
    with an unreachable side counted as far."""

    list_index: int
    pos: int
    vertex: int
    u: int
    u2: int
    gaps: int


class SolveTimeout(Exception):
    """Internal unwind signal; surfaces as the 'timeout' decision."""


def _check(deadline: Optional[float]) -> None:
    """Unwind once the ``time.perf_counter()`` deadline has passed."""
    if deadline is not None and time.perf_counter() > deadline:
        raise SolveTimeout


# vertex -> its unmasked distance row (-1 = unreachable), such as
# Workspace.distance_row; branch ranks candidates by it (c-dist) and
# node_infeasible bounds lists by it (b-sp)
DistFn = Callable[[int], Sequence[int]]
Paths = tuple[tuple[int, ...], ...]


def _position_candidates(list_index: int, pos: int, u: int, u2: int,
                         pool: list[int], cfg: SolverConfig,
                         dist_fn: DistFn) -> list[Candidate]:
    """The candidates splicing each pool vertex between u and u2, in
    branching order: with c-dist by ascending gap sum, ties by vertex id;
    otherwise by vertex id."""
    du, du2 = dist_fn(u), dist_fn(u2)
    keyed = []
    for v in pool:
        a, b = du[v], du2[v]
        keyed.append(((a if a >= 0 else _FAR) + (b if b >= 0 else _FAR), v))
    keyed.sort(key=None if cfg.c_dist else itemgetter(1))
    return [Candidate(list_index, pos, v, u, u2, gaps) for gaps, v in keyed]


def _pool_base(fail: GreedyFailure, cp_union: set[int],
               skip_subpath: Optional[int] = None) -> list[int]:
    """Vertices of the completed paths and of the break path's earlier
    subpaths (optionally skipping one), minus every checkpoint."""
    pool: set[int] = set()
    for p in fail.complete_paths:
        pool.update(p)
    for idx, q in enumerate(fail.partial_subpaths, start=1):
        if idx != skip_subpath:
            pool.update(q)
    return [v for v in pool if v not in cp_union]


def branch(fail: GreedyFailure, inst: CheckpointInstance, cfg: SolverConfig,
           dist_fn: DistFn) -> list[Candidate]:
    """The child insertions of a greedy failure, in branching order: the
    failure's rule names (list, position, pool) slots, and each slot splices
    its pool's vertices in through :func:`_position_candidates`.

    Rule 1, NO_SUBPATH (at most k * ell children): the missing subpath must
    use a consumed vertex; one slot, the break position (i_beta, j_beta).
    Rule 2, OVERLONG (at most k * ell^2): some subpath up to the break went
    wrong; positions 1..j_beta of list i_beta, each pool skipping the
    position's own subpath, with c-pl by descending greedy subpath length
    (the rejected one at its actual length), else by ascending position.
    Rule 3, CUT_TOO_SMALL (at most k^2 * ell^2): after a failed separator
    check some pending subpath of some pending list must use a consumed
    vertex; every position of lists i_beta..k, all with the one pool of the
    completed paths' vertices.
    """
    cp_union = inst.checkpoint_union()
    li, j_b = fail.i_beta - 1, fail.j_beta
    rule = fail.condition.rule
    if rule == 1:
        slots = [(li, j_b, _pool_base(fail, cp_union))]
    elif rule == 2:
        lengths = [len(q) - 1 for q in fail.partial_subpaths]
        lengths.append(fail.overlong_len or 0)
        positions = range(1, j_b + 1)
        if cfg.c_pl:  # a stable sort keeps equal lengths by position
            positions = sorted(positions, key=lambda j: -lengths[j - 1])
        slots = [(li, j, _pool_base(fail, cp_union, skip_subpath=j))
                 for j in positions]
    else:
        # a CUT failure has no partial subpaths
        pool = _pool_base(fail, cp_union)
        slots = [(i, j, pool) for i in range(li, inst.base.k)
                 for j in range(1, len(inst.lists[i]))]
    out: list[Candidate] = []
    for i, j, pool in slots:
        entries = inst.lists[i]
        out.extend(_position_candidates(i, j, entries[j - 1], entries[j],
                                        pool, cfg, dist_fn))
    return out


def _gap_sum(entries: tuple[int, ...], cfg: SolverConfig,
             dist_fn: DistFn) -> int:
    """The sum of one list's unmasked gap distances, an unreachable gap
    counted as far; 0 when b-sp, the check that reads it, is off."""
    gaps = 0
    if cfg.b_sp:
        for a, b in zip(entries, entries[1:]):
            d = dist_fn(a)[b]
            gaps += d if d >= 0 else _FAR
    return gaps


def _list_verdict(size: int, gaps: int, ell: int,
                  cfg: SolverConfig) -> Optional[str]:
    """The entry rules of :func:`node_infeasible` for one list with
    ``size`` entries and the gap sum of :func:`_gap_sum`."""
    # a path of length <= ell visits at most ell + 1 entries
    if size > ell + 1:
        return "len"
    if cfg.b_sp and gaps > ell:
        return "bsp"
    return None


def node_infeasible(inst: CheckpointInstance, cfg: SolverConfig,
                    dist_fn: DistFn) -> Optional[str]:
    """Cheap refutations checked at node entry, in order.

    Two rules.  'len': some list has more than ell + 1 entries.  'bsp': the
    shortest-path lengths between consecutive entries (unmasked graph)
    already sum past ell.

    Each rule reads one list at a time, and 'bsp' reads one count per list,
    its gap sum; so a child, which differs from its parent in one list,
    needs the rules on that list only: the search carries each list's gap
    sum down the tree and applies them there through :func:`_list_verdict`.
    """
    ell = inst.base.ell
    verdicts = [_list_verdict(len(entries), _gap_sum(entries, cfg, dist_fn),
                              ell, cfg)
                for entries in inst.lists]
    return min(filter(None, verdicts), key=_RULES.index, default=None)


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
        self.store = IntervalStore()
        self.row = ws.distance_row

    def _tick(self) -> None:
        # _check's test written out: this runs at every node
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise SolveTimeout

    def _enter(self, depth: int) -> None:
        """A node's bookkeeping on entry, before its checks."""
        self._tick()
        stats = self.stats
        stats.nodes += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        if depth > self.k * self.ell:
            raise AssertionError("search depth bound violated")

    def _prune(self, reason: str) -> None:
        stats = self.stats
        if reason == "len":
            stats.prunes_len += 1
        else:
            stats.prunes_bsp += 1

    def run(self) -> Optional[Paths]:
        root = self.root
        self._enter(0)
        reason = node_infeasible(root, self.cfg, self.row)
        if reason is not None:
            self._prune(reason)
            return None
        # each list's gap sum (see _gap_sum) at the current node; a
        # surviving child changes one entry and restores it on return
        self.gaps = [_gap_sum(entries, self.cfg, self.row)
                     for entries in root.lists]
        # depth first from an explicit stack, so the tree's depth (up to
        # k*ell) never meets the interpreter's recursion limit: each node
        # yields a surviving child's expansion and is sent back its result
        stack = [self._node(root, 0)]
        result = None
        while stack:
            try:
                stack.append(stack[-1].send(result))
            except StopIteration as done:
                stack.pop()
                result = done.value
            else:
                result = None
        return result

    def _node(self, inst: CheckpointInstance, depth: int,
              ) -> Generator[Any, Optional[Paths], Optional[Paths]]:
        """Expand a node that passed its entry checks."""
        stats = self.stats
        cfg = self.cfg
        outcome = run_greedy(inst, cfg, self.ws, stats)
        if isinstance(outcome, GreedySuccess):
            return outcome.paths

        candidates = branch(outcome, inst, cfg, self.row)
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

        gaps = self.gaps
        ell = self.ell
        positions: dict[int, dict[int, int]] = {}  # per list, for b-fi
        mark = self.store.mark()
        try:
            for cand in candidates:
                self._tick()
                li, pos, v, u, u2, new_gaps = cand
                if cfg.b_fi and self._skip(inst, cand, positions):
                    stats.bfi_masked += 1
                    continue
                self._enter(depth + 1)
                # the child's gap sum on the one list it changes
                size = len(inst.lists[li]) + 1
                old_gaps = gaps[li]
                if cfg.b_sp:
                    d = self.row(u)[u2]
                    child_gaps = old_gaps - (d if d >= 0 else _FAR) + new_gaps
                else:
                    child_gaps = 0
                reason = _list_verdict(size, child_gaps, ell, cfg)
                if reason is not None:
                    self._prune(reason)
                else:
                    child = inst.with_insertion(li, pos, v)
                    gaps[li] = child_gaps
                    result = yield self._node(child, depth + 1)
                    gaps[li] = old_gaps
                    if result is not None:
                        return result
                if cfg.b_fi:
                    self.store.push(li, u, u2, v)
                    stats.bfi_recorded += 1
            return None
        finally:
            self.store.pop_to(mark)

    def _skip(self, inst: CheckpointInstance, cand: Candidate,
              positions: dict[int, dict[int, int]]) -> bool:
        """Skip insertions refuted by an active forbidden interval: placing
        the vertex anywhere between the interval endpoints would force the
        already-refuted visiting order.  ``positions`` caches each list's
        vertex -> 1-based position map for the node."""
        at = positions.get(cand.list_index)
        if at is None:
            entries = inst.lists[cand.list_index]
            at = positions[cand.list_index] = {
                v: idx for idx, v in enumerate(entries, start=1)}
        return self.store.forbids(cand.list_index, at, cand.pos, cand.vertex)


def solve(inst: PackingInstance,
          cfg: Optional[SolverConfig] = None,
          ) -> tuple[str, Optional[Solution], SolveStats]:
    """Decide an instance.

    The pipeline: with trivial detection on, :func:`detect_on_input`
    decides what it can on the input graph; an instance it leaves open is
    reduced (with preprocessing on), passed to :func:`detect_trivial`
    (with trivial detection on), and then searched.  ``timeout_ms`` is
    checked after each BFS of the input-graph step, after the reduction
    and throughout the search.

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
    if inst.k >= inst.graph.n:
        # k internally disjoint paths need k - 1 distinct internal vertices
        # besides at most one direct s-t edge, and there are only n - 2;
        # answered before anything of size k is built
        stats.solved_by = "trivial-no"
        stats.wall_ms = (time.perf_counter() - t0) * 1000.0
        return "no", None, stats

    report = None
    decision = "no"
    witness: Optional[Solution] = None
    original = from_packing(inst)
    try:
        outcome = None
        if cfg.trivial_detection:
            # decided on the input graph, before the reduction builds
            # anything; the step stops early once the deadline has passed
            outcome = detect_on_input(original, deadline)
            _check(deadline)
        if outcome is None or outcome.kind == "unknown":
            if cfg.preprocess:
                root, report = reduce_instance(original)
                stats.n_after = report.n_after
                stats.m_after = report.m_after
            else:
                # the layers below read a row per dequeue: tuple rows of
                # the whole graph, built once (a tuple row is its own
                # tuple())
                g = Graph.from_sorted_rows(map(tuple, inst.graph.adj))
                root = from_packing(
                    PackingInstance(g, inst.s, inst.t, inst.k, inst.ell))
            # either step may walk the whole graph, so the deadline bounds it
            _check(deadline)
            if cfg.trivial_detection:
                outcome = detect_trivial(root)
        if outcome is not None and outcome.kind == "yes":
            decision = "yes"
            witness = outcome.witness
            stats.solved_by = "trivial-yes"
        elif outcome is not None and outcome.kind == "no":
            decision = "no"
            stats.solved_by = "trivial-no"
        else:
            # one workspace for the whole search
            ws = Workspace(root.base.graph)
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
        check = validate_solution(original, witness)
        if not check.ok:
            raise AssertionError(
                f"internal error: witness rejected ({check.violation})")
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return decision, witness, stats
