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
that the search owns; a node drops its children's intervals when it fails.
The deadline is checked at every node entered, the root included, and so
also at every child refuted by the entry rules.
Everything is deterministic for a fixed (instance, config) pair;
tie-breaking is ascending vertex id throughout.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Any, Callable, Generator, NamedTuple, Optional, Sequence

from .config import SolverConfig, SolveStats, SolveTimeout, _check
from .graph import Graph, Workspace
from .greedy import GreedyFailure, run_greedy
from .model import (CheckpointInstance, IntervalStore, PackingInstance,
                    Solution, from_packing, validate_solution)
from .preprocess import detect_on_input, detect_trivial, reduce_instance

__all__ = ["solve", "node_infeasible"]

_RULES = ("len", "bsp")  # entry checks, in the order they apply


class Candidate(NamedTuple):
    """One child insertion: splice ``vertex`` into list ``list_index`` at
    0-based position ``pos``, splitting the consecutive pair (u, u2) =
    ``lists[list_index][pos - 1:pos + 1]``.  ``gaps`` is gap(u, vertex) +
    gap(vertex, u2), the unmasked distances, an unreachable side counting
    ``graph.FAR``."""

    list_index: int
    pos: int
    vertex: int
    gaps: int


# vertex -> its unmasked distance row (graph.FAR = unreachable), such as
# Workspace.distance_row; branch ranks candidates by it (c-dist) and
# node_infeasible bounds lists by it (b-sp)
DistFn = Callable[[int], Sequence[int]]
Paths = tuple[tuple[int, ...], ...]


def _ranked(u: int, u2: int, pool: list[int], cfg: SolverConfig,
            dist_fn: DistFn) -> list[tuple[int, int]]:
    """(gap sum, vertex) for each pool vertex spliced between u and u2, in
    branching order: with c-dist by ascending gap sum (an unreachable gap
    counting ``graph.FAR``), ties by vertex id; otherwise by vertex id."""
    du, du2 = dist_fn(u), dist_fn(u2)
    keyed = [(du[v] + du2[v], v) for v in pool]
    keyed.sort(key=None if cfg.c_dist else itemgetter(1))
    return keyed


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
    its pool's vertices in through :func:`_ranked`.

    Rule 1, NO_SUBPATH (at most k * ell children): the missing subpath must
    use a consumed vertex; one slot, the break position (i_beta, j_beta).
    Rule 2, OVERLONG (at most k * ell^2): some subpath up to the break went
    wrong; positions 1..j_beta of list i_beta, each pool skipping the
    position's own subpath, with c-pl by descending greedy subpath length
    (the rejected one at its actual length), else by ascending position.
    Rule 3, CUT_TOO_SMALL (at most k^2 * ell^2): after a failed separator
    check some pending list's path must use a consumed vertex; one slot
    per list i_beta..k, its (s, t) at position 1, all with the one pool of
    the completed paths' vertices, so the lists share one ranking.
    """
    cp_union = inst.checkpoint_union()
    li, j_b = fail.i_beta - 1, fail.j_beta
    entries = inst.lists[li]
    rule = fail.condition.value
    if rule == 3:
        # a CUT failure has no partial subpaths, and the separator check's
        # gate keeps every pending list bare, (s, t) like this one
        ranked = _ranked(entries[0], entries[1], _pool_base(fail, cp_union),
                         cfg, dist_fn)
        return [Candidate(i, 1, v, gaps)
                for i in range(li, inst.base.k) for gaps, v in ranked]
    if rule == 1:
        slots = [(j_b, _pool_base(fail, cp_union))]
    else:
        lengths = [len(q) - 1 for q in fail.partial_subpaths]
        lengths.append(fail.overlong_len or 0)
        positions = range(1, j_b + 1)
        if cfg.c_pl:  # a stable sort keeps equal lengths by position
            positions = sorted(positions, key=lambda j: -lengths[j - 1])
        slots = [(j, _pool_base(fail, cp_union, skip_subpath=j))
                 for j in positions]
    return [Candidate(li, j, v, gaps) for j, pool in slots
            for gaps, v in _ranked(entries[j - 1], entries[j], pool, cfg,
                                   dist_fn)]


def _gap_sum(entries: tuple[int, ...], dist_fn: DistFn) -> int:
    """The sum of one list's unmasked gap distances, an unreachable gap
    counting ``graph.FAR``."""
    return sum(dist_fn(a)[b] for a, b in zip(entries, entries[1:]))


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
    shortest-path lengths between consecutive entries (unmasked graph, an
    unreachable gap counting ``graph.FAR``) already sum past ell.

    Each rule reads one list at a time, and 'bsp' reads one count per list,
    its gap sum; so a child, which differs from its parent in one list,
    needs the rules on that list only: the search carries each list's gap
    sum down the tree and applies them there through :func:`_list_verdict`.
    """
    ell = inst.base.ell
    verdicts = [_list_verdict(len(entries), _gap_sum(entries, dist_fn),
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

    def _enter(self, depth: int) -> None:
        """A node's bookkeeping on entry, before its checks: the deadline
        is checked here, once per node entered (_check's test written
        out)."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise SolveTimeout
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
        self.gaps = [_gap_sum(entries, self.row) for entries in root.lists]
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
        """Expand a node that passed its entry checks: the k paths when a
        greedy below succeeds, else None, after popping the intervals its
        children recorded."""
        stats = self.stats
        cfg = self.cfg
        outcome = run_greedy(inst, cfg, self.ws)
        if not isinstance(outcome, GreedyFailure):
            return outcome

        candidates = branch(outcome, inst, cfg, self.row)
        rule = outcome.condition.value
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
        mark = self.store.mark()
        for li, pos, v, new_gaps in candidates:
            entries = inst.lists[li]
            # an active forbidden interval refutes the insertion: the
            # vertex between its endpoints forces a refuted order
            if cfg.b_fi and self.store.forbids(li, entries, pos, v):
                stats.bfi_masked += 1
                continue
            self._enter(depth + 1)
            u, u2 = entries[pos - 1], entries[pos]
            # the child's gap sum on the one list it changes
            size = len(entries) + 1
            old_gaps = gaps[li]
            child_gaps = old_gaps - self.row(u)[u2] + new_gaps
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
        # the intervals this node's children recorded are scoped to them;
        # a found packing ends the search, and so does a timeout, so only
        # this exit drops them
        self.store.pop_to(mark)
        return None


def _decide(inst: PackingInstance, cfg: SolverConfig, stats: SolveStats,
            deadline: Optional[float],
            ) -> tuple[str, Optional[Solution], str]:
    """The root steps of :func:`solve`, in order, each an early return of
    (decision, witness, solved_by), the witness in ``inst``'s ids.  Raises
    :class:`SolveTimeout` once the deadline has passed."""
    g, s, t, k, ell = inst.graph, inst.s, inst.t, inst.k, inst.ell
    if k >= g.n:
        # k internally disjoint paths need k - 1 distinct internal vertices
        # besides at most one direct s-t edge, and there are only n - 2;
        # answered before anything of size k is built or the edge taken out
        return "no", None, "trivial-no"
    if g.has_edge(s, t):
        # a packing holds (s, t) at most once, and one without it may drop
        # any path: (G, k, ell) is yes exactly when (G - st, k - 1, ell) is
        if k == 1:
            return "yes", Solution(((s, t),)), "trivial-yes"
        below = PackingInstance(g.without_edge(s, t), s, t, k - 1, ell)
        decision, witness, solved_by = _decide(below, cfg, stats, deadline)
        if witness is not None:
            witness = Solution(((s, t),) + witness.paths)
        return decision, witness, solved_by
    bare = from_packing(inst)
    if cfg.trivial_detection:
        # decided on the input graph, before the reduction builds anything
        outcome = detect_on_input(bare, deadline)
        if outcome.kind != "unknown":
            return outcome.kind, outcome.witness, f"trivial-{outcome.kind}"
    report = None
    if cfg.preprocess:
        root, report = reduce_instance(bare)
        stats.n_after, stats.m_after = report.n_after, report.m_after
    else:
        # the layers below read a row per dequeue: tuple rows of the whole
        # graph, built once (a tuple row is its own tuple())
        root = from_packing(PackingInstance(
            Graph.from_sorted_rows(map(tuple, g.adj)), s, t, k, ell))
    # either step may walk the whole graph, so the deadline bounds it
    _check(deadline)
    # the flow's witness and the search's are in the reduced ids
    if cfg.trivial_detection:
        outcome = detect_trivial(root)
        if outcome.kind == "no":
            return "no", None, "trivial-no"
    if cfg.trivial_detection and outcome.kind == "yes":
        witness, solved_by = outcome.witness, "trivial-yes"
    else:
        # one workspace for the whole search
        paths = _TreeSearch(root, cfg, stats, deadline,
                            Workspace(root.base.graph)).run()
        if paths is None:
            return "no", None, "search"
        witness = Solution(paths)
        solved_by = "greedy" if stats.nodes == 1 else "search"
    if report is not None:
        witness = report.solution_to_original(witness)
    return "yes", witness, solved_by


def solve(inst: PackingInstance,
          cfg: Optional[SolverConfig] = None,
          ) -> tuple[str, Optional[Solution], SolveStats]:
    """Decide an instance.

    The root steps run in order, and the first that decides sets
    ``stats.solved_by``:

    - k >= n answers no (``trivial-no``);
    - a direct s-t edge answers yes at k = 1 (``trivial-yes``); otherwise
      it is taken out with one of the k paths and put first in the witness,
      so that no step below sees adjacent terminals;
    - with trivial detection on, :func:`detect_on_input` on the input graph
      and then, after the reduction (with preprocessing on), the flow of
      :func:`detect_trivial` answer yes or no (``trivial-yes``,
      ``trivial-no``);
    - the search answers yes (``greedy`` when its root greedy succeeds,
      else ``search``) or no (``search``);
    - ``timeout_ms`` is checked after each search of the input-graph
      step, after the reduction and at every search node entered, and a
      passed deadline answers 'timeout' (``timeout``).

    ``n_after == n_before`` and ``m_after == m_before`` whenever no
    reduction ran.  Returns (decision, witness, stats) with decision one of
    'yes', 'no', 'timeout'.  A 'yes' always carries a witness that validates
    against the original instance; 'no' means exhaustive refutation;
    'timeout' claims neither.
    """
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    stats = SolveStats()
    stats.n_before = stats.n_after = inst.graph.n
    stats.m_before = stats.m_after = inst.graph.m
    deadline = (t0 + cfg.timeout_ms / 1000.0
                if cfg.timeout_ms is not None else None)
    try:
        decision, witness, stats.solved_by = _decide(inst, cfg, stats,
                                                     deadline)
    except SolveTimeout:
        decision, witness, stats.solved_by = "timeout", None, "timeout"
    if witness is not None:
        check = validate_solution(from_packing(inst), witness)
        if not check.ok:
            raise AssertionError(
                f"internal error: witness rejected ({check.violation})")
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return decision, witness, stats
