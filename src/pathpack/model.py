"""Problem instances, checkpoint lists, forbidden intervals, solutions, and
solver-independent solution validation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import Graph

__all__ = [
    "PackingInstance",
    "CheckpointInstance",
    "Solution",
    "IntervalStore",
    "from_packing",
    "validate_solution",
]


@dataclass(frozen=True)
class PackingInstance:
    """Decide: are there k internally vertex-disjoint s-t paths in ``graph``,
    each of length at most ``ell``?"""

    graph: Graph
    s: int
    t: int
    k: int
    ell: int

    def __post_init__(self):
        self.graph.check_vertex(self.s)
        self.graph.check_vertex(self.t)
        if self.s == self.t:
            raise ValueError("terminals s and t must differ")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.ell < 1:
            raise ValueError("ell must be at least 1")


class IntervalStore:
    """Scoped stack of forbidden intervals.

    An interval (list_index, a, b, x) records that inserting ``x`` between
    entries ``a`` and ``b`` of list ``list_index`` was refuted: within the
    current scope, that list's path can never visit a, x, b in this order.

    Intervals are list-scoped.  For interior a, b this changes nothing (an
    interior checkpoint occurs in exactly one list), but a plain (s, t, x)
    triple would also match every other list, and banning x there is wrong
    when the lists are not interchangeable: the refuted child only proves
    that no solution routes x on THIS list's path.

    The search owns one store per solve, and is the only code that pushes,
    pops and reads it.  A search node takes a mark on entry, pushes one
    interval after each refuted child, and truncates back to its mark on
    exit, so an interval is visible exactly to the later siblings of the
    refuted child and to their subtrees.  The intervals are plain tuples on a stack, indexed by
    (list_index, x) so that a lookup reads only the intervals that can
    match.
    """

    def __init__(self):
        self._items: list[tuple[int, int, int, int]] = []
        # (list_index, x) -> [(a, b), ...] in push order
        self._ends: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def mark(self) -> int:
        return len(self._items)

    def push(self, list_index: int, a: int, b: int, x: int) -> None:
        if x == a or x == b:
            raise ValueError("interval vertex must differ from its endpoints")
        self._items.append((list_index, a, b, x))
        self._ends.setdefault((list_index, x), []).append((a, b))

    def pop_to(self, mark: int) -> None:
        items = self._items
        while len(items) > mark:
            list_index, _, _, x = items.pop()
            # the stack is LIFO, so the popped interval is its key's last
            key = (list_index, x)
            ends = self._ends[key]
            ends.pop()
            if not ends:
                del self._ends[key]

    def forbids(self, list_index: int, positions: dict[int, int], gap: int,
                x: int) -> bool:
        """True if some stored interval (a, b, x) for this list has ``a`` at
        position <= gap and ``b`` at position >= gap + 1.

        ``positions`` maps vertex -> 1-based position in the checkpoint list
        under consideration; ``gap`` is the 1-based index of the subpath slot
        between positions gap and gap + 1.
        """
        ends = self._ends.get((list_index, x))
        if ends is not None:
            for a, b in ends:
                pa = positions.get(a)
                pb = positions.get(b)
                if pa is not None and pb is not None and pa <= gap < pb:
                    return True
        return False


def check_checkpoint_list(entries: Sequence[int], s: int, t: int) -> None:
    """Raise unless ``entries`` is a valid checkpoint list for (s, t)."""
    if len(entries) < 2 or entries[0] != s or entries[-1] != t:
        raise ValueError("checkpoint list must start at s and end at t")
    interior = entries[1:-1]
    if len(set(interior)) != len(interior):
        raise ValueError("interior checkpoints must be distinct")
    if s in interior or t in interior:
        raise ValueError("terminals cannot be interior checkpoints")


@dataclass(frozen=True)
class CheckpointInstance:
    """A search-tree node's state: base instance and k checkpoint lists.
    The forbidden intervals, scoped to a node's later siblings, live in the
    search's own :class:`IntervalStore`.

    Interior checkpoints are globally distinct across lists: the branching
    rules exclude already-listed vertices, so no vertex is inserted twice.
    """

    base: PackingInstance
    lists: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.lists) != self.base.k:
            raise ValueError("need exactly k checkpoint lists")
        seen: set[int] = set()
        for entries in self.lists:
            check_checkpoint_list(entries, self.base.s, self.base.t)
            for v in entries[1:-1]:
                self.base.graph.check_vertex(v)
                if v in seen:
                    raise ValueError(
                        f"checkpoint {v} appears in more than one list")
                seen.add(v)

    def checkpoint_union(self) -> set[int]:
        """All list entries across lists, terminals included."""
        out: set[int] = set()
        for entries in self.lists:
            out.update(entries)
        return out

    def with_insertion(self, list_index: int, pos: int,
                       v: int) -> "CheckpointInstance":
        """New instance with ``v`` spliced into list ``list_index`` before
        0-based position ``pos``."""
        entries = self.lists[list_index]
        new_entries = entries[:pos] + (v,) + entries[pos:]
        new_lists = (self.lists[:list_index] + (new_entries,)
                     + self.lists[list_index + 1:])
        # the parent passed the checks and the branching rules only insert
        # unlisted non-terminal vertices, so the child skips __post_init__
        child = object.__new__(CheckpointInstance)
        object.__setattr__(child, "base", self.base)
        object.__setattr__(child, "lists", new_lists)
        return child


def from_packing(inst: PackingInstance) -> CheckpointInstance:
    """Wrap a plain instance: k bare lists (s, t)."""
    bare = (inst.s, inst.t)
    return CheckpointInstance(inst, tuple(bare for _ in range(inst.k)))


@dataclass(frozen=True)
class Solution:
    """A witness: k vertex sequences, validatable independently of how they
    were found."""

    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _bad(reason: str) -> ValidationReport:
    return ValidationReport(False, reason)


def validate_solution(inst: CheckpointInstance, sol: Solution) -> ValidationReport:
    """Check a claimed witness against the instance definition only.

    Edge existence is checked against the original graph; no solver state
    (masks, intervals, statistics) is consulted.  Never raises on
    well-formed inputs; returns the first violation found.
    """
    g = inst.base.graph
    s, t, k, ell = inst.base.s, inst.base.t, inst.base.k, inst.base.ell
    if len(sol.paths) != k:
        return _bad(f"expected {k} paths, got {len(sol.paths)}")
    for i, path in enumerate(sol.paths):
        if len(path) < 2:
            return _bad(f"path {i} has fewer than two vertices")
        if path[0] != s or path[-1] != t:
            return _bad(f"path {i}: endpoints are not (s, t)")
        if len(set(path)) != len(path):
            return _bad(f"path {i} revisits a vertex")
        for v in path:
            if not (0 <= v < g.n):
                return _bad(f"path {i}: vertex {v} out of range")
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                return _bad(f"path {i}: ({a},{b}) is not an edge")
        if len(path) - 1 > ell:
            return _bad(f"path {i}: length {len(path) - 1} exceeds {ell}")
        # the path must visit its list's entries in order, interior
        # checkpoints at interior positions
        pos = {v: j for j, v in enumerate(path)}
        prev = -1
        for entry in inst.lists[i]:
            at = pos.get(entry)
            if at is None:
                return _bad(f"path {i}: checkpoint {entry} missing")
            if at <= prev:
                return _bad(f"path {i}: checkpoint {entry} out of order")
            prev = at
        for entry in inst.lists[i][1:-1]:
            if pos[entry] in (0, len(path) - 1):
                return _bad(f"path {i}: checkpoint {entry} at a terminal")
    for i in range(k):
        for j in range(i + 1, k):
            if sol.paths[i] == sol.paths[j]:
                return _bad(f"paths {i} and {j} are identical")
            shared = (set(sol.paths[i]) & set(sol.paths[j])) - {s, t}
            if shared:
                v = min(shared)
                return _bad(f"paths {i} and {j} share internal vertex {v}")
    return ValidationReport(True)
