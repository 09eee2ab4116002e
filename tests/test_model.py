import random

import pytest

from pathpack import PackingInstance, Solution, from_packing, validate_solution
from pathpack import SolverConfig, Workspace, format_graph, parse_graph
from pathpack.graph import _FlatRows
from pathpack.model import CheckpointInstance, IntervalStore
from pathpack.search import node_infeasible

from conftest import vid, vids


def _inst(gex, k=2, ell=5):
    return PackingInstance(gex, vid(1), vid(5), k, ell)


# ---------------------------------------------------------------------------
# instances and lists
# ---------------------------------------------------------------------------

def test_instance_validation(gex):
    with pytest.raises(ValueError):
        PackingInstance(gex, 0, 0, 2, 5)
    with pytest.raises(ValueError):
        PackingInstance(gex, 0, 99, 2, 5)
    with pytest.raises(ValueError):
        PackingInstance(gex, 0, 4, 0, 5)
    with pytest.raises(ValueError):
        PackingInstance(gex, 0, 4, 2, 0)


@pytest.mark.parametrize("k", [1, 2, 7, 1200])
def test_from_packing_bare_lists(gex, k):
    # from_packing skips the constructor checks, so it must come out
    # exactly as the checked constructor would build it
    inst = PackingInstance(gex, vid(1), vid(5), k, 5)
    ci = from_packing(inst)
    assert ci.lists == tuple((vid(1), vid(5)) for _ in range(k))
    checked = CheckpointInstance(inst, ((vid(1), vid(5)),) * k)
    assert ci == checked
    assert hash(ci) == hash(checked)
    assert type(ci) is CheckpointInstance
    with pytest.raises(ValueError):  # one list too few
        CheckpointInstance(inst, ((vid(1), vid(5)),) * (k - 1))
    with pytest.raises(ValueError):  # reversed terminals
        CheckpointInstance(inst, ((vid(5), vid(1)),) * k)


def test_checkpoint_list_invariants(gex):
    base = _inst(gex)
    with pytest.raises(ValueError):  # does not start at s
        CheckpointInstance(base, ((vid(2), vid(5)), (vid(1), vid(5))))
    with pytest.raises(ValueError):  # terminal as interior checkpoint
        CheckpointInstance(base, ((vid(1), vid(5), vid(5)), (vid(1), vid(5))))
    with pytest.raises(ValueError):  # checkpoint shared across lists
        CheckpointInstance(base, ((vid(1), vid(3), vid(5)),
                                  (vid(1), vid(3), vid(5))))


def test_insertion_keeps_invariants(gex):
    ci = from_packing(_inst(gex))
    child = ci.with_insertion(1, 1, vid(2))
    assert child.lists[1] == vids(1, 2, 5)
    assert child.lists[0] == vids(1, 5)
    grand = child.with_insertion(1, 2, vid(9))
    assert grand.lists[1] == vids(1, 2, 9, 5)
    assert grand.base is ci.base



def test_insertion_child_equals_checked_instance(gex):
    # children skip the constructor checks, so they must come out exactly
    # as the checked constructor would build them
    ci = from_packing(_inst(gex))
    child = ci.with_insertion(0, 1, vid(3)).with_insertion(1, 1, vid(9))
    checked = CheckpointInstance(child.base, child.lists)
    assert child == checked
    assert hash(child) == hash(checked)
    assert type(child) is CheckpointInstance


def test_too_long_lists(gex):
    # a path of length <= ell visits at most ell + 1 list entries; the
    # check lives in search.node_infeasible, with every other bound off
    bare = SolverConfig(b_sp=False)
    dist = Workspace(gex).distance_row
    base = _inst(gex, k=1, ell=5)
    ci = CheckpointInstance(base, (vids(1, 2, 9, 10, 11, 3, 5),))
    assert node_infeasible(ci, bare, dist) == "len"
    ci = CheckpointInstance(base, (vids(1, 2, 9, 10, 11, 5),))
    assert node_infeasible(ci, bare, dist) is None
    ci = from_packing(PackingInstance(gex, vid(1), vid(2), 1, 1))
    assert node_infeasible(ci, bare, dist) is None


# ---------------------------------------------------------------------------
# interval store scoping
# ---------------------------------------------------------------------------

def test_interval_store_scoped_stack():
    store = IntervalStore()
    outer = store.mark()
    store.push(0, 1, 5, 3)
    inner = store.mark()
    store.push(0, 1, 5, 4)
    assert store.mark() == 2
    store.pop_to(inner)
    assert store.mark() == 1
    store.pop_to(outer)
    assert store.mark() == 0


def test_interval_matching_spans_positions():
    store = IntervalStore()
    store.push(0, 10, 20, 7)
    entries = (10, 30, 20)
    assert store.forbids(0, entries, 1, 7)
    assert store.forbids(0, entries, 2, 7)
    assert not store.forbids(0, entries, 1, 8)
    # same vertices, different list: not matched
    assert not store.forbids(1, entries, 1, 7)
    # b before the gap: not spanned
    assert not store.forbids(0, (20, 10), 1, 7)
    # an endpoint missing from the list: not spanned
    assert not store.forbids(0, (10, 30), 1, 7)


def _forbids_by_scan(items, list_index, entries, gap, x):
    """The definition of IntervalStore.forbids, read over every interval:
    ``a`` at a 1-based position <= gap of ``entries``, ``b`` after it."""
    positions = {v: i for i, v in enumerate(entries, start=1)}
    for li, a, b, y in items:
        pa, pb = positions.get(a), positions.get(b)
        if (li == list_index and y == x and pa is not None and pb is not None
                and pa <= gap < pb):
            return True
    return False


@pytest.mark.parametrize("seed", range(20))
def test_interval_store_index_matches_scan(seed):
    """Random push / mark / pop_to / forbids sequences: the indexed store
    answers every query as a scan over the live intervals does."""
    rng = random.Random(seed)
    nv, lists = rng.randrange(4, 12), rng.randrange(1, 4)
    store = IntervalStore()
    live = []   # the intervals a plain stack would hold
    marks = []
    queries = hits = 0
    for _ in range(400):
        op = rng.random()
        if op < 0.35:
            li = rng.randrange(lists)
            a, b, x = rng.sample(range(nv), 3)
            store.push(li, a, b, x)
            live.append((li, a, b, x))
        elif op < 0.45:
            marks.append(store.mark())
            assert marks[-1] == len(live)
        elif op < 0.55 and marks:
            mark = marks.pop()
            store.pop_to(mark)
            del live[mark:]
        else:
            entries = tuple(rng.sample(range(nv), rng.randrange(2, nv + 1)))
            li = rng.randrange(lists)
            gap = rng.randrange(1, len(entries))
            x = rng.randrange(nv)
            want = _forbids_by_scan(live, li, entries, gap, x)
            assert store.forbids(li, entries, gap, x) == want
            queries += 1
            hits += want
        assert store.mark() == len(live)
    store.pop_to(0)
    assert store.mark() == 0
    assert queries > 0 and hits > 0


def test_interval_endpoints_checked():
    store = IntervalStore()
    with pytest.raises(ValueError):
        store.push(0, 1, 5, 1)
    with pytest.raises(ValueError):
        store.push(0, 1, 5, 5)
    assert store.mark() == 0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_worked_solution(gex):
    ci = from_packing(_inst(gex))
    sol = Solution((vids(1, 6, 7, 8, 4, 5), vids(1, 2, 9, 10, 11, 5)))
    assert validate_solution(ci, sol)


def test_validate_rejects_shared_internal_vertex(gex):
    ci = from_packing(_inst(gex))
    sol = Solution((vids(1, 6, 7, 8, 4, 5), vids(1, 2, 3, 4, 5)))
    report = validate_solution(ci, sol)
    assert not report
    assert "share" in report.violation


def test_validate_rejects_length_bound(gex):
    ci = from_packing(_inst(gex, ell=4))
    sol = Solution((vids(1, 6, 7, 8, 4, 5), vids(1, 2, 9, 10, 11, 5)))
    report = validate_solution(ci, sol)
    assert not report and "length" in report.violation


def test_validate_rejects_non_edges_and_revisits(gex):
    ci = from_packing(_inst(gex))
    assert not validate_solution(
        ci, Solution((vids(1, 5), vids(1, 2, 9, 10, 11, 5))))
    assert not validate_solution(
        ci, Solution((vids(1, 2, 1, 2, 3, 4, 5), vids(1, 6, 7, 8, 4, 5))))


def test_validate_rejects_duplicate_paths():
    from pathpack import Graph
    g = Graph(2, [(0, 1)])
    ci = from_packing(PackingInstance(g, 0, 1, 2, 1))
    report = validate_solution(ci, Solution(((0, 1), (0, 1))))
    assert not report and "identical" in report.violation


def test_validate_names_the_first_collision_of_three_paths(gex):
    # paths 0 and 1 are disjoint; path 2 meets path 1 at v2 first, and
    # path 0 at v4 later: the report names path 2's first shared vertex
    ci = from_packing(_inst(gex, k=3, ell=9))
    sol = Solution((vids(1, 6, 7, 8, 4, 5), vids(1, 2, 9, 10, 11, 5),
                    vids(1, 2, 3, 4, 5)))
    report = validate_solution(ci, sol)
    assert report.violation == f"paths 1 and 2 share internal vertex {vid(2)}"
    # a repeated path is named as identical, also without internal vertices
    from pathpack import Graph
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    ci = from_packing(PackingInstance(g, 0, 1, 3, 2))
    report = validate_solution(ci, Solution(((0, 1), (0, 2, 1), (0, 1))))
    assert report.violation == "paths 0 and 2 are identical"
    report = validate_solution(ci, Solution(((0, 1), (0, 2, 1), (0, 2, 1))))
    assert report.violation == "paths 1 and 2 are identical"


def test_validate_checkpoint_order(gex):
    base = _inst(gex)
    ci = CheckpointInstance(base, ((vid(1), vid(4), vid(5)), (vid(1), vid(5))))
    good = Solution((vids(1, 2, 3, 4, 5), vids(1, 6, 7, 8, 4, 5)))
    # second path passes through v4, which is a checkpoint of list 1: the
    # paths share an internal vertex, so this must fail disjointness
    assert not validate_solution(ci, good)
    ok = Solution((vids(1, 2, 3, 4, 5), vids(1, 6, 7, 8, 4, 5)))
    # fresh check against bare lists: shares v4 internally as well
    assert not validate_solution(from_packing(base), ok)
    fine = Solution((vids(1, 2, 3, 4, 5), vids(1, 6, 7, 8, 4, 5)))
    report = validate_solution(
        CheckpointInstance(base, ((vid(1), vid(3), vid(5)), (vid(1), vid(5)))),
        Solution((vids(1, 2, 3, 4, 5), vids(1, 2, 9, 10, 11, 5))))
    # second path omits nothing required; but both use v2 internally
    assert not report


def test_validate_checkpoint_missing_or_out_of_order(gex):
    base = _inst(gex, k=1)
    ci = CheckpointInstance(base, ((vid(1), vid(9), vid(5)),))
    assert not validate_solution(ci, Solution((vids(1, 2, 3, 4, 5),)))
    ci2 = CheckpointInstance(base, ((vid(1), vid(3), vid(5)),))
    assert validate_solution(ci2, Solution((vids(1, 2, 3, 4, 5),)))


# The violation table: one witness per rule, on the worked graph (s = v1,
# t = v5, k = 2, ell = 5 unless a row says otherwise).  A and B are
# disjoint, and C shares v2 with B and v4 with A.  Each row names the
# checkpoint lists its paths meet except for the rule under test; a row
# whose rule is not about checkpoints also runs with bare lists, and a
# checkpoint row only with interior ones, which the bare-list shortcut of
# the order check does not touch.
_A, _B, _C = vids(1, 6, 7, 8, 4, 5), vids(1, 2, 9, 10, 11, 5), vids(1, 2, 3, 4, 5)
_AB_LISTS = (vids(1, 7, 5), vids(1, 10, 5))
_VIOLATIONS = [
    # (rule, ell, paths, interior lists, violation, also with bare lists)
    ("path count", 5, (_A,), _AB_LISTS, "expected 2 paths, got 1", True),
    ("short path", 5, (_A, vids(1)), _AB_LISTS,
     "path 1 has fewer than two vertices", True),
    ("endpoints", 5, (_A, vids(1, 2, 9, 10, 11)), _AB_LISTS,
     "path 1: endpoints are not (s, t)", True),
    ("revisit", 5, (_A, vids(1, 2, 9, 2, 3, 4, 5)), _AB_LISTS,
     "path 1 revisits a vertex", True),
    ("revisit of s", 5, (vids(1, 2, 1, 6, 7, 8, 4, 5), _B), _AB_LISTS,
     "path 0 revisits a vertex", True),
    ("out of range, high first", 5, (_A, (vid(1), 20, -3, vid(5))),
     _AB_LISTS, "path 1: vertex 20 out of range", True),
    ("out of range, low first", 5, (_A, (vid(1), -3, 20, vid(5))),
     _AB_LISTS, "path 1: vertex -3 out of range", True),
    ("non-edge", 5, (_A, vids(1, 2, 9, 11, 5)), _AB_LISTS,
     f"path 1: ({vid(9)},{vid(11)}) is not an edge", True),
    ("too long", 4, (_A, _B), _AB_LISTS, "path 0: length 5 exceeds 4", True),
    ("checkpoint missing", 5, (_A, _B), (vids(1, 7, 5), vids(1, 3, 5)),
     f"path 1: checkpoint {vid(3)} missing", False),
    ("checkpoint out of order", 5, (_A, _B), (vids(1, 7, 5), vids(1, 10, 9, 5)),
     f"path 1: checkpoint {vid(9)} out of order", False),
    # a terminal as an interior checkpoint: the checked constructor refuses
    # such a list, and the order check reports it, since it places each
    # interior entry strictly between two others, never at a terminal
    ("checkpoint at a terminal", 5, (_A, _B), (vids(1, 1, 7, 5), vids(1, 10, 5)),
     f"path 0: checkpoint {vid(1)} out of order", False),
    ("shared internal vertex", 5, (_A, _C), (vids(1, 7, 5), vids(1, 3, 5)),
     f"paths 0 and 1 share internal vertex {vid(4)}", True),
    ("identical paths", 5, (_A, _A), (vids(1, 7, 5), vids(1, 8, 5)),
     "paths 0 and 1 are identical", True),
]
_VIOLATION_CASES = [
    pytest.param(rule, ell, paths, lists, violation, id=f"{rule}-{kind}")
    for rule, ell, paths, interior, violation, bare_too in _VIOLATIONS
    for kind, lists in (("bare", None), ("interior", interior))
    if lists is not None or bare_too]


@pytest.fixture(params=["tuple rows", "flat rows"])
def any_gex(request, gex):
    """The worked graph as built from edges, and as parsed from its text."""
    if request.param == "tuple rows":
        return gex
    parsed = parse_graph(format_graph(gex))
    assert isinstance(parsed.adj, _FlatRows)
    return parsed


@pytest.mark.parametrize("rule, ell, paths, lists, violation",
                         _VIOLATION_CASES)
def test_validate_violation_table(any_gex, rule, ell, paths, lists,
                                  violation):
    base = _inst(any_gex, ell=ell)
    if lists is None:
        ci = from_packing(base)
    elif rule == "checkpoint at a terminal":
        with pytest.raises(ValueError):
            CheckpointInstance(base, lists)
        ci = CheckpointInstance._trusted(base, lists)
    else:
        ci = CheckpointInstance(base, lists)
    report = validate_solution(ci, Solution(paths))
    assert not report.ok
    assert report.violation == violation


@pytest.mark.parametrize("paths, violation", [
    # paths 0 and 1 share v4, and path 2 takes the non-edge v9-v11: every
    # per-path check runs before the disjointness pass
    ((_A, _C, vids(1, 2, 9, 11, 5)),
     f"path 2: ({vid(9)},{vid(11)}) is not an edge"),
    # path 1 takes the non-edge v9-v11 before its out-of-range vertex: the
    # range check covers the whole path before any edge is read
    ((_A, (vid(1), vid(2), vid(9), vid(11), 20, vid(5)), _C),
     "path 1: vertex 20 out of range"),
])
def test_validate_reports_the_first_check_that_fires(any_gex, paths,
                                                     violation):
    ci = from_packing(_inst(any_gex, k=3, ell=5))
    report = validate_solution(ci, Solution(paths))
    assert report.violation == violation


@pytest.mark.parametrize("lists", [None, _AB_LISTS])
def test_validate_accepts_on_both_layouts(any_gex, lists):
    base = _inst(any_gex)
    ci = from_packing(base) if lists is None else CheckpointInstance(base,
                                                                     lists)
    assert validate_solution(ci, Solution((_A, _B))).ok
