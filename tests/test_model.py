import random

import pytest

from pathpack import PackingInstance, Solution, from_packing, validate_solution
from pathpack import SolverConfig, Workspace
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


@pytest.mark.parametrize("k", [1, 2, 7])
def test_from_packing_bare_lists(gex, k):
    ci = from_packing(PackingInstance(gex, vid(1), vid(5), k, 5))
    assert ci.lists == tuple((vid(1), vid(5)) for _ in range(k))


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
    positions = {10: 1, 30: 2, 20: 3}  # list (10, 30, 20)
    assert store.forbids(0, positions, 1, 7)
    assert store.forbids(0, positions, 2, 7)
    assert not store.forbids(0, positions, 1, 8)
    # same vertices, different list: not matched
    assert not store.forbids(1, positions, 1, 7)
    # b before the gap: not spanned
    positions2 = {10: 2, 20: 1}
    assert not store.forbids(0, positions2, 1, 7)


def _forbids_by_scan(items, list_index, positions, gap, x):
    """The definition of IntervalStore.forbids, read over every interval."""
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
            entries = rng.sample(range(nv), rng.randrange(2, nv + 1))
            positions = {v: i for i, v in enumerate(entries, start=1)}
            li = rng.randrange(lists)
            gap = rng.randrange(1, len(entries))
            x = rng.randrange(nv)
            want = _forbids_by_scan(live, li, positions, gap, x)
            assert store.forbids(li, positions, gap, x) == want
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
