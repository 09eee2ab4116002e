import dataclasses
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pathpack import (Graph, PackingInstance, SolverConfig, Workspace,
                      config_from_name, from_packing, parse_graph, random_gnp,
                      validate_solution)
from pathpack.graph import FAR
from pathpack.greedy import FailureCondition, GreedyFailure
from pathpack.model import CheckpointInstance
from pathpack.oracle import oracle_decide
from pathpack.preprocess import detect_on_input
from pathpack.search import branch, node_infeasible, solve

from conftest import GEX_EDGES_1BASED, greedy, grid_graph, vid, vids

PLAIN = SolverConfig(trivial_detection=False, d_ms=False,
                     b_fi=False, c_dist=False, c_pl=False)


def _dist_fn(g):
    return Workspace(g).distance_row


# ---------------------------------------------------------------------------
# node infeasibility tests
# ---------------------------------------------------------------------------

def test_infeasible_overfull_list(gex):
    base = PackingInstance(gex, vid(1), vid(5), 1, 5)
    entries = vids(1, 2, 9, 10, 11, 3, 5)  # 7 entries > ell + 1
    ci = CheckpointInstance(base, (entries,))
    dist = _dist_fn(gex)
    assert node_infeasible(ci, SolverConfig(), dist) == "len"
    # ell + 1 entries still fit a path of length ell
    bare = SolverConfig(b_sp=False)
    ci = CheckpointInstance(base, (vids(1, 2, 9, 10, 11, 5),))
    assert node_infeasible(ci, bare, dist) is None
    ci = from_packing(PackingInstance(gex, vid(1), vid(2), 1, 1))
    assert node_infeasible(ci, bare, dist) is None


def _adjacency_bound_fires(g, entries, ell):
    """The consecutive-adjacency bound, a rule the solver no longer runs:
    a list long enough that it needs at least 2(|L|-1) - ell adjacent
    consecutive pairs falls short of that count.  Non-adjacent distinct
    entries are at least 2 apart, so the gap sum is then past ell and the
    gap-sum bound (b-sp) refutes the list as well."""
    size = len(entries)
    adjacent = sum(g.has_edge(a, b) for a, b in zip(entries, entries[1:]))
    return size > ell // 2 + 1 and adjacent < 2 * (size - 1) - ell


def test_infeasible_consecutive_adjacency_bound(gex):
    base = PackingInstance(gex, vid(1), vid(5), 1, 5)
    ci = CheckpointInstance(base, (vids(1, 7, 10, 5),))
    assert _adjacency_bound_fires(gex, ci.lists[0], 5)
    # the gap-sum bound refutes what the adjacency bound did
    assert node_infeasible(ci, SolverConfig(b_sp=True), _dist_fn(gex)) == "bsp"
    # without the toggle no verdict
    assert node_infeasible(ci, SolverConfig(b_sp=False),
                           _dist_fn(gex)) is None


@pytest.mark.parametrize("seed", range(8))
def test_gap_sum_bound_implies_adjacency_bound(seed):
    """On random graphs and random valid checkpoint lists, every list the
    adjacency bound refutes is refuted by the default entry checks."""
    rng = random.Random(seed)
    fired = by_bsp = 0
    for _ in range(40):
        n = rng.randrange(6, 16)
        g = random_gnp(n, rng.choice((0.2, 0.35, 0.5)), rng.randrange(10**6))
        dist = _dist_fn(g)
        s, t = rng.sample(range(n), 2)
        interior = [v for v in range(n) if v not in (s, t)]
        rng.shuffle(interior)
        for ell in range(1, 13):
            k = rng.randrange(1, 4)
            lists, taken = [], 0
            for _ in range(k):
                size = rng.randrange(0, min(ell + 3, len(interior) - taken) + 1)
                lists.append((s, *interior[taken:taken + size], t))
                taken += size
            ci = CheckpointInstance(PackingInstance(g, s, t, k, ell),
                                    tuple(lists))
            if any(_adjacency_bound_fires(g, entries, ell)
                   for entries in ci.lists):
                fired += 1
                verdict = node_infeasible(ci, SolverConfig(), dist)
                assert verdict is not None, (seed, ci.lists, ell)
                by_bsp += verdict == "bsp"
    assert fired > 0 and by_bsp > 0


def test_infeasible_gap_distance_bound(gex):
    base = PackingInstance(gex, vid(1), vid(5), 1, 5)
    ci = CheckpointInstance(base, (vids(1, 10, 8, 5),))
    dist = _dist_fn(gex)
    # gap distances on the fixture: 3 + 4 + 2 = 9 > 5
    assert dist(vid(1))[vid(10)] == 3
    assert dist(vid(10))[vid(8)] == 4
    assert dist(vid(8))[vid(5)] == 2
    assert node_infeasible(ci, SolverConfig(b_sp=True), dist) == "bsp"


def test_infeasible_check_order(gex):
    # an overfull list wins over bsp regardless of toggles
    base = PackingInstance(gex, vid(1), vid(5), 1, 2)
    ci = CheckpointInstance(base, (vids(1, 7, 10, 5),))
    assert node_infeasible(ci, SolverConfig(b_sp=True),
                           _dist_fn(gex)) == "len"


# terminals 0 and 5 in different components: the root list's one gap is
# unreachable
_SPLIT = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])


def test_unreachable_distance_reads_far():
    ws = Workspace(_SPLIT)
    assert ws.distance_row(0) == [0, 1, 2, FAR, FAR, FAR]
    assert ws.distances_unmasked(5).tolist() == [FAR, FAR, FAR, 2, 1, 0]


@pytest.mark.parametrize("preprocess", [True, False])
@pytest.mark.parametrize("name,ell,bsp", [
    ("all", 3, 1), ("bare", 3, 0),
    # the far gap is not above ell, so b-sp lets the root through
    ("all", FAR, 0), ("all", 2 * FAR, 0),
])
def test_terminals_in_two_components_reach_the_search(name, ell, bsp,
                                                      preprocess):
    cfg = config_from_name(name, SolverConfig(trivial_detection=False,
                                              preprocess=preprocess))
    decision, witness, stats = solve(PackingInstance(_SPLIT, 0, 5, 1, ell),
                                     cfg)
    assert (decision, witness, stats.solved_by) == ("no", None, "search")
    assert (stats.nodes, stats.prunes_bsp, stats.prunes_len) == (1, bsp, 0)
    # the root's gap sum is the far value itself
    root = from_packing(PackingInstance(_SPLIT, 0, 5, 1, ell))
    assert node_infeasible(root, cfg, _dist_fn(_SPLIT)) == (
        "bsp" if bsp else None)


# ---------------------------------------------------------------------------
# branching rules
# ---------------------------------------------------------------------------

def test_branch_after_missing_subpath_fixture(gex):
    ci = from_packing(PackingInstance(gex, vid(1), vid(5), 2, 5))
    fail = greedy(ci, PLAIN)
    cands = branch(fail, ci, PLAIN, _dist_fn(gex))
    assert [c.vertex for c in cands] == list(vids(2, 3, 4))
    assert all(c.list_index == 1 and c.pos == 1 for c in cands)
    # c-dist ties on this instance: order unchanged
    cfg = SolverConfig(trivial_detection=False, d_ms=False, c_dist=True)
    cands2 = branch(fail, ci, cfg, _dist_fn(gex))
    assert [c.vertex for c in cands2] == list(vids(2, 3, 4))


def test_branch_empty_pool_refutes():
    g = Graph(3, [(0, 1), (1, 2)])
    ci = from_packing(PackingInstance(g, 0, 2, 2, 5))
    fail = greedy(ci, PLAIN)
    assert fail.condition is FailureCondition.NO_SUBPATH
    child = ci.with_insertion(1, 1, 1)  # list (s, a, t)
    inner = greedy(child, PLAIN)
    assert inner.condition is FailureCondition.NO_SUBPATH
    assert inner.i_beta == 1
    assert branch(inner, child, PLAIN, _dist_fn(g)) == []


def test_branch_overlong_empty_pool_at_first_subpath():
    # first and only subpath already too long: nothing to branch over
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    ci = from_packing(PackingInstance(g, 0, 3, 1, 2))
    fail = greedy(ci, PLAIN)
    assert fail.condition is FailureCondition.OVERLONG
    assert (fail.i_beta, fail.j_beta) == (1, 1)
    assert branch(fail, ci, PLAIN, _dist_fn(g)) == []
    assert solve(PackingInstance(g, 0, 3, 1, 2), PLAIN)[0] == "no"


def test_branch_cut_empty_pool_before_first_path():
    # separator check fires before any path exists: immediate refutation
    g = Graph(3, [(0, 1), (1, 2)])
    cfg = SolverConfig(trivial_detection=False, b_sp=False, b_fi=False,
                       c_dist=False, c_pl=False)
    decision, _, stats = solve(PackingInstance(g, 0, 2, 2, 5), cfg)
    assert decision == "no"
    assert stats.nodes == 1 and stats.br3 == 1


@pytest.fixture()
def overlong_state():
    # s,m,v1,x,y,v2,t = 0..6
    g = Graph(7, [(0, 1), (1, 2), (1, 5), (2, 3), (3, 4), (4, 5), (5, 6)])
    ci = CheckpointInstance(PackingInstance(g, 0, 6, 1, 5), ((0, 2, 5, 6),))
    fail = greedy(ci, PLAIN)
    assert fail.condition is FailureCondition.OVERLONG
    return g, ci, fail


def test_branch_overlong_pools_per_position(overlong_state):
    g, ci, fail = overlong_state
    cands = branch(fail, ci, PLAIN, _dist_fn(g))
    by_pos = {}
    for c in cands:
        by_pos.setdefault(c.pos, []).append(c.vertex)
    # m=1, x=3, y=4; own subpath excluded from each pool
    assert by_pos == {1: [3, 4], 2: [1], 3: [1, 3, 4]}
    # ascending position order without c-pl
    assert [c.pos for c in cands] == [1, 1, 2, 3, 3, 3]


def test_branch_overlong_position_order_by_length(overlong_state):
    g, ci, fail = overlong_state
    cfg = SolverConfig(trivial_detection=False, d_ms=False, c_pl=True)
    cands = branch(fail, ci, cfg, _dist_fn(g))
    # greedy subpath lengths: pos1 -> 2, pos2 -> 3, pos3 (rejected) -> 1
    assert [c.pos for c in cands] == [2, 1, 1, 3, 3, 3]


def test_branch_overlong_cdist_orders_within_position(overlong_state):
    g, ci, fail = overlong_state
    cfg = SolverConfig(trivial_detection=False, d_ms=False, c_dist=True)
    cands = [c for c in branch(fail, ci, cfg, _dist_fn(g))
             if c.pos == 3]
    # gap (v2=5, t=6): distance sums m: 1+2, x: 2+3, y: 1+2 -> m, y, x
    assert [c.vertex for c in cands] == [1, 4, 3]


def test_branch_after_cut_failure_counts(gex):
    ci = from_packing(PackingInstance(gex, vid(1), vid(5), 3, 9))
    fail = greedy(ci, SolverConfig())
    assert fail.condition is FailureCondition.CUT_TOO_SMALL
    cands = branch(fail, ci, SolverConfig(), _dist_fn(gex))
    # pool {v2,v3,v4} x pending lists {2,3} x one gap each
    assert len(cands) == 6
    assert {(c.list_index, c.pos) for c in cands} == {(1, 1), (2, 1)}
    assert [c.vertex for c in cands[:3]] == list(vids(2, 3, 4))
    # both pending lists are (s, t): one ranking, emitted per list
    per_list = _per_list(cands)
    assert per_list.keys() == {1, 2} and per_list[1] == per_list[2]


def _per_list(cands):
    """Each list's candidates in order, without their list index."""
    out = {}
    for c in cands:
        out.setdefault(c.list_index, []).append(c[1:])
    return out


def test_branch_candidates_never_listed_vertices(gex):
    ci = from_packing(PackingInstance(gex, vid(1), vid(5), 2, 5))
    child = ci.with_insertion(1, 1, vid(3))
    fail = greedy(child, PLAIN)
    if isinstance(fail, GreedyFailure) \
            and fail.condition is FailureCondition.NO_SUBPATH:
        cands = branch(fail, child, PLAIN, _dist_fn(gex))
        listed = child.checkpoint_union()
        assert all(c.vertex not in listed for c in cands)


# ---------------------------------------------------------------------------
# the three per-rule branchers that branch() replaced, as a reference: on
# every greedy failure the search meets, branch() must return their list
# ---------------------------------------------------------------------------

def _position_candidates(list_index, pos, u, u2, pool, cfg, dist_fn):
    """The candidates splicing each pool vertex between u and u2, as
    (list_index, pos, vertex, gap sum): with c-dist by gap sum, then id;
    otherwise by id."""
    du, du2 = dist_fn(u), dist_fn(u2)
    order = sorted(pool, key=(lambda v: (du[v] + du2[v], v)) if cfg.c_dist
                   else None)
    return [(list_index, pos, v, du[v] + du2[v]) for v in order]


def _reference_pool(fail, cp_union, skip_subpath=None):
    pool = set()
    for p in fail.complete_paths:
        pool.update(p)
    for idx, q in enumerate(fail.partial_subpaths, start=1):
        if idx == skip_subpath:
            continue
        pool.update(q)
    return [v for v in pool if v not in cp_union]


def _reference_no_subpath(fail, inst, cfg, dist_fn):
    cp_union = inst.checkpoint_union()
    entries = inst.lists[fail.i_beta - 1]
    j = fail.j_beta
    return _position_candidates(fail.i_beta - 1, j, entries[j - 1],
                                entries[j], _reference_pool(fail, cp_union),
                                cfg, dist_fn)


def _reference_overlong(fail, inst, cfg, dist_fn):
    cp_union = inst.checkpoint_union()
    entries = inst.lists[fail.i_beta - 1]
    j_b = fail.j_beta

    def q_len(j):
        if j == j_b:
            return fail.overlong_len if fail.overlong_len is not None else 0
        return len(fail.partial_subpaths[j - 1]) - 1

    positions = list(range(1, j_b + 1))
    if cfg.c_pl:
        positions.sort(key=lambda j: (-q_len(j), j))
    out = []
    for j in positions:
        pool = _reference_pool(fail, cp_union, skip_subpath=j)
        out.extend(_position_candidates(fail.i_beta - 1, j, entries[j - 1],
                                        entries[j], pool, cfg, dist_fn))
    return out


def _reference_cut(fail, inst, cfg, dist_fn):
    pool = _reference_pool(fail, inst.checkpoint_union())
    out = []
    for li in range(fail.i_beta - 1, inst.base.k):
        entries = inst.lists[li]
        for j in range(1, len(entries)):
            out.extend(_position_candidates(li, j, entries[j - 1], entries[j],
                                            pool, cfg, dist_fn))
    return out


_REFERENCE = {
    FailureCondition.NO_SUBPATH: _reference_no_subpath,
    FailureCondition.OVERLONG: _reference_overlong,
    FailureCondition.CUT_TOO_SMALL: _reference_cut,
}


def _branching_candidate(cid):
    """Candidate ``cid``: a small grid with 10-30% edge dropout (odd ids) or
    a sparse G(n, p) graph (even ids), terminals 2..8 apart, k in 2..4 and
    ell at most 3 above their distance."""
    rng = random.Random(cid)
    if cid % 2:
        cols, rows = rng.randint(4, 7), rng.randint(4, 7)
        g = grid_graph(rows, cols, rng.uniform(0.1, 0.3), rng)
    else:
        n = rng.randint(14, 30)
        g = random_gnp(n, rng.uniform(2.5, 4.0) / (n - 1), cid)
    s, t = rng.sample(range(g.n), 2)
    d = Workspace(g).distance_row(s)[t]
    assert 2 <= d <= 8
    return PackingInstance(g, s, t, rng.randint(2, 4), d + rng.randint(0, 3))


# candidates whose default-config solve reaches the search, found by a
# seeded scan of ids 0..7999; in the first four a separator failure past
# the first path branches over two or more lists
BRANCHING_IDS = [1149, 2213, 2738, 3239, 4073, 5523, 5961, 6395, 6477, 6748]


_PARITY_CONFIGS = {
    "plain": PLAIN,
    "default": SolverConfig(),
    "no-c-pl-c-dist": SolverConfig(c_pl=False, c_dist=False),
    "no-trivial": SolverConfig(trivial_detection=False),
}


@pytest.mark.parametrize("name", list(_PARITY_CONFIGS))
def test_branch_matches_the_per_rule_reference(name, monkeypatch):
    import pathpack.search as search
    from suite import build_suite
    met = set()

    def checked(fail, inst, cfg, dist_fn):
        got = branch(fail, inst, cfg, dist_fn)
        assert got == _REFERENCE[fail.condition](fail, inst, cfg, dist_fn)
        if len({c.list_index for c in got}) > 1:
            met.add("lists")
            # only rule 3 spreads, and its lists differ in the index only
            assert len({tuple(seq) for seq in _per_list(got).values()}) == 1
        if got:
            met.add(fail.condition)
        return got

    monkeypatch.setattr(search, "branch", checked)
    cfg = _PARITY_CONFIGS[name]
    for inst in ([case.instance for case in build_suite()]
                 + [_branching_candidate(cid) for cid in BRANCHING_IDS]):
        solve(inst, cfg)
    # every rule the configuration can meet branched somewhere, and only
    # rule 3 spreads over more than one list
    want = {FailureCondition.NO_SUBPATH, FailureCondition.OVERLONG}
    if cfg.d_ms:
        want |= {FailureCondition.CUT_TOO_SMALL, "lists"}
    assert met == want


# ---------------------------------------------------------------------------
# solve end to end
# ---------------------------------------------------------------------------

def test_solve_fixture_replay(gex):
    inst = PackingInstance(gex, vid(1), vid(5), 2, 5)
    cfg = SolverConfig(trivial_detection=False, d_ms=False)
    decision, witness, stats = solve(inst, cfg)
    assert decision == "yes"
    assert stats.br1 >= 1 and stats.solved_by == "search"
    got = {p for p in witness.paths}
    assert got == {vids(1, 6, 7, 8, 4, 5), vids(1, 2, 9, 10, 11, 5)}


def test_solve_fixture_trivial_root(gex):
    inst = PackingInstance(gex, vid(1), vid(5), 2, 5)
    decision, witness, stats = solve(inst, SolverConfig())
    assert decision == "yes" and stats.solved_by == "trivial-yes"
    assert stats.nodes == 0
    assert validate_solution(from_packing(inst), witness)


def test_solve_path_graph_no_both_ways():
    g = Graph(3, [(0, 1), (1, 2)])
    inst = PackingInstance(g, 0, 2, 2, 5)
    d1, _, st1 = solve(inst, SolverConfig())
    assert (d1, st1.solved_by) == ("no", "trivial-no")
    bare = config_from_name("bare", SolverConfig(trivial_detection=False,
                                                 preprocess=False))
    d2, _, st2 = solve(inst, bare)
    assert d2 == "no" and st2.nodes == 2


def test_solve_usage_errors(gex):
    with pytest.raises(ValueError):
        solve(PackingInstance(gex, 0, 0, 2, 5))


def test_solved_by_greedy_tag(gex):
    # k = 1 with detection off: the root greedy run itself is the witness
    inst = PackingInstance(gex, vid(1), vid(5), 1, 5)
    decision, _, stats = solve(inst, SolverConfig(trivial_detection=False))
    assert decision == "yes"
    assert stats.solved_by == "greedy" and stats.nodes == 1


def test_interval_scope_unwinds_to_empty(gex):
    from pathpack.config import SolveStats
    from pathpack.search import _TreeSearch
    ci = from_packing(PackingInstance(gex, vid(1), vid(5), 2, 4))
    cfg = config_from_name("b-sp+b-fi", SolverConfig(trivial_detection=False))
    search = _TreeSearch(ci, cfg, SolveStats(), None, Workspace(gex))
    assert search.run() is None
    assert search.store.mark() == 0


def test_solve_matches_oracle_on_seeded_grid():
    g = random_gnp(14, 0.3, 7)
    for k, ell in itertools.product((2, 3), (5, 6)):
        inst = PackingInstance(g, 0, 13, k, ell)
        want = oracle_decide(inst).decision
        for name in ("bare", "b-sp", "all"):
            for triv in (True, False):
                cfg = config_from_name(
                    name, SolverConfig(trivial_detection=triv))
                got, wit, _ = solve(inst, cfg)
                assert got == want
                if wit is not None:
                    assert validate_solution(from_packing(inst), wit)


def test_solve_deterministic(gex):
    inst = PackingInstance(gex, vid(1), vid(5), 2, 5)
    cfg = SolverConfig(trivial_detection=False)
    runs = [solve(inst, cfg) for _ in range(3)]
    for d, w, st in runs[1:]:
        assert d == runs[0][0]
        assert w == runs[0][1]
        a, b = st.as_dict(), runs[0][2].as_dict()
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b


def test_stats_as_dict_is_dataclasses_asdict(gex):
    # a search-decided solve fills most counters and the reduction sizes
    inst = PackingInstance(gex, vid(1), vid(5), 2, 5)
    _, _, stats = solve(inst, SolverConfig(trivial_detection=False))
    assert stats.nodes > 0 and stats.n_before > 0 and stats.solved_by
    got = stats.as_dict()
    want = dataclasses.asdict(stats)
    assert got == want and list(got) == list(want)
    # a copy: the dict does not write through to the stats
    got["nodes"] = -1
    assert stats.nodes == want["nodes"]


def test_solve_timeout_reports():
    g = random_gnp(18, 0.35, 51494)
    inst = PackingInstance(g, 16, 0, 3, 7)
    cfg = config_from_name("bare", SolverConfig(trivial_detection=False,
                                                timeout_ms=30))
    decision, witness, stats = solve(inst, cfg)
    assert decision == "timeout" and witness is None
    assert stats.solved_by == "timeout"


def test_timeout_bounds_the_reduction():
    # a 300 x 300 grid whose ell-ball around both corners is the whole grid:
    # the input-graph step's first BFS, from corner to corner, alone takes
    # far longer than the 1 ms budget, so neither the reduction nor the
    # search, which checks the deadline itself, is reached
    side = 300
    lines = [f"{side * side} {2 * side * (side - 1)}"]
    for v in range(1, side * side + 1):
        if v % side:
            lines.append(f"{v} {v + 1}")
        if v + side <= side * side:
            lines.append(f"{v} {v + side}")
    g = parse_graph("\n".join(lines))
    inst = PackingInstance(g, 0, side * side - 1, 2, 2 * side)
    decision, witness, stats = solve(inst, SolverConfig(timeout_ms=1))
    assert decision == "timeout" and witness is None
    assert stats.solved_by == "timeout"
    # no reduction ran
    assert stats.n_after == side * side
    assert stats.nodes == 0


def test_timeout_after_an_overrunning_reduction(monkeypatch):
    # the input-graph step leaves the walkthrough instance open (its greedy
    # finds one path, not two); the reduction then overruns the deadline,
    # and the solve stops right after it
    import pathpack.search

    reduce_instance = pathpack.search.reduce_instance

    def overrunning(inst):
        out = reduce_instance(inst)
        time.sleep(0.3)
        return out

    monkeypatch.setattr(pathpack.search, "reduce_instance", overrunning)
    # a pendant vertex on 7 shows that the reduction ran to its end
    g = Graph(12, [(u - 1, v - 1) for u, v in GEX_EDGES_1BASED]
              + [(vid(7), 11)])
    inst = PackingInstance(g, vid(1), vid(5), 2, 5)
    assert detect_on_input(from_packing(inst)).kind == "unknown"
    decision, witness, stats = solve(inst, SolverConfig(timeout_ms=200))
    assert (decision, witness) == ("timeout", None)
    assert stats.solved_by == "timeout" and stats.nodes == 0
    assert stats.n_after == 11


def test_depth_and_branch_bounds_hold():
    # asserts inside the solver enforce the bounds; exercise a spread
    rng = random.Random(11)
    for trial in range(25):
        n = rng.randrange(6, 15)
        g = random_gnp(n, rng.choice([0.2, 0.35]), trial + 40)
        s, t = rng.sample(range(n), 2)
        k, ell = rng.choice([1, 2, 3]), rng.choice([4, 5, 6])
        for name in ("bare", "all"):
            cfg = config_from_name(name, SolverConfig(trivial_detection=False))
            _, _, st = solve(PackingInstance(g, s, t, k, ell), cfg)
            assert st.max_depth <= k * ell


def test_search_leaves_recursion_limit_unchanged(gex):
    # the search runs from an explicit stack, whatever its depth bound k*ell
    limit = sys.getrecursionlimit()
    decision, _, stats = solve(PackingInstance(gex, vid(1), vid(5), 2, 2000),
                               PLAIN)
    assert decision == "yes" and stats.nodes > 1
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("name", ["all", "bare"])
@pytest.mark.parametrize("trivial", [True, False])
def test_k_at_least_n_is_no_before_any_search(name, trivial):
    # k internally disjoint paths need k - 1 internal vertices, so k < n
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    cfg = config_from_name(name, SolverConfig(trivial_detection=trivial))
    decision, witness, stats = solve(PackingInstance(triangle, 0, 2, 3, 2),
                                     cfg)
    assert (decision, witness) == ("no", None)
    assert stats.solved_by == "trivial-no" and stats.nodes == 0
    decision, witness, _ = solve(PackingInstance(triangle, 0, 2, 2, 2), cfg)
    assert decision == "yes" and set(witness.paths) == {(0, 2), (0, 1, 2)}


_TRIVIAL_OFF = SolverConfig(trivial_detection=False)

# every exit of the root, on the walkthrough graph with a pendant vertex on
# 7 (which a reduction peels): (s, t, k, ell, config) and the expected
# (decision, solved_by, nodes, whether a reduction ran)
_ROOT_EXITS = {
    "k >= n": ((1, 5, 12, 5, SolverConfig()),
               ("no", "trivial-no", 0, False)),
    "direct edge, k = 1": ((1, 2, 1, 1, SolverConfig()),
                           ("yes", "trivial-yes", 0, False)),
    "direct edge, then the step": ((1, 2, 2, 6, SolverConfig()),
                                   ("yes", "trivial-yes", 0, False)),
    "direct edge, then the greedy": ((1, 2, 2, 6, _TRIVIAL_OFF),
                                     ("yes", "greedy", 1, True)),
    "step yes": ((1, 5, 1, 4, SolverConfig()),
                 ("yes", "trivial-yes", 0, False)),
    "step no": ((1, 5, 1, 3, SolverConfig()),
                ("no", "trivial-no", 0, False)),
    "flow yes": ((1, 5, 2, 5, SolverConfig()),
                 ("yes", "trivial-yes", 0, True)),
    "flow no": ((1, 5, 2, 4, SolverConfig()),
                ("no", "trivial-no", 0, True)),
    "greedy": ((1, 5, 1, 4, _TRIVIAL_OFF), ("yes", "greedy", 1, True)),
    "search yes": ((1, 5, 2, 5, _TRIVIAL_OFF), ("yes", "search", 2, True)),
    "search no": ((1, 5, 2, 4, _TRIVIAL_OFF), ("no", "search", 4, True)),
    # the step's search already overruns a deadline of 0 ms
    "timeout": ((1, 5, 2, 5, SolverConfig(timeout_ms=0)),
                ("timeout", "timeout", 0, False)),
}


@pytest.mark.parametrize("name", list(_ROOT_EXITS))
def test_every_root_exit_sets_its_stats(name):
    (s, t, k, ell, cfg), expected = _ROOT_EXITS[name]
    g = Graph(12, [(u - 1, v - 1) for u, v in GEX_EDGES_1BASED]
              + [(vid(7), 11)])
    inst = PackingInstance(g, vid(s), vid(t), k, ell)
    decision, witness, stats = solve(inst, cfg)
    assert (decision, stats.solved_by, stats.nodes,
            stats.n_after != stats.n_before) == expected
    assert (stats.n_before, stats.m_before) == (g.n, g.m)
    if stats.n_after == stats.n_before:
        assert stats.m_after == stats.m_before
    assert stats.wall_ms > 0
    assert (witness is not None) == (decision == "yes")
    if witness is not None:
        assert validate_solution(from_packing(inst), witness)


_STUBBED_CHECK = """
import sys
import pathpack.search as search
from pathpack import Graph, PackingInstance
from pathpack.model import ValidationReport

search.validate_solution = lambda inst, sol: ValidationReport(False, "stub")
cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
print("optimize", sys.flags.optimize)
try:
    search.solve(PackingInstance(cycle, 0, 2, 2, 2))
except AssertionError as exc:
    print("raised:", exc)
else:
    print("returned")
"""


def test_witness_check_survives_python_O():
    # the final witness check must not be an assert statement, which -O strips
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", _STUBBED_CHECK],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1] == "raised: internal error: witness rejected (stub)"


# ---------------------------------------------------------------------------
# forbidden intervals
# ---------------------------------------------------------------------------

def test_intervals_recorded_and_skipped():
    # enabling the rule must never grow the tree, and it fires somewhere
    rng = random.Random(23)
    fired = 0
    for trial in range(30):
        n = rng.randrange(8, 16)
        g = random_gnp(n, rng.choice([0.2, 0.3]), trial + 90)
        s, t = rng.sample(range(n), 2)
        inst = PackingInstance(g, s, t, rng.choice([2, 3]), rng.choice([5, 6]))
        off = config_from_name("b-sp", SolverConfig(trivial_detection=False))
        on = config_from_name("b-sp+b-fi", SolverConfig(trivial_detection=False))
        d0, _, st0 = solve(inst, off)
        d1, _, st1 = solve(inst, on)
        assert d0 == d1
        assert st1.nodes <= st0.nodes
        assert st1.bfi_masked <= st1.bfi_recorded * st1.nodes
        if st1.bfi_masked > 0:
            fired += 1
            assert st1.nodes < st0.nodes or st1.bfi_recorded > 0
    assert fired > 0


def test_interval_store_empty_after_solve(gex):
    inst = PackingInstance(gex, vid(1), vid(5), 2, 4)
    cfg = config_from_name("b-sp+b-fi", SolverConfig(trivial_detection=False))
    decision, _, stats = solve(inst, cfg)
    assert decision == "no"


# ---------------------------------------------------------------------------
# ordering neutrality on refuted instances
# ---------------------------------------------------------------------------

def test_candidate_order_neutral_on_no_instances():
    rng = random.Random(31)
    checked = 0
    for trial in range(40):
        n = rng.randrange(8, 16)
        g = random_gnp(n, rng.choice([0.2, 0.3]), trial + 400)
        s, t = rng.sample(range(n), 2)
        inst = PackingInstance(g, s, t, rng.choice([2, 3]), rng.choice([5, 6]))
        plain = config_from_name("b-sp", SolverConfig(trivial_detection=False))
        d0, _, st0 = solve(inst, plain)
        if d0 != "no":
            continue
        ordered = config_from_name("b-sp+c", SolverConfig(trivial_detection=False))
        d1, _, st1 = solve(inst, ordered)
        assert d1 == "no"
        assert st1.nodes == st0.nodes
        checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# adjacent terminals: the direct s-t edge is handled once, at the root
# ---------------------------------------------------------------------------

_PIPELINES = {
    "default": SolverConfig(),
    "no-trivial": SolverConfig(trivial_detection=False),
    "no-preprocess": SolverConfig(preprocess=False),
    "both-off": SolverConfig(trivial_detection=False, preprocess=False),
}


def _adjacent_cases():
    """Seeded G(n, p) instances whose terminals are the two ends of an
    edge, with k from 1 to 4 and ell from 1 to 6, and their oracle
    decisions."""
    rng = random.Random(1717)
    cases = []
    while len(cases) < 80:
        n = rng.randrange(5, 12)
        g = random_gnp(n, rng.choice([0.25, 0.4, 0.55]), rng.randrange(10**6))
        edges = list(g.edges())
        if not edges:
            continue
        s, t = rng.sample(rng.choice(edges), 2)
        inst = PackingInstance(g, s, t, rng.randrange(1, 5),
                               rng.randrange(1, 7))
        cases.append((inst, oracle_decide(inst).decision))
    return cases


_ADJACENT = _adjacent_cases()


@pytest.mark.parametrize("name", list(_PIPELINES))
def test_adjacent_terminals_never_reach_the_layers_below(name, monkeypatch):
    import pathpack.greedy
    import pathpack.preprocess
    import pathpack.search
    seen = set()

    def spy(module, attr, terminals):
        real = getattr(module, attr)

        def wrapped(*args, **kwargs):
            g, s, t = terminals(*args)
            assert not g.has_edge(s, t), f"{attr} got adjacent terminals"
            seen.add(attr)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapped)

    def of_instance(inst, *args):
        return inst.base.graph, inst.base.s, inst.base.t

    def of_graph(g, s, t, *args):
        return g, s, t

    spy(pathpack.search, "run_greedy", of_instance)
    spy(pathpack.search, "detect_on_input", of_instance)
    spy(pathpack.search, "detect_trivial", of_instance)
    spy(pathpack.preprocess, "detect_trivial", of_instance)
    spy(pathpack.preprocess, "min_total_length_disjoint_paths", of_graph)
    spy(pathpack.greedy, "st_flow_value", of_graph)
    cfg = _PIPELINES[name]
    for inst, truth in _ADJACENT:
        decision, witness, stats = solve(inst, cfg)
        assert decision == truth
        if inst.k == 1:
            assert (stats.solved_by, stats.nodes) == ("trivial-yes", 0)
        if witness is not None:
            direct = (inst.s, inst.t)
            assert witness.paths[0] == direct
            assert witness.paths.count(direct) == 1
            assert validate_solution(from_packing(inst), witness)
    # the spies saw every layer the pipeline runs
    if cfg.trivial_detection:
        assert {"detect_on_input", "detect_trivial",
                "min_total_length_disjoint_paths"} <= seen, seen
    else:
        assert {"run_greedy", "st_flow_value"} <= seen, seen
