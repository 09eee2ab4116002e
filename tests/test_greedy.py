import collections
import itertools
import random

import pytest

from pathpack import (Graph, PackingInstance, Solution, SolverConfig,
                      Workspace, from_packing, random_gnp, validate_solution)
from pathpack.flows import st_flow_value
from pathpack.graph import FAR, shortest_path_blocked
from pathpack.greedy import FailureCondition, GreedyFailure, run_greedy
from pathpack.model import CheckpointInstance
from pathpack.oracle import enumerate_bounded_paths
from pathpack.search import branch, node_infeasible, solve

from conftest import below_root, greedy, grid_graph, vid, vids

NO_DMS = SolverConfig(d_ms=False)


# ---------------------------------------------------------------------------
# solution enumeration helper (ordered assignments, list-conformant)
# ---------------------------------------------------------------------------

def _subpath_split(path, entries):
    pos = {v: i for i, v in enumerate(path)}
    cuts = [pos[e] for e in entries]
    return [tuple(path[a:b + 1]) for a, b in zip(cuts, cuts[1:])]


def _conforms(path, entries, ell):
    if len(path) - 1 > ell:
        return False
    pos = {v: i for i, v in enumerate(path)}
    prev = -1
    for e in entries:
        if e not in pos or pos[e] <= prev:
            return False
        prev = pos[e]
    return True


def all_solutions(ci: CheckpointInstance):
    """Every ordered assignment of pairwise internally disjoint conformant
    paths to the checkpoint lists."""
    base = ci.base
    cands = enumerate_bounded_paths(base.graph, base.s, base.t, base.ell)
    per_list = [[p for p in cands if _conforms(p, entries, base.ell)]
                for entries in ci.lists]
    out = []

    def extend(idx, chosen):
        if idx == len(per_list):
            out.append(tuple(chosen))
            return
        for p in per_list[idx]:
            inner = set(p[1:-1])
            if any(p == q or (inner & set(q[1:-1])) for q in chosen):
                continue
            chosen.append(p)
            extend(idx + 1, chosen)
            chosen.pop()

    extend(0, [])
    return out


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_fixture_break_after_first_path(gex):
    ci = from_packing(PackingInstance(gex, vid(1), vid(5), 2, 5))
    out = greedy(ci, NO_DMS)
    assert isinstance(out, GreedyFailure)
    assert out.condition is FailureCondition.NO_SUBPATH
    assert out.i_beta == 2 and out.j_beta == 1
    assert out.complete_paths == (vids(1, 2, 3, 4, 5),)
    assert out.partial_subpaths == ()


def test_four_cycle_success_in_id_order():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    ci = from_packing(PackingInstance(g, 0, 2, 2, 2))
    out = greedy(ci, NO_DMS)
    assert out == ((0, 1, 2), (0, 3, 2))


def test_overlong_fixture():
    # s,m,v1,x,y,v2,t = 0..6; list (s,v1,v2,t), ell=5: the v2-t hop tips the
    # accumulated length to 6
    g = Graph(7, [(0, 1), (1, 2), (1, 5), (2, 3), (3, 4), (4, 5), (5, 6)])
    ci = CheckpointInstance(PackingInstance(g, 0, 6, 1, 5), ((0, 2, 5, 6),))
    out = greedy(ci, NO_DMS)
    assert out.condition is FailureCondition.OVERLONG
    assert out.i_beta == 1 and out.j_beta == 3
    assert out.partial_subpaths == ((0, 1, 2), (2, 3, 4, 5))
    assert out.overlong_len == 1


def test_separator_check_fires_on_fixture(gex):
    ci = from_packing(PackingInstance(gex, vid(1), vid(5), 3, 9))
    out = greedy(ci, SolverConfig())
    assert out.condition is FailureCondition.CUT_TOO_SMALL
    assert out.i_beta == 2 and out.j_beta is None
    assert out.complete_paths == (vids(1, 2, 3, 4, 5),)


def test_separator_precheck_only_without_trivial_detection():
    g = Graph(3, [(0, 1), (1, 2)])
    ci = from_packing(PackingInstance(g, 0, 2, 2, 5))
    out = greedy(ci, SolverConfig(trivial_detection=False))
    assert out.condition is FailureCondition.CUT_TOO_SMALL
    assert out.i_beta == 1 and out.complete_paths == ()
    # with trivial detection claimed handled, the first path completes first
    out2 = greedy(ci, SolverConfig())
    assert out2.condition is FailureCondition.CUT_TOO_SMALL
    assert out2.i_beta == 2


def test_bare_lists_gate_for_separator_check(gex):
    base = PackingInstance(gex, vid(1), vid(5), 3, 9)
    lists = ((vid(1), vid(5)), (vid(1), vid(5)), (vid(1), vid(9), vid(5)))
    ci = CheckpointInstance(base, lists)
    gated = greedy(ci, SolverConfig())
    assert gated.condition is not FailureCondition.CUT_TOO_SMALL


def test_direct_edge_not_reused():
    # triangle: solve packs the direct edge once, at its root, and the
    # greedy takes the detour on the graph without it
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    plain = SolverConfig(trivial_detection=False, d_ms=False)
    decision, witness, stats = solve(PackingInstance(g, 0, 2, 2, 2), plain)
    assert decision == "yes" and stats.solved_by == "greedy"
    assert witness.paths == ((0, 2), (0, 1, 2))
    # with ell = 1 the detour is overlong: failure, not a duplicate
    decision, witness, stats = solve(PackingInstance(g, 0, 2, 2, 1), plain)
    assert (decision, witness, stats.nodes) == ("no", None, 1)
    out = greedy(from_packing(
        PackingInstance(g.without_edge(0, 2), 0, 2, 1, 1)), NO_DMS)
    assert out.condition is FailureCondition.OVERLONG


def test_determinism(gex):
    ci = from_packing(PackingInstance(gex, vid(1), vid(5), 2, 5))
    runs = [greedy(ci, NO_DMS) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# soundness and break-point properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_success_always_validates(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 13)
    g = random_gnp(n, rng.choice([0.3, 0.5]), seed + 900)
    s, t = rng.sample(range(n), 2)
    inst = PackingInstance(g, s, t, rng.choice([1, 2, 3]),
                           rng.choice([3, 4, 5]))
    # the greedy runs below solve's direct-edge step
    below, front = below_root(inst)
    if below is None:
        return
    out = greedy(from_packing(below), SolverConfig())
    if not isinstance(out, GreedyFailure):
        assert validate_solution(from_packing(inst),
                                 Solution(front + out))


def _greedy_used_pool(fail, ci, skip_subpath=None):
    cp = ci.checkpoint_union()
    used = set()
    for p in fail.complete_paths:
        used.update(p)
    for j, q in enumerate(fail.partial_subpaths, start=1):
        if j != skip_subpath:
            used.update(q)
    return used - cp


@pytest.mark.parametrize("seed", range(60))
def test_break_lemmas_against_all_solutions(seed):
    rng = random.Random(seed)
    n = rng.randrange(6, 12)
    g = random_gnp(n, rng.choice([0.25, 0.4]), seed + 300)
    s, t = rng.sample(range(n), 2)
    if g.has_edge(s, t):
        g = g.without_edge(s, t)  # the greedy never sees adjacent terminals
    k, ell = rng.choice([2, 3]), rng.choice([4, 5])
    ci = from_packing(PackingInstance(g, s, t, k, ell))
    out = greedy(ci, NO_DMS)
    if not isinstance(out, GreedyFailure):
        return
    sols = all_solutions(ci)
    if not sols:
        return
    entries = ci.lists[out.i_beta - 1]

    if out.condition is FailureCondition.NO_SUBPATH:
        pool = _greedy_used_pool(out, ci)
        for sol in sols:
            q_star = _subpath_split(sol[out.i_beta - 1], entries)[out.j_beta - 1]
            assert set(q_star) & pool, \
                "a solution subpath avoided every greedily used vertex"
    elif out.condition is FailureCondition.OVERLONG:
        for sol in sols:
            subs = _subpath_split(sol[out.i_beta - 1], entries)
            hit = False
            for j in range(1, out.j_beta + 1):
                pool = _greedy_used_pool(out, ci, skip_subpath=j)
                if set(subs[j - 1]) & pool:
                    hit = True
                    break
            assert hit, "no solution subpath met the break-point pool"


@pytest.mark.parametrize("seed", range(40))
def test_separator_failure_refutes_prefix_extension(seed):
    rng = random.Random(seed)
    n = rng.randrange(6, 13)
    g = random_gnp(n, rng.choice([0.2, 0.35]), seed + 700)
    s, t = rng.sample(range(n), 2)
    if g.has_edge(s, t):
        g = g.without_edge(s, t)  # the greedy never sees adjacent terminals
    k, ell = rng.choice([2, 3]), rng.choice([4, 5, 6])
    ci = from_packing(PackingInstance(g, s, t, k, ell))
    out = greedy(ci, SolverConfig(trivial_detection=False))
    if not (isinstance(out, GreedyFailure)
            and out.condition is FailureCondition.CUT_TOO_SMALL):
        return
    # no solution may complete the remaining lists avoiding the prefix
    fixed_internal = set()
    for p in out.complete_paths:
        fixed_internal.update(p[1:-1])
    alive_edges = [(u, v) for u, v in g.edges()
                   if u not in fixed_internal and v not in fixed_internal]
    masked = Graph(g.n, alive_edges)
    need = k - len(out.complete_paths)
    from pathpack.oracle import oracle_decide
    rest = oracle_decide(PackingInstance(masked, s, t, need, ell))
    assert rest.decision == "no"


def _conforming(sols, ci):
    """The solutions of a node's ancestor that are solutions of the node:
    a child only adds checkpoints, so this is ``all_solutions(ci)``."""
    ell = ci.base.ell
    return [sol for sol in sols
            if all(_conforms(p, entries, ell)
                   for p, entries in zip(sol, ci.lists))]


def _apart(g: Graph, rng: random.Random):
    """The graph and two random terminals, minus their edge if they are
    adjacent: the greedy never sees adjacent terminals."""
    s, t = rng.sample(range(g.n), 2)
    if g.has_edge(s, t):
        g = g.without_edge(s, t)
    return g, s, t


def _lemma_roots():
    """The bare roots of the walks below, as (seed, root): one per seed,
    and for each odd seed a second whose ell is at most one past
    dist(s, t), where subpaths run overlong (rule 2) most often."""
    for seed in range(4000):
        rng = random.Random(seed)
        if seed % 3 == 2:
            g = grid_graph(rng.randrange(2, 4), rng.randrange(3, 5),
                           rng.choice([0.0, 0.15]), rng)
        else:
            g = random_gnp(rng.randrange(7, 12), rng.uniform(0.25, 0.5),
                           seed)
        g, s, t = _apart(g, rng)
        yield seed, from_packing(PackingInstance(
            g, s, t, rng.choice([2, 3]), rng.randrange(3, 7)))
        if seed % 2 == 0:
            continue
        if seed % 4 == 3:
            g = grid_graph(rng.randrange(3, 5), rng.randrange(3, 5),
                           rng.choice([0.0, 0.15]), rng)
        else:
            g = random_gnp(rng.randrange(10, 15), rng.uniform(0.2, 0.35),
                           rng.randrange(1 << 16))
        g, s, t = _apart(g, rng)
        dist = Workspace(g).distance_row(s)[t]
        if dist != FAR:
            yield seed, from_packing(PackingInstance(
                g, s, t, rng.choice([2, 3]), dist + rng.randrange(0, 2)))


def _checkpointed_roots():
    """Roots whose lists already hold interior checkpoints, as (seed,
    root): on small grids with dist(s, t) <= ell <= dist(s, t) + 2, each
    list gets at most one interior vertex of its path in one solution.
    Walks from bare roots almost never reach a list with interior
    checkpoints that runs overlong, so these are where rule 2 breaks after
    the first subpath and its earlier positions matter."""
    for seed in range(1000):
        rng = random.Random(seed + 5000)
        g = grid_graph(rng.randrange(3, 6), rng.randrange(3, 6),
                       rng.choice([0.0, 0.15]), rng)
        g, s, t = _apart(g, rng)
        dist = Workspace(g).distance_row(s)[t]
        if dist == FAR:
            continue
        base = PackingInstance(g, s, t, rng.choice([2, 3]),
                               dist + rng.randrange(0, 3))
        sols = all_solutions(from_packing(base))
        if not sols:
            continue
        lists = []
        for path in rng.choice(sols):
            inner = path[1:-1]
            picked = rng.sample(inner, min(len(inner), rng.randrange(0, 2)))
            lists.append((s, *picked, t))
        yield seed, CheckpointInstance(base, tuple(lists))


def test_branch_covers_every_solution_at_depth():
    """The branching lemma, checked below the root: at every node of a
    walk where the greedy fails, each solution of the node has some
    candidate (li, pos, v) of ``branch`` with v interior to the solution's
    subpath between entries pos - 1 and pos of list li, so the children
    together keep every solution.  The walk starts at a root, expands
    every candidate depth first and visits up to 60 nodes; a node without
    solutions has children without any, so it is not expanded.  Seeded
    G(n, p) graphs and small grids, from bare roots (see
    :func:`_lemma_roots`) and from roots with interior checkpoints (see
    :func:`_checkpointed_roots`), with d-ms on and off."""
    configs = {"d-ms": SolverConfig(trivial_detection=False),
               "no d-ms": SolverConfig(trivial_detection=False, d_ms=False)}
    checked = collections.Counter()
    for seed, root in itertools.chain(_lemma_roots(), _checkpointed_roots()):
        root_sols = None  # enumerated once a root greedy fails
        ws = Workspace(root.base.graph)
        for name, cfg in configs.items():
            stack = [(root, None)]
            for _ in range(60):
                if not stack:
                    break
                ci, sols = stack.pop()
                if node_infeasible(ci, cfg, ws.distance_row) is not None:
                    continue
                out = run_greedy(ci, cfg, ws)
                if not isinstance(out, GreedyFailure):
                    continue
                if sols is None:
                    if root_sols is None:
                        root_sols = all_solutions(root)
                    sols = root_sols
                cands = branch(out, ci, cfg, ws.distance_row)
                for sol in sols:
                    assert any(
                        c.vertex in _subpath_split(
                            sol[c.list_index],
                            ci.lists[c.list_index])[c.pos - 1][1:-1]
                        for c in cands), (seed, name, ci.lists, sol, out)
                    checked[name, out.condition] += 1
                    if (out.condition is FailureCondition.OVERLONG
                            and out.j_beta > 1):
                        checked[name, "overlong after subpath 1"] += 1
                for c in reversed(cands):
                    child = ci.with_insertion(c.list_index, c.pos, c.vertex)
                    child_sols = _conforming(sols, child)
                    if child_sols:
                        stack.append((child, child_sols))
    # no check passes vacuously: each configuration checked enough
    # solutions, under each of its branching rules, and enough of them
    # under rule 2, also where it branches over positions before the break
    for name, cfg in configs.items():
        rules = [c for c in FailureCondition
                 if cfg.d_ms or c is not FailureCondition.CUT_TOO_SMALL]
        assert all(checked[name, c] > 0 for c in rules), checked
        assert sum(checked[name, c] for c in rules) >= 150, checked
        assert checked[name, FailureCondition.OVERLONG] >= 75, checked
        assert checked[name, "overlong after subpath 1"] >= 20, checked


# ---------------------------------------------------------------------------
# the greedy against its definition
# ---------------------------------------------------------------------------

def _reference_greedy(ci: CheckpointInstance, cfg: SolverConfig):
    """The greedy with every mask built afresh from its definition: a
    subpath's search avoids the completed paths' internal vertices, this
    path's earlier subpaths and every checkpoint, but for the subpath's two
    endpoints; the separator check closes the completed paths' internal
    vertices.
    """
    base = ci.base
    g, s, t, k, ell = base.graph, base.s, base.t, base.k, base.ell
    ws = Workspace(g)
    checkpoints = ci.checkpoint_union()
    completed = []
    for i0 in range(k):
        used = {v for p in completed for v in p[1:-1]}
        if (cfg.d_ms and (i0 > 0 or not cfg.trivial_detection)
                and all(len(entries) == 2 for entries in ci.lists[i0:])):
            closed = bytearray(g.n)
            for v in used:
                closed[v] = 1
            if st_flow_value(g, s, t, k - i0, closed) < k - i0:
                return GreedyFailure(FailureCondition.CUT_TOO_SMALL, i0 + 1,
                                     None, tuple(completed), ())
        entries = ci.lists[i0]
        subpaths = []
        length = 0
        for j0, (u, u2) in enumerate(zip(entries, entries[1:])):
            mask = bytearray(g.n)
            for v in used | checkpoints | {v for q in subpaths for v in q}:
                mask[v] = 1
            mask[u] = mask[u2] = 0
            q = shortest_path_blocked(g, mask, u, u2, ws)
            if q is None:
                return GreedyFailure(FailureCondition.NO_SUBPATH, i0 + 1,
                                     j0 + 1, tuple(completed),
                                     tuple(subpaths))
            if length + len(q) - 1 > ell:
                return GreedyFailure(FailureCondition.OVERLONG, i0 + 1,
                                     j0 + 1, tuple(completed),
                                     tuple(subpaths),
                                     overlong_len=len(q) - 1)
            length += len(q) - 1
            subpaths.append(q)
        completed.append(tuple(v for q in subpaths for v in q[:-1]) + (t,))
    return tuple(completed)


def _checkpoint_instance(rng, g, s, t, k, ell):
    """k lists for (s, t): the leading ones get up to three interior
    checkpoints each, distinct across lists, and the rest stay bare."""
    free = [v for v in range(g.n) if v not in (s, t)]
    rng.shuffle(free)
    leading = rng.randrange(k + 1)
    lists = []
    for i in range(k):
        interior = []
        if i < leading:
            size = min(rng.randrange(1, 4), ell - 1, len(free))
            interior = [free.pop() for _ in range(size)]
        lists.append((s, *interior, t))
    return CheckpointInstance(PackingInstance(g, s, t, k, ell), tuple(lists))


def test_greedy_matches_its_definition():
    """``run_greedy``'s one growing mask gives the whole outcome of the
    greedy whose masks are built from the definition, on seeded grids and
    G(n, p) graphs with interior checkpoints in several lists and bare
    tails, with d-ms and trivial detection each on and off.  The runs on
    one graph share a workspace, as the nodes of one search do."""
    configs = [SolverConfig(d_ms=d_ms, trivial_detection=trivial)
               for d_ms in (True, False) for trivial in (True, False)]
    seen = collections.Counter()
    for seed in range(150):
        rng = random.Random(seed + 1100)
        if seed % 2:
            g = grid_graph(rng.randrange(3, 7), rng.randrange(3, 7),
                           rng.choice([0.0, 0.1, 0.25]), rng)
        else:
            g = random_gnp(rng.randrange(6, 20), rng.choice([0.2, 0.35]),
                           seed + 1100)
        s, t = rng.sample(range(g.n), 2)
        if g.has_edge(s, t):
            g = g.without_edge(s, t)  # the greedy never sees adjacent ones
        ws = Workspace(g)
        for _ in range(4):
            ci = _checkpoint_instance(rng, g, s, t, rng.randrange(1, 5),
                                      rng.randrange(2, 9))
            for cfg in configs:
                want = _reference_greedy(ci, cfg)
                got = run_greedy(ci, cfg, ws)
                assert got == want, (seed, ci, cfg)
                if not isinstance(got, GreedyFailure):
                    # the k paths pass through their own checkpoint lists
                    assert validate_solution(ci, Solution(got)).ok, (seed, ci)
                seen[getattr(want, "condition", "success")] += 1
                if sum(len(entries) > 2 for entries in ci.lists) > 1:
                    seen["several lists with interior checkpoints"] += 1
    # every outcome kind, and lists with interior checkpoints, took part
    assert min(seen.values()) >= 20, seen
