import collections
import itertools
import random
import time
import tracemalloc

import pytest

import pathpack.kernels
from pathpack import (Graph, PackingInstance, Solution, SolverConfig,
                      Workspace, config_from_name, from_packing, random_gnp,
                      validate_solution)
from pathpack.config import SolveTimeout
from pathpack.oracle import oracle_decide
from pathpack.graph import FAR, shortest_path_blocked
from pathpack.preprocess import (TrivialOutcome, detect_on_input,
                                 detect_trivial, reduce_instance)
from pathpack.search import solve

from conftest import GEX_EDGES_1BASED, below_root, grid_graph, vid, vids
from suite import build_suite


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_fixture_keeps_everything(gex):
    ci = from_packing(PackingInstance(gex, vid(1), vid(5), 2, 5))
    reduced, report = reduce_instance(ci)
    assert report.n_before == report.n_after == 11
    assert report.m_before == report.m_after == 12
    assert reduced.base.graph.m == 12


def test_reduce_removes_pendant_vertex():
    edges = [(u - 1, v - 1) for u, v in GEX_EDGES_1BASED] + [(vid(7), 11)]
    g12 = Graph(12, edges)
    ci = from_packing(PackingInstance(g12, vid(1), vid(5), 2, 5))
    reduced, report = reduce_instance(ci)
    assert 11 not in report.to_original
    assert report.n_after == 11


def test_reduce_star_graph():
    # center 0; terminals 1, 2; leaves 3..7; ell = 2 keeps only {0, 1, 2}
    g = Graph(8, [(0, i) for i in range(1, 8)])
    ci = from_packing(PackingInstance(g, 1, 2, 1, 2))
    reduced, report = reduce_instance(ci)
    assert set(report.to_original) == {0, 1, 2}
    assert reduced.base.graph.n == 3


def test_reduce_iterates_degree_one_removal():
    # chain 3-4-5 hangs off vertex 2: all three rounds must go
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    ci = from_packing(PackingInstance(g, 0, 1, 1, 3))
    reduced, report = reduce_instance(ci)
    assert set(report.to_original) == {0, 1, 2}


def _naive_kept(g, s, t, ell):
    """Reference for reduce_instance's kept set: the distance filter, then
    full passes removing degree <= 1 vertices until nothing changes."""
    ws = Workspace(g)
    ds = ws.distances_unmasked(s).tolist()
    dt = ws.distances_unmasked(t).tolist()
    keep = [0 <= ds[v] <= ell and 0 <= dt[v] <= ell
            and (ds[v] <= ell // 2 or dt[v] <= ell // 2) for v in range(g.n)]
    keep[s] = keep[t] = True
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if keep[v] and v not in (s, t) and sum(
                    keep[w] for w in g.neighbors(v)) <= 1:
                keep[v] = False
                changed = True
    return {v for v in range(g.n) if keep[v]}


@pytest.mark.parametrize("seed", range(40))
def test_reduce_peeling_matches_naive_fixpoint(seed):
    rng = random.Random(seed + 4000)
    n = rng.randrange(10, 120)
    g = random_gnp(n, rng.choice([1.2, 2.0, 3.0]) / (n - 1), seed + 4000)
    s, t = rng.sample(range(n), 2)
    ell = rng.randrange(2, 12)
    _, report = reduce_instance(from_packing(PackingInstance(g, s, t, 1, ell)))
    assert set(report.to_original) == _naive_kept(g, s, t, ell)


def test_reduce_long_pendant_path_is_linear():
    # a 4-cycle 0-1-2-3 with a pendant path of 10^5 vertices hanging off 1
    length = 100_000
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]
    edges += [(v, v + 1) for v in range(4, 4 + length - 1)]
    g = Graph(4 + length, edges)
    ci = from_packing(PackingInstance(g, 0, 2, 2, 2 * length))
    start = time.perf_counter()
    _, report = reduce_instance(ci)
    elapsed = time.perf_counter() - start
    assert set(report.to_original) == {0, 1, 2, 3}
    assert elapsed < 1.0


def _reference_reduce(g, s, t, ell):
    """The reduction as it ran on the whole graph: full distance arrays, the
    filter over every vertex, naive peeling, and the reduced graph rebuilt
    from the edge list.  Returns (to_original, adj, m)."""
    kept = sorted(_naive_kept(g, s, t, ell))
    new_id = {v: i for i, v in enumerate(kept)}
    reduced = Graph(len(kept), [(new_id[u], new_id[v]) for u, v in g.edges()
                                if u in new_id and v in new_id])
    return tuple(kept), reduced.adj, reduced.m


PARITY_SEEDS = 180


def _parity_case(seed):
    rng = random.Random(seed + 7000)
    if seed >= 90:
        return _boundary_case(seed, rng)
    kind = seed % 3
    if kind == 0:                       # sparse G(n, p)
        n = rng.randrange(10, 150)
        g = random_gnp(n, rng.choice([1.5, 2.5, 4.0]) / (n - 1), seed + 7000)
        s, t = rng.sample(range(n), 2)
    elif kind == 1:                     # grid with dropout
        rows, cols = rng.randrange(2, 25), rng.randrange(2, 25)
        g = grid_graph(rows, cols, rng.choice([0.0, 0.2, 0.4]), rng)
        s, t = rng.sample(range(g.n), 2)
    else:                               # two components, one per terminal
        a = grid_graph(rng.randrange(2, 8), rng.randrange(2, 8), 0.1, rng)
        b = random_gnp(rng.randrange(3, 30), 0.2, seed + 7000)
        g = Graph(a.n + b.n, list(a.edges())
                  + [(u + a.n, v + a.n) for u, v in b.edges()])
        s, t = rng.randrange(a.n), a.n + rng.randrange(b.n)
    ell = rng.choice([1, 2, rng.randrange(3, 14)])
    return g, s, t, ell


def _boundary_case(seed, rng):
    """Terminals at distance ell - floor(ell/2) (even seeds), where the
    reduction keeps the union of the two half-balls, or one more (odd
    seeds), where it searches to depth ell; ell cycles through 1, 2, 3 and
    a draw from 4..13."""
    ell = (1, 2, 3, rng.randrange(4, 14))[seed // 2 % 4]
    d = ell - ell // 2 + seed % 2
    if seed // 8 % 2:
        n = rng.randrange(4 * d, 150)
        g = random_gnp(n, rng.choice([1.5, 2.5]) / (n - 1), seed + 7000)
    else:
        g = grid_graph(rng.randrange(d + 2, 25), rng.randrange(d + 2, 25),
                       rng.choice([0.0, 0.2, 0.4]), rng)
    ws = Workspace(g)
    while True:
        s = rng.randrange(g.n)
        band = [v for v, dv in enumerate(ws.distance_row(s)) if dv == d]
        if band:
            return g, s, rng.choice(band), ell


def _half_ball_regime(d, ell):
    """Whether the reduction keeps the union of the two half-balls without
    a depth-ell search: dist(s, t) + floor(ell/2) <= ell."""
    return 0 <= d and d + ell // 2 <= ell


@pytest.mark.parametrize("seed", range(PARITY_SEEDS))
def test_reduce_matches_the_full_graph_reference(seed, monkeypatch):
    g, s, t, ell = _parity_case(seed)
    k = 1 + seed % 3
    kernel = pathpack.kernels.ball
    calls = []

    def spy(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(pathpack.kernels, "ball", spy)
    reduced, report = reduce_instance(
        from_packing(PackingInstance(g, s, t, k, ell)))
    monkeypatch.undo()
    d = int(Workspace(g).distances_unmasked(s)[t])
    assert calls == ([s, t] if _half_ball_regime(d, ell) else [s, s, t])
    to_original, adj, m = _reference_reduce(g, s, t, ell)
    assert report.to_original == to_original
    assert reduced.base.graph.adj == adj
    assert (report.n_after, report.m_after) == (len(to_original), m)
    assert (report.n_before, report.m_before) == (g.n, g.m)
    assert reduced.base.s == to_original.index(s)
    assert reduced.base.t == to_original.index(t)


def test_parity_cases_cover_far_and_disconnected_terminals():
    far = disconnected = half_balls = 0
    boundary = set()
    for seed in range(PARITY_SEEDS):
        g, s, t, ell = _parity_case(seed)
        d = int(Workspace(g).distances_unmasked(s)[t])
        disconnected += d == FAR
        far += ell < d < FAR
        half_balls += _half_ball_regime(d, ell)
        if d - (ell - ell // 2) in (0, 1):
            boundary.add((min(ell, 4), d - (ell - ell // 2)))
    assert far >= 10 and disconnected >= 10
    # both regimes of the reduction, and both sides of their boundary
    assert half_balls >= 30 and PARITY_SEEDS - half_balls >= 30
    assert boundary == {(e, side) for e in (1, 2, 3, 4) for side in (0, 1)}


# a 250 x 400 grid (10^5 vertices) with the terminals at distance 3
_BIG_ROWS, _BIG_COLS = 250, 400
_BIG_S = 125 * _BIG_COLS + 200
_BIG_T = _BIG_S + 2 * _BIG_COLS + 1


@pytest.fixture(scope="module")
def big_grid():
    return grid_graph(_BIG_ROWS, _BIG_COLS, 0.0, random.Random(0))


def test_reduce_bfs_enqueues_only_the_ell_ball(big_grid, monkeypatch):
    # At ell = 6 (3 + 3 <= 6) both searches stop at the half-balls of
    # radius 3; at ell = 4 (3 + 2 > 4) the half-ball of radius 2 around s
    # shows that, and two searches to the Manhattan balls of radius ell
    # follow
    g, s, t = big_grid, _BIG_S, _BIG_T
    rows, cols = _BIG_ROWS, _BIG_COLS
    kernel = pathpack.kernels.ball

    def ball(src, radius):
        r0, c0 = divmod(src, cols)
        return sum(1 for r in range(rows) for c in range(cols)
                   if abs(r - r0) + abs(c - c0) <= radius)

    def reduce_spied(ell):
        calls = []

        def spy(*args):
            dist = kernel(*args)
            calls.append((args[1], len(dist)))
            return dist

        monkeypatch.setattr(pathpack.kernels, "ball", spy)
        reduced, report = reduce_instance(
            from_packing(PackingInstance(g, s, t, 2, ell)))
        monkeypatch.undo()
        to_original, adj, m = _reference_reduce(g, s, t, ell)
        assert report.to_original == to_original
        assert reduced.base.graph.adj == adj
        return calls

    assert reduce_spied(6) == [(s, ball(s, 3)), (t, ball(t, 3))]
    calls = reduce_spied(4)
    assert [src for src, _ in calls] == [s, s, t]
    assert sum(enqueued for _, enqueued in calls) <= (
        ball(s, 2) + ball(t, 2) + ball(s, 4) + ball(t, 4))


@pytest.mark.parametrize("ell", [4, 6])
def test_reduce_allocates_nothing_of_graph_size(big_grid, ell):
    """Both regimes of the reduction on the 10^5-vertex grid: the balls
    hold a few dozen vertices, and so does what the reduction allocates
    (one n-sized list of ints alone would take 800 KB)."""
    inst = from_packing(PackingInstance(big_grid, _BIG_S, _BIG_T, 2, ell))
    tracemalloc.start()
    try:
        reduce_instance(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_reduce_kept_monotone_in_ell(gex):
    prev = set()
    for ell in range(1, 8):
        ci = from_packing(PackingInstance(gex, vid(1), vid(5), 2, ell))
        _, report = reduce_instance(ci)
        kept = set(report.to_original)
        assert prev <= kept
        prev = kept


def test_reduce_maps_ids_order_preserving():
    g = Graph(6, [(0, 2), (2, 4), (4, 5), (0, 5), (1, 3)])
    ci = from_packing(PackingInstance(g, 0, 4, 1, 3))
    reduced, report = reduce_instance(ci)
    assert list(report.to_original) == sorted(report.to_original)
    for u, v in reduced.base.graph.edges():
        assert g.has_edge(report.to_original[u], report.to_original[v])


def test_reduce_decision_invariant_random():
    rng = random.Random(3)
    for trial in range(40):
        n = rng.randrange(6, 14)
        g = random_gnp(n, rng.choice([0.2, 0.35]), trial)
        s, t = rng.sample(range(n), 2)
        k, ell = rng.choice([1, 2, 3]), rng.choice([3, 5, 6])
        inst = PackingInstance(g, s, t, k, ell)
        want = oracle_decide(inst).decision
        for pre in (True, False):
            got, _, _ = solve(inst, SolverConfig(preprocess=pre))
            assert got == want


def test_reduce_node_count_invariant_random():
    # with the tree entered on both sides, reduction must not change it
    rng = random.Random(4)
    for trial in range(30):
        n = rng.randrange(8, 16)
        g = random_gnp(n, rng.choice([0.2, 0.3]), 1000 + trial)
        s, t = rng.sample(range(n), 2)
        inst = PackingInstance(g, s, t, rng.choice([2, 3]), rng.choice([5, 6]))
        runs = []
        for pre in (True, False):
            cfg = SolverConfig(preprocess=pre, trivial_detection=False)
            d, _, st = solve(inst, cfg)
            runs.append((d, st.nodes))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# the input-graph step
# ---------------------------------------------------------------------------

def _step_strata():
    """The suite's instances, then seeded G(n, p) graphs and grids with
    edge dropout whose terminals lie within ell of each other, except in
    every fourth trial, whose t is any vertex but s."""
    for case in build_suite():
        yield case.instance
    rng = random.Random(16)
    for trial in range(60):
        if trial % 2:
            n = rng.randrange(20, 120)
            g = random_gnp(n, rng.choice([2.5, 4.0, 6.0]) / (n - 1),
                           trial + 1600)
        else:
            g = grid_graph(rng.randrange(4, 12), rng.randrange(4, 12),
                           rng.choice([0.0, 0.15, 0.3]), rng)
        ell = rng.randrange(2, 9)
        s = rng.randrange(g.n)
        near = [v for v, d in enumerate(Workspace(g).distance_row(s))
                if 0 < d <= ell or (trial % 4 == 3 and v != s)]
        if near:
            yield PackingInstance(g, s, rng.choice(near),
                                  rng.choice([1, 2, 3]), ell)


def test_input_step_answers_yes_exactly_when_the_root_greedy_does():
    # the step's paths are the ones the search's root greedy finds on the
    # reduced graph, mapped back to the input ids; both run below solve's
    # direct-edge step
    vias = collections.Counter()
    packed = 0  # yes answers with k >= 2 paths to pack, ell = 2 aside
    for inst in _step_strata():
        below, front = below_root(inst)
        decision, witness, stats = solve(
            inst, SolverConfig(trivial_detection=False))
        if below is None:
            assert stats.solved_by == "trivial-yes" and stats.nodes == 0
            continue
        out = detect_on_input(from_packing(below))
        root_greedy = stats.solved_by == "greedy" and stats.nodes == 1
        assert (out.kind == "yes") == root_greedy
        vias[out.kind, out.via] += 1
        packed += out.kind == "yes" and inst.k >= 2 and inst.ell != 2
        if root_greedy:
            assert front + out.witness.paths == witness.paths
            assert out.via == ("ell2" if below.ell == 2 else
                               "k1" if below.k == 1 else "greedy")
        elif out.kind == "no":
            assert decision == "no"
            assert out.via in ("ell2", "k1", "min-separator")
    # the strata hold every answer of the step
    assert set(vias) == {("yes", "greedy"), ("yes", "k1"), ("yes", "ell2"),
                         ("no", "min-separator"), ("no", "k1"),
                         ("no", "ell2"), ("unknown", "")}, vias
    assert 150 < packed < 400


def test_input_step_decides_without_reduction_or_flow(gex, monkeypatch):
    import pathpack.preprocess
    import pathpack.search

    def forbidden(*args, **kwargs):
        raise AssertionError("the input-graph step must decide first")

    monkeypatch.setattr(pathpack.search, "reduce_instance", forbidden)
    monkeypatch.setattr(pathpack.preprocess,
                        "min_total_length_disjoint_paths", forbidden)
    # a greedy yes on a 6-cycle and a common-neighbour yes at ell = 2; on
    # the fixture, a refutation by the degree of vertex 1, and vertices 1
    # and 5 four apart, refuted by the first search at k = 1 and k = 2 and
    # by the common-neighbour count at ell = 2
    ring = Graph(6, [(v, (v + 1) % 6) for v in range(6)])
    for inst, decision in ((PackingInstance(ring, 0, 3, 2, 3), "yes"),
                           (PackingInstance(ring, 0, 2, 1, 2), "yes"),
                           (PackingInstance(gex, vid(1), vid(5), 3, 9), "no"),
                           (PackingInstance(gex, vid(1), vid(5), 1, 3), "no"),
                           (PackingInstance(gex, vid(1), vid(5), 2, 3), "no"),
                           (PackingInstance(gex, vid(1), vid(5), 1, 2), "no")):
        got, witness, stats = solve(inst)
        assert got == decision and stats.nodes == 0
        assert stats.solved_by == f"trivial-{decision}"
        assert (stats.n_after, stats.m_after) == (inst.graph.n, inst.graph.m)
        assert (witness is not None) == (decision == "yes")


def test_input_step_bfs_stops_at_ell(monkeypatch):
    kernel = pathpack.kernels.bidir_path
    depths = []

    def spy(*args):
        depths.append(args[4])
        return kernel(*args)

    monkeypatch.setattr(pathpack.kernels, "bidir_path", spy)
    rng = random.Random(5)
    for trial in range(30):
        g = grid_graph(8, 8, 0.2, rng)
        s, t = rng.sample(range(g.n), 2)
        ell = rng.randrange(1, 10)
        k = rng.choice([1, 2])
        if g.has_edge(s, t):
            continue
        depths.clear()
        out = detect_on_input(
            from_packing(PackingInstance(g, s, t, k, ell)))
        assert depths == [ell] * len(depths)
        if ell == 2:
            # the common-neighbour count searches nothing
            assert not depths
        elif out.kind != "no":
            assert depths


def test_input_step_uses_the_direct_edge_once():
    # s = 0 and t = 1 are adjacent and share the one neighbour 2: the step
    # runs on the graph without the edge and packs the path through 2
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    decision, witness, stats = solve(PackingInstance(g, 0, 1, 2, 3))
    assert decision == "yes" and stats.solved_by == "trivial-yes"
    assert witness.paths == ((0, 1), (0, 2, 1))
    # at ell = 1 only the edge itself is short enough, and only once
    decision, _, stats = solve(PackingInstance(g, 0, 1, 2, 1))
    assert decision == "no" and stats.solved_by == "trivial-no"


def test_input_step_stops_at_the_deadline(gex):
    # a deadline already passed ends the step after its first search
    inst = from_packing(PackingInstance(gex, vid(1), vid(5), 1, 4))
    assert detect_on_input(inst).kind == "yes"
    with pytest.raises(SolveTimeout):
        detect_on_input(inst, deadline=0.0)


def _reference_step(inst):
    """The input-graph step as k successive ``shortest_path_blocked``
    calls, each over a bytearray mask, whose paths count only when no
    longer than ell."""
    g, s, t, k, ell = inst.graph, inst.s, inst.t, inst.k, inst.ell
    if ell == 2:
        return detect_trivial(from_packing(inst))
    if k > min(g.degree(s), g.degree(t)):
        return TrivialOutcome("no", None, "min-separator")
    ws = Workspace(g)
    paths = []
    for _ in range(k):
        path = shortest_path_blocked(g, ws.blocked, s, t, ws)
        if path is None or len(path) - 1 > ell:
            if paths:
                return TrivialOutcome("unknown")
            return TrivialOutcome("no", None,
                                  "k1" if k == 1 else "min-separator")
        paths.append(path)
        for v in path[1:-1]:
            ws.blocked[v] = 1
    return TrivialOutcome("yes", Solution(tuple(paths)),
                          "k1" if k == 1 else "greedy")


def _step_reference_cases():
    rng = random.Random(19)
    for trial in range(24):
        if trial % 2:
            g = grid_graph(rng.randrange(10, 25), rng.randrange(10, 25),
                           rng.choice([0.1, 0.2, 0.3]), rng)
        else:
            n = rng.randrange(200, 401)
            g = random_gnp(n, 8.0 / (n - 1), rng.randrange(1 << 30))
        for _ in range(4):
            s, t = rng.sample(range(g.n), 2)
            if g.has_edge(s, t):
                continue
            for k in (1, 2, 3, 5, 7):
                for ell in (2, 3, 5, 6, 8, 10):
                    yield PackingInstance(g, s, t, k, ell)


def test_input_step_matches_successive_masked_searches():
    kinds = collections.Counter()
    for inst in _step_reference_cases():
        out = detect_on_input(from_packing(inst))
        assert out == _reference_step(inst), inst
        kinds[out.kind, out.via] += 1
    assert {("yes", "greedy"), ("yes", "k1"), ("no", "k1"),
            ("no", "min-separator"), ("unknown", "")} <= set(kinds), kinds


def test_input_step_builds_no_workspace(monkeypatch):
    # the step's searches keep their state in sets that follow the search,
    # not in buffers the size of the graph
    def refuse(self, g):
        raise AssertionError("the input-graph step built a Workspace")

    monkeypatch.setattr(Workspace, "__init__", refuse)
    kinds = {detect_on_input(from_packing(inst)).kind
             for inst in itertools.islice(_step_reference_cases(), 600)}
    assert kinds == {"yes", "no", "unknown"}


def _small_case(seed):
    rng = random.Random(seed + 1600)
    n = rng.randrange(5, 13)
    g = random_gnp(n, rng.choice([0.2, 0.35, 0.5]), seed + 1600)
    s, t = rng.sample(range(n), 2)
    return PackingInstance(g, s, t, rng.choice([1, 2, 3]),
                           rng.choice([1, 2, 3, 5, 6]))


# 100 seeds, so that the step leaves some small case open (the first is
# seed 86)
_SMALL_SEEDS = range(100)


@pytest.mark.parametrize("seed", _SMALL_SEEDS)
def test_input_step_pipelines_agree_with_the_oracle(seed):
    inst = _small_case(seed)
    truth = oracle_decide(inst).decision
    below, _ = below_root(inst)
    if below is not None:
        out = detect_on_input(from_packing(below))
        assert out.kind in ("unknown", truth)
    for cfg in (SolverConfig(), SolverConfig(trivial_detection=False),
                SolverConfig(preprocess=False)):
        decision, witness, _ = solve(inst, cfg)
        assert decision == truth
        if witness is not None:
            assert validate_solution(from_packing(inst), witness)


def test_input_step_oracle_cases_cover_every_outcome():
    below = [below_root(_small_case(seed))[0] for seed in _SMALL_SEEDS]
    kinds = {detect_on_input(from_packing(inst)).kind
             for inst in below if inst is not None}
    assert kinds == {"yes", "no", "unknown"}


# ---------------------------------------------------------------------------
# trivial detection
# ---------------------------------------------------------------------------

def _detect(g, s, t, k, ell):
    return detect_trivial(from_packing(PackingInstance(g, s, t, k, ell)))


def test_trivial_fixture_cases(gex):
    out = _detect(gex, vid(1), vid(5), 2, 5)
    assert out.kind == "yes" and out.via == "min-total-length"
    assert max(len(p) - 1 for p in out.witness.paths) == 5

    out = _detect(gex, vid(1), vid(5), 3, 9)
    assert out.kind == "no" and out.via == "min-separator"

    out = _detect(gex, vid(1), vid(5), 2, 4)
    assert out.kind == "no" and out.via == "min-total-length"


def test_trivial_degree_bound_refutes_without_a_flow(gex, monkeypatch):
    # vertices 1 and 5 have degree 2 each, so three paths cannot leave 1:
    # the input-graph step refutes that before the reduction and the flow
    import pathpack.preprocess
    import pathpack.search

    def forbidden(*args, **kwargs):
        raise AssertionError("the degree bound must decide first")

    monkeypatch.setattr(pathpack.preprocess, "min_total_length_disjoint_paths",
                        forbidden)
    monkeypatch.setattr(pathpack.search, "reduce_instance", forbidden)
    inst = PackingInstance(gex, vid(1), vid(5), 3, 9)
    out = detect_on_input(from_packing(inst))
    assert out.kind == "no" and out.via == "min-separator"
    decision, witness, stats = solve(inst)
    assert (decision, witness) == ("no", None)
    assert stats.solved_by == "trivial-no" and stats.nodes == 0
    # after the reduction, the min-cost flow refutes the same fixture
    monkeypatch.undo()
    out = _detect(gex, vid(1), vid(5), 3, 9)
    assert out.kind == "no" and out.via == "min-separator"


def test_trivial_cut_below_k_refutes_through_the_min_cost_flow():
    # s = 0 and t = 1 have degree 3, but every route passes vertex 2
    a, b = [3, 4, 5], [6, 7, 8]
    edges = ([(0, v) for v in a] + [(v, 2) for v in a]
             + [(2, v) for v in b] + [(v, 1) for v in b])
    g = Graph(9, edges)
    assert g.degree(0) == g.degree(1) == 3
    out = _detect(g, 0, 1, 3, 8)
    assert out.kind == "no" and out.via == "min-separator"
    decision, _, stats = solve(PackingInstance(g, 0, 1, 3, 8))
    assert decision == "no" and stats.nodes == 0


def test_trivial_ell_one():
    # the triangle's direct edge is the only path of length 1: solve packs
    # it at k = 1, and what is left for k = 2 has no path that short
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    decision, witness, stats = solve(PackingInstance(g, 0, 2, 1, 1))
    assert decision == "yes" and witness.paths == ((0, 2),)
    assert _detect(g.without_edge(0, 2), 0, 2, 1, 1).kind == "no"
    assert solve(PackingInstance(g, 0, 2, 2, 1))[0] == "no"
    g2 = Graph(3, [(0, 1), (1, 2)])
    assert _detect(g2, 0, 2, 1, 1).kind == "no"


def test_trivial_ell_two_counts_common_neighbors():
    # s=0, t=1 with two common neighbors 2, 3; solve takes the direct edge
    # of g out and counts the common neighbours of h
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    h = g.without_edge(0, 1)
    assert _detect(h, 0, 1, 2, 2).kind == "yes"
    assert _detect(h, 0, 1, 3, 2).kind == "no"
    out = _detect(h, 0, 1, 2, 2)
    assert out.witness.paths == ((0, 2, 1), (0, 3, 1))
    decision, witness, _ = solve(PackingInstance(g, 0, 1, 3, 2))
    assert decision == "yes"
    assert witness.paths == ((0, 1), (0, 2, 1), (0, 3, 1))
    assert solve(PackingInstance(g, 0, 1, 4, 2))[0] == "no"
    # the input-graph step answers ell = 2 with the same count
    for k in (2, 3):
        inst = from_packing(PackingInstance(h, 0, 1, k, 2))
        assert detect_on_input(inst) == detect_trivial(inst)


def test_trivial_k_one_shortest_path(gex):
    # the input-graph step decides k = 1 with one search stopped at ell
    out = detect_on_input(from_packing(PackingInstance(gex, vid(1), vid(5),
                                                       1, 4)))
    assert (out.kind, out.via) == ("yes", "k1")
    assert out.witness.paths == (vids(1, 2, 3, 4, 5),)
    out = detect_on_input(from_packing(PackingInstance(gex, vid(1), vid(5),
                                                       1, 3)))
    assert (out.kind, out.via) == ("no", "k1")
    # on its own, detect_trivial's min-cost flow is then a shortest path
    assert _detect(gex, vid(1), vid(5), 1, 4).kind == "yes"
    assert _detect(gex, vid(1), vid(5), 1, 3).kind == "no"


def test_trivial_unknown_falls_through():
    # two disjoint routes exist but only with lengths (2, 4): minimum total
    # pairing is inconclusive for ell = 3
    g = Graph(6, [(0, 1), (1, 5), (0, 2), (2, 3), (3, 4), (4, 5)])
    out = _detect(g, 0, 5, 2, 3)
    assert out.kind == "unknown"


def test_trivial_requires_bare_lists(gex):
    ci = from_packing(PackingInstance(gex, vid(1), vid(5), 2, 5))
    child = ci.with_insertion(0, 1, vid(3))
    with pytest.raises(ValueError):
        detect_trivial(child)


def test_reduce_requires_bare_lists(gex):
    ci = from_packing(PackingInstance(gex, vid(1), vid(5), 2, 5))
    child = ci.with_insertion(0, 1, vid(3))
    with pytest.raises(ValueError):
        reduce_instance(child)


@pytest.mark.parametrize("seed", range(100))
def test_trivial_soundness_random(seed):
    # seeds from 60 on are ell = 1 cases, which the k = 1 shortest path, the
    # separator and the total length decide without a detector of their own
    rng = random.Random(seed)
    ell_one = seed >= 60
    n = rng.randrange(2, 13) if ell_one else rng.randrange(4, 13)
    g = random_gnp(n, rng.choice([0.15, 0.3, 0.5]), seed + 500)
    s, t = rng.sample(range(n), 2)
    if ell_one:
        k, ell = rng.randrange(1, 5), 1
    else:
        k, ell = rng.choice([1, 2, 3]), rng.choice([1, 2, 3, 5, 6])
    inst = PackingInstance(g, s, t, k, ell)
    truth = oracle_decide(inst).decision
    # the detector runs below the direct-edge step, as solve runs it
    below, front = below_root(inst)
    if below is None:
        assert truth == "yes"
    else:
        out = detect_trivial(from_packing(below))
        if out.kind == "yes":
            assert truth == "yes"
            assert validate_solution(
                from_packing(inst), Solution(front + out.witness.paths))
        elif out.kind == "no":
            assert truth == "no"
        if ell == 1:
            assert out.kind == truth
        for cfg in (SolverConfig(), SolverConfig(preprocess=False),
                    config_from_name("bare")):
            decision, _, stats = solve(inst, cfg)
            assert decision == truth and stats.nodes == 0
