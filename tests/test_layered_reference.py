"""An exact reference for the decision that reaches past the brute-force
oracle: a binary program on the layered (time-expanded) graph, solved with
scipy's MILP (HiGHS).

The model is built from ``Graph.edges()`` and networkx distances only, never
from solver code.  Layer d holds the d-th vertex of a path, and a variable
is an arc u -> v taken from layer d to layer d + 1, for d < ell, kept only
where dist(s, u) <= d and d + 1 + dist(v, t) <= ell.  Arcs leave s only at
layer 0, and no arc enters s or leaves t.  Flow is conserved at every (v, d)
of a non-terminal v, each non-terminal takes at most one unit of inflow
over all its layers, and s sends out k units.  Layers only go up, so the
flow splits into k s-t paths of length at most ell that share no inner
vertex, and the program is feasible exactly when the answer is yes.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from pathpack import Graph, PackingInstance, SolverConfig, solve

from conftest import grid_graph
from suite import build_suite


def layered_decision(inst: PackingInstance) -> str:
    """'yes' or 'no' for ``inst``, from the layered binary program."""
    g, s, t, k, ell = inst.graph, inst.s, inst.t, inst.k, inst.ell
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(range(g.n))
    from_s = nx.single_source_shortest_path_length(nxg, s, cutoff=ell)
    to_t = nx.single_source_shortest_path_length(nxg, t, cutoff=ell)
    arcs = []
    for a, b in g.edges():
        for u, v in ((a, b), (b, a)):
            if u == t or v == s or u not in from_s or v not in to_t:
                continue
            last = 0 if u == s else ell - 1 - to_t[v]
            arcs.extend((u, v, d) for d in range(from_s[u], last + 1))
    if not arcs:
        return "no"
    # one row per conserved (v, d), per inner vertex's capacity, and the
    # outflow of s
    rows: dict = {}
    entries = []
    for col, (u, v, d) in enumerate(arcs):
        if u == s:
            entries.append((rows.setdefault("source", len(rows)), col, 1))
        else:
            entries.append((rows.setdefault((u, d), len(rows)), col, -1))
        if v != t:
            entries.append((rows.setdefault((v, d + 1), len(rows)), col, 1))
            entries.append((rows.setdefault(v, len(rows)), col, 1))
    lower = np.zeros(len(rows))
    upper = np.zeros(len(rows))
    for key, row in rows.items():
        if key == "source":
            lower[row] = upper[row] = k
        elif not isinstance(key, tuple):
            upper[row] = 1
    r, c, x = zip(*entries)
    matrix = csr_array((x, (r, c)), shape=(len(rows), len(arcs)))
    res = milp(np.zeros(len(arcs)), integrality=np.ones(len(arcs)),
               bounds=Bounds(0, 1),
               constraints=LinearConstraint(matrix, lower, upper))
    if res.status == 0:
        return "yes"
    if res.status == 2:
        return "no"
    raise RuntimeError(f"MILP ended with status {res.status}: {res.message}")


def test_reference_on_small_cases():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert layered_decision(PackingInstance(path, 0, 3, 1, 3)) == "yes"
    assert layered_decision(PackingInstance(path, 0, 3, 1, 2)) == "no"
    assert layered_decision(PackingInstance(path, 0, 3, 2, 9)) == "no"
    # a 4-cycle with a chord between the terminals: the edge is one path
    sq = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
    assert layered_decision(PackingInstance(sq, 0, 3, 3, 2)) == "yes"
    assert layered_decision(PackingInstance(sq, 0, 3, 3, 1)) == "no"
    # a detour may not come back through the source
    lollipop = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)])
    assert layered_decision(PackingInstance(lollipop, 1, 4, 1, 9)) == "yes"
    assert layered_decision(PackingInstance(lollipop, 1, 4, 2, 9)) == "no"
    split = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert layered_decision(PackingInstance(split, 0, 5, 1, 9)) == "no"


CONFIGS = {
    "default": SolverConfig(),
    "no-trivial": SolverConfig(trivial_detection=False),
    "no-preprocess": SolverConfig(preprocess=False),
}


def _assert_agrees(instances, label):
    """Check solve against the reference on each (tag, instance) under every
    configuration.  Returns (the reference's decision, the default
    configuration's ``solved_by``) per instance."""
    mismatches = []
    seen = []
    for tag, inst in instances:
        want = layered_decision(inst)
        for name, cfg in CONFIGS.items():
            got, _, stats = solve(inst, cfg)
            if got != want:
                mismatches.append((tag, name, got, want))
            if name == "default":
                seen.append((want, stats.solved_by))
    assert not mismatches, f"{label}: solve differs from the reference " \
                           f"(case, config, solve, reference): {mismatches}"
    return seen


def test_solve_agrees_with_the_reference_on_the_suite():
    _assert_agrees([(case.label, case.instance) for case in build_suite()],
                   "suite")


def _geometric_graph(n: int, radius: float, rng: random.Random) -> Graph:
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if math.dist(pts[u], pts[v]) <= radius])


def open_candidate(cid: int) -> PackingInstance:
    """Candidate ``cid``: a random geometric graph (even ids) or a grid with
    10-30% edge dropout (odd ids), n in 60..200, terminals 2..10 apart, k in
    2..4 and ell at most 3 above their distance."""
    rng = random.Random(cid)
    while True:
        if cid % 2 == 0:
            n = rng.randint(60, 200)
            g = _geometric_graph(n, math.sqrt(rng.uniform(6.0, 9.0)
                                              / (n * math.pi)), rng)
        else:
            g = grid_graph(rng.randint(8, 14), rng.randint(8, 14),
                           rng.uniform(0.1, 0.3), rng)
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.n))
        s = rng.randrange(g.n)
        dist = nx.single_source_shortest_path_length(nxg, s, cutoff=10)
        band = sorted(v for v, d in dist.items() if d >= 2)
        if band:
            t = rng.choice(band)
            return PackingInstance(g, s, t, rng.randint(2, 4),
                                   dist[t] + rng.randint(0, 3))


# the 77 candidates in ids 0..1999 that the default root leaves to the
# search, less the 15 that some configuration takes over 100 ms to decide
# (on a 2-CPU x86 host): found by a one-time seeded scan, in which the
# reference agreed with every configuration that decided; 11 answer yes
OPEN_IDS = [29, 69, 71, 114, 183, 237, 273, 295, 359, 366, 382, 385, 411,
            416, 465, 472, 485, 489, 511, 580, 719, 780, 791, 799, 804, 809,
            861, 912, 1010, 1034, 1045, 1131, 1176, 1178, 1241, 1247, 1302,
            1320, 1325, 1354, 1355, 1361, 1370, 1406, 1428, 1430, 1431, 1543,
            1545, 1585, 1636, 1653, 1718, 1797, 1810, 1833, 1836, 1878, 1919,
            1965, 1969, 1971]


def test_solve_agrees_with_the_reference_on_open_instances():
    instances = [(cid, open_candidate(cid)) for cid in OPEN_IDS]
    decisions, solved_by = zip(*_assert_agrees(instances, "open instances"))
    assert set(decisions) == {"yes", "no"} and set(solved_by) == {"search"}
