"""Parity of a parsed graph, whose rows are slices of one flat buffer, with
the same graph built by ``Graph(n, edges)``, whose rows are tuples.

Every reader of ``adj[v]`` must see the same graph either way: the graph
queries, the text round trip, the reduction and whole solves, under the
default config and with preprocessing or trivial detection off.
"""

import random
from dataclasses import replace

import pytest

from pathpack import (Graph, PackingInstance, SolverConfig, Workspace,
                      format_graph, from_packing, parse_graph, random_gnp)
from pathpack.graph import FAR
from pathpack.greedy import run_greedy
from pathpack.preprocess import reduce_instance
from pathpack.search import solve

CONFIGS = {
    "default": SolverConfig(),
    "no-preprocess": SolverConfig(preprocess=False),
    "no-trivial": SolverConfig(trivial_detection=False),
}


def grid_with_chains(width, height, chains, rng):
    """A width x height grid with pendant chains of 1-4 vertices hung off
    random vertices; ids are shuffled, so chains and grid interleave."""
    edges = []
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                edges.append((v, v + 1))
            if r + 1 < height:
                edges.append((v, v + width))
    n = width * height
    for _ in range(chains):
        prev = rng.randrange(n)
        for _ in range(rng.randrange(1, 5)):
            edges.append((prev, n))
            prev = n
            n += 1
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def _graphs():
    rng = random.Random(2024)
    out = []
    for seed in range(6):
        n = rng.randrange(8, 40)
        out.append(random_gnp(n, rng.choice([0.1, 0.2, 0.35]), seed))
    for seed in range(4):
        out.append(grid_with_chains(rng.randrange(3, 7), rng.randrange(3, 7),
                                    rng.randrange(1, 6), rng))
    # the last vertex has the widest row, so its row is the last slice
    out.append(Graph(7, [(v, 6) for v in range(6)] + [(0, 1)]))
    return out


GRAPHS = _graphs()


def _text(g, rng):
    """``g`` in the text format, with its edge lines shuffled and each
    edge in a random orientation."""
    edges = list(g.edges())
    rng.shuffle(edges)
    return f"{g.n} {g.m}\n" + "".join(
        f"{v + 1} {u + 1}\n" if rng.random() < 0.5 else f"{u + 1} {v + 1}\n"
        for u, v in edges)


def _parsed(g, seed=0):
    return parse_graph(_text(g, random.Random(seed)))


def _queries(g, count, seed):
    """(s, t, k, ell) with ell at most 3 above the s-t distance, so that
    some queries reach the search under the default config; an unreachable
    pair (distance FAR) gets ell 4 to 7."""
    rng = random.Random(seed)
    ws = Workspace(g)
    out = []
    for _ in range(count):
        s, t = rng.sample(range(g.n), 2)
        d = ws.distance_row(s)[t]
        ell = (d if d < FAR else 4) + rng.randrange(4)
        out.append((s, t, rng.choice([1, 2, 2, 3]), ell))
    return out


def _assert_same_graph(parsed, built):
    assert (parsed.n, parsed.m) == (built.n, built.m)
    assert len(parsed.adj) == len(built.adj) == built.n
    assert [tuple(row) for row in parsed.adj] == list(built.adj)
    for v in range(built.n):
        assert tuple(parsed.neighbors(v)) == built.neighbors(v)
        assert parsed.degree(v) == built.degree(v)
        for w in range(built.n):
            assert parsed.has_edge(v, w) == built.has_edge(v, w)
    assert list(parsed.edges()) == list(built.edges())


@pytest.mark.parametrize("g", GRAPHS, ids=range(len(GRAPHS)))
def test_parsed_graph_answers_like_the_built_one(g):
    parsed = _parsed(g)
    _assert_same_graph(parsed, g)
    text = format_graph(parsed)
    assert text == format_graph(g)
    _assert_same_graph(parse_graph(text), g)


@pytest.mark.parametrize("text,rows", [
    ("0 0\n", ()),
    ("5 1\n1 2\n", ((1,), (0,), (), (), ())),
    ("4 2\n4 1\n2 4\n", ((3,), (3,), (), (0, 1))),
])
def test_edge_case_files_parse_to_the_built_rows(text, rows):
    parsed = parse_graph(text)
    built = Graph(len(rows), [(u, v) for u, row in enumerate(rows)
                              for v in row if u < v])
    assert built.adj == rows
    _assert_same_graph(parsed, built)
    assert parse_graph(format_graph(parsed)).m == built.m


def test_a_row_past_the_last_vertex_does_not_exist():
    parsed = parse_graph("3 1\n1 3\n")
    assert tuple(parsed.adj[2]) == (0,)
    with pytest.raises(IndexError):
        parsed.adj[3]


@pytest.mark.parametrize("g", GRAPHS, ids=range(len(GRAPHS)))
def test_reduction_of_a_parsed_graph_matches(g):
    parsed = _parsed(g, 1)
    for s, t, k, ell in _queries(g, 6, g.n):
        want, want_report = reduce_instance(
            from_packing(PackingInstance(g, s, t, k, ell)))
        got, got_report = reduce_instance(
            from_packing(PackingInstance(parsed, s, t, k, ell)))
        # the reduced graph has tuple rows whichever layout it came from
        assert got.base.graph.adj == want.base.graph.adj
        assert (got.base.s, got.base.t) == (want.base.s, want.base.t)
        assert got_report == want_report


# (graph, (s, t, k, ell)) that reach the search under the default config,
# found by a seeded scan: grids (width, height, chains, seed) and G(n, p)
# graphs (n, p, seed); two decide yes
SEARCH_CASES = [
    (("grid", 5, 6, 1, 10), (18, 1, 3, 7)),
    (("grid", 4, 6, 5, 15), (1, 28, 2, 6)),
    (("gnp", 27, 0.12, 41), (12, 18, 2, 6)),
    (("grid", 5, 6, 4, 91), (25, 29, 3, 6)),
    (("gnp", 26, 0.18, 356), (6, 17, 3, 4)),
    (("grid", 5, 6, 5, 359), (5, 32, 3, 7)),
    (("grid", 5, 7, 5, 412), (36, 12, 3, 8)),
]


def _search_case(spec):
    if spec[0] == "gnp":
        return random_gnp(*spec[1:])
    width, height, chains, seed = spec[1:]
    return grid_with_chains(width, height, chains, random.Random(seed))


def _assert_same_solve(g, parsed, query, cfg):
    runs = [solve(PackingInstance(graph, *query), cfg)
            for graph in (g, parsed)]
    (want, want_witness, want_stats), (got, got_witness, got_stats) = runs
    assert got == want
    assert got_witness == want_witness
    assert replace(got_stats, wall_ms=0.0) == replace(want_stats, wall_ms=0.0)
    return want_stats


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("g", GRAPHS, ids=range(len(GRAPHS)))
def test_solve_on_a_parsed_graph_matches(g, name):
    parsed = _parsed(g, 2)
    for query in _queries(g, 4, g.n + 1):
        _assert_same_solve(g, parsed, query, CONFIGS[name])


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("spec,query", SEARCH_CASES,
                         ids=range(len(SEARCH_CASES)))
def test_searched_solve_on_a_parsed_graph_matches(spec, query, name):
    g = _search_case(spec)
    stats = _assert_same_solve(g, _parsed(g, 3), query, CONFIGS[name])
    if name != "no-trivial":
        assert stats.solved_by == "search" and stats.nodes > 1


@pytest.mark.parametrize("spec,query", SEARCH_CASES,
                         ids=range(len(SEARCH_CASES)))
def test_a_solve_without_the_reduction_walks_tuple_rows(spec, query,
                                                        monkeypatch):
    # the whole parsed graph gets tuple rows once, so the layers after the
    # root never read the row view
    import pathpack.search as search
    layouts = []

    class Spy(Workspace):
        def __init__(self, g):
            layouts.append(type(g.adj))
            super().__init__(g)

    def spied_greedy(inst, *args):
        layouts.append(type(inst.base.graph.adj))
        return run_greedy(inst, *args)

    monkeypatch.setattr(search, "Workspace", Spy)
    monkeypatch.setattr(search, "run_greedy", spied_greedy)
    g = _search_case(spec)
    parsed = _parsed(g, 4)
    assert type(parsed.adj) is not tuple
    stats = _assert_same_solve(g, parsed, query,
                               SolverConfig(preprocess=False))
    assert stats.nodes >= 1
    assert layouts and set(layouts) == {tuple}
