"""Metamorphic properties of ``solve``: relations between the decisions of
related instances that hold whatever the right answer is.

- relabelling the vertices keeps the decision, and a yes witness maps back
  to one of the original instance;
- yes at ell implies yes at ell + 1;
- yes at k implies yes at k - 1;
- adding an edge never turns yes into no.

An incomplete search answers no where a yes exists, which can break
these relations on instances that the search decides.  The instances are the
open candidates of the layered reference, which the default root leaves to
the search, and small G(n, p) graphs.  Each property runs under the
default configuration, without trivial detection and without
preprocessing, each with a timeout; a comparison with a timeout in it is
skipped.  The examples are derandomized, so a run is reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pathpack import (Graph, PackingInstance, Solution, SolverConfig,
                      from_packing, random_gnp, solve, validate_solution)

from test_layered_reference import OPEN_IDS, open_candidate

TIMEOUT_MS = 250
CONFIGS = {
    "default": SolverConfig(timeout_ms=TIMEOUT_MS),
    "no-trivial": SolverConfig(trivial_detection=False,
                               timeout_ms=TIMEOUT_MS),
    "no-preprocess": SolverConfig(preprocess=False, timeout_ms=TIMEOUT_MS),
}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

_open = functools.cache(open_candidate)


@st.composite
def instances(draw) -> PackingInstance:
    """An open candidate of the layered reference, or a small G(n, p)
    instance."""
    if draw(st.booleans()):
        return _open(draw(st.sampled_from(OPEN_IDS)))
    n = draw(st.integers(6, 11))
    g = random_gnp(n, draw(st.sampled_from([0.25, 0.35, 0.5])),
                   draw(st.integers(0, 1 << 16)))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True))
    return PackingInstance(g, s, t, draw(st.integers(1, 3)),
                           draw(st.integers(2, 6)))


def _implies_yes(name: str, stronger: PackingInstance,
                 weaker: PackingInstance) -> None:
    """A yes on ``stronger`` is a yes on ``weaker``, unless either times
    out."""
    cfg = CONFIGS[name]
    first, _, _ = solve(stronger, cfg)
    second, _, _ = solve(weaker, cfg)
    if "timeout" not in (first, second):
        assert not (first == "yes" and second == "no")


@pytest.mark.parametrize("name", CONFIGS)
@PROPERTY
@given(inst=instances(), data=st.data())
def test_relabelling_keeps_the_decision(name, inst, data):
    g = inst.graph
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = PackingInstance(
        Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]),
        perm[inst.s], perm[inst.t], inst.k, inst.ell)
    cfg = CONFIGS[name]
    decision, _, _ = solve(inst, cfg)
    other, witness, _ = solve(relabelled, cfg)
    if "timeout" in (decision, other):
        return
    assert decision == other
    if witness is not None:
        back = {p: v for v, p in enumerate(perm)}
        paths = tuple(tuple(back[v] for v in path) for path in witness.paths)
        assert validate_solution(from_packing(inst), Solution(paths)).ok


@pytest.mark.parametrize("name", CONFIGS)
@PROPERTY
@given(inst=instances())
def test_a_longer_bound_keeps_yes(name, inst):
    _implies_yes(name, inst, replace(inst, ell=inst.ell + 1))


@pytest.mark.parametrize("name", CONFIGS)
@PROPERTY
@given(inst=instances())
def test_fewer_paths_keep_yes(name, inst):
    assume(inst.k > 1)
    _implies_yes(name, inst, replace(inst, k=inst.k - 1))


@pytest.mark.parametrize("name", CONFIGS)
@PROPERTY
@given(inst=instances(), data=st.data())
def test_an_added_edge_keeps_yes(name, inst, data):
    g = inst.graph
    u, v = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2,
                              max_size=2, unique=True))
    assume(not g.has_edge(u, v))
    _implies_yes(name, inst, replace(inst, graph=Graph(g.n, [*g.edges(),
                                                             (u, v)])))
