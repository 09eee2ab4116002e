import itertools
import random

import pytest

from pathpack import PackingInstance, from_packing, random_gnp, validate_solution
from pathpack.oracle import enumerate_bounded_paths, oracle_decide

from conftest import flow_value, vid, vids


def test_enumeration_on_fixture(gex):
    got = enumerate_bounded_paths(gex, vid(1), vid(5), 5)
    assert got == [vids(1, 2, 3, 4, 5), vids(1, 2, 9, 10, 11, 5),
                   vids(1, 6, 7, 8, 4, 5)]
    assert enumerate_bounded_paths(gex, vid(1), vid(5), 4) == \
        [vids(1, 2, 3, 4, 5)]


def test_enumeration_triangle_plus_detour():
    # direct edge s-t plus the detour s-a-t
    from pathpack import Graph
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert len(enumerate_bounded_paths(g, 0, 2, 2)) == 2


def test_enumeration_lexicographic_and_distinct(gex):
    paths = enumerate_bounded_paths(gex, vid(1), vid(5), 8)
    assert paths == sorted(paths)
    assert len(set(paths)) == len(paths)


def test_decide_fixture(gex):
    assert oracle_decide(PackingInstance(gex, vid(1), vid(5), 2, 5)).decision == "yes"
    assert oracle_decide(PackingInstance(gex, vid(1), vid(5), 2, 4)).decision == "no"
    assert oracle_decide(PackingInstance(gex, vid(1), vid(5), 3, 9)).decision == "no"


def test_witness_validates(gex):
    inst = PackingInstance(gex, vid(1), vid(5), 2, 5)
    ans = oracle_decide(inst)
    assert ans.witness is not None
    assert validate_solution(from_packing(inst), ans.witness)


@pytest.mark.parametrize("seed", range(15))
def test_monotone_in_k_and_ell(seed):
    rng = random.Random(seed)
    n = rng.randrange(6, 12)
    g = random_gnp(n, 0.35, seed)
    s, t = 0, n - 1
    answers = {}
    for k, ell in itertools.product((1, 2, 3), (2, 3, 4, 5)):
        answers[k, ell] = oracle_decide(
            PackingInstance(g, s, t, k, ell)).decision
    for k, ell in answers:
        if answers[k, ell] == "yes":
            if (k, ell + 1) in answers:
                assert answers[k, ell + 1] == "yes"
            if (k - 1, ell) in answers:
                assert answers[k - 1, ell] == "yes"


@pytest.mark.parametrize("seed", range(15))
def test_unbounded_max_packing_equals_flow_value(seed):
    rng = random.Random(seed + 50)
    n = rng.randrange(4, 12)
    g = random_gnp(n, 0.4, seed + 50)
    s, t = rng.sample(range(n), 2)
    ans = oracle_decide(PackingInstance(g, s, t, 1, max(1, n - 1)),
                        want_max_packing=True)
    assert ans.max_packing == flow_value(g, s, t, g.n)


def test_direct_edge_used_at_most_once():
    from pathpack import Graph
    g = Graph(2, [(0, 1)])
    assert oracle_decide(PackingInstance(g, 0, 1, 1, 1)).decision == "yes"
    assert oracle_decide(PackingInstance(g, 0, 1, 2, 5)).decision == "no"
