"""Tests of the benchmark itself: seeded inputs, the tracing harness and the
correctness gate.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for p in (SRC, HERE):
    if p not in sys.path:
        sys.path.insert(0, p)

import gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import pathpack.search as search  # noqa: E402
from pathpack import Graph, PackingInstance  # noqa: E402


def _pool() -> list[dict]:
    with open(worker.POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)["pool"]


def test_same_seed_same_inputs():
    assert gen.root_batch(7) == gen.root_batch(7)
    assert gen.root_batch(7) != gen.root_batch(8)
    assert gen.pipeline_large(7) == gen.pipeline_large(7)
    assert gen.pipeline_large(7) != gen.pipeline_large(8)
    assert gen.search_candidate(11) == gen.search_candidate(11)
    pool = _pool()
    assert gen.sample_pool(pool, worker.SEARCH_SAMPLE, 7) == \
        gen.sample_pool(pool, worker.SEARCH_SAMPLE, 7)
    assert gen.sample_pool(pool, worker.SEARCH_SAMPLE, 7) != \
        gen.sample_pool(pool, worker.SEARCH_SAMPLE, 8)


def test_pool_entries_regenerate():
    for entry in _pool()[:10]:
        n, _, s, t, k, ell = gen.search_candidate(entry["cid"])
        assert (n, s, t, k, ell) == tuple(
            entry[x] for x in ("n", "s", "t", "k", "ell"))


def test_large_graph_sizes_and_chains():
    for n, edges, queries in gen.pipeline_large(3):
        assert 10000 <= n <= 20000
        g = Graph(n, edges)
        assert sum(1 for v in range(n) if g.degree(v) == 1) > 0
        assert len(queries) == gen.LARGE_QUERIES


def _small_root_batch(monkeypatch):
    monkeypatch.setattr(gen, "ROOT_GRAPHS", 1)
    monkeypatch.setattr(gen, "ROOT_PAIRS", 1)
    monkeypatch.setattr(worker, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [False, True])
def test_run_leaves_pathpack_unpatched(monkeypatch, tmp_path, trace):
    _small_root_batch(monkeypatch)
    import pathpack.cli  # noqa: F401  (load every module the run uses)
    before = tracing.snapshot()
    inputs = worker.write_inputs("root-batch", 5, str(tmp_path))
    record = worker.run_workload("root-batch", 5, 0, trace, inputs)
    assert tracing.snapshot() == before
    assert record["failed"] == 0
    if trace:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
        assert per_layer <= set(record["metrics"])
        assert record["metrics"]["kernels.bfs_calls"]["value"] > 0
        assert record["metrics"]["search.entered_frac"]["value"] == 0


def test_tracer_counts_and_restores():
    g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    before = tracing.snapshot()
    with tracing.Tracer() as tr:
        assert tracing.snapshot() != before
        decision, _, _ = search.solve(PackingInstance(g, 0, 3, 2, 2))
    assert decision == "yes"
    assert tracing.snapshot() == before
    assert tr.spans["solve"].calls == 1
    assert tr.spans["trivial"].counts == {"via.ell2": 1, "decided": 1}


def test_absent_target_is_reported_not_fatal(monkeypatch):
    targets = [(k, m, "bfs_tree_removed" if k == "bfs" else q)
               for k, m, q in tracing.TARGETS]
    monkeypatch.setattr(tracing, "TARGETS", targets)
    g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    before = tracing.snapshot()
    with pytest.warns(UserWarning, match="bfs_tree_removed"):
        with tracing.Tracer() as tr:
            search.solve(PackingInstance(g, 0, 3, 2, 3))
    assert tracing.snapshot() == before
    metrics = tr.metrics(1, 1, 1)
    assert "kernels.bfs_calls" not in metrics
    assert "share.kernels" not in metrics
    assert "search.entered_frac" in metrics


def test_gate_rejects_bad_witness_and_changed_pass():
    inst = PackingInstance(Graph(3, [(0, 1), (1, 2)]), 0, 2, 1, 2)
    gate = worker.Gate([worker.Op(lambda: None, inst)])
    with pytest.raises(worker.GateError, match="invalid witness"):
        gate.check(0, worker.Outcome("yes", ((0, 2),), 0))
    gate.check(0, worker.Outcome("yes", ((0, 1, 2),), 0))
    with pytest.raises(worker.GateError, match="first pass"):
        gate.check(0, worker.Outcome("no", None, 0))


def test_gate_counts_timeouts_without_comparing_them():
    inst = PackingInstance(Graph(3, [(0, 1), (1, 2)]), 0, 2, 1, 2)
    gate = worker.Gate([worker.Op(lambda: None, inst)])
    gate.check(0, worker.Outcome("timeout", None, 17))
    gate.check(0, worker.Outcome("timeout", None, 40))
    gate.check(0, worker.Outcome("no", None, 3))
    assert (gate.attempted, gate.failed) == (3, 2)
    assert gate.tree()["timeout"] == 1
    assert worker._same_decisions("ytn", "yyn")
    assert not worker._same_decisions("nyn", "yyn")


def test_loop_runs_whole_passes():
    inst = PackingInstance(Graph(3, [(0, 1), (1, 2)]), 0, 2, 1, 2)
    ops = [worker.Op(lambda: worker.Outcome("no", None, 0), inst)] * 5
    gate = worker.Gate(ops)
    times = worker._loop(ops, gate, 0.01)
    assert len(times) > 0 and len(times) % len(ops) == 0
    assert len(worker._loop(ops, gate, 0)) == len(ops)


def test_gate_holds_under_python_O():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{SRC!r}, {HERE!r}]\n"
        "import worker\n"
        "from pathpack import Graph, PackingInstance\n"
        "inst = PackingInstance(Graph(3, [(0, 1), (1, 2)]), 0, 2, 1, 2)\n"
        "gate = worker.Gate([worker.Op(lambda: None, inst)])\n"
        "try:\n"
        "    gate.check(0, worker.Outcome('yes', ((0, 2),), 0))\n"
        "except worker.GateError:\n"
        "    sys.exit(0 if sys.flags.optimize else 4)\n"
        "sys.exit(3)\n")
    proc = subprocess.run([sys.executable, "-O", "-W", "ignore", "-c", code],
                          timeout=60)
    assert proc.returncode == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "root-batch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
