#!/usr/bin/env python3
"""One measured run of one workload, in a process of its own.

``run.py`` first calls ``write_inputs`` in its own process, so that making
the seeded inputs does not count towards a measured child's memory, and
then starts this file as a child process; ``run_workload`` is also
importable for tests.  The run:

1. times ``import pathpack``;
2. reads the inputs that ``write_inputs`` wrote (untimed);
3. sets up SETUP_REPEATS times: build the workload's ``Graph`` objects and
   run one warm-up op; ``setup_s`` is the import time plus the median;
4. runs the ops as a closed loop, one at a time, in whole passes over the
   workload for about ``seconds``, so every op has the same weight
   whatever the program's speed;
5. with tracing, alternates untraced passes with passes under
   ``tracing.Tracer``, for the per-layer metrics and the tracing overhead.

Every op is checked outside its timed region: a ``yes`` witness is
validated against the original, unreduced instance; every pass must repeat
the first pass's decisions and node counts; for the committed seed the
decisions must equal ``expected.json``.  An op that times out counts as
failed and is left out of the repeat and expected checks, because where a
timeout stops depends on time.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POOL_FILE = os.path.join(HERE, "pool.json")
EXPECTED_FILE = os.path.join(HERE, "expected.json")

WORKLOADS = ("search-default", "root-batch", "pipeline-large")
SETUP_REPEATS = 2       # per child process
GUARD_MS = 10_000        # per-op timeout; a guard only, never reached
STOP_AFTER_S = 40.0      # hard stop for each measured loop
SEARCH_SAMPLE = 64       # search-default instances per run, from the pool


@dataclass
class Outcome:
    decision: str                  # yes | no | timeout | error
    paths: Optional[tuple]         # 0-based witness for yes
    nodes: int


@dataclass
class Op:
    run: Callable[[], Outcome]
    instance: object               # original PackingInstance, for the gate


class GateError(Exception):
    """An op's output is wrong; the run is not correct."""


def _solve_op(inst, cfg) -> Op:
    import pathpack.search as search

    def run() -> Outcome:
        decision, witness, stats = search.solve(inst, cfg)
        return Outcome(decision, witness.paths if witness else None,
                       stats.nodes)
    return Op(run, inst)


def _cli_op(argv: list[str], inst) -> Op:
    import pathpack.cli as cli

    def run() -> Outcome:
        buf = io.StringIO()
        rc = cli.main(argv, out=buf)
        if rc not in (0, 1, 2):
            return Outcome("error", None, 0)
        payload = json.loads(buf.getvalue())
        decision = payload["decision"]
        if rc != {"yes": 0, "no": 1}.get(decision, 2):
            return Outcome("error", None, 0)
        paths = payload["witness"]
        if paths is not None:
            paths = tuple(tuple(v - 1 for v in p) for p in paths)
        return Outcome(decision, paths, payload["stats"]["nodes"])
    return Op(run, inst)


# ---------------------------------------------------------------------------
# workloads: generate(seed, workdir) -> spec, JSON data (made by run.py, not
# by the measured child); build(spec) -> ops (timed as set-up)
# ---------------------------------------------------------------------------

def _generate_search(seed: int, workdir: str):
    import gen
    with open(POOL_FILE, encoding="utf-8") as fh:
        pool = json.load(fh)["pool"]
    spec = []
    for entry in gen.sample_pool(pool, SEARCH_SAMPLE, seed):
        n, edges, s, t, k, ell = gen.search_candidate(entry["cid"])
        if (s, t, k, ell) != tuple(entry[x] for x in ("s", "t", "k", "ell")):
            raise GateError(f"candidate {entry['cid']} no longer matches "
                            "pool.json; the generator changed")
        spec.append((n, edges, s, t, k, ell))
    return spec


def _build_search(spec) -> list[Op]:
    from pathpack import Graph, PackingInstance, SolverConfig
    cfg = SolverConfig(timeout_ms=GUARD_MS)
    return [_solve_op(PackingInstance(Graph(n, edges), s, t, k, ell), cfg)
            for n, edges, s, t, k, ell in spec]


def _generate_root(seed: int, workdir: str):
    import gen
    return gen.root_batch(seed)


def _build_root(spec) -> list[Op]:
    from pathpack import Graph, PackingInstance, SolverConfig
    graphs, instances = spec
    built = [Graph(n, edges) for n, edges in graphs]
    cfg = SolverConfig(timeout_ms=GUARD_MS)
    return [_solve_op(PackingInstance(built[gi], s, t, k, ell), cfg)
            for gi, s, t, k, ell in instances]


def _generate_large(seed: int, workdir: str):
    import gen
    spec = []
    for i, (n, edges, queries) in enumerate(gen.pipeline_large(seed)):
        path = os.path.join(workdir, f"large{i}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n} {len(edges)}\n")
            fh.writelines(f"{u + 1} {v + 1}\n" for u, v in edges)
        spec.append((path, queries))
    return spec


def _build_large(spec) -> list[Op]:
    from pathpack import PackingInstance, load_graph
    ops = []
    for path, queries in spec:
        g = load_graph(path)
        for s, t, k, ell in queries:
            argv = ["solve", path, "--s", str(s + 1), "--t", str(t + 1),
                    "--k", str(k), "--ell", str(ell),
                    "--timeout-ms", str(GUARD_MS), "--json"]
            ops.append(_cli_op(argv, PackingInstance(g, s, t, k, ell)))
    return ops


_WORKLOADS = {
    "search-default": (_generate_search, _build_search),
    "root-batch": (_generate_root, _build_root),
    "pipeline-large": (_generate_large, _build_large),
}


def write_inputs(workload: str, seed: int, workdir: str) -> str:
    """Make the workload's seeded inputs in ``workdir``; returns the path of
    the JSON file that ``run_workload`` reads."""
    spec = _WORKLOADS[workload][0](seed, workdir)
    path = os.path.join(workdir, "inputs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


# ---------------------------------------------------------------------------
# the measured loop and its correctness gate
# ---------------------------------------------------------------------------

class Gate:
    """Checks every op's outcome and keeps the first pass's tree record."""

    def __init__(self, ops: list[Op]):
        from pathpack.model import Solution, from_packing, validate_solution
        self._validate = validate_solution   # bound before any tracing
        self._from_packing = from_packing
        self._solution = Solution
        self.ops = ops
        self.first: list[Optional[tuple[str, int]]] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0

    def check(self, i: int, out: Outcome) -> None:
        self.attempted += 1
        if out.decision not in ("yes", "no"):
            self.failed += 1
        if out.decision == "error":
            raise GateError(f"op {i}: the CLI returned an error")
        if out.decision == "yes":
            if out.paths is None:
                raise GateError(f"op {i}: yes without a witness")
            inst = self.ops[i].instance
            report = self._validate(self._from_packing(inst),
                                    self._solution(tuple(out.paths)))
            if not report.ok:
                raise GateError(f"op {i}: invalid witness "
                                f"({report.violation})")
        # a timeout stops at a time, not at a node count: record no nodes
        # for it and do not compare it with other passes
        record = (out.decision, out.nodes if out.decision != "timeout" else -1)
        if self.first[i] is None:
            self.first[i] = record
        elif "timeout" not in (record[0], self.first[i][0]) \
                and self.first[i] != record:
            raise GateError(f"op {i}: pass gave {record}, first pass gave "
                            f"{self.first[i]}")

    def decisions(self) -> str:
        """One letter per op of the first pass: y, n or t (timeout)."""
        return "".join(r[0][0] for r in self.first)

    def tree(self) -> dict:
        text = ";".join(f"{d}:{n}" for d, n in self.first)
        counts = {d: sum(1 for r in self.first if r[0] == d)
                  for d in ("yes", "no", "timeout")}
        return {"ops_per_pass": len(self.first),
                "checksum": hashlib.sha256(text.encode()).hexdigest()[:16],
                **counts}


def _loop(ops: list[Op], gate: Gate, seconds: float) -> list[int]:
    """Closed loop over whole passes of ``ops``: the whole number of passes
    nearest to ``seconds``, and at least one.  Returns each op's wall time
    in ns."""
    times = []
    passes = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if time.perf_counter() - start >= STOP_AFTER_S:
                raise GateError(f"stopped after {STOP_AFTER_S} s, inside "
                                f"pass {passes + 1}")
            t0 = time.perf_counter_ns()
            out = op.run()
            times.append(time.perf_counter_ns() - t0)
            gate.check(i, out)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes > seconds:
            return times


def _provenance(seed: int) -> dict:
    import numpy
    import pathpack.kernels as kernels
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": has_numba,
        "backend": getattr(kernels, "BACKEND", "absent"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _same_decisions(got: str, expected: str) -> bool:
    """Equal, except where ``got`` timed out."""
    return len(got) == len(expected) and all(
        g in ("t", e) for g, e in zip(got, expected))


def _expected(workload: str, seed: int) -> Optional[dict]:
    if not os.path.exists(EXPECTED_FILE):
        return None
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("seed") != seed:
        return None
    return data["workloads"].get(workload)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 inputs: str, check_expected: bool = True) -> dict:
    """One child's share of a run.  Untraced, the record carries the raw
    op times and set-up samples, which run.py merges over its children;
    traced, it carries the per-layer metrics.  Raises GateError when an
    output is wrong."""
    t0 = time.perf_counter()
    import pathpack  # noqa: F401  (timed: part of set-up)
    import pathpack.cli, pathpack.search  # noqa: E401,F401
    import_s = time.perf_counter() - t0

    with open(inputs, encoding="utf-8") as fh:
        spec = json.load(fh)
    build = _WORKLOADS[workload][1]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = build(spec)
        warm = ops[0].run()      # op 0 is from the cheapest stratum
        samples.append(time.perf_counter() - t0)
    gate = Gate(ops)
    gate.check(0, warm)
    gate.attempted = gate.failed = 0      # the warm-up op is not measured

    record = {"workload": workload, "trace": trace}
    if not trace:
        times = _loop(ops, gate, seconds)
        record.update(times_ns=times, import_s=import_s,
                      setup_samples=samples)
    else:
        from tracing import Tracer
        # alternate untraced and traced passes, so that drift in machine
        # speed does not land on one side of the overhead comparison
        tracer = Tracer()
        plain, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            plain += _loop(ops, gate, 0)
            with tracer:
                traced += _loop(ops, gate, 0)
        metrics = tracer.metrics(len(traced), len(traced) // len(ops),
                                 sum(traced))
        plain_sps = len(plain) / (sum(plain) / 1e9)
        traced_sps = len(traced) / (sum(traced) / 1e9)
        metrics["trace.untraced_solves_per_s"] = (plain_sps, "1/s")
        metrics["trace.traced_solves_per_s"] = (traced_sps, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (plain_sps / traced_sps - 1),
                                         "%")
        record["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}
        record["absent_targets"] = sorted(tracer.absent)
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    record["tree"] = gate.tree()
    expected = _expected(workload, seed) if check_expected else None
    if expected is not None:
        if not _same_decisions(gate.decisions(), expected["decisions"]):
            raise GateError("decisions differ from expected.json")
        record["tree"]["checksum_as_expected"] = (
            record["tree"]["checksum"] == expected["checksum"])
    record["decisions"] = gate.decisions()
    record["attempted"] = gate.attempted
    record["failed"] = gate.failed
    record["provenance"] = _provenance(seed)
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", required=True,
                    help="the JSON file that write_inputs wrote")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.inputs)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "error": str(exc)}))
        return 1
    record["correct"] = True
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
