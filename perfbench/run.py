#!/usr/bin/env python3
"""pathpack benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload search-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --out RESULT.json

Each workload runs in its own single-threaded child process (worker.py) as
a closed loop: one caller, which waits for each decision before it sends the
next op.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  ``--workload all`` runs every workload
both ways and prints everything.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 only when every output passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import worker  # perfbench/worker.py; it imports pathpack only when used

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search-default", "root-batch", "pipeline-large")
RUN_LIMIT_S = 170     # a run of one workload ends within this, or fails
# An untraced run is split over this many consecutive child processes: on a
# shared machine one process can run 10-20% slower than the next for its
# whole life, and pooling several evens that out.
PROCESSES = 4
SINGLE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _fail(message: str) -> None:
    print(f"benchmark failed: {message}", file=sys.stderr)
    sys.exit(1)


def _metric_names() -> tuple[list[str], list[str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def _commit() -> str:
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(workload: str, seed: int, seconds: float, trace: int,
              inputs: str, deadline: float) -> dict:
    """Run worker.py once on ``inputs``; returns its record or exits.  The
    child is killed at ``deadline`` (a time.monotonic() value)."""
    cmd = [sys.executable] + (["-O"] if sys.flags.optimize else []) + [
        os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--inputs", inputs]
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _fail(f"{workload} did not finish within {RUN_LIMIT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        _fail(f"{workload} exited with code {proc.returncode} and no result")
    if proc.returncode != 0 or not record.get("correct"):
        _fail(f"{workload}: {record.get('error', 'exit code %d' % proc.returncode)}")
    return record


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of one workload: a single traced child, or PROCESSES
    untraced children whose op times and set-up samples are pooled.  The
    inputs are made here first, so that no child's memory or time holds
    their making."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(HERE, "_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = worker.write_inputs(workload, seed, workdir)
        if trace:
            return run_child(workload, seed, seconds, 1, inputs, deadline)
        parts = [run_child(workload, seed, seconds / PROCESSES, 0, inputs,
                           deadline)
                 for _ in range(PROCESSES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    record = parts[0]
    # where a timeout stops depends on time, so only children without one
    # must agree exactly
    settled = [p["tree"] for p in parts if p["tree"]["timeout"] == 0]
    if any(tree != settled[0] for tree in settled[1:]):
        _fail(f"{workload}: child processes disagree on decisions or nodes")
    # each child runs whole passes; 100 ops give p90 10 samples beyond it
    if PROCESSES * record["tree"]["ops_per_pass"] < 100:
        _fail(f"{workload}: fewer than 100 ops in {PROCESSES} passes")
    ms = [t / 1e6 for p in parts for t in p.pop("times_ns")]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    setup = (statistics.median(p["import_s"] for p in parts)
             + statistics.median(s for p in parts for s in p["setup_samples"]))
    metrics = {
        "solve_ms_p50": (statistics.median(ms), "ms"),
        "solve_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "solves_per_s": (len(ms) / (sum(ms) / 1000.0), "1/s"),
        "fail_frac": (failed / attempted, "fraction"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in parts),
                        "MB"),
    }
    record.update(attempted=attempted, failed=failed, processes=PROCESSES,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    for key in ("import_s", "setup_samples", "peak_rss_mb"):
        del record[key]
    return record


def _report(record: dict) -> None:
    prov = record["provenance"]
    tree = record["tree"]
    print(f"== {record['workload']}  seed={prov['seed']}  "
          f"trace={int(record['trace'])}  ops={record['attempted']}")
    print(f"   python {prov['python']}  numpy {prov['numpy']}  "
          f"numba_imports={prov['numba_imports']}  backend={prov['backend']}"
          f"  nproc={prov['nproc']}  commit={prov['commit']}")
    expected = tree.get("checksum_as_expected")
    print(f"   tree: {tree['ops_per_pass']} ops/pass  yes={tree['yes']}  "
          f"no={tree['no']}  timeout={tree['timeout']}  "
          f"checksum={tree['checksum']}"
          + ("" if expected is None else f"  as_expected={expected}"))
    for name, m in record["metrics"].items():
        print(f"   {name:<34} {m['value']:>14.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None,
                    help="also write every record to this JSON file")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pathpack", "__init__.py")):
        _fail("src/pathpack not found; run from a checkout of the repository")
    e2e, per_layer = _metric_names()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    commit = _commit()
    records = []
    for workload, trace in runs:
        record = measure(workload, args.seed, args.seconds, trace)
        record["provenance"]["commit"] = commit
        records.append(record)
        _report(record)

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")

    # the contract line: the BENCHMARK.json metrics of the run(s)
    if len(records) == 1:
        names = per_layer if records[0]["trace"] else e2e
        metrics = {n: records[0]["metrics"][n] for n in names
                   if n in records[0]["metrics"]}
    else:
        metrics = {f"{r['workload']}.{n}": r["metrics"][n]
                   for r in records
                   for n in (per_layer if r["trace"] else e2e)
                   if n in r["metrics"]}
    print(json.dumps({"correct": True,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
