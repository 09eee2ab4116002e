#!/usr/bin/env python3
"""Rebuild the benchmark's committed data files.

``pool.json``: the search-default instance pool.  Candidates come from
``gen.search_candidate(cid)`` for cid = 0, 1, 2, ...  A candidate is kept
when root trivial detection on the reduced instance returns ``unknown`` and
its default-config search tree has at most NODE_CAP nodes.  The cap is a
node count; GUARD_MS only stops the scan from waiting on huge trees and is
far above the time any kept tree takes.  The pool is fixed data, so every
commit measures the same instances whatever its own tree sizes are.  Each
entry also records ``ms``, the best of three solve times at scan time,
which ``gen.sample_pool`` uses only to rank the pool into strata.

``expected.json``: the decisions, tree checksum and yes/no/timeout counts of
one pass over every workload for EXPECTED_SEED.  The benchmark compares its
decisions with this list whenever it runs with that seed.

Usage:
    python3 perfbench/scan.py pool        (tens of minutes)
    python3 perfbench/scan.py expected
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

NODE_CAP = 1500
POOL_SIZE = 128
GUARD_MS = 8000
EXPECTED_SEED = 0


def scan_pool() -> None:
    import gen
    import worker
    import time

    from pathpack import (Graph, PackingInstance, SolverConfig, from_packing,
                          solve)
    from pathpack.preprocess import detect_trivial, reduce_instance

    cfg = SolverConfig(timeout_ms=GUARD_MS)
    pool = []
    cid = 0
    while len(pool) < POOL_SIZE:
        n, edges, s, t, k, ell = gen.search_candidate(cid)
        inst = PackingInstance(Graph(n, edges), s, t, k, ell)
        root, _ = reduce_instance(from_packing(inst))
        if detect_trivial(root).kind == "unknown":
            decision, _, stats = solve(inst, cfg)
            if decision != "timeout" and stats.nodes <= NODE_CAP:
                best = float("inf")
                for _ in range(3):
                    t0 = time.perf_counter()
                    solve(inst, cfg)
                    best = min(best, time.perf_counter() - t0)
                pool.append({"cid": cid, "n": n, "s": s, "t": t, "k": k,
                             "ell": ell, "decision": decision,
                             "nodes": stats.nodes,
                             "ms": round(best * 1000, 1)})
                print(f"kept {len(pool)}: {pool[-1]}", flush=True)
        cid += 1
    write_pool({"node_cap": NODE_CAP, "scanned": cid, "pool": pool})


def write_pool(data: dict) -> None:
    """pool.json with one entry per line."""
    import worker
    entries = ",\n  ".join(json.dumps(e) for e in data["pool"])
    with open(worker.POOL_FILE, "w", encoding="utf-8") as fh:
        fh.write(f'{{"node_cap": {data["node_cap"]}, '
                 f'"scanned": {data["scanned"]},\n "pool": [\n  {entries}\n ]}}\n')


def write_expected() -> None:
    import worker
    out = {"seed": EXPECTED_SEED, "workloads": {}}
    workdir = os.path.join(HERE, "_work", f"expected-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in worker.WORKLOADS:
            inputs = worker.write_inputs(name, EXPECTED_SEED, workdir)
            record = worker.run_workload(name, EXPECTED_SEED, 0, False,
                                         inputs, check_expected=False)
            out["workloads"][name] = {"decisions": record["decisions"],
                                      **record["tree"]}
            print(name, record["tree"], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    with open(worker.EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="what", required=True)
    sub.add_parser("pool")
    sub.add_parser("expected")
    args = ap.parse_args()
    if args.what == "pool":
        scan_pool()
    else:
        write_expected()


if __name__ == "__main__":
    main()
