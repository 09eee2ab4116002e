"""Command-line entry points: solve, oracle, gen, bench.

Exit codes: 0 = yes, 1 = no, 2 = timeout, 64 = usage error, 65 = malformed
or unreadable graph file, 70 = internal error (an exception that none of the
others covers), 74 = output that cannot be written.

A reader that closes standard output early (``pathpack solve ... | head``)
is not an error: the command stops writing and exits with its usual code,
the decision's code for solve and oracle and 0 for gen and bench.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import os
import random
import sys
import traceback
from typing import Optional, Sequence


from .config import (CONFIG_NAMES, HEURISTIC_CODES, SolverConfig, SolveStats,
                     config_from_name, with_heuristics)
from .graph import (Graph, GraphFormatError, Workspace, format_graph,
                    load_graph, random_gnp)
from .kernels import bfs_tree
from .model import PackingInstance, Solution
from .oracle import oracle_decide
from .search import solve

__all__ = ["main", "entry"]

EXIT_YES = 0
EXIT_NO = 1
EXIT_TIMEOUT = 2
EXIT_USAGE = 64
EXIT_BAD_FILE = 65
EXIT_CRASH = 70
EXIT_CANNOT_WRITE = 74
_DECISION_EXITS = {"yes": EXIT_YES, "no": EXIT_NO, "timeout": EXIT_TIMEOUT}

# the run (instance, config, decision), then every SolveStats field in order
CSV_COLUMNS = (["graph", "s", "t", "k", "ell", "config", "decision"]
               + [f.name for f in dataclasses.fields(SolveStats)])


class UsageError(Exception):
    pass


class UnreadableInput(Exception):
    """The graph file could not be read (an ``OSError`` while reading)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise UsageError(message)


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph file (1-based edge list)")
    p.add_argument("--s", type=int, required=True, help="source terminal (1-based)")
    p.add_argument("--t", type=int, required=True, help="target terminal (1-based)")
    p.add_argument("--k", type=int, required=True, help="number of disjoint paths")
    p.add_argument("--ell", type=int, required=True, help="per-path length bound")


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    """The pipeline switches of solve and bench; see :func:`_base_config`."""
    p.add_argument("--no-preprocess", action="store_true",
                   help="skip the neighborhood/degree-1 graph reduction")
    p.add_argument("--no-trivial", action="store_true",
                   help="skip root trivial-instance detection")
    p.add_argument("--timeout-ms", type=int, default=None,
                   help="bound each solve call (milliseconds)")


def _base_config(args) -> SolverConfig:
    """Pipeline switches shared by solve and bench; default heuristics."""
    if args.timeout_ms is not None and args.timeout_ms < 1:
        raise UsageError("--timeout-ms must be at least 1")
    return SolverConfig(
        preprocess=not args.no_preprocess,
        trivial_detection=not args.no_trivial,
        timeout_ms=args.timeout_ms,
    )


def _config_from_args(args) -> SolverConfig:
    base = _base_config(args)
    if args.heur is None:
        return base
    codes = [c.strip() for c in args.heur.split(",") if c.strip()]
    try:
        return with_heuristics(base, codes)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_instance(args) -> PackingInstance:
    try:
        g = load_graph(args.graph)
    except OSError as exc:
        raise UnreadableInput(str(exc)) from None
    for name, val in (("--s", args.s), ("--t", args.t)):
        if not (1 <= val <= g.n):
            raise UsageError(f"{name} must be in 1..{g.n}")
    if args.s == args.t:
        raise UsageError("--s and --t must differ")
    if args.k < 1:
        raise UsageError("--k must be at least 1")
    if args.ell < 1:
        raise UsageError("--ell must be at least 1")
    return PackingInstance(g, args.s - 1, args.t - 1, args.k, args.ell)


def _config_json(cfg: SolverConfig) -> dict:
    """The enabled heuristic codes, then every other SolverConfig field."""
    out: dict = {"heuristics": cfg.heuristic_codes()}
    for f in dataclasses.fields(cfg):
        if f.name.replace("_", "-") not in HEURISTIC_CODES:
            out[f.name] = getattr(cfg, f.name)
    return out


def _print_answer(args, out, decision: str, witness: Optional[Solution],
                  fields: dict, lines: Sequence[str]) -> int:
    """Print a decision and its 1-based witness, then the command's own
    ``fields`` with --json or its text ``lines`` without; returns the
    decision's exit code, also when the reader has closed ``out``."""
    paths = ([[v + 1 for v in p] for p in witness.paths]
             if witness is not None else None)
    try:
        if args.json:
            payload = {"decision": decision, "witness": paths, **fields}
            print(json.dumps(payload, indent=2), file=out)
        else:
            print(f"decision: {decision}", file=out)
            for i, p in enumerate(paths or (), start=1):
                print(f"path {i}: " + " ".join(map(str, p)), file=out)
            for line in lines:
                print(line, file=out)
        out.flush()
    except BrokenPipeError:
        _discard_output(out)
    return _DECISION_EXITS[decision]


def _discard_output(out) -> None:
    """After a broken pipe on ``out``: when it is standard output, point its
    file descriptor at the null device, so that the flush at interpreter
    exit neither fails nor reports the pipe on standard error."""
    if out is not sys.stdout:
        return
    try:
        fd = out.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _cmd_solve(args, out) -> int:
    inst = _load_instance(args)
    cfg = _config_from_args(args)
    decision, witness, stats = solve(inst, cfg)
    return _print_answer(
        args, out, decision, witness,
        {"stats": stats.as_dict(), "config": _config_json(cfg)},
        [f"solved by: {stats.solved_by}",
         f"nodes: {stats.nodes}  max depth: {stats.max_depth}",
         f"reduction: {stats.n_before}/{stats.m_before} -> "
         f"{stats.n_after}/{stats.m_after} (vertices/edges)",
         f"wall: {stats.wall_ms:.1f} ms"])


def _cmd_oracle(args, out) -> int:
    inst = _load_instance(args)
    answer = oracle_decide(inst, want_max_packing=args.max_packing)
    best = answer.max_packing
    return _print_answer(
        args, out, answer.decision, answer.witness, {"max_packing": best},
        [f"max packing: {best}"] if best is not None else [])


def _cmd_gen(args, out) -> int:
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    if not (0.0 <= args.p <= 1.0):
        raise UsageError("--p must be in [0, 1]")
    g = random_gnp(args.n, args.p, args.seed)
    text = format_graph(g)
    if args.output is None:
        out.write(text)
        out.flush()
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_YES


def _sample_pairs(g: Graph, count: int, rng: random.Random,
                  max_dist: int = 10) -> list[tuple[int, int]]:
    """Distinct unordered terminal pairs at distance <= max_dist, each tried
    by a BFS from u within max_dist; none for fewer than two vertices."""
    if g.n < 2:
        return []
    ws = Workspace(g)
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    attempts = 0
    limit = max(1000, 200 * count)
    while len(pairs) < count and attempts < limit:
        attempts += 1
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        reached = bfs_tree(g.adj, ws.blocked, u, v, -1, -1, ws.dist,
                           ws.parent, ws.queue, max_dist)
        d = ws.dist[v]
        for x in ws.queue[:reached]:
            ws.dist[x] = -1
        if d > 0:
            seen.add(key)
            pairs.append((u, v))
    return pairs


def _cmd_bench(args, out) -> int:
    if args.pairs < 1:
        raise UsageError("--pairs must be at least 1")
    if args.k_min < 1 or args.k_max < args.k_min:
        raise UsageError("need 1 <= k-min <= k-max")
    if args.ell_min < 1 or args.ell_max < args.ell_min:
        raise UsageError("need 1 <= ell-min <= ell-max")
    config_names = [c.strip() for c in args.configs.split(",") if c.strip()]
    if not config_names:
        raise UsageError("--configs needs at least one configuration name")
    if len(set(config_names)) < len(config_names):
        raise UsageError("--configs names a configuration twice")
    base = _base_config(args)
    try:
        configs = {name: config_from_name(name, base) for name in config_names}
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    rng = random.Random(args.seed)
    with (open(args.output, "a", newline="", encoding="utf-8")
          if args.output is not None else contextlib.nullcontext(out)) as fh:
        # an unreadable file's row reads 0 in every column it does not set
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, restval=0,
                                lineterminator="\n")
        # a pipe cannot tell(): standard output and an unseekable -o target
        # always get the header, and a file gets it only while it is empty
        if args.output is None or not fh.seekable() or fh.tell() == 0:
            writer.writeheader()
        for path in args.graphs:
            try:
                g = load_graph(path)
            except (OSError, GraphFormatError) as exc:
                print(f"warning: skipping {path}: {exc}", file=sys.stderr)
                writer.writerow({"graph": path, "config": "",
                                 "decision": "error",
                                 "solved_by": "unreadable", "wall_ms": 0.0})
                continue
            pairs = _sample_pairs(g, args.pairs, rng)
            if len(pairs) < args.pairs:
                print(f"warning: {path}: only {len(pairs)} usable terminal "
                      f"pairs of {args.pairs} requested", file=sys.stderr)
            for (s, t), k, ell in itertools.product(
                    pairs, range(args.k_min, args.k_max + 1),
                    range(args.ell_min, args.ell_max + 1)):
                order = list(config_names)
                rng.shuffle(order)
                for name in order:
                    inst = PackingInstance(g, s, t, k, ell)
                    decision, _, stats = solve(inst, configs[name])
                    writer.writerow({"graph": path, "s": s + 1, "t": t + 1,
                                     "k": k, "ell": ell, "config": name,
                                     "decision": decision, **stats.as_dict()})
        fh.flush()
    return EXIT_YES


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built on first use and kept for the process:
    parsing leaves it unchanged, and building it costs more than a parse."""
    parser = _Parser(prog="pathpack",
                     description="Exact solver for packing k internally "
                                 "vertex-disjoint s-t paths of length at "
                                 "most ell.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide one instance")
    _add_instance_args(p_solve)
    p_solve.add_argument("--heur", default=None, metavar="LIST",
                         help="comma list of heuristics to enable "
                              f"({','.join(HEURISTIC_CODES)}); default: "
                              + ",".join(SolverConfig().heuristic_codes()))
    _add_pipeline_args(p_solve)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle",
                              help="brute-force reference decision")
    _add_instance_args(p_oracle)
    p_oracle.add_argument("--max-packing", action="store_true",
                          help="also report the maximum packing size")
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a seeded G(n, p) graph")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="batch runs over sampled "
                                           "terminal pairs, CSV output")
    p_bench.add_argument("graphs", nargs="+", help="graph files")
    p_bench.add_argument("--pairs", type=int, default=10,
                         help="terminal pairs per graph (distance <= 10)")
    p_bench.add_argument("--k-min", type=int, default=2)
    p_bench.add_argument("--k-max", type=int, default=7)
    p_bench.add_argument("--ell-min", type=int, default=5)
    p_bench.add_argument("--ell-max", type=int, default=10)
    p_bench.add_argument("--configs", default="all",
                         help="comma list of configuration names: "
                              + ",".join(CONFIG_NAMES))
    p_bench.add_argument("--seed", type=int, default=0)
    _add_pipeline_args(p_bench)
    p_bench.add_argument("-o", "--output", default=None,
                         help="CSV file to append to (default: stdout)")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None,
         out: Optional[io.TextIOBase] = None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphFormatError as exc:
        print(f"bad graph file: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except UnreadableInput as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except BrokenPipeError:
        # solve and oracle keep their decision's code (_print_answer); gen
        # and bench, which flush before they return, stop writing and exit
        # 0, their usual code
        _discard_output(out)
        return EXIT_YES
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CANNOT_WRITE


def entry() -> None:
    """Console-script shim.  An exception that :func:`main` does not map
    would otherwise exit 1, the code of "no": it exits 70 instead, after
    its traceback."""
    try:
        code = main()
    except Exception:
        traceback.print_exc()
        code = EXIT_CRASH
    sys.exit(code)
