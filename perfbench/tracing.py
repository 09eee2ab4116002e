"""Per-layer tracing from outside the program.

``Tracer`` wraps public functions and methods of the ``pathpack`` modules for
the duration of a ``with`` block and restores every original on exit.  Each
wrapper records calls, inclusive time and self time (inclusive time minus
the time spent in wrapped callees), plus a few counts read from arguments and
results.  Nothing under ``src/`` is changed; the untraced benchmark run never
creates a Tracer.

A target that no longer exists (renamed or deleted by a refactor) is skipped
with a warning, and the metrics that depend on it are left out.
"""

from __future__ import annotations

import importlib
import sys
import warnings
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

# (key, module, qualified name) of every wrapped callable
TARGETS = [
    ("bfs", "pathpack.graph", "bfs_tree"),
    ("build", "pathpack.graph", "Graph.__init__"),
    ("parse", "pathpack.graph", "parse_graph"),
    ("load", "pathpack.graph", "load_graph"),
    ("dist", "pathpack.graph", "Workspace.distances_unmasked"),
    ("cli", "pathpack.cli", "main"),
    ("reduce", "pathpack.preprocess", "reduce_instance"),
    ("trivial", "pathpack.preprocess", "detect_trivial"),
    ("maxflow", "pathpack.flows", "st_flow_value"),
    ("mincost", "pathpack.flows", "min_total_length_disjoint_paths"),
    ("greedy", "pathpack.greedy", "run_greedy"),
    ("solve", "pathpack.search", "solve"),
    ("infeasible", "pathpack.search", "node_infeasible"),
    ("insert", "pathpack.model", "CheckpointInstance.with_insertion"),
    ("forbids", "pathpack.model", "IntervalStore.forbids"),
    ("validate", "pathpack.model", "validate_solution"),
]

# layer of each target, for the self-time shares
LAYERS = {
    "kernels": ("bfs",),
    "graph": ("build", "parse", "load", "dist"),
    "cli": ("cli",),
    "preprocess": ("reduce", "trivial"),
    "flows": ("maxflow", "mincost"),
    "greedy": ("greedy",),
    "search": ("solve", "infeasible"),
    "model": ("insert", "forbids", "validate"),
}

VIA_TAGS = ("ell1", "ell2", "k1", "min-separator", "min-total-length",
            "unknown")
GREEDY_FAILS = {"NO_SUBPATH": "no_subpath", "OVERLONG": "overlong",
                "CUT_TOO_SMALL": "cut"}


@dataclass
class Span:
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, name: str, value=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _resolve(modname: str, qualname: str):
    """(owner, attribute, original) for a module function or a method."""
    owner = importlib.import_module(modname)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], vars(owner)[parts[-1]]


def snapshot() -> dict:
    """Identity of every attribute of every loaded ``pathpack`` module and of
    the classes they define; equal snapshots mean nothing was left patched."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "pathpack" and not modname.startswith("pathpack."):
            continue
        for name, value in vars(mod).items():
            out[(modname, name)] = id(value)
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    out[(modname, name, attr)] = id(member)
    return out


class Tracer:
    """Context manager that installs the wrappers and accumulates spans.
    It can be entered again; spans keep accumulating."""

    def __init__(self):
        self.spans = {key: Span() for key, _, _ in TARGETS}
        self.absent: set[str] = set()
        self._stack = [0]          # per open span: time of wrapped callees
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for key, modname, qualname in TARGETS:
                try:
                    owner, attr, original = _resolve(modname, qualname)
                except (ImportError, AttributeError, KeyError):
                    if key not in self.absent:
                        warnings.warn(f"trace target {modname}.{qualname} is "
                                      "absent; its metrics are not reported")
                        self.absent.add(key)
                    continue
                wrapper = self._wrap(key, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    self._patch_everywhere(original, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` in every pathpack module that imported it by
        name, so calls through any alias are traced."""
        for modname, mod in list(sys.modules.items()):
            if modname != "pathpack" and not modname.startswith("pathpack."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key: str, fn: Callable) -> Callable:
        span = self.spans[key]
        stack = self._stack
        before = getattr(self, f"_before_{key}", None)
        after = getattr(self, f"_after_{key}", None)

        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                span.calls += 1
                span.incl_ns += dt
                span.self_ns += dt - stack.pop()
                stack[-1] += dt
            if after is not None:
                after(span, args, result, pre, dt)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _after_bfs(self, span, args, result, pre, dt) -> None:
        span.add("enqueued", int(result))

    def _before_dist(self, args):
        ws, src = args[0], args[1]
        return src not in ws.dist_cache

    def _after_dist(self, span, args, result, miss, dt) -> None:
        if miss:
            span.add("miss")

    def _after_reduce(self, span, args, result, pre, dt) -> None:
        report = result[1]
        span.add("n_before", report.n_before)
        span.add("n_after", report.n_after)

    def _after_trivial(self, span, args, result, pre, dt) -> None:
        tag = result.via if result.kind != "unknown" else "unknown"
        if tag not in VIA_TAGS:
            warnings.warn(f"unlisted trivial-detection tag {tag!r}")
        span.add("via." + tag)
        if result.kind != "unknown":
            span.add("decided")

    def _after_greedy(self, span, args, result, pre, dt) -> None:
        condition = getattr(result, "condition", None)
        if condition is None:
            span.add("success")
        else:
            span.add("fail." + GREEDY_FAILS.get(condition.name,
                                                condition.name.lower()))

    def _phase_ns(self) -> int:
        return sum(self.spans[k].incl_ns
                   for k in ("reduce", "trivial", "validate"))

    def _before_solve(self, args):
        return self._phase_ns()

    def _after_solve(self, span, args, result, phase_before, dt) -> None:
        stats = result[2]
        if stats.nodes > 0:
            span.add("entered")
            span.add("nodes", stats.nodes)
            span.add("prunes", stats.prunes_len + stats.prunes_bcpl
                     + stats.prunes_bsp)
            # search phase: the solve call minus reduction, trivial
            # detection and the final witness check
            span.add("search_ns", dt - (self._phase_ns() - phase_before))

    # -- metrics ------------------------------------------------------------

    def metrics(self, ops: int, cycles: int, op_ns: int) -> dict:
        """Per-layer metrics over ``ops`` traced ops forming ``cycles`` whole
        passes over the workload, whose op times sum to ``op_ns``.
        Returns {name: (value, unit)}."""
        sp = self.spans
        out: dict[str, tuple[float, str]] = {}

        def put(name, unit, needs, value: Callable[[], float]):
            if not any(k in self.absent for k in needs):
                out[name] = (value(), unit)

        def per_op(x):
            return x / ops

        def ms(ns):
            return ns / 1e6

        def frac(a, b):
            return a / b if b else 0.0

        def cnt(key, name):
            return sp[key].counts.get(name, 0)

        put("kernels.bfs_calls", "calls/op", ["bfs"],
            lambda: per_op(sp["bfs"].calls))
        put("kernels.bfs_ms", "ms/op", ["bfs"],
            lambda: per_op(ms(sp["bfs"].incl_ns)))
        put("kernels.bfs_us_per_call", "us", ["bfs"],
            lambda: frac(sp["bfs"].incl_ns / 1e3, sp["bfs"].calls))
        put("kernels.enqueued_per_call", "vertices", ["bfs"],
            lambda: frac(cnt("bfs", "enqueued"), sp["bfs"].calls))
        put("graph.parse_ms", "ms/op", ["parse"],
            lambda: per_op(ms(sp["parse"].self_ns)))
        put("graph.build_calls", "calls/op", ["build"],
            lambda: per_op(sp["build"].calls))
        put("graph.build_ms", "ms/op", ["build"],
            lambda: per_op(ms(sp["build"].incl_ns)))
        put("graph.dist_calls", "calls/op", ["dist"],
            lambda: per_op(sp["dist"].calls))
        put("graph.dist_miss_frac", "fraction", ["dist"],
            lambda: frac(cnt("dist", "miss"), sp["dist"].calls))
        put("cli.self_ms", "ms/op", ["cli"],
            lambda: per_op(ms(sp["cli"].self_ns)))
        put("preprocess.reduce_ms", "ms/op", ["reduce"],
            lambda: per_op(ms(sp["reduce"].incl_ns)))
        put("preprocess.kept_frac", "fraction", ["reduce"],
            lambda: frac(cnt("reduce", "n_after"), cnt("reduce", "n_before")))
        put("preprocess.trivial_ms", "ms/op", ["trivial"],
            lambda: per_op(ms(sp["trivial"].incl_ns)))
        put("preprocess.trivial_decided_frac", "fraction", ["trivial"],
            lambda: frac(cnt("trivial", "decided"), sp["trivial"].calls))
        for tag in VIA_TAGS:
            put(f"preprocess.via.{tag}", "count/pass", ["trivial"],
                lambda tag=tag: frac(cnt("trivial", "via." + tag), cycles))
        put("flows.maxflow_calls", "calls/op", ["maxflow"],
            lambda: per_op(sp["maxflow"].calls))
        put("flows.maxflow_ms", "ms/op", ["maxflow"],
            lambda: per_op(ms(sp["maxflow"].incl_ns)))
        put("flows.mincost_calls", "calls/op", ["mincost"],
            lambda: per_op(sp["mincost"].calls))
        put("flows.mincost_ms", "ms/op", ["mincost"],
            lambda: per_op(ms(sp["mincost"].incl_ns)))
        put("greedy.runs", "calls/op", ["greedy"],
            lambda: per_op(sp["greedy"].calls))
        put("greedy.self_ms", "ms/op", ["greedy"],
            lambda: per_op(ms(sp["greedy"].self_ns)))
        put("greedy.success_frac", "fraction", ["greedy"],
            lambda: frac(cnt("greedy", "success"), sp["greedy"].calls))
        for name in GREEDY_FAILS.values():
            put(f"greedy.fail.{name}", "calls/op", ["greedy"],
                lambda name=name: per_op(cnt("greedy", "fail." + name)))
        put("search.nodes", "nodes/op", ["solve"],
            lambda: per_op(cnt("solve", "nodes")))
        put("search.nodes_per_s", "1/s", ["solve", "reduce", "trivial",
                                          "validate"],
            lambda: frac(cnt("solve", "nodes"),
                         cnt("solve", "search_ns") / 1e9))
        put("search.self_ms", "ms/op", ["solve"],
            lambda: per_op(ms(sp["solve"].self_ns)))
        put("search.infeasible_ms", "ms/op", ["infeasible"],
            lambda: per_op(ms(sp["infeasible"].incl_ns)))
        put("search.prune_frac", "fraction", ["solve"],
            lambda: frac(cnt("solve", "prunes"), cnt("solve", "nodes")))
        put("search.entered_frac", "fraction", ["solve"],
            lambda: frac(cnt("solve", "entered"), sp["solve"].calls))
        put("model.insert_calls", "calls/op", ["insert"],
            lambda: per_op(sp["insert"].calls))
        put("model.insert_ms", "ms/op", ["insert"],
            lambda: per_op(ms(sp["insert"].incl_ns)))
        put("model.forbids_calls", "calls/op", ["forbids"],
            lambda: per_op(sp["forbids"].calls))
        put("model.forbids_ms", "ms/op", ["forbids"],
            lambda: per_op(ms(sp["forbids"].incl_ns)))
        put("model.validate_ms", "ms/op", ["validate"],
            lambda: per_op(ms(sp["validate"].incl_ns)))
        for layer, keys in LAYERS.items():
            present = [k for k in keys if k not in self.absent]
            if present:
                put(f"share.{layer}", "fraction", [],
                    lambda present=present: frac(
                        sum(sp[k].self_ns for k in present), op_ns))
        return out
