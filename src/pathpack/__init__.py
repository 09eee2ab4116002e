"""Exact decision solver for packing k internally vertex-disjoint s-t paths
of length at most ell, built around a branching search with greedy
localization, plus preprocessing, trivial-instance detection, pruning and
ordering heuristics, a brute-force reference, and a benchmark harness."""

from .graph import (Graph, Workspace, GraphFormatError, parse_graph,
                    load_graph, format_graph, random_gnp)
from .model import (PackingInstance, Solution, from_packing,
                    validate_solution)
from .config import SolverConfig, SolveStats, config_from_name, CONFIG_NAMES
from .search import solve
from .oracle import oracle_decide

__all__ = [
    "Graph", "Workspace", "GraphFormatError",
    "parse_graph", "load_graph", "format_graph", "random_gnp",
    "PackingInstance", "Solution", "from_packing", "validate_solution",
    "SolverConfig", "SolveStats", "config_from_name", "CONFIG_NAMES",
    "solve",
    "oracle_decide",
]

__version__ = "0.1.0"
