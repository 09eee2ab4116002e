"""Solver configuration toggles and run statistics."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Iterable, Optional

__all__ = ["SolverConfig", "SolveStats", "config_from_name",
           "with_heuristics", "CONFIG_NAMES", "HEURISTIC_CODES"]

# short codes accepted by --heur and by named configurations
HEURISTIC_CODES = ("b-sp", "b-fi", "d-ms", "c-dist", "c-pl")


@dataclass(frozen=True)
class SolverConfig:
    """Heuristic toggles and ordering choices; a solve() call is fully
    deterministic for a fixed (instance, config) pair."""

    preprocess: bool = True
    trivial_detection: bool = True
    b_sp: bool = True
    b_fi: bool = True
    d_ms: bool = True
    c_dist: bool = True
    c_pl: bool = True
    timeout_ms: Optional[int] = None

    def heuristic_codes(self) -> list[str]:
        return [code for code in HEURISTIC_CODES
                if getattr(self, _field(code))]


def _field(code: str) -> str:
    """SolverConfig field of a heuristic code ("b-sp" -> "b_sp")."""
    return code.replace("-", "_")


def with_heuristics(base: SolverConfig, codes: Iterable[str]) -> SolverConfig:
    """``base`` with exactly the heuristics named by ``codes`` switched on;
    the pipeline switches (preprocess, trivial detection, timeout) are
    kept."""
    chosen = set(codes)
    unknown = chosen.difference(HEURISTIC_CODES)
    if unknown:
        raise ValueError(f"unknown heuristic code {min(unknown)!r}")
    return replace(base, **{_field(code): code in chosen
                            for code in HEURISTIC_CODES})


# named heuristic sets mirroring the evaluated configurations; preprocessing
# and trivial detection are separate switches and stay untouched here
_NAMED_HEURISTICS: dict[str, tuple[str, ...]] = {
    "bare": (),
    "b-sp": ("b-sp",),
    "b-sp+b-fi": ("b-sp", "b-fi"),
    "b-sp+c": ("b-sp", "c-dist", "c-pl"),
    "b-sp+d-ms": ("b-sp", "d-ms"),
    "b-sp+b-fi+c": ("b-sp", "b-fi", "c-dist", "c-pl"),
    "b-sp+b-fi+d-ms": ("b-sp", "b-fi", "d-ms"),
    "b-sp+c+d-ms": ("b-sp", "c-dist", "c-pl", "d-ms"),
    "all": ("b-sp", "b-fi", "c-dist", "c-pl", "d-ms"),
}

CONFIG_NAMES = tuple(_NAMED_HEURISTICS)


def config_from_name(name: str, base: Optional[SolverConfig] = None) -> SolverConfig:
    """Build a SolverConfig whose heuristic toggles match a named set.

    Pipeline switches (preprocess, trivial detection, timeout) are taken
    from ``base`` when given, defaults otherwise.
    """
    if name not in _NAMED_HEURISTICS:
        raise ValueError(f"unknown configuration name: {name!r}")
    return with_heuristics(base if base is not None else SolverConfig(),
                           _NAMED_HEURISTICS[name])


@dataclass
class SolveStats:
    """Counters for one solve() call.

    ``nodes`` counts search-tree nodes entered (>= 1 whenever the tree is
    entered at all); ``max_depth`` uses the convention that the root sits at
    depth 0, which keeps max_depth <= k*ell structural.  ``bfi_recorded``
    counts pushed forbidden intervals, ``bfi_masked`` the candidate
    insertions they masked out of the branching.  The field order is the
    column order of the bench CSV.  ``n_after``/``m_after`` are the size of
    the reduced graph, and equal ``n_before``/``m_before`` when no
    reduction ran: with preprocessing off, or when the input-graph step
    (``preprocess.detect_on_input``) decided the instance before it.
    ``prunes_bcpl`` always reads 0: the rule it counted is gone (the
    gap-sum bound, ``prunes_bsp``, refutes every list it refuted), and the
    field stays only while the benchmark's tracer still reads it.
    """

    solved_by: str = ""
    nodes: int = 0
    br1: int = 0
    br2: int = 0
    br3: int = 0
    prunes_len: int = 0
    prunes_bcpl: int = 0
    prunes_bsp: int = 0
    bfi_recorded: int = 0
    bfi_masked: int = 0
    dms_fired: int = 0
    max_depth: int = 0
    n_before: int = 0
    n_after: int = 0
    m_before: int = 0
    m_after: int = 0
    wall_ms: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)
