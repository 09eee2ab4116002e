"""Pinned solve statistics for every ``tests/suite.py`` case.

Each configuration below is solved on every suite case, and the whole
``SolveStats`` except ``wall_ms`` must equal its pin in
``golden_stats.json``: the deciding layer, the node count, every prune and
interval counter and the depth.  A change that alters the search tree fails
here even when decisions and node totals happen to agree.

The first three configurations are the pipelines people run; the suite
decides nearly all of them at the root.  The last three switch off the root
detectors so that the search, its entry checks and the interval rule do the
work.  Regenerate the pins only for a change that means to alter the tree,
and say why:

    PYTHONPATH=src python tests/test_golden_stats.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from pathpack import SolverConfig, SolveStats
from pathpack.config import with_heuristics
from pathpack.search import solve

from suite import build_suite

PINS = Path(__file__).with_name("golden_stats.json")
FIELDS = [f.name for f in dataclasses.fields(SolveStats) if f.name != "wall_ms"]

_NO_TRIVIAL = SolverConfig(trivial_detection=False)
CONFIGS = {
    "default": SolverConfig(),
    "no-trivial": _NO_TRIVIAL,
    "no-preprocess": SolverConfig(preprocess=False),
    "search:b-sp+b-fi+c": with_heuristics(
        _NO_TRIVIAL, ["b-sp", "b-fi", "c-dist", "c-pl"]),
    "search:b-fi+c": with_heuristics(_NO_TRIVIAL, ["b-fi", "c-dist", "c-pl"]),
    "search:b-sp+b-fi,no-preprocess": with_heuristics(
        dataclasses.replace(_NO_TRIVIAL, preprocess=False), ["b-sp", "b-fi"]),
}


def _row(stats: SolveStats) -> list:
    return [getattr(stats, name) for name in FIELDS]


def _solve_all(cfg: SolverConfig) -> dict[str, list]:
    return {case.label: _row(solve(case.instance, cfg)[2])
            for case in build_suite()}


@pytest.fixture(scope="module")
def pins():
    """{"fields": [...], "labels": [...], "configs": {name: {label: row}}}"""
    raw = json.loads(PINS.read_text())
    raw["configs"] = {name: dict(zip(raw["labels"], rows))
                      for name, rows in raw["configs"].items()}
    return raw


def test_pins_cover_every_field_config_and_case(pins):
    assert pins["fields"] == FIELDS
    assert sorted(pins["configs"]) == sorted(CONFIGS)
    assert pins["labels"] == [case.label for case in build_suite()]
    for name in CONFIGS:
        assert len(pins["configs"][name]) == len(pins["labels"])


def test_pins_exercise_every_counter(pins):
    # the pins check only the counters that some case makes nonzero
    rows = [row for rows in pins["configs"].values() for row in rows.values()]
    columns = dict(zip(FIELDS[1:], zip(*(row[1:] for row in rows))))
    for field in ("nodes", "br1", "br2", "br3", "prunes_len", "prunes_bsp",
                  "bfi_recorded", "bfi_masked", "max_depth"):
        assert sum(columns[field]) > 0, field
    # a counter that reads the same as another on every pinned row stores
    # one fact twice, and a constant one stores none; prunes_bcpl reads 0
    # while the benchmark's tracer still reads it
    constant = [f for f, col in columns.items() if len(set(col)) == 1]
    assert constant == ["prunes_bcpl"], constant
    fields_of: dict[tuple, list[str]] = {}
    for field, col in columns.items():
        fields_of.setdefault(col, []).append(field)
    assert all(len(fs) == 1 for fs in fields_of.values()), [
        fs for fs in fields_of.values() if len(fs) > 1]


@pytest.mark.parametrize("name", list(CONFIGS))
def test_stats_match_pins(name, pins):
    want = pins["configs"][name]
    got = _solve_all(CONFIGS[name])
    diffs = []
    for label, row in got.items():
        if row != want[label]:
            changed = {f: (w, g) for f, w, g in zip(FIELDS, want[label], row)
                       if w != g}
            diffs.append((label, changed))
    assert not diffs, f"{len(diffs)} cases differ (pinned, got): {diffs[:5]}"


if __name__ == "__main__":
    labels = [case.label for case in build_suite()]
    configs = {name: _solve_all(cfg) for name, cfg in CONFIGS.items()}
    with PINS.open("w") as fh:
        fh.write('{"fields": ' + json.dumps(FIELDS) + ',\n "labels": [')
        fh.write(",".join(f"\n  {json.dumps(label)}" for label in labels))
        fh.write('],\n "configs": {')
        for i, (name, rows) in enumerate(configs.items()):
            fh.write(("," if i else "") + f"\n  {json.dumps(name)}: [")
            fh.write(",".join("\n   " + json.dumps(rows[label],
                                                    separators=(",", ":"))
                              for label in labels))
            fh.write("]")
        fh.write("}}\n")
