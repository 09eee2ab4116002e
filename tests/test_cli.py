import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest

from pathpack import (SolverConfig, Workspace, config_from_name,
                      format_graph, parse_graph, random_gnp)
from pathpack import cli
from pathpack.cli import main
from pathpack.kernels import bidir_path

from conftest import GEX_EDGES_1BASED, grid_graph

# the bench CSV header as documented in the README; the first seven columns
# describe the run, the rest are the solve statistics
CSV_HEADER = ("graph,s,t,k,ell,config,decision,solved_by,nodes,br1,br2,br3,"
              "prunes_len,prunes_bcpl,prunes_bsp,bfi_recorded,bfi_masked,"
              "max_depth,n_before,n_after,m_before,m_after,wall_ms")
STATS_COLUMNS = CSV_HEADER.split(",")[7:]


@pytest.fixture()
def gex_file(tmp_path, gex):
    path = tmp_path / "gex.txt"
    path.write_text(format_graph(gex))
    return str(path)


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_yes_exit_zero(gex_file):
    code, out = _run(["solve", gex_file, "--s", "1", "--t", "5",
                      "--k", "2", "--ell", "5"])
    assert code == 0
    assert "decision: yes" in out


def test_solve_no_exit_one(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("3 2\n1 2\n2 3\n")
    code, out = _run(["solve", str(path), "--s", "1", "--t", "3",
                      "--k", "2", "--ell", "5"])
    assert code == 1
    assert "decision: no" in out


def _python(*args, timeout=120):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def _python_m(*argv, timeout=120):
    return _python("-m", "pathpack", *argv, timeout=timeout)


def test_python_m_pathpack_runs_solve(gex_file, tmp_path):
    proc = _python_m("solve", gex_file, "--s", "1", "--t", "5",
                     "--k", "2", "--ell", "5")
    assert proc.returncode == 0, proc.stderr
    assert "decision: yes" in proc.stdout
    path = tmp_path / "path.txt"
    path.write_text("3 2\n1 2\n2 3\n")
    proc = _python_m("solve", str(path), "--s", "1", "--t", "3",
                     "--k", "2", "--ell", "5")
    assert proc.returncode == 1, proc.stderr
    assert "decision: no" in proc.stdout


def test_solve_same_terminals_usage_error(gex_file):
    code, _ = _run(["solve", gex_file, "--s", "1", "--t", "1",
                    "--k", "2", "--ell", "5"])
    assert code == 64


@pytest.mark.parametrize("code_name", ["b-zz", "b-cpl"])
def test_solve_bad_heuristic_usage_error(gex_file, code_name):
    code, _ = _run(["solve", gex_file, "--s", "1", "--t", "5",
                    "--k", "2", "--ell", "5", "--heur", code_name])
    assert code == 64


@pytest.fixture()
def gnp_file(tmp_path):
    path = tmp_path / "g.txt"
    assert _run(["gen", "--n", "30", "--p", "0.2", "--seed", "3",
                 "-o", str(path)])[0] == 0
    return str(path)


@pytest.mark.parametrize("extra", [
    ["--timeout-ms", "-5"],
    ["--timeout-ms", "-5", "--no-trivial"],
    ["--timeout-ms", "0"],
])
def test_solve_non_positive_timeout_usage_error(gnp_file, extra):
    code, out = _run(["solve", gnp_file, "--s", "1", "--t", "30",
                      "--k", "2", "--ell", "5", *extra])
    assert code == 64
    assert out == ""


def test_solve_malformed_file_exit_65(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n1 2\n2 2\n")
    code, _ = _run(["solve", str(path), "--s", "1", "--t", "3",
                    "--k", "1", "--ell", "2"])
    assert code == 65


def test_solve_missing_file_exit_65(tmp_path):
    code, _ = _run(["solve", str(tmp_path / "nope.txt"), "--s", "1",
                    "--t", "2", "--k", "1", "--ell", "2"])
    assert code == 65


@pytest.fixture()
def binary_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe3 2\n1 2\n2 3\n")
    return str(path)


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_undecodable_file_exit_65(binary_file, command, capsys):
    code, out = _run([command, binary_file, "--s", "1", "--t", "3",
                      "--k", "1", "--ell", "2"])
    assert code == 65
    assert out == ""
    assert "bad graph file: line 1: expected two integers" in (
        capsys.readouterr().err)


def test_undecodable_bytes_in_a_comment_are_accepted(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\n3 2\n1 2\n2 3\n")
    code, out = _run(["solve", str(path), "--s", "1", "--t", "3",
                      "--k", "1", "--ell", "2"])
    assert code == 0 and "decision: yes" in out


def test_solve_json_round_trips(gex_file):
    code, out = _run(["solve", gex_file, "--s", "1", "--t", "5",
                      "--k", "2", "--ell", "5", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == "yes"
    assert json.loads(json.dumps(payload)) == payload
    paths = payload["witness"]
    assert all(p[0] == 1 and p[-1] == 5 for p in paths)
    assert payload["stats"]["solved_by"] == "trivial-yes"
    assert set(payload["stats"]) == set(STATS_COLUMNS)
    assert set(payload["config"]) >= {"heuristics", "preprocess",
                                      "trivial_detection"}


def test_solve_witness_paths_are_one_based(gex_file):
    code, out = _run(["solve", gex_file, "--s", "1", "--t", "5",
                      "--k", "2", "--ell", "5", "--no-trivial", "--json"])
    payload = json.loads(out)
    flat = {v for p in payload["witness"] for v in p}
    assert min(flat) >= 1 and max(flat) <= 11


def test_solve_heuristic_flags_respected(gex_file):
    code, out = _run(["solve", gex_file, "--s", "1", "--t", "5", "--k", "2",
                      "--ell", "5", "--no-trivial", "--heur", "b-sp",
                      "--json"])
    payload = json.loads(out)
    assert payload["config"]["heuristics"] == ["b-sp"]
    assert payload["stats"]["solved_by"] == "search"


def test_solve_json_config_keys(gex_file):
    code, out = _run(["solve", gex_file, "--s", "1", "--t", "5",
                      "--k", "2", "--ell", "5", "--json"])
    assert code == 0
    assert list(json.loads(out)["config"]) == [
        "heuristics", "preprocess", "trivial_detection", "timeout_ms"]


def test_bench_all_is_the_solve_default():
    assert config_from_name("all") == SolverConfig()


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_removed_separator_scope_flag_usage_error(gex_file, command):
    instance = (["--s", "1", "--t", "5", "--k", "2", "--ell", "5"]
                if command == "solve" else ["--pairs", "1"])
    code, out = _run([command, gex_file, *instance,
                      "--dms-bare-lists-only", "false"])
    assert code == 64
    assert out == ""


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "sq.txt"
    path.write_text("4 4\n1 2\n2 4\n1 3\n3 4\n")
    return str(path)


def test_solve_huge_ell_without_trivial_detection(square_file):
    limit = sys.getrecursionlimit()
    code, out = _run(["solve", square_file, "--s", "1", "--t", "4",
                      "--k", "2", "--ell", "1000000000", "--no-trivial"])
    assert code == 0 and "decision: yes" in out
    assert sys.getrecursionlimit() == limit


def test_solve_huge_ell_costs_what_the_balls_hold(square_file):
    """An ell far beyond the graph's diameter gives the answer of an ell
    that admits every path, within a timeout: the reduction's balls stop
    at their first empty level rather than walking to ell."""
    def answer(ell, timeout):
        proc = _python_m("solve", square_file, "--s", "1", "--t", "4",
                         "--k", "2", "--ell", ell, "--no-trivial",
                         timeout=timeout)
        assert proc.returncode == 0, proc.stderr
        return [line for line in proc.stdout.splitlines()
                if line.startswith(("decision", "path", "solved by"))]

    assert answer("1000000000", 20) == answer("2", 120)


@pytest.mark.parametrize("extra", [[], ["--no-trivial"]])
def test_solve_huge_k_is_no_at_once(square_file, extra):
    start = time.perf_counter()
    code, out = _run(["solve", square_file, "--s", "1", "--t", "4",
                      "--k", "1000000000", "--ell", "3", "--json", *extra])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    stats = json.loads(out)["stats"]
    assert stats["solved_by"] == "trivial-no" and stats["nodes"] == 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_command(gex_file):
    code, out = _run(["oracle", gex_file, "--s", "1", "--t", "5",
                      "--k", "2", "--ell", "5"])
    assert code == 0 and "decision: yes" in out
    code, out = _run(["oracle", gex_file, "--s", "1", "--t", "5",
                      "--k", "2", "--ell", "4", "--max-packing"])
    assert code == 1 and "max packing: 1" in out


def _edge_file(tmp_path, name, n, edges):
    path = tmp_path / name
    path.write_text(f"{n} {len(edges)}\n"
                    + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


# each reaches past the default recursion limit in one walk of the oracle:
# the 1500-vertex path in the path enumeration, and the 1200 disjoint paths
# of K_{2,1200} in the decision and in the maximum packing
@pytest.mark.parametrize("graph,extra,last_line", [
    ("path", ["--t", "1500", "--k", "1", "--ell", "2000"],
     "path 1: " + " ".join(map(str, range(1, 1501)))),
    ("k2", ["--t", "2", "--k", "1200", "--ell", "2"], "path 1200: 1 1202 2"),
    ("k2", ["--t", "2", "--k", "1", "--ell", "2", "--max-packing"],
     "max packing: 1200"),
], ids=["path-1500", "k2-1200-decision", "k2-1200-max-packing"])
def test_oracle_deeper_than_the_recursion_limit(tmp_path, graph, extra,
                                                last_line):
    if graph == "path":
        path = _edge_file(tmp_path, "path.txt", 1500,
                          [(v, v + 1) for v in range(1, 1500)])
    else:
        path = _edge_file(tmp_path, "k2.txt", 1202,
                          [(a, v) for v in range(3, 1203) for a in (1, 2)])
    limit = sys.getrecursionlimit()
    code, out = _run(["oracle", path, "--s", "1", *extra])
    assert code == 0
    assert out.startswith("decision: yes\n")
    assert out.splitlines()[-1] == last_line
    assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------------------
# exit codes of the entry point
# ---------------------------------------------------------------------------

def test_unmapped_exception_exits_70_with_traceback(gex_file, monkeypatch,
                                                    capsys):
    from pathpack import cli

    def crash(*args, **kwargs):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(cli, "solve", crash)
    argv = ["solve", gex_file, "--s", "1", "--t", "5", "--k", "2",
            "--ell", "5"]
    with pytest.raises(RuntimeError):   # main itself still raises
        _run(argv)
    monkeypatch.setattr(sys, "argv", ["pathpack", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "RuntimeError: solver crashed" in captured.err


def test_huge_vertex_count_is_a_bad_file_under_a_memory_limit(tmp_path):
    resource = pytest.importorskip("resource")
    path = tmp_path / "huge.txt"
    path.write_text("2147483647 0")     # 13 bytes that name 2**31 - 1 vertices

    def limit_memory():
        cap = 2 * 2**30
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "pathpack", "solve", str(path), "--s", "1",
         "--t", "2", "--k", "1", "--ell", "1"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=limit_memory)
    assert proc.returncode == 65, proc.stderr
    assert "line 1: vertex count above 2m + 1048576" in proc.stderr


def _python_m_into_closed_pipe(*argv):
    """Run ``python -m pathpack`` with a standard output whose read end is
    closed before the child starts, so every write to it fails at once."""
    src = Path(__file__).resolve().parents[1] / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "pathpack", *argv], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)))
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv,code", [
    (["solve", "k2", "--s", "1", "--t", "2", "--k", "1200", "--ell", "2"], 0),
    (["solve", "k2", "--s", "1", "--t", "2", "--k", "1201", "--ell", "2",
      "--json"], 1),
    (["oracle", "k2", "--s", "1", "--t", "2", "--k", "2", "--ell", "2"], 0),
    (["bench", "k2", "--pairs", "1", "--k-max", "2", "--ell-min", "2",
      "--ell-max", "3"], 0),
    (["bench", "k2", "--pairs", "1", "--k-max", "2", "--ell-min", "2",
      "--ell-max", "3", "-o", "/dev/stdout"], 0),
    (["gen", "--n", "300", "--p", "0.5"], 0),
], ids=["solve-yes", "solve-no-json", "oracle", "bench", "bench-dash-o",
        "gen"])
def test_closed_standard_output_keeps_the_exit_code(tmp_path, argv, code):
    if "/dev/stdout" in argv and not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout on this platform")
    k2 = _edge_file(tmp_path, "k2.txt", 1202,
                    [(a, v) for v in range(3, 1203) for a in (1, 2)])
    proc = _python_m_into_closed_pipe(*[k2 if a == "k2" else a
                                        for a in argv])
    assert proc.returncode == code
    assert proc.stderr == ""


def test_unwritable_output_file_exit_74(tmp_path, capsys):
    target = str(tmp_path / "no-such-dir" / "g.txt")
    code, _ = _run(["gen", "--n", "5", "--p", "0.5", "-o", target])
    assert code == 74
    assert "cannot write output" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_p_zero():
    code, out = _run(["gen", "--n", "5", "--p", "0", "--seed", "1"])
    assert code == 0
    assert out == "5 0\n"


def test_gen_p_one_complete():
    code, out = _run(["gen", "--n", "4", "--p", "1", "--seed", "9"])
    g = parse_graph(out)
    assert g.n == 4 and g.m == 6


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for target in (a, b):
        code, _ = _run(["gen", "--n", "20", "--p", "0.2", "--seed", "42",
                        "-o", str(target)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert parse_graph(a.read_text()).n == 20


def test_gen_usage_errors():
    assert _run(["gen", "--n", "1", "--p", "0.5"])[0] == 64
    assert _run(["gen", "--n", "5", "--p", "1.5"])[0] == 64


# ---------------------------------------------------------------------------
# numpy is loaded only to parse graph text
# ---------------------------------------------------------------------------

# run in a fresh interpreter: after each stage, whether numpy is loaded
_NUMPY_STAGES = """
import json, sys
seen = {}
import pathpack, pathpack.cli
seen["import"] = "numpy" in sys.modules
from pathpack import (Graph, PackingInstance, SolverConfig, format_graph,
                      parse_graph, random_gnp, solve)
g = Graph(11, [(u - 1, v - 1) for u, v in EDGES])
for trivial in (True, False):
    _, _, stats = solve(PackingInstance(g, 0, 4, 2, 5),
                        SolverConfig(trivial_detection=trivial))
    seen[stats.solved_by] = "numpy" in sys.modules
text = format_graph(random_gnp(30, 0.2, 1))
seen["gen"] = "numpy" in sys.modules
parse_graph(text)
seen["parse"] = "numpy" in sys.modules
print(json.dumps(seen))
"""


def test_numpy_is_loaded_only_to_parse_graph_text():
    # numpy is most of the package's import time, and only the text parser
    # needs it: the walkthrough instance, decided once at the root and once
    # by the search, must not load it
    proc = _python("-c", _NUMPY_STAGES.replace("EDGES",
                                               repr(GEX_EDGES_1BASED)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": False, "trivial-yes": False, "search": False,
        "gen": False, "parse": True}


def test_python_m_pathpack_gen_imports_no_numpy(tmp_path):
    target = tmp_path / "g40.txt"
    proc = _python("-X", "importtime", "-m", "pathpack", "gen", "--n", "40",
                   "--p", "0.15", "--seed", "7", "-o", str(target))
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "pathpack.cli" in imported
    assert not [name for name in imported if "numpy" in name]
    assert parse_graph(target.read_text()).n == 40


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_row_counting(gex_file):
    code, out = _run(["bench", gex_file, "--pairs", "1",
                      "--k-min", "2", "--k-max", "2",
                      "--ell-min", "5", "--ell-max", "5",
                      "--configs", "all,bare", "--seed", "3"])
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert {r["config"] for r in rows} == {"all", "bare"}


def test_bench_deterministic_modulo_wall(gex_file):
    outs = []
    for _ in range(2):
        code, out = _run(["bench", gex_file, "--pairs", "2",
                          "--k-min", "2", "--k-max", "3",
                          "--ell-min", "5", "--ell-max", "6",
                          "--configs", "all,b-sp", "--seed", "7"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for r in rows:
            r.pop("wall_ms")
        outs.append(rows)
    assert outs[0] == outs[1]


def test_bench_decision_matches_solve_replay(gex_file):
    code, out = _run(["bench", gex_file, "--pairs", "1",
                      "--k-min", "2", "--k-max", "2",
                      "--ell-min", "5", "--ell-max", "5",
                      "--configs", "b-sp", "--seed", "11"])
    row = next(csv.DictReader(io.StringIO(out)))
    code2, out2 = _run(["solve", gex_file, "--s", row["s"], "--t", row["t"],
                        "--k", row["k"], "--ell", row["ell"],
                        "--heur", "b-sp", "--json"])
    payload = json.loads(out2)
    assert payload["decision"] == row["decision"]


def test_bench_unreadable_file_warning_row(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    code, out = _run(["bench", missing, "--pairs", "1",
                      "--configs", "all", "--seed", "1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["decision"] == "error"
    assert rows[0]["solved_by"] == "unreadable"
    assert "warning" in capsys.readouterr().err


def test_bench_skips_undecodable_file(binary_file, gex_file, capsys):
    code, out = _run(["bench", binary_file, gex_file, "--pairs", "1",
                      "--k-min", "1", "--k-max", "1", "--ell-min", "4",
                      "--ell-max", "4", "--configs", "all", "--seed", "1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["graph"] for r in rows] == [binary_file, gex_file]
    assert rows[0]["decision"] == "error"
    assert rows[0]["solved_by"] == "unreadable"
    assert rows[1]["decision"] in ("yes", "no")
    assert f"warning: skipping {binary_file}: line 1" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("text", ["0 0\n", "1 0\n"])
def test_bench_goes_on_past_a_graph_without_a_pair(text, gex_file, tmp_path,
                                                    capsys):
    # a graph with fewer than two vertices has no terminal pair to sample
    tiny = str(tmp_path / "tiny.txt")
    Path(tiny).write_text(text)
    code, out = _run(["bench", tiny, gex_file, "--pairs", "1",
                      "--k-min", "2", "--k-max", "2", "--ell-min", "5",
                      "--ell-max", "5", "--configs", "all", "--seed", "1"])
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["graph"] for r in rows] == [gex_file]
    assert rows[0]["decision"] in ("yes", "no")
    assert (f"warning: {tiny}: only 0 usable terminal pairs of 1 requested"
            in capsys.readouterr().err)


def test_bench_asking_past_every_pair_takes_what_there_is(tmp_path):
    # a path on 4 vertices has 6 pairs; asking for far more must not spin
    # through 200 attempts per requested pair once all of them are drawn
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n1 2\n2 3\n3 4\n")
    proc = _python_m("bench", str(path), "--pairs", "1000000", "--k-min",
                     "1", "--k-max", "1", "--ell-min", "3", "--ell-max",
                     "3", "--configs", "all", "--seed", "1", timeout=30)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    drawn = [frozenset((int(r["s"]), int(r["t"]))) for r in rows]
    assert sorted(map(sorted, drawn)) == [[1, 2], [1, 3], [1, 4], [2, 3],
                                          [2, 4], [3, 4]]
    assert ("only 6 usable terminal pairs of 1000000 requested"
            in proc.stderr)


def _reference_sample_pairs(g, count, rng, max_dist=10):
    """The sampler as it was before it bounded each attempt's BFS: a cached
    full-graph distance row per u."""
    if g.n < 2:
        return []
    ws = Workspace(g)
    pairs, seen = [], set()
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
        d = ws.distance_row(u)[v]
        if 0 < d <= max_dist:
            seen.add(key)
            pairs.append((u, v))
    return pairs


def _sampling_graphs():
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randrange(2, 400)
        yield random_gnp(n, rng.choice([0.5, 1.5, 3.0]) / n, 1100 + seed)
    # as bench reads it: a parsed file, whose rows are a flat view
    yield parse_graph(format_graph(grid_graph(30, 40, 0.0,
                                              random.Random(0))))


_SAMPLING = list(_sampling_graphs())


@pytest.mark.parametrize("index", range(len(_SAMPLING)))
def test_bench_samples_the_reference_pairs_without_full_rows(index,
                                                             monkeypatch):
    g = _SAMPLING[index]
    for count, max_dist in ((10, 10), (3, 4), (40, 2)):
        want_rng, got_rng = random.Random(index), random.Random(index)
        want = _reference_sample_pairs(g, count, want_rng, max_dist)
        with monkeypatch.context() as m:
            m.setattr(Workspace, "distance_row", _no_distance_row)
            m.setattr(Workspace, "__init__", _no_workspace)
            got = cli._sample_pairs(g, count, got_rng, max_dist)
        assert got == want
        # bench draws its config orders from the same generator next
        assert got_rng.getstate() == want_rng.getstate()


def _bidir_sample_pairs(g, count, rng, max_dist=10):
    """The sampler before it labelled components: one bounded search per
    draw, whichever components the two vertices lie in."""
    if g.n < 2:
        return []
    count = min(count, g.n * (g.n - 1) // 2)
    pairs, seen = [], set()
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
        if bidir_path(g.adj, set(), u, v, max_dist) is not None:
            seen.add(key)
            pairs.append((u, v))
    return pairs


# the graph of `gen --n 2000 --p 0.0005 --seed 1`: 968 edges, so most
# draws fall in two components and the attempt limit ends the sampling
_SPARSE = random_gnp(2000, 0.0005, 1)


@pytest.mark.parametrize("index", range(len(_SAMPLING) + 1))
def test_bench_component_labels_keep_the_searched_pairs(index):
    g = _SAMPLING[index] if index < len(_SAMPLING) else _SPARSE
    for seed, count, max_dist in ((index, 10, 10), (index + 50, 40, 3),
                                  (index + 100, 120, 10)):
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = _bidir_sample_pairs(g, count, want_rng, max_dist)
        assert cli._sample_pairs(g, count, got_rng, max_dist) == want
        assert got_rng.getstate() == want_rng.getstate()


def test_bench_rejects_pairs_across_components_without_a_search(
        monkeypatch):
    calls = []

    def counting_bidir(*args):
        calls.append(args[2:4])
        return bidir_path(*args)

    monkeypatch.setattr(cli, "bidir_path", counting_bidir)
    pairs = cli._sample_pairs(_SPARSE, 100, random.Random(3))
    assert pairs == _bidir_sample_pairs(_SPARSE, 100, random.Random(3))
    nxg = nx.Graph(_SPARSE.edges())
    nxg.add_nodes_from(range(_SPARSE.n))
    assert calls and all(nx.has_path(nxg, u, v) for u, v in calls)


def _no_distance_row(self, src):
    raise AssertionError("sampling must not build a full-graph row")


def _no_workspace(self, g):
    raise AssertionError("sampling must not build graph-sized buffers")


@pytest.mark.parametrize("extra", [
    ["--pairs", "-2"],
    ["--pairs", "0"],
    ["--pairs", "1", "--timeout-ms", "0"],
])
def test_bench_non_positive_pairs_or_timeout_usage_error(gnp_file, extra):
    code, out = _run(["bench", gnp_file, "--k-min", "2", "--k-max", "2",
                      "--ell-min", "5", "--ell-max", "5", "--configs", "all",
                      *extra])
    assert code == 64
    assert out == ""


@pytest.mark.parametrize("names", ["", ",", " , ", "all,all", "bare,all,bare"])
def test_bench_empty_or_repeated_configs_usage_error(gnp_file, names):
    code, out = _run(["bench", gnp_file, "--pairs", "1", "--k-min", "2",
                      "--k-max", "2", "--ell-min", "5", "--ell-max", "5",
                      "--configs", names])
    assert code == 64
    assert out == ""


def test_bench_appends_to_csv(gex_file, tmp_path):
    target = tmp_path / "runs.csv"
    for _ in range(2):
        code, _ = _run(["bench", gex_file, "--pairs", "1",
                        "--k-min", "2", "--k-max", "2",
                        "--ell-min", "5", "--ell-max", "5",
                        "--configs", "all", "--seed", "3",
                        "-o", str(target)])
        assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # one header, two appended runs



@pytest.mark.parametrize("target", [[], ["-o", "/dev/stdout"]],
                         ids=["stdout", "dash-o-dev-stdout"])
def test_bench_to_a_pipe(gex_file, target):
    # standard output as a real pipe, which cannot seek
    if target and not os.path.exists(target[1]):
        pytest.skip(f"no {target[1]} on this platform")
    proc = _python_m("bench", gex_file, "--pairs", "1",
                     "--k-min", "2", "--k-max", "2",
                     "--ell-min", "5", "--ell-max", "5",
                     "--configs", "all,bare", "--seed", "3", *target)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 2
    assert {r["config"] for r in rows} == {"all", "bare"}
