"""Parity of the bulk graph parser with a plain line-by-line reference.

Seeded mutations of valid files must either parse to the same adjacency as
the reference below or raise GraphFormatError with the same line number and
message.
"""

import gc
import random
import re
from array import array

import pytest

from pathpack import (Graph, GraphFormatError, format_graph, parse_graph,
                      random_gnp)
from pathpack import graph
from pathpack.graph import _scan


def rows(g):
    """The adjacency of ``g`` as a tuple of tuples, whatever its layout."""
    return tuple(map(tuple, g.adj))


MAX_HEADER = 2**31 - 1
MAX_ISOLATED = 2**20
TOKEN = re.compile(r"[+-]?[0-9]+")


def reference_parse(text):
    """The format read one line at a time: ("ok", adj) or ("error",
    line_no, message) for the first line that breaks a rule."""
    lines = text.splitlines()
    header = None
    edges = []
    seen = set()

    def error(message, line_no):
        return ("error", line_no, f"line {line_no}: {message}")

    for line_no, line in enumerate(lines, start=1):
        body = line.strip()
        if body.startswith("#"):
            continue
        parts = body.split()
        if not parts and line.isascii():
            continue
        if (len(parts) != 2 or not line.isascii()
                or not all(TOKEN.fullmatch(p) for p in parts)):
            return error("expected two integers", line_no)
        a, b = int(parts[0]), int(parts[1])
        if header is None:
            if a < 0 or b < 0:
                return error("negative header values", line_no)
            if a > MAX_HEADER or b > MAX_HEADER:
                return error(f"header values above {MAX_HEADER}", line_no)
            if a > 2 * b + MAX_ISOLATED:
                return error(f"vertex count above 2m + {MAX_ISOLATED}",
                             line_no)
            header = (a, b)
            continue
        n, m = header
        if len(edges) >= m:
            return error(f"more than the declared {m} edges", line_no)
        if not (1 <= a <= n and 1 <= b <= n):
            return error(f"endpoint out of range 1..{n}", line_no)
        if a == b:
            return error("self-loop not allowed", line_no)
        key = (min(a, b), max(a, b))
        if key in seen:
            return error(f"duplicate edge {a} {b}", line_no)
        seen.add(key)
        edges.append((a - 1, b - 1))
    if header is None:
        return error("missing '<n> <m>' header", 1)
    if len(edges) != header[1]:
        return error(f"declared {header[1]} edges but found {len(edges)}",
                     len(lines) or 1)
    rows = [[] for _ in range(header[0])]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    return ("ok", tuple(tuple(sorted(row)) for row in rows))


def outcome(text):
    try:
        g = parse_graph(text)
    except GraphFormatError as exc:
        return ("error", exc.line_no, str(exc))
    return ("ok", rows(g))


# ---------------------------------------------------------------------------
# seeded mutations
# ---------------------------------------------------------------------------

BREAKS = ["\n", "\r\n", "\r", "\f", "\x0b", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029"]
SPACES = [" ", "  ", "\t", "\x1f", " \t "]
ODD_SPACES = ["\xa0", "\u3000"]
COMMENTS = ["# comment", "  # indented", "#", "# caf\u00e9 \u2603",
            "\t# tab", "# 1 2", "#\x00"]
BLANKS = ["", "   ", "\t", "\x1f", "\xa0", " \u3000 "]
TOKENS = ["+3", "-3", "+0", "-0", "+-3", "--3", "-", "+", "3+", "3-2",
          "1_0", "0x1", "1.0", "1e2", "x", "\u0663", "\uff13", "\u00b2",
          "12345678901234567890", "-12345678901234567890",
          "99999999999999999999", "00000000000000000003",
          "9223372036854775807", "9223372036854775808", "2147483648",
          "4294967296", "#"]


def _valid_lines(rng):
    """Header and edge lines of a small valid graph, in random order and
    orientation."""
    n = rng.randrange(2, 14)
    g = random_gnp(n, rng.choice([0.2, 0.4, 0.7]), rng.randrange(10**6))
    edges = list(g.edges())
    rng.shuffle(edges)
    lines = [[str(n), str(g.m)]]
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        lines.append([str(u + 1), str(v + 1)])
    return lines


def _mutate(rng, lines):
    """Apply one random mutation to the token lists in ``lines``."""
    kind = rng.randrange(11)
    i = rng.randrange(len(lines))
    line = lines[i]
    if kind == 0 and isinstance(line, list):            # a third token
        line.append(rng.choice(["1", "7", "x"]))
    elif kind == 1 and isinstance(line, list) and line:  # a missing token
        line.pop(rng.randrange(len(line)))
    elif kind == 2:                                     # comment or blank
        lines.insert(i, rng.choice(COMMENTS + BLANKS))
    elif kind == 3 and isinstance(line, list) and line:  # an odd token
        line[rng.randrange(len(line))] = rng.choice(TOKENS)
    elif kind == 4 and isinstance(line, list) and line:  # a signed value
        j = rng.randrange(len(line))
        if line[j].isdigit():
            line[j] = rng.choice(["+", "-", "+0", "00"]) + line[j]
    elif kind == 5 and len(lines) > 1:                  # reversed duplicate
        src = rng.choice(lines[1:])
        if isinstance(src, list) and len(src) == 2:
            lines.insert(rng.randrange(1, len(lines) + 1), src[::-1])
    elif kind == 6 and len(lines) > 1:                  # drop an edge line
        del lines[rng.randrange(1, len(lines))]
    elif kind == 7 and isinstance(lines[0], list) and len(lines[0]) == 2:
        head = lines[0]                                 # change the header
        j = rng.randrange(2)
        if TOKEN.fullmatch(head[j]):
            head[j] = str(int(head[j]) + rng.choice([-2, -1, 1, 2**31]))
    elif kind == 8 and isinstance(line, list) and len(line) == 2:
        line[1] = line[0]                               # self-loop
    elif kind == 9:                                     # trailing '#'
        if isinstance(line, list):
            line.append("#")
    else:                                               # non-ASCII space
        if isinstance(line, list) and line:
            line.insert(rng.randrange(len(line) + 1), rng.choice(ODD_SPACES))


def _render(rng, lines):
    out = []
    for line in lines:
        if isinstance(line, str):
            out.append(line)
            continue
        lead = rng.choice(["", "", " ", "\t"])
        sep = [rng.choice(SPACES) for _ in line]
        out.append(lead + "".join(tok + s for tok, s in zip(line, sep))
                   .rstrip(" \t\x1f") + rng.choice(["", "", " "]))
    breaks = [rng.choice(BREAKS) if rng.random() < 0.2 else "\n"
              for _ in out]
    text = "".join(line + br for line, br in zip(out, breaks))
    if rng.random() < 0.2:
        text = text[:-len(breaks[-1])] if breaks else text
    return text


def _mutated_text(seed):
    rng = random.Random(seed)
    lines = _valid_lines(rng)
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        _mutate(rng, lines)
    return _render(rng, lines)


# in 5770 and 15149 an odd token ("+-3", "\u00b2") replaces a header value
# that a later mutation would change
@pytest.mark.parametrize("seed", [*range(300), 5770, 15149])
def test_mutated_files_match_the_line_by_line_reference(seed):
    text = _mutated_text(seed)
    want = reference_parse(text)
    assert outcome(text) == want
    assert outcome(text.encode("utf-8")) == want


def test_mutations_reach_both_outcomes_and_every_message():
    seen = set()
    for seed in range(300):
        result = reference_parse(_mutated_text(seed))
        seen.add(result[0] if result[0] == "ok"
                 else re.sub(r"[0-9]+", "N", result[2].split(": ", 1)[1]))
    assert seen >= {"ok", "expected two integers", "negative header values",
                    "header values above N", "more than the declared N edges",
                    "endpoint out of range N..N", "self-loop not allowed",
                    "declared N edges but found N"}
    assert any(s.startswith("duplicate edge") for s in seen)


# ---------------------------------------------------------------------------
# canonical texts: one separator pass, and the rewrite on a count mismatch
# ---------------------------------------------------------------------------

OVERFLOWS = ["99999999999999999999", "9223372036854775808", "2147483648",
             "4294967296"]


def _canonical_mutation(rng, lines, n):
    """Apply one token-level mutation to ``lines`` (lists of two digit
    strings) that keeps every byte a digit, b" " or b"\n"."""
    kind = rng.randrange(10)
    i = rng.randrange(len(lines))
    line = lines[i]
    j = rng.randrange(2)
    if kind == 0:                                       # empty digit run
        line[j] = ""
    elif kind == 1:                                     # only a space
        lines.insert(rng.randrange(len(lines) + 1), ["", ""])
    elif kind == 2:                                     # overflowing token
        line[j] = rng.choice(OVERFLOWS)
    elif kind == 3 and line[j]:                         # zero-padded token
        line[j] = "0" * rng.randrange(1, 4) + line[j]
    elif kind == 4 and lines[0][j].isdigit():           # header change
        lines[0][j] = str(max(0, int(lines[0][j]) + rng.choice([-1, 1, 2])))
    elif kind == 5 and len(lines) > 1:                  # duplicate
        dup = list(rng.choice(lines[1:]))
        lines.insert(rng.randrange(1, len(lines) + 1),
                     dup[::rng.choice([1, -1])])
    elif kind == 6 and i > 0:                           # self-loop
        line[1] = line[0]
    elif kind == 7 and i > 0:                           # out of range
        line[j] = str(n + rng.randrange(1, 3))
    elif kind == 8 and len(lines) > 1:                  # missing edge line
        del lines[rng.randrange(1, len(lines))]
    else:                                               # extra edge line
        lines.append([str(rng.randrange(1, n + 1)),
                      str(rng.randrange(1, n + 1))])


def _canonical_text(seed):
    """A valid graph written as format_graph writes it, with up to three
    token-level mutations; a quarter of the texts lose the final b"\n"."""
    rng = random.Random(seed)
    lines = _valid_lines(rng)
    n = int(lines[0][0])
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        _canonical_mutation(rng, lines, n)
    text = "".join(f"{a} {b}\n" for a, b in lines)
    return text[:-1] if rng.random() < 0.25 else text


@pytest.mark.parametrize("seed", range(300))
def test_canonical_texts_and_their_mutations_match_the_reference(seed):
    text = _canonical_text(seed)
    want = reference_parse(text)
    assert outcome(text) == want
    assert outcome(text.encode("ascii")) == want


def test_canonical_mutations_reach_both_outcomes_and_every_message():
    seen = set()
    for seed in range(300):
        result = reference_parse(_canonical_text(seed))
        seen.add(result[0] if result[0] == "ok"
                 else re.sub(r"[0-9]+", "N", result[2].split(": ", 1)[1]))
    assert seen >= {"ok", "expected two integers", "header values above N",
                    "more than the declared N edges",
                    "endpoint out of range N..N", "self-loop not allowed",
                    "declared N edges but found N"}
    assert any(s.startswith("duplicate edge") for s in seen)


@pytest.mark.parametrize("text,want", [
    # a one-token line and an unterminated last line give as many tokens
    # as separators
    ("4 1\n3 \n2", ("error", 2, "line 2: expected two integers")),
    # a line holding only a space is blank: fewer tokens than separators,
    # and still valid
    ("3 2\n \n1 2\n2 3\n", ("ok", ((1,), (0, 2), (1,)))),
    ("5 \n", ("error", 1, "line 1: expected two integers")),
    (" 5\n", ("error", 1, "line 1: expected two integers")),
    (" \n", ("error", 1, "line 1: missing '<n> <m>' header")),
    ("3 1\n1 2\n \n", ("ok", ((1,), (0,), ()))),
])
def test_canonical_edge_cases(text, want):
    assert reference_parse(text) == want
    assert outcome(text) == want
    assert outcome(text.encode("ascii")) == want


def _line_reads(monkeypatch):
    """A list of the texts that parse_graph hands to the line reader for
    the rest of the test."""
    reads = []
    read_lines = graph._read_lines

    def spy(text):
        reads.append(text)
        return read_lines(text)

    monkeypatch.setattr(graph, "_read_lines", spy)
    return reads


def _copies(text):
    """Valid copies of the canonical ``text`` that the rewrite makes
    canonical, by name."""
    lines = text.splitlines()
    return {
        "canonical": text,
        "crlf": text.replace("\n", "\r\n"),
        "tab": text.replace(" ", "\t"),
        "comment line": "# made by hand\n" + text + "  # the end\n",
        "blank line": "\n" + text.replace("\n", "\n\n"),
        "padded": "".join(f"  {line.replace(' ', '   ')} \n"
                          for line in lines),
        "unterminated": text[:-1],
        "signed": "".join(f"+{line.replace(' ', ' +')}\n" for line in lines),
    }


def test_valid_ascii_texts_are_read_in_bulk_and_the_rest_line_by_line(
        monkeypatch):
    reads = _line_reads(monkeypatch)
    for seed in range(20):
        g = random_gnp(2 + seed, 0.3, seed)
        text = format_graph(g)
        for name, copy in _copies(text).items():
            for given in (copy, copy.encode("ascii")):
                assert rows(parse_graph(given)) == g.adj, name
        assert reads == []
    # a canonical text with an empty token is rewritten, not read by line
    assert rows(parse_graph("3 2\n \n1 2\n2 3\n")) == ((1,), (0, 2), (1,))
    assert reads == []
    # a '-' sign, and a comment line that is not ASCII, are read line by
    # line to the same rows
    g = random_gnp(12, 0.3, 1)
    for copy, want in (("3 -0\n", ((), (), ())),
                       ("# caf\u00e9\n" + format_graph(g), g.adj)):
        for given in (copy, copy.encode("utf-8")):
            assert rows(parse_graph(given)) == want
    assert len(reads) == 4


def test_a_text_read_line_by_line_must_pass_the_bulk_checks(monkeypatch):
    # the line reader and the bulk checks apply the same rules; a text one
    # accepts and the other rejects is a fault of the parser, and raises
    # also under python -O
    monkeypatch.setattr(graph, "_checked_keys", lambda values: None)
    with pytest.raises(AssertionError, match="rejected in bulk"):
        parse_graph("3 2\n1 2\n2 3\n")


# ---------------------------------------------------------------------------
# fixed cases
# ---------------------------------------------------------------------------

def _wide_line(tokens):
    """A header and one line of ``tokens`` tokens which, read in pairs, are
    distinct edges; for an even count they are the declared number of
    edges, and only the two-per-line rule rejects them.  A per-line token
    counter of 8 bits would read 256 tokens as 0 and 258 as 2, and accept
    the line."""
    ends = [str(e) for v in range(2, 2 + tokens // 2 + 1) for e in (1, v)]
    return f"300 {tokens // 2}\n" + " ".join(ends[:tokens]) + "\n"


@pytest.mark.parametrize("text", [
    _wide_line(256),
    _wide_line(257),
    _wide_line(258),
    "5 3\n1 2\n2 3\n3 4 5\n",
    "5 3\n1 2\n2 3 4\n5 1\n1\n",
    "",
    "\n\n",
    "# only a comment\n",
    "3 0",
    "0 0\n",
    "3 1\n1 2 # trailing comment\n",
    "3 1\r\n1 2\r\n",
    "3 1\n\x851 2\n",
    "3 1\n1\u20282\n",
    "3 1\n+1 -2\n",
    "3 1\n01 0002\n",
    "3 1\n1 2\n\n\n",
    "3 2\n1 2\n2 1\n",
    "3 1\n1\x1f2\n",
    "3 1\n1\xa02\n",
    "\ufeff3 1\n1 2\n",
    "2147483648 0\n",
    "3 2147483648\n",
    "-1 99999999999999999999\n",
    "99999999999999999999 1\n1 2\n",
    "3 1\n1 99999999999999999999\n",
    "3 1\n1 -99999999999999999999\n",
    "3 1\n-\n",
    "3 1\n1 -\n",
    "3 -\n",
    "- 0\n",
    "+ +\n",
    "3 1\n1 2\n\xa0\n",
    "3 2\n1 2\n1 2 3\n",
    "3 1\n1 2\n2 3\n3 1\n",
    "1048577 0\n",
    "# few edges\n1048579 1\n1 2\n",
    "1048579 1\n1 2\n1 3\n",
])
def test_fixed_cases_match_the_reference(text):
    assert outcome(text) == reference_parse(text)
    assert outcome(text.encode("utf-8")) == reference_parse(text)


def test_undecodable_bytes_fail_outside_comments_only():
    g = parse_graph(b"# caf\xe9 \xff\n3 2\n1 2\n2 3\n")
    assert rows(g) == ((1,), (0, 2), (1,))
    with pytest.raises(GraphFormatError) as err:
        parse_graph(b"\xff\xfe3 2\n1 2\n2 3\n")
    assert err.value.line_no == 1
    with pytest.raises(GraphFormatError) as err:
        parse_graph(b"3 2\n1 2\n2 3\xe9\n")
    assert err.value.line_no == 3


@pytest.mark.parametrize("text,line", [
    ("# big\n2147483648 1\n1 2\n", 2),
    ("5 4294967296\n1 2\n", 1),
])
def test_huge_header_is_an_error_at_the_header_line(text, line):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.line_no == line
    assert "2147483647" in str(err.value)


def test_vertex_count_bound_is_inclusive(monkeypatch):
    # the bound is 2m + 2**20; a smaller stand-in keeps the accepted side
    # of the boundary cheap to build
    monkeypatch.setattr("pathpack.graph._MAX_ISOLATED", 4)
    assert parse_graph("10 3\n1 2\n3 4\n5 6\n").n == 10
    for text in ("11 3\n1 2\n3 4\n5 6\n", "11 3\n1 2\n3 4\n5 5\n"):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert err.value.line_no == 1
        assert "vertex count above 2m + 4" in str(err.value)


def test_parsed_rows_match_the_edge_list_constructor():
    rng = random.Random(5)
    for trial in range(20):
        n = rng.randrange(1, 60)
        g = random_gnp(n, 0.15, trial)
        edges = list(g.edges())
        rng.shuffle(edges)
        text = f"{n} {len(edges)}\n" + "".join(
            f"{v + 1} {u + 1}\n" if rng.random() < 0.5 else f"{u + 1} {v + 1}\n"
            for u, v in edges)
        parsed = parse_graph(text)
        assert rows(parsed) == g.adj == Graph(n, edges).adj
        assert (parsed.n, parsed.m) == (g.n, g.m)


def test_parsed_rows_live_in_one_flat_buffer_of_4_byte_ids():
    n = 600
    edges = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    g = parse_graph(f"{n} {len(edges)}\n"
                    + "".join(f"{u + 1} {v + 1}\n" for u, v in edges))
    # the adjacency refers to two arrays and to no per-vertex object: the
    # 2m neighbor ids as 4-byte items and the n + 1 row offsets
    nbr, off = g.adj.nbr, g.adj.off
    assert type(nbr) is array and nbr.itemsize == 4 and len(nbr) == 2 * g.m
    assert type(off) is array and len(off) == n + 1
    held = [x for x in gc.get_referents(g.adj) if x is not type(g.adj)]
    assert len(held) == 2 and held[0] is nbr and held[1] is off
    # a row is made when it is read, as a slice of the buffer
    assert g.adj[0] == array("i", [1, n - 1])
    assert g.adj[n - 1] == array("i", [0, n - 2])


# ---------------------------------------------------------------------------
# key widths and the bytes path
# ---------------------------------------------------------------------------

# the largest n whose keys u * n + v fit in int32, and the next
KEY_WIDTHS = [(46340, "int32"), (46341, "int64")]


def _edges_at_the_corners(n):
    """Edges that touch both ends of the id range, where the keys are
    smallest and largest; the header's other vertices are isolated."""
    return [(0, 1), (0, n - 1), (n - 2, n - 1), (1, n - 2), (n // 2, n - 1)]


@pytest.mark.parametrize("n,width", KEY_WIDTHS)
def test_rows_at_the_key_width_boundary_match_the_constructor(n, width):
    edges = _edges_at_the_corners(n)
    text = f"{n} {len(edges)}\n" + "".join(f"{v + 1} {u + 1}\n"
                                           for u, v in edges)
    assert str(_scan(text.encode())[1].dtype) == width
    g = parse_graph(text)
    assert (g.n, g.m) == (n, len(edges))
    assert rows(g) == Graph(n, edges).adj


@pytest.mark.parametrize("n", [n for n, _ in KEY_WIDTHS])
@pytest.mark.parametrize("bad,line,message", [
    ("{a} {b}", 4, "duplicate edge {a} {b}"),
    ("{n} {n}", 4, "self-loop not allowed"),
    ("{a} {over}", 4, "endpoint out of range 1..{n}"),
])
def test_each_key_width_names_the_same_error_line(n, bad, line, message):
    a, b, over = n - 1, n, n + 1
    text = (f"{n} 3\n{a} {b}\n1 {n}\n"
            + bad.format(a=a, b=b, n=n, over=over) + "\n")
    for given in (text, text.encode()):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(given)
        assert err.value.line_no == line
        assert str(err.value) == (f"line {line}: "
                                  + message.format(a=a, b=b, n=n))
    assert outcome(text) == reference_parse(text)


def _buffers(g):
    return g.adj.nbr.tobytes(), g.adj.off.tobytes()


@pytest.mark.parametrize("n", [40, 46341])
def test_rewritten_whitespace_and_comments_give_the_same_buffers(n):
    rng = random.Random(n)
    edges = sorted({tuple(sorted(rng.sample(range(1, 41), 2)))
                    for _ in range(60)})
    canonical = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n"
                                                for u, v in edges)
    variant = ("# made by hand\r\n" + f"{n}\t{len(edges)}\r\n"
               + "".join(f"{u}\t {v}\r\n" + ("  # a comment\r\n" if u % 3
                                             else "")
                         for u, v in edges))
    want = _buffers(parse_graph(canonical.encode()))
    for text in (canonical, variant, variant.encode(),
                 ("# café\n" + canonical).encode()):
        assert _buffers(parse_graph(text)) == want
