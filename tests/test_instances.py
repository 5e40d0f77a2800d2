"""Round-trip, diagnostic, and generator tests for instance files."""

from __future__ import annotations

import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankinglab import (
    BipartiteInstance,
    InstanceFormatError,
    Permutation,
    check_rank_move,
    check_theorem4,
    check_theorem6,
    cli,
    edge,
    exact_expected_size,
    fileformat,
    fingerprint,
    gamma_min_ratio,
    generators,
    gen_perfect,
    gen_random,
    graph,
    is_matching,
    lemma3_chain,
    mc_expected_size,
    parse_instance,
    perfect_matching_of,
    probability,
    removal_diff_offline,
    serialize_instance,
    vertices,
)

from rankinglab.engine import rank_match

from .conftest import DATA, instances, make_instance
from .oracles import _gamma_ranking, gen_gamma_family, max_card_matching, online_match


class TestParse:
    def test_golden_file(self, example6, example6_text):
        assert example6.ranking.order == ("v1", "v2", "v3", "v4", "v5", "v6")
        assert example6.arrival.order == ("u1", "u2", "u3", "u4", "u5", "u6")
        assert len(example6.graph) == 14
        assert serialize_instance(example6) == example6_text

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\noffline v1  # trailing\n\nonline u1\nedge u1 v1\n"
        inst = parse_instance(text)
        assert inst.graph == frozenset({edge("u1", "v1")})

    def test_no_trailing_newline_accepted(self):
        inst = parse_instance("offline v1\nonline u1\nedge u1 v1")
        assert len(inst.graph) == 1

    def test_empty_parties(self):
        inst = parse_instance("offline\nonline\n")
        assert inst.offline == frozenset() and inst.graph == frozenset()

    def test_duplicate_edge_collapses(self):
        inst = parse_instance("offline v1\nonline u1\nedge u1 v1\nedge u1 v1\n")
        assert len(inst.graph) == 1


class TestParseErrors:
    def check(self, text, line, column, fragment):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert err.value.line == line
        assert err.value.column == column
        assert fragment in str(err.value)
        assert str(err.value).startswith(f"line {line}, column {column}:")

    def test_empty_input(self):
        self.check("", 1, 1, "missing 'offline'")
        self.check("# only comments\n", 1, 1, "missing 'offline'")

    def test_missing_online_line(self):
        self.check("offline v1\n", 2, 1, "missing 'online'")

    def test_wrong_keyword(self):
        self.check("ranked v1\n", 1, 1, "expected 'offline'")
        self.check("offline v1\nonline u1\nlink u1 v1\n", 3, 1, "expected 'edge'")

    def test_swapped_party_lines(self):
        self.check("online u1\noffline v1\n", 1, 1, "expected 'offline'")

    def test_duplicate_vertex_reports_first_declaration(self):
        self.check(
            "offline v1 v1\nonline u1\n", 1, 12,
            "already declared in the offline party at line 1, column 9",
        )
        self.check(
            "offline v1\nonline v1\n", 2, 8,
            "already declared in the offline party",
        )

    def test_edge_arity(self):
        self.check("offline v1\nonline u1\nedge u1\n", 3, 1, "exactly two endpoints")
        self.check("offline v1\nonline u1\nedge u1 v1 v1\n", 3, 1, "exactly two endpoints")

    def test_unknown_endpoints(self):
        self.check(
            "offline v1\nonline u1\nedge v1 u1\n", 3, 6,
            "unknown online vertex 'v1'",
        )
        self.check(
            "offline v1\nonline u1\nedge u1 v2\n", 3, 9,
            "unknown offline vertex 'v2'",
        )

    def test_error_is_value_error(self):
        assert issubclass(InstanceFormatError, ValueError)


class TestRoundTrip:
    def test_canonical_fixed_point(self, example6_text):
        assert serialize_instance(parse_instance(example6_text)) == example6_text

    def test_non_canonical_input_normalizes(self):
        ugly = "online u2 u1\n# nope\n"
        text = "offline v2 v1\nonline u2 u1\nedge u1 v1\nedge u2 v1\nedge u2 v2\n"
        # scramble the edge order; parsing must not care
        scrambled = text.replace("edge u1 v1\n", "") + "edge u1 v1\n"
        assert parse_instance(scrambled) == parse_instance(text)
        assert serialize_instance(parse_instance(scrambled)) == serialize_instance(
            parse_instance(text)
        )
        del ugly

    @settings(max_examples=60)
    @given(instances())
    def test_any_instance_round_trips(self, inst):
        text = serialize_instance(inst)
        back = parse_instance(text)
        assert back == inst
        assert serialize_instance(back) == text

    def test_fingerprint_tracks_content(self, example6):
        assert fingerprint(example6) == fingerprint(parse_instance(serialize_instance(example6)))
        other = make_instance("v1", "u1", [("u1", "v1")])
        assert fingerprint(other) != fingerprint(example6)
        assert len(fingerprint(other)) == 12
        assert all(c in "0123456789abcdef" for c in fingerprint(other))


# Reference parser and serializer, written for clarity: every token paired with
# its column up front, every content line kept in a list, and edges sorted by
# (arrival index, ranking index).  The tests below hold the one-pass parser and
# the reach-walking serializer to them, error text and bytes included.
_TOKEN = re.compile(r"\S+")


def _content_lines(text):
    for ln, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        toks = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(content)]
        if toks:
            yield ln, toks


def oracle_parse(text):
    lines = list(_content_lines(text))
    if not lines:
        raise InstanceFormatError("missing 'offline' declaration", 1)
    seen = {}

    def read_party(idx, keyword):
        if idx >= len(lines):
            raise InstanceFormatError(
                f"missing '{keyword}' declaration", lines[-1][0] + 1
            )
        ln, toks = lines[idx]
        col0, head = toks[0]
        if head != keyword:
            raise InstanceFormatError(f"expected '{keyword}', got {head!r}", ln, col0)
        members = []
        for col, tok in toks[1:]:
            if tok in seen:
                party, pln, pcol = seen[tok]
                raise InstanceFormatError(
                    f"duplicate vertex {tok!r} (already declared in the "
                    f"{party} party at line {pln}, column {pcol})",
                    ln,
                    col,
                )
            seen[tok] = (keyword, ln, col)
            members.append(tok)
        return members

    offline = read_party(0, "offline")
    online = read_party(1, "online")
    online_set = set(online)
    offline_set = set(offline)
    edges = set()
    for ln, toks in lines[2:]:
        col0, head = toks[0]
        if head != "edge":
            raise InstanceFormatError(f"expected 'edge', got {head!r}", ln, col0)
        if len(toks) != 3:
            raise InstanceFormatError(
                f"'edge' takes exactly two endpoints, got {len(toks) - 1}", ln, col0
            )
        (ucol, u), (vcol, v) = toks[1], toks[2]
        if u not in online_set:
            raise InstanceFormatError(
                f"unknown online vertex {u!r} (edges name the online endpoint "
                "first)",
                ln,
                ucol,
            )
        if v not in offline_set:
            raise InstanceFormatError(f"unknown offline vertex {v!r}", ln, vcol)
        edges.add(frozenset((u, v)))
    return BipartiteInstance(frozenset(edges), Permutation(offline), Permutation(online))


def oracle_serialize(inst):
    lines = [
        " ".join(["offline", *inst.ranking.order]).rstrip(),
        " ".join(["online", *inst.arrival.order]).rstrip(),
    ]
    oriented = []
    for e in inst.graph:
        u, v = sorted(e, key=inst.ranking.members.__contains__)  # online endpoint first
        oriented.append((inst.arrival.index(u), inst.ranking.index(v), u, v))
    for _, _, u, v in sorted(oriented):
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    """What parsing text gives: the instance and its index, or the error."""
    try:
        inst = parse(text)
    except Exception as err:  # the comparison covers every exception type
        where = getattr(err, "line", None), getattr(err, "column", None)
        return type(err), str(err), where
    return inst, inst.reach


# Characters str.isspace accepts: within a line, and also line boundaries for
# str.splitlines.
_SPACES = " \t\x1f\xa0\u3000"
_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_NAMES = ("v1", "v2", "v3", "u1", "u2", "u3", "w")


def _break_lines(draw, lines):
    """Apply up to two faults from a fixed menu to a file's token lines."""
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        toks = lines[k]
        fault = draw(
            st.sampled_from(
                ["duplicate", "unknown", "swap", "drop-token", "add-token",
                 "drop-line", "swap-parties", "keyword", "break"]
            )
        )
        if fault == "duplicate":
            at = draw(st.integers(1, max(1, len(toks))))
            toks.insert(at, draw(st.sampled_from(_NAMES)))
        elif fault == "unknown" and toks:
            toks.append(draw(st.sampled_from(_NAMES)))
            del toks[draw(st.integers(1, len(toks) - 1))]
        elif fault == "swap":
            toks[1:] = toks[:0:-1]
        elif fault == "drop-token" and toks:
            del toks[draw(st.integers(0, len(toks) - 1))]
        elif fault == "add-token":
            toks.append(draw(st.sampled_from(_NAMES)))
        elif fault == "drop-line":
            del lines[k]
        elif fault == "swap-parties":
            lines[:2] = lines[1::-1]
        elif fault == "keyword" and toks:
            toks[0] = draw(st.sampled_from(["offline", "online", "edge", "Edge"]))
        elif fault == "break":
            toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(_BREAKS)))
        if not lines:
            break
    return lines


@st.composite
def instance_texts(draw):
    """Instance files, well formed or broken in one or more ways, in odd layouts."""
    offline = draw(st.lists(st.sampled_from(_NAMES[:3]), min_size=1, unique=True))
    online = draw(st.lists(st.sampled_from(_NAMES[3:6]), min_size=1, unique=True))
    pairs = [(u, v) for u in online for v in offline]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    lines = [["offline", *offline], ["online", *online]]
    lines += [["edge", u, v] for u, v in edges]
    lines = _break_lines(draw, lines)
    blank = st.text(_SPACES, max_size=2)
    out = []
    for toks in lines:
        if draw(st.booleans()):
            out.append(draw(blank) + draw(st.sampled_from(["", "# note", "#"])))
        parts = [draw(blank)]
        for tok in toks:
            parts += [tok, draw(st.text(_SPACES, min_size=1, max_size=2))]
        parts.append(draw(st.sampled_from(["", "# c", "#edge u1 v1", "\t#x y"])))
        out.append("".join(parts))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r", *_BREAKS])) for _ in out]
    text = "".join(line + end for line, end in zip(out, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestOnePassParse:
    @settings(max_examples=400, deadline=None)
    @given(instance_texts())
    def test_same_instance_or_error(self, text):
        assert outcome(parse_instance, text) == outcome(oracle_parse, text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\r\n\x85# c\n",
            "offline\x1cv1\nonline u1\n",
            "offline v1\x1fv2\u3000v3\nonline\xa0u1\nedge u1\tv2 #x\r\n",
            "offline v1\nonline u1\u2028edge u1 v1",
            "offline v1 v2\nonline u1 v2\n",
            "offline v1\nonline u1 u2 u1\n",
            "offline v1\nonline u1\nedge\n",
            "offline v1\nonline u1\nedge u1\nedge u1 v1 v1\n",
            "offline v1\nonline u1\nedge u1 v1 v1 v1\n",
            "offline v1\nonline u1\nedge v1 u1\nedge\x0bu1 v1\n",
        ],
    )
    def test_fixed_texts(self, text):
        assert outcome(parse_instance, text) == outcome(oracle_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(instance_texts())
    def test_constructor_round_trip(self, text):
        inst = outcome(parse_instance, text)[0]
        assume(isinstance(inst, BipartiteInstance))
        twin = BipartiteInstance(inst.graph, inst.ranking, inst.arrival)
        assert twin == inst and twin.reach == inst.reach
        assert hash(twin) == hash(inst) and repr(twin) == repr(inst)

    def test_graph_is_built_only_when_read(self, tmp_path, monkeypatch, capsys):
        big = gen_random(400, 400, 0.1, 1)
        inst = parse_instance(serialize_instance(big))
        rank_match(inst)
        assert fingerprint(inst) == fingerprint(big)
        mc_expected_size(inst, 20, 1)
        removal_diff_offline(inst, inst.ranking[0])
        assert inst == big and hash(inst) == hash(big)  # compared on the index
        assert "graph" not in vars(inst)
        assert inst.graph == big.graph

        loaded = []

        def load(text):
            loaded.append(parse_instance(text))
            return loaded[-1]

        monkeypatch.setattr(cli, "parse_instance", load)
        path = tmp_path / "big.obm"
        path.write_text(serialize_instance(big))
        assert cli.main(["mc", str(path), "--samples", "20", "--seed", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith(f"{fingerprint(big)},400,mc,")
        assert len(loaded) == 1 and "graph" not in vars(loaded[0])

        path = tmp_path / "p8.obm"
        planted_p8, planted = gen_perfect(8, 0.4, 1)
        path.write_text(serialize_instance(planted_p8))
        p8 = parse_instance(path.read_text())
        for check in (check_theorem6, check_theorem4):
            assert check(p8).n == 8
            assert "graph" not in vars(p8)
        assert len(perfect_matching_of(p8)) == 8
        assert "graph" not in vars(p8)
        assert len(lemma3_chain(p8, planted)) == 8  # a caller's M* is checked on ``reach``
        assert "graph" not in vars(p8)
        for v in p8.ranking:
            check_rank_move(p8, planted, v, 0)
            assert "graph" not in vars(p8)
        loaded.clear()
        assert cli.main(["check", str(path), "--suite", "rank-move"]) == 0
        assert len(loaded) == 1 and "graph" not in vars(loaded[0])

    def test_no_column_scan_on_well_formed_input(self, monkeypatch):
        texts = [
            (DATA / "example6.obm").read_text(),
            serialize_instance(gen_random(400, 400, 0.1, 1)),
            "# c\n\noffline v1 v2  # r\r\nonline\tu1\n\nedge u1 v2\r",
        ]
        expected = [parse_instance(t) for t in texts]

        class NoScan:
            def finditer(self, _):
                raise AssertionError("column scan on well-formed input")

        monkeypatch.setattr(fileformat, "_TOKEN", NoScan())
        for text, inst in zip(texts, expected):
            assert parse_instance(text) == inst

    def test_online_repeat_of_offline_vertex_names_its_declaration(self):
        text = "# parties\n\n  offline a  bb c\nonline x\tbb\n"
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert (err.value.line, err.value.column) == (4, 10)
        assert str(err.value) == (
            "line 4, column 10: duplicate vertex 'bb' (already declared in the "
            "offline party at line 3, column 14)"
        )

    def test_bad_last_edge_of_a_long_file(self):
        offline = [f"v{k}" for k in range(50)]
        online = [f"u{k}" for k in range(40)]
        body = [f"edge {u} {v}" for u in online for v in offline]
        assert len(body) == 2000
        body[-1] = "edge u39 u39"
        text = "\n".join(["# big", "offline " + " ".join(offline),
                          "online " + " ".join(online), *body]) + "\n"
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert (err.value.line, err.value.column) == (2003, 10)
        assert "unknown offline vertex 'u39'" in str(err.value)

    def test_column_scans_only_the_lines_an_error_names(self, monkeypatch):
        scanned = []

        class Spy:
            def finditer(self, content):
                scanned.append(content)
                return _TOKEN.finditer(content)

        monkeypatch.setattr(fileformat, "_TOKEN", Spy())
        self.test_bad_last_edge_of_a_long_file()
        assert scanned == ["edge u39 u39"]
        for text, named in [
            (
                "# parties\n\n  offline a  bb c\nonline x\tbb\n",
                {"  offline a  bb c", "online x\tbb"},
            ),
            ("offline v1 v2 v1 # c\nonline u1\n", {"offline v1 v2 v1 "}),
            ("# c\noffline v1 v2\n\n# online u1\n", set()),
        ]:
            scanned.clear()
            with pytest.raises(InstanceFormatError):
                parse_instance(text)
            assert len(scanned) <= 2 and set(scanned) == named


_NOTES = ("#", "# note", "#edge u1 v1", "#offline w")


@st.composite
def plain_texts(draw):
    """Serialized instances under leading comments, some broken by the fault menu."""
    text = serialize_instance(draw(instances()))
    lines = _break_lines(draw, [line.split(" ") for line in text.splitlines()])
    notes = draw(st.lists(st.sampled_from(_NOTES), max_size=2))
    if notes and draw(st.booleans()):  # a boundary the line loop splits a comment at
        notes[-1] += draw(st.sampled_from(["\r", *_BREAKS])) + "w"
    return "".join(f"{line}\n" for line in [*notes, *map(" ".join, lines)])


def _long_text(bad_edge=None, at=-1):
    """test_bad_last_edge_of_a_long_file's layout, over 2.5 chunks: long offline names."""
    offline = [f"v{k:012}" for k in range(50)]
    online = [f"u{k}" for k in range(40)]
    body = [f"edge {u} {v}" for u in online for v in offline]
    body[at] = bad_edge or body[at]
    return "\n".join(["# big", "offline " + " ".join(offline),
                      "online " + " ".join(online), *body]) + "\n"


# The regex the plain reader checked each edge chunk with before it used string
# calls; it stays here as the oracle of a plain chunk.
_EDGES = re.compile(r"(?:edge [^\s#]+ [^\s#]+\n)*")


def _chunks(text, start):
    """The edge chunks the plain reader cuts from start on: whole lines, about _CHUNK each."""
    while start < len(text):
        end = text.find("\n", start + fileformat._CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def chunk_tokens(chunk):
    """A plain edge chunk's endpoints in order, or None: plain is the regex, in printable ASCII."""
    rest = chunk.replace("\n", "")
    if _EDGES.fullmatch(chunk) and rest.isascii() and rest.isprintable():
        return [t for k, t in enumerate(chunk.split()) if k % 3]
    return None


def is_plain(text):
    """Whether the plain reader should accept text, from the format's definition."""
    head = re.match(r"((?:#.*\n)*)offline((?: [^\s#]+)*)\nonline((?: [^\s#]+)*)\n", text)
    if head is None or len(head[1].splitlines()) != head[1].count("\n"):
        return False  # a comment holds a line boundary other than \n
    names = (head[2] + head[3]).split()
    if len(set(names)) < len(names):
        return False
    if any(chunk_tokens(chunk) is None for chunk in _chunks(text, head.end())):
        return False
    try:
        oracle_parse(text)
    except InstanceFormatError:
        return False  # an unknown endpoint
    return True


_ODD = "\xe9\ud800\x01\x7f\xa0\t"  # é, a lone surrogate, two controls, two spaces


@st.composite
def odd_plain_texts(draw):
    """A plain head, then edge lines whose names may hold non-ASCII, control or space."""
    offline = draw(st.lists(st.sampled_from(["v1", "v2", "\xe9", "v\x01", "v\x7f"]), unique=True))
    online = draw(st.lists(st.sampled_from(["u1", "u2", "u\xe9", "u\x01"]), unique=True))
    name = st.one_of(st.sampled_from([*offline, *online, "w"]), st.text("uv1#" + _ODD, max_size=3))
    edges = draw(st.lists(st.tuples(name, name), max_size=6))
    lines = [["offline", *offline], ["online", *online], *(["edge", u, v] for u, v in edges)]
    return "".join(" ".join(line) + "\n" for line in lines)


@st.composite
def edge_chunks(draw):
    """Edge lines of plain names, one of them perhaps replaced by an odd line."""
    name = st.sampled_from(["u1", "v1", "edge", "d"])
    lines = draw(st.lists(st.builds("edge {} {}\n".format, name, name), min_size=1, max_size=4))
    if draw(st.booleans()):
        odd = st.sampled_from(["v#", "u\xe9", "v\ud800", "v\x01", "v\x7f", "u1\xa0"])
        gap = st.sampled_from([" ", "", "  ", "\t", "\xa0"])
        text = st.text("ue1d g#" + _ODD, max_size=4)
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.one_of(
            st.builds("edge {} {}\n".format, st.one_of(name, odd), st.one_of(name, odd)),
            st.tuples(st.sampled_from(["edge", "Edge", ""]), gap, text, gap, text,
                      st.sampled_from(["\n", " \n", "\r\n", ""])).map("".join),
        ))
    chunk = "".join(lines)
    assume(chunk)  # the reader never cuts an empty chunk
    return chunk


class TestPlainParse:
    """The chunked reader of plain files, held to the oracle; it never raises."""

    @settings(max_examples=300, deadline=None)
    @given(plain_texts())
    def test_plain_texts_match_the_oracle(self, text):
        want = outcome(oracle_parse, text)
        assert outcome(parse_instance, text) == want
        got = fileformat._parse_plain(text)
        assert got is None or (got, got.reach) == want

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(plain_texts(), odd_plain_texts()))
    def test_accepted_exactly_when_plain(self, text):
        got = fileformat._parse_plain(text)
        assert (got is not None) == is_plain(text)
        assert got is None or (got, got.reach) == outcome(oracle_parse, text)
        assert outcome(parse_instance, text) == outcome(oracle_parse, text)

    @settings(max_examples=400, deadline=None)
    @given(edge_chunks())
    def test_edge_chunks_match_the_regex(self, chunk):
        assert fileformat._edge_tokens(chunk) == chunk_tokens(chunk)

    @pytest.mark.parametrize(
        "chunk",
        ["edge u1 v#1\n", "edge u# v1\n", "edge u1 \n", "edge  v1\n", "edge edge\n",
         "edge u1 v1 edge\nu1 v2\n", "a b\nedge c \nedge d", "edge u\x01 v1\n",
         "edge u1 v\x7f\n", "edge u1 v\xe9\n", "edge u1 v\ud800\n", "edge edge edge\n",
         "u1 v1\n", "edge u1 v1\nu1 v1\n"],
    )
    def test_fixed_edge_chunks(self, chunk):
        assert fileformat._edge_tokens(chunk) == chunk_tokens(chunk)

    @settings(max_examples=100, deadline=None)
    @given(instances(), st.lists(st.sampled_from(_NOTES), max_size=2))
    def test_serialized_instances_are_plain(self, inst, notes):
        text = "".join(f"{note}\n" for note in notes) + serialize_instance(inst)
        got = fileformat._parse_plain(text)
        assert got is not None and got == inst and got.reach == inst.reach

    @pytest.mark.parametrize(
        "text",
        [
            "# c\x85d\noffline v1\nonline u1\nedge u1 v1\n",
            "# c\u2028\noffline v1\nonline u1\n",
            "offline v1\nonline u1\nedge u1\tv1\n",
            "offline v1\nonline u1\nedge u1 v1\r\n",
            "offline v1\r\nonline u1\n",
            "offline v1\nonline u1\nedge  u1 v1\n",
            "offline  v1\nonline u1\n",
            "offline v1\nonline u1\nedge u1 v1 \n",
            "offline v1 \nonline u1\n",
            "offline v1\nonline u1\nedge u1 v1",
            "offline v1\nonline u1",
            "\noffline v1\nonline u1\n",
            "offline v1 # c\nonline u1\n",
            "offline v1\nonline u1\nedge u1 v1\n# c\n",
            "offline edge\nonline u1\nedge u1\nedge u1 edge\n",
            "offline edge\nonline u1\nedge u1 edge edge\n",
            "offline v1 u1\nonline u1\nedge u1 v1\n",
            "offline v1\nonline u1 u2 u1\n",
            "offline v1\nonline u1\nedge u1 v1\nedge u1 v2\n",
            "offline v1\nonline u1\nedge v1 u1\n",
            "offline v1\nonline u1\nEdge u1 v1\n",
            "online u1\noffline v1\n",
            "",
            "offline v1 v2\nonline u1\nedge u1 v1 edge\nu1 v2\n",
            "offline v1\nonline u1\nedge edge\n",
            "offline v1\nonline u1\nedge u1 \n",
            "offline b d\nonline a c\na b\nedge c \nedge d",
            "offline v\x01\nonline u1\nedge u1 v\x01\n",
            "offline v1\nonline u\xe9\nedge u\xe9 v1\n",
            "offline v\ud800\nonline u1\nedge u1 v\ud800\n",
            "offline v1\nonline u1\nu1 v1\n",
        ],
    )
    def test_declined_texts(self, text):
        assert fileformat._parse_plain(text) is None
        assert outcome(parse_instance, text) == outcome(oracle_parse, text)

    @pytest.mark.parametrize(
        "text",
        [
            "offline\nonline\n",
            "#\n#\toffline w\noffline edge\nonline u1\nedge u1 edge\n",
            "offline v1\nonline u1\nedge u1 v1\nedge u1 v1\n",
        ],
    )
    def test_accepted_texts(self, text):
        got = fileformat._parse_plain(text)
        assert got is not None and (got, got.reach) == outcome(oracle_parse, text)

    def test_long_plain_file(self):
        text = _long_text()
        assert len(text) > 2.5 * fileformat._CHUNK
        got = fileformat._parse_plain(text)
        assert got is not None and (got, got.reach) == outcome(oracle_parse, text)

    @pytest.mark.parametrize(
        "bad",
        ["edge u20 u20", "edge u20 v000000000003 v000000000004", "edge u20\tv000000000003",
         "edge u20 v\x01"],
    )
    def test_bad_line_in_the_second_chunk(self, bad):
        text = _long_text(bad, at=1000)
        first, second = list(_chunks(text, text.index("\nedge ") + 1))[:2]
        assert f"\n{bad}\n" in second and bad not in first
        assert fileformat._parse_plain(text) is None
        assert outcome(parse_instance, text) == outcome(oracle_parse, text)

    def test_bad_last_edge_of_a_long_plain_file(self):
        text = _long_text("edge u39 u39")
        assert fileformat._parse_plain(text) is None
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert (err.value.line, err.value.column) == (2003, 10)
        assert "unknown offline vertex 'u39'" in str(err.value)

    @settings(max_examples=300)
    @given(st.text(" \t\r\x0b\x85\xa0\u2028#ab", max_size=8), st.booleans())
    def test_party_lines_are_read_as_before(self, line, online):
        # a party line is plain when it is a run of (one space, a token); the
        # head regex once matched exactly that, token by token
        text = f"offline v9\nonline{line}\n" if online else f"offline{line}\nonline u9\n"
        toks = line.split()
        plain = re.fullmatch(r"(?: [^\s#]+)*", line) is not None
        plain = plain and len(set(toks)) == len(toks)
        assert (fileformat._parse_plain(text) is not None) == plain
        assert outcome(parse_instance, text) == outcome(oracle_parse, text)

    def test_head_match_peaks_under_one_megabyte(self):
        # a regex repeat per name kept sre's stack: 5.3 MB at 16,000 names a side
        names = " ".join(f"v{k}" for k in range(16_000))
        text = f"offline {names}\nonline {names.replace('v', 'u')}\n"
        tracemalloc.start()
        try:
            head = fileformat._HEAD.match(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert head is not None and peak <= 1_000_000

    def test_parse_peaks_under_one_megabyte(self):
        # the line loop peaks about 1.3 MB here, one regex over all edges 3.4 MB
        text = serialize_instance(gen_random(400, 400, 0.1, 1))
        tracemalloc.start()
        try:
            parse_instance(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


@st.composite
def named_instances(draw):
    """Instances with arbitrary names, so sort order and rank order disagree."""
    offline, online = (
        draw(st.lists(st.text(a, min_size=1, max_size=3), unique=True, max_size=6))
        for a in ("abcz", "pqry")
    )
    pairs = [(u, v) for u in online for v in offline]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = frozenset(edge(u, v) for u, v in chosen)
    return BipartiteInstance(graph, Permutation(offline), Permutation(online))


class TestSerializeOracle:
    @settings(max_examples=150)
    @given(st.one_of(instances(), named_instances()))
    def test_same_bytes(self, inst):
        assert serialize_instance(inst) == oracle_serialize(inst)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_bytes_at_scale(self, seed):
        inst = gen_random(400, 400, 0.1, seed)
        assert serialize_instance(inst) == oracle_serialize(inst)

    def test_isolated_vertices_and_empty_parties(self):
        for inst in [
            make_instance("v2 v1 v3", "u3 u1 u2", [("u1", "v3"), ("u1", "v2")]),
            make_instance("", "", []),
            make_instance("v1", "", []),
        ]:
            assert serialize_instance(inst) == oracle_serialize(inst)


class TestGenRandom:
    def test_deterministic_per_seed(self):
        a = gen_random(4, 5, 0.5, 11)
        b = gen_random(4, 5, 0.5, 11)
        c = gen_random(4, 5, 0.5, 12)
        assert a == b
        assert a != c

    def test_shapes(self):
        inst = gen_random(3, 4, 0.5, 1)
        assert inst.offline == {"v1", "v2", "v3"}
        assert inst.online == {"u1", "u2", "u3", "u4"}

    def test_extreme_probabilities(self):
        assert gen_random(3, 3, 0.0, 1).graph == frozenset()
        assert len(gen_random(3, 3, 1.0, 1).graph) == 9

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_random(-1, 2, 0.5, 1)
        with pytest.raises(ValueError):
            gen_random(2, 2, 1.5, 1)


class TestGenPerfect:
    def test_planted_matching_is_perfect(self):
        for seed in range(5):
            inst, planted = gen_perfect(4, 0.5, seed)
            assert is_matching(planted)
            assert planted <= inst.graph
            assert vertices(planted) == inst.offline | inst.online

    def test_zero_extras_is_exactly_the_matching(self):
        inst, planted = gen_perfect(3, 0.0, 2)
        assert inst.graph == planted

    def test_deterministic_per_seed(self):
        assert gen_perfect(4, 0.3, 9) == gen_perfect(4, 0.3, 9)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            gen_perfect(-1, 0.5, 1)
        for p in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"extra_edge_prob must lie in \[0, 1\]"):
                gen_perfect(2, p, 1)

    def test_greedy_run_is_perfect_when_graph_is_the_matching(self):
        inst, planted = gen_perfect(5, 0.0, 3)
        assert online_match(inst) == planted

    def test_single_extra_edge_instance_occurs(self):
        # seed found by scan: planted pairs plus the one extra u1-v2 edge
        inst, _ = gen_perfect(2, 0.5, 1)
        assert inst.graph == frozenset(
            {edge("u1", "v1"), edge("u1", "v2"), edge("u2", "v2")}
        )
        assert exact_expected_size(inst).value == Fraction(3, 2)


def _gamma_family_oracle(n):
    """The hard family from its definition, by brute force over edge subsets.

    Every subset of the 4n^2 - n non-base slots, in slot order with slot j as
    bit j, plus the base; a graph is kept when no n + 1 of its edges form a
    matching.
    """
    base = [edge(f"o{k}", f"i{k}") for k in range(n)]
    slots = [
        edge(f"o{k}", f"i{l}")
        for k in range(2 * n)
        for l in range(2 * n)
        if edge(f"o{k}", f"i{l}") not in base
    ]
    out = []
    for bits in range(1 << len(slots)):
        g = frozenset(base) | frozenset(
            e for j, e in enumerate(slots) if bits >> j & 1
        )
        if any(is_matching(c) for c in combinations(g, n + 1)):
            continue
        online = sorted(
            (v for v in vertices(g) if v.startswith("i")), key=lambda s: int(s[1:])
        )
        out.append((g, tuple(Permutation(p) for p in permutations(online))))
    return out


def _gamma_rows(g, n):
    """A named hard-family graph's slot masks: row k has bit l for edge o_k - i_l."""
    rows = [0] * (2 * n)
    for e in g:
        o, i = sorted(e, reverse=True)
        rows[int(o[1:])] |= 1 << int(i[1:])
    return rows


class TestGammaFamily:
    def test_size_one_graphs(self):
        fams = list(gen_gamma_family(1))
        graphs = sorted(
            tuple(sorted(tuple(sorted(e)) for e in g)) for g, _ in fams
        )
        assert graphs == [
            ((("i0", "o0"),)),
            (("i0", "o0"), ("i0", "o1")),
            (("i0", "o0"), ("i1", "o0")),
        ]

    def test_base_matching_is_maximum(self):
        for g, _ in gen_gamma_family(2):
            assert len(max_card_matching(g)) == 2
            assert edge("o0", "i0") in g and edge("o1", "i1") in g

    def test_arrival_orders_cover_active_online(self):
        for g, arrivals in gen_gamma_family(1):
            active = sorted(v for v in vertices(g) if v.startswith("i"))
            assert all(sorted(a.members) == active for a in arrivals)

    def test_min_ratio_size_one(self):
        assert gamma_min_ratio(1) == 1

    def test_min_ratio_size_two_meets_bound(self):
        q2 = gamma_min_ratio(2)
        assert q2 >= Fraction(5, 9)
        assert q2 == Fraction(3, 4)

    def test_min_ratio_runs_one_dp_per_key(self, monkeypatch):
        def no_instance(*args):
            raise AssertionError("gamma_min_ratio built an instance")

        seen = []
        real = probability._layers

        def counting(reach, arrivals):
            seen.append(reach)
            return real(reach, arrivals)

        # the keys of every (family graph, arrival order) pair, by ``_arrival_key``
        keys = {
            generators._arrival_key(_gamma_rows(g, 2), [int(v[1:]) for v in arr])
            for g, arrivals in gen_gamma_family(2)
            for arr in arrivals
        }
        monkeypatch.setattr(generators, "BipartiteInstance", no_instance)
        monkeypatch.setattr(generators, "Permutation", no_instance)
        monkeypatch.setattr(probability, "_layers", counting)
        assert gamma_min_ratio(2) == Fraction(3, 4)
        assert len(seen) == len(set(seen)) == 106
        assert set(seen) == keys

    @pytest.mark.parametrize("n", [1, 2])
    def test_arrival_key_keeps_the_expected_size(self, n):
        # every (graph, order) pair: the DP on its key, with 2n arrivals,
        # equals the DP on the pair's own instance
        pairs = 0
        for g, arrivals in gen_gamma_family(n):
            rows = _gamma_rows(g, n)
            ranking = _gamma_ranking(g)
            for arr in arrivals:
                key = generators._arrival_key(rows, [int(v[1:]) for v in arr])
                inst = BipartiteInstance(g, ranking, arr)
                mean = probability._mean(probability._size_counts(key, 2 * n))
                assert mean == exact_expected_size(inst).value
                pairs += 1
        assert pairs == {1: 4, 2: 1568}[n]

    @pytest.mark.parametrize("n", [1, 2])
    def test_sequence_equals_definition(self, n):
        assert list(gen_gamma_family(n)) == _gamma_family_oracle(n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_matching_search_runs(self, monkeypatch, n):
        # the family is kept by vertex covers: neither the size search nor the
        # augmenting-path search it runs on is called
        def no_search(*args):
            raise AssertionError("the hard family ran a matching search")

        assert not hasattr(generators, "_max_matching_size")
        for module in (graph, probability):
            monkeypatch.setattr(module, "_max_matching_size", no_search)
        monkeypatch.setattr(graph, "_kuhn", no_search)
        assert len(list(gen_gamma_family(n))) == {1: 3, 2: 160}[n]
        assert gamma_min_ratio(n) == {1: 1, 2: Fraction(3, 4)}[n]

    def test_unsupported_sizes(self):
        with pytest.raises(ValueError):
            list(generators._gamma_masks(0))
        with pytest.raises(ValueError):
            list(generators._gamma_masks(3))
