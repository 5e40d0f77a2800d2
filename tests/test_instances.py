"""Round-trip, diagnostic, and generator tests for instance files."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from rankinglab import (
    InstanceFormatError,
    Permutation,
    edge,
    fingerprint,
    gamma_min_ratio,
    gen_gamma_family,
    generators,
    gen_perfect,
    gen_random,
    is_matching,
    max_card_matching,
    online_match,
    parse_instance,
    serialize_instance,
    vertices,
)

from .conftest import instances, make_instance


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

    def test_greedy_run_is_perfect_when_graph_is_the_matching(self):
        inst, planted = gen_perfect(5, 0.0, 3)
        assert online_match(inst) == planted

    def test_single_extra_edge_instance_occurs(self):
        # seed found by scan: planted pairs plus the one extra u1-v2 edge
        from rankinglab import exact_expected_size

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

    @pytest.mark.parametrize("n", [1, 2])
    def test_sequence_equals_definition(self, n):
        assert list(gen_gamma_family(n)) == _gamma_family_oracle(n)

    @pytest.mark.parametrize("n, calls", [(1, 4), (2, 1024)])
    def test_matcher_runs_once_per_candidate(self, monkeypatch, n, calls):
        seen = []
        real = generators.bipartite_max_matching

        def counting(g):
            seen.append(g)
            return real(g)

        monkeypatch.setattr(generators, "bipartite_max_matching", counting)
        list(gen_gamma_family(n))
        assert len(seen) == calls == 2 ** (3 * n * n - n)

    def test_unsupported_sizes(self):
        with pytest.raises(ValueError):
            list(gen_gamma_family(0))
        with pytest.raises(ValueError):
            list(gen_gamma_family(3))
