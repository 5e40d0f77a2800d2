"""Tests for the online matcher and its declarative characterization.

Frozen expected matchings were derived by stepping through the greedy rule
by hand and double-checked with an independent brute-force enumeration
before being committed here.
"""

from __future__ import annotations

import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankinglab import (
    BipartiteInstance,
    Permutation,
    all_matchings,
    edge,
    gen_gamma_family,
    gen_random,
    is_maximal_matching,
    is_ranking_matching,
    online_match,
    step,
)
from rankinglab.engine import _greedy, _move_id, rank_match
from rankinglab.generators import _gamma_ranking

from .conftest import instances, make_instance


def pairs_of(m):
    return sorted(tuple(sorted(e)) for e in m)


def reach_by_definition(inst):
    """Bit j of entry r is set exactly when arrival j and rank r share an edge."""
    return tuple(
        sum(1 << j for j, u in enumerate(inst.arrival) if edge(u, v) in inst.graph)
        for v in inst.ranking
    )


class TestPermutation:
    def test_order_and_members(self):
        p = Permutation(["b", "a", "c"])
        assert p.order == ("b", "a", "c")
        assert p.members == {"a", "b", "c"}
        assert list(p) == ["b", "a", "c"]
        assert len(p) == 3
        assert p[1] == "a"
        assert "a" in p and "z" not in p

    def test_members_built_once(self):
        p = Permutation(["b", "a", "c"])
        assert p.members is p.members

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Permutation(["a", "b", "a"])

    def test_index(self):
        p = Permutation(["b", "a", "c"])
        assert p.index("b") == 0
        assert p.index("c") == 2
        with pytest.raises(KeyError):
            p.index("z")

    def test_index_on_worked_instance(self, example6):
        assert example6.ranking.index("v4") == 3

    def test_move_to_front(self):
        p = Permutation(["a", "b", "c"])
        assert p.move_to("c", 0).order == ("c", "a", "b")

    def test_move_to_keeps_relative_order(self):
        p = Permutation(["v1", "v2", "v3", "v4"])
        assert p.move_to("v3", 0).order == ("v3", "v1", "v2", "v4")
        assert p.move_to("v3", 3).order == ("v1", "v2", "v4", "v3")
        assert p.move_to("v3", 2).order == p.order

    def test_move_to_errors(self):
        p = Permutation(["a", "b"])
        with pytest.raises(KeyError):
            p.move_to("z", 0)
        with pytest.raises(IndexError):
            p.move_to("a", 2)
        with pytest.raises(IndexError):
            p.move_to("a", -1)

    def test_eq_and_hash(self):
        assert Permutation(["a", "b"]) == Permutation(["a", "b"])
        assert Permutation(["a", "b"]) != Permutation(["b", "a"])
        assert hash(Permutation(["a", "b"])) == hash(Permutation(["a", "b"]))

    def test_empty(self):
        p = Permutation([])
        assert len(p) == 0 and p.members == frozenset()


class TestBipartiteInstance:
    def test_parties_must_be_disjoint(self):
        with pytest.raises(ValueError, match=re.escape("both parties: ['b']")):
            make_instance("a b", "b c", [])

    def test_edges_must_cross(self):
        text = "^edge v1 -- v2 does not join the two parties$"
        with pytest.raises(ValueError, match=text):
            BipartiteInstance(
                frozenset({edge("v2", "v1")}),
                Permutation(["v1", "v2"]),
                Permutation(["u1"]),
            )

    def test_edges_must_use_declared_vertices(self):
        text = "^edge u1 -- v9 does not join the two parties$"
        with pytest.raises(ValueError, match=text):
            make_instance("v1", "u1", [("u1", "v9")])

    def test_edges_must_have_two_vertices(self):
        loop = frozenset({frozenset({"v1"})})
        with pytest.raises(ValueError, match=re.escape("not a two-vertex edge: ['v1']")):
            BipartiteInstance(loop, Permutation(["v1"]), Permutation(["u1"]))
        # the parties are checked before any edge
        with pytest.raises(ValueError, match="both parties"):
            BipartiteInstance(loop, Permutation(["v1"]), Permutation(["v1"]))

    @settings(max_examples=100)
    @given(instances())
    def test_reach_bit_iff_edge(self, inst):
        assert inst.reach == reach_by_definition(inst)
        for x in inst.offline | inst.online:
            cut = inst.without_vertices({x})
            assert cut.reach == reach_by_definition(cut)
        moved = BipartiteInstance(
            inst.graph, inst.ranking.move_to(inst.ranking[-1], 0), inst.arrival
        )
        assert moved.reach == reach_by_definition(moved)

    def test_reach_is_derived_not_compared(self, example6):
        twin = BipartiteInstance(example6.graph, example6.ranking, example6.arrival)
        text = repr(twin)
        object.__setattr__(twin, "reach", ())
        assert twin == example6 and hash(twin) == hash(example6)
        assert repr(twin) == text and "reach" not in text
        with pytest.raises(TypeError):
            BipartiteInstance(example6.graph, example6.ranking, example6.arrival, ())

    def test_isolated_vertices_allowed(self):
        inst = make_instance("v1 v2", "u1", [("u1", "v1")])
        assert inst.offline == {"v1", "v2"}
        assert inst.online == {"u1"}

    def test_without_vertices(self):
        inst = make_instance("v1 v2", "u1 u2", [("u1", "v1"), ("u2", "v2")])
        cut = inst.without_vertices({"u1"})
        assert cut.graph == frozenset({edge("u2", "v2")})
        assert cut.ranking == inst.ranking and cut.arrival == inst.arrival


class TestStep:
    def test_takes_best_free_neighbor(self):
        g = frozenset({edge("u1", "v1"), edge("u1", "v2")})
        assert step(g, "u1", ["v2", "v1"], frozenset()) == frozenset({edge("u1", "v2")})

    def test_skips_taken_vertices(self):
        g = frozenset({edge("u1", "v1"), edge("u2", "v1"), edge("u2", "v2")})
        m = frozenset({edge("u1", "v1")})
        assert step(g, "u2", ["v1", "v2"], m) == m | {edge("u2", "v2")}

    def test_no_neighbor_leaves_matching(self):
        g = frozenset({edge("u1", "v1")})
        assert step(g, "u2", ["v1"], frozenset()) == frozenset()

    def test_covered_arrival_changes_nothing(self):
        g = frozenset({edge("u1", "v1"), edge("u1", "v2")})
        m = frozenset({edge("u1", "v1")})
        assert step(g, "u1", ["v1", "v2"], m) == m

    def test_first_arrival_on_worked_instance(self, example6):
        # u1's best-ranked free neighbor is v1 itself
        got = step(example6.graph, "u1", list(example6.ranking), frozenset())
        assert got == frozenset({edge("u1", "v1")})


class TestOnlineMatch:
    def test_worked_example(self, example6):
        got = online_match(example6)
        assert pairs_of(got) == [
            ("u1", "v1"),
            ("u2", "v2"),
            ("u3", "v4"),
            ("u4", "v3"),
            ("u5", "v5"),
        ]
        assert is_maximal_matching(example6.graph, got)

    def test_two_by_two_complete(self):
        inst = make_instance(
            "v1 v2", "u1 u2",
            [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u2", "v2")],
        )
        assert pairs_of(online_match(inst)) == [("u1", "v1"), ("u2", "v2")]

    def test_two_by_two_missing_edge(self):
        inst = make_instance("v1 v2", "u1 u2", [("u1", "v1"), ("u1", "v2"), ("u2", "v1")])
        assert pairs_of(online_match(inst)) == [("u1", "v1")]

    def test_empty_instance(self):
        inst = make_instance("", "", [])
        assert online_match(inst) == frozenset()

    @settings(max_examples=80)
    @given(instances())
    def test_equals_fold_of_step(self, inst):
        m = frozenset()
        for u in inst.arrival:
            m = step(inst.graph, u, inst.ranking.order, m)
        assert online_match(inst) == m


class TestRankMatch:
    """The integer greedy every production caller uses, gated by the fold."""

    @settings(max_examples=200)
    @given(instances(max_side=7))
    def test_equals_fold_on_random_instances(self, inst):
        assert rank_match(inst) == online_match(inst)

    @settings(max_examples=100)
    @given(instances(max_side=6), st.data())
    def test_moved_rerun_equals_fold(self, inst, data):
        # the rank-move rerun: entry p names moved rank p, original rank order[p]
        n = len(inst.ranking)
        v = data.draw(st.sampled_from(inst.ranking.order))
        i = data.draw(st.integers(0, n - 1))
        moved = inst.ranking.move_to(v, i)
        order = _move_id(range(n), inst.ranking.index(v), i)
        assert [inst.ranking[r] for r in order] == list(moved)
        prs = _greedy(inst.reach, order, len(inst.arrival))
        assert frozenset(
            edge(u, moved[p]) for u, p in zip(inst.arrival, prs) if p >= 0
        ) == online_match(BipartiteInstance(inst.graph, moved, inst.arrival))

    def test_equals_fold_on_gamma_family(self):
        for g, arrivals in gen_gamma_family(2):
            for arr in arrivals:
                inst = BipartiteInstance(g, _gamma_ranking(g), arr)
                assert rank_match(inst) == online_match(inst)

    def test_equals_fold_on_staircase_600(self):
        n = 600
        inst = make_instance(
            " ".join(f"v{i}" for i in range(1, n + 1)),
            " ".join(f"u{i}" for i in range(1, n + 1)),
            [(f"u{i}", f"v{j}") for i in range(1, n + 1) for j in (i, i + 1) if j <= n],
        )
        m = rank_match(inst)
        assert m == online_match(inst) and len(m) == n

    def test_equals_fold_on_random_400(self):
        for s in range(2):
            inst = gen_random(400, 400, 0.1, s)
            assert rank_match(inst) == online_match(inst)


class TestRankingMatchingPredicate:
    def test_empty_holds(self):
        e = Permutation([])
        assert is_ranking_matching(frozenset(), frozenset(), e, e)

    def test_accepts_matcher_output(self, example6):
        m = online_match(example6)
        assert is_ranking_matching(example6.graph, m, example6.arrival, example6.ranking)

    def test_rejects_non_maximal(self):
        inst = make_instance("v1", "u1", [("u1", "v1")])
        assert not is_ranking_matching(inst.graph, frozenset(), inst.arrival, inst.ranking)

    def test_rejects_wrong_first_choice(self):
        inst = make_instance(
            "v1 v2", "u1 u2",
            [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u2", "v2")],
        )
        wrong = frozenset({edge("u1", "v2"), edge("u2", "v1")})
        assert not is_ranking_matching(inst.graph, wrong, inst.arrival, inst.ranking)

    def test_rejects_non_matching(self):
        inst = make_instance("v1 v2", "u1", [("u1", "v1"), ("u1", "v2")])
        bad = inst.graph  # u1 covered twice
        assert not is_ranking_matching(bad, bad, inst.arrival, inst.ranking)

    def test_rejects_overlapping_parties(self):
        g = frozenset({edge("a", "b")})
        assert not is_ranking_matching(g, g, Permutation(["a"]), Permutation(["a", "b"]))

    @settings(max_examples=50)
    @given(instances(max_side=4))
    def test_unique_satisfier_is_matcher_output(self, inst):
        expect = online_match(inst)
        sat = [
            m
            for m in all_matchings(inst.graph)
            if is_ranking_matching(inst.graph, m, inst.arrival, inst.ranking)
        ]
        assert sat == [expect]

    @settings(max_examples=50)
    @given(instances(max_side=4))
    def test_party_swap_symmetry(self, inst):
        m = online_match(inst)
        a = is_ranking_matching(inst.graph, m, inst.arrival, inst.ranking)
        b = is_ranking_matching(inst.graph, m, inst.ranking, inst.arrival)
        assert a and b

    def test_swap_agrees_on_rejects(self):
        inst = make_instance(
            "v1 v2", "u1 u2",
            [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u2", "v2")],
        )
        wrong = frozenset({edge("u1", "v2"), edge("u2", "v1")})
        assert not is_ranking_matching(inst.graph, wrong, inst.ranking, inst.arrival)


class TestArrivalOrderMatters:
    def test_order_changes_outcome(self):
        pairs = [("u1", "v1"), ("u2", "v1"), ("u2", "v2")]
        first = make_instance("v1 v2", "u1 u2", pairs)
        second = make_instance("v1 v2", "u2 u1", pairs)
        assert pairs_of(online_match(first)) == [("u1", "v1"), ("u2", "v2")]
        assert pairs_of(online_match(second)) == [("u2", "v1")]

    def test_all_orders_give_valid_outcomes(self):
        inst0 = make_instance(
            "v1 v2 v3", "u1 u2 u3",
            [("u1", "v1"), ("u2", "v1"), ("u2", "v2"), ("u3", "v2"), ("u3", "v3")],
        )
        for sigma in permutations(inst0.ranking.order):
            for pi in permutations(inst0.arrival.order):
                inst = BipartiteInstance(inst0.graph, Permutation(sigma), Permutation(pi))
                m = online_match(inst)
                assert is_ranking_matching(inst.graph, m, inst.arrival, inst.ranking)
