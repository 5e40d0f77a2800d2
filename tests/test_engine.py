"""Tests for the online matcher and its declarative characterization.

Frozen expected matchings were derived by stepping through the greedy rule
by hand and double-checked with an independent brute-force enumeration
before being committed here.  ``ranking_matching_oracle`` is the predicate's
literal form, every conjunct re-derived per call; ``is_ranking_matching``,
and ``_ranking_holds`` on an index, which it and the suite call, are
compared against it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankinglab
from rankinglab import BipartiteInstance, Permutation, gen_random
from rankinglab.engine import (
    _greedy,
    _inverse,
    _matchings,
    _move_id,
    _ranking_holds,
    _transpose,
    rank_match,
)
from rankinglab.graph import _max_matching, _max_matching_size
from rankinglab.suites import _cleared

from .conftest import instances, make_instance
from .oracles import (
    _gamma_ranking,
    all_matchings,
    bipartite_max_matching,
    edge,
    gen_gamma_family,
    is_bipartite,
    is_matching,
    is_maximal_matching,
    is_ranking_matching,
    max_card_matching,
    online_match,
    partner,
    remove_vertices,
    step,
)


def pairs_of(m):
    return sorted(tuple(sorted(e)) for e in m)


def reach_by_definition(inst):
    """Bit j of entry r is set exactly when arrival j and rank r share an edge."""
    return tuple(
        sum(1 << j for j, u in enumerate(inst.arrival) if edge(u, v) in inst.graph)
        for v in inst.ranking
    )


def first_choice_clause(g, m, chooser, chosen):
    """No matched chooser skips an earlier-ranked neighbor without cause.

    For every matched pair {u, v} with u on the chooser side: any neighbor
    v2 of u ranked before v must itself be matched to some chooser earlier
    than u.  Quantifiers are unrolled literally; v2's partner is a scan of m.
    """
    for e in m:
        side = e & chooser.members
        if len(side) != 1:
            return False
        (u,) = side
        (v,) = e - side
        for v2 in chosen:
            if chosen.index(v2) >= chosen.index(v):
                break
            if frozenset((u, v2)) not in g:
                continue
            u2 = partner(m, v2)
            if u2 is None or u2 not in chooser or chooser.index(u2) >= chooser.index(u):
                return False
    return True


def ranking_matching_oracle(g, m, arrival, ranking):
    """The five conjuncts of ``is_ranking_matching``, all re-derived per call.

    m is a matching inside g; g is bipartite between the two disjoint
    parties; m is maximal in g; no arriving vertex skipped a free
    better-ranked neighbor; and the same with the parties' roles swapped.
    """
    gset = frozenset(frozenset(e) for e in g)
    mset = frozenset(frozenset(e) for e in m)
    if not (mset <= gset and is_matching(mset)):
        return False
    if arrival.members & ranking.members:
        return False
    if not is_bipartite(gset, arrival.members, ranking.members):
        return False
    if not is_maximal_matching(gset, mset):
        return False
    if not first_choice_clause(gset, mset, arrival, ranking):
        return False
    return first_choice_clause(gset, mset, ranking, arrival)


@st.composite
def predicate_inputs(draw):
    """(graph, orders, edge sets, shape) for the predicate.

    Starting from a drawn instance, the graph may gain edges inside a party
    or to the undeclared vertex ``x``, or one three-vertex edge; an arrival
    may also be ranked (often isolated, so only the overlap check rejects
    it).  The edge sets are arbitrary: non-matchings, edges outside g.  The
    shape gives a set of edges as a frozenset, a tuple or a list of tuples.
    """
    inst = draw(instances(max_side=4))
    arrival, ranking = inst.arrival, inst.ranking
    names = sorted(inst.offline | inst.online) + ["x"]
    pairs = [edge(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    g = inst.graph
    if draw(st.integers(0, 2)) == 0:
        g |= draw(st.frozensets(st.sampled_from(pairs), min_size=1, max_size=2))
    if draw(st.integers(0, 9)) == 0:
        trio = draw(st.lists(st.sampled_from(names), min_size=3, max_size=3, unique=True))
        g |= {frozenset(trio)}
    if draw(st.integers(0, 4)) == 0:
        ranking = Permutation([*ranking, draw(st.sampled_from(arrival.order))])
    edge_sets = draw(st.lists(st.frozensets(st.sampled_from(pairs), max_size=4), max_size=6))
    shape = draw(st.sampled_from([frozenset, tuple, lambda m: [tuple(e) for e in m]]))
    return g, arrival, ranking, edge_sets, shape


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
        assert _move_id(p, "c", 0) == ("c", "a", "b")

    def test_move_to_keeps_relative_order(self):
        p = Permutation(["v1", "v2", "v3", "v4"])
        assert _move_id(p, "v3", 0) == ("v3", "v1", "v2", "v4")
        assert _move_id(p, "v3", 3) == ("v1", "v2", "v4", "v3")
        assert _move_id(p, "v3", 2) == p.order

    def test_move_to_errors(self):
        p = Permutation(["a", "b"])
        with pytest.raises(IndexError):
            _move_id(p, "a", 2)
        with pytest.raises(IndexError):
            _move_id(p, "a", -1)

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

    def test_first_bad_edge_in_the_callers_order_is_named(self):
        # each interpreter hashes str by its own seed: the error must not depend on it
        code = (
            "from rankinglab import BipartiteInstance as B, Permutation as P\n"
            "try: B([('u1', 'u2'), ('v1', 'v2'), ('u3', 'v9')], P('v1 v2'.split()), "
            "P('u1 u2 u3'.split()))\n"
            "except ValueError as e: print(e)"
        )
        src = str(Path(rankinglab.__file__).resolve().parent.parent)
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.stdout == "edge u1 -- u2 does not join the two parties\n", done.stderr
        three, inside = ("u1", "u2", "v1"), ("v1", "v2")
        orders = Permutation(["v1", "v2"]), Permutation(["u1", "u2"])
        text = re.escape("not a two-vertex edge: ['u1', 'u2', 'v1']")
        with pytest.raises(ValueError, match=text):
            BipartiteInstance([three, inside], *orders)
        with pytest.raises(ValueError, match="^edge v1 -- v2 does not join the two parties$"):
            BipartiteInstance([inside, three], *orders)
        # a repeated edge, in either orientation, sets its bit once
        assert BipartiteInstance([("u2", "v1"), ("v1", "u2")], *orders).reach == (2, 0)

    @settings(max_examples=100)
    @given(instances())
    def test_reach_bit_iff_edge(self, inst):
        assert inst.reach == reach_by_definition(inst)
        for x in inst.offline | inst.online:
            cut = inst.without_vertices({x})
            assert cut.reach == reach_by_definition(cut)
        moved = BipartiteInstance(
            inst.graph, Permutation(_move_id(inst.ranking, inst.ranking[-1], 0)), inst.arrival
        )
        assert moved.reach == reach_by_definition(moved)

    def test_instances_compare_by_their_index(self, example6):
        twin = BipartiteInstance(example6.graph, example6.ranking, example6.arrival)
        assert twin == example6 and hash(twin) == hash(example6)
        assert "graph" not in vars(twin)  # compared and hashed with no edge set built
        text = repr(twin)
        assert text == repr(example6) and "reach" not in text
        object.__setattr__(twin, "reach", (0, *example6.reach[1:]))  # v1's edges gone
        assert twin != example6 and repr(twin) == text  # the edge set read before stays
        with pytest.raises(TypeError):
            BipartiteInstance(example6.graph, example6.ranking, example6.arrival, ())

    def test_isolated_vertices_allowed(self):
        inst = make_instance("v1 v2", "u1", [("u1", "v1")])
        assert inst.offline == {"v1", "v2"}
        assert inst.online == {"u1"}

    @settings(max_examples=100)
    @given(instances(), st.data())
    def test_without_vertices_is_edge_removal(self, inst, data):
        names = sorted(inst.offline | inst.online) + ["x0"]  # a non-member is ignored
        xs = data.draw(st.lists(st.sampled_from(names)))
        cut = inst.without_vertices(iter(xs))
        kept = remove_vertices(inst.graph, set(xs))
        rebuilt = BipartiteInstance(kept, inst.ranking, inst.arrival)
        assert cut == rebuilt and cut.reach == rebuilt.reach

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
        moved = Permutation(_move_id(inst.ranking, v, i))
        order = _move_id(range(n), inst.ranking.index(v), i)
        assert [inst.ranking[r] for r in order] == list(moved)
        prs = _greedy([inst.reach[x] for x in order], len(inst.arrival))
        assert frozenset(
            edge(u, moved[p]) for u, p in zip(inst.arrival, prs) if p >= 0
        ) == online_match(BipartiteInstance(inst.graph, moved, inst.arrival))

    def test_reranked_masks_equal_fold_on_every_small_graph(self):
        # a ranking is the order of the masks: on every 1x1, 2x2, 2x3, 3x2 and
        # 3x3 graph, under every ranking, the run on the reordered masks, named,
        # is the fold of the re-ranked instance
        cases = 0
        for a, b in ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
            ranking = Permutation(f"v{k}" for k in range(a))
            arrival = Permutation(f"u{j}" for j in range(b))
            for reach in product(range(1 << b), repeat=a):
                graph = BipartiteInstance._indexed(ranking, arrival, reach).graph
                for perm in permutations(range(a)):
                    ranked = Permutation(ranking[x] for x in perm)
                    prs = _greedy([reach[x] for x in perm], b)
                    got = frozenset(edge(u, ranked[p]) for u, p in zip(arrival, prs) if p >= 0)
                    want = online_match(BipartiteInstance(graph, ranked, arrival))
                    assert got == want, (reach, perm)
                    cases += 1
        assert cases == 3618

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


def kuhn_size(inst) -> int:
    return len(bipartite_max_matching(inst.graph))


class TestMaxMatchingSize:
    """Kuhn on the masks from the greedy's matching, gated by the name-ordered Kuhn.

    Both run ``graph._kuhn``, so the exhaustive oracle ``max_card_matching``
    gates ``_max_matching``'s partner array on its own as well.
    """

    @staticmethod
    def assert_maximum_mates(inst):
        reach, b = inst.reach, len(inst.arrival)
        prs = _max_matching(reach, b)
        ids = [r for r in prs if r >= 0]
        assert len(prs) == b and len(ids) == len(set(ids)), reach
        assert all(reach[r] >> j & 1 for j, r in enumerate(prs) if r >= 0), reach
        assert len(ids) == len(max_card_matching(inst.graph)), reach

    @settings(max_examples=100, deadline=None)
    @given(instances(max_side=6))
    def test_mates_are_a_maximum_matching_on_instances(self, inst):
        self.assert_maximum_mates(inst)

    def test_mates_after_a_search_that_reaches_the_next_path(self):
        # the greedy leaves ids 2 and 3 free; the search from 2 reaches the
        # arrivals the one from 3 needs, so it must not skip them after a flip
        ranking, arrival = Permutation("v0 v1 v2 v3".split()), Permutation("u0 u1 u2 u3".split())
        inst = BipartiteInstance._indexed(ranking, arrival, (15, 11, 3, 1))
        assert _greedy(inst.reach, 4).count(-1) == 2
        self.assert_maximum_mates(inst)
        assert _max_matching_size(inst.reach, 4) == 4

    @settings(max_examples=200)
    @given(instances(max_side=7))
    def test_equals_kuhn_on_instances(self, inst):
        assert _max_matching_size(inst.reach, len(inst.arrival)) == kuhn_size(inst)

    def test_equals_kuhn_on_every_graph_up_to_three_by_three(self):
        for a, b in product(range(4), repeat=2):
            ranking = Permutation(f"v{k}" for k in range(a))
            arrival = Permutation(f"u{j}" for j in range(b))
            for reach in product(range(1 << b), repeat=a):
                inst = BipartiteInstance._indexed(ranking, arrival, reach)
                assert _max_matching_size(reach, b) == kuhn_size(inst), (a, b, reach)
                self.assert_maximum_mates(inst)

    def test_equals_kuhn_on_random_400(self):
        # the greedy leaves 10 to 60 augmentations to make on these
        for p, s in product((0.005, 0.01, 0.05), range(2)):
            inst = gen_random(400, 400, p, s)
            greedy = 400 - _greedy(inst.reach, 400).count(-1)
            size = _max_matching_size(inst.reach, 400)
            assert size == kuhn_size(inst) and size - greedy >= 2

    def test_path_of_4000_vertices(self):
        # v_i sees u_i and u_(i+1), arrivals reversed: the greedy matches
        # v_i with u_(i+1), and the only augmenting path is the whole path
        n = 2000
        inst = make_instance(
            " ".join(f"v{i}" for i in range(1, n + 1)),
            " ".join(f"u{i}" for i in range(n, 0, -1)),
            [(f"u{i}", f"v{j}") for i in range(1, n + 1) for j in (i - 1, i) if j >= 1],
        )
        assert _greedy(inst.reach, n).count(-1) == 1
        assert _max_matching_size(inst.reach, n) == n == kuhn_size(inst)


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

    @settings(max_examples=300)
    @given(predicate_inputs())
    def test_closure_equals_the_oracle(self, case):
        g, arrival, ranking, edge_sets, shape = case
        # every matching of g in turn, on the same (g, orders)
        for m in map(shape, [*edge_sets, *all_matchings(g)]):
            expect = ranking_matching_oracle(g, m, arrival, ranking)
            assert is_ranking_matching(g, m, arrival, ranking) == expect

    @pytest.mark.parametrize("swap", [False, True])
    def test_closure_on_every_matching_of_example6(self, example6, swap):
        g, orders = example6.graph, (example6.arrival, example6.ranking)
        arrival, ranking = orders[::-1] if swap else orders
        verdicts = [(m, is_ranking_matching(g, m, arrival, ranking)) for m in all_matchings(g)]
        assert [m for m, ok in verdicts if ok] == [online_match(example6)]
        assert verdicts == [
            (m, ranking_matching_oracle(g, m, arrival, ranking)) for m in all_matchings(g)
        ]

    def test_swap_agrees_on_rejects(self):
        inst = make_instance(
            "v1 v2", "u1 u2",
            [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u2", "v2")],
        )
        wrong = frozenset({edge("u1", "v2"), edge("u2", "v1")})
        assert not is_ranking_matching(inst.graph, wrong, inst.ranking, inst.arrival)


def partners(inst, m):
    """m as a partner array: entry j is the ranking position of arrival j's mate, or -1."""
    prs = [-1] * len(inst.arrival)
    for e in m:
        (u,) = e & inst.online
        (v,) = e - {u}
        prs[inst.arrival.index(u)] = inst.ranking.index(v)
    return prs


class TestRankingHolds:
    """The characterization on masks and partner arrays, gated by the literal oracle."""

    @settings(max_examples=60)
    @given(instances(max_side=5), st.data())
    def test_equals_the_oracle(self, inst, data):
        g, arrival, ranking = inst.graph, inst.arrival, inst.ranking
        rows, n = inst.reach, len(ranking)
        cols = _transpose(rows, len(arrival))
        ms = list(all_matchings(g))
        for m in ms:
            prs = partners(inst, m)
            assert _ranking_holds(prs, cols, rows) == ranking_matching_oracle(
                g, m, arrival, ranking
            )
            assert _ranking_holds(_inverse(prs, n), rows, cols) == ranking_matching_oracle(
                g, m, ranking, arrival
            )
        # each matched pair's ends deleted, as the suite deletes them, on the
        # output and on one drawn matching
        for m in (rank_match(inst), data.draw(st.sampled_from(ms))):
            prs = partners(inst, m)
            for e in m:
                j, r = next((j, r) for j, r in enumerate(prs) if {arrival[j], ranking[r]} == e)
                cut, kept = prs[:j] + [-1] + prs[j + 1:], m - {e}
                c, w = _cleared(cols, j, r), _cleared(rows, r, j)
                assert w == list(inst.without_vertices(e).reach)
                reduced = remove_vertices(g, e)
                assert _ranking_holds(cut, c, w) == ranking_matching_oracle(
                    reduced, kept, arrival, ranking
                )
                assert _ranking_holds(_inverse(cut, n), w, c) == ranking_matching_oracle(
                    reduced, kept, ranking, arrival
                )

    def test_rejects_each_broken_conjunct(self):
        # u1 sees v1 v2, u2 sees v1; arrivals are choosers, rank order v1 v2
        cols, rows = [0b11, 0b01], [0b11, 0b01]
        assert _ranking_holds([0, -1], cols, rows)
        assert not _ranking_holds([-1, -1], cols, rows)  # not maximal
        assert not _ranking_holds([-1, 1], cols, rows)  # u2 v2 is no edge
        assert not _ranking_holds([0, 0], cols, rows)  # v1 taken twice
        assert not _ranking_holds([1, 0], cols, rows)  # u1 skipped a free v1
        # v1 sees u1 u2, v2 sees u1; choosers swapped, u1 skipped by v1
        assert not _ranking_holds([1, 0], rows, cols)
        # only the chosen side's clause fails: v2 holds u2 while u1, earlier, is free
        assert not _ranking_holds([-1, 1], [0b10, 0b10], [0b00, 0b11])
        assert _ranking_holds([1, -1], [0b10, 0b10], [0b00, 0b11])

    @settings(max_examples=100)
    @given(instances(max_side=5))
    def test_matchings_are_all_matchings(self, inst):
        got = _matchings(_transpose(inst.reach, len(inst.arrival)))
        want = [tuple(partners(inst, m)) for m in all_matchings(inst.graph)]
        assert len(got) == len(set(got)) == len(want)
        assert set(got) == set(want)

    @pytest.mark.parametrize(
        "a, b, edges, count",
        [(5, 5, True, 1546), (2, 2, True, 7), (3, 2, False, 1), (4, 0, True, 1), (0, 0, True, 1)],
    )
    def test_matchings_count(self, a, b, edges, count):
        rows = [(1 << b) - 1 if edges else 0] * a
        got = _matchings(_transpose(rows, b))
        assert len(got) == len(set(got)) == count
        assert got[0] == (-1,) * b  # the empty matching first

    @settings(max_examples=100)
    @given(instances(max_side=6))
    def test_transpose_and_inverse(self, inst):
        a, n = len(inst.arrival), len(inst.ranking)
        cols = _transpose(inst.reach, a)
        assert cols == [
            sum(1 << r for r, v in enumerate(inst.ranking) if edge(u, v) in inst.graph)
            for u in inst.arrival
        ]
        assert _transpose(cols, n) == list(inst.reach)
        prs = _greedy(inst.reach, a)
        assert _inverse(_inverse(prs, n), a) == prs
        assert all(prs[j] == r for r, j in enumerate(_inverse(prs, n)) if j >= 0)


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
