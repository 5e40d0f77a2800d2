"""Unit and property tests for the set-based graph layer.

The brute-force oracle here is ``all_matchings``: a matching is maximum iff
no matching in the full enumeration is larger, so augmenting-path search and
``max_card_matching`` are checked against that, including on graphs with odd
cycles.  ``max_card_matching`` is in turn the oracle of the polynomial
``bipartite_max_matching``, which must return the very same matching, and
that is the oracle of ``perfect_matching_of``, the same pass on an index.
"""

from __future__ import annotations

from itertools import product
from typing import FrozenSet, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankinglab import BipartiteInstance, Permutation, gen_perfect, perfect_matching_of

from .conftest import instances
from .oracles import (
    all_matchings,
    bipartite_max_matching,
    edge,
    find_augmenting_path,
    gen_gamma_family,
    is_alternating_path,
    is_augmenting_path,
    is_bipartite,
    is_matching,
    is_maximal_matching,
    make_perfect_matching,
    max_card_matching,
    neighbors,
    partner,
    path_edges,
    remove_vertices,
    symmetric_difference,
    vertices,
)


@st.composite
def small_graphs(draw, max_vertices: int = 7) -> FrozenSet:
    """Arbitrary graphs, bipartite or not."""
    n = draw(st.integers(1, max_vertices))
    names = [f"x{k}" for k in range(n)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return frozenset(edge(a, b) for a, b in chosen)


def g_of(*pairs: Tuple[str, str]) -> FrozenSet:
    return frozenset(edge(a, b) for a, b in pairs)


PATH4 = g_of(("a", "b"), ("b", "c"), ("c", "d"))
TRIANGLE = g_of(("a", "b"), ("b", "c"), ("c", "a"))


def test_edge_is_unordered():
    assert edge("a", "b") == edge("b", "a") == frozenset({"a", "b"})


def test_edge_rejects_loop():
    with pytest.raises(ValueError):
        edge("a", "a")


def test_vertices_and_neighbors():
    assert vertices(PATH4) == {"a", "b", "c", "d"}
    assert neighbors(PATH4, "b") == {"a", "c"}
    assert neighbors(PATH4, "z") == frozenset()


def test_worked_example_graph_basics(example6):
    assert neighbors(example6.graph, "u1") == {"v1", "v3", "v5"}
    assert is_bipartite(example6.graph, example6.ranking.members, example6.arrival.members)
    reduced = remove_vertices(example6.graph, {"u2"})
    assert len(reduced) == 11
    assert all("u2" not in e for e in reduced)


def test_is_bipartite():
    assert is_bipartite(PATH4, {"a", "c"}, {"b", "d"})
    assert not is_bipartite(PATH4, {"a", "b"}, {"c", "d"})
    assert not is_bipartite(PATH4, {"a", "c"}, {"b"})  # d undeclared
    assert not is_bipartite(TRIANGLE, {"a"}, {"b", "c"})
    assert is_bipartite(frozenset(), set(), set())


def test_is_matching():
    assert is_matching(frozenset())
    assert is_matching(g_of(("a", "b"), ("c", "d")))
    assert not is_matching(g_of(("a", "b"), ("b", "c")))
    assert not is_matching({frozenset({"a"})})


def test_is_maximal_matching():
    assert is_maximal_matching(PATH4, g_of(("b", "c")))
    assert not is_maximal_matching(PATH4, frozenset())
    assert is_maximal_matching(PATH4, g_of(("a", "b"), ("c", "d")))
    with pytest.raises(ValueError):
        is_maximal_matching(PATH4, g_of(("a", "z")))


def test_is_maximal_matching_rejects_a_non_matching():
    assert not is_maximal_matching(PATH4, g_of(("a", "b"), ("b", "c")))


def test_partner():
    m = g_of(("a", "b"), ("c", "d"))
    assert partner(m, "a") == "b"
    assert partner(m, "d") == "c"
    assert partner(m, "z") is None
    with pytest.raises(ValueError):
        partner(g_of(("a", "b"), ("a", "c")), "a")


def test_remove_vertices():
    assert remove_vertices(PATH4, {"b"}) == g_of(("c", "d"))
    assert remove_vertices(PATH4, set()) == PATH4
    assert remove_vertices(PATH4, {"a", "b", "c", "d"}) == frozenset()


def test_symmetric_difference():
    m1 = g_of(("a", "b"), ("c", "d"))
    m2 = g_of(("b", "c"), ("c", "d"))
    assert symmetric_difference(m1, m2) == g_of(("a", "b"), ("b", "c"))


def test_path_edges():
    assert path_edges(["a", "b", "c"]) == [edge("a", "b"), edge("b", "c")]
    assert path_edges(["a"]) == []
    assert path_edges([]) == []
    with pytest.raises(ValueError):
        path_edges(["a", "b", "a"])


def _alternating_oracle(p: List[str], e: FrozenSet) -> bool:
    """Literal restatement: some witness set equals e or avoids e and gives
    the in/out pattern by position parity."""
    es = path_edges(p)
    candidates = [frozenset(e), frozenset(es[1::2]) - frozenset(e)]
    for w in candidates:
        if w != frozenset(e) and w & frozenset(e):
            continue
        if all(x in w for x in es[1::2]) and all(x not in w for x in es[0::2]):
            return True
    return False


def test_alternating_examples():
    m = g_of(("b", "c"))
    assert is_alternating_path(["a", "b", "c", "d"], m)
    # witness disjoint from m ({cd}) still counts as alternating
    assert is_alternating_path(["b", "c", "d"], m)
    assert is_alternating_path(["v1", "u1", "v2"], g_of(("v1", "u1")))
    assert not is_alternating_path(["a", "b", "c", "d"], g_of(("a", "b"), ("b", "c")))
    assert is_alternating_path(["a", "b"], m)
    assert is_alternating_path([], m)
    # all-out paths alternate against the disjoint witness
    assert is_alternating_path(["a", "b", "c", "d"], frozenset())


@given(st.integers(0, 5), st.data())
def test_alternating_matches_oracle(k: int, data):
    p = [f"x{i}" for i in range(k)]
    pool = path_edges(p) + [edge("y0", "y1"), edge("y1", "y2")]
    e = frozenset(data.draw(st.lists(st.sampled_from(pool), unique=True)))
    assert is_alternating_path(p, e) == _alternating_oracle(p, e)


def test_augmenting_examples():
    m = g_of(("b", "c"))
    assert is_augmenting_path(["a", "b", "c", "d"], m)
    assert not is_augmenting_path(["a", "b", "c"], m)  # c is covered
    assert not is_augmenting_path(["a"], m)
    assert not is_augmenting_path(["a", "b"], m)  # endpoint b is covered
    assert is_augmenting_path(["a", "b"], frozenset())
    assert not is_augmenting_path(["a", "b", "c", "d"], frozenset())
    assert is_augmenting_path(["v2", "u1", "v1", "u2"], g_of(("u1", "v1")))


def test_augmenting_path_starts_outside_the_matching():
    assert not is_augmenting_path(["b", "c", "d"], g_of(("b", "c")))


def test_augmenting_path_found_on_path4():
    got = find_augmenting_path(PATH4, g_of(("b", "c")))
    assert got == ["a", "b", "c", "d"]
    assert is_augmenting_path(got, g_of(("b", "c")))


def test_augmenting_path_small_cases():
    one = g_of(("a", "b"))
    assert find_augmenting_path(one, frozenset()) in (["a", "b"], ["b", "a"])
    assert find_augmenting_path(one, one) is None
    crown = g_of(("u1", "v1"), ("u1", "v2"), ("u2", "v1"))
    got = find_augmenting_path(crown, g_of(("u1", "v1")))
    assert got in (["u2", "v1", "u1", "v2"], ["v2", "u1", "v1", "u2"])


def test_augmenting_path_rejects_bad_matching():
    with pytest.raises(ValueError):
        find_augmenting_path(PATH4, g_of(("a", "b"), ("b", "c")))
    with pytest.raises(ValueError):
        find_augmenting_path(PATH4, g_of(("a", "z")))


def test_max_matching_on_triangle():
    m = max_card_matching(TRIANGLE)
    assert is_matching(m) and len(m) == 1


def test_max_matching_small_cases():
    assert max_card_matching(g_of(("a", "b"))) == g_of(("a", "b"))
    crown = g_of(("u1", "v1"), ("u1", "v2"), ("u2", "v1"))
    assert len(max_card_matching(crown)) == 2


def test_max_matching_on_worked_example(example6):
    # v6 has no edges, so the offline side cannot be fully covered
    assert len(max_card_matching(example6.graph)) == 5


@settings(max_examples=60)
@given(small_graphs())
def test_max_matching_matches_enumeration(g: FrozenSet):
    best = max(len(m) for m in all_matchings(g))
    got = max_card_matching(g)
    assert is_matching(got) and got <= g
    assert len(got) == best


@settings(max_examples=60)
@given(small_graphs(), st.data())
def test_augmenting_search_completeness(g: FrozenSet, data):
    ms = [m for m in all_matchings(g)]
    m = data.draw(st.sampled_from(ms))
    best = max(len(x) for x in ms)
    p = find_augmenting_path(g, m)
    if p is None:
        assert len(m) == best
    else:
        assert is_augmenting_path(p, m)
        assert len(symmetric_difference(m, path_edges(p))) == len(m) + 1


def test_make_perfect_matching():
    g = PATH4 | g_of(("d", "e"))
    m = g_of(("b", "c"))
    gg = make_perfect_matching(g, m)
    assert m <= gg
    assert vertices(gg) == vertices(m)


def test_make_perfect_keeps_everything_when_already_perfect():
    m = g_of(("a", "b"), ("c", "d"))
    assert make_perfect_matching(PATH4, m) == PATH4


def test_make_perfect_prunes_uncovered_vertices():
    crown = g_of(("u1", "v1"), ("u1", "v2"), ("u2", "v1"))
    assert make_perfect_matching(crown, g_of(("u1", "v1"))) == g_of(("u1", "v1"))


def make_perfect_by_deletion(g, m):
    """The oracle: delete the least-named uncovered vertex until none is left."""
    gg = frozenset(g)
    covered = vertices(m)
    while True:
        uncovered = sorted(vertices(gg) - covered)
        if not uncovered:
            return gg
        gg = remove_vertices(gg, {uncovered[0]})


@settings(max_examples=150)
@given(st.data())
def test_make_perfect_equals_deletion_loop(data):
    g = data.draw(instances(max_side=4)).graph
    m = data.draw(st.sampled_from(list(all_matchings(g))))
    assert make_perfect_matching(g, m) == make_perfect_by_deletion(g, m)


def test_make_perfect_rejects_bad_matchings():
    with pytest.raises(ValueError, match="^m must be a matching$"):
        make_perfect_matching(PATH4, g_of(("a", "b"), ("b", "c")))
    with pytest.raises(ValueError, match="^m must be a subset of g$"):
        make_perfect_matching(PATH4, g_of(("a", "d")))


def test_all_matchings_k22():
    k22 = g_of(("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u2", "v2"))
    ms = list(all_matchings(k22))
    assert len(ms) == 7  # empty, four singles, two perfect
    assert len(set(ms)) == 7
    assert all(is_matching(m) and m <= k22 for m in ms)


@st.composite
def bipartite_graphs(draw, max_side: int = 13) -> FrozenSet:
    """Bipartite graphs whose sides reach past ten, so that u10 sorts before u2."""
    left = [f"u{k}" for k in range(1, draw(st.integers(1, max_side)) + 1)]
    right = [f"v{k}" for k in range(1, draw(st.integers(1, max_side)) + 1)]
    p = draw(st.floats(0.0, 0.5))
    keep = draw(st.randoms(use_true_random=False))
    return frozenset(edge(a, b) for a in left for b in right if keep.random() < p)


def assert_designates_the_oracle(inst) -> None:
    """``perfect_matching_of`` is the name-level pass's matching when that one is perfect."""
    m = bipartite_max_matching(inst.graph)
    assert perfect_matching_of(inst) == (m if vertices(m) == inst.offline | inst.online else None)


class TestBipartiteMaxMatching:
    """Kuhn's name-ordered pass against the exhaustive oracle, edge for edge, and
    ``perfect_matching_of``, the same pass on an index, against it."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(bipartite_graphs())
    def test_equals_oracle_on_drawn_graphs(self, g):
        assert bipartite_max_matching(g) == max_card_matching(g)

    @settings(max_examples=60)
    @given(instances(max_side=6))
    def test_equals_oracle_on_instances(self, inst):
        assert bipartite_max_matching(inst.graph) == max_card_matching(inst.graph)
        assert_designates_the_oracle(inst)

    def test_equals_oracle_on_the_gamma_family(self):
        graphs = [g for g, _ in gen_gamma_family(2)]
        assert graphs
        for g in graphs:
            assert bipartite_max_matching(g) == max_card_matching(g)

    def test_equals_oracle_on_planted_instances(self):
        for n in range(15):
            for s in range(3):
                inst = gen_perfect(n, 0.3, s)[0]
                g = inst.graph
                assert bipartite_max_matching(g) == max_card_matching(g)
                assert_designates_the_oracle(inst)

    def test_equals_oracle_on_every_graph_up_to_three_by_three_interleaved(self):
        # offline a c e, online b d f: name order alternates the sides, so
        # the pass starts searches from both of them
        for a, b in product(range(4), repeat=2):
            pairs = [(x, y) for x in "ace"[:a] for y in "bdf"[:b]]
            for keep in range(1 << len(pairs)):
                g = frozenset(edge(*e) for k, e in enumerate(pairs) if keep >> k & 1)
                assert bipartite_max_matching(g) == max_card_matching(g), sorted(map(sorted, g))
                sides = Permutation("ace"[:a]), Permutation("bdf"[:b])
                assert_designates_the_oracle(BipartiteInstance(g, *sides))
                assert_designates_the_oracle(BipartiteInstance(g, *sides[::-1]))

    def test_small_cases(self):
        assert bipartite_max_matching(frozenset()) == frozenset()
        assert bipartite_max_matching(PATH4) == g_of(("a", "b"), ("c", "d"))
        with pytest.raises(ValueError):
            bipartite_max_matching(TRIANGLE)
        five_cycle = g_of(("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"))
        with pytest.raises(ValueError):
            bipartite_max_matching(five_cycle)

    def test_sparse_random_150(self):
        for s in range(3):
            m = bipartite_max_matching(gen_perfect(150, 0.1, s)[0].graph)
            assert is_matching(m) and len(m) == 150

    def test_staircase_600(self):
        # the staircase of test_structure's deep cascade (u_i sees v_i and
        # v_{i+1}), at the default recursion limit
        n = 600
        g = frozenset(
            edge(f"u{i}", f"v{j}") for i in range(1, n + 1) for j in (i, i + 1) if j <= n
        )
        m = bipartite_max_matching(g)
        assert is_matching(m) and m <= g and len(m) == n
