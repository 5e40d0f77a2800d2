"""Tests for the cascade-path machinery around vertex removal.

Golden paths were derived by hand on the six-by-six worked example and the
small two-by-two instances, then frozen.  Property tests check the shape
invariants (at most one shift target, single-path dichotomy, size drop of
at most one) on random instances.  The name-level cascade walk, removal
diff, symmetry and stability checks that the position core replaced are
kept at the bottom as oracles, compared against the core on every small
graph, on hypothesis instances and on contexts with other matchings.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankinglab import (
    BipartiteInstance,
    DichotomyViolation,
    GuardViolation,
    Permutation,
    RankMoveVerdict,
    RemovalDiff,
    ZigZagContext,
    check_rank_move,
    check_removal_stability,
    check_zig_zag_symmetry,
    edge,
    gen_perfect,
    online_match,
    partner,
    removal_diff_offline,
    removal_diff_online,
    serialize_instance,
    shift_targets,
    shifts_to,
    vertices,
    zag,
    zig,
)

from rankinglab import structure
from rankinglab.engine import rank_match

from .conftest import instances, make_instance
from .oracles import (
    all_matchings,
    is_alternating_path,
    path_edges,
    remove_vertices,
    symmetric_difference,
)


@pytest.fixture
def two_by_two():
    # u2 lacks the v2 edge, so u2 ends up unmatched under the natural orders
    return make_instance("v1 v2", "u1 u2", [("u1", "v1"), ("u1", "v2"), ("u2", "v1")])


def natural_ctx(inst):
    return ZigZagContext(inst.graph, online_match(inst), inst.arrival, inst.ranking)


class TestContext:
    def test_matching_must_be_subset(self):
        with pytest.raises(ValueError):
            ZigZagContext(
                frozenset({edge("u1", "v1")}),
                frozenset({edge("u2", "v2")}),
                None,  # orders unused before validation
                None,
            )

    def test_matching_must_be_matching(self):
        g = frozenset({edge("u1", "v1"), edge("u1", "v2")})
        with pytest.raises(ValueError):
            ZigZagContext(g, g, None, None)

    def test_swapped_is_involution(self, two_by_two):
        ctx = natural_ctx(two_by_two)
        assert ctx.swapped().swapped() == ctx
        assert ctx.swapped().ranking == ctx.arrival


class TestShifts:
    def test_shift_follows_edge(self, two_by_two):
        ctx = natural_ctx(two_by_two)
        assert shifts_to(ctx, "u1", "v1", "v2")
        assert not shifts_to(ctx, "u2", "v1", "v2")  # no such edge

    def test_shift_only_moves_down_the_ranking(self, two_by_two):
        ctx = natural_ctx(two_by_two)
        assert not shifts_to(ctx, "u1", "v2", "v1")
        assert not shifts_to(ctx, "u1", "v1", "v1")

    def test_shift_blocked_by_free_neighbor_between(self):
        inst = make_instance(
            "v1 v2 v3", "u1 u2",
            [("u1", "v1"), ("u1", "v2"), ("u1", "v3"), ("u2", "v2")],
        )
        ctx = natural_ctx(inst)
        # v2 is free for u1's purposes only if not held earlier; here u2
        # arrives after u1, so v2 blocks the jump to v3
        assert shifts_to(ctx, "u1", "v1", "v2")
        assert not shifts_to(ctx, "u1", "v1", "v3")

    def test_shift_skips_vertex_held_by_earlier_arrival(self):
        inst = make_instance(
            "v1 v2 v3", "u1 u2",
            [("u1", "v1"), ("u2", "v1"), ("u2", "v2"), ("u2", "v3")],
        )
        ctx = natural_ctx(inst)
        # u1 holds v1; for u2 losing v2 the mid vertex v1 is... before v2,
        # so from v2 the only candidate is v3
        assert shifts_to(ctx, "u2", "v2", "v3")

    def test_shift_target_none_for_non_members(self, two_by_two):
        ctx = natural_ctx(two_by_two)
        assert not shifts_to(ctx, "z", "v1", "v2")
        assert not shifts_to(ctx, "u1", "z", "v2")
        assert not shifts_to(ctx, "u1", "v1", "z")

    def test_shift_with_parties_swapped(self, example6):
        # with v's arriving and u's ranked, v2 passes from u2 to u3
        ctx = natural_ctx(example6).swapped()
        assert shifts_to(ctx, "v2", "u2", "u3")

    @settings(max_examples=60)
    @given(instances())
    def test_at_most_one_shift_target(self, inst):
        ctx = natural_ctx(inst)
        for u in inst.arrival:
            for cur in inst.ranking:
                assert len(shift_targets(ctx, u, cur)) <= 1


class TestZigZag:
    def test_two_by_two_paths(self, two_by_two):
        ctx = natural_ctx(two_by_two)
        assert zig(ctx, "v1") == ("v1", "u1", "v2")
        assert zag(ctx, "u1") == ("u1", "v2")
        assert zig(ctx, "v2") == ("v2",)
        assert zag(ctx, "u2") == ("u2",)

    def test_paths_alternate_with_matching(self, two_by_two):
        ctx = natural_ctx(two_by_two)
        p = zig(ctx, "v1")
        es = path_edges(list(p))
        assert es[0] in ctx.matching  # zig leads with the matched edge

    @settings(max_examples=60)
    @given(instances())
    def test_zig_zag_terminate_everywhere(self, inst):
        for ctx in (natural_ctx(inst), natural_ctx(inst).swapped()):
            for v in ctx.ranking:
                p = zig(ctx, v)
                assert p[0] == v and len(set(p)) == len(p)
                mate = partner(ctx.matching, v)
                if mate is not None:
                    assert p == (v,) + zag(ctx, mate)
            for u in ctx.arrival:
                p = zag(ctx, u)
                assert p[0] == u and len(set(p)) == len(p)
                mate = partner(ctx.matching, u)
                if mate is not None:
                    # the step after u is its unique shift target, or the path ends
                    assert list(p[1:2]) == shift_targets(ctx, u, mate)


class TestRemovalDichotomy:
    def test_worked_example_online_removal(self, example6):
        d = removal_diff_online(example6, "u2")
        assert d.path == ("u2", "v2", "u3", "v4", "u5", "v5", "u6")
        assert not d.equal
        assert sorted(tuple(sorted(e)) for e in d.reduced) == [
            ("u1", "v1"),
            ("u3", "v2"),
            ("u4", "v3"),
            ("u5", "v4"),
            ("u6", "v5"),
        ]
        assert symmetric_difference(d.baseline, d.reduced) == frozenset(
            {
                edge("u2", "v2"),
                edge("u3", "v2"),
                edge("u3", "v4"),
                edge("u5", "v4"),
                edge("u5", "v5"),
                edge("u6", "v5"),
            }
        )

    def test_worked_example_offline_removal(self, example6):
        d = removal_diff_offline(example6, "v1")
        assert d.path == ("v1", "u1", "v3", "u4")

    def test_deep_staircase_cascade(self):
        # u_i holds v_i; deleting v1 shifts every u_i to v_{i+1} and leaves u600
        # unmatched: a 1200-vertex path, deeper than the default recursion limit
        n = 600
        inst = make_instance(
            " ".join(f"v{i}" for i in range(1, n + 1)),
            " ".join(f"u{i}" for i in range(1, n + 1)),
            [(f"u{i}", f"v{j}") for i in range(1, n + 1) for j in (i, i + 1) if j <= n],
        )
        d = removal_diff_offline(inst, "v1")
        assert d.path == tuple(x for i in range(1, n + 1) for x in (f"v{i}", f"u{i}"))
        assert len(d.baseline) == n and len(d.reduced) == n - 1

    def test_removing_unmatched_vertex_changes_nothing(self, example6):
        d = removal_diff_offline(example6, "v6")
        assert d.equal and d.baseline == d.reduced

    def test_wrong_side_raises(self, example6):
        with pytest.raises(KeyError):
            removal_diff_online(example6, "v1")
        with pytest.raises(KeyError):
            removal_diff_offline(example6, "u1")

    @settings(max_examples=40)
    @given(instances(max_side=4))
    def test_dichotomy_on_random_instances(self, inst):
        m = online_match(inst)
        for u in sorted(inst.online):
            d = removal_diff_online(inst, u)
            self._check(d, u, m)
        for v in sorted(inst.offline):
            d = removal_diff_offline(inst, v)
            self._check(d, v, m)

    @staticmethod
    def _check(d, x, m):
        assert d.baseline == m
        assert len(m) - len(d.reduced) in (0, 1)
        if d.equal:
            assert d.path is None
            return
        assert d.path[0] == x
        assert frozenset(path_edges(list(d.path))) == symmetric_difference(
            d.baseline, d.reduced
        )
        assert is_alternating_path(list(d.path), d.baseline)
        assert is_alternating_path(list(d.path), d.reduced)


class TestSymmetry:
    def test_worked_example_path_identity(self, example6):
        m = online_match(example6)
        m2 = online_match(example6.without_vertices({"u2"}))
        red = remove_vertices(example6.graph, {"u2"})
        zig_ctx = ZigZagContext(red, m2, example6.arrival, example6.ranking)
        zag_ctx = ZigZagContext(
            example6.graph, m, arrival=example6.ranking, ranking=example6.arrival
        )
        want = ("v2", "u3", "v4", "u5", "v5", "u6")
        assert zig(zig_ctx, "v2") == want
        assert zag(zag_ctx, "v2") == want

    def test_worked_example_all_matched_vertices(self, example6):
        for x in sorted(vertices(online_match(example6))):
            assert check_zig_zag_symmetry(example6, x)

    def test_unmatched_vertex_rejected(self, example6):
        with pytest.raises(ValueError):
            check_zig_zag_symmetry(example6, "u6")
        with pytest.raises(KeyError):
            check_zig_zag_symmetry(example6, "zz")

    @settings(max_examples=40)
    @given(instances(max_side=4))
    def test_holds_on_random_instances(self, inst):
        for x in sorted(vertices(online_match(inst))):
            assert check_zig_zag_symmetry(inst, x)


class TestRemovalStability:
    def test_worked_example_cases(self, example6):
        assert check_removal_stability(example6, {"v1"}, "u2")
        assert check_removal_stability(example6, {"u1"}, "v2")
        assert check_removal_stability(example6, {"v1"}, "v3")
        assert check_removal_stability(example6, {"v1"}, "v6")
        assert check_removal_stability(example6, {"v6"}, "u2")

    def test_guard_breach_raises(self, example6):
        # v4's partner u3 arrives after u2, so the guard fails
        with pytest.raises(GuardViolation):
            check_removal_stability(example6, {"v4"}, "u2")

    def test_mixed_sides_rejected(self, example6):
        with pytest.raises(ValueError):
            check_removal_stability(example6, {"u1", "v1"}, "v2")

    def test_unknown_probe_rejected(self, example6):
        with pytest.raises(KeyError):
            check_removal_stability(example6, {"v1"}, "zz")

    def test_empty_removal_is_trivially_stable(self, example6):
        for probe in ("u1", "v1", "u6", "v6"):
            assert check_removal_stability(example6, frozenset(), probe)

    def test_guard_violation_is_value_error(self):
        assert issubclass(GuardViolation, ValueError)
        assert not issubclass(GuardViolation, DichotomyViolation)

    def test_dichotomy_violation_is_runtime_error(self):
        assert issubclass(DichotomyViolation, RuntimeError)


class TestRankMove:
    @pytest.fixture
    def four_by_four(self):
        inst = make_instance(
            "v1 v2 v3 v4", "u1 u2 u3 u4",
            [("u1", "v1"), ("u1", "v3"), ("u2", "v2"), ("u3", "v4"), ("u4", "v1")],
        )
        m_star = frozenset(
            {edge("u1", "v3"), edge("u4", "v1"), edge("u2", "v2"), edge("u3", "v4")}
        )
        return inst, m_star

    def test_unmatched_vertex_every_target_index(self, four_by_four):
        inst, m_star = four_by_four
        assert partner(m_star, "v3") == "u1"
        assert online_match(inst) == frozenset(
            {edge("u1", "v1"), edge("u2", "v2"), edge("u3", "v4")}
        )
        for i in range(4):
            verdict = check_rank_move(inst, m_star, "v3", i)
            assert not verdict.skipped
            assert verdict.partner_matched
            assert verdict.holds_moved_rank
            assert verdict.holds_original_rank

    def test_matched_vertex_is_skipped(self, four_by_four):
        inst, m_star = four_by_four
        verdict = check_rank_move(inst, m_star, "v1", 0)
        assert verdict.skipped
        assert verdict.partner_matched is None

    def test_imperfect_m_star_rejected(self, four_by_four):
        inst, _ = four_by_four
        with pytest.raises(ValueError):
            check_rank_move(inst, frozenset({edge("u1", "v1")}), "v3", 0)

    def test_non_ranking_vertex_rejected(self, four_by_four):
        inst, m_star = four_by_four
        with pytest.raises(KeyError):
            check_rank_move(inst, m_star, "u1", 0)

    def test_target_index_out_of_range(self, four_by_four):
        inst, m_star = four_by_four
        for i in (-1, 4):
            with pytest.raises(IndexError, match=f"target index {i} out of range 0..3"):
                check_rank_move(inst, m_star, "v3", i)
        assert check_rank_move(inst, m_star, "v1", 4).skipped  # matched: no move made

    def test_errors_come_in_a_fixed_order(self, four_by_four):
        inst, m_star = four_by_four
        bad = frozenset({edge("u1", "v1")})
        with pytest.raises(KeyError):  # v outside the ranking, before m_star and i
            check_rank_move(inst, bad, "u1", 9)
        with pytest.raises(ValueError, match="m_star"):  # before the skip and i
            check_rank_move(inst, bad, "v1", 9)
        assert check_rank_move(inst, m_star, "v1", 9).skipped  # matched v, before i
        with pytest.raises(IndexError, match="target index 9 out of range 0..3"):
            check_rank_move(inst, m_star, "v3", 9)

    def test_designated_arrival_with_no_neighbour_stays_unmatched(self):
        # arrival 1 reaches no offline id: id 1, unmatched, moves anywhere and
        # its designated partner, arrival 1, still finds no mate
        for i in range(2):
            verdict = structure._rank_move((0b01, 0b01), 2, 1, 1, i)
            assert verdict == RankMoveVerdict(False, False, None, None)

    def test_equals_the_object_level_rerun(self):
        # the oracle moves v in the Permutation and folds ``step`` on a new instance
        for n in (1, 3, 5, 6):
            for s in range(25):
                inst, m_star = gen_perfect(n, 0.35, s)
                baseline = online_match(inst)
                for v in inst.ranking:
                    bar, u = inst.ranking.index(v), partner(m_star, v)
                    for i in range(n):
                        verdict = check_rank_move(inst, m_star, v, i)
                        if partner(baseline, v) is not None:
                            assert verdict == RankMoveVerdict(True, None, None, None)
                            continue
                        moved = inst.ranking.move_to(v, i)
                        rerun = online_match(BipartiteInstance(inst.graph, moved, inst.arrival))
                        w = partner(rerun, u)
                        assert verdict == (
                            RankMoveVerdict(False, False, None, None)
                            if w is None
                            else RankMoveVerdict(
                                False,
                                True,
                                moved.index(w) <= bar,
                                inst.ranking.index(w) <= bar,
                                moved.index(w),
                            )
                        )


# ---------------------------------------------------------------- name-level oracles
#
# The cascade walk and the removal diff as they ran on names, before the
# position core replaced them: a scan of ``ranking.order`` with frozenset edge
# lookups, on contexts built from whole matchings and graphs.


def cascade_oracle(ctx, x, zig_step):
    """The cascade path from x on ``ctx``, on names: zig from x, or zag."""
    r, a, g, mate = ctx.ranking, ctx.arrival, ctx.graph, ctx.mate
    path = [x]
    while True:
        v = mate.get(x)
        nxt = v if zig_step else None
        if not zig_step and x in a and v in r:
            t = a.index(x)
            for w in r.order[r.index(v) + 1 :]:
                h = mate.get(w)
                if frozenset((x, w)) in g and (h not in a or a.index(h) >= t):
                    nxt = w
                    break
        if nxt is None:
            return tuple(path)
        path.append(nxt)
        x, zig_step = nxt, not zig_step


def name_context(inst, offline_ranked, matching, graph=None):
    """A context over ``inst`` whose ranking side is offline iff ``offline_ranked``."""
    orders = (inst.arrival, inst.ranking) if offline_ranked else (inst.ranking, inst.arrival)
    return ZigZagContext(inst.graph if graph is None else graph, matching, *orders)


def removal_diff_oracle(inst, x, cascade=cascade_oracle):
    m = rank_match(inst)
    m2 = rank_match(inst.without_vertices({x}))
    if m == m2:
        return RemovalDiff(m, m2, None)
    p = cascade(name_context(inst, x in inst.ranking, m), x, True)
    diff = symmetric_difference(m, m2)
    if frozenset(path_edges(p)) != diff:
        raise DichotomyViolation(
            f"deleting {x!r} changed the matching by {sorted(map(sorted, diff))}, "
            f"not by the cascade path {list(p)}"
        )
    return RemovalDiff(m, m2, p)


def symmetry_oracle(inst, x):
    if x not in inst.arrival.members | inst.ranking.members:
        raise KeyError(f"{x!r} is not a vertex of the instance")
    m = rank_match(inst)
    mate = partner(m, x)
    if mate is None:
        raise ValueError(f"removed vertex {x!r} must be matched")
    reduced = inst.without_vertices({x})
    online = x in inst.arrival.members
    zig_ctx = name_context(inst, online, rank_match(reduced), reduced.graph)
    return cascade_oracle(zig_ctx, mate, True) == cascade_oracle(
        name_context(inst, not online, m), mate, False
    )


def kept_context(inst, xs):
    """The reduced context of ``check_removal_stability``: the removed party arrives."""
    offline_removed = not xs <= inst.arrival.members
    kept = remove_vertices(rank_match(inst), xs)
    return name_context(inst, not offline_removed, kept, remove_vertices(inst.graph, xs))


def stability_oracle(inst, removed, probe):
    xs = frozenset(removed)
    offline_removed = not xs <= inst.arrival.members
    if offline_removed and not xs <= inst.ranking.members:
        raise ValueError("removed vertices must all lie in one party")
    ctx = name_context(inst, not offline_removed, rank_match(inst))
    rank = ctx.ranking._pos
    if probe in rank:
        cutoff, zig_step = rank[probe], True
    elif probe in ctx.arrival:
        cutoff, zig_step = rank.get(ctx.mate.get(probe)), False
    else:
        raise KeyError(f"{probe!r} is not a vertex of the instance")
    for x in sorted(xs):
        r = rank.get(ctx.mate.get(x))
        if r is not None and cutoff is not None and r >= cutoff:
            raise GuardViolation(
                f"removed vertex {x!r} is matched at rank {r}, "
                f"not strictly before the probe cutoff {cutoff}"
            )
    reduced = kept_context(inst, xs)
    return cascade_oracle(reduced, probe, zig_step) == cascade_oracle(ctx, probe, zig_step)


def outcome(f, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return f(*args)
    except (DichotomyViolation, GuardViolation, KeyError, ValueError) as e:
        return type(e), str(e)


def every_graph(offline, online, step=1):
    """Every graph between two parties with identity orders (every ``step``-th)."""
    pairs = [(u, v) for u in online.split() for v in offline.split()]
    for bits in range(0, 1 << len(pairs), step):
        chosen = [pq for k, pq in enumerate(pairs) if bits >> k & 1]
        yield make_instance(offline, online, chosen)


SMALL_GRAPHS = (("v1 v2 v3", "u1 u2 u3"), ("v1 v2", "u1 u2 u3 u4"), ("v1 v2 v3 v4", "u1 u2"))


def removal_mismatches(inst):
    """The vertices where ``removal_diff_*`` or ``check_zig_zag_symmetry`` and
    its name-level oracle part."""
    bad = []
    for x in inst.arrival:
        if outcome(removal_diff_online, inst, x) != outcome(removal_diff_oracle, inst, x):
            bad.append(x)
    for x in inst.ranking:
        if outcome(removal_diff_offline, inst, x) != outcome(removal_diff_oracle, inst, x):
            bad.append(x)
    for x in [*inst.arrival, *inst.ranking, "zz"]:
        if outcome(check_zig_zag_symmetry, inst, x) != outcome(symmetry_oracle, inst, x):
            bad.append((x, "symmetry"))
    return bad


def walk_mismatches(ctx):
    """(start, step) pairs where ``zig``/``zag`` and the name-level walk part,
    on ``ctx`` and its swap, from every vertex and one non-member."""
    bad = []
    for c in (ctx, ctx.swapped()):
        for x in [*c.ranking, *c.arrival, "zz"]:
            if zig(c, x) != cascade_oracle(c, x, True):
                bad.append((x, "zig"))
            if zag(c, x) != cascade_oracle(c, x, False):
                bad.append((x, "zag"))
    return bad


def kept_contexts(inst):
    """Every reduced context of ``check_removal_stability`` on ``inst``."""
    for party in (inst.arrival, inst.ranking):
        for k in range(len(party) + 1):
            for xs in combinations(party, k):
                yield kept_context(inst, frozenset(xs))


def matching_contexts(inst):
    """A context per matching of the graph, in both orientations of the orders."""
    for m in all_matchings(inst.graph):
        yield ZigZagContext(inst.graph, m, inst.arrival, inst.ranking)


def walk_without_holder_clause(x, zig_step, adj, mate_r, mate_a):
    """``_walk`` with a fault: a zag step takes the next neighbour even when an
    earlier arrival holds it."""
    path = [x]
    while True:
        if zig_step:
            x = mate_r[x]
        else:
            j, i, x = x, mate_a[x], -1
            bits = adj[j] >> i + 1 << i + 1 if i >= 0 else 0
            if bits:
                x = (bits & -bits).bit_length() - 1
        if x < 0:
            return path
        path.append(x)
        zig_step = not zig_step


def shifts_to_without(clause):
    """``shifts_to`` with one holder clause dropped: with ``"candidate"`` u
    takes a candidate an earlier arrival holds, with ``"mid"`` every
    neighbour ranked between blocks the shift, held or not."""

    def faulty(ctx, u, current, candidate):
        r, a = ctx.ranking, ctx.arrival
        if u not in a or candidate not in r or current not in r:
            return False
        lo, hi = r.index(current), r.index(candidate)
        if not lo < hi or frozenset((u, candidate)) not in ctx.graph:
            return False

        def held_earlier(v):
            w = ctx.mate.get(v)
            return w is not None and w in a and a.index(w) < a.index(u)

        if clause != "candidate" and held_earlier(candidate):
            return False
        return all(
            frozenset((u, mid)) not in ctx.graph or clause != "mid" and held_earlier(mid)
            for mid in r.order[lo + 1 : hi]
        )

    return faulty


class TestCoreEqualsNameLevel:
    """The position core against the name-level walk and removal diff it replaced."""

    @pytest.mark.parametrize("offline, online", SMALL_GRAPHS)
    def test_removal_diff_on_every_small_graph(self, offline, online):
        for inst in every_graph(offline, online):
            assert removal_mismatches(inst) == [], serialize_instance(inst)

    @settings(max_examples=80, deadline=None)
    @given(instances())
    def test_removal_diff_on_random_instances(self, inst):
        assert removal_mismatches(inst) == []

    def test_same_dichotomy_violation(self, example6, monkeypatch):
        # both walks stop at their start: every moved vertex raises, with one text
        monkeypatch.setattr(structure, "_walk", lambda x, *arrays: [x])
        start_only = lambda ctx, x, zig_step: (x,)  # noqa: E731
        raised = 0
        for inst in [example6, *every_graph("v1 v2 v3", "u1 u2 u3")]:
            for x in [*inst.arrival, *inst.ranking]:
                side = removal_diff_online if x in inst.arrival else removal_diff_offline
                got = outcome(side, inst, x)
                assert got == outcome(removal_diff_oracle, inst, x, start_only)
                raised += isinstance(got, tuple) and got[0] is DichotomyViolation
        assert raised > 0

    def test_stability_on_every_three_by_three_graph(self):
        for inst in every_graph("v1 v2 v3", "u1 u2 u3"):
            for party in (inst.arrival, inst.ranking):
                for k in range(len(party) + 1):
                    for xs in combinations(party, k):
                        for probe in [*inst.ranking, *inst.arrival, "zz"]:
                            args = (inst, frozenset(xs), probe)
                            assert outcome(check_removal_stability, *args) == outcome(
                                stability_oracle, *args
                            ), (serialize_instance(inst), xs, probe)

    def test_walks_on_kept_and_all_matchings_of_example6(self, example6):
        for ctx in [*kept_contexts(example6), *matching_contexts(example6)]:
            assert walk_mismatches(ctx) == []

    @settings(max_examples=40, deadline=None)
    @given(instances(max_side=4))
    def test_walks_on_kept_and_all_matchings(self, inst):
        for ctx in [*kept_contexts(inst), *matching_contexts(inst)]:
            assert walk_mismatches(ctx) == []

    def test_walks_on_contexts_off_the_orders(self):
        # matched pairs inside one order or outside both, and orders that overlap
        g = frozenset({edge("u1", "v1"), edge("u1", "v2"), edge("v2", "v3"), edge("w", "u2")})
        m = frozenset({edge("u1", "v1"), edge("v2", "v3"), edge("w", "u2")})
        for arrival, ranking in (
            (Permutation(["u1", "u2"]), Permutation(["v1", "v2"])),
            (Permutation(["u1", "v3"]), Permutation(["v1", "v2", "u1"])),
            (Permutation(["u2"]), Permutation(["w", "v2"])),
        ):
            assert walk_mismatches(ZigZagContext(g, m, arrival, ranking)) == []

    def test_a_walk_without_the_holder_clause_fails(self, example6, monkeypatch):
        # the position walk, under the removal diff and the symmetry check
        with monkeypatch.context() as m:
            m.setattr(structure, "_walk", walk_without_holder_clause)
            assert any(removal_mismatches(inst) for inst in every_graph("v1 v2 v3", "u1 u2 u3"))
        # the shift relation, under zig and zag
        contexts = [*kept_contexts(example6), *matching_contexts(example6)]
        for clause in ("candidate", "mid"):
            with monkeypatch.context() as m:
                m.setattr(structure, "shifts_to", shifts_to_without(clause))
                assert any(walk_mismatches(ctx) for ctx in contexts), clause
