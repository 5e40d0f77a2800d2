"""Tests for the cascade-path machinery around vertex removal.

Golden paths were derived by hand on the six-by-six worked example and the
small two-by-two instances, then frozen.  Property tests check the shape
invariants (at most one shift target, single-path dichotomy, size drop of
at most one) on random instances.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankinglab import (
    BipartiteInstance,
    DichotomyViolation,
    GuardViolation,
    RankMoveVerdict,
    ZigZagContext,
    check_rank_move,
    check_removal_stability,
    check_zig_zag_symmetry,
    edge,
    gen_perfect,
    is_alternating_path,
    online_match,
    partner,
    path_edges,
    remove_vertices,
    removal_diff_offline,
    removal_diff_online,
    shift_targets,
    shifts_to,
    symmetric_difference,
    vertices,
    zag,
    zig,
)

from .conftest import instances, make_instance


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
