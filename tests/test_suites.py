"""Sanity tests for the replayable check suites and their registry."""

from __future__ import annotations

from dataclasses import replace

import pytest

from rankinglab import (
    CaseFailure,
    GuardViolation,
    RankMoveVerdict,
    SUITES,
    SuiteResult,
    all_matchings,
    check_rank_move,
    edge,
    gen_perfect,
    online_match,
    parse_instance,
    perfect_matching_of,
    serialize_instance,
    suite_lemma3,
    suite_lemma5,
    suite_lemma6,
    suite_lemma7,
    suite_lemma8,
    suite_lemma9,
    suite_rank_move,
    suite_ranking_matching,
    suite_theorem4,
    suite_theorem6,
    vertices,
)

from rankinglab import structure, suites
from rankinglab.cli import main
from rankinglab.engine import rank_match

from .conftest import DATA, make_instance

PERFECT_TEXT = (
    "offline v1 v2\nonline u1 u2\nedge u1 v1\nedge u1 v2\nedge u2 v1\n"
)


def test_registry_keys():
    assert set(SUITES) == {
        "ranking-matching",
        "lemma3",
        "lemma5",
        "lemma6",
        "lemma7",
        "lemma8",
        "lemma9",
        "rank-move",
        "theorem4",
        "theorem6",
    }
    assert all(callable(f) for f in SUITES.values())


def test_result_passed_flag():
    ok = SuiteResult("x", 3, [])
    bad = SuiteResult("x", 3, [CaseFailure("broke", "offline v1\nonline u1\n")])
    assert ok.passed and not bad.passed
    assert bad.failures[0].description == "broke"


@pytest.mark.parametrize(
    "suite",
    [
        suite_ranking_matching,
        suite_lemma3,
        suite_lemma5,
        suite_lemma6,
        suite_lemma7,
        suite_lemma8,
        suite_lemma9,
        suite_rank_move,
    ],
)
def test_random_mode_passes(suite):
    result = suite(25, 17, max_side=4)
    assert result.cases == 25
    assert result.passed, [f.description for f in result.failures]


@pytest.mark.parametrize("suite", [suite_theorem4, suite_theorem6])
def test_ratio_suites_pass_and_emit_rows(suite):
    result = suite(10, 23, max_side=4)
    assert result.cases == 10 and result.passed
    rows = result.notes["rows"]
    assert len(rows) == 10
    assert all(r["verdict"] == "pass" for r in rows)
    assert all(r["mode"] == "exact" for r in rows)


def test_random_mode_deterministic():
    a = suite_ranking_matching(15, 99, max_side=4)
    b = suite_ranking_matching(15, 99, max_side=4)
    assert (a.cases, a.failures, a.notes) == (b.cases, b.failures, b.notes)


def test_seed_changes_rank_move_tallies():
    a = suite_rank_move(40, 1)
    b = suite_rank_move(40, 2)
    assert a.passed and b.passed
    assert a.notes != b.notes  # different draws, different pair counts


class TestFileMode:
    def test_ranking_matching_single_case(self, example6):
        result = suite_ranking_matching(100, 0, inst=example6)
        assert result.cases == 1 and result.passed

    def test_lemma6_probes_every_matched_vertex(self, example6):
        result = suite_lemma6(1, 0, inst=example6)
        assert result.cases == 10  # five matched pairs
        assert result.passed

    def test_removal_suites_cover_the_whole_side(self, example6):
        assert suite_lemma7(1, 0, inst=example6).cases == 6
        assert suite_lemma8(1, 0, inst=example6).cases == 6
        assert suite_lemma7(1, 0, inst=example6).passed
        assert suite_lemma8(1, 0, inst=example6).passed

    def test_lemma9_reuses_the_instance(self, example6):
        result = suite_lemma9(30, 4, inst=example6)
        assert result.cases == 30 and result.passed

    def test_lemma5_samples_on_the_instance(self, example6):
        result = suite_lemma5(50, 8, inst=example6)
        assert result.cases == 50 and result.passed

    def test_lemma3_needs_perfect_matching(self, example6):
        inst = parse_instance(PERFECT_TEXT)
        assert suite_lemma3(1, 0, inst=inst).passed
        with pytest.raises(ValueError):
            suite_lemma3(1, 0, inst=example6)

    def test_rank_move_tallies_pairs(self):
        inst = make_instance(
            "v1 v2 v3 v4", "u1 u2 u3 u4",
            [("u1", "v1"), ("u1", "v3"), ("u2", "v2"), ("u3", "v4"), ("u4", "v1")],
        )
        result = suite_rank_move(1, 0, inst=inst)
        assert result.passed
        assert result.notes["pairs"] == 4  # v3 unmatched, four target indexes
        assert result.notes["moved_rank_holds"] == 4
        assert result.notes["original_rank_holds"] == 4
        with pytest.raises(ValueError):
            suite_rank_move(1, 0, inst=make_instance("v1 v2", "u1", [("u1", "v1")]))

    def test_rank_move_takes_one_baseline_per_case(self, monkeypatch):
        calls = []

        def counting(inst):
            calls.append(inst)
            return rank_match(inst)

        monkeypatch.setattr(suites, "rank_match", counting)
        monkeypatch.setattr(structure, "rank_match", counting)
        inst = make_instance(
            "v1 v2 v3 v4", "u1 u2 u3 u4",
            [("u1", "v1"), ("u1", "v3"), ("u2", "v2"), ("u3", "v4"), ("u4", "v1")],
        )
        suite_rank_move(1, 0, inst=inst)
        assert len(calls) == 1  # one baseline; each pair reruns ``_greedy`` alone
        for seed in range(6):
            calls.clear()
            result = suite_rank_move(25, seed)
            assert len(calls) == result.cases

    def test_rank_move_tallies_equal_the_public_check(self):
        for s in range(8):
            inst = gen_perfect(5, 0.4, s)[0]
            m_star = perfect_matching_of(inst)
            tally = {"pairs": 0, "moved_rank_holds": 0, "original_rank_holds": 0}
            covered = vertices(online_match(inst))
            for v in inst.ranking:
                if v in covered:
                    continue
                for i in range(len(inst.ranking)):
                    verdict = check_rank_move(inst, m_star, v, i)
                    tally["pairs"] += 1
                    tally["moved_rank_holds"] += bool(verdict.holds_moved_rank)
                    tally["original_rank_holds"] += bool(verdict.holds_original_rank)
            assert suite_rank_move(1, 0, inst=inst).notes == tally

    def test_ratio_suites_on_files(self, example6):
        inst = parse_instance(PERFECT_TEXT)
        assert suite_theorem4(5, 0, inst=inst).cases == 1
        assert suite_theorem6(5, 0, inst=example6).cases == 1
        with pytest.raises(ValueError):
            suite_theorem4(1, 0, inst=example6)


def _replays(result, suite, **kwargs):
    """Every instance-bound failure is a canonical file that reproduces it."""
    for f in result.failures:
        if f.instance_text:
            one = parse_instance(f.instance_text)
            assert serialize_instance(one) == f.instance_text
            again = suite(1, 0, inst=one, **kwargs).failures
            assert f.description in [g.description for g in again]


def _moved(inst, side):
    """The vertices of ``side`` whose deletion changes the computed matching."""
    m = online_match(inst)
    return [x for x in side if online_match(inst.without_vertices({x})) != m]


class TestFailurePath:
    """Faults injected into the checked code must surface as suite failures."""

    @pytest.fixture
    def start_only_walk(self, monkeypatch):
        monkeypatch.setattr(structure, "zig", lambda ctx, v: (v,))

    def test_removal_suites_report_a_start_only_walk(self, example6, start_only_walk):
        inst, text = example6, serialize_instance(example6)
        for suite, side in ((suite_lemma7, inst.arrival), (suite_lemma8, inst.ranking)):
            moved = _moved(inst, side)
            result = suite(1, 0, inst=inst)
            assert result.cases == 6
            assert len(result.failures) == len(moved) > 0
            for x, f in zip(moved, result.failures):
                assert f.description.startswith(f"deleting {x!r} changed the matching")
                assert f.description.endswith(f"not by the cascade path [{x!r}]")
                assert f.instance_text == text

    @pytest.mark.parametrize("suite", [suite_lemma7, suite_lemma8, suite_lemma9])
    def test_removal_suites_random_mode(self, suite, start_only_walk):
        result = suite(20, 5, max_side=4)
        assert result.cases == 20 and result.failures
        assert all("not by the cascade path" in f.description for f in result.failures)
        if suite is not suite_lemma9:  # lemma9 samples its probes, so may miss one
            _replays(result, suite)

    def test_lemma9_reports_a_dichotomy_violation(self, example6, start_only_walk):
        result = suite_lemma9(30, 4, inst=example6)
        assert result.cases == 30 and result.failures
        for f in result.failures:
            assert "not by the cascade path" in f.description
            assert f.instance_text == serialize_instance(example6)

    def test_lemma9_violation_exits_one_from_the_cli(self, start_only_walk, capsys):
        path = str(DATA / "example6.obm")
        argv = ["check", path, "--suite", "lemma9", "--count", "5", "--seed", "1"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "FAIL: deleting" in out and "--- failing instance ---" in out

    def test_lemma6_reports_a_start_only_walk(self, example6, start_only_walk):
        result = suite_lemma6(1, 0, inst=example6)
        assert result.cases == 10 and result.failures
        for f in result.failures:
            assert f.description.startswith("zig and zag disagree after deleting ")
            assert f.instance_text == serialize_instance(example6)
        assert suite_lemma6(15, 2, max_side=5).failures

    def test_ranking_matching_reports_a_rejected_output(self, example6, monkeypatch):
        monkeypatch.setattr(suites, "is_ranking_matching", lambda *args: False)
        result = suite_ranking_matching(1, 0, inst=example6)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            (
                "output fails the declarative characterization",
                serialize_instance(example6),
            )
        ]
        result = suite_ranking_matching(5, 3, max_side=3)
        assert result.cases == len(result.failures) == 5
        _replays(result, suite_ranking_matching)

    def test_ranking_matching_reports_a_broken_pair_removal(self, monkeypatch):
        monkeypatch.setattr(suites, "remove_vertices", lambda g, xs: g)  # removes nothing
        inst = parse_instance(PERFECT_TEXT)
        result = suite_ranking_matching(1, 0, inst=inst)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            (
                "removing the matched pair ['u1', 'v1'] breaks the "
                "characterization of the remaining matching",
                PERFECT_TEXT,
            )
        ]
        result = suite_ranking_matching(8, 3, max_side=3)
        assert result.failures
        for f in result.failures:
            m = rank_match(parse_instance(f.instance_text))
            assert f.description == (
                f"removing the matched pair {min(map(sorted, m))} breaks the "
                "characterization of the remaining matching"
            )
        _replays(result, suite_ranking_matching)

    def test_ranking_matching_reports_a_role_dependent_verdict(self, monkeypatch):
        real = suites.is_ranking_matching

        def arrivals_only(g, m, arrival, ranking):  # false whenever the roles swap
            return real(g, m, arrival, ranking) and all(x[0] == "u" for x in arrival)

        monkeypatch.setattr(suites, "is_ranking_matching", arrivals_only)
        inst = parse_instance(PERFECT_TEXT)
        result = suite_ranking_matching(1, 0, inst=inst)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            ("party swap changed a verdict", PERFECT_TEXT)
        ]
        result = suite_ranking_matching(5, 3, max_side=3)
        assert result.cases == len(result.failures) == 5
        assert {f.description for f in result.failures} == {"party swap changed a verdict"}
        _replays(result, suite_ranking_matching)

    def test_ranking_matching_reports_many_satisfying_matchings(self, monkeypatch):
        monkeypatch.setattr(suites, "is_ranking_matching", lambda *args: True)
        inst = parse_instance(PERFECT_TEXT)
        count = len(list(all_matchings(inst.graph)))
        result = suite_ranking_matching(1, 0, inst=inst)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            (
                f"{count} matchings satisfy the characterization, expected exactly one",
                PERFECT_TEXT,
            )
        ]
        assert count == 5  # the empty one, three single edges, {u1 v2, u2 v1}
        result = suite_ranking_matching(8, 3, max_side=3)
        assert result.failures
        for f in result.failures:
            count = len(list(all_matchings(parse_instance(f.instance_text).graph)))
            assert f.description == (
                f"{count} matchings satisfy the characterization, expected exactly one"
            )
        _replays(result, suite_ranking_matching)

    def test_ranking_matching_reports_another_satisfying_matching(self, monkeypatch):
        real = suites.all_matchings  # the same edges as tuples: same verdicts, unequal
        monkeypatch.setattr(suites, "all_matchings", lambda g: map(tuple, real(g)))
        inst = parse_instance(PERFECT_TEXT)
        result = suite_ranking_matching(1, 0, inst=inst)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            ("the unique satisfying matching is not the computed one", PERFECT_TEXT)
        ]
        result = suite_ranking_matching(5, 3, max_side=3)
        assert result.cases == len(result.failures) == 5
        _replays(result, suite_ranking_matching)

    def test_removal_suites_report_a_size_change(self, example6, monkeypatch):
        real, ghost = suites.removal_diff_online, edge("u0", "v0")

        def growing(one, x):  # the reduced matching gains an edge
            d = real(one, x)
            return replace(d, reduced=d.baseline | {ghost})

        monkeypatch.setattr(suites, "removal_diff_online", growing)
        result = suite_lemma7(1, 0, inst=example6)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            (f"deleting {x!r} changed the size by -1", serialize_instance(example6))
            for x in example6.arrival
        ]
        result = suite_lemma7(10, 2, max_side=4)
        assert result.cases == len(result.failures) == 10
        _replays(result, suite_lemma7)

    @pytest.mark.parametrize(
        "module, name, fault, text",
        [
            (
                structure, "zig", lambda real: lambda ctx, v: real(ctx, v)[::-1],
                "cascade does not start at {x!r}",
            ),
            (
                suites, "is_alternating_path", lambda real: lambda p, m: False,
                "cascade from {x!r} does not alternate against both matchings",
            ),
            (
                suites, "vertices", lambda real: lambda m: frozenset(),
                "cascade from {x!r} has an uncovered interior vertex",
            ),
        ],
    )
    def test_removal_suites_report_a_bad_cascade(
        self, example6, monkeypatch, module, name, fault, text
    ):
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        for suite, side in ((suite_lemma7, example6.arrival), (suite_lemma8, example6.ranking)):
            result = suite(1, 0, inst=example6)
            moved = _moved(example6, side)
            assert len(moved) > 0 and result.cases == 6
            assert [(f.description, f.instance_text) for f in result.failures] == [
                (text.format(x=x), serialize_instance(example6)) for x in moved
            ]
            result = suite(20, 5, max_side=4)
            assert result.failures
            _replays(result, suite)

    def test_lemma3_reports_the_first_broken_link(self, monkeypatch):
        real = suites.lemma3_chain

        def broken(one, m_star):  # every link from t = 2 on misses its prefix sum
            return [
                replace(link, prefix_sum=link.prefix_sum + (link.t > 1))
                for link in real(one, m_star)
            ]

        monkeypatch.setattr(suites, "lemma3_chain", broken)
        inst = parse_instance(PERFECT_TEXT)
        result = suite_lemma3(1, 0, inst=inst)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            ("chain link broken at t=2", serialize_instance(inst))
        ]
        result = suite_lemma3(10, 1, max_side=4)
        assert all(f.description == "chain link broken at t=2" for f in result.failures)
        _replays(result, suite_lemma3)

    def test_lemma5_reports_changes_and_breaches(self, example6, monkeypatch):
        monkeypatch.setattr(suites, "check_removal_stability", lambda *args: False)
        result = suite_lemma5(4, 8, inst=example6)
        assert len(result.failures) == 4
        for f in result.failures:
            assert f.description.startswith("cascade from ")
            assert f.instance_text == serialize_instance(example6)

        def breach(one, xs, probe):
            raise GuardViolation("planted")

        monkeypatch.setattr(suites, "check_removal_stability", breach)
        result = suite_lemma5(3, 1, max_side=4)
        assert [f.description for f in result.failures] == [
            "sampler produced a guard breach: planted"
        ] * 3

    @pytest.mark.parametrize(
        "suite, checker",
        [(suite_theorem4, "check_theorem4"), (suite_theorem6, "check_theorem6")],
    )
    def test_ratio_suites_report_a_failed_verdict(self, suite, checker, monkeypatch):
        real = getattr(suites, checker)
        monkeypatch.setattr(suites, checker, lambda one: replace(real(one), holds=False))
        inst = parse_instance(PERFECT_TEXT)
        result = suite(3, 0, inst=inst)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            ("expected ratio fell below the bound", serialize_instance(inst))
        ]
        assert [row["verdict"] for row in result.notes["rows"]] == ["fail"]
        result = suite(4, 2, max_side=4)
        assert result.cases == len(result.failures) == len(result.notes["rows"]) == 4
        _replays(result, suite)

    def test_rank_move_reports_readings_that_split(self, monkeypatch):
        calls = []

        def alternating(one, m_star, baseline, v, i):
            calls.append(v)
            odd = len(calls) % 2 == 1
            return RankMoveVerdict(False, True, odd, not odd)

        monkeypatch.setattr(suites, "_rank_move", alternating)
        inst = make_instance(
            "v1 v2 v3 v4", "u1 u2 u3 u4",
            [("u1", "v1"), ("u1", "v3"), ("u2", "v2"), ("u3", "v4"), ("u4", "v1")],
        )
        result = suite_rank_move(1, 0, inst=inst)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            ("neither rank reading held on all 4 pairs (moved 2, original 2)", "")
        ]
        calls.clear()
        result = suite_rank_move(10, 0)
        pairs = result.notes["pairs"]
        assert pairs == len(calls) >= 2
        assert result.failures[-1].instance_text == ""
        assert result.failures[-1].description.startswith(
            f"neither rank reading held on all {pairs} pairs"
        )

    def test_rank_move_reports_a_pair_with_no_reading(self, monkeypatch):
        neither = RankMoveVerdict(False, True, False, False)
        monkeypatch.setattr(suites, "_rank_move", lambda *args: neither)
        inst = make_instance(
            "v1 v2 v3 v4", "u1 u2 u3 u4",
            [("u1", "v1"), ("u1", "v3"), ("u2", "v2"), ("u3", "v4"), ("u4", "v1")],
        )
        text = serialize_instance(inst)
        result = suite_rank_move(1, 0, inst=inst)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            (f"no rank reading holds for 'v3' moved to {i}", text) for i in range(4)
        ] + [("neither rank reading held on all 4 pairs (moved 0, original 0)", "")]
        result = suite_rank_move(6, 4)
        *per_pair, last = result.failures
        assert len(per_pair) == result.notes["pairs"] > 0
        assert all(f.description.startswith("no rank reading holds for ") for f in per_pair)
        assert last.instance_text == "" and "(moved 0, original 0)" in last.description
        _replays(result, suite_rank_move)

    def test_rank_move_reports_an_unseated_partner(self, monkeypatch):
        unseated = RankMoveVerdict(False, False, None, None)
        monkeypatch.setattr(suites, "_rank_move", lambda *args: unseated)
        result = suite_rank_move(6, 4)
        *per_pair, last = result.failures
        assert len(per_pair) == result.notes["pairs"] > 0
        assert all("unmatched after move to" in f.description for f in per_pair)
        assert last.instance_text == "" and "(moved 0, original 0)" in last.description
        _replays(result, suite_rank_move)
