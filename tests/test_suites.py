"""Sanity tests for the replayable check suites and their registry."""

from __future__ import annotations

from dataclasses import replace

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rankinglab import (
    CaseFailure,
    DichotomyViolation,
    GuardViolation,
    RankMoveVerdict,
    SUITES,
    SuiteResult,
    check_rank_move,
    check_theorem4,
    gen_perfect,
    gen_random,
    lemma3_chain,
    parse_instance,
    perfect_matching_of,
    serialize_instance,
    stream,
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
)

from rankinglab import graph, probability, structure, suites
from rankinglab.cli import main
from rankinglab.engine import rank_match

from .conftest import DATA, instances, make_instance
from .oracles import all_matchings, check_lemma3, edge, is_alternating_path, online_match, vertices
from .test_structure import (
    cascade_oracle,
    every_graph,
    name_context,
    stability_oracle,
)

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

    def test_ranking_matching_builds_one_index_per_case(self, monkeypatch):
        real, built = suites._transpose, []

        def counted(masks, n):
            built.append(masks)
            return real(masks, n)

        monkeypatch.setattr(suites, "_transpose", counted)
        inst = parse_instance(PERFECT_TEXT)
        result = suite_ranking_matching(1, 0, inst=inst)
        assert result.cases == 1 and result.passed
        # the arrivals' masks, once: shared by the output's check, each matched
        # pair's removal and both orientations of all 5 matchings
        assert built == [inst.reach]
        result = suite_ranking_matching(30, 5, max_side=5)
        assert result.passed and len(built) == 1 + result.cases == 31

    def test_lemma6_probes_every_matched_vertex(self, example6):
        result = suite_lemma6(1, 0, inst=example6)
        assert result.cases == 10  # five matched pairs
        assert result.passed

    def test_removal_suites_cover_the_whole_side(self, example6):
        assert suite_lemma7(1, 0, inst=example6).cases == 6
        assert suite_lemma8(1, 0, inst=example6).cases == 6
        assert suite_lemma7(1, 0, inst=example6).passed
        assert suite_lemma8(1, 0, inst=example6).passed

    @pytest.mark.parametrize("suite, side", [(suite_lemma7, "arrival"), (suite_lemma8, "ranking")])
    def test_removal_suites_walk_their_side_in_order(self, example6, suite, side, monkeypatch):
        seen, real = [], suites._removal_failures

        def recorded(one, core, x, offline, p, paths=True):
            seen.append(x)
            return real(one, core, x, offline, p, paths)

        monkeypatch.setattr(suites, "_removal_failures", recorded)
        for inst in (example6, gen_random(4, 5, 0.5, 3)):
            seen.clear()
            assert suite(1, 0, inst=inst).passed
            assert tuple(seen) == getattr(inst, side).order

    def test_lemma3_path_designates_no_perfect_matching(self, monkeypatch):
        def banned(*args):
            raise AssertionError("a perfect matching was designated by name")

        monkeypatch.setattr(graph, "_designated", banned)
        assert not hasattr(probability, "_mate_map")
        inst = parse_instance(serialize_instance(gen_perfect(5, 0.4, 2)[0]))
        assert len(lemma3_chain(inst)) == 5
        assert all(check_lemma3(inst).values())
        assert check_theorem4(inst).holds
        assert suite_lemma3(1, 0, inst=inst).passed
        assert "graph" not in vars(inst)

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
        with pytest.raises(ValueError, match="no perfect matching covering both parties"):
            suite_rank_move(1, 0, inst=make_instance("v1 v2", "u1", [("u1", "v1")]))

    def test_rank_move_takes_one_baseline_per_case(self, monkeypatch):
        calls = []

        def counting(real):
            def wrapped(*args):
                calls.append(args)
                return real(*args)

            return wrapped

        # the baseline is suites' ``_greedy``; neither module binds the name-level run
        assert not hasattr(suites, "rank_match") and not hasattr(structure, "rank_match")
        monkeypatch.setattr(suites, "_greedy", counting(suites._greedy))
        inst = make_instance(
            "v1 v2 v3 v4", "u1 u2 u3 u4",
            [("u1", "v1"), ("u1", "v3"), ("u2", "v2"), ("u3", "v4"), ("u4", "v1")],
        )
        suite_rank_move(1, 0, inst=inst)
        assert len(calls) == 1  # one baseline; each pair reruns structure's ``_greedy`` alone
        for seed in range(6):
            calls.clear()
            result = suite_rank_move(25, seed)
            assert len(calls) == result.cases

    def test_rank_move_reads_no_names(self):
        inst = make_instance(
            "v1 v2 v3 v4", "u1 u2 u3 u4",
            [("u1", "v1"), ("u1", "v3"), ("u2", "v2"), ("u3", "v4"), ("u4", "v1")],
        )
        expected = [suite_rank_move(1, 0, inst=inst), suite_rank_move(25, 3)]
        assert all(r.notes["pairs"] > 0 for r in expected)

        # structure binds no name-level ``partner`` for the suite to reach
        assert not hasattr(structure, "partner")
        assert [suite_rank_move(1, 0, inst=inst), suite_rank_move(25, 3)] == expected

    def test_lemma3_draws_designate_no_m_star(self, monkeypatch):
        expected = suite_lemma3(30, 2)
        assert expected.cases == 30 and expected.passed

        def no_m_star(*args):
            raise AssertionError("a drawn lemma-3 case passed an M*")

        monkeypatch.setattr(probability, "_star", no_m_star)
        assert suite_lemma3(30, 2) == expected

    def test_row_suites_are_the_ones_that_write_rows(self):
        for name, suite in SUITES.items():
            result = suite(1, 0, max_side=3)
            assert ("rows" in result.notes) == (name in suites._ROW_SUITES)

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
        real = structure._walk  # a walk that opens with a zig step stops at its start

        def start_only(x, zig_step, *arrays):
            return [x] if zig_step else real(x, zig_step, *arrays)

        monkeypatch.setattr(structure, "_walk", start_only)

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

    @pytest.fixture
    def revisiting_path(self, monkeypatch):
        real = structure._ids  # steps back over a cascade's last edge: same edge set

        def revisiting(path, n):
            ids = real(path, n)
            return ids + ids[-2:-1]

        monkeypatch.setattr(structure, "_ids", revisiting)

    def test_removal_suites_report_a_revisiting_cascade(self, example6, revisiting_path):
        text = serialize_instance(example6)
        for suite, side in ((suite_lemma7, example6.arrival), (suite_lemma8, example6.ranking)):
            moved = _moved(example6, side)
            result = suite(1, 0, inst=example6)
            assert len(moved) > 0
            assert [(f.description, f.instance_text) for f in result.failures] == [
                (f"cascade from {x!r} revisits a vertex", text) for x in moved
            ]

    def test_revisiting_cascade_exits_one_from_the_cli(self, revisiting_path, capsys):
        assert main(["check", str(DATA / "example6.obm"), "--suite", "lemma7"]) == 1
        out = capsys.readouterr().out
        assert "FAIL: cascade from 'u1' revisits a vertex" in out
        assert "--- failing instance ---" in out

    def test_lemma6_reports_a_start_only_walk(self, example6, start_only_walk):
        result = suite_lemma6(1, 0, inst=example6)
        assert result.cases == 10 and result.failures
        for f in result.failures:
            assert f.description.startswith("zig and zag disagree after deleting ")
            assert f.instance_text == serialize_instance(example6)
        assert suite_lemma6(15, 2, max_side=5).failures

    def test_ranking_matching_reports_a_rejected_output(self, example6, monkeypatch):
        monkeypatch.setattr(suites, "_ranking_holds", lambda *args: False)
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
        monkeypatch.setattr(suites, "_cleared", lambda masks, i, k: masks)  # removes nothing
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
        real_transpose, real_holds, built = suites._transpose, suites._ranking_holds, []

        def recorded(masks, n):
            built.append(real_transpose(masks, n))
            return built[-1]

        def arrivals_only(prs, cols, rows):  # false whenever the ranked side chooses
            return real_holds(prs, cols, rows) and rows is not built[-1]

        monkeypatch.setattr(suites, "_transpose", recorded)
        monkeypatch.setattr(suites, "_ranking_holds", arrivals_only)
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
        monkeypatch.setattr(suites, "_ranking_holds", lambda *args: True)
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
        real = suites._matchings  # the same partners as lists: same verdicts, unequal
        monkeypatch.setattr(suites, "_matchings", lambda cols: [list(m) for m in real(cols)])
        inst = parse_instance(PERFECT_TEXT)
        result = suite_ranking_matching(1, 0, inst=inst)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            ("the unique satisfying matching is not the computed one", PERFECT_TEXT)
        ]
        result = suite_ranking_matching(5, 3, max_side=3)
        assert result.cases == len(result.failures) == 5
        _replays(result, suite_ranking_matching)

    def test_removal_suites_report_a_size_change(self, example6, monkeypatch):
        # the reduced matching is the baseline plus a new arrival's edge
        monkeypatch.setattr(suites, "_cascade", _plus_an_edge(suites._cascade))
        result = suite_lemma7(1, 0, inst=example6)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            (f"deleting {x!r} changed the size by -1", serialize_instance(example6))
            for x in example6.arrival
        ]
        result = suite_lemma7(10, 2, max_side=4)
        assert result.cases == len(result.failures) == 10
        _replays(result, suite_lemma7)

    def test_removal_suites_report_a_size_drop_of_two(self, example6, monkeypatch):
        # the reduced matching is the baseline less two of its pairs
        monkeypatch.setattr(suites, "_cascade", _minus_two_pairs(suites._cascade))
        result = suite_lemma7(1, 0, inst=example6)
        expected = [
            (f"deleting {x!r} changed the size by 2", serialize_instance(example6))
            for x in example6.arrival
        ]
        assert [(f.description, f.instance_text) for f in result.failures] == expected
        assert [
            (text, serialize_instance(example6))
            for x in example6.arrival
            for text in removal_failures_oracle(example6, x, reduced=_less_two_edges)
        ] == expected
        result = suite_lemma8(10, 2, max_side=4)
        assert result.failures
        _replays(result, suite_lemma8)

    @pytest.mark.parametrize(
        "module, name, fault, text",
        [
            (
                structure, "_ids", lambda real: lambda *args: real(*args)[::-1],
                "cascade does not start at {x!r}",
            ),
            (
                suites, "_alternates", lambda real: lambda *args: False,
                "cascade from {x!r} does not alternate against both matchings",
            ),
            (
                suites, "_covered", lambda real: lambda *args: set(),
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
        real = suites._chain

        def broken(*index):  # every link from t = 2 on misses its prefix sum
            return [
                replace(link, prefix_sum=link.prefix_sum + (link.t > 1)) for link in real(*index)
            ]

        monkeypatch.setattr(suites, "_chain", broken)
        inst = parse_instance(PERFECT_TEXT)
        result = suite_lemma3(1, 0, inst=inst)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            ("chain link broken at t=2", serialize_instance(inst))
        ]
        result = suite_lemma3(10, 1, max_side=4)
        assert all(f.description == "chain link broken at t=2" for f in result.failures)
        _replays(result, suite_lemma3)

    def test_lemma5_reports_changes_and_breaches(self, example6, monkeypatch):
        monkeypatch.setattr(suites, "_stable", lambda *args: False)
        result = suite_lemma5(4, 8, inst=example6)
        assert len(result.failures) == 4
        for f in result.failures:
            assert f.description.startswith("cascade from ")
            assert f.instance_text == serialize_instance(example6)

        def breach(*args):
            raise GuardViolation("planted")

        monkeypatch.setattr(suites, "_stable", breach)
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

        def alternating(reach, arrivals, bar, j, i):
            calls.append(bar)
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

    def test_rank_move_reports_a_partner_with_no_neighbour(self, monkeypatch, tmp_path, capsys):
        real = structure._rank_move  # the real move, with arrival j's edges dropped

        def partnerless(reach, arrivals, bar, j, i):
            return real([m & ~(1 << j) for m in reach], arrivals, bar, j, i)

        monkeypatch.setattr(suites, "_rank_move", partnerless)
        inst = parse_instance(PERFECT_TEXT)  # v2 goes unmatched; M* pairs it with u1
        result = suite_rank_move(1, 0, inst=inst)
        assert [(f.description, f.instance_text) for f in result.failures] == [
            (f"designated partner of 'v2' unmatched after move to {i}", PERFECT_TEXT)
            for i in range(2)
        ] + [("neither rank reading held on all 2 pairs (moved 0, original 0)", "")]
        path = tmp_path / "perfect.obm"
        path.write_text(PERFECT_TEXT)
        assert main(["check", str(path), "--suite", "rank-move"]) == 1
        out = capsys.readouterr().out
        assert "designated partner of 'v2' unmatched after move to 0" in out


def test_vertex_cases_give_up_when_no_draw_lists_a_vertex():
    cases = suites._vertex_cases(1, None, 0, 3, lambda one, core: [])
    with pytest.raises(RuntimeError, match="failed to draw an instance"):
        next(cases)


# ---------------------------------------------------------------- name-level oracles
#
# The removal check of lemmas 7-9 and lemma 5's cases and check as they ran on
# names, before the suites moved onto positions: the name-level removal diff,
# ``is_alternating_path`` and ``vertices``, and a probe sampler that sorts the
# names of both parties for every probe.  The position path must give the same
# failures, text for text, with and without a fault planted in both.


def removal_failures_oracle(
    one, x, paths=True, cascade=cascade_oracle, alternates=is_alternating_path,
    covered_by=vertices, reduced=None,
):
    """Deleting x: the size drops by 0 or 1, and (``paths``) along a cascade."""
    m, m2, p = rank_match(one), rank_match(one.without_vertices({x})), None
    if m != m2:
        p = cascade(name_context(one, x in one.ranking, m), x, True)
        if set(map(frozenset, zip(p, p[1:]))) != m ^ m2:
            return [
                f"deleting {x!r} changed the matching by {sorted(map(sorted, m ^ m2))}, "
                f"not by the cascade path {list(p)}"
            ]
    m2 = m2 if reduced is None else reduced(m)
    drop = len(m) - len(m2)
    if drop not in (0, 1):
        return [f"deleting {x!r} changed the size by {drop}"]
    if not paths or p is None:
        return []
    if p[0] != x:
        return [f"cascade does not start at {x!r}"]
    if len(set(p)) != len(p):
        return [f"cascade from {x!r} revisits a vertex"]
    if not all(alternates(p, mm) for mm in (m, m2)):
        return [f"cascade from {x!r} does not alternate against both matchings"]
    covered = covered_by(m)
    if any(v not in covered for v in p[:-1]):
        return [f"cascade from {x!r} has an uncovered interior vertex"]
    return []


def guard_breaches(one, offline_removed, probe):
    """The removed party's vertices that break ``check_removal_stability``'s
    guard for ``probe``, on names."""
    ctx = name_context(one, not offline_removed, rank_match(one))
    rank = ctx.ranking._pos
    cutoff = rank[probe] if probe in rank else rank.get(ctx.mate.get(probe))
    return {
        x for x in ctx.arrival
        if cutoff is not None and rank.get(ctx.mate.get(x), -1) >= cutoff
    }


def lemma5_oracle(count, seed, inst=None, max_side=8, stable=stability_oracle, breaches=None):
    """``suite_lemma5`` on names: its case count and its (description, text) failures."""
    g, cases, failures = stream(seed, 0), 0, []
    for _ in range(count if inst is None or inst.offline | inst.online else 0):
        one = inst if inst is not None else suites._rand_instance(g, max_side)
        from_arrival = g.below(2) == 0
        party = sorted(one.online if from_arrival else one.offline)
        probe = g.choice(sorted(one.offline | one.online))
        bad = (breaches or guard_breaches)(one, not from_arrival, probe)
        xs = frozenset(x for x in party if x not in bad and g.below(2) == 0)
        cases += 1
        try:
            if stable(one, xs, probe):
                continue
            text = f"cascade from {probe!r} changed after deleting {sorted(xs)}"
        except GuardViolation as e:
            text = f"sampler produced a guard breach: {e}"
        failures.append((text, serialize_instance(one)))
    return cases, failures


def _start_only(real):
    return lambda x, zig_step, *arrays: [x] if zig_step else real(x, zig_step, *arrays)


def _steps_back(path):
    return path + path[-2:-1]


def _plus_an_edge(real):
    def growing(*args):  # the baseline plus a new arrival matched to ranked id 0
        base, _, path = real(*args)
        return base, [*base, 0], path

    return growing


def _minus_two_pairs(real):
    def shrinking(*args):  # the baseline less its first two pairs by arrival position
        base, _, path = real(*args)
        gone = [j for j, i in enumerate(base) if i >= 0][:2]
        return base, [-1 if j in gone else i for j, i in enumerate(base)], path

    return shrinking


def _less_two_edges(m):
    return m - set(sorted(m, key=sorted)[:2])


#: a fault planted in both paths: (position seams to patch, oracle keywords)
REMOVAL_FAULTS = {
    "none": ({}, {}),
    "walk stops at its start": (
        {(structure, "_walk"): _start_only},
        {"cascade": lambda ctx, x, zig_step: (x,)},
    ),
    "path reversed": (
        {(structure, "_ids"): lambda real: lambda *args: real(*args)[::-1]},
        {"cascade": lambda ctx, x, zig_step: cascade_oracle(ctx, x, zig_step)[::-1]},
    ),
    "path steps back": (
        {(structure, "_ids"): lambda real: lambda *args: _steps_back(real(*args))},
        {"cascade": lambda ctx, x, zig_step: _steps_back(cascade_oracle(ctx, x, zig_step))},
    ),
    "reduced is the baseline plus an edge": (
        {(suites, "_cascade"): _plus_an_edge},
        {"reduced": lambda m: m | {edge("u0", "v0")}},
    ),
    "reduced is the baseline less two pairs": (
        {(suites, "_cascade"): _minus_two_pairs},
        {"reduced": _less_two_edges},
    ),
    "nothing alternates": (
        {(suites, "_alternates"): lambda real: lambda *args: False},
        {"alternates": lambda p, m: False},
    ),
    "nothing is covered": (
        {(suites, "_covered"): lambda real: lambda *args: set()},
        {"covered_by": lambda m: frozenset()},
    ),
}


def _plant(monkeypatch, seams):
    for (module, name), fault in seams.items():
        monkeypatch.setattr(module, name, fault(getattr(module, name)))


def removal_mismatches(one, oracle_kwargs):
    """The vertices of both parties, each with and without ``paths``, where
    ``_removal_failures`` and its oracle give other failures."""
    core = structure._frames(one.reach, len(one.arrival))
    bad = []
    for offline, party in ((True, one.ranking), (False, one.arrival)):
        for p, x in enumerate(party):
            for paths in (True, False):
                got = suites._removal_failures(one, core, x, offline, p, paths)
                if got != removal_failures_oracle(one, x, paths, **oracle_kwargs):
                    bad.append((x, paths, got))
    return bad


class TestPositionsEqualNameLevel:
    """The structural suites on positions against the name-level check they replaced."""

    @pytest.mark.parametrize("fault", REMOVAL_FAULTS)
    def test_removal_on_every_three_by_three_graph(self, fault, monkeypatch):
        seams, kwargs = REMOVAL_FAULTS[fault]
        _plant(monkeypatch, seams)
        failing = 0
        for one in every_graph("v1 v2 v3", "u1 u2 u3"):
            assert removal_mismatches(one, kwargs) == [], serialize_instance(one)
            failing += any(removal_failures_oracle(one, x, True, **kwargs) for x in one.arrival)
        assert (failing > 0) == (fault != "none")

    def test_removal_on_every_sixteenth_four_by_four_graph(self):
        for one in every_graph("v1 v2 v3 v4", "u1 u2 u3 u4", step=16):
            assert removal_mismatches(one, {}) == [], serialize_instance(one)

    @settings(max_examples=60, deadline=None)
    @given(instances(max_side=6), st.sampled_from(sorted(REMOVAL_FAULTS)))
    def test_removal_on_random_instances(self, one, fault):
        seams, kwargs = REMOVAL_FAULTS[fault]
        with pytest.MonkeyPatch.context() as monkeypatch:
            _plant(monkeypatch, seams)
            assert removal_mismatches(one, kwargs) == []

    @pytest.mark.parametrize("fault", ["none", "walk stops at its start", "path steps back"])
    @pytest.mark.parametrize("suite", [suite_lemma7, suite_lemma8, suite_lemma9])
    def test_removal_suites_in_random_mode(self, suite, fault, monkeypatch):
        seams, kwargs = REMOVAL_FAULTS[fault]
        _plant(monkeypatch, seams)
        cases, real, failing = [], suites._removal_failures, 0

        def recorded(one, core, x, offline, p, paths=True):
            cases.append((one, x, paths))
            return real(one, core, x, offline, p, paths)

        monkeypatch.setattr(suites, "_removal_failures", recorded)
        for seed in range(20):
            cases.clear()
            result = suite(15, seed, max_side=5)
            expected = [
                (text, serialize_instance(one))
                for one, x, paths in cases
                for text in removal_failures_oracle(one, x, paths, **kwargs)
            ]
            assert result.cases == len(cases) == 15
            assert [(f.description, f.instance_text) for f in result.failures] == expected
            failing += len(expected)
        # lemma 9 checks no path, so a path that steps back passes it
        quiet = fault == "none" or suite is suite_lemma9 and fault == "path steps back"
        assert (failing == 0) == quiet

    @staticmethod
    def lemma5_faults(monkeypatch, fault):
        """Oracle keywords for a fault planted in both lemma-5 paths."""
        if fault == "cascade always moves":
            monkeypatch.setattr(suites, "_stable", lambda *args: False)
            return {"stable": lambda *args: False}
        if fault == "sampler ignores the guard":
            real = suites._stability_guard
            monkeypatch.setattr(suites, "_stability_guard", lambda *args: (*real(*args)[:2], -1))
            return {"breaches": lambda *args: set()}
        return {}

    def same_lemma5(self, count, seed, inst=None, max_side=8, **kwargs):
        result = suite_lemma5(count, seed, inst=inst, max_side=max_side)
        got = result.cases, [(f.description, f.instance_text) for f in result.failures]
        assert got == lemma5_oracle(count, seed, inst, max_side, **kwargs)
        return got[1]

    FAULTS5 = ["none", "cascade always moves", "sampler ignores the guard"]

    @pytest.mark.parametrize("fault", FAULTS5)
    def test_lemma5_on_every_three_by_three_graph(self, fault, monkeypatch):
        kwargs, failing = self.lemma5_faults(monkeypatch, fault), 0
        for k, one in enumerate(every_graph("v1 v2 v3", "u1 u2 u3")):
            failing += bool(self.same_lemma5(6, k, one, **kwargs))
        assert (failing > 0) == (fault != "none")

    def test_lemma5_on_every_sixteenth_four_by_four_graph(self):
        for k, one in enumerate(every_graph("v1 v2 v3 v4", "u1 u2 u3 u4", step=16)):
            self.same_lemma5(4, k, one)

    @settings(max_examples=60, deadline=None)
    @given(instances(max_side=6), st.integers(0, 2**32), st.sampled_from(FAULTS5))
    def test_lemma5_on_random_instances(self, one, seed, fault):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.same_lemma5(8, seed, one, **self.lemma5_faults(monkeypatch, fault))

    @pytest.mark.parametrize("fault", FAULTS5)
    def test_lemma5_in_random_mode(self, fault, monkeypatch):
        kwargs = self.lemma5_faults(monkeypatch, fault)
        failures = [self.same_lemma5(15, seed, max_side=5, **kwargs) for seed in range(20)]
        assert any(failures) == (fault != "none")


def lemma9_reference(inst, count, seed, removal):
    """``check FILE --suite lemma9``'s stdout and its probes, from a loop that
    replays the suite's draws and calls ``removal`` once per probe."""
    g, core, text = stream(seed, 0), structure._frames(inst.reach, len(inst.arrival)), ""
    probes, lines = [], []
    for k in range(count if inst.offline | inst.online else 0):
        side = (inst.arrival, inst.ranking)[k % 2] or (inst.ranking, inst.arrival)[k % 2]
        p = g.below(len(side))
        probes.append((side is inst.ranking, p))
        for d in removal(inst, core, side[p], side is inst.ranking, p, False):
            text = text or serialize_instance(inst)
            lines.append(f"FAIL: {d}\n--- failing instance ---\n{text}--- end ---\n")
    head = f"suite lemma9: {len(probes)} cases, {len(lines)} failures\n"
    return head + "".join(lines), probes


class TestLemma9GivenFile:
    """On a given file, lemma 9 checks each vertex once and reports every probe."""

    @pytest.fixture(params=["example6", "dense 8x8"])
    def path(self, request, tmp_path):
        if request.param == "example6":
            return DATA / "example6.obm"
        path = tmp_path / "d88.obm"
        path.write_text(serialize_instance(gen_random(8, 8, 0.6, 3)), encoding="utf-8")
        return path

    def run(self, path, count, capsys):
        rc = main(["check", str(path), "--suite", "lemma9", "--count", str(count), "--seed", "4"])
        return rc, capsys.readouterr().out

    @pytest.mark.parametrize("count", [0, 1, 20, 1000])
    def test_stdout_equals_a_check_per_probe(self, path, count, monkeypatch, capsys):
        real, checked = suites._removal_failures, []

        def counted(one, core, x, offline, p, paths=True):
            checked.append((offline, p))
            return real(one, core, x, offline, p, paths)

        inst = parse_instance(path.read_text(encoding="utf-8"))
        want, probes = lemma9_reference(inst, count, 4, real)
        monkeypatch.setattr(suites, "_removal_failures", counted)
        assert self.run(path, count, capsys) == (0, want)
        assert len(checked) == len(set(checked)) == len(set(probes))
        assert sorted(checked) == sorted(set(probes))
        if count == 1000:  # every vertex is probed, and checked once
            assert len(checked) == len(inst.arrival) + len(inst.ranking)

    @pytest.mark.parametrize("count", [20, 1000])
    def test_a_failing_vertex_fails_every_probe_of_it(self, path, count, monkeypatch, capsys):
        inst = parse_instance(path.read_text(encoding="utf-8"))
        _, probes = lemma9_reference(inst, count, 4, suites._removal_failures)
        target = max(sorted(set(probes)), key=probes.count)  # the most probed vertex
        real = suites._cascade

        def faulty(core, offline, p, one):
            if (offline, p) == target:
                raise DichotomyViolation(f"planted at {p}")
            return real(core, offline, p, one)

        monkeypatch.setattr(suites, "_cascade", faulty)
        want, _ = lemma9_reference(inst, count, 4, suites._removal_failures)
        assert self.run(path, count, capsys) == (1, want)
        assert want.count(f"FAIL: planted at {target[1]}\n") == probes.count(target) > 1


class TestRunLoop:
    def test_failures_in_case_order(self, example6, monkeypatch):
        small = parse_instance(PERFECT_TEXT)
        cases = [(one, k) for k in range(9) for one in (example6, small)]

        def check(one, k):  # none, one or two descriptions a case
            return [f"fault {j} of case {k}" for j in range(k % 3)]

        serialized = []
        monkeypatch.setattr(suites, "serialize_instance",
                            lambda one: serialized.append(one) or serialize_instance(one))
        result = suites._run("x", iter(cases), check)
        assert result.cases == len(cases) and result.notes == {}
        assert result.failures == [
            CaseFailure(d, serialize_instance(c[0])) for c in cases for d in check(*c)
        ]
        # one text per failing case; a passing case serializes nothing
        assert serialized == [one for one, k in cases if k % 3]
