"""Acceptance gate: eleven criteria, one test (and one verdict line) each.

Criterion 3's chain and theorem 4 are also gated exactly on planted
instances of 10 and 12 a side, beyond the reach of an n!-ranking table.

Run with ``pytest tests/test_acceptance.py -v`` to get the per-criterion
pass/fail lines; add ``-s`` for the numeric detail each test prints.
Sample counts and tolerances are stated inline; everything random is seeded
and therefore reproducible bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from rankinglab import (
    BipartiteInstance,
    Permutation,
    ZigZagContext,
    all_matchings,
    check_rank_move,
    check_theorem4,
    check_theorem6,
    check_zig_zag_symmetry,
    competitive_bound,
    edge,
    exact_expected_size,
    gamma_min_ratio,
    gen_perfect,
    is_alternating_path,
    is_ranking_matching,
    lemma3_chain,
    mc_expected_size,
    online_match,
    partner,
    path_edges,
    remove_vertices,
    removal_diff_offline,
    removal_diff_online,
    symmetric_difference,
    vertices,
    zig,
)
from rankinglab.cli import main
from rankinglab.rng import stream

from .conftest import DATA

BASE_SEED = 20260823


def random_instance(g, max_side: int = 6) -> BipartiteInstance:
    n_off = 1 + g.below(max_side)
    n_on = 1 + g.below(max_side)
    p = 0.05 + 0.9 * g.uniform()
    offline = [f"v{k}" for k in range(1, n_off + 1)]
    online = [f"u{k}" for k in range(1, n_on + 1)]
    edges = frozenset(
        edge(u, v) for u in online for v in offline if g.uniform() < p
    )
    return BipartiteInstance(
        edges, Permutation(g.shuffled(offline)), Permutation(g.shuffled(online))
    )


@pytest.fixture(scope="session")
def perfect_pool():
    """210 planted-perfect instances, n cycling 1..6, varying extra density."""
    pool = []
    for k in range(210):
        n = k % 6 + 1
        extra = (k // 6) % 10 / 10
        pool.append(gen_perfect(n, extra, BASE_SEED + k))
    return pool


def test_criterion_01_perfect_instances_meet_bound(perfect_pool):
    # >= 200 perfect-matching instances, n in 1..6, exact rational inequality
    assert len(perfect_pool) >= 200
    for inst, _ in perfect_pool:
        v = check_theorem4(inst)
        assert not v.vacuous
        assert v.holds, f"bound violated on {v}"
    print(f"criterion 1: ratio >= bound on all {len(perfect_pool)} perfect instances")


def test_criterion_02_arbitrary_instances_meet_bound():
    # >= 200 arbitrary instances up to 6+6, n = maximum matching size, exact
    g = stream(BASE_SEED, 1)
    checked = 0
    nonvacuous = 0
    for _ in range(200):
        inst = random_instance(g)
        v = check_theorem6(inst)
        assert v.holds, f"bound violated on {v}"
        checked += 1
        nonvacuous += 0 if v.vacuous else 1
    assert checked >= 200 and nonvacuous >= 150
    print(f"criterion 2: ratio >= bound on {checked} instances ({nonvacuous} non-vacuous)")


def test_criterion_03_probability_chain_exact(perfect_pool):
    # every link of the per-rank chain, exact, on every criterion-1 instance
    links_checked = 0
    for inst, planted in perfect_pool:
        for link in lemma3_chain(inst, planted):
            assert link.move_equal, f"dual sample spaces disagree at t={link.t}"
            assert link.survival_le, f"survival bound fails at t={link.t}"
            assert link.count_equal, f"count identity fails at t={link.t}"
            assert link.prefix_equal, f"prefix identity fails at t={link.t}"
            assert link.inequality, f"chain inequality fails at t={link.t}"
            links_checked += 1
    print(f"criterion 3: {links_checked} chain links hold exactly")


@pytest.mark.parametrize("n, seed", [(10, 0), (10, 1), (12, 2)])
def test_exact_chain_and_bound_beyond_the_table(n, seed):
    # sizes no n!-ranking table reaches (479M rankings at n=12), cap raised to n
    inst, planted = gen_perfect(n, 0.4, seed)
    links = lemma3_chain(inst, planted, cap=n)
    assert [link.t for link in links] == list(range(1, n + 1))
    assert all(link.holds for link in links)
    assert check_theorem4(inst, cap=n).holds
    print(f"n={n}: {n} chain links and theorem 4 hold exactly")


def _removal_trial(d, x, m):
    assert len(m) - len(d.reduced) in (0, 1), "size dropped by more than one"
    assert len(d.reduced) <= len(m)
    if d.equal:
        return
    assert d.path[0] == x
    assert frozenset(path_edges(list(d.path))) == symmetric_difference(m, d.reduced)
    assert is_alternating_path(list(d.path), m)
    assert is_alternating_path(list(d.path), d.reduced)


@pytest.fixture(scope="session")
def removal_trials():
    """1000 seeded removal trials per side, shared by criteria 4 and 5."""
    g = stream(BASE_SEED, 2)
    online_results = []
    offline_results = []
    while len(online_results) < 1000 or len(offline_results) < 1000:
        inst = random_instance(g)
        m = online_match(inst)
        if len(online_results) < 1000:
            u = g.choice(sorted(inst.online))
            online_results.append((removal_diff_online(inst, u), u, m))
        if len(offline_results) < 1000:
            v = g.choice(sorted(inst.offline))
            offline_results.append((removal_diff_offline(inst, v), v, m))
    return online_results, offline_results


def test_criterion_04_removal_dichotomy(removal_trials):
    # removal changes nothing or exactly one cascade path, both sides
    online_results, offline_results = removal_trials
    assert len(online_results) >= 1000 and len(offline_results) >= 1000
    for results in (online_results, offline_results):
        for d, x, m in results:
            _removal_trial(d, x, m)
    moved = sum(1 for d, _, _ in online_results + offline_results if not d.equal)
    print(f"criterion 4: 2000 removal trials, {moved} with a cascade path, 0 failures")


def test_criterion_05_removal_size_drop(removal_trials):
    # |M'| <= |M| and the drop is 0 or 1 in every criterion-4 trial
    online_results, offline_results = removal_trials
    drops = {0: 0, 1: 0}
    for d, _, m in online_results + offline_results:
        drop = len(m) - len(d.reduced)
        assert drop in (0, 1)
        drops[drop] += 1
    print(f"criterion 5: size drops {drops} over 2000 trials")


def test_criterion_06_unique_declarative_matching():
    # exhaustive enumeration on >= 100 instances up to 5+5: one satisfier,
    # equal to the computed matching, party-symmetric on every candidate
    g = stream(BASE_SEED, 3)
    for _ in range(100):
        inst = random_instance(g, max_side=5)
        expect = online_match(inst)
        satisfiers = []
        for m in all_matchings(inst.graph):
            direct = is_ranking_matching(inst.graph, m, inst.arrival, inst.ranking)
            swapped = is_ranking_matching(inst.graph, m, inst.ranking, inst.arrival)
            assert direct == swapped, "party swap changed a verdict"
            if direct:
                satisfiers.append(m)
        assert satisfiers == [expect]
    print("criterion 6: unique party-symmetric satisfier on 100 instances")


def test_criterion_07_removal_symmetry(example6):
    # 1000 randomized matched probes plus the frozen worked-example path
    golden = ("u2", "v2", "u3", "v4", "u5", "v5", "u6")
    d = removal_diff_online(example6, "u2")
    assert d.path == golden
    m2 = online_match(example6.without_vertices({"u2"}))
    reduced_ctx = ZigZagContext(
        remove_vertices(example6.graph, {"u2"}), m2, example6.arrival, example6.ranking
    )
    assert ("u2",) + zig(reduced_ctx, "v2") == golden
    assert check_zig_zag_symmetry(example6, "u2")

    g = stream(BASE_SEED, 4)
    probes = 0
    while probes < 1000:
        inst = random_instance(g)
        matched = sorted(vertices(online_match(inst)))
        if not matched:
            continue
        x = g.choice(matched)
        assert check_zig_zag_symmetry(inst, x)
        probes += 1
    print(f"criterion 7: golden path reproduced, {probes} symmetry probes passed")


def test_criterion_08_rank_move_report(perfect_pool):
    # exhaustive over (unmatched v, target index) on criterion-1 instances
    # with n <= 5; the designated partner must stay matched, and at least
    # one inequality reading must hold universally
    pairs = 0
    moved_rank_holds = 0
    original_rank_holds = 0
    for inst, planted in perfect_pool:
        n = len(inst.ranking)
        if n > 5:
            continue
        m = online_match(inst)
        free = sorted(v for v in inst.ranking if partner(m, v) is None)
        for v in free:
            for i in range(n):
                verdict = check_rank_move(inst, planted, v, i)
                assert not verdict.skipped
                assert verdict.partner_matched, f"partner lost on {v}->{i}"
                pairs += 1
                moved_rank_holds += verdict.holds_moved_rank
                original_rank_holds += verdict.holds_original_rank
    survived = [
        name
        for name, hits in (
            ("moved-order", moved_rank_holds),
            ("original-order", original_rank_holds),
        )
        if hits == pairs
    ]
    assert pairs > 0
    assert survived, (
        f"neither reading universal: moved {moved_rank_holds}/{pairs}, "
        f"original {original_rank_holds}/{pairs}"
    )
    print(
        f"criterion 8: {pairs} move pairs, readings holding universally: "
        f"{', '.join(survived)} (moved {moved_rank_holds}/{pairs}, "
        f"original {original_rank_holds}/{pairs})"
    )


def test_criterion_09_bound_limit(capsys):
    # numeric limit content of the guaranteed ratio
    assert abs(competitive_bound(10**6) - (1 - 1 / math.e)) < 1e-6
    vals = [competitive_bound(n) for n in range(1, 10**4 + 1)]
    assert all(a < b for a, b in zip(vals, vals[1:])), "bound not strictly increasing"
    assert main(["gamma", "--n", "1"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert gamma_min_ratio(1) == 1 >= Fraction(1, 2)
    print("criterion 9: limit gap < 1e-6, strictly increasing, worst family ratio 1")


def test_criterion_10_monte_carlo_accuracy():
    # 20 enumerable instances, 1e5 samples each, fixed seeds
    samples = 100_000
    instances = []
    for k in range(20):
        if k % 2 == 0:
            instances.append(gen_perfect(4 + k % 3, 0.4, BASE_SEED + 500 + k)[0])
        else:
            instances.append(random_instance(stream(BASE_SEED + 500, k)))
    hits = 0
    for k, inst in enumerate(instances):
        exact = float(exact_expected_size(inst).value)
        est = mc_expected_size(inst, samples, seed=1000 + k)
        tol = 4 * est.stddev / math.sqrt(samples)
        hits += abs(est.mean - exact) <= tol
    assert hits >= 19, f"only {hits}/20 estimates within 4 standard errors"
    again = mc_expected_size(instances[0], samples, seed=1000)
    assert again == mc_expected_size(instances[0], samples, seed=1000)
    print(f"criterion 10: {hits}/20 within tolerance, repeat estimate bit-identical")


def test_criterion_11_golden_fixture_byte_stable(capsys):
    # the worked example: frozen matching, byte-identical across runs
    path = str(DATA / "example6.obm")
    assert main(["run", path]) == 0
    first = capsys.readouterr().out
    assert main(["run", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first == (
        "matched u1 v1\n"
        "matched u2 v2\n"
        "matched u3 v4\n"
        "matched u4 v3\n"
        "matched u5 v5\n"
        "size 5\n"
    )
    assert "u6" not in first and "v6" not in first
    print("criterion 11: fixture matching byte-stable, u6 and v6 unmatched")
