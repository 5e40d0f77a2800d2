"""Exact-distribution and Monte Carlo tests.

The frozen Fractions below were computed by hand over the two rankings of
the small instance (and cross-checked against an independent enumeration
script) before being committed.
"""

from __future__ import annotations

import gc
import math
import struct
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankinglab import (
    BipartiteInstance,
    CapExceeded,
    ChainLink,
    McEstimate,
    Permutation,
    check_theorem4,
    check_theorem6,
    competitive_bound,
    competitive_bound_exact,
    exact_expected_size,
    exact_size_distribution,
    fingerprint,
    gen_perfect,
    gen_random,
    lemma3_chain,
    mc_expected_size,
    perfect_matching_of,
    stream,
)
from rankinglab import graph, probability
from rankinglab.cli import main
from rankinglab.engine import _greedy, rank_match
from rankinglab.rng import _GOLDEN, _MASK, _mix
from rankinglab.suites import suite_lemma3

from .conftest import DATA, instances, make_instance
from .oracles import (
    _ensemble,
    all_matchings,
    check_lemma3,
    edge,
    expected_matched_before_count,
    gen_gamma_family,
    matched_before_prob,
    online_match,
    partner,
    rank_matched_prob,
    rank_matched_prob_moved,
    validated_star,
    vertices,
)

SEEDS = (0, 1, -1, -(2**70) + 3, 2**63, 2**64 + 5)


def literal_mc(inst, samples: int, seed: int) -> McEstimate:
    """The estimate from its definition: SplitMix64 shuffles and the step fold.

    Sample i ranks the offline vertices, in name order, as permuted by
    ``stream(seed, i).shuffled``, and takes the size of ``online_match``.
    """
    offline = sorted(inst.ranking.members)
    sizes = []
    for i in range(samples):
        order = stream(seed, i).shuffled(range(len(offline)))
        ranking = Permutation([offline[x] for x in order])
        sizes.append(len(online_match(BipartiteInstance(inst.graph, ranking, inst.arrival))))
    return estimate(sizes, seed)


def greedy_mc(inst, samples: int, seed: int) -> McEstimate:
    """The estimate from ``stream(seed, i).shuffled`` and ``engine._greedy``.

    The same shuffles as ``literal_mc``, sized by the integer greedy (held
    equal to the step fold in the engine tests), so it runs at sizes where
    the fold is too slow.
    """
    return estimate(greedy_sizes(inst, samples, seed), seed)


def greedy_sizes(inst, samples: int, seed: int) -> list:
    """The per-sample matching sizes behind ``greedy_mc``."""
    reach = [inst.reach[inst.ranking.index(v)] for v in sorted(inst.ranking)]
    sizes = []
    for i in range(samples):
        ranked = stream(seed, i).shuffled(reach)  # the masks in a drawn ranking's order
        sizes.append(sum(r >= 0 for r in _greedy(ranked, len(inst.arrival))))
    return sizes


def estimate(sizes, seed: int) -> McEstimate:
    """The ``McEstimate`` of per-sample sizes: mean and sample stddev."""
    samples = len(sizes)
    total, total_sq = sum(sizes), sum(k * k for k in sizes)
    sd = 0.0
    if samples > 1:
        sd = math.sqrt(Fraction(samples * total_sq - total * total, samples * (samples - 1)))
    return McEstimate(mean=total / samples, stddev=sd, samples=samples, seed=seed)


def table_expected_size(inst):
    """The expected size read off the n!-ranking table: (value, sample space)."""
    runs = _ensemble(inst)
    total = sum(len(matched) for matched, _ in runs.values())
    return Fraction(total, math.factorial(len(inst.ranking))), len(runs)


def chain_from_per_t(inst, m_star):
    """The chain built link by link from the four per-t oracles."""
    n = len(inst.ranking)
    xs = [rank_matched_prob(inst, t) for t in range(1, n + 1)]
    return [
        ChainLink(
            t=t,
            n=n,
            rank_prob=xs[t - 1],
            moved_prob=rank_matched_prob_moved(inst, t),
            before_prob=matched_before_prob(inst, m_star, t),
            mean_before_count=expected_matched_before_count(inst, t).value,
            prefix_sum=sum(xs[:t], Fraction(0)),
        )
        for t in range(1, n + 1)
    ]


def example6_reduced(example6):
    """The worked example without u6 and v6, which is perfectly matchable."""
    return BipartiteInstance(
        frozenset(e for e in example6.graph if not (e & {"u6", "v6"})),
        Permutation(["v1", "v2", "v3", "v4", "v5"]),
        Permutation(["u1", "u2", "u3", "u4", "u5"]),
    )


@st.composite
def planted(draw, max_n: int = 6):
    """An instance with a planted perfect matching, and that matching."""
    n = draw(st.integers(1, max_n))
    extra = draw(st.floats(0.0, 0.6))
    return gen_perfect(n, extra, draw(st.integers(0, 2**32)))


def _unxorshift(y: int, k: int) -> int:
    """The x with x ^ (x >> k) == y, for 64-bit x."""
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def unmix(z: int) -> int:
    """Inverse of SplitMix64's output mix: undo each xorshift and multiply."""
    z = _unxorshift(z, 31)
    z = _unxorshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK, 27)
    return _unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK, 30)


def rejecting_seed(i: int) -> int:
    """A seed whose sample i first draws 2^64 - 1, which below(3) rejects."""
    state = (unmix(_MASK) - _GOLDEN) & _MASK
    return (unmix(state) - (i + 1) * _GOLDEN) & _MASK


#: a byte-lane cap for the tests that check batch edges against a per-sample
#: reference, which at the real ``probability._LANES`` would take seconds
SMALL_LANES = 1 << 10


@pytest.fixture
def small_lanes(monkeypatch):
    monkeypatch.setattr(probability, "_LANES", SMALL_LANES)


def batch_edges(cap: int) -> tuple:
    """Sample counts around a batch cap: 1; cap - 1 and cap, one batch each;
    cap + 1, two batches a lane apart; 2 * cap + 1, three."""
    return (1, cap - 1, cap, cap + 1, 2 * cap + 1)


def batch_cap(n: int) -> int:
    """The most samples a Monte Carlo batch holds at n offline vertices."""
    return probability._LANES if n <= probability._BYTE_CUT else probability._WIDE_DRAWS // n


def record_batches(monkeypatch) -> list:
    """The (start, k) of every batch that ``_mc_size_counts`` shuffles, in order."""
    seen = []
    for name in ("_id_columns", "_shuffle_draws"):
        def recorded(seed, start, k, *rest, real=getattr(probability, name)):
            seen.append((start, k))
            return real(seed, start, k, *rest)

        monkeypatch.setattr(probability, name, recorded)
    return seen


def lane_instance(arrivals: int, offline: int, seed: int) -> BipartiteInstance:
    """A random instance with u1 and the last offline vertex isolated.

    Each other (arrival, offline) pair is an edge with probability 0.3, and
    both orders are shuffled, so the isolated arrival can sit at any bit.
    """
    g = stream(seed, 1)
    on = [f"u{i}" for i in range(1, arrivals + 1)]
    off = [f"v{i}" for i in range(1, offline + 1)]
    pairs = [(u, v) for u in on[1:] for v in off[:-1] if g.uniform() < 0.3]
    return make_instance(" ".join(g.shuffled(off)), " ".join(g.shuffled(on)), pairs)


@pytest.fixture
def small():
    # two rankings only: E = 3/2, x_1 = 1, x_2 = 1/2
    return make_instance("v1 v2", "u1 u2", [("u1", "v1"), ("u1", "v2"), ("u2", "v1")])


@pytest.fixture
def small_star():
    return frozenset({edge("u1", "v2"), edge("u2", "v1")})


class TestExactExpectedSize:
    def test_small_instance(self, small):
        rep = exact_expected_size(small)
        assert rep.value == Fraction(3, 2)
        assert rep.sample_space == 2
        assert rep.quantity == "expected_matching_size"
        assert rep.params == ()
        assert rep.instance_id == fingerprint(small)

    def test_complete_two_by_two(self):
        inst = make_instance(
            "v1 v2", "u1 u2",
            [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u2", "v2")],
        )
        assert exact_expected_size(inst).value == 2

    def test_empty_instance(self):
        rep = exact_expected_size(make_instance("", "", []))
        assert rep.value == 0 and rep.sample_space == 1

    def test_worked_example(self, example6):
        rep = exact_expected_size(example6)
        assert rep.sample_space == math.factorial(6)
        assert Fraction(4, 1) < rep.value < Fraction(6, 1)

    def test_cap(self, small):
        with pytest.raises(CapExceeded):
            exact_expected_size(small, cap=1)
        assert exact_expected_size(small, cap=2).value == Fraction(3, 2)

    @settings(max_examples=40, deadline=None)
    @given(instances(max_side=4))
    def test_denominator_divides_factorial(self, inst):
        n = len(inst.ranking)
        rep = exact_expected_size(inst)
        assert math.factorial(n) % rep.value.denominator == 0


class TestExpectedSizeEqualsTable:
    @settings(max_examples=60, deadline=None)
    @given(instances(max_side=6))
    def test_hypothesis_instances(self, inst):
        rep = exact_expected_size(inst)
        assert (rep.value, rep.sample_space) == table_expected_size(inst)

    @settings(max_examples=60, deadline=None)
    @given(instances(max_side=6))
    def test_sorted_index_has_the_same_mean(self, inst):
        # a uniform ranking makes the mean blind to the offline ids' names,
        # the symmetry the hard family's key relies on
        key = tuple(sorted(inst.reach))
        counts = probability._size_counts(key, len(inst.arrival))
        assert probability._mean(counts) == exact_expected_size(inst).value

    @staticmethod
    def _sorted_chain(inst):
        return probability._chain(tuple(sorted(inst.reach)), len(inst.arrival))

    @pytest.mark.parametrize("n", range(9))
    def test_sorted_index_has_the_same_chain_planted(self, n):
        # the chain is blind to the offline ids' names as well, so every S_t
        # can be read off the sorted ``reach`` tuple alone
        for seed in range(10):
            inst = gen_perfect(n, 0.06 * seed, 60 + seed)[0]
            assert self._sorted_chain(inst) == lemma3_chain(inst)

    @settings(max_examples=40, deadline=None)
    @given(planted(max_n=7))
    def test_sorted_index_has_the_same_chain(self, case):
        inst, _ = case
        assert self._sorted_chain(inst) == lemma3_chain(inst)

    @pytest.mark.parametrize("n", [10, 12])
    def test_last_layer_equals_the_per_rank_counts(self, n):
        # beyond the table's reach: the size read from the pass's last layer
        # equals the chain's final prefix sum, read from that layer's matched total
        inst, m_star = gen_perfect(n, 0.4, 1)
        links = lemma3_chain(inst, m_star, cap=n)
        assert links[-1].prefix_sum == exact_expected_size(inst, cap=n).value

    @pytest.mark.parametrize("n", range(9))
    def test_planted_instances(self, n):
        inst, _ = gen_perfect(n, 0.3, 40 + n)
        rep = exact_expected_size(inst)
        assert (rep.value, rep.sample_space) == table_expected_size(inst)

    def test_gamma_family(self):
        cases = 0
        for g, arrivals in gen_gamma_family(1):
            offline = sorted(v for v in vertices(g) if v.startswith("o"))
            for arr in arrivals:
                inst = BipartiteInstance(g, Permutation(offline), arr)
                rep = exact_expected_size(inst)
                assert (rep.value, rep.sample_space) == table_expected_size(inst)
                cases += 1
        assert cases > 0

    def test_exact_path_builds_no_table(self, example6, capsys, tmp_path):
        assert not hasattr(probability, "_ensemble")
        assert exact_expected_size(example6).sample_space == math.factorial(6)
        assert check_theorem6(example6).holds
        assert main(["exact", str(DATA / "example6.obm")]) == 0
        assert capsys.readouterr().out.count("\n") == 2
        reduced = example6_reduced(example6)
        assert all(l.holds for l in lemma3_chain(reduced))
        assert all(check_lemma3(reduced).values())
        result = suite_lemma3(1, 0, inst=reduced)
        assert (result.cases, result.failures) == (1, [])
        planted6 = tmp_path / "planted6.obm"
        assert main(["gen", "perfect", "--n", "6", "--seed", "1", "--out", str(planted6)]) == 0
        assert main(["check", str(planted6), "--suite", "lemma3"]) == 0
        assert "lemma3: 1 cases, 0 failures" in capsys.readouterr().out


class TestSizeDistribution:
    @settings(max_examples=60, deadline=None)
    @given(instances(max_side=6))
    def test_equals_the_table_histogram(self, inst):
        runs = _ensemble(inst)
        table = Counter(len(matched) for matched, _ in runs.values())
        dist = exact_size_distribution(inst)
        assert dist == {size: Fraction(table[size], len(runs)) for size in table}
        assert list(dist) == sorted(dist)
        assert sum(dist.values()) == 1
        assert sum(size * q for size, q in dist.items()) == exact_expected_size(inst).value

    def test_small_values(self, small):
        assert exact_size_distribution(small) == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_empty_and_edgeless_instances(self):
        assert exact_size_distribution(make_instance("", "", [])) == {0: 1}
        assert exact_size_distribution(make_instance("v1 v2", "u1", [])) == {0: 1}

    def test_cap(self, small):
        with pytest.raises(CapExceeded):
            exact_size_distribution(small, cap=1)

    def test_counts_are_the_last_layer(self):
        inst, _ = gen_perfect(6, 0.4, 2)
        reach, arrivals = inst.reach, len(inst.arrival)
        counts = probability._size_counts(reach, arrivals)
        *_, last = probability._layers(reach, arrivals)
        assert sum(counts.values()) == sum(last.values()) == math.factorial(6)
        assert probability._mean(counts) == Fraction(
            sum(size * ways for size, ways in counts.items()), math.factorial(6)
        )


def assert_layers_equal_the_table(inst):
    """Each layer of the pass against the n!-ranking table.

    Layer t holds the orders of t ids, n!/(n - t)! of them, each state with
    n - t ids to come; its matched total times (n - t)! is the table's count
    of matches among the first t ranks, summed over every ranking.
    """
    n, arrivals = len(inst.ranking), len(inst.arrival)
    runs = _ensemble(inst)
    layers = list(probability._layers(inst.reach, arrivals))
    assert len(layers) == n + 1
    for t, layer in enumerate(layers):
        rest = math.factorial(n - t)
        assert sum(layer.values()) * rest == math.factorial(n)
        assert all((state & (1 << n) - 1).bit_count() == n - t for state in layer)
        matched = sum(ways * (arrivals - (state >> n).bit_count()) for state, ways in layer.items())
        assert matched * rest == sum(sum(0 <= r < t for r in prs) for _, prs in runs.values())


class TestLayers:
    def test_every_index_up_to_three_by_three(self):
        for a, b in product(range(4), repeat=2):
            ranking = Permutation(f"v{k}" for k in range(a))
            arrival = Permutation(f"u{j}" for j in range(b))
            for reach in product(range(1 << b), repeat=a):
                assert_layers_equal_the_table(BipartiteInstance._indexed(ranking, arrival, reach))

    @settings(max_examples=60, deadline=None)
    @given(instances(max_side=6))
    def test_drawn_instances(self, inst):
        assert_layers_equal_the_table(inst)

    def test_best_ranking_reaches_a_maximum_matching(self):
        """The largest size of the pass is theorem 6's n, on every index of 1-4 a side, a*b <= 12.

        It ties ``_layers`` to ``graph._kuhn``, two independent algorithms.  No
        ranking gives more than a maximum matching, and some ranking gives one.
        The pass reads a ranking as an order in which offline ids take their
        earliest-arriving free neighbour.  Take a maximum matching M* whose
        arrivals' positions have the least sum, and rank M*'s offline ends by
        their partners' arrival, the rest last.  In that order each end x takes
        its own partner u: the earlier ends took the earlier partners, and u is
        free.  A free neighbour of x arriving before u is in no pair of M*, as
        the earlier partners are taken and the later ones arrive after u, so
        putting it in place of u in M* would give a maximum matching of smaller
        sum.  The ends so make a maximum matching, and nothing is left for the
        rest.
        """
        checked = 0
        for a, b in product(range(1, 5), repeat=2):
            for reach in product(range(1 << b), repeat=a) if a * b <= 12 else ():
                best = max(probability._size_counts(reach, b))
                assert best == graph._max_matching_size(reach, b), reach
                checked += 1
        assert checked == 9418


class TestRankProbabilities:
    def test_small_values(self, small):
        assert rank_matched_prob(small, 1) == 1
        assert rank_matched_prob(small, 2) == Fraction(1, 2)

    def test_moved_small_values(self, small):
        assert rank_matched_prob_moved(small, 1) == 1
        assert rank_matched_prob_moved(small, 2) == Fraction(1, 2)

    def test_t_out_of_range(self, small):
        with pytest.raises(ValueError):
            rank_matched_prob(small, 0)
        with pytest.raises(ValueError):
            rank_matched_prob(small, 3)

    @settings(max_examples=30, deadline=None)
    @given(instances(max_side=4))
    def test_two_sample_spaces_agree_everywhere(self, inst):
        for t in range(1, len(inst.ranking) + 1):
            assert rank_matched_prob(inst, t) == rank_matched_prob_moved(inst, t)


class TestMatchedBefore:
    def test_small_values(self, small, small_star):
        assert matched_before_prob(small, small_star, 1) == Fraction(1, 2)
        assert matched_before_prob(small, small_star, 2) == Fraction(3, 4)

    def test_counts_small(self, small):
        assert expected_matched_before_count(small, 1).value == 1
        rep = expected_matched_before_count(small, 2)
        assert rep.value == Fraction(3, 2)
        assert rep.params == (("t", 2),)
        assert rep.quantity == "expected_count_matched_within_rank"

    def test_rejects_imperfect_star(self, small):
        with pytest.raises(ValueError):
            matched_before_prob(small, frozenset({edge("u1", "v1")}), 1)

    def test_monotone_in_t(self, small, small_star):
        vals = [matched_before_prob(small, small_star, t) for t in (1, 2)]
        assert vals == sorted(vals)


class TestChain:
    def test_small_chain_holds(self, small):
        links = lemma3_chain(small)
        assert [l.t for l in links] == [1, 2]
        for l in links:
            assert l.move_equal and l.survival_le
            assert l.count_equal and l.prefix_equal and l.inequality
            assert l.holds

    def test_small_chain_values(self, small):
        l1, l2 = lemma3_chain(small)
        assert (l1.rank_prob, l1.before_prob, l1.prefix_sum) == (1, Fraction(1, 2), 1)
        assert (l2.rank_prob, l2.before_prob, l2.prefix_sum) == (
            Fraction(1, 2),
            Fraction(3, 4),
            Fraction(3, 2),
        )

    def test_explicit_star_matches_found_one(self, small, small_star):
        assert lemma3_chain(small) == lemma3_chain(small, small_star)

    def test_requires_perfect_matching(self):
        inst = make_instance("v1 v2", "u1", [("u1", "v1")])
        with pytest.raises(ValueError):
            lemma3_chain(inst)
        with pytest.raises(ValueError):
            check_lemma3(inst)

    def test_check_lemma3_small(self, small):
        assert check_lemma3(small) == {1: True, 2: True}

    def test_worked_example_chain(self, example6):
        from rankinglab import BipartiteInstance, Permutation

        # drop u6 and v6 from both graph and orders; the rest is perfectly matchable
        inst = BipartiteInstance(
            frozenset(e for e in example6.graph if not (e & {"u6", "v6"})),
            Permutation(["v1", "v2", "v3", "v4", "v5"]),
            Permutation(["u1", "u2", "u3", "u4", "u5"]),
        )
        assert perfect_matching_of(inst) is not None
        assert all(l.holds for l in lemma3_chain(inst))


def _small_fractions():
    """Fractions of small terms: zero, negatives and repeated values come up often."""
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


class TestChainLinkRelations:
    """Each relation, decided on integers, equals its ``Fraction`` expression."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-3, 6), st.data())
    def test_relations_equal_the_fraction_expressions(self, n, data):
        # a later field is a fresh fraction or a boundary value of an earlier
        # one, so every relation is drawn below, at and above equality
        def field(*boundaries):
            return data.draw(st.one_of(_small_fractions(), st.sampled_from(boundaries)))

        r = data.draw(_small_fractions())
        moved = field(r)
        before = field(1 - r, r)
        mean = field(before * n, before)
        prefix = field(mean, n * (1 - r))
        link = ChainLink(1, n, r, moved, before, mean, prefix)
        assert link.move_equal == (r == moved)
        assert link.survival_le == (1 - r <= before)
        assert link.count_equal == (before * n == mean)
        assert link.prefix_equal == (mean == prefix)
        assert link.inequality == (n * (1 - r) <= prefix)
        assert link.holds == (
            r == moved and 1 - r <= before and before * n == mean == prefix
            and n * (1 - r) <= prefix
        )


class TestChainEqualsPerT:
    @settings(max_examples=25, deadline=None)
    @given(planted(max_n=6))
    def test_planted_instances(self, case):
        inst, m_star = case
        assert lemma3_chain(inst, m_star) == chain_from_per_t(inst, m_star)

    def test_worked_example_reduced(self, example6):
        inst = example6_reduced(example6)
        assert lemma3_chain(inst) == chain_from_per_t(inst, perfect_matching_of(inst))

    def test_planted_n7(self):
        # the largest size the exact benchmark's lemma3 ops reach
        inst, m_star = gen_perfect(7, 0.3, 7)
        assert lemma3_chain(inst, m_star) == chain_from_per_t(inst, m_star)

    def test_routes_stay_apart(self, monkeypatch):
        # one order of the pass's layer d + 1 loses a match, moved in place to
        # the state with one more free arrival, one that no id still to come
        # reaches, so the later layers inherit the drop: the chain reads its
        # rank probability, prefix sum and mean count off those layers, so its
        # own relations still hold, while the per-t oracles on the n!-ranking
        # table, which never run the pass, part from it from that rank on
        inst, m_star = gen_perfect(4, 0.3, 11)
        real, oracle = probability._layers, chain_from_per_t(inst, m_star)

        def spare(state):
            # the matched arrivals of a state that no id still to come reaches
            late = 0
            for x, mask in enumerate(inst.reach):
                late |= mask if state >> x & 1 else 0
            return ~(state >> 4 | late) & 0b1111

        d = next(t for t, layer in enumerate(real(inst.reach, 4)) if any(map(spare, layer))) - 1

        def dropped(reach, arrivals):
            for t, layer in enumerate(real(reach, arrivals)):
                if t == d + 1:
                    state = next(filter(spare, layer))
                    moved = state | (spare(state) & -spare(state)) << 4
                    layer[state] -= 1
                    layer[moved] = layer.get(moved, 0) + 1
                yield layer

        monkeypatch.setattr(probability, "_layers", dropped)
        links = lemma3_chain(inst, m_star)
        assert all(l.count_equal and l.prefix_equal for l in links)
        assert links[:d] == oracle[:d]
        for link, want in zip(links[d:], oracle[d:]):
            assert link.mean_before_count != want.mean_before_count
            assert link.prefix_sum != want.prefix_sum
        assert links[d].rank_prob != oracle[d].rank_prob

    def test_same_errors(self, small):
        no_perfect = make_instance("v1 v2", "u1", [("u1", "v1")])
        with pytest.raises(ValueError, match="no perfect matching covering both"):
            lemma3_chain(no_perfect)
        bad = frozenset({edge("u1", "v1")})
        with pytest.raises(ValueError, match="cover both parties") as chained:
            lemma3_chain(small, bad)
        with pytest.raises(ValueError) as per_t:
            chain_from_per_t(small, bad)
        assert str(chained.value) == str(per_t.value)
        outside = frozenset({edge("u1", "v2"), edge("u2", "v2")})
        with pytest.raises(ValueError, match="inside the instance graph"):
            lemma3_chain(small, outside)
        # no rank to check: the per-t functions never see m_star, the chain still checks it
        empty = make_instance("", "", [])
        assert chain_from_per_t(empty, bad) == []
        with pytest.raises(ValueError, match="inside the instance graph"):
            lemma3_chain(empty, bad)
        assert lemma3_chain(empty) == [] == lemma3_chain(empty, frozenset())

    def test_m_star_checked_when_nothing_is_ranked(self):
        # an arrival and no ranked vertex: no perfect matching, explicit or found
        inst = make_instance("", "u1", [])
        with pytest.raises(ValueError, match="no perfect matching covering both"):
            lemma3_chain(inst)
        with pytest.raises(ValueError, match="cover both parties"):
            lemma3_chain(inst, frozenset())


class TestPerfectDecidedOnce:
    """Perfectness is decided on ``reach``; the chain reads no designated M*."""

    @settings(max_examples=60, deadline=None)
    @given(instances(max_side=5))
    def test_index_decision_equals_the_name_level_one(self, inst):
        m_star = perfect_matching_of(inst)
        if m_star is None:
            for decide in (lemma3_chain, check_theorem4):
                with pytest.raises(ValueError, match="no perfect matching covering both"):
                    decide(inst)
        else:
            check_theorem4(inst)
            assert lemma3_chain(inst) == lemma3_chain(inst, m_star)

    @pytest.mark.parametrize(
        "inst",
        [
            make_instance(
                "v1 v2 v3", "u1 u2 u3",
                [(u, v) for u in ("u1", "u2", "u3") for v in ("v1", "v2", "v3")],
            ),
            gen_perfect(5, 0.4, 2)[0],
        ],
        ids=["K33", "planted5"],
    )
    def test_every_perfect_matching_gives_the_same_chain(self, inst):
        everyone = inst.offline | inst.online
        perfect = [m for m in all_matchings(inst.graph) if vertices(m) == everyone]
        assert len(perfect) >= 2
        chain = lemma3_chain(inst)
        for m in perfect:
            # the per-t oracle reads this m's partners on its own
            assert lemma3_chain(inst, m) == chain == chain_from_per_t(inst, m)


class TestPerfectMatchingOf:
    def test_found(self, small, small_star):
        assert perfect_matching_of(small) == small_star

    def test_absent(self):
        inst = make_instance("v1 v2", "u1", [("u1", "v1")])
        assert perfect_matching_of(inst) is None

    def test_worked_example_has_none(self, example6):
        # v6 is isolated, so nothing covers it
        assert perfect_matching_of(example6) is None


def _outcome(read, inst, m_star):
    """What reading m_star gives: the array, or the ValueError's text."""
    try:
        return read(inst, m_star)
    except ValueError as e:
        return str(e)


def _candidates(inst, m_star, g) -> list:
    """m_star as frozensets and as tuples both ways, then altered: one edge
    less, a random pair more (it may name an unknown vertex), one edge
    replaced, a one-name and a three-name "edge" more, one edge repeated reversed."""
    edges = sorted(tuple(sorted(e)) for e in m_star)
    names = sorted(inst.offline | inst.online) + ["w0"]
    pair = lambda: (g.choice(names), g.choice(names))  # noqa: E731
    out = [m_star, edges, [e[::-1] for e in edges], edges + [pair()]]
    out += [edges + [(g.choice(names),)], edges + [tuple(names[:3])]]
    if edges:
        k = g.below(len(edges))
        out += [edges[:k] + edges[k + 1:], edges[:k] + [pair()] + edges[k + 1:]]
        out.append(edges + [edges[k][::-1]])
    return out


class TestStar:
    """``graph._star`` against its name-level reference, ``oracles.validated_star``."""

    def same(self, inst, m_star, seed: int) -> set:
        kinds = set()
        for cand in _candidates(inst, m_star, stream(seed, len(inst.ranking))):
            got = _outcome(graph._star, inst, cand)
            assert got == _outcome(validated_star, inst, cand), cand
            kinds.add(got if isinstance(got, str) else "array")
        return kinds

    @settings(max_examples=150, deadline=None)
    @given(instances(max_side=6), st.integers(0, 2**32))
    def test_equals_the_reference_on_drawn_instances(self, inst, seed):
        m_star = perfect_matching_of(inst)
        if m_star is not None:
            assert graph._star(inst, m_star) == graph._designated(inst)
        self.same(inst, rank_match(inst) if m_star is None else m_star, seed)

    def test_equals_the_reference_on_planted_instances(self):
        kinds = set()
        for n, p, s in product(range(9), (0.0, 0.3, 0.7), range(4)):
            inst, planted = gen_perfect(n, p, s)
            star = perfect_matching_of(inst)
            assert graph._star(inst, star) == graph._designated(inst)
            for m_star in (planted, star):
                kinds |= self.same(inst, m_star, s)
        assert kinds == {
            "array",
            "m_star must be a matching inside the instance graph",
            "m_star must cover both parties entirely",
        }


class TestBounds:
    def test_exact_first_values(self):
        assert competitive_bound_exact(1) == Fraction(1, 2)
        assert competitive_bound_exact(2) == Fraction(5, 9)
        assert competitive_bound_exact(3) == Fraction(37, 64)

    def test_exact_rejects_zero(self):
        with pytest.raises(ValueError):
            competitive_bound_exact(0)
        with pytest.raises(ValueError):
            competitive_bound(0)

    def test_float_matches_exact_at_small_n(self):
        for n in range(1, 25):
            assert competitive_bound(n) == pytest.approx(
                float(competitive_bound_exact(n)), abs=1e-12
            )

    def test_float_near_limit(self):
        assert abs(competitive_bound(10**6) - (1 - 1 / math.e)) < 1e-6

    def test_strictly_increasing_prefix(self):
        vals = [competitive_bound(n) for n in range(1, 200)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRatioVerdicts:
    def test_theorem4_small(self, small):
        v = check_theorem4(small)
        assert (v.n, v.expected) == (2, Fraction(3, 2))
        assert v.ratio == Fraction(3, 4)
        assert v.bound == Fraction(5, 9)
        assert v.holds and not v.vacuous

    def test_theorem4_requires_perfect(self):
        with pytest.raises(ValueError):
            check_theorem4(make_instance("v1 v2", "u1", [("u1", "v1")]))

    def test_theorem6_uses_max_matching_size(self):
        inst = make_instance("v1", "u1 u2", [("u1", "v1"), ("u2", "v1")])
        v = check_theorem6(inst)
        assert v.n == 1
        assert v.expected == 1 and v.ratio == 1
        assert v.holds and not v.vacuous

    def test_theorem6_vacuous_on_empty_graph(self):
        v = check_theorem6(make_instance("v1", "u1", []))
        assert v.vacuous and v.holds
        assert v.ratio is None and v.bound is None

    def test_theorem6_on_worked_example(self, example6):
        v = check_theorem6(example6)
        assert v.n == 5
        assert v.holds and not v.vacuous

    def test_theorem6_ignores_isolated_vertices(self, small):
        padded = make_instance(
            "v1 v2 v3", "u1 u2 u3",
            [("u1", "v1"), ("u1", "v2"), ("u2", "v1")],
        )
        a, b = check_theorem6(small), check_theorem6(padded)
        assert (a.n, a.expected, a.ratio, a.holds) == (b.n, b.expected, b.ratio, b.holds)

    @pytest.mark.parametrize("check", [check_theorem4, check_theorem6])
    def test_one_cap_check_per_verdict(self, check, small, monkeypatch):
        calls = []
        real = probability._check_cap

        def counting(inst, cap):
            calls.append(cap)
            real(inst, cap)

        monkeypatch.setattr(probability, "_check_cap", counting)
        assert check(small).expected == Fraction(3, 2)
        assert calls == [probability.DEFAULT_CAP]
        with pytest.raises(CapExceeded):
            check(small, cap=1)
        assert calls == [probability.DEFAULT_CAP, 1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            instances(max_side=6),
            st.builds(gen_perfect, st.integers(1, 6), st.just(0.3), st.integers(0, 99)).map(
                lambda planted: planted[0]
            ),
        )
    )
    def test_verdicts_keep_their_histogram(self, example6, drawn):
        empty = make_instance("", "", [])
        assert check_theorem4(empty).vacuous and check_theorem6(empty).vacuous
        for inst in (example6, empty, drawn):
            counts = probability._size_counts(inst.reach, len(inst.arrival))
            assert sum(counts.values()) == math.factorial(len(inst.ranking))
            checks = [check_theorem6]
            if perfect_matching_of(inst) is not None:
                checks.append(check_theorem4)
            for check in checks:
                v = check(inst)
                assert v.sizes == counts and v.expected == probability._mean(v.sizes)
                # the histogram is no part of the verdict's value: ==, hash and repr ignore it
                other = replace(v, sizes=Counter({len(inst.arrival) + 1: 1}))
                assert other == v and hash(other) == hash(v) and repr(other) == repr(v)


class TestEnsemble:
    @settings(max_examples=30, deadline=None)
    @given(instances(max_side=5))
    def test_rows_equal_step_fold(self, inst):
        runs = _ensemble(inst)
        offline = inst.ranking.order
        assert len(runs) == math.factorial(len(offline))
        for perm, (matched, prs) in runs.items():
            ranking = Permutation([offline[x] for x in perm])
            m = online_match(BipartiteInstance(inst.graph, ranking, inst.arrival))
            mates = [partner(m, u) for u in inst.arrival]
            assert prs == tuple(-1 if v is None else ranking.index(v) for v in mates)
            assert matched == frozenset(ranking.index(v) for v in mates if v is not None)

    def test_size_routes_keep_no_instance(self):
        inst = make_instance("v1 v2 v3", "u1 u2", [("u1", "v1"), ("u2", "v3")])
        mc_expected_size(inst, 20, 1)
        exact_expected_size(inst)
        check_theorem6(inst)
        ref = weakref.ref(inst)
        del inst
        gc.collect()
        assert ref() is None
        inst, _ = gen_perfect(4, 0.4, 3)
        rank_matched_prob(inst, 2)
        lemma3_chain(inst)
        ref = weakref.ref(inst)
        del inst
        gc.collect()
        assert ref() is None

    def test_matchers_read_the_index_not_the_graph(self):
        class Unwalkable(frozenset):
            def __iter__(self):
                raise AssertionError("the instance graph was walked")

        inst, planted = gen_perfect(6, 0.4, 3)
        before = (
            rank_match(inst),
            exact_expected_size(inst).value,
            lemma3_chain(inst, planted),
            mc_expected_size(inst, 50, 1),
        )
        object.__setattr__(inst, "graph", Unwalkable(inst.graph))
        assert rank_match(inst) == before[0]
        assert exact_expected_size(inst).value == before[1]
        assert lemma3_chain(inst, planted) == before[2]
        assert mc_expected_size(inst, 50, 1) == before[3]


class TestMonteCarlo:
    def test_bit_identical_for_same_seed(self, small):
        a = mc_expected_size(small, 500, 7)
        b = mc_expected_size(small, 500, 7)
        assert a == b

    def test_different_seed_differs(self, small):
        a = mc_expected_size(small, 500, 7)
        b = mc_expected_size(small, 500, 8)
        assert a.mean != b.mean or a.stddev != b.stddev

    def test_close_to_exact(self):
        inst, _ = gen_perfect(5, 0.4, 7)
        exact = float(exact_expected_size(inst).value)
        est = mc_expected_size(inst, 20000, 99)
        assert abs(est.mean - exact) <= 4 * est.stddev / math.sqrt(est.samples)

    def test_single_sample(self, small):
        est = mc_expected_size(small, 1, 3)
        assert est.stddev == 0.0
        assert est.mean in (1.0, 2.0)

    def test_single_edge_has_no_variance(self):
        inst = make_instance("v1", "u1", [("u1", "v1")])
        for seed in (0, 7, 123456789):
            est = mc_expected_size(inst, 40, seed)
            assert est.mean == 1.0 and est.stddev == 0.0

    def test_samples_must_be_positive(self, small):
        with pytest.raises(ValueError):
            mc_expected_size(small, 0, 1)

    def test_fields(self, small):
        est = mc_expected_size(small, 10, 5)
        assert est.samples == 10 and est.seed == 5

    def test_pinned_values(self, example6):
        # a seeded estimate is fixed for all time, so these must never drift
        assert mc_expected_size(example6, 2000, 7) == McEstimate(
            mean=4.5955, stddev=0.49091776309791696, samples=2000, seed=7
        )
        inst, _ = gen_perfect(20, 0.15, 5)
        assert mc_expected_size(inst, 1000, 2023) == McEstimate(
            mean=17.463, stddev=0.9641372104428708, samples=1000, seed=2023
        )


class TestMonteCarloEqualsLiteral:
    @settings(max_examples=40, deadline=None)
    @given(instances(max_side=6), st.sampled_from(SEEDS), st.integers(1, 30))
    def test_hypothesis_instances(self, inst, seed, samples):
        assert mc_expected_size(inst, samples, seed) == literal_mc(inst, samples, seed)

    @pytest.mark.parametrize("n", range(13))
    def test_planted_instances(self, n):
        inst, _ = gen_perfect(n, 0.25, 100 + n)
        for seed in SEEDS:
            assert mc_expected_size(inst, 30, seed) == literal_mc(inst, 30, seed)

    def test_unmix_inverts_mix(self):
        for z in (0, 1, 12345, _GOLDEN, _MASK, 2**63):
            assert _mix(unmix(z)) == z and unmix(_mix(z)) == z

    def test_rejected_draw(self):
        # a seed whose sample 0 first draws 2^64 - 1, which below(3) rejects
        state = (unmix(_MASK) - _GOLDEN) & _MASK
        seed = (unmix(state) - _GOLDEN) & _MASK
        assert _MASK >= (1 << 64) - (1 << 64) % 3
        g = stream(seed, 0)
        g.shuffled(range(3))
        draws = stream(seed, 0)
        first, *_, fourth = [draws.next_u64() for _ in range(4)]
        assert first == _MASK
        assert g.next_u64() == fourth  # two Fisher-Yates steps took three draws
        # every graph on 3 + 3 vertices: some size tells any two rankings apart
        pairs = [(f"u{a}", f"v{b}") for a in (1, 2, 3) for b in (1, 2, 3)]
        for mask in range(1 << len(pairs)):
            chosen = [p for k, p in enumerate(pairs) if mask >> k & 1]
            inst = make_instance("v1 v2 v3", "u1 u2 u3", chosen)
            assert mc_expected_size(inst, 1, seed) == literal_mc(inst, 1, seed)
        assert mc_expected_size(inst, 50, seed) == literal_mc(inst, 50, seed)

    @pytest.mark.parametrize("batch, lane", [(0, 1), (1, -1), (1, 0), (1, 500)])
    def test_rejection_in_any_lane_and_batch(self, batch, lane, small_lanes, monkeypatch):
        # three equal batches; lane -1 of batch 1 is the last of batch 0
        samples = 2 * SMALL_LANES + 1
        i = batch * (samples // 3) + lane
        seed = rejecting_seed(i)
        assert stream(seed, i).next_u64() == _MASK
        calls = []

        def counted(s, index):
            calls.append(index)
            return stream(s, index)

        monkeypatch.setattr(probability, "stream", counted)
        inst = make_instance(
            "v1 v2 v3", "u1 u2 u3", [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u3", "v3")]
        )
        assert mc_expected_size(inst, samples, seed) == literal_mc(inst, samples, seed)
        assert calls == [i]

    def test_batch_edges(self, small_lanes):
        inst, _ = gen_perfect(5, 0.4, 3)
        for samples in batch_edges(SMALL_LANES):
            assert mc_expected_size(inst, samples, 17) == literal_mc(inst, samples, 17)

    def test_batch_edges_wide_lanes(self, small_lanes):
        # 70 arrivals make each lane 9 bytes wide, wider than one 64-bit word
        inst = gen_random(16, 70, 0.1, 3)
        for samples in batch_edges(SMALL_LANES):
            assert mc_expected_size(inst, samples, 17) == greedy_mc(inst, samples, 17)

    @pytest.mark.parametrize("arrivals", [0, 1, 7, 8, 9, 15, 16, 63, 64, 65])
    def test_lane_width_boundaries(self, arrivals):
        # lanes are arrivals // 8 + 1 bytes: these counts sit on each side of a byte
        for offline, seed in ((arrivals + 2, 5), (3, 2**64 + 5)):
            inst = lane_instance(arrivals, offline, seed)
            est = mc_expected_size(inst, 40, seed)
            assert est == greedy_mc(inst, 40, seed) == literal_mc(inst, 40, seed)

    def test_no_offline_vertices(self):
        for arrivals in (0, 8, 64):
            inst = make_instance("", " ".join(f"u{i}" for i in range(arrivals)), [])
            est = mc_expected_size(inst, 3, 1)
            assert est == literal_mc(inst, 3, 1) == McEstimate(0.0, 0.0, 3, 1)

    def test_scale_sizes(self):
        n = 100
        stair = make_instance(
            " ".join(f"v{i}" for i in range(1, n + 1)),
            " ".join(f"u{i}" for i in range(1, n + 1)),
            [(f"u{i}", f"v{j}") for i in range(1, n + 1) for j in (i, i + 1) if j <= n],
        )
        for seed in SEEDS:
            inst = gen_random(400, 400, 0.05, seed)
            assert mc_expected_size(inst, 3, seed) == greedy_mc(inst, 3, seed)
            assert mc_expected_size(stair, 5, seed) == greedy_mc(stair, 5, seed)


def lane_pack(values) -> int:
    """Values in the 128-bit lanes of one int, value i at bit 128 * i."""
    return int.from_bytes(struct.pack("<" + "Q8x" * len(values), *values), "little")


def lane_low(k: int) -> int:
    """``_lane_mod``'s mask for k lanes: 2^32 - 1 in each."""
    return lane_pack([1] * k) * ((1 << 32) - 1)


def shuffles(seed: int, start: int, k: int, n: int) -> list:
    """The samples' shuffles by ``stream``, one list per sample."""
    return [stream(seed, i).shuffled(range(n)) for i in range(start, start + k)]


def check_lane_draws(width: int, n: int, cases) -> None:
    """``_lane_draws``' planes against each lane's own stream, and its flags.

    For each (seed, start, k) of ``cases``, step j's ``width`` planes must
    spell, lane by lane, draw j + 1 of ``stream(seed, start + i)`` modulo its
    bound, little-endian, and the last ``over`` must flag no lane.  With the
    seed that makes lane k // 2 draw 2^64 - 1 first, it must flag that lane
    alone.
    """
    for seed, start, k in cases:
        gens = [stream(seed, i) for i in range(start, start + k)]
        bounds, over = [], 0
        for bound, planes, over in probability._lane_draws(seed, start, k, n, width):
            assert len(planes) == width and all(len(p) == k for p in planes)
            got = [int.from_bytes(bytes(cell), "little") for cell in zip(*planes)]
            assert got == [g.next_u64() % bound for g in gens], (seed, start, k, bound)
            bounds.append(bound)
        assert bounds == list(range(n, 1, -1))
        assert (over >> 64).to_bytes(16 * k, "little")[::16] == bytes(k)
        i = k // 2
        *_, (_, _, over) = probability._lane_draws(rejecting_seed(start + i), start, k, n, width)
        flags = (over >> 64).to_bytes(16 * k, "little")[::16]
        assert flags == bytes(i) + b"\x01" + bytes(k - i - 1), (n, start, k)


LANE_CASES = [
    (seed, start, k) for seed in (0, 2**64 + 5, -7) for start in (0, 1000) for k in (1, 5)
]


class TestByteLanes:
    def test_cut_fits_a_byte(self):
        assert 2 <= probability._BYTE_CUT < 256

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 18, 33, 48])
    def test_lane_draws_in_byte_planes(self, n):
        # 17 fills one pack of 16 steps, 18 spills one step into a second,
        # and 33 has the power-of-two bounds 32..2 in its packs
        check_lane_draws(1, n, LANE_CASES)

    def test_lane_mod_equals_remainder(self):
        # every bound up to 2^16, then around 2^20 and at the top of the range
        low = lane_low(15)
        for b in [*range(2, 2**16 + 1), 2**20 - 1, 2**20, 2**20 + 1, 2**29 + 1, 2**30 - 1]:
            top = (_MASK // b) * b
            zs = [0, _MASK, 2**32 - 1, 2**32, 2**32 + 1, b, 2 * b + 1, top, top - 1]
            zs += [top + 1 if top < _MASK else top - b + 1, (2**32 // b) * b, (2**32 // b) * b + 1]
            zs += [(2**63 // b) * b - 1, (2**63 // b) * b, (2**63 // b) * b + 1]
            assert probability._lane_mod(lane_pack(zs), b, low) == lane_pack([z % b for z in zs]), b

    @pytest.mark.parametrize("seed", [0, 2**64 + 5, -7])
    def test_id_columns_equal_stream_shuffles(self, seed):
        cap = probability._LANES
        # cap // 2 - 1 runs over the start of cap + 1's second batch, cap // 2
        for n in range(probability._BYTE_CUT + 2):
            for start, k in ((0, 3), (cap // 2 - 1, 4), (cap - 2, 4), (2 * cap, 1)):
                cols = probability._id_columns(seed, start, k, n)
                assert all(len(col) == k for col in cols) and len(cols) == n
                assert [list(lane) for lane in zip(*cols)] == (
                    shuffles(seed, start, k, n) if n else []
                ), (n, start)

    def test_id_columns_of_a_whole_batch(self):
        n, k = 20, probability._LANES
        cols = probability._id_columns(3, k, k, n)
        assert [list(lane) for lane in zip(*cols)] == shuffles(3, k, k, n)

    def test_rejecting_lane_patches_every_column(self, monkeypatch):
        n, i = 20, probability._LANES // 2 + 5  # the sixth lane of cap + 1's second batch
        seed = rejecting_seed(i)
        assert stream(seed, i).next_u64() >= (1 << 64) - (1 << 64) % n  # below(20) rejects it
        start, k = i - 5, 9
        expected = shuffles(seed, start, k, n)
        cols = probability._id_columns(seed, start, k, n)
        assert [list(lane) for lane in zip(*cols)] == expected

        class Marked:
            def shuffled(self, xs):
                return [0xE0 + x for x in xs]  # no id of 20 is a byte this large

        calls = []

        def marked(s, index):
            calls.append(index)
            return Marked()

        monkeypatch.setattr(probability, "stream", marked)
        lanes = [list(lane) for lane in zip(*probability._id_columns(seed, start, k, n))]
        assert calls == [i]
        assert lanes[5] == [0xE0 + p for p in range(n)]
        assert lanes[:5] + lanes[6:] == expected[:5] + expected[6:]


WIDE_NS = [49, 64, 255, 256, 257, 400]


class TestWideLanes:
    @pytest.mark.parametrize("n", [49, 57, 400])
    def test_lane_draws_in_two_byte_planes(self, n):
        check_lane_draws(2, n, LANE_CASES)

    def test_lane_draws_in_four_byte_planes(self):
        cases = [(0, 0, 1), (2**64 + 5, 1000, 2), (-7, 1000, 1)]
        check_lane_draws(4, 2**16 + 1, cases)

    @pytest.mark.parametrize("n", WIDE_NS)
    def test_shuffles_equal_stream_in_every_lane(self, n):
        k = probability._WIDE_DRAWS // n
        for seed, start, lanes in ((3, 0, k), (2**64 + 5, 7 * k + 1, 2)):
            got = probability._shuffle_draws(seed, start, lanes, list(range(n)))
            assert got == shuffles(seed, start, lanes, n), (n, start)

    def test_shuffles_above_16_bit_cells(self):
        n = 2**16 + 1
        assert probability._shuffle_draws(5, 3, 2, list(range(n))) == shuffles(5, 3, 2, n)

    def test_rejecting_lane_is_patched(self, monkeypatch):
        n = 400
        k = probability._WIDE_DRAWS // n
        i = k - 1  # the last lane of a full batch
        seed = rejecting_seed(i)
        assert stream(seed, i).next_u64() >= (1 << 64) - (1 << 64) % n  # below(400) rejects it
        expected = shuffles(seed, 0, k, n)
        assert probability._shuffle_draws(seed, 0, k, list(range(n))) == expected

        class Marked:
            def shuffled(self, xs):
                return ["marked"]

        calls = []

        def marked(s, index):
            calls.append(index)
            return Marked()

        monkeypatch.setattr(probability, "stream", marked)
        got = probability._shuffle_draws(seed, 0, k, list(range(n)))
        assert calls == [i]
        assert got[i] == ["marked"] and got[:i] == expected[:i]

    @pytest.mark.parametrize("n", WIDE_NS)
    def test_counts_equal_the_greedy_sizes(self, n):
        inst = gen_random(n, n // 2 + 3, 0.08, n)
        lanes = probability._WIDE_DRAWS // n
        # one sample; one full batch; two batches, the last one lane short
        for samples in (1, lanes, lanes + 1 + lanes % 2):
            counts = probability._mc_size_counts(inst, samples, 17)
            assert counts == Counter(greedy_sizes(inst, samples, 17)), (n, samples)


class TestMcSizeCounts:
    @pytest.mark.parametrize("n", [5, probability._BYTE_CUT, probability._BYTE_CUT + 1])
    def test_counts_equal_the_greedy_sizes_at_batch_edges(self, n, small_lanes):
        inst, _ = gen_perfect(n, 0.1, 8)
        for samples in batch_edges(batch_cap(n)):
            counts = probability._mc_size_counts(inst, samples, 17)
            assert counts == Counter(greedy_sizes(inst, samples, 17)), (n, samples)

    def test_two_equal_batches_and_one_lane_table_per_sample_count(self, monkeypatch):
        batches = record_batches(monkeypatch)
        probability._lanes.cache_clear()
        for n in (12, 24):
            probability._mc_size_counts(gen_perfect(n, 0.3, 5)[0], 5000, 1)
        assert batches == [(0, 2500), (2500, 2500)] * 2
        assert probability._lanes.cache_info().misses == 1

    def test_one_call_traces_under_a_mebibyte(self):
        # 5,000 samples in one batch traced 1,468 KB at the peak, in two of 2,500 about 800 KB
        inst = gen_perfect(24, 0.3, 6)[0]
        probability._lanes.cache_clear()
        tracemalloc.start()
        try:
            probability._mc_size_counts(inst, 5000, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_wide_batches_are_held_one_at_a_time(self):
        # at n = 49 one batch traced about 1,780 KiB at the peak and three about 1,810;
        # keeping a batch's shuffles while the next is drawn traced 3,170 for three
        inst, cap = gen_perfect(49, 0.3, 5)[0], batch_cap(49)
        peaks = []
        for samples in (cap, 3 * cap):
            probability._mc_size_counts(inst, samples, 1)  # the lane constants, cached
            tracemalloc.start()
            try:
                probability._mc_size_counts(inst, samples, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    @pytest.mark.parametrize("n", [3, probability._BYTE_CUT, probability._BYTE_CUT + 1, 400])
    def test_fewest_batches_a_lane_apart(self, n, monkeypatch):
        cap = batch_cap(n)
        inst = gen_random(n, 3, 0.5, n)
        batches = record_batches(monkeypatch)
        for samples in batch_edges(cap):
            batches.clear()
            probability._mc_size_counts(inst, samples, 17)
            starts, sizes = zip(*batches)
            assert len(sizes) == -(-samples // cap) and max(sizes) <= cap, (n, samples)
            assert max(sizes) - min(sizes) <= 1, (n, samples)
            assert list(starts) == [sum(sizes[:b]) for b in range(len(sizes))]
            assert sum(sizes) == samples

    def test_sizes_above_a_byte(self):
        inst = gen_random(300, 290, 0.05, 4)
        counts = probability._mc_size_counts(inst, 6, 2)
        assert counts == Counter(greedy_sizes(inst, 6, 2))
        assert min(counts) > 255

    def test_estimate_reads_the_counts(self, monkeypatch):
        monkeypatch.setattr(
            probability, "_mc_size_counts", lambda inst, samples, seed: Counter({2: 3, 5: 1})
        )
        est = mc_expected_size(make_instance("v1", "u1", []), 4, 9)
        assert est == estimate([2, 2, 2, 5], 9)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.integers(0, 10**6), st.integers(1, 10**7), min_size=1, max_size=6))
    @example({7: 1})
    @example({0: 1, 10**6: 1})
    def test_spread_of_histograms_no_instance_reaches(self, counts):
        # ``estimate``'s integer formula, its sums weighted by the counts; a histogram of
        # up to 6 * 10^7 samples is too long to list, so the small ones are also listed
        samples = sum(counts.values())
        total = sum(size * c for size, c in counts.items())
        total_sq = sum(size * size * c for size, c in counts.items())
        sd = 0.0
        if samples > 1:
            sd = math.sqrt(Fraction(samples * total_sq - total * total, samples * (samples - 1)))
        ref = McEstimate(mean=total / samples, stddev=sd, samples=samples, seed=9)
        if samples <= 1000:
            assert ref == estimate(list(Counter(counts).elements()), 9)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(probability, "_mc_size_counts", lambda inst, samples, seed: Counter(counts))
            est = mc_expected_size(make_instance("v1", "u1", []), samples, 9)
        assert (est.mean, est.stddev) == (ref.mean, ref.stddev) and est.sizes == counts
