"""Exact and sampled distributions of the rank-greedy matcher's output.

The ranking is treated as uniformly random over the offline party while the
graph and the arrival order stay fixed.  At desk scale (party size up to a
configurable cap, default 8) every quantity is computed exactly, as a
``fractions.Fraction``, by one rank-order dynamic program: a uniformly random
ranking is a uniformly random order in which offline vertices take their
earliest-arriving free neighbor, so a pass over states (offline vertices
still to come, free arrivals) counts the matches at each rank.  The expected
size and ``lemma3_chain`` read those counts; a table of the matcher's outcome
under every ranking backs only the public per-t functions, the chain's test
oracle.  Beyond the cap, ``mc_expected_size`` gives a seeded,
bit-reproducible Monte Carlo estimate.

The per-rank quantities connect into a chain that ``lemma3_chain`` builds
from that one pass and the check functions verify link by link on
enumerated instances:

* ``rank_matched_prob(t)``, the probability that the vertex at rank t ends
  up matched;
* ``rank_matched_prob_moved(t)``, the same probability computed over a
  different sample space (draw a ranking and an independent uniform vertex,
  move the vertex to rank t), which must agree exactly;
* ``matched_before_prob(t)``, the probability that the designated partner of
  a uniformly drawn vertex is matched to rank t or better; and
* ``expected_matched_before_count(t)``, the expected number of arrivals
  matched to rank t or better, which is n times the previous quantity and
  also the prefix sum of the rank probabilities.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import AbstractSet, Dict, Optional, Tuple

from .engine import BipartiteInstance, _greedy, _move_id
from .fileformat import fingerprint
from .graph import bipartite_max_matching, is_matching, vertices
from .rng import _GOLDEN, _MASK, stream

DEFAULT_CAP = 8

#: the most draws ``mc_expected_size`` holds at once; it sets the batch size
_DRAWS = 1 << 14

#: the large-n limit of the guaranteed ratio, 1 - 1/e
LIMIT_RATIO = 1.0 - math.exp(-1.0)


class CapExceeded(Exception):
    """Instance too large for exact enumeration under the given cap."""


@dataclass(frozen=True)
class ExactReport:
    """An exactly computed scalar, tagged with the instance it came from."""

    instance_id: str
    quantity: str
    params: Tuple[Tuple[str, int], ...]
    value: Fraction
    sample_space: int


@dataclass(frozen=True)
class McEstimate:
    """A seeded Monte Carlo estimate of the expected matching size."""

    mean: float
    stddev: float
    samples: int
    seed: int


def _check_cap(inst: BipartiteInstance, cap: int) -> None:
    n = len(inst.ranking)
    if n > cap:
        raise CapExceeded(
            f"{n} ranked vertices exceeds the enumeration cap {cap}; "
            "use mc_expected_size for instances this large"
        )


def _check_t(t: int, n: int) -> None:
    if not 1 <= t <= n:
        raise ValueError(f"rank t={t} out of range 1..{n}")


def _ensemble(inst: BipartiteInstance):
    """Matcher outcomes for every ranking of the offline party.

    Maps each permutation of ranking positions (``inst.reach`` numbering;
    the identity is ``inst.ranking``) to a pair (set of matched ranks,
    partner rank per arrival), each row one ``engine._greedy`` run.  Only
    the public per-t functions read it, as the test oracle of the dynamic
    program in ``_tally``; the CLI, the suites and ``lemma3_chain`` never
    build it.
    """
    reach = inst.reach
    arrivals = len(inst.arrival)
    runs: Dict[tuple, tuple] = {}
    for perm in permutations(range(len(reach))):
        prs = tuple(_greedy(reach, perm, arrivals))
        runs[perm] = (frozenset(r for r in prs if r >= 0), prs)
    return runs


def exact_expected_size(inst: BipartiteInstance, cap: int = DEFAULT_CAP) -> ExactReport:
    """Expected matching size over a uniformly random ranking, exactly."""
    value = _expected_size(inst, cap)
    return ExactReport(
        instance_id=fingerprint(inst),
        quantity="expected_matching_size",
        params=(),
        value=value,
        sample_space=math.factorial(len(inst.ranking)),
    )


def _expected_size(inst: BipartiteInstance, cap: int = DEFAULT_CAP) -> Fraction:
    """The value of ``exact_expected_size``, with no report and no fingerprint."""
    _check_cap(inst, cap)
    by_id, _ = _tally(inst)
    return Fraction(sum(map(sum, by_id)), math.factorial(len(inst.ranking)))


def _tally(inst: BipartiteInstance) -> Tuple[list, list]:
    """Match counts over all n! rankings, by rank: ``(by_id, by_arrival)``.

    ``by_id[d][x]`` counts the rankings that put offline id x (``inst.reach``
    numbering) at rank d and match it; ``by_arrival[d][j]`` counts those that
    match arrival j to rank d.  The party-swapped greedy of ``engine._greedy``
    makes a ranking an order in which offline vertices take their
    earliest-arriving free neighbor.  A forward pass over depth d = 0..n-1
    counts, for each state (bitmask of offline ids still to come, bitmask of
    free arrivals), the orders of the first d ids that reach it; a match at
    depth d is completed by (n - d - 1)! orders of the rest, a factor applied
    once per layer.  The counts equal those read off the ``_ensemble`` table,
    without the table.
    """
    reach = inst.reach
    n = len(reach)
    arrivals = len(inst.arrival)
    full = (1 << n) - 1
    # a state is one int: bit x (x < n) for an offline id still to come,
    # bit n + j for a free arrival j
    layer = {full | ((1 << arrivals) - 1) << n: 1}
    by_id, by_arrival = [], []
    for d in range(n):
        ids, arrived = [0] * n, [0] * arrivals
        nxt: Dict[int, int] = {}
        for state, ways in layer.items():
            free = state >> n
            todo = state & full
            while todo:
                bit = todo & -todo
                todo ^= bit
                x = bit.bit_length() - 1
                a = reach[x] & free
                if a:
                    a &= -a
                    after = state ^ bit ^ a << n
                    ids[x] += ways
                    arrived[a.bit_length() - 1] += ways
                else:
                    after = state ^ bit
                nxt[after] = nxt.get(after, 0) + ways
        layer = nxt
        completions = math.factorial(n - d - 1)
        by_id.append([k * completions for k in ids])
        by_arrival.append([k * completions for k in arrived])
    return by_id, by_arrival


def rank_matched_prob(inst: BipartiteInstance, t: int, cap: int = DEFAULT_CAP) -> Fraction:
    """Probability that the vertex at rank t ends up matched."""
    _check_cap(inst, cap)
    _check_t(t, len(inst.ranking))
    runs = _ensemble(inst)
    hits = sum(1 for matched, _ in runs.values() if t - 1 in matched)
    return Fraction(hits, len(runs))


def rank_matched_prob_moved(
    inst: BipartiteInstance, t: int, cap: int = DEFAULT_CAP
) -> Fraction:
    """Same event, dual sample space: an independent vertex forced to rank t.

    Draw a ranking and a vertex independently and uniformly, move the vertex
    to rank t, and ask whether it ends up matched.  Each moved ranking is
    hit exactly n times, so this equals ``rank_matched_prob(t)``; computing
    it over the pair space keeps the two routes independent.
    """
    _check_cap(inst, cap)
    n = len(inst.ranking)
    _check_t(t, n)
    runs = _ensemble(inst)
    i = t - 1
    hits = sum(i in runs[_move_id(perm, x, i)][0] for perm in runs for x in range(n))
    return Fraction(hits, len(runs) * n)


def _designated_positions(inst: BipartiteInstance, m_star: frozenset) -> list:
    """Arrival position of each offline vertex's m_star partner, by rank."""
    mate = {}
    for a, b in map(tuple, m_star):
        mate[a], mate[b] = b, a
    return [inst.arrival.index(mate[v]) for v in inst.ranking]


def _validated_perfect(inst: BipartiteInstance, m_star: AbstractSet) -> frozenset:
    mset = frozenset(frozenset(e) for e in m_star)
    if not is_matching(mset) or not mset <= inst.graph:
        raise ValueError("m_star must be a matching inside the instance graph")
    if vertices(mset) != inst.offline | inst.online:
        raise ValueError("m_star must cover both parties entirely")
    return mset


def matched_before_prob(
    inst: BipartiteInstance, m_star: AbstractSet, t: int, cap: int = DEFAULT_CAP
) -> Fraction:
    """Probability the designated partner of a random vertex matches rank <= t.

    Draw a ranking and a vertex v independently and uniformly; the event is
    that u = m_star(v) is matched and its mate sits at rank t or better.
    ``m_star`` must be a perfect matching of the instance graph.
    """
    _check_cap(inst, cap)
    n = len(inst.ranking)
    _check_t(t, n)
    mset = _validated_perfect(inst, m_star)
    runs = _ensemble(inst)
    upos = _designated_positions(inst, mset)
    hits = 0
    for _, prs in runs.values():
        for k in range(n):
            if 0 <= prs[upos[k]] <= t - 1:
                hits += 1
    return Fraction(hits, len(runs) * n)


def expected_matched_before_count(
    inst: BipartiteInstance, t: int, cap: int = DEFAULT_CAP
) -> ExactReport:
    """Expected number of arrivals matched to rank t or better."""
    _check_cap(inst, cap)
    _check_t(t, len(inst.ranking))
    runs = _ensemble(inst)
    total = sum(
        sum(1 for r in prs if 0 <= r <= t - 1) for _, prs in runs.values()
    )
    return ExactReport(
        instance_id=fingerprint(inst),
        quantity="expected_count_matched_within_rank",
        params=(("t", t),),
        value=Fraction(total, len(runs)),
        sample_space=len(runs),
    )


def perfect_matching_of(inst: BipartiteInstance) -> Optional[frozenset]:
    """A perfect matching covering both parties, or None if there is none."""
    mm = bipartite_max_matching(inst.graph)
    if vertices(mm) == inst.offline | inst.online:
        return mm
    return None


def _require_perfect_matching(inst: BipartiteInstance) -> frozenset:
    """``perfect_matching_of(inst)``, or ValueError when there is none."""
    m_star = perfect_matching_of(inst)
    if m_star is None:
        raise ValueError("instance has no perfect matching covering both parties")
    return m_star


@dataclass(frozen=True)
class ChainLink:
    """All exactly computed quantities for one rank t, with their relations."""

    t: int
    n: int
    rank_prob: Fraction
    moved_prob: Fraction
    before_prob: Fraction
    mean_before_count: Fraction
    prefix_sum: Fraction

    @property
    def move_equal(self) -> bool:
        return self.rank_prob == self.moved_prob

    @property
    def survival_le(self) -> bool:
        return 1 - self.rank_prob <= self.before_prob

    @property
    def count_equal(self) -> bool:
        return self.before_prob * self.n == self.mean_before_count

    @property
    def prefix_equal(self) -> bool:
        return self.mean_before_count == self.prefix_sum

    @property
    def inequality(self) -> bool:
        return self.n * (1 - self.rank_prob) <= self.prefix_sum

    @property
    def holds(self) -> bool:
        return (
            self.move_equal
            and self.survival_le
            and self.count_equal
            and self.prefix_equal
            and self.inequality
        )


def lemma3_chain(
    inst: BipartiteInstance,
    m_star: Optional[AbstractSet] = None,
    cap: int = DEFAULT_CAP,
) -> list:
    """The full per-rank chain of equalities and inequalities, one link per t.

    Every link reads the one ``_tally`` pass, each quantity on its own
    route: the rank probability and its running prefix sum from the match
    counts by offline id, the moved probability as the mean over vertices x
    of P[x matched | x at rank t], the mean count from the match counts by
    arrival, and the designated-partner probability from those counts at the
    arrival positions of m_star's partners.  The public per-t functions
    compute the same quantities one t at a time from the ``_ensemble`` table
    and are its test oracle.
    """
    _check_cap(inst, cap)
    if m_star is None:
        m_star = _require_perfect_matching(inst)
    n = len(inst.ranking)
    if n == 0:
        return []
    mset = _validated_perfect(inst, m_star)
    by_id, by_arrival = _tally(inst)
    upos = _designated_positions(inst, mset)
    size = math.factorial(n)
    links = []
    prefix = count = before = 0
    for i in range(n):
        hits = sum(by_id[i])
        prefix += hits
        count += sum(by_arrival[i])
        before += sum(by_arrival[i][j] for j in upos)
        links.append(
            ChainLink(
                t=i + 1,
                n=n,
                rank_prob=Fraction(hits, size),
                moved_prob=sum(Fraction(k, size // n) for k in by_id[i]) / n,
                before_prob=Fraction(before, size * n),
                mean_before_count=Fraction(count, size),
                prefix_sum=Fraction(prefix, size),
            )
        )
    return links


def check_lemma3(inst: BipartiteInstance, cap: int = DEFAULT_CAP) -> Dict[int, bool]:
    """Per-rank verdicts of the survival inequality, all exact.

    For each t: the probability of the rank-t vertex being unmatched is at
    most the average of the first t rank probabilities.  Requires the
    instance to admit a perfect matching.  A view of ``lemma3_chain``.
    """
    return {link.t: link.inequality for link in lemma3_chain(inst, cap=cap)}


def competitive_bound_exact(n: int) -> Fraction:
    """The guaranteed ratio at party size n, exactly: 1 - (1 - 1/(n+1))^n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1 - Fraction(n, n + 1) ** n


def competitive_bound(n: int) -> float:
    """Float version of the guaranteed ratio, stable for huge n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1.0 - math.exp(n * math.log1p(-1.0 / (n + 1.0)))


@dataclass(frozen=True)
class RatioVerdict:
    """Exact comparison of an instance's expected ratio against the bound."""

    n: int
    expected: Fraction
    ratio: Optional[Fraction]
    bound: Optional[Fraction]
    holds: bool
    vacuous: bool


def _ratio_verdict(inst: BipartiteInstance, n: int, cap: int) -> RatioVerdict:
    """The exact expected size against the bound at size n (vacuous at 0)."""
    expected = _expected_size(inst, cap)
    if n == 0:
        return RatioVerdict(0, expected, None, None, True, True)
    ratio = expected / n
    bound = competitive_bound_exact(n)
    return RatioVerdict(n, expected, ratio, bound, ratio >= bound, False)


def check_theorem4(inst: BipartiteInstance, cap: int = DEFAULT_CAP) -> RatioVerdict:
    """Expected size versus the bound, n taken as the (perfect) party size."""
    _check_cap(inst, cap)
    _require_perfect_matching(inst)
    return _ratio_verdict(inst, len(inst.ranking), cap)


def check_theorem6(inst: BipartiteInstance, cap: int = DEFAULT_CAP) -> RatioVerdict:
    """Expected size versus the bound, n taken as the maximum matching size."""
    _check_cap(inst, cap)
    return _ratio_verdict(inst, len(bipartite_max_matching(inst.graph)), cap)


def _mix_lanes(z: int, m: int) -> int:
    """SplitMix64's output mix on every lane of z; m holds 2^64 - 1 in each."""
    z = ((z ^ (z >> 30 & m)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27 & m)) * 0x94D049BB133111EB) & m
    return z ^ (z >> 31 & m)


def _shuffle_draws(seed: int, start: int, k: int, items):
    """Yield ``stream(seed, i).shuffled(items)`` for i in start..start+k-1.

    The k streams run at once, SIMD within a register: stream start + i
    sits in the 128-bit lane at bit 128 * i of one int.  A lane holds a
    64-bit value, a 64 x 64-bit product fits it, and each shift is masked
    back to 64 bits, so no bit crosses lanes.  A lane whose draw ``below``
    would reject (draw >= 2^64 - 2^64 % bound, that is, bit 64 of draw +
    2^64 % bound set) is flagged, and its sample is shuffled by ``stream``.
    ``mc_expected_size`` shuffles the offline ids' ``reach`` cells as items.
    """
    n = len(items)
    lane = struct.Struct("<" + "Q8x" * k)
    ones = int.from_bytes(lane.pack(*[1] * k), "little")
    m, g, high = ones * _MASK, ones * _GOLDEN, ones << 64
    seeds = [(seed + (i + 1) * _GOLDEN) & _MASK for i in range(start, start + k)]
    s = _mix_lanes(int.from_bytes(lane.pack(*seeds), "little"), m)
    rows, rejected = [], 0
    for bound in range(n, 1, -1):
        s = (s + g) & m
        z = _mix_lanes(s, m)
        rejected |= (z + (1 << 64) % bound * ones) & high
        rows.append([x % bound for x in lane.unpack(z.to_bytes(16 * k, "little"))])
    flags = lane.unpack((rejected >> 64).to_bytes(16 * k, "little"))
    # each sample's draws for j = n-1..1, then its flag
    for i, rs in enumerate(zip(*rows, flags), start):
        perm = list(items)
        for j, r in zip(range(n - 1, 0, -1), rs):
            perm[j], perm[r] = perm[r], perm[j]
        yield stream(seed, i).shuffled(items) if rs[-1] else perm


def mc_expected_size(inst: BipartiteInstance, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the expected matching size.

    Sample i ranks the offline party by a Fisher-Yates shuffle of its
    vertices in name order, drawn from ``stream(seed, i)``, so the estimate
    is bit-identical for identical (instance, samples, seed) regardless of
    batching, and does not depend on the instance's own ranking.

    The shuffles come from ``_shuffle_draws`` in batches of ``_DRAWS // n``
    samples for n offline vertices, and the party-swapped greedy of
    ``engine._greedy`` runs on a whole batch at once, on lanes.  Each offline
    id's ``reach`` mask is a little-endian cell of ``width = arrivals // 8 + 1``
    bytes, so its bit ``arrivals`` (``guard``) lies above every arrival bit.
    Sample i's cells and free arrivals sit at byte ``width * i`` of one int.
    At each ranking position ``a`` holds every lane's free neighbours and
    ``a & ~((a | guard) - ones)`` every lane's lowest set bit: the guard keeps
    each lane above 0, so no borrow crosses lanes.  A lane's size is
    ``arrivals`` minus its free bits.

    The reported stddev is the sample standard deviation of the per-run
    size, zero when only one sample was requested.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    arrivals, ranked = len(inst.arrival), sorted(inst.ranking)
    width = arrivals // 8 + 1
    cells = [inst.reach[inst.ranking.index(v)].to_bytes(width, "little") for v in ranked]
    lanes = max(1, _DRAWS // max(len(cells), 1))
    total = total_sq = 0
    for start in range(0, samples, lanes):
        k = min(lanes, samples - start)
        ones = int.from_bytes((b"\x01" + bytes(width - 1)) * k, "little")
        guard, free = ones << arrivals, ones * ((1 << arrivals) - 1)
        for col in zip(*_shuffle_draws(seed, start, k, cells)):
            a = int.from_bytes(b"".join(col), "little") & free
            free ^= a & ~((a | guard) - ones)
        total += k * arrivals - free.bit_count()
        left = free.to_bytes(k * width, "little")
        for i in range(0, k * width, width):
            size = arrivals - int.from_bytes(left[i : i + width], "little").bit_count()
            total_sq += size * size
    mean = total / samples
    if samples > 1:
        var = Fraction(samples * total_sq - total * total, samples * (samples - 1))
        sd = math.sqrt(var)
    else:
        sd = 0.0
    return McEstimate(mean=mean, stddev=sd, samples=samples, seed=seed)
