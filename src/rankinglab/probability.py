"""Exact and sampled distributions of the rank-greedy matcher's output.

The ranking is treated as uniformly random over the offline party while the
graph and the arrival order stay fixed.  At desk scale (party size up to a
configurable cap, default 8) every quantity is computed exactly, as a
``fractions.Fraction``, by one rank-order dynamic program: a uniformly random
ranking is a uniformly random order in which offline vertices take their
earliest-arriving free neighbor, so a pass over states (offline vertices still
to come, free arrivals) counts rankings.  It reads an index, not an instance: a
``reach`` mask per offline id and the number of arrivals.  Its last layer gives
a size histogram, n! in all, kept as ``RatioVerdict.sizes``; ``_chain`` reads
every layer's matched total.  Beyond the cap, ``mc_expected_size`` gives a
seeded, bit-reproducible Monte Carlo estimate, read off a sampled one kept as
``McEstimate.sizes``; ``_mean`` and ``_distribution`` read both.  The estimate
draws a batch of samples at once on the 128-bit lanes of one int, shuffled on
byte lanes (up to 4,096 a batch) or by per-sample swaps, the path picked once a
call; ``_lane_draws`` is the one place where their remainders become bytes.

The per-rank quantities connect into a chain that ``lemma3_chain`` builds
from that one pass on a perfect instance, designating no perfect matching:
``graph._require_perfect`` decides perfectness, and ``graph._star`` checks
a caller's M*.  The chain's test oracles are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import struct
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import AbstractSet, Dict, Iterator, Optional, Tuple

from .engine import BipartiteInstance
from .fileformat import fingerprint
from .graph import _max_matching_size, _require_perfect, _star
from .rng import _GOLDEN, _MASK, stream

DEFAULT_CAP = 8

#: up to ``_BYTE_CUT`` offline ids a batch holds at most this many samples,
#: whatever n is, so every call at one sample count has the same batches.
#: Each lane int of a batch (state, draw, remainder pack, ``over`` and each
#: ``_lanes`` constant) takes 16 bytes a sample, so at most 64 KB here: 2^13
#: held 80 KB ints at 5,000 samples, and the ``mc`` bench's peak RSS read
#: 24.87 MB against 24.09 at 2^12, at the same speed (medians of 10 pairs).
#: Raise it only with ``peak_rss_mb`` pairs measured on ``mc``.
_LANES = 1 << 12

#: the most offline ids ``mc_expected_size`` shuffles on byte lanes (at most
#: 256); the two paths' crossover moves with the sample count (wide/byte time
#: 1.12 at n = 48 and 1.36 at 64 at 5,000 samples, 0.79 at 64 at 200), and
#: no workload has a party between 48 and 92 to place the cut by
_BYTE_CUT = 48

#: above ``_BYTE_CUT`` a batch holds at most this many draws, so its shuffles
#: hold at most 1 MB of cell references; at n = 400 2^17 ran 1.1x over 2^16
_WIDE_DRAWS = 1 << 17

#: ``_EQ[p]`` maps byte p to 0xFF and every other byte to 0
_EQ = [bytes(p) + b"\xff" + bytes(255 - p) for p in range(256)]

#: ``_POP[x]`` is the number of set bits of byte x
_POP = bytes(x.bit_count() for x in range(256))

#: the large-n limit of the guaranteed ratio, 1 - 1/e
LIMIT_RATIO = 1.0 - math.exp(-1.0)


class CapExceeded(ValueError):
    """Instance too large for exact enumeration under the given cap: an argument out of range."""


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
    #: how many samples gave each matching size, the histogram both are read off
    sizes: Counter = field(default_factory=Counter, compare=False, repr=False)


def _check_cap(inst: BipartiteInstance, cap: int) -> None:
    n = len(inst.ranking)
    if n > cap:
        raise CapExceeded(
            f"{n} ranked vertices exceeds the enumeration cap {cap}; "
            "use mc_expected_size for instances this large"
        )


def exact_expected_size(inst: BipartiteInstance, cap: int = DEFAULT_CAP) -> ExactReport:
    """Expected matching size over a uniformly random ranking, exactly."""
    _check_cap(inst, cap)
    counts = _size_counts(inst.reach, len(inst.arrival))
    return ExactReport(
        instance_id=fingerprint(inst),
        quantity="expected_matching_size",
        params=(),
        value=_mean(counts),
        sample_space=sum(counts.values()),
    )


def exact_size_distribution(
    inst: BipartiteInstance, cap: int = DEFAULT_CAP
) -> Dict[int, Fraction]:
    """Probability of each matching size over a uniformly random ranking, exactly.

    Maps each size that some ranking gives, in increasing order, to its
    probability; the probabilities sum to 1 and their mean is
    ``exact_expected_size``.
    """
    _check_cap(inst, cap)
    return _distribution(_size_counts(inst.reach, len(inst.arrival)))


def _distribution(counts: Counter) -> Dict[int, Fraction]:
    """A size histogram's shares of its total (n! or the sample count), by increasing size."""
    total = sum(counts.values())
    return {size: Fraction(counts[size], total) for size in sorted(counts)}


def _size_counts(reach, arrivals: int) -> Counter:
    """How many of the n! orders of the ``reach`` ids give each matching size."""
    for last in _layers(reach, arrivals):
        pass
    # every offline id has come: each state is its free arrivals << n
    counts: Counter = Counter()
    for state, ways in last.items():
        counts[arrivals - state.bit_count()] += ways
    return counts


def _mean(counts: Counter) -> Fraction:
    """A size histogram's mean size, over its total: n! or the sample count."""
    return Fraction(sum(size * ways for size, ways in counts.items()), sum(counts.values()))


def _layers(reach, arrivals: int) -> Iterator[Dict[int, int]]:
    """The layers d = 0..n of the rank-order pass over all n! rankings of an index.

    An instance passes ``inst.reach, len(inst.arrival)``.  The party-swapped
    greedy of ``engine._greedy`` makes a ranking an order in which offline
    vertices take their earliest-arriving free neighbor.  Layer d maps each
    state, one int with bit x (x < n) for an offline id still to come and bit
    n + j for a free arrival j, to the number of orders of d ids that reach
    it; its ways sum to n! / (n - d)!, and its matched total (ways times
    matched arrivals) times (n - d)! counts the matches among the first d
    ranks over all n! rankings.  The counts equal those of the ``_ensemble``
    table in ``tests/oracles.py``.
    """
    n = len(reach)
    full = (1 << n) - 1
    layer = {full | ((1 << arrivals) - 1) << n: 1}
    yield layer
    for _ in range(n):
        nxt: Dict[int, int] = {}
        for state, ways in layer.items():
            free = state >> n
            todo = state & full
            while todo:
                bit = todo & -todo
                todo ^= bit
                a = reach[bit.bit_length() - 1] & free
                after = state ^ bit ^ (a & -a) << n  # a == 0: the id takes no arrival
                nxt[after] = nxt.get(after, 0) + ways
        layer = nxt
        yield layer


@dataclass(frozen=True)
class ChainLink:
    """All exactly computed quantities for one rank t, with their relations.

    Relations are decided on numerators and denominators, with no ``Fraction``
    built: denominators are positive, so cross-multiplying keeps ``<=`` and ``==``."""

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
    def survival_le(self) -> bool:  # 1 - rank_prob <= before_prob
        r, b = self.rank_prob, self.before_prob
        return (r.denominator - r.numerator) * b.denominator <= b.numerator * r.denominator

    @property
    def count_equal(self) -> bool:  # before_prob * n == mean_before_count
        b, m = self.before_prob, self.mean_before_count
        return b.numerator * self.n * m.denominator == m.numerator * b.denominator

    @property
    def prefix_equal(self) -> bool:
        return self.mean_before_count == self.prefix_sum

    @property
    def inequality(self) -> bool:  # n * (1 - rank_prob) <= prefix_sum
        r, p = self.rank_prob, self.prefix_sum
        return self.n * (r.denominator - r.numerator) * p.denominator <= p.numerator * r.denominator

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

    Every link reads the one ``_layers`` pass.  Layer t's matched total
    times (n - t)! is the prefix count: the matches among the first t ranks
    over all n! rankings, S_t * n!, which gives the prefix sum and the mean
    count, since each match takes one arrival.  The match count at rank t,
    the difference of two prefix counts, gives the rank probability.  It is
    also the moved probability, the mean over vertices x of P[x matched | x
    at rank t], by algebra (sum_x c_x / (n-1)! / n = sum_x c_x / n!), so
    ``move_equal`` cannot fail here, nor ``count_equal`` and
    ``prefix_equal``; their independent routes, the chain's test oracle, are
    the per-t functions of ``tests/oracles.py`` on the n!-ranking table.  The
    designated-partner probability is the mean count over n: a perfect M*
    lists each arrival once, so its partners' counts are all the counts,
    whichever M* it is.  So the chain needs perfectness (``_require_perfect``,
    on ``reach``), not an M*; a given ``m_star`` is still checked.
    """
    _check_cap(inst, cap)
    if m_star is None:
        _require_perfect(inst)
    else:
        _star(inst, m_star)
    return _chain(inst.reach, len(inst.arrival))


def _chain(reach, arrivals: int) -> list:
    """``lemma3_chain`` of an index (as ``_layers``') known to be perfect and within the cap."""
    n = len(reach)
    size = math.factorial(n)
    layers = _layers(reach, arrivals)
    next(layers)  # layer 0: no id has come
    links, before = [], 0
    for t, layer in enumerate(layers, 1):
        matched = sum(ways * (arrivals - (state >> n).bit_count()) for state, ways in layer.items())
        prefix = matched * math.factorial(n - t)
        rank, before, mean = Fraction(prefix - before, size), prefix, Fraction(prefix, size)
        links.append(
            ChainLink(
                t=t,
                n=n,
                rank_prob=rank,
                moved_prob=rank,
                before_prob=Fraction(prefix, size * n),
                mean_before_count=mean,
                prefix_sum=mean,
            )
        )
    return links


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
    """Exact comparison of an instance's expected ratio, read off ``sizes``, against the bound."""

    n: int
    expected: Fraction
    ratio: Optional[Fraction]
    bound: Optional[Fraction]
    holds: bool
    vacuous: bool
    #: how many of the n! rankings give each matching size, the histogram ``expected`` is read off
    sizes: Counter = field(default_factory=Counter, compare=False, repr=False)


def _ratio_verdict(counts: Counter, n: int) -> RatioVerdict:
    """A size histogram's mean against the bound at n (vacuous at 0), keeping the histogram."""
    expected = _mean(counts)
    if n == 0:
        return RatioVerdict(0, expected, None, None, True, True, counts)
    ratio, bound = expected / n, competitive_bound_exact(n)
    return RatioVerdict(n, expected, ratio, bound, ratio >= bound, False, counts)


def check_theorem4(inst: BipartiteInstance, cap: int = DEFAULT_CAP) -> RatioVerdict:
    """Expected size versus the bound, n taken as the (perfect) party size."""
    _check_cap(inst, cap)
    _require_perfect(inst)
    return _ratio_verdict(_size_counts(inst.reach, len(inst.arrival)), len(inst.arrival))


def check_theorem6(inst: BipartiteInstance, cap: int = DEFAULT_CAP) -> RatioVerdict:
    """Expected size versus the bound, n taken as the maximum matching size."""
    _check_cap(inst, cap)
    n = _max_matching_size(inst.reach, len(inst.arrival))
    return _ratio_verdict(_size_counts(inst.reach, len(inst.arrival)), n)


def _mix_lanes(z: int, m: int) -> int:
    """SplitMix64's output mix on every lane of z; m holds 2^64 - 1 in each."""
    z = ((z ^ (z >> 30 & m)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27 & m)) * 0x94D049BB133111EB) & m
    return z ^ (z >> 31 & m)


@lru_cache(maxsize=2)  # a call's batches hold one or two k, set by the sample count alone
def _lanes(k: int) -> tuple:
    """The constants of k lanes: ``ones`` (1 in each), its multiples by
    2^64 - 1, G and 2^32 - 1, and the ramp (i in lane i) times G."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
    ramp, count = bytearray(16 * k), struct.pack(f"<{k}I", *range(k))
    for b in range(4):  # byte b of i is byte b of lane i
        ramp[b::16] = count[b::4]
    ramp = int.from_bytes(ramp, "little")
    return ones, ones * _MASK, ones * _GOLDEN, ones * 0xFFFFFFFF, ramp * _GOLDEN


def _lane_draws(seed: int, start: int, k: int, n: int, width: int):
    """The Fisher-Yates draws of ``stream(seed, i)`` for i in start..start+k-1, as bytes.

    The k streams run at once, SIMD within a register: stream start + i
    sits in the 128-bit lane at bit 128 * i of one int.  A lane holds a
    64-bit value, a 64 x 64-bit product fits it, and each shift is masked
    back to 64 bits, so no bit crosses lanes.  The seeds are lane arithmetic
    too: lane i starts at ((seed + (start + 1) * G) mod 2^64) + i * G, i * G
    from ``_lanes``, masked to 64 bits.  Yields ``(bound, planes, over)`` for
    bound = n..2, the bounds of ``shuffled``'s steps.  ``planes[b]`` holds
    byte b of every lane's draw modulo bound, one byte per lane, for b <
    ``width``; each remainder must fit ``width`` bytes.  ``over`` has bit 64
    of each lane set with a draw of at least 2^64 - 2^L, L =
    ``n.bit_length()``: every lane ``below`` rejects (2^64 % bound < 2^L),
    which is left to ``stream``, and almost no other.

    The remainders (``_lane_mod``) of 16 // width steps are ORed into one
    int, step t at byte ``width * t`` of each lane, and one ``to_bytes``
    serves the pack.  So ``over`` covers the draws up to the end of the
    step's pack, and the last step's covers them all.
    """
    ones, m, g, low, ramp = _lanes(k)
    near = ones << n.bit_length()
    s = ones * ((seed + (start + 1) * _GOLDEN) & _MASK) + ramp
    s = _mix_lanes(s & m, m)
    per, over = 16 // width, 0
    for top in range(n, 1, -per):
        bounds = range(top, max(top - per, 1), -1)
        pack = 0
        for t, bound in enumerate(bounds):
            s = (s + g) & m
            z = _mix_lanes(s, m)
            over |= z + near
            pack |= _lane_mod(z, bound, low) << 8 * width * t
        rem = pack.to_bytes(16 * k, "little")
        for t, bound in enumerate(bounds):
            yield bound, [rem[width * t + b::16] for b in range(width)], over


def _lane_mod(z: int, bound: int, low: int) -> int:
    """Every 128-bit lane of z reduced modulo ``bound``, for 2 <= bound < 2^30.

    ``low`` holds 2^32 - 1 in each lane, and each lane of z below 2^64.  Let
    L = ``bound.bit_length()``.  A power of two takes one mask: ``low >> 33 -
    L`` holds bound - 1 in each lane, and what the shift pulls down from the
    next lane lands at bit 95 + L, above z's 64 bits.  Otherwise a draw
    hi * 2^32 + lo is congruent to y = hi * (2^32 % bound) + lo <= (2^32 - 1)
    * bound < 2^(32 + L).  With s = 33 + 2L, q = y * ceil(2^s / bound) >> s
    is y // bound < 2^32: the reciprocal errs by e < bound, and y * e < 2^s.
    The product is below 2^(67 + 2L) <= 2^127, in its lane; the shift brings
    the next lane down to bit 128 - s >= 35, which ``low`` drops.
    """
    size = bound.bit_length()
    if not bound & (bound - 1):
        return z & low >> 33 - size
    s = 33 + 2 * size
    y = (z >> 32 & low) * ((1 << 32) % bound) + (z & low)
    q = y * -(-(1 << s) // bound) >> s & low
    return y - q * bound


def _shuffle_draws(seed: int, start: int, k: int, items: list) -> list:
    """``stream(seed, i).shuffled(items)`` for i in start..start+k-1.

    The draws are ``_lane_draws``' byte planes.  Each step's k remainders go
    to one buffer of host-order cells (16 bits up to 2^16 items, else 32);
    sample i reads its own as the strided slice ``[i::k]``, with no Python
    int per draw, and swaps in Python.  A lane ``below`` would reject takes
    its ``stream``'s shuffle.  Items are ``reach`` cells above ``_BYTE_CUT``.
    """
    n = len(items)
    cell = "H" if n <= 1 << 16 else "I"
    w = struct.calcsize(cell)
    order = range(w) if sys.byteorder == "little" else range(w - 1, -1, -1)
    buf, rejected = bytearray(w * k * (n - 1)), 0
    # the loop leaves in ``rejected`` the last step's ``over``
    steps = _lane_draws(seed, start, k, n, w)
    for o, (_, planes, rejected) in zip(range(0, len(buf), w * k), steps):
        for t, b in enumerate(order):
            buf[o + t:o + w * k:w] = planes[b]
    draws = memoryview(buf).cast(cell)
    flags = (rejected >> 64).to_bytes(16 * k, "little")[::16]
    perms = []
    for i, flag in enumerate(flags):
        perm = items.copy()
        for j, r in zip(range(n - 1, 0, -1), draws[i::k]):
            perm[j], perm[r] = perm[r], perm[j]
        perms.append(stream(seed, start + i).shuffled(items) if flag else perm)
    return perms


def _id_columns(seed: int, start: int, k: int, n: int) -> list:
    """``stream(seed, i).shuffled(range(n))`` for i in start..start+k-1, by rank.

    Column p holds one byte per sample, byte i the id that sample start + i
    puts at rank p (n <= 256), which ``_mc_size_counts`` translates to cells.
    The draws are ``_lane_draws``' one-byte planes, and step j = bound - 1 of
    Fisher-Yates runs on every lane at once: with r the plane of remainders,
    one ``translate`` by ``_EQ[p]`` marks the lanes where r == p, and three
    XORs swap columns p and j there.  A lane that ``below`` would reject is
    then overwritten with its ``stream``'s own shuffle.
    """
    rejected, from_bytes = 0, int.from_bytes
    cols = [from_bytes(bytes([p]) * k, "little") for p in range(n)]
    for bound, (r,), rejected in _lane_draws(seed, start, k, n, 1):  # keeps the last ``over``
        j = bound - 1
        cj = cols[j]
        for p, eq in zip(range(j), _EQ):
            t = (cols[p] ^ cj) & from_bytes(r.translate(eq), "little")
            cols[p] ^= t
            cj ^= t
        cols[j] = cj
    cols = [bytearray(c.to_bytes(k, "little")) for c in cols]
    flags = (rejected >> 64).to_bytes(16 * k, "little")[::16]
    i = flags.find(1)
    while i >= 0:
        for col, x in zip(cols, stream(seed, start + i).shuffled(range(n))):
            col[i] = x
        i = flags.find(1, i + 1)
    return cols


def _lane_sizes(taken: int, k: int, width: int) -> Counter:
    """How many of the k lanes of ``taken``, ``width`` bytes each, hold each count of set bits.

    Each byte's bits are counted by ``translate``; the counts of a lane's
    bytes are added in an 8-byte slot per lane, one slice per byte offset.
    """
    bits = taken.to_bytes(k * width, "little").translate(_POP)
    slots, total = bytearray(8 * k), 0
    for w in range(width):
        slots[::8] = bits[w::width]
        total += int.from_bytes(slots, "little")
    return Counter(struct.unpack(f"<{k}Q", total.to_bytes(8 * k, "little")))


def _mc_size_counts(inst: BipartiteInstance, samples: int, seed: int) -> Counter:
    """The matching size of each of the samples of ``mc_expected_size``, counted.

    Maps each size to the number of samples i < ``samples`` whose ranking,
    ``stream(seed, i).shuffled`` of the offline vertices in name order,
    gives a matching of that size, in ``mc_expected_size``'s batches.
    """
    arrivals, ranked = len(inst.arrival), sorted(inst.ranking)
    n, width = len(ranked), arrivals // 8 + 1
    cells = [inst.reach[inst.ranking.index(v)].to_bytes(width, "little") for v in ranked]
    if n <= _BYTE_CUT:
        cap = _LANES
        # tables[w] maps an id to byte w of its cell
        tables = [bytes(c[w] for c in cells).ljust(256, b"\0") for w in range(width)]
        def columns(start: int, k: int) -> Iterator[bytearray]:
            for ids in _id_columns(seed, start, k, n):
                col = bytearray(k * width)  # byte w of lane i is tables[w][ids[i]]
                for w, table in enumerate(tables):
                    col[w::width] = ids.translate(table)
                yield col
    else:
        cap = max(1, _WIDE_DRAWS // n)
        def columns(start: int, k: int) -> Iterator[bytes]:
            return map(b"".join, zip(*_shuffle_draws(seed, start, k, cells)))

    batches = -(-samples // cap)
    counts: Counter = Counter()
    for b in range(batches):
        start = samples * b // batches
        k = samples * (b + 1) // batches - start
        ones = int.from_bytes((b"\x01" + bytes(width - 1)) * k, "little")
        guard, full = ones << arrivals, ones * ((1 << arrivals) - 1)
        free = full
        for col in columns(start, k):
            a = int.from_bytes(col, "little") & free
            free ^= a ^ (a & ((a | guard) - ones))
        counts.update(_lane_sizes(full ^ free, k, width))
    return counts


def mc_expected_size(inst: BipartiteInstance, samples: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the expected matching size.

    Sample i ranks the offline party by a Fisher-Yates shuffle of its
    vertices in name order, drawn from ``stream(seed, i)``, so the estimate
    is bit-identical for identical (instance, samples, seed) regardless of
    batching, and does not depend on the instance's own ranking.

    ``_mc_size_counts`` picks its path once: for n <= ``_BYTE_CUT`` offline
    ids, the fewest batches of at most ``_LANES`` samples, each shuffled by
    ``_id_columns`` and read by one ``translate`` per cell byte; above, of at
    most ``_WIDE_DRAWS // n``, each by ``_shuffle_draws``, its cells joined by
    rank.  Batch sizes differ by at most one.  The party-swapped greedy of
    ``engine._greedy`` then runs on the whole batch at once, on lanes.
    Each offline id's ``reach`` mask is a little-endian cell of
    ``width = arrivals // 8 + 1`` bytes, so its bit ``arrivals``
    (``guard``) lies above every arrival bit.  Sample i's cells and free
    arrivals sit at byte ``width * i`` of one int.  At each ranking position
    ``a`` holds every lane's free neighbours and ``a ^ (a & ((a | guard) -
    ones))``, with no negative int, every lane's lowest set bit: the guard
    keeps each lane above 0, so no borrow crosses lanes.  A lane's size is
    the number of arrivals it took, and ``_lane_sizes`` counts them.

    The mean and the reported stddev, the sample standard deviation of the
    per-run size (zero when only one sample was requested), are read by
    ``_mean`` off that histogram, kept as ``sizes``, and off its squares.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    counts = _mc_size_counts(inst, samples, seed)
    mean = _mean(counts)
    square = _mean(Counter({s * s: c for s, c in counts.items()}))
    sd = math.sqrt((square - mean * mean) * samples / (samples - 1)) if samples > 1 else 0.0
    return McEstimate(mean=float(mean), stddev=sd, samples=samples, seed=seed, sizes=counts)
