"""Deterministic pseudo-random streams for reproducible experiments.

Everything in this package that draws randomness (Monte Carlo estimates,
instance generators, randomized check suites) goes through this module, so a
run is fully determined by its integer seed.  The generator is SplitMix64
(Steele, Lea and Flood's splittable generator): 64-bit state, one addition and
a three-stage avalanche per output.  It is tiny and fast, and the output
sequence is fixed for all time, so frozen test values cannot rot when some
library upgrades its RNG internals.

Streams are splittable.  ``stream(seed, i)`` returns an independent generator
for sample index ``i``, seeded from the i-th raw output of the parent
sequence.  Sample i therefore sees the same randomness no matter how the
samples are batched, ordered, or sharded across workers.

``probability.mc_expected_size`` runs the generator on lanes: one Python int
holds the states of a batch of streams, one per 128-bit lane, and each step
advances them all, from seeds set by lane arithmetic.  Its shuffles equal
``stream(seed, i).shuffled``, each draw reduced modulo its bound on the
lanes, a power of two by a mask and any other bound by a reciprocal
multiply, and the remainders of up to 16 steps turned into bytes at once.
Up to ``probability._BYTE_CUT`` offline vertices (the two paths' crossover
moves with the sample count) every Fisher-Yates step runs on byte lanes of
id columns; above it the swaps run one sample at a time.  Its greedy reads
them in lanes too.  ``SplitMix64``, the reference they are tested against,
shuffles each sample with a draw that ``below``'s rejection step refuses.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, TypeVar

T = TypeVar("T")

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """A SplitMix64 generator over 64-bit unsigned outputs."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), exact via rejection sampling."""
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must lie in [1, 2**64], got {bound}")
        # largest multiple of bound representable in 64 bits
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def shuffled(self, xs: Iterable[T]) -> List[T]:
        """Fisher-Yates shuffle, returned as a new list."""
        out = list(xs)
        for j in range(len(out) - 1, 0, -1):
            r = self.below(j + 1)
            out[j], out[r] = out[r], out[j]
        return out

    def choice(self, xs: Sequence[T]) -> T:
        if not xs:
            raise IndexError("cannot choose from an empty sequence")
        return xs[self.below(len(xs))]


def stream(seed: int, i: int) -> SplitMix64:
    """Independent generator for sample index ``i`` of the run seeded ``seed``."""
    if i < 0:
        raise ValueError("stream index must be nonnegative")
    return SplitMix64(_mix((seed + (i + 1) * _GOLDEN) & _MASK))
