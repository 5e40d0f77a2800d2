"""Known-answer and distribution checks for the deterministic generator."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankinglab import SplitMix64, stream

# First outputs for seed 0, cross-checked against the reference implementation.
SEED0_OUTPUTS = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def test_known_answer_seed_zero():
    g = SplitMix64(0)
    assert tuple(g.next_u64() for _ in range(4)) == SEED0_OUTPUTS


def test_same_seed_same_sequence():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_seed_wraps_to_64_bits():
    assert SplitMix64(2**64).next_u64() == SEED0_OUTPUTS[0]


@given(st.integers(0, 2**64 - 1), st.integers(1, 10**9))
def test_below_stays_in_range(seed: int, bound: int):
    g = SplitMix64(seed)
    for _ in range(8):
        assert 0 <= g.below(bound) < bound


class _DrawBudget(SplitMix64):
    """SplitMix64 that fails instead of looping once it has drawn 1000 outputs."""

    __slots__ = ("draws",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.draws = 0

    def next_u64(self) -> int:
        self.draws += 1
        if self.draws > 1000:
            raise RuntimeError("below() rejected 1000 draws in a row")
        return super().next_u64()


def test_below_accepts_bounds_up_to_two_to_the_64():
    g = _DrawBudget(3)
    assert 0 <= g.below(2**64) < 2**64
    with pytest.raises(ValueError, match="2\\*\\*64"):
        g.below(2**64 + 1)
    with pytest.raises(ValueError):
        g.below(0)


@given(st.integers(0, 2**64 - 1))
def test_uniform_unit_interval(seed: int):
    g = SplitMix64(seed)
    for _ in range(8):
        assert 0.0 <= g.uniform() < 1.0


@given(st.integers(0, 2**32), st.lists(st.integers(), max_size=20))
def test_shuffled_is_permutation(seed, xs):
    out = SplitMix64(seed).shuffled(xs)
    assert sorted(out) == sorted(xs)


def test_shuffled_leaves_input_alone():
    xs = [1, 2, 3, 4]
    SplitMix64(7).shuffled(xs)
    assert xs == [1, 2, 3, 4]


def test_choice_returns_member():
    g = SplitMix64(5)
    xs = ["a", "b", "c"]
    for _ in range(20):
        assert g.choice(xs) in xs


def test_choice_empty_rejected():
    with pytest.raises(IndexError):
        SplitMix64(5).choice([])


def test_shuffle_uniformity_rough():
    # 3! = 6 arrangements, 6000 draws: each should land near 1000.
    counts = Counter(
        tuple(SplitMix64(1000 + i).shuffled([0, 1, 2])) for i in range(6000)
    )
    assert len(counts) == 6
    assert all(800 < c < 1200 for c in counts.values())


def test_stream_is_reproducible():
    assert stream(9, 3).next_u64() == stream(9, 3).next_u64()


def test_streams_differ_by_index():
    outs = {stream(9, i).next_u64() for i in range(100)}
    assert len(outs) == 100


def test_stream_index_must_be_nonnegative():
    with pytest.raises(ValueError, match="stream index must be nonnegative"):
        stream(9, -1)


def test_streams_differ_by_seed():
    outs = {stream(s, 0).next_u64() for s in range(100)}
    assert len(outs) == 100
