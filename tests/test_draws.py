"""Pinned random draws: generator bytes and the cases random-mode suites check.

Each digest was recorded once and must never drift.  A change that moves a
draw (another order of ``uniform`` calls, another shuffle, another redraw
rule) changes every replay command and CSV row that follows, so it shows
here first.
"""

from __future__ import annotations

import hashlib

import pytest

from rankinglab import (
    BipartiteInstance,
    gen_perfect,
    gen_random,
    serialize_instance,
    suite_lemma6,
    suite_lemma7,
    suite_lemma8,
    suite_lemma9,
    suites,
)
from rankinglab.structure import _Frame

SEEDS = range(100)


def _prob(seed: int) -> float:
    return (seed % 11) / 10  # 0.0, 0.1, ..., 1.0 in turn


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode())
        h.update(b"\0")
    return h.hexdigest()


def _indexed_as_constructed(inst: BipartiteInstance) -> str:
    # the generator's index is the one the validating constructor derives
    rebuilt = BipartiteInstance(inst.graph, inst.ranking, inst.arrival)
    assert rebuilt.reach == inst.reach
    return serialize_instance(inst)


@pytest.mark.parametrize(
    "sides, digest",
    [
        ((0, 0), "0414bd512cde4fb47f0fe28889e8efaff2b9c769d484396d857a8eb4bcf8be8e"),
        ((1, 3), "bf153cb19a36eb32b0f7908fda7dc1d0873ca74ce36803c9d086a93f945c9e5d"),
        ((4, 5), "9fac7936c2b014b4e7b874e131ad1dabb25518f7bde42c7c2a57cadb16df7156"),
        ((7, 2), "bf2ca8181fefcab57144dc4c87626ddcdb494ee04f5f8f9966025cb209a48c78"),
        ((12, 12), "4fe3cb1389f0b3822da375a0e8b14661584dde68311ea713c87326a89f22d985"),
    ],
)
def test_gen_random_bytes(sides, digest):
    texts = (_indexed_as_constructed(gen_random(*sides, _prob(s), s)) for s in SEEDS)
    assert _digest(texts) == digest


@pytest.mark.parametrize(
    "n, digest",
    [
        (0, "971be89319ad2114d995a582f50fc094437ef1ad4e63e0867a907b8f77203954"),
        (1, "728590721718fe03a79daee971d5b4421884b8177a26b0612297b12f573ab5a8"),
        (5, "b483c6e9e62454ad7469bc07be742d4b0ee10f9d256fd3793655924b80592093"),
        (9, "5552cf0905ee140456a2c90c630854f70973223cc769ae61c8fa373cd6a5e4de"),
    ],
)
def test_gen_perfect_bytes(n, digest):
    def texts():
        for s in SEEDS:
            inst, planted = gen_perfect(n, _prob(s), s)
            yield _indexed_as_constructed(inst)
            yield repr(sorted(map(sorted, planted)))

    assert _digest(texts()) == digest


@pytest.mark.parametrize(
    "suite, digest",
    [
        (suite_lemma6, "eda9fce4411ff2ec208a648ccee2f092502f196dc4515b4951e7a0a541c48a0c"),
        (suite_lemma7, "03131ae326ce1200a7219fb8908c606fd90f5233806c0f25f37bb7d5f690dc6f"),
        (suite_lemma8, "02ee9bb979bbd2da870338988e1fefd7dc4bb6b2b4d375b03e89d0da5dd70aa2"),
        (suite_lemma9, "1b44d9e6137658aa877b5bf211dc56926d562692f39d12795449e042ecb3c4c9"),
    ],
)
def test_random_mode_case_draws(suite, digest, monkeypatch):
    seen, run = [], suites._run

    def run_seen(name, cases, check, notes=None):
        def check_seen(one, core, x, *rest):  # each case carries its vertex's name
            seen.append(f"{serialize_instance(one)}{x}")
            return check(one, core, x, *rest)

        return run(name, cases, check_seen, notes)

    monkeypatch.setattr(suites, "_run", run_seen)
    for seed in range(20):
        result = suite(15, seed, max_side=5)
        assert result.cases == 15 and result.passed
    assert len(seen) == 20 * 15
    assert _digest(seen) == digest


@pytest.mark.parametrize(
    "name, digest",
    [
        ("ranking-matching", "31cb5b3f6cefde6fba8fba308d4a5e0ceca17e2953656ef1de5019a59c36ade4"),
        ("lemma3", "21e1913ca5f9145d797c061148478cb81d6f129d1c0bacae5a7418db6a5548e5"),
        ("lemma5", "e641e881c84ac7e593d65a8af1e8971787765debd8c536e0bd97344b6c23951e"),
        ("rank-move", "78062e9cfd501d448e11132775c3c47b927491b5547aa2a789bebf1c5f2c6e6b"),
        ("theorem4", "21e1913ca5f9145d797c061148478cb81d6f129d1c0bacae5a7418db6a5548e5"),
        ("theorem6", "31cb5b3f6cefde6fba8fba308d4a5e0ceca17e2953656ef1de5019a59c36ade4"),
    ],
)
def test_random_mode_drawn_cases(name, digest, monkeypatch):
    # at max_side 5, ranking-matching and theorem6 draw alike, as do lemma3 and
    # theorem4, so each pair pins one digest twice
    seen, run = [], suites._run

    def run_seen(suite, cases, check, notes=None):
        def check_seen(one, *rest):  # a ``_frames`` pair (lemma5's core) is left out
            later = [r for r in rest if not (type(r) is tuple and isinstance(r[0], _Frame))]
            seen.append(f"{serialize_instance(one)}{later!r}")
            return check(one, *rest)

        return run(suite, cases, check_seen, notes)

    monkeypatch.setattr(suites, "_run", run_seen)
    for seed in range(20):
        result = suites.SUITES[name](15, seed, max_side=5)
        assert result.cases == 15 and result.passed
    assert len(seen) == 20 * 15
    assert _digest(seen) == digest
