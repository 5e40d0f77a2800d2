"""Benchmark-owned instance generator (stdlib only).

The benchmark never asks the program under test to make its inputs: every
instance is drawn here from a ``random.Random`` seeded by the workload seed
and the op index, written in the canonical instance-file form, and handed to
the program only as that file.  Because the text is canonical (edges sorted
by arrival position, then ranking position), the sha256 prefix of the file
bytes equals the ``instance_id`` the program prints for it.

Vertex names follow the program's convention: offline v1, v2, ... and
online u1, u2, ...
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Set, Tuple


@dataclass(frozen=True)
class Instance:
    """One generated instance: both orders and the (online, offline) edges."""

    ranking: Tuple[str, ...]
    arrival: Tuple[str, ...]
    edges: frozenset
    planted: int = 0  # size of a planted perfect matching, 0 when none

    def text(self) -> str:
        rpos = {v: i for i, v in enumerate(self.ranking)}
        apos = {u: i for i, u in enumerate(self.arrival)}
        lines = [
            " ".join(["offline", *self.ranking]),
            " ".join(["online", *self.arrival]),
        ]
        for u, v in sorted(self.edges, key=lambda e: (apos[e[0]], rpos[e[1]])):
            lines.append(f"edge {u} {v}")
        return "\n".join(lines) + "\n"


def fingerprint(text: str) -> str:
    """sha256 prefix of the canonical text, as in the program's CSV rows."""
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _names(prefix: str, n: int) -> List[str]:
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def _shuffled(rnd: random.Random, xs: List[str]) -> Tuple[str, ...]:
    out = list(xs)
    rnd.shuffle(out)
    return tuple(out)


def random_bipartite(rnd: random.Random, n_off: int, n_on: int, p: float) -> Instance:
    """Every cross pair kept independently with probability p; orders shuffled."""
    offline, online = _names("v", n_off), _names("u", n_on)
    edges: Set[Tuple[str, str]] = set()
    for u in online:
        for v in offline:
            if rnd.random() < p:
                edges.add((u, v))
    return Instance(_shuffled(rnd, offline), _shuffled(rnd, online), frozenset(edges))


def planted_perfect(rnd: random.Random, n: int, extra: float) -> Instance:
    """u_k - v_k for every k, plus each other cross pair with probability extra."""
    offline, online = _names("v", n), _names("u", n)
    edges = {(u, v) for u, v in zip(online, offline)}
    for j, u in enumerate(online):
        for k, v in enumerate(offline):
            if j != k and rnd.random() < extra:
                edges.add((u, v))
    return Instance(
        _shuffled(rnd, offline), _shuffled(rnd, online), frozenset(edges), planted=n
    )


def staircase(n: int) -> Instance:
    """u_i adjacent to v_i and v_(i+1), both parties in index order.

    The greedy matches every u_i to v_i; deleting the top-ranked v1 shifts
    every arrival one step down the stairs, a cascade path of 2n vertices.
    """
    offline, online = _names("v", n), _names("u", n)
    edges = {(online[i], offline[i]) for i in range(n)}
    edges |= {(online[i], offline[i + 1]) for i in range(n - 1)}
    return Instance(tuple(offline), tuple(online), frozenset(edges), planted=n)
