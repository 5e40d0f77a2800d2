"""Seeded instance generators and the hard family's slot masks.

All generators are deterministic functions of their arguments; the seed
selects a stream from :mod:`rankinglab.rng`.  Offline vertices are named
v1, v2, ... and online vertices u1, u2, ...  The hard family is kept as
slot masks (``_gamma_masks``), which ``gamma_min_ratio`` and ``cli gen gamma``
read; the named family, edge sets o_k - i_l, is an oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Iterator, Tuple

from .engine import BipartiteInstance, Permutation
from .graph import edge
from .probability import _mean_size
from .rng import SplitMix64, stream


def _draw(g: SplitMix64, n_offline: int, n_online: int, keep) -> BipartiteInstance:
    """Edge u_j -- v_k where ``keep(j, k)``, asked in (j, k) order; then the
    offline names are shuffled into the ranking and the online names into the
    arrival order, and the edges indexed straight into ``reach``."""
    pairs = [(j, k) for j in range(n_online) for k in range(n_offline) if keep(j, k)]
    ranking = Permutation(g.shuffled(f"v{k}" for k in range(1, n_offline + 1)))
    arrival = Permutation(g.shuffled(f"u{j}" for j in range(1, n_online + 1)))
    reach = [0] * n_offline
    for j, k in pairs:
        reach[ranking.index(f"v{k + 1}")] |= 1 << arrival.index(f"u{j + 1}")
    return BipartiteInstance._indexed(ranking, arrival, tuple(reach))


def gen_random(
    n_offline: int, n_online: int, edge_prob: float, seed: int
) -> BipartiteInstance:
    """A random bipartite instance with independently kept edges."""
    if n_offline < 0 or n_online < 0:
        raise ValueError("party sizes must be nonnegative")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    g = stream(seed, 0)
    return _draw(g, n_offline, n_online, lambda j, k: g.uniform() < edge_prob)


def gen_perfect(
    n: int, extra_edge_prob: float, seed: int
) -> Tuple[BipartiteInstance, frozenset]:
    """An instance with a planted perfect matching, plus that matching.

    Pairs u_k with v_k for k = 1..n, then adds each remaining cross edge
    independently.  Both orders are shuffled.  Returns the instance together
    with the planted matching so callers need not recompute one.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError("extra_edge_prob must lie in [0, 1]")
    g = stream(seed, 0)
    inst = _draw(g, n, n, lambda j, k: j == k or g.uniform() < extra_edge_prob)
    return inst, frozenset(edge(f"u{k}", f"v{k}") for k in range(1, n + 1))


def _gamma_masks(n: int) -> Iterator[Tuple[list, list]]:
    """The hard family at size n as slot masks: (masks, active online slots).

    Offline slots are o0..o(2n-1) and online slots i0..i(2n-1); mask k is
    offline slot k's, bit l for online slot i_l, and the active online slots
    are those with an edge, in slot order.  Every graph contains the base
    matching {o_k - i_k : k < n} and admits no matching larger than n.

    An edge o_k - i_l with k, l >= n joins two slots the base leaves free, so
    with the base it is a matching of n + 1 edges: no family graph has one.
    The candidates are the subsets of the other 3n^2 - n edges, numbered in
    binary.  By König's theorem a candidate's largest matching is n exactly
    when n vertices cover its edges, and those n must be one end of each
    base edge.  So each of the 2^n choices of ends covers one set of
    candidate edges, and the family is every subset of one of those sets, in
    binary order: no matching is searched for.  The edges are listed by
    offline slot, so each graph's masks are read off a small table per slot.
    Supported for n <= 2: n = 3 would already be 2^24 candidates.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 2:
        raise ValueError("family enumeration is supported for n <= 2 only")
    slots = range(2 * n)
    # slot k's other edges, in l order, are one bit field of the candidate
    # number; table[f] is slot k's mask (with its base edge) for field value f
    fields, edges, off = [], [], 0
    for k in slots:
        ls = [l for l in slots if l != k and min(k, l) < n]
        edges += [(k, l) for l in ls]
        table = [sum(1 << l for t, l in enumerate(ls) if f >> t & 1) for f in range(1 << len(ls))]
        base = 1 << k if k < n else 0
        fields.append((off, (1 << len(ls)) - 1, [base | m for m in table]))
        off += len(ls)
    family = {0}
    for c in range(1 << n):
        # the candidate edges covered by o_k where bit k of c is set, else by i_k
        covered = (c >> k & 1 or l < n and not c >> l & 1 for k, l in edges)
        cover = sum(1 << b for b, yes in enumerate(covered) if yes)
        bits = cover
        while bits:  # every nonempty subset of cover, by the (bits - 1) & cover walk
            family.add(bits)
            bits = bits - 1 & cover
    for bits in sorted(family):
        reach = [table[bits >> at & mask] for at, mask, table in fields]
        yield reach, [l for l in slots if any(m >> l & 1 for m in reach)]


def _arrival_key(rows: list, order) -> tuple:
    """The nonzero ``rows`` masks, bit l moved to l's position in ``order``, sorted."""
    masks = (sum(1 << p for p, l in enumerate(order) if m >> l & 1) for m in rows if m)
    return tuple(sorted(masks))


def gamma_min_ratio(n: int) -> Fraction:
    """The worst expected-size ratio over the hard family at size n.

    Minimizes E[|matching|] / n over every family graph and every arrival
    order of its active online slots, exactly over rankings of the offline
    vertices that have an edge.  The DP runs once per distinct key (the
    nonzero slot masks relabelled to arrival positions and sorted, by
    ``_arrival_key``) on 2n arrivals.  The key is sound because the ranking
    is uniform: renaming offline ids only permutes the rankings, and neither
    an isolated vertex nor an arrival that no mask reaches changes the size.
    Graphs with the same nonzero masks (and so the same active slots) have
    the same keys, so each such multiset is keyed once, through one table
    per arrival order that relabels every mask, built from ``_arrival_key``.
    """
    distinct = {tuple(sorted(m for m in rows if m)): active for rows, active in _gamma_masks(n)}
    keys, tables = set(), {}
    for masks, active in distinct.items():
        for order in permutations(active):
            if order not in tables:
                table = tables[order] = [0]
                for l in range(2 * n):  # table[m + 2^l] is table[m] with l's relabelled bit
                    bit = sum(_arrival_key([1 << l], order))  # 0 if order lacks l
                    table += [m | bit for m in table]
            keys.add(tuple(sorted(tables[order][m] for m in masks)))
    return min(_mean_size(key, 2 * n) for key in keys) / n
