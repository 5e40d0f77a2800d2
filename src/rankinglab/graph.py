"""Matchings on an index: Kuhn's method on ``reach``, and M* in one form.

This is the package's one home for finding and checking a matching, on an
index with no edge set built.  ``_kuhn`` is its one augmenting-path search
(Kuhn's method), on bitmasks.  ``_max_matching`` runs it on ``reach`` from
the greedy's matching (``mc``, the theorem 4 and 6 checks, and
``_require_perfect``, the lemma 3 chain's perfectness test); ``_designated``
runs it in name order to designate the perfect matching M*, and ``_star``
reads a caller's or a planted M* in the same form, each ranked id's partner
as an arrival position.  Vertex names carry a total order (plain string
comparison) that is used only to make that designation deterministic,
never to encode meaning.

A caller passes M* as any set of two-vertex sets of names, the form in
which ``gen_perfect`` returns its planted pairs and ``perfect_matching_of``
the designated M*.  The name-level searches these are held to,
``bipartite_max_matching`` among them, and the set algebra on names the
tests build and check matchings with (``edge``, ``vertices``,
``is_matching``, ``partner``) are in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Sequence

from .engine import BipartiteInstance, _greedy, _inverse


def _kuhn(adj: Sequence[int], mate_to: list, mate_from: list) -> None:
    """Kuhn's method (1955) on masks: an augmenting-path search from each free position.

    ``adj[x]`` masks x's neighbours, ``mate_to[j]`` is neighbour j's partner
    or -1, and ``mate_from[x]`` x's.  From each position x in order whose
    ``mate_from`` entry is still -1, an alternating depth-first search tries
    the lowest bit first and skips what the failed searches since the last
    augmentation reached, none of which leads to a free neighbour until the
    matching changes.  It flips the first augmenting path in both arrays
    and clears that skip set; a position with no path never gains one later.
    """
    seen = 0
    for s, mask in enumerate(adj):
        if mate_from[s] >= 0:
            continue
        # the path alternates s, via[0], mate_to[via[0]], via[1], ...; cands[i]
        # holds the neighbours its i-th position may still try
        via, cands = [], [mask]
        while cands:
            a = cands[-1] & ~seen
            if not a:
                cands.pop()
                del via[-1:]
                continue
            low = a & -a
            seen |= low
            j = low.bit_length() - 1
            if mate_to[j] < 0:
                x = s  # each neighbour on the path passes to the position before it
                for k in (*via, j):
                    mate_from[x] = k
                    mate_to[k], x = x, mate_to[k]
                seen = 0
                break
            via.append(j)
            cands.append(adj[mate_to[j]])


def _max_matching(reach: Sequence[int], arrivals: int) -> List[int]:
    """A maximum matching of the index, as a partner array like ``engine._greedy``'s.

    ``_kuhn`` from ``_greedy``'s maximal matching, from each offline id it
    leaves free, in id order.
    """
    n = len(reach)
    prs = _greedy(reach, arrivals)
    _kuhn(reach, prs, _inverse(prs, n))
    return prs


def _max_matching_size(reach: Sequence[int], arrivals: int) -> int:
    """The size of a maximum matching of the index, with no edge set built."""
    return arrivals - _max_matching(reach, arrivals).count(-1)


def _designated(inst: BipartiteInstance) -> Optional[List[int]]:
    """M*: each ranked id's partner as an arrival position, or None when a vertex stays uncovered.

    Kuhn's method in name order: with both parties numbered by name and
    their neighbour masks read off ``reach``, ``_kuhn`` runs from every
    vertex in that order, one ``mate`` list serving as both partner arrays.
    It makes the augmentations of the exhaustive name-level search in
    ``tests/oracles.py``, edge for edge.
    """
    ranked, arrivals = inst.ranking.order, inst.arrival.order
    at = {v: i for i, v in enumerate(sorted((*ranked, *arrivals)))}
    ids = [at[u] for u in arrivals]
    masks = [0] * len(at)
    for v, mask in zip(ranked, inst.reach):
        x = at[v]
        while mask:
            low = mask & -mask
            y = ids[low.bit_length() - 1]
            masks[x] |= 1 << y
            masks[y] |= 1 << x
            mask ^= low
    mate = [-1] * len(at)
    _kuhn(masks, mate, mate)
    back = {y: j for j, y in enumerate(ids)}
    return None if -1 in mate else [back[mate[at[v]]] for v in ranked]


def _star(inst: BipartiteInstance, m_star: AbstractSet) -> List[int]:
    """A caller's perfect matching M* in ``_designated``'s form, checked on ``reach``.

    Each edge, a frozenset so that a repeat counts once, must join a ranked
    id and an arrival ``reach`` links, both untaken; then all must be covered.
    """
    rank, pos = inst.ranking._pos, inst.arrival._pos
    edges, star, taken = {frozenset(e) for e in m_star}, [-1] * len(rank), 0
    for e in edges:
        v, u = sorted(e, key=pos.__contains__) if len(e) == 2 else (None, None)
        r, j = rank.get(v), pos.get(u)
        if r is None or j is None or not inst.reach[r] >> j & 1 or star[r] >= 0 or taken >> j & 1:
            raise ValueError("m_star must be a matching inside the instance graph")
        star[r], taken = j, taken | 1 << j
    if not len(edges) == len(rank) == len(pos):
        raise ValueError("m_star must cover both parties entirely")
    return star


def perfect_matching_of(inst: BipartiteInstance) -> Optional[frozenset]:
    """``_designated``'s perfect matching M* as name edges, or None if there is none."""
    star = _designated(inst)
    if star is None:
        return None
    return frozenset(frozenset((inst.arrival[j], v)) for v, j in zip(inst.ranking, star))


_NO_PERFECT = "instance has no perfect matching covering both parties"


def _require_perfect(inst: BipartiteInstance) -> None:
    """ValueError unless a perfect matching covers both parties, on ``reach``."""
    a = len(inst.arrival)
    if not _max_matching_size(inst.reach, a) == a == len(inst.ranking):
        raise ValueError(_NO_PERFECT)
