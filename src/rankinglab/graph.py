"""Finite undirected graphs as sets of two-element frozensets.

Vertices are opaque string tokens.  An edge is a frozenset of two distinct
vertices, so undirected equality and set algebra come for free.  A graph (and
a matching) is simply a set of edges.  Every public function is pure:
nothing mutates its arguments and every returned collection is immutable.

Vertex names carry a total order (plain string comparison) that is used only
to make searches deterministic, never to encode meaning.

``_augment`` is the package's one augmenting-path search (Kuhn's method),
on bitmasks, run on an index with no edge set built: by
``engine._max_matching`` on ``reach`` (``mc``, the theorem 4 and 6 checks,
the lemma 3 chain's perfectness test), and by ``probability._designated``,
which designates the perfect matching M* on ``reach`` in name order.  The
name-level general-graph searches both are held to, ``bipartite_max_matching``
among them, and the rest of the set algebra the tests use are in
``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

Vertex = str
Edge = frozenset


def edge(a: Vertex, b: Vertex) -> Edge:
    """The undirected edge {a, b}; endpoints must be distinct."""
    if a == b:
        raise ValueError(f"edge endpoints must be distinct, got {a!r} twice")
    return frozenset((a, b))


def vertices(g: Iterable[Edge]) -> frozenset:
    """All endpoints of all edges of g."""
    out: set = set()
    for e in g:
        out.update(e)
    return frozenset(out)


def is_matching(m: Iterable[Edge]) -> bool:
    """True iff m consists of two-vertex edges that are pairwise disjoint."""
    seen: set = set()
    for e in m:
        if len(e) != 2:
            return False
        if e & seen:
            return False
        seen.update(e)
    return True


def partner(m: Iterable[Edge], v: Vertex) -> Optional[Vertex]:
    """The vertex matched to v in m, or None.  m must be a matching."""
    found = None
    for e in m:
        if v in e:
            if found is not None:
                raise ValueError(f"{v!r} is covered twice; not a matching")
            (found,) = e - {v}
    return found


def _augment(s: int, adj: Sequence[int], mate_to: list, mate_from: list, seen: int) -> int:
    """Kuhn's (1955) augmenting-path search from the free position s, on masks.

    ``adj[x]`` masks x's neighbours, ``mate_to[j]`` is neighbour j's partner
    or -1, and ``mate_from`` holds the partners of the start side.  The
    alternating depth-first search tries the lowest bit first and skips
    ``seen``.  It flips the first augmenting path in both arrays and returns
    -1; with none, it returns ``seen`` grown by every neighbour it reached,
    none of which leads to a free neighbour until the matching changes.
    """
    # the path alternates s, via[0], mate_to[via[0]], via[1], ...; cands[i]
    # holds the neighbours its i-th position may still try
    via, cands = [], [adj[s]]
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
            return -1
        via.append(j)
        cands.append(adj[mate_to[j]])
    return seen
