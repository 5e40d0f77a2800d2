"""Finite undirected graphs as sets of two-element frozensets.

Vertices are opaque string tokens.  An edge is a frozenset of two distinct
vertices, so undirected equality and set algebra come for free.  A graph (and
a matching) is simply a set of edges.  Every public function is pure:
nothing mutates its arguments and every returned collection is immutable.

Vertex names carry a total order (plain string comparison) that is used only
to make searches deterministic, never to encode meaning.

``_augment`` is the package's one augmenting-path search (Kuhn's method),
on bitmasks.  ``bipartite_max_matching`` runs it in name order, which is
polynomial, and designates the perfect matching M* of an instance; callers
that need a maximum matching on the ``reach`` masks (``mc``, the theorem 4
and 6 checks, the lemma 3 chain's perfectness test) run it through
``engine._max_matching`` instead, with no edge set built.  The exhaustive
general-graph search both are held to, and the rest of the name-level set
algebra the tests use, ``is_bipartite`` among it, are in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence

Vertex = str
Edge = frozenset
EdgeSet = frozenset


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


def _mate_map(m: Iterable[Edge]) -> Dict[Vertex, Vertex]:
    """Each vertex the matching m (of two-vertex edges) covers, mapped to its partner."""
    return {x: y for a, b in m for x, y in ((a, b), (b, a))}


def partner(m: Iterable[Edge], v: Vertex) -> Optional[Vertex]:
    """The vertex matched to v in m, or None.  m must be a matching."""
    found = None
    for e in m:
        if v in e:
            if found is not None:
                raise ValueError(f"{v!r} is covered twice; not a matching")
            (found,) = e - {v}
    return found


def _two_colour(adj: Dict[Vertex, List[Vertex]]) -> None:
    """Raise ValueError unless the graph with adjacency ``adj`` is bipartite."""
    side: Dict[Vertex, bool] = {}
    for root in adj:
        if root in side:
            continue
        side[root] = False
        todo = [root]
        while todo:
            a = todo.pop()
            for b in adj[a]:
                if b not in side:
                    side[b] = not side[a]
                    todo.append(b)
                elif side[b] == side[a]:
                    raise ValueError(f"graph is not bipartite: odd cycle through {b!r}")


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


def bipartite_max_matching(g: AbstractSet) -> frozenset:
    """``tests/oracles.py``'s ``max_card_matching(g)`` on a bipartite graph, in polynomial time.

    Kuhn's method (1955) in name order: with the vertices numbered by name,
    ``_augment`` runs from each one still uncovered, in that order, on their
    neighbour masks, one ``mate`` list serving as both partner arrays.  Its
    searches visit neighbours in name order, and a failed search's marks, on
    the side opposite its start, hold until the next augmentation.  On a
    bipartite graph that prunes only subtrees in which the exhaustive search
    finds no path either, and a vertex with no augmenting path never gains
    one later (Berge), so the pass makes the exhaustive loop's augmentations
    in the same order and returns the same matching, edge for edge.

    Raises ValueError when g has an odd cycle.
    """
    adj: Dict[Vertex, List[Vertex]] = {}
    for e in g:
        a, b = e
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    _two_colour(adj)
    names = sorted(adj)
    pos = {v: i for i, v in enumerate(names)}
    masks = [sum(1 << pos[w] for w in adj[v]) for v in names]
    mate, seen = [-1] * len(names), 0
    for s in range(len(names)):
        if mate[s] < 0:
            seen = max(0, _augment(s, masks, mate, mate, seen))
    return frozenset(frozenset((names[i], names[j])) for i, j in enumerate(mate) if i < j)
