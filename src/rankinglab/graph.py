"""Finite undirected graphs as sets of two-element frozensets.

Vertices are opaque string tokens.  An edge is a frozenset of two distinct
vertices, so undirected equality and set algebra come for free.  A graph (and
a matching) is simply a set of edges.  All functions are pure: nothing
mutates its arguments and every returned collection is immutable.

Vertex names carry a total order (plain string comparison) that is used only
to make searches deterministic, never to encode meaning.

The maximum matching is ``bipartite_max_matching``, one name-ordered pass of
Kuhn's augmenting-path method, which is polynomial; it designates the
perfect matching M* of an instance.  Callers that need only a maximum
matching's size (``mc``, the theorem 4 and 6 checks, the hard-family
filter) use ``engine._max_matching_size`` on the ``reach`` masks instead,
with no edge set built.  The exhaustive general-graph search it is held to,
and the rest of the name-level set algebra the tests use, are in
``tests/oracles.py``.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional

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


def is_bipartite(g: Iterable[Edge], left: AbstractSet, right: AbstractSet) -> bool:
    """True iff every endpoint is declared and no edge stays inside one side."""
    for e in g:
        if not all(x in left or x in right for x in e):
            return False
        if e <= left or e <= right:
            return False
    return True


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


def bipartite_max_matching(g: AbstractSet) -> frozenset:
    """``tests/oracles.py``'s ``max_card_matching(g)`` on a bipartite graph, in polynomial time.

    Kuhn's augmenting-path method (1955), run in name order: one pass over
    the vertices in ascending name order, and from each one still uncovered
    an iterative alternating depth-first search that visits neighbours in
    ascending name order and augments on the first free vertex it reaches.
    A vertex the search has left stays marked until the next start.  On a
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
    for nbrs in adj.values():
        nbrs.sort()
    _two_colour(adj)
    mate: Dict[Vertex, Vertex] = {}
    for s in sorted(adj):
        if s in mate:
            continue
        # path alternates s, w1, mate[w1], w2, mate[w2], ...; one neighbour
        # iterator per even position, so no step recurses
        path = [s]
        seen = {s}
        stack = [iter(adj[s])]
        while stack:
            for w in stack[-1]:
                if w not in seen:
                    break
            else:
                stack.pop()
                del path[-2:]
                continue
            seen.add(w)
            x = mate.get(w)
            if x is None:
                path.append(w)
                for a, b in zip(path[::2], path[1::2]):
                    mate[a], mate[b] = b, a
                break
            seen.add(x)
            path += (w, x)
            stack.append(iter(adj[x]))
    return frozenset(frozenset((a, b)) for a, b in mate.items() if a < b)
