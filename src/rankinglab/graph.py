"""Finite undirected graphs as sets of two-element frozensets.

Vertices are opaque string tokens.  An edge is a frozenset of two distinct
vertices, so undirected equality and set algebra come for free.  A graph (and
a matching) is simply a set of edges.  All functions are pure: nothing
mutates its arguments and every returned collection is immutable.

Vertex names carry a total order (plain string comparison) that is used only
to make searches deterministic, never to encode meaning.

Maximum matchings come from two searches that return the same matching.
``max_card_matching`` repeats the exhaustive augmenting-path search of
``find_augmenting_path``; it is complete on any graph, odd cycles included,
and stays as the general-graph oracle.  ``bipartite_max_matching`` is one
name-ordered pass of Kuhn's augmenting-path method, which is polynomial; it
designates the perfect matching M* of an instance and serves the tests.
Callers that need only a maximum matching's size (``mc``, the theorem 4 and
6 checks, the hard-family filter) use ``engine._max_matching_size`` on the
``reach`` masks instead, with no edge set built.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


def neighbors(g: Iterable[Edge], v: Vertex) -> frozenset:
    """The vertices adjacent to v in g."""
    out = set()
    for e in g:
        if v in e:
            out.update(e - {v})
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


def is_maximal_matching(g: AbstractSet, m: AbstractSet) -> bool:
    """True iff m is a matching and no edge of g extends it.

    Raises ValueError when m is not a subset of g; that always signals a bug
    in the caller rather than a property worth reporting false for.
    """
    mset = frozenset(m)
    if not mset <= frozenset(g):
        raise ValueError("m must be a subset of g")
    if not is_matching(mset):
        return False
    covered = vertices(mset)
    return all(e & covered for e in g)


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


def remove_vertices(g: Iterable[Edge], xs: AbstractSet) -> frozenset:
    """The subgraph left after deleting the vertices xs and their edges."""
    return frozenset(e for e in g if not (e & xs))


def symmetric_difference(m1: Iterable[Edge], m2: Iterable[Edge]) -> frozenset:
    """Edges in exactly one of the two sets."""
    return frozenset(m1) ^ frozenset(m2)


def path_edges(p: Sequence[Vertex]) -> List[Edge]:
    """The consecutive edges of a vertex path.

    A path is a sequence of pairwise distinct vertices; anything else is a
    malformed input and raises ValueError.
    """
    if len(set(p)) != len(p):
        raise ValueError("path vertices must be pairwise distinct")
    return [frozenset((p[i], p[i + 1])) for i in range(len(p) - 1)]


def is_alternating_path(p: Sequence[Vertex], e: AbstractSet) -> bool:
    """Whether the edges of p alternate against the edge set e.

    Membership is tested against a witness set E' that is either e itself or
    disjoint from e; edges at even positions (counting from one) must lie in
    E', edges at odd positions must not.  With E' = e this is the familiar
    out-in-out pattern.  The disjoint witness can always be taken to be the
    even-position edges themselves, so that phase reduces to those edges
    avoiding e.  Paths with at most one edge alternate vacuously.
    """
    es = path_edges(p)
    eset = frozenset(e)
    evens_in = all(x in eset for x in es[1::2])
    odds_out = all(x not in eset for x in es[0::2])
    if odds_out and evens_in:
        return True
    return all(x not in eset for x in es[1::2])


def is_augmenting_path(p: Sequence[Vertex], m: AbstractSet) -> bool:
    """Whether flipping p along m would grow the matching m by one edge.

    The edges of p must strictly alternate starting outside m, the path needs
    at least two vertices, and both ends must be uncovered by m.
    """
    if len(p) < 2:
        return False
    es = path_edges(p)
    mset = frozenset(m)
    if any(x in mset for x in es[0::2]):
        return False
    if any(x not in mset for x in es[1::2]):
        return False
    covered = vertices(mset)
    return p[0] not in covered and p[-1] not in covered


def find_augmenting_path(g: AbstractSet, m: AbstractSet) -> Optional[List[Vertex]]:
    """A deterministic augmenting path for m in g, or None.

    Performs an exhaustive alternating depth-first search from every
    uncovered vertex in ascending name order, visiting neighbors in ascending
    name order.  Backtracking keeps the search complete on any finite graph,
    including non-bipartite ones, at an exponential worst case.  It is kept
    as the search behind ``max_card_matching``, the general-graph oracle
    that ``bipartite_max_matching`` is tested against edge for edge.
    """
    mset = frozenset(m)
    gset = frozenset(g)
    if not is_matching(mset):
        raise ValueError("m must be a matching")
    if not mset <= gset:
        raise ValueError("m must be a subset of g")
    adj = {v: sorted(neighbors(gset, v)) for v in vertices(gset)}
    mate = _mate_map(mset)  # its keys are the vertices m covers

    def extend(path: List[Vertex], seen: frozenset) -> Optional[List[Vertex]]:
        # the last path vertex is free or was entered along its matched edge,
        # so every unseen neighbor continues with a non-matching edge
        for w in adj[path[-1]]:
            if w in seen:
                continue
            if w not in mate:
                return path + [w]
            x = mate[w]
            if x in seen:
                continue
            found = extend(path + [w, x], seen | {w, x})
            if found is not None:
                return found
        return None

    for s in sorted(vertices(gset) - mate.keys()):
        found = extend([s], frozenset((s,)))
        if found is not None:
            return found
    return None


def max_card_matching(g: AbstractSet) -> frozenset:
    """A maximum-cardinality matching of g, deterministically chosen."""
    m: frozenset = frozenset()
    while True:
        p = find_augmenting_path(g, m)
        if p is None:
            return m
        m = symmetric_difference(m, path_edges(p))


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
    """``max_card_matching(g)`` on a bipartite graph, in polynomial time.

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


def make_perfect_matching(g: AbstractSet, m: AbstractSet) -> frozenset:
    """The subgraph of g left after deleting every vertex m does not cover.

    Deleting a vertex outside m takes no edge of m with it, so the result
    contains all of m, and m is perfect with respect to it.
    """
    mset = frozenset(m)
    if not is_matching(mset):
        raise ValueError("m must be a matching")
    gg = frozenset(g)
    if not mset <= gg:
        raise ValueError("m must be a subset of g")
    return remove_vertices(gg, vertices(gg) - vertices(mset))


def all_matchings(g: AbstractSet) -> Iterator[frozenset]:
    """Every matching contained in g, the empty one included.

    Deterministic order; the number of results is the number of matchings,
    not the number of edge subsets, so this stays cheap on small graphs.
    """
    es: List[Edge] = sorted(g, key=sorted)

    def rec(i: int, used: frozenset, acc: Tuple[Edge, ...]) -> Iterator[frozenset]:
        if i == len(es):
            yield frozenset(acc)
            return
        yield from rec(i + 1, used, acc)
        e = es[i]
        if not (e & used):
            yield from rec(i + 1, used | e, acc + (e,))

    yield from rec(0, frozenset(), ())
