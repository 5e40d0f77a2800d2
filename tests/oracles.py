"""Literal oracles of the package's indexed paths, for the tests only.

``all_matchings`` and ``max_card_matching`` (the exhaustive search of
``find_augmenting_path``) gate ``bipartite_max_matching``,
``engine._max_matching`` and ``engine._ranking_holds``; the name-level path and removal algebra gates
``structure``'s cascades and ``suites._alternates``; the per-t functions on
the ``_ensemble`` table gate the layers of ``probability._layers`` and the
prefix counts ``lemma3_chain`` reads off them, and ``check_lemma3`` is the
chain's inequality per t.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from rankinglab.engine import BipartiteInstance, _greedy, _move_id
from rankinglab.fileformat import fingerprint
from rankinglab.graph import Edge, Vertex, _mate_map, is_matching, vertices
from rankinglab.probability import DEFAULT_CAP, ExactReport, _check_cap, _validated_perfect, lemma3_chain


def neighbors(g: Iterable[Edge], v: Vertex) -> frozenset:
    """The vertices adjacent to v in g."""
    out = set()
    for e in g:
        if v in e:
            out.update(e - {v})
    return frozenset(out)


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


def _check_t(t: int, n: int) -> None:
    if not 1 <= t <= n:
        raise ValueError(f"rank t={t} out of range 1..{n}")


def _ensemble(inst: BipartiteInstance):
    """Matcher outcomes for every ranking of the offline party.

    Maps each permutation of ranking positions (``inst.reach`` numbering;
    the identity is ``inst.ranking``) to a pair (set of matched ranks,
    partner rank per arrival), each row one ``engine._greedy`` run.  The
    per-t functions read it, as the test oracle of the dynamic program in
    ``probability._layers``; the CLI, the suites and ``lemma3_chain`` never
    build it.
    """
    reach = inst.reach
    arrivals = len(inst.arrival)
    runs: Dict[tuple, tuple] = {}
    for perm in permutations(range(len(reach))):
        prs = tuple(_greedy(reach, perm, arrivals))
        runs[perm] = (frozenset(r for r in prs if r >= 0), prs)
    return runs


def rank_matched_prob(inst: BipartiteInstance, t: int, cap: int = DEFAULT_CAP) -> Fraction:
    """Probability that the vertex at rank t ends up matched."""
    _check_cap(inst, cap)
    _check_t(t, len(inst.ranking))
    runs = _ensemble(inst)
    hits = sum(1 for matched, _ in runs.values() if t - 1 in matched)
    return Fraction(hits, len(runs))


def rank_matched_prob_moved(
    inst: BipartiteInstance, t: int, cap: int = DEFAULT_CAP
) -> Fraction:
    """Same event, dual sample space: an independent vertex forced to rank t.

    Draw a ranking and a vertex independently and uniformly, move the vertex
    to rank t, and ask whether it ends up matched.  Each moved ranking is
    hit exactly n times, so this equals ``rank_matched_prob(t)``; computing
    it over the pair space keeps the two routes independent.
    """
    _check_cap(inst, cap)
    n = len(inst.ranking)
    _check_t(t, n)
    runs = _ensemble(inst)
    i = t - 1
    hits = sum(i in runs[_move_id(perm, x, i)][0] for perm in runs for x in range(n))
    return Fraction(hits, len(runs) * n)


def matched_before_prob(
    inst: BipartiteInstance, m_star: AbstractSet, t: int, cap: int = DEFAULT_CAP
) -> Fraction:
    """Probability the designated partner of a random vertex matches rank <= t.

    Draw a ranking and a vertex v independently and uniformly; the event is
    that u = m_star(v) is matched and its mate sits at rank t or better.
    ``m_star`` must be a perfect matching of the instance graph.
    """
    _check_cap(inst, cap)
    n = len(inst.ranking)
    _check_t(t, n)
    mate = _mate_map(_validated_perfect(inst, m_star))
    upos = [inst.arrival.index(mate[v]) for v in inst.ranking]
    runs = _ensemble(inst)
    hits = sum(0 <= prs[j] <= t - 1 for _, prs in runs.values() for j in upos)
    return Fraction(hits, len(runs) * n)


def expected_matched_before_count(
    inst: BipartiteInstance, t: int, cap: int = DEFAULT_CAP
) -> ExactReport:
    """Expected number of arrivals matched to rank t or better."""
    _check_cap(inst, cap)
    _check_t(t, len(inst.ranking))
    runs = _ensemble(inst)
    total = sum(
        sum(1 for r in prs if 0 <= r <= t - 1) for _, prs in runs.values()
    )
    return ExactReport(
        instance_id=fingerprint(inst),
        quantity="expected_count_matched_within_rank",
        params=(("t", t),),
        value=Fraction(total, len(runs)),
        sample_space=len(runs),
    )


def check_lemma3(inst: BipartiteInstance, cap: int = DEFAULT_CAP) -> Dict[int, bool]:
    """Per-rank verdicts of the survival inequality, all exact.

    For each t: the probability of the rank-t vertex being unmatched is at
    most the average of the first t rank probabilities.  Requires the
    instance to admit a perfect matching.  A view of ``lemma3_chain``.
    """
    return {link.t: link.inequality for link in lemma3_chain(inst, cap=cap)}
