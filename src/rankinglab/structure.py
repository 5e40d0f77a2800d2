"""Structural probes for the rank-greedy matcher.

The central object is the cascade: when a vertex is deleted, the computed
matching does not change arbitrarily but along a single alternating path.
Every cascade is one walk, ``_walk``, on positions: the partner arrays that
``engine._greedy`` returns and one adjacency bitmask per arrival-side
position.  ``_frames`` computes an index's greedy, both mate arrays and the
transposed masks once, in both orientations of the parties; a deletion
zeroes one mask and reruns ``_greedy`` (``_cascade``); a rank move moves one
offline id's mask and reruns it on the moved masks (``_rank_move``).  The
suites run these on positions and name a vertex only in a failure's text;
the ``removal_diff_*`` and ``check_*`` functions translate names, and M*
(``graph._star``), to positions once and name what they return.  The
literal walk, ``zig`` and ``zag`` on a ``ZigZagContext`` over the shift
relation ``shifts_to``, is a test oracle in ``tests/oracles.py``, and the
tests hold ``_walk`` to the same paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, List, NamedTuple, Optional, Sequence, Tuple

from .engine import BipartiteInstance, Vertex, _greedy, _inverse, _move_id, _transpose
from .graph import _star


class DichotomyViolation(RuntimeError):
    """A removal changed the matching by something other than one cascade path."""


class GuardViolation(ValueError):
    """A stability check was invoked on inputs that break its guard."""


def _walk(x: int, zig_step: bool, adj: Sequence[int], mate_r: list, mate_a: list) -> list:
    """The cascade path from position x, alternating zig steps and zag steps.

    Bit i of ``adj[j]`` joins arrival-side position j to ranking-side i,
    and ``mate_r``/``mate_a`` give each ranking-/arrival-side position its
    mate (-1 for none).  A zig step goes to the mate.  A zag step goes from
    j, matched to i, to the lowest set bit of ``adj[j]`` above i whose
    holder is none or arrives no earlier than j: the unique target of the
    shift relation (``shifts_to`` in ``tests/oracles.py``).  Ranks strictly
    increase, so the path ends within |ranking| zag steps.
    """
    path = [x]
    while True:
        if zig_step:
            x = mate_r[x]
        else:
            j, i, x = x, mate_a[x], -1
            bits = adj[j] >> i + 1 << i + 1 if i >= 0 else 0
            while bits:
                w = (bits & -bits).bit_length() - 1
                if not 0 <= mate_r[w] < j:
                    x = w
                    break
                bits &= bits - 1
        if x < 0:
            return path
        path.append(x)
        zig_step = not zig_step


@dataclass(frozen=True)
class RemovalDiff:
    """Outcome of deleting one vertex: either no change or one cascade path."""

    baseline: frozenset
    reduced: frozenset
    path: Optional[Tuple[Vertex, ...]]

    @property
    def equal(self) -> bool:
        return self.path is None


class _Frame(NamedTuple):
    """One orientation on positions: ``_walk``'s masks and the two mate arrays."""

    adj: Sequence[int]
    mate_r: list
    mate_a: list

    def without(self, q: int) -> tuple:
        """Arrival-side q deleted: the masks with its own zeroed, ``_greedy`` on them."""
        adj = list(self.adj)
        adj[q] = 0
        return adj, _greedy(adj, len(self.mate_r))


def _frames(reach: Sequence[int], arrivals: int) -> Tuple[_Frame, _Frame]:
    """An index's greedy on positions, computed once for every check on it:
    the frame that ranks the arrivals (masks: ``reach``), then the one that
    ranks the offline party (masks: ``reach`` transposed), so ``offline``
    indexes the pair.  ``_greedy``'s partner array and its inverse are the
    mates of both.  A frame's vertex ids are its n ranked positions, then
    n + j for arrival-side position j."""
    prs = _greedy(reach, arrivals)
    ids, cols = _inverse(prs, len(reach)), _transpose(reach, arrivals)
    return _Frame(reach, prs, ids), _Frame(cols, ids, prs)


def _vertex(inst: BipartiteInstance, x: Vertex) -> Tuple[bool, int]:
    """x as (offline, position): the party that holds it, and its index there."""
    for offline, party in ((True, inst.ranking), (False, inst.arrival)):
        if x in party:
            return offline, party.index(x)
    raise KeyError(f"{x!r} is not a vertex of the instance")


def _names(inst: BipartiteInstance, offline: bool) -> tuple:
    """The names of the vertex ids of the frame that ranks the party ``offline``."""
    r, a = (inst.ranking, inst.arrival) if offline else (inst.arrival, inst.ranking)
    return (*r, *a)


def _ids(path: list, n: int) -> List[int]:
    """A walk from the ranking side as vertex ids, with n ranked ids."""
    return [q + n if k & 1 else q for k, q in enumerate(path)]


def _cascade(core: tuple, offline: bool, p: int, inst: BipartiteInstance) -> tuple:
    """Deleting position p of the party ``offline``: in the frame that ranks it,
    the arrival side's mates before and after and the cascade from p as ids
    (None if nothing changed); DichotomyViolation, named by ``inst``, if more changed."""
    adj, mate_r, mate_a = core[offline]
    cut = core[not offline].without(p)[1]
    if cut == mate_a:
        return mate_a, mate_a, None
    n = len(mate_r)
    path = _ids(_walk(p, True, adj, mate_r, mate_a), n)
    diff = {(i, j + n) for j, pair in enumerate(zip(mate_a, cut)) if pair[0] != pair[1]
            for i in pair if i >= 0}
    if {(min(e), max(e)) for e in zip(path, path[1:])} != diff:
        names = _names(inst, offline)
        raise DichotomyViolation(
            f"deleting {names[p]!r} changed the matching by "
            f"{sorted(sorted((names[i], names[j])) for i, j in diff)}, "
            f"not by the cascade path {[names[v] for v in path]}"
        )
    return mate_a, cut, path


def _removal_diff(inst: BipartiteInstance, x: Vertex, offline: bool) -> RemovalDiff:
    if (p := (inst.arrival, inst.ranking)[offline]._pos.get(x)) is None:
        raise KeyError(f"{x!r} is not {('an arrival', 'a ranking')[offline]}-side vertex")
    names = _names(inst, offline)  # ``_cascade`` named
    core = _frames(inst.reach, len(inst.arrival))
    base, cut, path = _cascade(core, offline, p, inst)
    n = len(names) - len(base)
    named = [frozenset(frozenset((names[i], names[j + n])) for j, i in enumerate(m) if i >= 0)
             for m in (base, cut)]
    return RemovalDiff(*named, path and tuple(names[v] for v in path))


def removal_diff_online(inst: BipartiteInstance, u: Vertex) -> RemovalDiff:
    """Difference report for deleting the arrival-side vertex u.

    The matchings before and after either coincide or differ exactly by the
    edges of the cascade path that starts at u (computed with the party
    roles swapped, since u sits on the arrival side).  Any other outcome
    raises DichotomyViolation.
    """
    return _removal_diff(inst, u, False)


def removal_diff_offline(inst: BipartiteInstance, v: Vertex) -> RemovalDiff:
    """Difference report for deleting the ranking-side vertex v."""
    return _removal_diff(inst, v, True)


def _zig_zag_symmetric(core: tuple, offline: bool, q: int) -> Optional[bool]:
    """Lemma 6 at position q of the party ``offline``; None when q is unmatched."""
    frame = core[not offline]  # q arrives: the zig's frame
    mate = frame.mate_a[q]
    if mate < 0:
        return None
    adj, mate_r = frame.without(q)
    zig_path = _walk(mate, True, adj, mate_r, _inverse(mate_r, len(adj)))
    return zig_path == _walk(mate, False, *core[offline])


def check_zig_zag_symmetry(inst: BipartiteInstance, x: Vertex) -> bool:
    """Deleting matched x: the reduced zig equals the original zag.

    Both paths start at x's partner.  The zig runs over the reduced graph
    and its recomputed matching; the zag runs over the original pair with
    the party roles swapped relative to the zig.  Requires x matched.
    """
    verdict = _zig_zag_symmetric(_frames(inst.reach, len(inst.arrival)), *_vertex(inst, x))
    if verdict is None:
        raise ValueError(f"removed vertex {x!r} must be matched")
    return verdict


def _stability_guard(core: tuple, offline_removed: bool, probe_offline: bool, p: int):
    """Frame, walk kind from p, and cutoff: the removed party arrives, and its
    q breaks the guard iff ``0 <= cutoff <= frame.mate_a[q]``."""
    frame, zig_step = core[not offline_removed], probe_offline != offline_removed
    return frame, zig_step, p if zig_step else frame.mate_a[p]


def _stable(core: tuple, offline_removed: bool, removed: list, probe_offline: bool, p: int):
    """``check_removal_stability`` on positions, for the probe p of the party
    ``probe_offline``; ``removed`` holds (name, position) pairs by name."""
    frame, zig_step, cutoff = _stability_guard(core, offline_removed, probe_offline, p)
    # clear the removed vertices' pairs; the walk meets an arrival-side vertex
    # only through its pair, so their masks are never read
    adj, mate_r, mate_a = frame
    kept_r, kept_a = list(mate_r), list(mate_a)
    for x, q in removed:
        i = mate_a[q]
        if 0 <= cutoff <= i:
            raise GuardViolation(f"removed vertex {x!r} is matched at rank {i}, "
                                 f"not strictly before the probe cutoff {cutoff}")
        if i >= 0:
            kept_r[i] = kept_a[q] = -1
    kept = _walk(p, zig_step, adj, kept_r, kept_a)
    return kept == _walk(p, zig_step, adj, mate_r, mate_a)


def check_removal_stability(
    inst: BipartiteInstance, removed: AbstractSet, probe: Vertex
) -> bool:
    """Cascades ignore deleted vertices that rank behind the probe.

    ``removed`` must lie in one party.  Guard: every matched removed vertex
    has a partner ranked strictly before the probe (zig form, probe on the
    ranking side) or before the probe's own partner (zag form, probe on the
    arrival side; vacuous when the probe is unmatched).  A guard breach
    raises GuardViolation; under the guard, the verdict is whether the path
    in the reduced context (the baseline less the removed vertices' pairs,
    on the graph without them) equals the path in the full one.
    """
    xs = frozenset(removed)
    offline_removed = not xs <= inst.arrival.members
    if offline_removed and not xs <= inst.ranking.members:
        raise ValueError("removed vertices must all lie in one party")
    pairs, probe = [(x, _vertex(inst, x)[1]) for x in sorted(xs)], _vertex(inst, probe)
    return _stable(_frames(inst.reach, len(inst.arrival)), offline_removed, pairs, *probe)


@dataclass(frozen=True)
class RankMoveVerdict:
    """What happened to the designated partner after moving an unmatched vertex.

    ``skipped`` is True when the hypothesis fails (the moved vertex was
    matched), in which case the other fields are None.  Otherwise
    ``partner_matched`` says whether the designated partner is covered in
    the rerun, and the two ``holds_*`` fields compare its new mate's rank
    (in the moved order and in the original order, respectively) against
    the moved vertex's original rank.  ``partner_position`` is that mate's
    index in the moved order, when there is one.
    """

    skipped: bool
    partner_matched: Optional[bool]
    holds_moved_rank: Optional[bool]
    holds_original_rank: Optional[bool]
    partner_position: Optional[int] = None


def check_rank_move(
    inst: BipartiteInstance, m_star: AbstractSet, v: Vertex, i: int
) -> RankMoveVerdict:
    """Move an unmatched ranked vertex to index i and watch its designated partner.

    ``m_star`` is a perfect matching supplying the designated partner
    u = m_star(v).  When v is unmatched in the baseline run, the claim under
    test is that u stays matched after the move, to a vertex ranked no worse
    than v's original rank.  Two readings of "no worse" are evaluated, one in
    the moved order and one in the original order, by ``_rank_move`` on v's
    rank and u's arrival index: v and M* (``_star``) are translated once, here.
    """
    if v not in inst.ranking:
        raise KeyError(f"{v!r} is not a ranking-side vertex")
    bar = inst.ranking.index(v)
    j = _star(inst, m_star)[bar]
    if bar in _greedy(inst.reach, len(inst.arrival)):
        return RankMoveVerdict(True, None, None, None)
    return _rank_move(inst.reach, len(inst.arrival), bar, j, i)


def _rank_move(reach, arrivals: int, bar: int, j: int, i: int) -> RankMoveVerdict:
    """``check_rank_move`` on the index, for an unmatched offline id ``bar``.

    Reruns ``_greedy`` on the masks with ``bar``'s moved to index i and reads
    arrival j's entry p: its mate's moved rank, and ``order[p]`` the original.
    """
    order = _move_id(range(len(reach)), bar, i)
    p = _greedy([reach[x] for x in order], arrivals)[j]
    if p < 0:
        return RankMoveVerdict(False, False, None, None)
    return RankMoveVerdict(False, True, p <= bar, order[p] <= bar, p)
