"""Plain-text instance files.

The format is line oriented.  The first content line declares the ranked
(offline) party in ranking order, the second the arriving (online) party in
arrival order, and every further line one edge, online endpoint first:

    # anything after a hash is a comment
    offline v1 v2 v3
    online u1 u2
    edge u1 v2

Tokens are runs of non-whitespace (``str.isspace``) characters.  A declared
vertex may have no edges.  Parsing splits each line once and scans a line
again, for an error's column, only when it fails a check.
``serialize_instance`` emits the canonical form (edges sorted by arrival
position, then ranking position); parsing the canonical form and serializing
again reproduces it byte for byte.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Tuple

from .engine import BipartiteInstance, Permutation

_TOKEN = re.compile(r"\S+")
_PARTIES = ("offline", "online")


class InstanceFormatError(ValueError):
    """A malformed instance file, with a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _columns(raw: str) -> List[Tuple[int, str]]:
    """The (1-based column, token) pairs of a line's content, for error messages."""
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(raw.split("#", 1)[0])]


def _party_error(lines: List[Tuple[int, str]]) -> InstanceFormatError:
    """The error of the last of the party lines read, the first to fail a check."""
    seen: Dict[str, Tuple[str, int, int]] = {}
    for (ln, raw), keyword in zip(lines, _PARTIES):
        (col, head), *members = _columns(raw)
        if head != keyword:
            return InstanceFormatError(f"expected '{keyword}', got {head!r}", ln, col)
        for col, tok in members:
            if tok in seen:
                party, pln, pcol = seen[tok]
                return InstanceFormatError(
                    f"duplicate vertex {tok!r} (already declared in the "
                    f"{party} party at line {pln}, column {pcol})",
                    ln,
                    col,
                )
            seen[tok] = (keyword, ln, col)
    raise AssertionError("unreachable: every party line passed its checks")


def parse_instance(text: str) -> BipartiteInstance:
    """Parse an instance file, raising InstanceFormatError with positions."""
    parties: List[Tuple[int, str]] = []  # (line number, line) of each party line
    orders: List[List[str]] = []
    edges = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if len(orders) < 2:
            parties.append((ln, raw))
            orders.append(toks[1:])
            # after the first line both sets are the offline party's
            offline, online = set(orders[0]), set(orders[-1])
            keyword = _PARTIES[len(orders) - 1]
            if toks[0] != keyword or len(offline | online) < sum(map(len, orders)):
                raise _party_error(parties)
            continue
        if len(toks) == 3 and toks[0] == "edge":
            if toks[1] in online and toks[2] in offline:
                edges.add(frozenset(toks[1:]))
                continue
        (col, head), *ends = _columns(raw)
        if head != "edge":
            raise InstanceFormatError(f"expected 'edge', got {head!r}", ln, col)
        if len(ends) != 2:
            raise InstanceFormatError(
                f"'edge' takes exactly two endpoints, got {len(ends)}", ln, col
            )
        (ucol, u), (vcol, v) = ends
        if u not in online:
            raise InstanceFormatError(
                f"unknown online vertex {u!r} (edges name the online endpoint first)",
                ln,
                ucol,
            )
        raise InstanceFormatError(f"unknown offline vertex {v!r}", ln, vcol)
    if len(orders) < 2:
        raise InstanceFormatError(
            f"missing '{_PARTIES[len(orders)]}' declaration",
            parties[-1][0] + 1 if parties else 1,
        )
    return BipartiteInstance(frozenset(edges), *map(Permutation, orders))


def serialize_instance(inst: BipartiteInstance) -> str:
    """The canonical text form of an instance."""
    ranked, arrivals = inst.ranking.order, inst.arrival.order
    mates: List[List[str]] = [[] for _ in arrivals]  # offline neighbours, in rank order
    for v, mask in zip(ranked, inst.reach):
        while mask:
            mates[(mask & -mask).bit_length() - 1].append(v)
            mask &= mask - 1
    lines = [
        " ".join(["offline", *ranked]).rstrip(),
        " ".join(["online", *arrivals]).rstrip(),
    ]
    lines += [f"edge {u} {v}" for u, vs in zip(arrivals, mates) for v in vs]
    return "\n".join(lines) + "\n"


def oriented_edge(inst: BipartiteInstance, e) -> Tuple[str, str]:
    """The edge e as (online endpoint, offline endpoint)."""
    a, b = e
    return (a, b) if a in inst.arrival else (b, a)


def fingerprint(inst: BipartiteInstance) -> str:
    """Short content hash of the canonical form, for report rows."""
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()[:12]
