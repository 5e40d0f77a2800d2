"""Plain-text instance files.

The format is line oriented.  The first content line declares the ranked
(offline) party in ranking order, the second the arriving (online) party in
arrival order, and every further line one edge, online endpoint first:

    # anything after a hash is a comment
    offline v1 v2 v3
    online u1 u2
    edge u1 v2

Tokens are runs of non-whitespace (``str.isspace``) characters.  A declared
vertex may have no edges.  Parsing splits each line once and checks it in
this order: the keyword (``offline``, then ``online``, then ``edge``); for
a party line, that no vertex is declared twice; for an edge line, that it
names exactly two endpoints, then that the first is a declared online vertex
and the second a declared offline one.  After the last line it checks that
both parties were declared.  A line is scanned again, for an error's
column, only when the error names it.  The lookups that check an edge's
endpoints set its bit in ``reach``; ``graph`` is built only when first read.
A plain file (as ``serialize_instance`` writes it: leading ``#`` lines, each
token after one space, each line ended by ``\n``) skips this line loop; its
edges are read about 16 KB of whole lines at a time, so that no token list
outgrows a chunk.  A chunk is checked by string calls that run in C: it is
ASCII and ends in ``\n``; cutting ``edge `` from the start of each line
shortens it by 5 characters a line; deleting every printable character but
space and ``#`` leaves one space and one ``\n`` a line; and it splits into
two tokens a line.  So every line is ``edge X Y`` and the split is the
endpoints in order.  Other text, non-ASCII names and control characters
included, and a plain one with a repeated name or an unknown endpoint, goes
to the line loop, which alone raises errors.
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
_HEAD = re.compile(  # no comment or token of a plain file holds a line boundary
    "(?:#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*\n)*"
    "offline([^\n]*)\nonline([^\n]*)\n"  # each party's tokens are checked after split
)
_NAME = bytes(c for c in range(0x21, 0x7F) if c != ord("#"))  # printable, no space or '#'
_CHUNK = 1 << 14  # characters an edge chunk reaches before its last line ends


class InstanceFormatError(ValueError):
    """A malformed instance file, with a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _column(raw: str, k: int) -> int:
    """The 1-based column of token k of a line's content, for error messages."""
    return [m.start() for m in _TOKEN.finditer(raw.split("#", 1)[0])][k] + 1


def _edge_tokens(chunk: str):
    """The endpoints of a chunk of plain edge lines, in order, or None."""
    if not (chunk.isascii() and chunk.endswith("\n")):
        return None
    lines = chunk.count("\n")
    body = ("\n" + chunk).replace("\nedge ", "\n")  # "\nedge " can start only a line
    if len(body) != len(chunk) + 1 - 5 * lines:
        return None
    if body.encode().translate(None, _NAME) != b"\n" + b" \n" * lines:
        return None
    toks = body.split()  # two a line: neither name is empty
    return toks if len(toks) == 2 * lines else None


def _parse_plain(text: str):
    """The instance of a plain file, or None to leave the text to the line loop."""
    head = _HEAD.match(text)
    if head is None:
        return None
    ranked, arrivals = head[1].split(), head[2].split()
    for line, toks in ((head[1], ranked), (head[2], arrivals)):
        if "#" in line or line != " ".join(["", *toks]):  # each token after one space
            return None
    if len({*ranked, *arrivals}) < len(ranked) + len(arrivals):
        return None
    ranking, arrival = Permutation(ranked), Permutation(arrivals)
    rank, reach = ranking._pos, [0] * len(ranked)
    bit = {u: 1 << k for k, u in enumerate(arrivals)}
    j = head.end()
    while (i := j) < len(text):
        j = text.find("\n", i + _CHUNK) + 1 or len(text)  # a chunk of whole lines
        if (toks := _edge_tokens(text[i:j])) is None:
            return None
        try:
            for u, v in zip(toks[::2], toks[1::2]):
                reach[rank[v]] |= bit[u]
        except KeyError:
            return None
    return BipartiteInstance._indexed(ranking, arrival, tuple(reach))


def parse_instance(text: str) -> BipartiteInstance:
    """Parse an instance file, raising InstanceFormatError with positions."""
    if (plain := _parse_plain(text)) is not None:
        return plain
    lines = text.splitlines()
    parties: List[Permutation] = []  # the offline, then the online party
    seen: Dict[str, Tuple[str, int, int]] = {}  # vertex: (party, line, token index)
    last = 0  # the line of the last party declaration read
    for ln, raw in enumerate(lines, start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        keyword = _PARTIES[len(parties)] if len(parties) < 2 else "edge"
        if toks[0] != keyword:
            msg = f"expected '{keyword}', got {toks[0]!r}"
            raise InstanceFormatError(msg, ln, _column(raw, 0))
        if keyword != "edge":
            for k, v in enumerate(toks[1:], start=1):
                if v in seen:
                    party, pln, pk = seen[v]
                    raise InstanceFormatError(
                        f"duplicate vertex {v!r} (already declared in the {party} "
                        f"party at line {pln}, column {_column(lines[pln - 1], pk)})",
                        ln,
                        _column(raw, k),
                    )
                seen[v] = (keyword, ln, k)
            parties.append(Permutation(toks[1:]))
            # edge lines come after both; until then both maps are the offline one
            rank, pos, last = parties[0]._pos, parties[-1]._pos, ln
            reach = [0] * len(rank)  # bit pos[u] of reach[rank[v]]: the edge u v
            continue
        if len(toks) != 3:
            msg = f"'edge' takes exactly two endpoints, got {len(toks) - 1}"
            raise InstanceFormatError(msg, ln, _column(raw, 0))
        _, u, v = toks
        if (j := pos.get(u)) is None:
            msg = f"unknown online vertex {u!r} (edges name the online endpoint first)"
            raise InstanceFormatError(msg, ln, _column(raw, 1))
        if (r := rank.get(v)) is None:
            msg = f"unknown offline vertex {v!r}"
            raise InstanceFormatError(msg, ln, _column(raw, 2))
        reach[r] |= 1 << j
    if len(parties) < 2:
        msg = f"missing '{_PARTIES[len(parties)]}' declaration"
        raise InstanceFormatError(msg, last + 1)
    return BipartiteInstance._indexed(*parties, tuple(reach))


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
    lines += [f"edge {u} " + f"\nedge {u} ".join(vs) for u, vs in zip(arrivals, mates) if vs]
    return "\n".join(lines) + "\n"


def fingerprint(inst: BipartiteInstance) -> str:
    """Short content hash of the canonical form, for report rows."""
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()[:12]
