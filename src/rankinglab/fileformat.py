"""Plain-text instance files.

The format is line oriented.  The first content line declares the ranked
(offline) party in ranking order, the second the arriving (online) party in
arrival order, and every further line one edge, online endpoint first:

    # anything after a hash is a comment
    offline v1 v2 v3
    online u1 u2
    edge u1 v2

Tokens are whitespace-free printable strings.  A declared vertex may have no
edges.  ``serialize_instance`` emits the canonical form (edges sorted by
arrival position, then ranking position); parsing the canonical form and
serializing again reproduces it byte for byte.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Tuple

from .engine import BipartiteInstance, Permutation

_TOKEN = re.compile(r"\S+")


class InstanceFormatError(ValueError):
    """A malformed instance file, with a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _content_lines(text: str):
    """Yield (line_number, [(column, token), ...]) for non-blank content."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        toks = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(content)]
        if toks:
            yield ln, toks


def parse_instance(text: str) -> BipartiteInstance:
    """Parse an instance file, raising InstanceFormatError with positions."""
    lines = list(_content_lines(text))
    if not lines:
        raise InstanceFormatError("missing 'offline' declaration", 1)

    seen: Dict[str, Tuple[str, int, int]] = {}

    def read_party(idx: int, keyword: str) -> List[str]:
        if idx >= len(lines):
            raise InstanceFormatError(
                f"missing '{keyword}' declaration", lines[-1][0] + 1
            )
        ln, toks = lines[idx]
        col0, head = toks[0]
        if head != keyword:
            raise InstanceFormatError(f"expected '{keyword}', got {head!r}", ln, col0)
        members = []
        for col, tok in toks[1:]:
            if tok in seen:
                party, pln, pcol = seen[tok]
                raise InstanceFormatError(
                    f"duplicate vertex {tok!r} (already declared in the "
                    f"{party} party at line {pln}, column {pcol})",
                    ln,
                    col,
                )
            seen[tok] = (keyword, ln, col)
            members.append(tok)
        return members

    offline = read_party(0, "offline")
    online = read_party(1, "online")
    online_set = set(online)
    offline_set = set(offline)

    edges = set()
    for ln, toks in lines[2:]:
        col0, head = toks[0]
        if head != "edge":
            raise InstanceFormatError(f"expected 'edge', got {head!r}", ln, col0)
        if len(toks) != 3:
            raise InstanceFormatError(
                f"'edge' takes exactly two endpoints, got {len(toks) - 1}", ln, col0
            )
        (ucol, u), (vcol, v) = toks[1], toks[2]
        if u not in online_set:
            raise InstanceFormatError(
                f"unknown online vertex {u!r} (edges name the online endpoint "
                "first)",
                ln,
                ucol,
            )
        if v not in offline_set:
            raise InstanceFormatError(f"unknown offline vertex {v!r}", ln, vcol)
        edges.add(frozenset((u, v)))

    return BipartiteInstance(frozenset(edges), Permutation(offline), Permutation(online))


def serialize_instance(inst: BipartiteInstance) -> str:
    """The canonical text form of an instance."""
    lines = [
        " ".join(["offline", *inst.ranking.order]).rstrip(),
        " ".join(["online", *inst.arrival.order]).rstrip(),
    ]
    oriented = []
    for e in inst.graph:
        u, v = oriented_edge(inst, e)
        oriented.append((inst.arrival.index(u), inst.ranking.index(v), u, v))
    for _, _, u, v in sorted(oriented):
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def oriented_edge(inst: BipartiteInstance, e) -> Tuple[str, str]:
    """The edge e as (online endpoint, offline endpoint)."""
    a, b = e
    return (a, b) if a in inst.arrival else (b, a)


def fingerprint(inst: BipartiteInstance) -> str:
    """Short content hash of the canonical form, for report rows."""
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()[:12]
