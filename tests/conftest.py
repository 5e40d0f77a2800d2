from __future__ import annotations

from pathlib import Path
from typing import Iterable, Tuple

import pytest
from hypothesis import strategies as st

from rankinglab import BipartiteInstance, Permutation, parse_instance

from .oracles import edge

DATA = Path(__file__).parent / "data"


def make_instance(
    offline: str, online: str, pairs: Iterable[Tuple[str, str]]
) -> BipartiteInstance:
    """Build an instance from whitespace-separated orders and (online, offline) pairs."""
    return BipartiteInstance(
        frozenset(edge(u, v) for u, v in pairs),
        Permutation(offline.split()),
        Permutation(online.split()),
    )


@pytest.fixture(scope="session")
def example6() -> BipartiteInstance:
    return parse_instance((DATA / "example6.obm").read_text())


@pytest.fixture(scope="session")
def example6_text() -> str:
    return (DATA / "example6.obm").read_text()


@st.composite
def instances(draw, max_side: int = 5) -> BipartiteInstance:
    n_off = draw(st.integers(1, max_side))
    n_on = draw(st.integers(1, max_side))
    offline = [f"v{k}" for k in range(1, n_off + 1)]
    online = [f"u{k}" for k in range(1, n_on + 1)]
    pairs = [(u, v) for u in online for v in offline]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    sigma = draw(st.permutations(offline))
    pi = draw(st.permutations(online))
    return BipartiteInstance(
        frozenset(edge(u, v) for u, v in chosen), Permutation(sigma), Permutation(pi)
    )
