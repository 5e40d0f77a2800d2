"""The package's public surface: ``__all__`` and the README's library example."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import rankinglab

from . import oracles

README = Path(__file__).resolve().parent.parent / "README.md"

#: the paper's definitions on names, the name-level matching search and M*
#: check that ``graph._designated`` and ``graph._star`` are held to, and the
#: set algebra on names the tests build and check matchings with, which
#: ``tests/oracles.py`` alone defines
LITERAL = (
    "step",
    "online_match",
    "is_ranking_matching",
    "is_bipartite",
    "ZigZagContext",
    "shifts_to",
    "shift_targets",
    "_name_walk",
    "zig",
    "zag",
    "bipartite_max_matching",
    "_two_colour",
    "_mate_map",
    "_validated_perfect",
    "edge",
    "vertices",
    "is_matching",
    "partner",
)

#: the hard family on names, which ``cli gen gamma`` is held to file for file
NAMED_FAMILY = ("gen_gamma_family", "_gamma_ranking")

#: the matching code on the index, which ``graph`` alone defines
MATCHING = (
    "_kuhn",
    "_max_matching",
    "_max_matching_size",
    "_designated",
    "_star",
    "perfect_matching_of",
    "_require_perfect",
)


def _submodules():
    return [
        importlib.import_module(f"rankinglab.{info.name}")
        for info in pkgutil.iter_modules(rankinglab.__path__)
    ]


def test_every_public_name_comes_from_a_submodule():
    modules = _submodules()
    assert rankinglab.__all__
    for name in rankinglab.__all__:
        value = getattr(rankinglab, name)
        assert not name.startswith("_") and not isinstance(value, ModuleType), name
        assert any(name in vars(m) and vars(m)[name] is value for m in modules), name


def test_star_import_binds_exactly_all():
    ns: dict = {}
    exec("from rankinglab import *", ns)
    assert set(ns) == set(rankinglab.__all__) | {"__builtins__"}
    assert len(set(rankinglab.__all__)) == len(rankinglab.__all__)


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out


def test_every_public_name_is_documented_or_called():
    """Each ``__all__`` name is in README.md or read by ``src/`` outside its own definition."""
    used: set = set()
    for path in Path(rankinglab.__file__).parent.glob("[!_]*.py"):  # not __init__.py
        for stmt in ast.parse(path.read_text()).body:  # a Name has an id, an Attribute an attr
            refs = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(stmt)}
            used |= refs - {getattr(stmt, "name", None)}
    documented = set(re.findall(r"\w+", README.read_text()))
    assert [n for n in rankinglab.__all__ if n not in used | documented] == []
    moved = {n for n, v in vars(oracles).items() if getattr(v, "__module__", "") == oracles.__name__}
    assert moved and not moved & set(rankinglab.__all__)


def test_literal_definitions_live_in_the_oracles_alone():
    """No submodule, nor the package, binds a name-level copy of a literal oracle."""
    for m in [rankinglab, *_submodules()]:
        assert [n for n in LITERAL if n in vars(m)] == [], m.__name__
        # ``Edge`` is ``frozenset``, whose module is ``builtins``
        assert "Edge" not in vars(m), m.__name__
    assert {getattr(oracles, n).__module__ for n in LITERAL} == {oracles.__name__}


def test_the_named_hard_family_lives_in_the_oracles_alone():
    """``src/`` keeps the slot masks; the named family and its ranking are oracles."""
    for m in [rankinglab, *_submodules()]:
        assert [n for n in NAMED_FAMILY if n in vars(m)] == [], m.__name__
    assert {getattr(oracles, n).__module__ for n in NAMED_FAMILY} == {oracles.__name__}
    generators = importlib.import_module("rankinglab.generators")
    tree = ast.parse(Path(generators.__file__).read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "vertices" not in imported | set(vars(generators))
    assert "gen_gamma_family" not in rankinglab.__all__


def _imported_from(module: ModuleType) -> set:
    """The sibling modules ``module`` imports names from, by their short names."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1}


def test_matchings_live_in_graph_alone():
    """One search, ``graph._kuhn``, and every maximum matching, M* and perfectness
    test beside it; ``engine`` sits below ``graph``, and ``structure`` reads M*
    from ``graph``, not from the distribution module."""
    graph, engine, structure = (
        importlib.import_module(f"rankinglab.{m}") for m in ("graph", "engine", "structure")
    )
    modules = [rankinglab, oracles, *_submodules()]
    for name in MATCHING:
        fn = vars(graph)[name]
        assert fn.__module__ == graph.__name__, name
        assert [m.__name__ for m in modules if vars(m).get(name, fn) is not fn] == [], name
    assert [m.__name__ for m in modules if "_augment" in vars(m)] == []
    assert "graph" not in _imported_from(engine)
    assert "probability" not in _imported_from(structure)
