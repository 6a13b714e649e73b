"""One cache policy: cached results live in their group's memo
(`FiniteGroup.memo`, through `groups.memoized`) and are freed with the
group.

Each module under src/relhom is parsed with `ast`; none may use
`functools.lru_cache` or `functools.cache`, which hold their arguments,
and so their groups, for the life of the process.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "relhom"
MODULES = sorted(SRC.glob("*.py"))
PROCESS_CACHES = {"lru_cache", "cache"}


def process_caches(source: str):
    """(line, name) of every use of a functools process-wide cache."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "functools"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, a.name) for a in node.names if a.name in PROCESS_CACHES]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in PROCESS_CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_no_process_cache(path):
    assert process_caches(path.read_text()) == []


def test_checker_sees_every_spelling():
    source = (
        "import functools\n"
        "import functools as ft\n"
        "from functools import cache, lru_cache as memo, wraps\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x): return x\n"
        "@ft.cache\n"
        "def g(x): return x\n"
        "class C:\n"
        "    cache = {}\n"
    )
    assert process_caches(source) == [
        (3, "cache"), (3, "lru_cache"), (4, "lru_cache"), (6, "cache")
    ]
