"""No private helper without a reader.

Every function, method or class under src/relhom whose name starts with
one underscore (dunder methods excepted) must be read somewhere in
src/relhom, as a name or as an attribute, so a helper that its last caller
stopped using is deleted with it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relhom"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_helpers(sources):
    """(module, line, name) of each private definition in `sources`, a dict
    module -> source text, that none of them reads."""
    defined, read = [], set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(d for d in defined if d[2] not in read)


def test_every_private_helper_has_a_reader():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_helpers(sources) == []


def test_checker_sees_helpers_without_a_reader():
    sources = {
        "a.py": "def _used(): pass\ndef _unused(): pass\nclass K:\n    def _m(self): pass\n"
                "    def __init__(self): pass\n",
        "b.py": "from a import _used\n_used()\nK()._m()\n",
    }
    assert unread_private_helpers(sources) == [("a.py", 2, "_unused")]
