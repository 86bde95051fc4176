"""Certification checks in the library must survive `python -O`, which
strips every `assert` statement."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "snl"


def test_library_has_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules found under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/snl: {', '.join(found)}"
