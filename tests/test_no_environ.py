"""The library reads no environment variables: every cap and limit is a
plain argument with one default, so a call means the same thing in every
shell."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "snl"
READERS = {"environ", "getenv"}


def _reads_environment(node):
    # os.environ / os.getenv(...), under any alias of os, or imported by name
    if isinstance(node, ast.Attribute):
        return node.attr in READERS
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in READERS for alias in node.names)
    return False


def test_library_reads_no_environment():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules found under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _reads_environment(node)
    ]
    assert not found, f"environment reads in src/snl: {', '.join(found)}"
