"""The library memoizes nothing keyed on whole programs: a compiled artifact
lives exactly as long as its caller holds it.  A per-instance
`cached_property` stays allowed, since it dies with its instance."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "snl"
CACHES = {"cache", "lru_cache"}


def _decorator_name(node):
    # @lru_cache(maxsize=16) is a call; @functools.cache an attribute
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_library_has_no_cache_decorators():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules found under {SRC}"
    found = [
        f"{path.name}:{decorator.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for decorator in node.decorator_list
        if _decorator_name(decorator) in CACHES
    ]
    assert not found, f"cache decorators in src/snl: {', '.join(found)}"
