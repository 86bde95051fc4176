"""Every model checks itself where it is built (Dcps with no separate
validator): no loader, compiler or explorer re-validates what it receives,
so no verdict rests on a check a caller could skip."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "snl"
# each validator and the one place that may call it; validate_dcps is gone
ALLOWED = {
    "validate_counter": ("CounterProgram", "__post_init__"),
    "validate_rnp": ("Rnp", "__post_init__"),
    "validate_transducer": ("Transducer", "__post_init__"),
    "validate_petri": ("PetriNet", "__post_init__"),
    "validate_tdpn": ("Tdpn", "__post_init__"),
    "validate_dcps": None,
}


def _calls(node, where=(None, None)):
    """(called name, (class, function), line) for every validator call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            inner = (child.name, None)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (where[0], child.name)
        else:
            inner = where
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ALLOWED:
                yield name, where, child.lineno
        yield from _calls(child, inner)


def test_validators_run_only_in_their_model_constructor():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules found under {SRC}"
    found = [
        f"{path.name}:{line} calls {name}"
        for path in paths
        for name, where, line in _calls(ast.parse(path.read_text(), filename=str(path)))
        if where != ALLOWED[name]
    ]
    assert not found, f"validator calls outside the model constructors: {', '.join(found)}"


def test_each_model_constructor_calls_its_validator():
    sites = {
        (name, where)
        for path in sorted(SRC.glob("*.py"))
        for name, where, _ in _calls(ast.parse(path.read_text(), filename=str(path)))
    }
    assert sites == {(name, where) for name, where in ALLOWED.items() if where}


# a transducer with three undeclared finals and a net transition with four
# undeclared places; each prints its validation message
BAD_MODELS = """
from snl.petri import PetriNet
from snl.transducer import Transducer
for build in (
    lambda: Transducer(1, ("a",), ("q0",), "q0", frozenset({"x", "y", "z"}), ()),
    lambda: PetriNet(("p",), (("t", frozenset("abc"), frozenset("d")),), "p", "p"),
):
    try:
        build()
    except ValueError as err:
        print(err)
"""


def test_validation_messages_do_not_depend_on_the_hash_seed():
    messages = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC.parent))
        run = subprocess.run([sys.executable, "-c", BAD_MODELS], env=env,
                             capture_output=True, text=True, check=True)
        messages.append(run.stdout.splitlines())
    finals = "; ".join(f"final state {q!r} not declared" for q in "xyz")
    places = "; ".join(f"transition 't' uses undeclared place {p!r}" for p in "abcd")
    assert messages == [[finals, places]] * 2
