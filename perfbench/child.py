"""Entry points the benchmark runs in a fresh interpreter, one child at a time.

    child.py setup-pipeline PROGRAM.cp...   import snl.cli and parse the programs
    child.py setup-oracles SEED             import snl and build the instances
    child.py oracles SEED RESULT [SPANS]    one timed oracles-micro pass; traced if SPANS
    child.py traced-cli SPANS -- ARGS...    snl.cli.main(ARGS) with every shim installed

The untraced pipeline is not run from here: it is `snl pipeline`, started
the way the console script starts it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _write_json(path: str, value) -> None:
    Path(path).write_text(json.dumps(value))


def setup_pipeline(paths: list[str]) -> None:
    import snl.cli  # noqa: F401  (what `snl pipeline` imports)
    from snl import counter

    for path in paths:
        counter.parse_counter(Path(path).read_text())


def setup_oracles(seed: str) -> None:
    import oracles

    oracles.make_instances(int(seed))


def run_oracles(seed: str, result_path: str, spans_path: str | None = None) -> None:
    """One pass over the instances.  Only the pass is timed (pass_s): the
    instances are built before the clock starts."""
    import oracles

    instances = oracles.make_instances(int(seed))
    on_instance = None
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        on_instance = lambda name: setattr(tracer, "trace", name)  # noqa: E731
    t0 = time.perf_counter()
    result = oracles.run_pass(instances, on_instance)
    result["pass_s"] = time.perf_counter() - t0
    _write_json(result_path, result)
    if spans_path is not None:
        _write_json(spans_path, tracer.dump())


def traced_cli(spans_path: str, argv: list[str]) -> int:
    import spans
    import snl.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.trace = Path(argv[1]).stem if len(argv) > 1 else ""
    root = tracer.begin(spans.CLI_SPAN)
    try:
        code = snl.cli.main(argv)
    finally:
        tracer.end(root)
        _write_json(spans_path, tracer.dump())
    return code


def main(argv: list[str]) -> int:
    command, args = argv[0], argv[1:]
    if command == "setup-pipeline":
        setup_pipeline(args)
    elif command == "setup-oracles":
        setup_oracles(*args)
    elif command == "oracles":
        run_oracles(*args)
    elif command == "traced-cli":
        if args[1] != "--":
            raise SystemExit("usage: child.py traced-cli SPANS -- ARGS...")
        return traced_cli(args[0], args[2:])
    else:
        raise SystemExit(f"unknown command {command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
