"""Command-line front end: format conversions, explorers, and the pipeline.

Each subcommand wraps one module; `pipeline` chains all of them on a single
counter program and cross-checks the four verdicts.  One table, `_verdict`,
maps every search verdict to a label, a normalized value (yes, no or
unknown) and a detail dict.  The pipeline's report rows and the
subcommands' summary lines are both read from it, and the exit code follows
the normalized values.

Exit codes: 0 a verdict was produced, 2 an input did not read, parse or
validate, or an output path could not be written, 3 a search gave up within
its caps (Unknown), 4 cross-checked verdicts disagree, 5 any failure after
that, such as a witness that does not replay.  Only `_boundary`, around
`_load`, `_write` and `run-counter`'s bound, turns an error into exit 2; the
two refusals found later are named where they occur, and argparse refuses a
malformed flag, or a cap below 0, before any of them.  An Unknown never
counts as a disagreement.

Reports and generated files are deterministic for fixed inputs and caps;
wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

from snl import counter, dcps, lipton, petri, rnp, rnp2tdpn, tdpn, tdpn2dcps

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_DISAGREE = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# Input and output boundary


class _BadPath(Exception):
    """An input that did not read, parse or validate, or an output path that
    could not be written; main() reports it as exit 2."""


@contextmanager
def _boundary(path):
    try:
        yield
    except (ValueError, OSError) as err:
        raise _BadPath(f"{path}: {err}") from None


def _load(path: str | Path, parse, validate=None):
    """Read, parse and validate one input file."""
    with _boundary(path):
        loaded = parse(Path(path).read_text())
        if validate is not None:
            validate(loaded)
    return loaded


def _write(path: Path, chunks: Iterable[str]) -> None:
    """Write text chunks to path as they come, so a large artifact is never
    held whole.  A chunk is made inside the boundary: what makes the chunks
    must not raise ValueError or OSError for a fault of its own."""
    with _boundary(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.writelines(chunks)


def _write_names(path: Path, names: dict[str, str]) -> None:
    _write(path, (f"{key}\t{names[key]}\n" for key in sorted(names)))


def _load_names(data_path: str) -> dict[str, str]:
    """Pretty-name sidecar next to a .dcps file, if present."""
    sidecar = Path(data_path).with_suffix(".names")
    if not sidecar.is_file():
        return {}
    return _load(sidecar, lambda text: dict(
        line.split("\t", 1) for line in text.splitlines() if "\t" in line
    ))


# ---------------------------------------------------------------------------
# Verdicts


def _verdict(verdict) -> tuple[str, str, dict]:
    """(label, normalized, detail) of a search verdict."""
    match verdict:
        case counter.Halts(steps=steps, peak=peak):
            return f"Halts steps={steps} peak={peak}", "yes", {"steps": steps, "peak": peak}
        case counter.Aborts(steps=steps, label=label):
            return f"Aborts label={label}", "no", {"steps": steps}
        case counter.BoundExceeded(steps=steps, var=var):
            return f"BoundExceeded var={var}", "no", {"steps": steps}
        case counter.FuelExhausted(steps=steps):
            return "FuelExhausted", "unknown", {"steps": steps}
        case rnp.RnpHalts(witness=witness, configs_explored=explored):
            return "Halts", "yes", {"configs_explored": explored, "witness_choices": len(witness)}
        case rnp.RnpNo(configs_explored=explored):
            return "NoHalt", "no", {"configs_explored": explored}
        case rnp.RnpUnknown(reason=reason, configs_explored=explored):
            return f"Unknown reason={reason}", "unknown", {"configs_explored": explored}
        case tdpn.TdpnCoverable(witness=witness):
            return "Coverable", "yes", {"witness_steps": len(witness)}
        case tdpn.TdpnNotCoverable():
            return "NotCoverable (exhaustive)", "no", {}
        case tdpn.TdpnUnknown(reason=reason):
            return "Unknown", "unknown", {"reason": reason}
        case dcps.DcpsReachable(configs_explored=explored):
            return "Reachable", "yes", {"configs_explored": explored}
        case dcps.DcpsNo(configs_explored=explored):
            return "NotReachable (exhaustive)", "no", {"configs_explored": explored}
        case dcps.DcpsUnknown(reason=reason, configs_explored=explored):
            return f"Unknown reason={reason}", "unknown", {"configs_explored": explored}
    raise TypeError(f"not a search verdict: {verdict!r}")


def _say(verdict, prefix: str = "", **extra) -> str:
    """Print a subcommand's summary line and return the normalized verdict.
    The line is the label, then ` key=value` for each detail entry the label
    does not already show, then the subcommand's extras."""
    label, normalized, detail = _verdict(verdict)
    fields = {k: v for k, v in detail.items() if f" {k}=" not in f" {label}"} | extra
    print(prefix + label + "".join(f" {k}={v}" for k, v in fields.items()))
    return normalized


def _exit_code(*normals: str) -> int:
    if "yes" in normals and "no" in normals:
        return EXIT_DISAGREE
    return EXIT_UNKNOWN if "unknown" in normals else EXIT_OK


def _pretty(names: dict[str, str]):
    return lambda token: names.get(token, token)


def _format_rule(rule: dcps.DcpsRule, p) -> str:
    push = ".".join(p(s) for s in rule.push) or "eps"
    spawn = f" spawn {p(rule.spawn)}" if rule.spawn is not None else ""
    return f"{p(rule.state)} | {p(rule.top)} -> {p(rule.new_state)} | {push}{spawn}"


def _format_kill(kill: dcps.KillRule, p) -> str:
    action = "keep" if kill.keep else "pop"
    return f"{p(kill.state)} | {p(kill.top)} -> {p(kill.new_state)} | {action} kill {p(kill.victim)}"


def _print_dcps_witness(system: dcps.Dcps, witness, names: dict[str, str]) -> None:
    p = _pretty(names)
    for event in witness:
        if event[0] == "rule":
            print(f"  rule {event[1]}: {_format_rule(system.rules[event[1]], p)}")
        elif event[0] == "kill":
            kill = system.kills[event[1]]
            print(f"  kill {event[1]}: {_format_kill(kill, p)} (victim count {event[2]})")
        else:
            stack, count = event[1]
            word = ".".join(p(s) for s in stack) or "eps"
            print(f"  switch to [{word}] count {count}")


def _print_descriptors(witness) -> None:
    for kind, words in witness:
        if kind == "move":
            print(f"  move {words[0]} -> {words[1]}")
        elif kind == "fork":
            print(f"  fork {words[0]} -> {words[1]} {words[2]}")
        else:
            print(f"  join {words[0]} {words[1]} -> {words[2]}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_run_counter(args) -> int:
    program = _load(args.file, counter.parse_counter, counter.validate_counter)
    with _boundary(args.file):  # the depth rule refuses n < 1
        bound = args.bound if args.bound is not None else lipton.simulated_bound(args.n, args.depth_mode)
    return _exit_code(_say(counter.run_bounded(program, bound, fuel=args.fuel), bound=bound))


def _cmd_compile_rnp(args) -> int:
    program = _load(args.file, counter.parse_counter, lambda p: lipton.validate_source(p, args.n))
    compiled = lipton.compile_lipton(program, args.n, args.depth_mode)
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".rnp")
    _write(out, (rnp.serialize_rnp(compiled),))
    print(f"wrote {out} (max_depth={compiled.max_depth}, size={compiled.size()})")
    return EXIT_OK


def _cmd_run_rnp(args) -> int:
    program = _load(args.file, rnp.parse_rnp, rnp.validate_rnp)
    verdict = rnp.explore_halting(program, max_configs=args.max_configs, max_value=args.max_value)
    extra = {}
    if isinstance(verdict, rnp.RnpHalts):
        extra["choices"] = ",".join(map(str, verdict.witness)) or "-"
    return _exit_code(_say(verdict, **extra))


def _cmd_compile_tdpn(args) -> int:
    program = _load(args.file, rnp.parse_rnp, rnp.validate_rnp)
    compiled = rnp2tdpn.compile_rnp_to_tdpn(program)
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".tdpn")
    _write(out, (tdpn.serialize_tdpn(compiled.tdpn),))
    _write(out.with_suffix(".addr"), (rnp2tdpn.serialize_addr(compiled.book),))
    net = compiled.tdpn
    print(f"wrote {out} (width={net.width}, size={net.size()})")
    return EXIT_OK


def _cmd_expand_tdpn(args) -> int:
    net = _load(args.file, tdpn.parse_tdpn)
    try:
        expanded = tdpn.expand(net, place_limit=args.place_limit)
    except tdpn.PlaceLimitExceeded as err:
        print(f"snl: {args.file}: {err}", file=sys.stderr)
        return EXIT_UNKNOWN
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".pnet")
    _write(out, (petri.serialize_pnet(expanded),))
    print(f"wrote {out} (places={len(expanded.places)}, transitions={len(expanded.transitions)})")
    return EXIT_OK


def _cmd_cover(args) -> int:
    net = _load(args.file, tdpn.parse_tdpn)
    modes = ("backward", "symbolic") if args.mode == "both" else (args.mode,)
    verdicts = [
        tdpn.coverable(
            net,
            mode=mode,
            place_limit=args.place_limit,
            max_tokens=args.max_tokens,
            max_markings=args.max_markings,
        )
        for mode in modes
    ]
    normals = []
    for verdict in verdicts:
        normals.append(_say(verdict, f"{verdict.mode}: "))
        if isinstance(verdict, tdpn.TdpnCoverable):
            _print_descriptors(verdict.witness)
    code = _exit_code(*normals)
    if code == EXIT_DISAGREE:
        print("snl: cross-check disagreement between backward and symbolic", file=sys.stderr)
    return code


def _cmd_compile_dcps(args) -> int:
    net = _load(args.file, tdpn.parse_tdpn)
    compiled = tdpn2dcps.compile_tdpn_to_killdcps(net)
    system = compiled.system
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".dcps")
    _write(out, dcps.dcps_lines(system))
    _write_names(out.with_suffix(".names"), compiled.names)
    print(f"wrote {out} (rules={len(system.rules)}, kills={len(system.kills)}, target={compiled.halt})")
    return EXIT_OK


def _cmd_desugar_kill(args) -> int:
    system = _load(args.file, dcps.parse_dcps)
    plain = dcps.desugar_kill(system)
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".plain.dcps")
    _write(out, dcps.dcps_lines(plain))
    print(f"wrote {out} (rules={len(plain.rules)}, kills=0)")
    return EXIT_OK


def _cmd_to_inheritance(args) -> int:
    system = _load(args.file, dcps.parse_dcps)
    try:
        compiled, shifted = dcps.compile_to_inheritance(system, args.target)
    except dcps.DcpsValidationError as err:  # kill rules, or an undeclared --target
        raise _BadPath(f"{args.file}: {err}") from None
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".inherit.dcps")
    _write(out, dcps.dcps_lines(compiled))
    _write_names(out.with_suffix(".names"), dcps.inheritance_names(system))
    print(f"wrote {out} (rules={len(compiled.rules)})")
    print(f"target {args.target} becomes {shifted}; explore with --semantics inherit --K K+2")
    return EXIT_OK


def _cmd_explore_dcps(args) -> int:
    # K and the target are read with the input: a bad value is bad input; an
    # undeclared target would get a hollow "no"
    def check(system):
        if args.target not in system.states:
            raise dcps.DcpsValidationError(f"target state {args.target!r} not declared")
        dcps.check_budget(args.K)

    system = _load(args.file, dcps.parse_dcps, check)
    names = _load_names(args.file)
    verdict = dcps.reach_state(
        system,
        args.target,
        args.K,
        max_threads=args.max_threads,
        max_stack=args.max_stack,
        max_configs=args.max_configs,
        semantics=args.semantics,
    )
    if not isinstance(verdict, dcps.DcpsReachable):
        return _exit_code(_say(verdict))
    _say(verdict, events=len(verdict.witness))
    _print_dcps_witness(system, verdict.witness, names)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Pipeline


@dataclass
class StageResult:
    stage: str
    artifact: str
    verdict: str
    normalized: str  # yes | no | unknown
    detail: dict


@dataclass
class PipelineReport:
    input: str
    settings: dict
    stages: list[StageResult]
    cross_checks: list[dict]

    def serialize(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def cross_check(stages: list[StageResult]) -> list[dict]:
    """Pairwise verdict comparison; Unknown never disagrees."""
    results = []
    for i, a in enumerate(stages):
        for b in stages[i + 1 :]:
            if "unknown" in (a.normalized, b.normalized):
                outcome = "unknown"
            elif a.normalized == b.normalized:
                outcome = "agree"
            else:
                outcome = "disagree"
            results.append({"stages": [a.stage, b.stage], "result": outcome})
    return results


def _stage(name: str, verdict, **extra) -> StageResult:
    label, normalized, detail = _verdict(verdict)
    return StageResult(name, "", label, normalized, detail | extra)


def _pipeline_rnp(compiled, max_configs: int) -> StageResult:
    return _stage("rnp", rnp.explore_halting(compiled, max_configs=max_configs))


def _pipeline_dcps(compiled, tdpn_witness, caps: dict) -> StageResult:
    if tdpn_witness:
        events = tdpn2dcps.synthesize_cover_witness(compiled, tdpn_witness)
        final = dcps.replay_final(compiled.system, events, 1)
        if final.state != compiled.halt:
            raise RuntimeError("synthesized witness did not reach the halt state")
        return StageResult(
            "dcps", "", "Reachable (replayed witness)", "yes",
            {"method": "replay", "events": len(events)},
        )
    return _stage("dcps", dcps.reach_state(compiled.system, compiled.halt, 1, **caps), method="search")


def _cmd_pipeline(args) -> int:
    src = Path(args.file)
    program = _load(args.file, counter.parse_counter, lambda p: lipton.validate_source(p, args.n))
    bound = args.bound if args.bound is not None else lipton.simulated_bound(args.n, args.depth_mode)
    out_dir = Path(args.out_dir) if args.out_dir else src.parent / f"{src.stem}_pipeline"
    stem = src.stem
    timings: dict[str, float] = {}
    stages: list[StageResult] = []

    def timed(name, thunk, artifact=None):
        """Run and time one step; with an artifact it is a stage, whose row
        (or verdict, read from the table) goes into the report."""
        t0 = time.perf_counter()
        result = thunk()
        timings[name] = time.perf_counter() - t0
        if artifact is not None:
            stage = result if isinstance(result, StageResult) else _stage(name, result)
            stage.artifact = artifact
            stages.append(stage)
        return result

    timed("counter", lambda: counter.run_bounded(program, bound, fuel=args.fuel), src.name)

    compiled_rnp = timed("compile-rnp", lambda: lipton.compile_lipton(program, args.n, args.depth_mode))
    rnp_path = out_dir / f"{stem}.rnp"
    _write(rnp_path, (rnp.serialize_rnp(compiled_rnp),))
    timed("rnp", lambda: _pipeline_rnp(compiled_rnp, args.max_configs), rnp_path.name)

    compilation = timed("compile-tdpn", lambda: rnp2tdpn.compile_rnp_to_tdpn(compiled_rnp))
    net = compilation.tdpn
    tdpn_path = out_dir / f"{stem}.tdpn"
    _write(tdpn_path, (tdpn.serialize_tdpn(net),))
    _write(tdpn_path.with_suffix(".addr"), (rnp2tdpn.serialize_addr(compilation.book),))
    cover = timed(
        "tdpn",
        lambda: tdpn.coverable(
            net, mode="symbolic", max_tokens=args.max_tokens, max_markings=args.max_markings
        ),
        tdpn_path.name,
    )

    compiled = timed("compile-dcps", lambda: tdpn2dcps.compile_tdpn_to_killdcps(net))
    dcps_path = out_dir / f"{stem}.dcps"
    _write(dcps_path, dcps.dcps_lines(compiled.system))
    _write_names(dcps_path.with_suffix(".names"), compiled.names)
    dcps_caps = dict(
        max_threads=3 * compiled.net.width + 4,
        max_stack=compiled.net.width + 1,
        max_configs=args.dcps_max_configs,
    )
    witness = cover.witness if isinstance(cover, tdpn.TdpnCoverable) else ()
    timed("dcps", lambda: _pipeline_dcps(compiled, witness, dcps_caps), dcps_path.name)

    report = PipelineReport(
        input=src.name,
        settings={
            "n": args.n,
            "depth_mode": args.depth_mode,
            "bound": bound,
            "fuel": args.fuel,
            "max_configs": args.max_configs,
            "max_tokens": args.max_tokens,
            "max_markings": args.max_markings,
            "dcps_max_configs": args.dcps_max_configs,
        },
        stages=stages,
        cross_checks=cross_check(stages),
    )
    report_path = Path(args.report) if args.report else out_dir / "report.json"
    _write(report_path, (report.serialize(),))

    for stage in stages:
        print(f"{stage.stage}: {stage.verdict}")
    disagreements = [c for c in report.cross_checks if c["result"] == "disagree"]
    unknowns = [s for s in stages if s.normalized == "unknown"]
    if disagreements:
        pairs = "; ".join("/".join(c["stages"]) for c in disagreements)
        print(f"cross-check: DISAGREE ({pairs})")
        print(f"snl: cross-check disagreement: {pairs}", file=sys.stderr)
    elif unknowns:
        print(f"cross-check: inconclusive ({', '.join(s.stage for s in unknowns)} unknown)")
    else:
        print("cross-check: all verdicts agree")
    print(f"report: {report_path}")
    for name in sorted(timings):
        print(f"snl: timing {name}: {timings[name]:.3f}s", file=sys.stderr)
    return _exit_code(*(s.normalized for s in stages))


# ---------------------------------------------------------------------------
# Argument parsing


def cap(text: str) -> int:
    """A cap or limit flag's value: an integer of at least 0.  argparse
    turns a refusal into exit 2, naming the flag."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snl",
        description="verification toolchain for counter programs, recursive net "
        "programs, transducer-defined Petri nets, and dynamic thread pools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-counter", help="run a counter program under a value bound")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--bound", type=cap, help="explicit value bound")
    group.add_argument("--n", type=int, help="bound parameter: bound = 2^(2^n) (or triple)")
    p.add_argument("--depth-mode", choices=("double", "triple"), default="double")
    p.add_argument("--fuel", type=cap, default=counter.DEFAULT_FUEL)
    p.set_defaults(handler=_cmd_run_counter)

    p = sub.add_parser("compile-rnp", help="compile a counter program to a recursive net program")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth-mode", choices=("double", "triple"), default="double")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_compile_rnp)

    p = sub.add_parser("run-rnp", help="search a recursive net program for a halting run")
    p.add_argument("file")
    p.add_argument("--max-configs", type=cap, default=rnp.DEFAULT_MAX_CONFIGS)
    p.add_argument("--max-value", type=cap, default=None)
    p.set_defaults(handler=_cmd_run_rnp)

    p = sub.add_parser("compile-tdpn", help="compile a recursive net program to a symbolic net")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_compile_tdpn)

    p = sub.add_parser("expand-tdpn", help="expand a symbolic net into an explicit Petri net")
    p.add_argument("file")
    p.add_argument("--place-limit", type=cap, default=tdpn.DEFAULT_PLACE_LIMIT)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_expand_tdpn)

    p = sub.add_parser("cover", help="decide coverability of the final word")
    p.add_argument("file")
    p.add_argument("--mode", choices=("backward", "symbolic", "both"), default="backward")
    p.add_argument("--place-limit", type=cap, default=tdpn.DEFAULT_PLACE_LIMIT)
    p.add_argument("--max-tokens", type=cap, default=tdpn.DEFAULT_MAX_TOKENS)
    p.add_argument("--max-markings", type=cap, default=tdpn.DEFAULT_MAX_MARKINGS)
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("compile-dcps", help="compile a symbolic net to a thread pool with kills")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_compile_dcps)

    p = sub.add_parser("desugar-kill", help="replace kill rules by spawn-and-confirm gadgets")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_desugar_kill)

    p = sub.add_parser("to-inheritance", help="rebuild a plain system for inheriting switch counts")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_to_inheritance)

    p = sub.add_parser("explore-dcps", help="bounded-switch state reachability search")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--K", type=int, required=True, help="per-thread switch budget")
    p.add_argument("--semantics", choices=dcps.SEMANTICS, default="noinherit")
    p.add_argument("--max-threads", type=cap, default=dcps.DEFAULT_MAX_THREADS)
    p.add_argument("--max-stack", type=cap, default=dcps.DEFAULT_MAX_STACK)
    p.add_argument("--max-configs", type=cap, default=dcps.DEFAULT_MAX_CONFIGS,
                   help="configurations to expand before giving up (Unknown)")
    p.set_defaults(handler=_cmd_explore_dcps)

    p = sub.add_parser("pipeline", help="run all four stages on a counter program and cross-check")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth-mode", choices=("double", "triple"), default="double")
    p.add_argument("--bound", type=cap, default=None, help="override the simulated bound")
    p.add_argument("--fuel", type=cap, default=counter.DEFAULT_FUEL)
    p.add_argument("--max-configs", type=cap, default=rnp.DEFAULT_MAX_CONFIGS,
                   help="recursive-net search cap")
    p.add_argument("--max-tokens", type=cap, default=tdpn.DEFAULT_MAX_TOKENS)
    p.add_argument("--max-markings", type=cap, default=2_000_000)
    p.add_argument("--dcps-max-configs", type=cap, default=200_000)
    p.add_argument("--out-dir")
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _BadPath as err:
        print(f"snl: {err}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # downstream pager/head closed stdout; not an input failure
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except Exception as err:
        traceback.print_exc()
        print(f"snl: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
