"""Command-line front end: format conversions, explorers, and the pipeline.

Each subcommand wraps one module; `pipeline` chains all of them on a single
counter program and cross-checks the four verdicts.  Exit codes: 0 a verdict
was produced, 2 the input failed to parse or validate, 3 a search gave up
within its caps (Unknown), 4 cross-checked verdicts disagree, 5 an internal
failure, such as a witness that does not replay.  An Unknown never counts as
a disagreement.

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
from dataclasses import dataclass, field
from pathlib import Path

from snl import counter, dcps, lipton, petri, rnp, rnp2tdpn, tdpn, tdpn2dcps

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_DISAGREE = 4
EXIT_INTERNAL = 5

_INPUT_ERRORS = (ValueError, OSError)


# ---------------------------------------------------------------------------
# Small helpers


def _fail(path: str, err: Exception) -> int:
    print(f"snl: {path}: {err}", file=sys.stderr)
    return EXIT_INPUT


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_names(path: Path, names: dict[str, str]) -> None:
    lines = [f"{key}\t{names[key]}" for key in sorted(names)]
    _write(path, "\n".join(lines) + "\n")


def _load_names(data_path: str) -> dict[str, str]:
    """Pretty-name sidecar next to a .dcps file, if present."""
    candidate = Path(data_path).with_suffix(".names")
    if not candidate.is_file():
        return {}
    names = {}
    for line in candidate.read_text().splitlines():
        if "\t" in line:
            key, value = line.split("\t", 1)
            names[key] = value
    return names


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
    try:
        program = counter.parse_counter(_read(args.file))
        bound = args.bound if args.bound is not None else lipton.simulated_bound(args.n, args.depth_mode)
        verdict = counter.run_bounded(program, bound, fuel=args.fuel)
    except _INPUT_ERRORS as err:
        return _fail(args.file, err)
    if isinstance(verdict, counter.Halts):
        print(f"Halts steps={verdict.steps} peak={verdict.peak} bound={bound}")
        return EXIT_OK
    if isinstance(verdict, counter.Aborts):
        print(f"Aborts label={verdict.label} steps={verdict.steps}")
        return EXIT_OK
    if isinstance(verdict, counter.BoundExceeded):
        print(f"BoundExceeded var={verdict.var} steps={verdict.steps} bound={bound}")
        return EXIT_OK
    print(f"FuelExhausted steps={verdict.steps}")
    return EXIT_UNKNOWN


def _cmd_compile_rnp(args) -> int:
    try:
        program = counter.parse_counter(_read(args.file))
        compiled = lipton.compile_lipton(program, args.n, args.depth_mode)
    except _INPUT_ERRORS as err:
        return _fail(args.file, err)
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".rnp")
    _write(out, rnp.serialize_rnp(compiled))
    print(f"wrote {out} (max_depth={compiled.max_depth}, size={compiled.size()})")
    return EXIT_OK


def _cmd_run_rnp(args) -> int:
    try:
        program = rnp.parse_rnp(_read(args.file))
        verdict = rnp.explore_halting(program, max_configs=args.max_configs, max_value=args.max_value)
    except _INPUT_ERRORS as err:
        return _fail(args.file, err)
    if isinstance(verdict, rnp.RnpHalts):
        choices = ",".join(map(str, verdict.witness)) or "-"
        print(f"Halts choices={choices} configs_explored={verdict.configs_explored}")
        return EXIT_OK
    if isinstance(verdict, rnp.RnpNo):
        print(f"NoHalt configs_explored={verdict.configs_explored}")
        return EXIT_OK
    print(f"Unknown reason={verdict.reason} configs_explored={verdict.configs_explored}")
    return EXIT_UNKNOWN


def _cmd_compile_tdpn(args) -> int:
    try:
        program = rnp.parse_rnp(_read(args.file))
        compiled = rnp2tdpn.compile_rnp_to_tdpn(program)
    except _INPUT_ERRORS as err:
        return _fail(args.file, err)
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".tdpn")
    _write(out, tdpn.serialize_tdpn(compiled.tdpn))
    _write(out.with_suffix(".addr"), rnp2tdpn.serialize_addr(compiled.book))
    net = compiled.tdpn
    print(f"wrote {out} (width={net.width}, size={net.size()})")
    return EXIT_OK


def _cmd_expand_tdpn(args) -> int:
    try:
        net = tdpn.parse_tdpn(_read(args.file))
    except _INPUT_ERRORS as err:
        return _fail(args.file, err)
    try:
        expanded = tdpn.expand(net, place_limit=args.place_limit)
    except tdpn.PlaceLimitExceeded as err:
        print(f"snl: {args.file}: {err}", file=sys.stderr)
        return EXIT_UNKNOWN
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".pnet")
    _write(out, petri.serialize_pnet(expanded))
    print(f"wrote {out} (places={len(expanded.places)}, transitions={len(expanded.transitions)})")
    return EXIT_OK


def _normalize_cover(verdict) -> str:
    if isinstance(verdict, tdpn.TdpnCoverable):
        return "yes"
    if isinstance(verdict, tdpn.TdpnNotCoverable):
        return "no" if verdict.complete else "unknown"
    return "unknown"


def _print_cover(verdict) -> None:
    if isinstance(verdict, tdpn.TdpnCoverable):
        print(f"{verdict.mode}: Coverable ({len(verdict.witness)} steps)")
        _print_descriptors(verdict.witness)
    elif isinstance(verdict, tdpn.TdpnNotCoverable):
        qualifier = "exhaustive" if verdict.complete else "within caps"
        print(f"{verdict.mode}: NotCoverable ({qualifier})")
    else:
        print(f"{verdict.mode}: Unknown reason={verdict.reason}")


def _cmd_cover(args) -> int:
    try:
        net = tdpn.parse_tdpn(_read(args.file))
    except _INPUT_ERRORS as err:
        return _fail(args.file, err)
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
    for verdict in verdicts:
        _print_cover(verdict)
    normals = [_normalize_cover(v) for v in verdicts]
    if "yes" in normals and "no" in normals:
        print("snl: cross-check disagreement between backward and symbolic", file=sys.stderr)
        return EXIT_DISAGREE
    if "unknown" in normals:
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_compile_dcps(args) -> int:
    try:
        net = tdpn.parse_tdpn(_read(args.file))
        system = tdpn2dcps.compile_tdpn_to_killdcps(net)
    except _INPUT_ERRORS as err:
        return _fail(args.file, err)
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".dcps")
    _write(out, dcps.serialize_dcps(system))
    _write_names(out.with_suffix(".names"), tdpn2dcps.killdcps_names(net))
    halt = tdpn2dcps.halt_state(net)
    print(f"wrote {out} (rules={len(system.rules)}, kills={len(system.kills)}, target={halt})")
    return EXIT_OK


def _cmd_desugar_kill(args) -> int:
    try:
        system = dcps.parse_dcps(_read(args.file))
        plain = dcps.desugar_kill(system)
    except _INPUT_ERRORS as err:
        return _fail(args.file, err)
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".plain.dcps")
    _write(out, dcps.serialize_dcps(plain))
    print(f"wrote {out} (rules={len(plain.rules)}, kills=0)")
    return EXIT_OK


def _cmd_to_inheritance(args) -> int:
    try:
        system = dcps.parse_dcps(_read(args.file))
        compiled, shifted = dcps.compile_to_inheritance(system, args.target)
    except _INPUT_ERRORS as err:
        return _fail(args.file, err)
    out = Path(args.output) if args.output else Path(args.file).with_suffix(".inherit.dcps")
    _write(out, dcps.serialize_dcps(compiled))
    _write_names(out.with_suffix(".names"), dcps.inheritance_names(system))
    print(f"wrote {out} (rules={len(compiled.rules)})")
    print(f"target {args.target} becomes {shifted}; explore with --semantics inherit --K K+2")
    return EXIT_OK


def _cmd_explore_dcps(args) -> int:
    try:
        system = dcps.parse_dcps(_read(args.file))
        verdict = dcps.reach_state(
            system,
            args.target,
            args.K,
            max_threads=args.max_threads,
            max_stack=args.max_stack,
            max_configs=args.max_configs,
            semantics=args.semantics,
        )
    except _INPUT_ERRORS as err:
        return _fail(args.file, err)
    if isinstance(verdict, dcps.DcpsReachable):
        print(f"Reachable configs_explored={verdict.configs_explored} events={len(verdict.witness)}")
        _print_dcps_witness(system, verdict.witness, _load_names(args.file))
        return EXIT_OK
    if isinstance(verdict, dcps.DcpsNo):
        print(f"NotReachable (exhaustive) configs_explored={verdict.configs_explored}")
        return EXIT_OK
    print(f"Unknown reason={verdict.reason} configs_explored={verdict.configs_explored}")
    return EXIT_UNKNOWN


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
    timings: dict = field(default_factory=dict)  # stderr diagnostics only

    def serialize(self) -> str:
        body = {
            "input": self.input,
            "settings": self.settings,
            "stages": [
                {
                    "stage": s.stage,
                    "artifact": s.artifact,
                    "verdict": s.verdict,
                    "normalized": s.normalized,
                    "detail": s.detail,
                }
                for s in self.stages
            ],
            "cross_checks": self.cross_checks,
        }
        return json.dumps(body, indent=2, sort_keys=True) + "\n"


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


def _pipeline_counter(program, bound: int, fuel: int) -> StageResult:
    verdict = counter.run_bounded(program, bound, fuel=fuel)
    if isinstance(verdict, counter.Halts):
        return StageResult(
            "counter", "", f"Halts steps={verdict.steps} peak={verdict.peak}", "yes",
            {"steps": verdict.steps, "peak": verdict.peak},
        )
    if isinstance(verdict, counter.Aborts):
        return StageResult(
            "counter", "", f"Aborts label={verdict.label}", "no", {"steps": verdict.steps}
        )
    if isinstance(verdict, counter.BoundExceeded):
        return StageResult(
            "counter", "", f"BoundExceeded var={verdict.var}", "no", {"steps": verdict.steps}
        )
    return StageResult("counter", "", "FuelExhausted", "unknown", {"steps": verdict.steps})


def _pipeline_rnp(compiled, max_configs: int) -> StageResult:
    verdict = rnp.explore_halting(compiled, max_configs=max_configs)
    if isinstance(verdict, rnp.RnpHalts):
        return StageResult(
            "rnp", "", "Halts", "yes",
            {"configs_explored": verdict.configs_explored, "witness_choices": len(verdict.witness)},
        )
    if isinstance(verdict, rnp.RnpNo):
        return StageResult("rnp", "", "NoHalt", "no", {"configs_explored": verdict.configs_explored})
    return StageResult(
        "rnp", "", f"Unknown reason={verdict.reason}", "unknown",
        {"configs_explored": verdict.configs_explored},
    )


def _pipeline_tdpn(net, max_tokens: int, max_markings: int) -> tuple[StageResult, tuple]:
    verdict = tdpn.coverable(net, mode="symbolic", max_tokens=max_tokens, max_markings=max_markings)
    if isinstance(verdict, tdpn.TdpnCoverable):
        return (
            StageResult("tdpn", "", "Coverable", "yes", {"witness_steps": len(verdict.witness)}),
            verdict.witness,
        )
    if isinstance(verdict, tdpn.TdpnNotCoverable) and verdict.complete:
        return StageResult("tdpn", "", "NotCoverable (exhaustive)", "no", {}), ()
    # an incomplete NotCoverable was pruned by the token cap alone
    reason = verdict.reason if isinstance(verdict, tdpn.TdpnUnknown) else "max_tokens"
    return StageResult("tdpn", "", "Unknown", "unknown", {"reason": reason}), ()


def _pipeline_dcps(net, system, tdpn_witness, caps: dict) -> StageResult:
    halt = tdpn2dcps.halt_state(net)
    if tdpn_witness:
        events = tdpn2dcps.synthesize_cover_witness(net, tdpn_witness)
        final = dcps.replay_final(system, events, 1)
        if final.state != halt:
            raise RuntimeError("synthesized witness did not reach the halt state")
        return StageResult(
            "dcps", "", "Reachable (replayed witness)", "yes",
            {"method": "replay", "events": len(events)},
        )
    verdict = dcps.reach_state(system, halt, 1, **caps)
    if isinstance(verdict, dcps.DcpsReachable):
        return StageResult(
            "dcps", "", "Reachable", "yes",
            {"method": "search", "configs_explored": verdict.configs_explored},
        )
    if isinstance(verdict, dcps.DcpsNo):
        return StageResult(
            "dcps", "", "NotReachable (exhaustive)", "no",
            {"method": "search", "configs_explored": verdict.configs_explored},
        )
    return StageResult(
        "dcps", "", f"Unknown reason={verdict.reason}", "unknown",
        {"method": "search", "configs_explored": verdict.configs_explored},
    )


def _cmd_pipeline(args) -> int:
    src = Path(args.file)
    try:
        program = counter.parse_counter(_read(args.file))
        bound = args.bound if args.bound is not None else lipton.simulated_bound(args.n, args.depth_mode)
        counter.validate_counter(program)
    except _INPUT_ERRORS as err:
        return _fail(args.file, err)

    out_dir = Path(args.out_dir) if args.out_dir else src.parent / f"{src.stem}_pipeline"
    stem = src.stem
    timings: dict[str, float] = {}
    stages: list[StageResult] = []

    def timed(name, thunk):
        t0 = time.perf_counter()
        result = thunk()
        timings[name] = time.perf_counter() - t0
        return result

    try:
        stage = timed("counter", lambda: _pipeline_counter(program, bound, args.fuel))
        stage.artifact = src.name
        stages.append(stage)

        compiled_rnp = timed("compile-rnp", lambda: lipton.compile_lipton(program, args.n, args.depth_mode))
        rnp_path = out_dir / f"{stem}.rnp"
        _write(rnp_path, rnp.serialize_rnp(compiled_rnp))
        stage = timed("rnp", lambda: _pipeline_rnp(compiled_rnp, args.max_configs))
        stage.artifact = rnp_path.name
        stages.append(stage)

        compilation = timed("compile-tdpn", lambda: rnp2tdpn.compile_rnp_to_tdpn(compiled_rnp))
        net = compilation.tdpn
        tdpn_path = out_dir / f"{stem}.tdpn"
        _write(tdpn_path, tdpn.serialize_tdpn(net))
        _write(tdpn_path.with_suffix(".addr"), rnp2tdpn.serialize_addr(compilation.book))
        stage, tdpn_witness = timed(
            "tdpn", lambda: _pipeline_tdpn(net, args.max_tokens, args.max_markings)
        )
        stage.artifact = tdpn_path.name
        stages.append(stage)

        system = timed("compile-dcps", lambda: tdpn2dcps.compile_tdpn_to_killdcps(net))
        dcps_path = out_dir / f"{stem}.dcps"
        _write(dcps_path, dcps.serialize_dcps(system))
        _write_names(dcps_path.with_suffix(".names"), tdpn2dcps.killdcps_names(net))
        dcps_caps = dict(
            max_threads=3 * net.width + 4,
            max_stack=net.width + 1,
            max_configs=args.dcps_max_configs,
        )
        stage = timed("dcps", lambda: _pipeline_dcps(net, system, tdpn_witness, dcps_caps))
        stage.artifact = dcps_path.name
        stages.append(stage)
    except (OSError, lipton.LiptonInputError) as err:
        return _fail(args.file, err)

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
        timings=timings,
    )
    report_path = Path(args.report) if args.report else out_dir / "report.json"
    _write(report_path, report.serialize())

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
    if disagreements:
        return EXIT_DISAGREE
    if unknowns:
        return EXIT_UNKNOWN
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


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
    group.add_argument("--bound", type=int, help="explicit value bound")
    group.add_argument("--n", type=int, help="bound parameter: bound = 2^(2^n) (or triple)")
    p.add_argument("--depth-mode", choices=("double", "triple"), default="double")
    p.add_argument("--fuel", type=int, default=counter.DEFAULT_FUEL)
    p.set_defaults(handler=_cmd_run_counter)

    p = sub.add_parser("compile-rnp", help="compile a counter program to a recursive net program")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth-mode", choices=("double", "triple"), default="double")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_compile_rnp)

    p = sub.add_parser("run-rnp", help="search a recursive net program for a halting run")
    p.add_argument("file")
    p.add_argument("--max-configs", type=int, default=1_000_000)
    p.add_argument("--max-value", type=int, default=None)
    p.set_defaults(handler=_cmd_run_rnp)

    p = sub.add_parser("compile-tdpn", help="compile a recursive net program to a symbolic net")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_compile_tdpn)

    p = sub.add_parser("expand-tdpn", help="expand a symbolic net into an explicit Petri net")
    p.add_argument("file")
    p.add_argument("--place-limit", type=int, default=4096)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_expand_tdpn)

    p = sub.add_parser("cover", help="decide coverability of the final word")
    p.add_argument("file")
    p.add_argument("--mode", choices=("backward", "symbolic", "both"), default="backward")
    p.add_argument("--place-limit", type=int, default=4096)
    p.add_argument("--max-tokens", type=int, default=64)
    p.add_argument("--max-markings", type=int, default=1_000_000)
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
    p.add_argument("--max-threads", type=int, default=dcps.DEFAULT_MAX_THREADS)
    p.add_argument("--max-stack", type=int, default=dcps.DEFAULT_MAX_STACK)
    p.add_argument("--max-configs", type=int, default=None,
                   help="default: SNL_MAX_CONFIGS or 1000000")
    p.set_defaults(handler=_cmd_explore_dcps)

    p = sub.add_parser("pipeline", help="run all four stages on a counter program and cross-check")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth-mode", choices=("double", "triple"), default="double")
    p.add_argument("--bound", type=int, default=None, help="override the simulated bound")
    p.add_argument("--fuel", type=int, default=counter.DEFAULT_FUEL)
    p.add_argument("--max-configs", type=int, default=1_000_000, help="recursive-net search cap")
    p.add_argument("--max-tokens", type=int, default=64)
    p.add_argument("--max-markings", type=int, default=2_000_000)
    p.add_argument("--dcps-max-configs", type=int, default=200_000)
    p.add_argument("--out-dir")
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
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
