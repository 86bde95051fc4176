"""End-to-end checks of the command-line front end.

Each test drives cli.main directly with an argv list, so exit codes,
stdout, and stderr are checked exactly as a shell user sees them.
"""

import hashlib
import json

import pytest

from helpers import CORPUS
from snl import cli, counter, dcps, lipton, petri, rnp, rnp2tdpn, tdpn, tdpn2dcps
from snl.cli import (
    EXIT_DISAGREE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNKNOWN,
    StageResult,
    cross_check,
)

TINY = str(CORPUS / "tiny.tdpn")


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run-counter


def test_run_counter_halts(capsys):
    code, out, _ = run_cli(capsys, "run-counter", CORPUS / "count4.cp", "--n", 1)
    assert code == EXIT_OK
    assert out.startswith("Halts")
    assert "steps=4" in out


def test_run_counter_bound_exceeded(capsys):
    code, out, _ = run_cli(capsys, "run-counter", CORPUS / "exceed_loop.cp", "--bound", 4)
    assert code == EXIT_OK
    assert out.startswith("BoundExceeded")


def test_run_counter_fuel_exhausted(capsys):
    code, out, _ = run_cli(
        capsys, "run-counter", CORPUS / "infinite_loop.cp", "--bound", 4, "--fuel", 1000
    )
    assert code == EXIT_UNKNOWN
    assert out.startswith("FuelExhausted")


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "run-counter", "no_such_file.cp", "--n", 1)
    assert code == EXIT_INPUT
    assert "no_such_file.cp" in err


def test_unparsable_file_is_input_error(capsys):
    # a counter program is not a thread-pool system; parse context names the line
    code, _, err = run_cli(
        capsys, "explore-dcps", CORPUS / "halt.cp", "--target", "g_halt", "--K", 1
    )
    assert code == EXIT_INPUT
    assert "line" in err


def test_repeated_transducer_keyword_is_input_error(capsys, tmp_path):
    net = tmp_path / "twice.tdpn"
    net.write_text((CORPUS / "tiny.tdpn").read_text().replace("initial r;", "initial r;\n  initial q1;", 1))
    code, _, err = run_cli(capsys, "expand-tdpn", net)
    assert code == EXIT_INPUT
    assert "second initial line in move block" in err


# ---------------------------------------------------------------------------
# compile chain and round-trips


def test_compile_chain_and_roundtrips(capsys, tmp_path):
    rnp_path = tmp_path / "count4.rnp"
    code, out, _ = run_cli(
        capsys, "compile-rnp", CORPUS / "count4.cp", "--n", 1, "-o", rnp_path
    )
    assert code == EXIT_OK and rnp_path.is_file()

    code, out, _ = run_cli(capsys, "run-rnp", rnp_path)
    assert code == EXIT_OK
    assert out.startswith("Halts")

    tdpn_path = tmp_path / "count4.tdpn"
    code, out, _ = run_cli(capsys, "compile-tdpn", rnp_path, "-o", tdpn_path)
    assert code == EXIT_OK and tdpn_path.is_file()
    assert tdpn_path.with_suffix(".addr").is_file()

    pnet_path = tmp_path / "count4.pnet"
    code, out, _ = run_cli(capsys, "expand-tdpn", TINY, "-o", pnet_path)
    assert code == EXIT_OK and pnet_path.is_file()

    dcps_path = tmp_path / "tiny.dcps"
    code, out, _ = run_cli(capsys, "compile-dcps", TINY, "-o", dcps_path)
    assert code == EXIT_OK and dcps_path.is_file()
    assert dcps_path.with_suffix(".names").is_file()

    # parse -> serialize -> parse is the identity on every emitted format
    for path, parse, serialize in (
        (CORPUS / "count4.cp", counter.parse_counter, counter.serialize_counter),
        (rnp_path, rnp.parse_rnp, rnp.serialize_rnp),
        (tdpn_path, tdpn.parse_tdpn, tdpn.serialize_tdpn),
        (pnet_path, petri.parse_pnet, petri.serialize_pnet),
        (dcps_path, dcps.parse_dcps, dcps.serialize_dcps),
    ):
        first = parse(path.read_text())
        assert parse(serialize(first)) == first


def test_corpus_counter_roundtrip():
    for path in sorted(CORPUS.glob("*.cp")):
        program = counter.parse_counter(path.read_text())
        assert counter.parse_counter(counter.serialize_counter(program)) == program


# ---------------------------------------------------------------------------
# cover


def test_cover_both_modes_agree_on_tiny(capsys):
    code, out, _ = run_cli(capsys, "cover", "--mode", "both", TINY)
    assert code == EXIT_OK
    assert "backward: Coverable" in out
    assert "symbolic: Coverable" in out
    assert "move 0 -> 1" in out


def test_cover_caps_exhausted_is_unknown(capsys):
    code, out, _ = run_cli(capsys, "cover", "--mode", "symbolic", "--max-markings", 1, TINY)
    assert code == EXIT_UNKNOWN
    assert "Unknown" in out


# ---------------------------------------------------------------------------
# explore-dcps


@pytest.fixture(scope="module")
def tiny_dcps(tmp_path_factory):
    out = tmp_path_factory.mktemp("dcps") / "tiny.dcps"
    code = cli.main(["compile-dcps", TINY, "-o", str(out)])
    assert code == EXIT_OK
    return out


def test_explore_dcps_pretty_witness(capsys, tiny_dcps):
    code, out, _ = run_cli(capsys, "explore-dcps", tiny_dcps, "--target", "g_halt", "--K", 1)
    assert code == EXIT_OK
    assert out.startswith("Reachable")
    # the .names sidecar written alongside the system drives the printout
    assert "(main)" in out
    assert "(halt)" in out
    assert "kill" in out


def test_desugar_then_explore(capsys, tiny_dcps, tmp_path):
    plain = tmp_path / "tiny_plain.dcps"
    code, out, _ = run_cli(capsys, "desugar-kill", tiny_dcps, "-o", plain)
    assert code == EXIT_OK
    assert "kills=0" in out
    code, out, _ = run_cli(
        capsys, "explore-dcps", plain, "--target", "g_halt", "--K", 1, "--max-threads", 8
    )
    assert code == EXIT_OK
    assert out.startswith("Reachable")


def test_to_inheritance_outputs(capsys, tiny_dcps, tmp_path):
    plain = tmp_path / "tiny_plain.dcps"
    run_cli(capsys, "desugar-kill", tiny_dcps, "-o", plain)
    out_path = tmp_path / "tiny_inherit.dcps"
    code, out, _ = run_cli(capsys, "to-inheritance", plain, "--target", "g_halt", "-o", out_path)
    assert code == EXIT_OK
    assert "becomes swp_g_halt" in out
    compiled = dcps.parse_dcps(out_path.read_text())
    assert "swp_g_halt" in compiled.states
    assert out_path.with_suffix(".names").is_file()


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_halt_all_agree(capsys, tmp_path):
    out_dir = tmp_path / "halt_pipe"
    code, out, _ = run_cli(capsys, "pipeline", "--n", 1, CORPUS / "halt.cp", "--out-dir", out_dir)
    assert code == EXIT_OK
    assert "cross-check: all verdicts agree" in out
    report = json.loads((out_dir / "report.json").read_text())
    assert [s["normalized"] for s in report["stages"]] == ["yes"] * 4
    assert all(c["result"] == "agree" for c in report["cross_checks"])
    for artifact in ("halt.rnp", "halt.tdpn", "halt.addr", "halt.dcps", "halt.names"):
        assert (out_dir / artifact).is_file()
    # the coverable case certifies the thread-pool verdict by witness replay
    dcps_stage = report["stages"][3]
    assert dcps_stage["detail"]["method"] == "replay"


def test_streamed_dcps_and_names_match_the_serializers(capsys, tmp_path):
    # the pipeline and compile-dcps write both artifacts line by line
    out_dir = tmp_path / "halt_pipe"
    code, _, _ = run_cli(capsys, "pipeline", "--n", 1, CORPUS / "halt.cp", "--out-dir", out_dir)
    assert code == EXIT_OK
    net = tdpn.parse_tdpn((out_dir / "halt.tdpn").read_text())
    compiled = tdpn2dcps.compile_tdpn_to_killdcps(net)
    names = compiled.names
    dcps_text = dcps.serialize_dcps(compiled.system).encode()
    names_text = "".join(f"{key}\t{names[key]}\n" for key in sorted(names)).encode()
    code, _, _ = run_cli(capsys, "compile-dcps", out_dir / "halt.tdpn", "-o", tmp_path / "c.dcps")
    assert code == EXIT_OK
    for written in (out_dir / "halt", tmp_path / "c"):
        assert written.with_suffix(".dcps").read_bytes() == dcps_text
        assert written.with_suffix(".names").read_bytes() == names_text


def test_pipeline_report_byte_identical(capsys, tmp_path):
    reports = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(
            capsys, "pipeline", "--n", 1, CORPUS / "halt.cp", "--out-dir", out_dir
        )
        assert code == EXIT_OK
        reports.append((out_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_pipeline_negative_never_disagrees(capsys, tmp_path):
    out_dir = tmp_path / "exceed_pipe"
    code, out, _ = run_cli(
        capsys, "pipeline", "--n", 1, CORPUS / "exceed_loop.cp",
        "--dcps-max-configs", 1000, "--out-dir", out_dir,
    )
    # the exhaustive thread-pool search stays inconclusive at this cap
    assert code == EXIT_UNKNOWN
    report = json.loads((out_dir / "report.json").read_text())
    normals = [s["normalized"] for s in report["stages"]]
    assert normals[:3] == ["no", "no", "no"]
    assert normals[3] == "unknown"
    assert not any(c["result"] == "disagree" for c in report["cross_checks"])


def test_pipeline_fault_injection_flags_disagreement(capsys, tmp_path, monkeypatch):
    # force a wrong middle-stage verdict; the harness must notice and exit 4
    monkeypatch.setattr(
        cli, "_replay_rnp",
        lambda compiled, max_configs: StageResult("rnp", "", "NoHalt", "no", {}),
    )
    out_dir = tmp_path / "fault_pipe"
    code, out, err = run_cli(
        capsys, "pipeline", "--n", 1, CORPUS / "halt.cp", "--out-dir", out_dir
    )
    assert code == EXIT_DISAGREE
    assert "DISAGREE" in out
    assert "disagreement" in err


def test_pipeline_names_the_token_cap(capsys, tmp_path):
    # a program the counter stage sees halt gets a replayed tdpn witness, which
    # no search cap touches; the token cap bounds the search of one it does not
    out_dir = tmp_path / "token_pipe"
    code, _, _ = run_cli(
        capsys, "pipeline", "--n", 1, CORPUS / "abort_dec.cp",
        "--max-tokens", 1, "--dcps-max-configs", 100, "--out-dir", out_dir,
    )
    assert code == EXIT_UNKNOWN
    tdpn_stage = json.loads((out_dir / "report.json").read_text())["stages"][2]
    assert tdpn_stage["normalized"] == "unknown"
    assert tdpn_stage["detail"] == {"reason": "max_tokens"}


def test_pipeline_prints_the_tdpn_cap(capsys, tmp_path):
    # like the rnp and dcps lines, the tdpn line names the cap that stopped it
    code, out, _ = run_cli(
        capsys, "pipeline", "--n", 1, CORPUS / "abort_dec.cp",
        "--max-tokens", 1, "--dcps-max-configs", 2000, "--out-dir", tmp_path,
    )
    assert code == EXIT_UNKNOWN
    assert out.splitlines()[2:4] == ["tdpn: Unknown reason=max_tokens", "dcps: Unknown reason=max_configs"]


def test_pipeline_failed_replay_is_internal_error(capsys, tmp_path, monkeypatch):
    # the pool starts empty, so no kill applies; the fault is the program's, not the input's
    maker = tdpn2dcps._round_maker

    def leading_kill(compiled):
        make = maker(compiled)

        def made(kind, words, active):
            events, needs = make(kind, words, active)
            return ([("kill", 0, 0)] if kind == "init" else []) + events, needs

        return made

    monkeypatch.setattr(tdpn2dcps, "_round_maker", leading_kill)
    code, _, err = run_cli(
        capsys, "pipeline", "--n", 1, CORPUS / "halt.cp", "--out-dir", tmp_path / "p"
    )
    assert code == EXIT_INTERNAL
    assert "snl: internal error:" in err
    assert "does not apply" in err


def test_pipeline_missing_footprint_token_is_internal_error(capsys, tmp_path, monkeypatch):
    # without the first step's round, the token it makes is missing when the
    # next round switches to it, although that round's events apply on its footprint
    rounds = tdpn2dcps.CoverWitness.rounds

    def first_step_dropped(witness):
        made = rounds(witness)
        yield next(made)
        next(made)
        yield from made

    monkeypatch.setattr(tdpn2dcps.CoverWitness, "rounds", first_step_dropped)
    code, _, err = run_cli(
        capsys, "pipeline", "--n", 1, CORPUS / "halt.cp", "--out-dir", tmp_path / "p"
    )
    assert code == EXIT_INTERNAL
    assert "snl: internal error: ValueError: round 1: the pool lacks" in err


def flip_first_choice(guided_run):
    def flipped(compiled):
        run = guided_run(compiled)
        for config, pick in run:
            if pick is not None:
                yield config, 1 - pick
                break
            yield config, pick
        yield from run

    return flipped


def reverse_first_step(translate_run):
    def corrupted(*args):
        steps = translate_run(*args)
        kind, words = next(steps)
        yield kind, words[::-1]
        yield from steps

    return corrupted


@pytest.mark.parametrize("module, name, tamper, message", [
    (lipton, "guided_run", flip_first_choice, "RuntimeError: rnp: the guided run ends stuck_dec at "),
    (rnp2tdpn, "translate_run", reverse_first_step, "RuntimeError: tdpn: translated step 0 fork "),
])
def test_pipeline_failed_carried_run_is_internal_error(capsys, tmp_path, monkeypatch, module, name, tamper,
                                                       message):
    # the counter stage saw the program halt, so the carried run must halt and
    # replay: a run that does not is the program's fault, named by its stage
    monkeypatch.setattr(module, name, tamper(getattr(module, name)))
    code, out, err = run_cli(capsys, "pipeline", "--n", 1, CORPUS / "halt.cp", "--out-dir", tmp_path / "p")
    assert code == EXIT_INTERNAL
    assert f"snl: internal error: {message}" in err
    assert out == ""


def test_pipeline_replay_is_not_capped(capsys, tmp_path):
    # the caps bound searches; a replayed witness certifies whatever they say
    code, out, _ = run_cli(
        capsys, "pipeline", "--n", 1, CORPUS / "halt.cp", "--max-tokens", 1, "--max-markings", 0,
        "--dcps-max-configs", 0, "--out-dir", tmp_path / "p",
    )
    assert code == EXIT_OK
    assert "tdpn: Coverable (replayed witness)" in out


@pytest.mark.parametrize("max_configs, exit_code, line", [
    (457, EXIT_UNKNOWN, "rnp: Unknown reason=max_configs"),
    (458, EXIT_OK, "rnp: Halts (replayed witness)"),
])
def test_pipeline_carried_run_halts_within_exactly_its_steps(capsys, tmp_path, max_configs, exit_code, line):
    # the carried run of halt.cp at n=1 halts after 458 steps
    code, out, _ = run_cli(capsys, "pipeline", "--n", 1, CORPUS / "halt.cp", "--max-configs", max_configs,
                           "--out-dir", tmp_path / "p")
    assert (code, out.splitlines()[1]) == (exit_code, line)


@pytest.mark.parametrize("name", ["halt", "count4"])
def test_pipeline_certifies_yes_at_n2(capsys, tmp_path, name):
    out_dir = tmp_path / name
    code, out, _ = run_cli(capsys, "pipeline", "--n", 2, CORPUS / f"{name}.cp", "--out-dir", out_dir)
    assert code == EXIT_OK
    report = json.loads((out_dir / "report.json").read_text())
    assert [s["normalized"] for s in report["stages"]] == ["yes"] * 4
    assert [s["detail"].get("method") for s in report["stages"]] == [None, "replay", "replay", "replay"]


def test_cover_internal_failure_is_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("backward witness replay does not cover the target")

    monkeypatch.setattr(tdpn, "coverable", broken)
    code, _, err = run_cli(capsys, "cover", TINY)
    assert code == EXIT_INTERNAL
    assert "snl: internal error: RuntimeError: backward witness replay" in err


def test_pipeline_unparsable_input(capsys, tmp_path):
    bad = tmp_path / "bad.cp"
    bad.write_text("width 1;\n")
    code, _, err = run_cli(capsys, "pipeline", "--n", 1, bad, "--out-dir", tmp_path / "p")
    assert code == EXIT_INPUT
    assert "bad.cp" in err


# ---------------------------------------------------------------------------
# cross_check unit behavior


def stage(name, normalized):
    return StageResult(name, "", normalized, normalized, {})


def test_cross_check_all_pairs():
    checks = cross_check([stage("a", "yes"), stage("b", "yes"), stage("c", "yes")])
    assert len(checks) == 3
    assert all(c["result"] == "agree" for c in checks)


def test_cross_check_flags_disagreement():
    checks = cross_check([stage("a", "yes"), stage("b", "no")])
    assert checks == [{"stages": ["a", "b"], "result": "disagree"}]


def test_cross_check_unknown_never_disagrees():
    checks = cross_check([stage("a", "yes"), stage("b", "unknown"), stage("c", "no")])
    by_pair = {tuple(c["stages"]): c["result"] for c in checks}
    assert by_pair[("a", "b")] == "unknown"
    assert by_pair[("b", "c")] == "unknown"
    assert by_pair[("a", "c")] == "disagree"


def test_cross_check_single_stage_is_empty():
    assert cross_check([stage("a", "yes")]) == []


# ---------------------------------------------------------------------------
# one verdict table: golden summary lines, report digests, completeness


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """halt, abort_dec and count4 compiled at n=1, plus abort_dec's net."""
    out = tmp_path_factory.mktemp("compiled")
    for name in ("halt", "abort_dec", "count4"):
        code = cli.main(["compile-rnp", str(CORPUS / f"{name}.cp"), "--n", "1",
                         "-o", str(out / f"{name}.rnp")])
        assert code == EXIT_OK
    assert cli.main(["compile-tdpn", str(out / "abort_dec.rnp")]) == EXIT_OK
    return out


@pytest.mark.parametrize("argv, code, line", [
    (("count4.cp", "--n", 1), EXIT_OK, "Halts steps=4 peak=4 bound=4"),
    (("abort_dec.cp", "--n", 1), EXIT_OK, "Aborts label=l1 steps=0 bound=4"),
    (("exceed_loop.cp", "--bound", 4), EXIT_OK, "BoundExceeded var=x steps=8 bound=4"),
    (("infinite_loop.cp", "--bound", 4, "--fuel", 1000), EXIT_UNKNOWN,
     "FuelExhausted steps=1000 bound=4"),
    # count4 halts after 4 steps, so a fuel of 4 is enough and 3 is not
    (("count4.cp", "--n", 1, "--fuel", 3), EXIT_UNKNOWN, "FuelExhausted steps=3 bound=4"),
    (("count4.cp", "--n", 1, "--fuel", 4), EXIT_OK, "Halts steps=4 peak=4 bound=4"),
])
def test_run_counter_summary_lines(capsys, argv, code, line):
    got, out, _ = run_cli(capsys, "run-counter", CORPUS / argv[0], *argv[1:])
    assert (got, out) == (code, line + "\n")


CHOICES = "0,1,1,0,0,0,1,1,0,1,1,0,0,0,0,1,1,1,1,0,0,1,1,0,0,0,1,1,0,1,1,0"


@pytest.mark.parametrize("argv, code, line", [
    (("halt.rnp",), EXIT_OK, f"Halts configs_explored=1635 witness_choices=32 choices={CHOICES}"),
    (("abort_dec.rnp",), EXIT_OK, "NoHalt configs_explored=1639"),
    (("count4.rnp", "--max-value", 1), EXIT_UNKNOWN, "Unknown reason=max_value configs_explored=4"),
])
def test_run_rnp_summary_lines(capsys, compiled, argv, code, line):
    got, out, _ = run_cli(capsys, "run-rnp", compiled / argv[0], *argv[1:])
    assert (got, out) == (code, line + "\n")


@pytest.mark.parametrize("argv, code, out", [
    (("--mode", "both", TINY), EXIT_OK,
     "backward: Coverable witness_steps=1\n  move 0 -> 1\n"
     "symbolic: Coverable witness_steps=1\n  move 0 -> 1\n"),
    (("--mode", "symbolic", "abort_dec.tdpn"), EXIT_OK, "symbolic: NotCoverable (exhaustive)\n"),
    (("--mode", "symbolic", "--max-tokens", 3, "abort_dec.tdpn"), EXIT_UNKNOWN,
     "symbolic: Unknown reason=max_tokens\n"),
    (("--mode", "symbolic", "--max-markings", 5, "abort_dec.tdpn"), EXIT_UNKNOWN,
     "symbolic: Unknown reason=max_markings\n"),
])
def test_cover_summary_lines(capsys, compiled, argv, code, out):
    argv = [compiled / a if a == "abort_dec.tdpn" else a for a in argv]
    assert run_cli(capsys, "cover", *argv)[:2] == (code, out)


@pytest.mark.parametrize("argv, code, line", [
    (("--K", 1), EXIT_OK, "Reachable configs_explored=44 events=14"),
    (("--K", 0), EXIT_OK, "NotReachable (exhaustive) configs_explored=35"),
    (("--K", 1, "--max-configs", 3), EXIT_UNKNOWN, "Unknown reason=max_configs configs_explored=3"),
])
def test_explore_dcps_summary_lines(capsys, tiny_dcps, argv, code, line):
    got, out, _ = run_cli(capsys, "explore-dcps", tiny_dcps, "--target", "g_halt", *argv)
    assert (got, out.splitlines()[0]) == (code, line)


@pytest.mark.parametrize("argv, digest", [
    (("halt.cp",), "2d571a36a26f03bd2712b76202432e3b251fb3e47ec3ebed7b4b90d40f75e2bd"),
    (("abort_dec.cp", "--dcps-max-configs", 20000),
     "b6df0cf2705c26cc9cd9bed36dc606a45c3b86694a878dac398b1b26a0965b2d"),
])
def test_pipeline_report_digest(capsys, tmp_path, argv, digest):
    run_cli(capsys, "pipeline", "--n", 1, CORPUS / argv[0], *argv[1:], "--out-dir", tmp_path)
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


MOVE = ("move", ("0", "1"))


@pytest.mark.parametrize("stage_name, verdict, row", [
    ("counter", counter.Halts(peak=4, steps=4),
     ("Halts steps=4 peak=4", "yes", {"steps": 4, "peak": 4})),
    ("counter", counter.Aborts(steps=0, label="l1"), ("Aborts label=l1", "no", {"steps": 0})),
    ("counter", counter.BoundExceeded(steps=8, var="x"),
     ("BoundExceeded var=x", "no", {"steps": 8})),
    ("counter", counter.FuelExhausted(steps=1000), ("FuelExhausted", "unknown", {"steps": 1000})),
    ("rnp", rnp.RnpHalts((0, 1, 1), None, 1635),
     ("Halts", "yes", {"configs_explored": 1635, "witness_choices": 3})),
    ("rnp", rnp.RnpNo(1639), ("NoHalt", "no", {"configs_explored": 1639})),
    ("rnp", rnp.RnpUnknown("max_value", 4),
     ("Unknown reason=max_value", "unknown", {"configs_explored": 4})),
    ("tdpn", tdpn.TdpnCoverable((MOVE, MOVE), "symbolic"), ("Coverable", "yes", {"witness_steps": 2})),
    ("tdpn", tdpn.TdpnNotCoverable("symbolic"), ("NotCoverable (exhaustive)", "no", {})),
    ("tdpn", tdpn.TdpnUnknown("symbolic", "max_tokens"),
     ("Unknown reason=max_tokens", "unknown", {"reason": "max_tokens"})),
    ("tdpn", tdpn.TdpnUnknown("symbolic", "max_markings"),
     ("Unknown reason=max_markings", "unknown", {"reason": "max_markings"})),
    ("dcps", dcps.DcpsReachable((), 1241),
     ("Reachable", "yes", {"method": "search", "configs_explored": 1241})),
    ("dcps", dcps.DcpsNo(176),
     ("NotReachable (exhaustive)", "no", {"method": "search", "configs_explored": 176})),
    ("dcps", dcps.DcpsUnknown("max_configs,max_threads", 3),
     ("Unknown reason=max_configs,max_threads", "unknown", {"method": "search", "configs_explored": 3})),
])
def test_every_verdict_class_has_its_report_row(monkeypatch, stage_name, verdict, row):
    # the rows the pipeline wrote for each class before the table was shared
    if stage_name == "rnp":
        monkeypatch.setattr(rnp, "explore_halting", lambda *args, **kwargs: verdict)
        got = cli._pipeline_rnp(None, 0)
    elif stage_name == "dcps":
        monkeypatch.setattr(dcps, "reach_state", lambda *args, **kwargs: verdict)
        net = tdpn.parse_tdpn(CORPUS.joinpath("tiny.tdpn").read_text())
        got = cli._pipeline_dcps(tdpn2dcps.compile_tdpn_to_killdcps(net), (), {})
    else:
        got = cli._stage(stage_name, verdict)
    assert (got.stage, got.verdict, got.normalized, got.detail) == (stage_name, *row)


# ---------------------------------------------------------------------------
# the input boundary: bad input is exit 2, a failure after loading is exit 5


def test_explore_dcps_failed_replay_is_internal_error(capsys, tiny_dcps, monkeypatch):
    run = dcps._run
    # the pool starts empty, so the leading kill cannot apply: the fault is the program's
    monkeypatch.setattr(
        dcps, "_run",
        lambda system, config, events, budget, semantics:
            run(system, config, (("kill", 0, 0), *events), budget, semantics),
    )
    code, _, err = run_cli(capsys, "explore-dcps", tiny_dcps, "--target", "g_halt", "--K", 1)
    assert code == EXIT_INTERNAL
    assert "snl: internal error:" in err


def test_undecodable_names_sidecar_is_input_error(capsys, tiny_dcps, tmp_path):
    # the sidecar is read with the system, before the search: it printed the
    # verdict and then exited 5 with a UnicodeDecodeError
    system = tmp_path / "tiny.dcps"
    system.write_bytes(tiny_dcps.read_bytes())
    sidecar = system.with_suffix(".names")
    sidecar.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "explore-dcps", system, "--target", "g_halt", "--K", 1)
    assert code == EXIT_INPUT
    assert out == ""
    assert str(sidecar) in err


def test_run_counter_validates_jump_targets(capsys, tmp_path):
    bad = tmp_path / "nowhere.cp"
    bad.write_text("l0: goto nowhere;\n")
    code, _, err = run_cli(capsys, "run-counter", bad, "--n", 1)
    assert code == EXIT_INPUT
    assert str(bad) in err


def test_unwritable_output_is_input_error(capsys, tmp_path):
    regular = tmp_path / "regular"
    regular.write_text("")
    out = regular / "x.rnp"
    code, _, err = run_cli(capsys, "compile-rnp", CORPUS / "halt.cp", "--n", 1, "-o", out)
    assert code == EXIT_INPUT
    assert str(out) in err


def test_negative_switch_budget_is_input_error(capsys, tiny_dcps):
    code, out, err = run_cli(capsys, "explore-dcps", tiny_dcps, "--target", "g_halt", "--K", -1)
    assert code == EXIT_INPUT
    assert out == ""
    assert "K must be at least 0" in err


def test_undeclared_dcps_target_is_input_error(capsys, tiny_dcps):
    # a search for a state the system lacks would exhaust and certify a hollow "no"
    code, out, err = run_cli(capsys, "explore-dcps", tiny_dcps, "--target", "g_hlat", "--K", 1)
    assert code == EXIT_INPUT
    assert out == ""
    assert "target state 'g_hlat' not declared" in err
    assert str(tiny_dcps) in err


@pytest.mark.parametrize("n", [0, -1])
def test_run_counter_n_below_one_is_input_error(capsys, n):
    code, out, err = run_cli(capsys, "run-counter", CORPUS / "count4.cp", "--n", n)
    assert code == EXIT_INPUT
    assert out == ""
    assert "n must be at least 1" in err


HALT = CORPUS / "halt.cp"


@pytest.mark.parametrize("flags", [
    ("--n", 14),  # 2^(2^14) has 4933 digits
    ("--n", 4, "--depth-mode", "triple"),
])
def test_bound_too_large_to_print_is_input_error(capsys, flags):
    code, out, err = run_cli(capsys, "run-counter", HALT, *flags)
    assert (code, out) == (EXIT_INPUT, "")
    assert "has more than 4300 digits" in err


def test_pipeline_refuses_a_bound_too_large_to_print_before_any_stage(capsys, tmp_path):
    code, out, err = run_cli(capsys, "pipeline", HALT, "--n", 14, "--out-dir", tmp_path / "out")
    assert (code, out) == (EXIT_INPUT, "")
    assert "has more than 4300 digits" in err
    assert not (tmp_path / "out").exists()


def test_largest_printable_bound_still_runs(capsys):
    code, out, _ = run_cli(capsys, "run-counter", HALT, "--n", 13)
    assert code == EXIT_OK
    assert out == f"Halts steps=0 peak=0 bound={2 ** 2 ** 13}\n"


# a negative cap or limit would turn into a hollow Unknown (`--fuel -1` made
# even halt.cp report FuelExhausted steps=-1), so every such flag refuses it
@pytest.mark.parametrize("argv, flag", [
    (("run-counter", HALT, "--n", 1), "--fuel"),
    (("pipeline", HALT, "--n", 1), "--fuel"),
    (("run-rnp", HALT), "--max-configs"),
    (("run-rnp", HALT), "--max-value"),
    (("pipeline", HALT, "--n", 1), "--max-configs"),
    (("pipeline", HALT, "--n", 1), "--dcps-max-configs"),
    (("cover", TINY, "--mode", "symbolic"), "--max-tokens"),
    (("cover", TINY, "--mode", "symbolic"), "--max-markings"),
    (("pipeline", HALT, "--n", 1), "--max-tokens"),
    (("pipeline", HALT, "--n", 1), "--max-markings"),
    (("expand-tdpn", TINY), "--place-limit"),
    (("cover", TINY), "--place-limit"),
    (("explore-dcps", TINY, "--target", "g_halt", "--K", 1), "--max-configs"),
    (("explore-dcps", TINY, "--target", "g_halt", "--K", 1), "--max-threads"),
    (("explore-dcps", TINY, "--target", "g_halt", "--K", 1), "--max-stack"),
    # a negative `--bound` is refused, not run as a bound below zero
    (("run-counter", HALT), "--bound"),
])
def test_negative_cap_is_input_error(capsys, argv, flag):
    # argparse refuses the flag before any work, so main() does not return
    with pytest.raises(SystemExit) as refused:
        cli.main([str(a) for a in (*argv, flag, -1)])
    captured = capsys.readouterr()
    assert refused.value.code == EXIT_INPUT
    assert captured.out == ""
    assert f"argument {flag}: must be at least 0, got -1" in captured.err


def test_zero_cap_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "cover", TINY, "--mode", "symbolic", "--max-markings", 0)
    assert code == EXIT_UNKNOWN
    assert "reason=max_markings" in out
