"""End-to-end checks of the command-line front end.

Each test drives cli.main directly with an argv list, so exit codes,
stdout, and stderr are checked exactly as a shell user sees them.
"""

import json

import pytest

from helpers import CORPUS
from snl import cli, counter, dcps, petri, rnp, tdpn, tdpn2dcps
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


def test_explore_dcps_env_cap(capsys, tiny_dcps, monkeypatch):
    monkeypatch.setenv("SNL_MAX_CONFIGS", "5")
    code, out, _ = run_cli(capsys, "explore-dcps", tiny_dcps, "--target", "g_halt", "--K", 1)
    assert code == EXIT_UNKNOWN
    assert "configs_explored=5" in out


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
        cli, "_pipeline_rnp",
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
    out_dir = tmp_path / "token_pipe"
    code, _, _ = run_cli(
        capsys, "pipeline", "--n", 1, CORPUS / "halt.cp",
        "--max-tokens", 1, "--dcps-max-configs", 100, "--out-dir", out_dir,
    )
    assert code == EXIT_UNKNOWN
    tdpn_stage = json.loads((out_dir / "report.json").read_text())["stages"][2]
    assert tdpn_stage["normalized"] == "unknown"
    assert tdpn_stage["detail"] == {"reason": "max_tokens"}


def test_pipeline_failed_replay_is_internal_error(capsys, tmp_path, monkeypatch):
    # the pool starts empty, so no kill applies; the fault is the program's, not the input's
    monkeypatch.setattr(tdpn2dcps, "synthesize_cover_witness", lambda net, steps: (("kill", 0, 0),))
    code, _, err = run_cli(
        capsys, "pipeline", "--n", 1, CORPUS / "halt.cp", "--out-dir", tmp_path / "p"
    )
    assert code == EXIT_INTERNAL
    assert "snl: internal error:" in err
    assert "does not apply" in err


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
