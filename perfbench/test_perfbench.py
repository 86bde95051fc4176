"""Tests for the benchmark's own logic: self time, the verdict gate, the
oracles-micro generator and the oracle pass time.  Run with `PYTHONPATH=src python3 -m pytest perfbench`."""

import json
from pathlib import Path

import pytest

import oracles
import spans
import verdicts

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _span(id, name, parent, start, end):
    return spans.Span(id, name, "prog", parent, start, end)


def test_self_time_subtracts_children_once():
    tree = [
        _span(0, "cli.pipeline", None, 0.0, 10.0),
        _span(1, "tdpn.search", 0, 1.0, 5.0),
        _span(2, "tdpn.fire", 1, 2.0, 3.0),
        _span(3, "tdpn.fire", 1, 3.5, 4.0),
        _span(4, "dcps.replay", 0, 6.0, 9.0),
    ]
    assert spans.self_times(tree) == pytest.approx({0: 3.0, 1: 2.5, 2: 1.0, 3: 0.5, 4: 3.0})
    by_name = spans.self_time_by_name(tree)
    assert by_name == pytest.approx({"cli.pipeline": 3.0, "tdpn.search": 2.5,
                                     "tdpn.fire": 1.5, "dcps.replay": 3.0})


def test_self_time_counts_overlapping_children_as_their_union():
    tree = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 3.0, 6.0),
        _span(3, "c", 0, 9.0, 12.0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_from_a_recorded_trace():
    clock = iter(float(t) for t in range(100)).__next__
    tracer = spans.Tracer(clock)
    search = tracer.wrap(lambda: "v", "rnp.search", lambda v: {"rnp.configs": 6})
    root = tracer.begin(spans.CLI_SPAN)
    search()
    search()
    tracer.end(root)
    merged = spans.merge([tracer.dump(), tracer.dump()])
    assert [s.parent for s in merged] == [None, 0, 0, None, 3, 3]
    metrics = spans.layer_metrics(merged)
    assert metrics["rnp.configs"] == 24
    assert metrics["rnp.search_s"] == pytest.approx(4.0)
    assert metrics["rnp.configs_per_s"] == pytest.approx(6.0)
    assert metrics["cli.pipeline_s"] == pytest.approx(10.0)
    assert metrics["cli.self_s"] == pytest.approx(6.0)


def _report(normalized):
    return {"stages": [{"stage": s, "normalized": v} for s, v in zip(verdicts.STAGES, normalized)]}


def test_gate_passes_expected_and_unknown_verdicts():
    assert verdicts.gate_report(_report(["yes"] * 4), "halt", 1) == (4, [])
    assert verdicts.gate_report(_report(["unknown", "no", "no", "unknown"]), "infinite_loop", 1) == (2, [])


def test_gate_flags_a_flipped_verdict():
    certified, problems = verdicts.gate_report(_report(["yes", "yes", "no", "yes"]), "halt", 1)
    assert certified == 4
    assert problems == ["halt: tdpn says 'no', expected 'yes'"]
    _, problems = verdicts.gate_report(_report(["no", "no", "no", "unknown"]), "count4", 1)
    assert len(problems) == 3


def test_gate_flags_failing_exit_codes():
    assert verdicts.gate_exit(0, "halt") == verdicts.gate_exit(3, "halt") == []
    assert verdicts.gate_exit(2, "halt") and verdicts.gate_exit(4, "halt")
    assert verdicts.gate_exit(-9, "halt")


def test_expected_table_covers_every_benchmarked_program():
    import run

    for wl in run.WORKLOADS.values():
        if wl is not None:
            for program in wl.programs:
                assert verdicts.expected(program, wl.n) in ("yes", "no")
                assert (run.CORPUS / f"{program}.cp").is_file()


def test_oracle_instances_depend_only_on_the_seed():
    first = oracles.make_instances(7)
    assert first == oracles.make_instances(7)
    other = oracles.make_instances(8)
    assert first != other
    # every seed runs the same instances, in its own order
    for family, pool in first.items():
        assert sorted(map(repr, pool)) == sorted(map(repr, other[family]))
    assert {f: len(v) for f, v in first.items()} == oracles.POOL_SIZES


def test_control_places_counts_the_program_alone():
    from snl.rnp import Call, Halt, Inc, Proc, Return, Rnp

    body = (Inc("pu0", "x"), Return("pu1"))
    program = Rnp(2, (Call("m0", "p"), Halt("m1")), (Proc("p", body, (Return("pv0"),)),))
    # labels m0 m1 pu1 and p's shared entry, p's return, one call site, x, halt
    assert oracles.control_places(program) == 8


def test_oracle_wall_time_is_the_median_pass_at_nominal_speed():
    import run

    passes = [
        run.OraclePass(5.0, 20.0, {"comparison_s": [5.0]}, [], slowdown=1.25),
        run.OraclePass(6.0, 20.0, {"comparison_s": [6.0]}, [], slowdown=2.0),
        run.OraclePass(2.0, 20.0, {"comparison_s": [2.0]}, [], slowdown=1.0),
        run.OraclePass(9.0, 20.0, {}, ["oracle pass exit 1"]),  # a failed pass has no time
    ]
    assert run.oracle_wall_s(passes) == pytest.approx(3.0)


def test_slowdown_is_the_mean_reference_block_near_a_child():
    import run

    speed = run.Speed()
    nominal = run.REFERENCE_NOMINAL_S
    speed.blocks = [b * nominal for b in (1.0, 2.0, 3.0, 6.0, 1.0, 1.0, 1.0, 9.0)]
    assert run.SPEED_WINDOW == 2
    # child 3 runs between blocks 3 and 4; the window is blocks 1 to 6
    assert speed.slowdown(3) == pytest.approx(14.0 / 6)
    assert speed.slowdown(0) == pytest.approx(12.0 / 4)  # blocks 0 to 3
    assert speed.slowdown(6) == pytest.approx(12.0 / 4)  # blocks 4 to 7


def test_benchmark_spec_lists_the_defined_workloads():
    spec = json.loads(BENCHMARK.read_text())
    import run

    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
