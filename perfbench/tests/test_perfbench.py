"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``."""

import json

import pytest

import checks
import corpus
import run
from tracer import Tracer


def _snapshot(workdir):
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize(
    "workload, tiny", [("pipeline", False), ("check", False), ("bound", True)]
)
def test_corpus_is_deterministic_for_a_seed(tmp_path, workload, tiny):
    first = corpus.build(tmp_path / "a", workload, 7, run.SRC, tiny=tiny)
    again = corpus.build(tmp_path / "b", workload, 7, run.SRC, tiny=tiny)
    other = corpus.build(tmp_path / "c", workload, 8, run.SRC, tiny=tiny)
    assert first == again
    assert _snapshot(tmp_path / "a") == _snapshot(tmp_path / "b")
    assert first != other


def test_every_draw_of_a_slot_has_the_slot_trace_length(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from termbound.prcompile import compile_term, parse_term
    from termbound.termlang import initial_state, run_trace

    slots = corpus.PIPELINE + corpus.PIPELINE_TINY + corpus.CHECK + corpus.CHECK_TINY
    for term, steps, choices, *_ in slots:
        unit = compile_term(parse_term(corpus.TERMS[term]))
        for y, x in choices:
            for x in (0, 1, corpus.FREE_X) if x is None else (x,):
                s0 = initial_state(unit.program, dict(zip(unit.input_vars, (y, x))))
                assert run_trace(unit.program, s0).steps == steps, (term, y, x)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_pass_has_no_failures(workload, trace):
    record = run.measure(workload, 5, 0, trace, tiny=True)
    assert record["attempted"] >= 1
    assert record["failed"] == 0, record["problems"]
    assert record["correct"]
    metrics = record["end_to_end"]
    assert metrics["ok_ratio"] == 1.0
    assert all(metrics[name] > 0 for name in ("setup_s", "wall_s", "peak_rss_mb"))
    if trace:
        assert record["unequal_counters"] == []
        assert record["per_layer"]["cli.main.calls"] == len(record["calls"])
        assert record["per_layer"]["trace_overhead"] > 0


@pytest.mark.parametrize(
    "workload, attr, wrong",
    [
        ("pipeline", "reference_value", lambda term, y, x: y + x + 1),
        ("check", "EXIT_CODES", {"emitted": 1, "dropped": 0, "corrupted": 0}),
        ("bound", "first_nondescent", lambda rows, n: n),
    ],
)
def test_wrong_reference_raises_failed_ratio(monkeypatch, workload, attr, wrong):
    monkeypatch.setattr(corpus, attr, wrong)
    record = run.measure(workload, 5, 0, 0, tiny=True)
    assert record["failed"] > 0
    assert record["end_to_end"]["ok_ratio"] < 1.0
    assert not record["correct"]


def test_budget_truncated_check_fails_whatever_its_exit_code():
    call = {"kind": "check", "variant": "emitted", "steps": 3, "exit": 0}
    doc = {
        "reached_final": False,
        "trace_length": 4,
        "pairs_checked": 6,
        "ok": True,
        "uncovered_total": 0,
        "rank_violation_total": 0,
    }
    assert checks.check_call(call, 0, json.dumps(doc)) == [
        "trace did not reach a final state"
    ]


def test_digest_mismatch_fails():
    call = {"kind": "bound", "n": 0, "witness": 1, "at": [1], "after": [1],
            "digest": corpus.digest("other")}
    doc = {"n": 0, "witness": 1, "bound": 5, "value_at_witness": [1],
           "value_after_witness": [1]}
    assert checks.check_call(call, 0, json.dumps(doc)) == [
        "structured output differs from the recorded digest"
    ]


def test_summary_self_time_and_recursion():
    tracer = Tracer()
    # outer f [0, 10] > inner f [1, 4] > g [2, 3]; then g [5, 6] under outer f
    tracer.spans = [
        ["f", 0.0, 10.0, None, 0],
        ["f", 1.0, 4.0, 0, 0],
        ["g", 2.0, 3.0, 1, 0],
        ["g", 5.0, 6.0, 0, 0],
    ]
    totals = tracer.summary()
    assert totals["f.calls"] == 2 and totals["g.calls"] == 2
    assert totals["f.s"] == 10.0  # the nested f is not counted twice
    assert totals["f.self_s"] == (10 - 3 - 1) + (3 - 1)
    assert totals["g.s"] == totals["g.self_s"] == 2.0
