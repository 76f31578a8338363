"""Checks each call's exit code and structured output against its reference."""

from __future__ import annotations

import json

from corpus import MAX_BOUND, digest


def _pairs(trace_length: int) -> int:
    return trace_length * (trace_length - 1) // 2


def _pipeline(call: dict, doc: dict) -> list[str]:
    problems = []
    for key in ("result", "oracle"):
        if doc[key] != call["result"]:
            problems.append(f"{key} {doc[key]} != reference {call['result']}")
    if doc["steps"] != call["steps"]:
        problems.append(f"steps {doc['steps']} != {call['steps']}")
    for key in ("result_matches", "invariant_ok", "bound_holds", "ok"):
        if doc[key] is not True:
            problems.append(f"{key} is {doc[key]}")
    if not isinstance(doc["step_bound"], int) or doc["step_bound"] < doc["steps"]:
        problems.append(f"step bound {doc['step_bound']} below {doc['steps']} steps")
    return problems


def _check(call: dict, doc: dict) -> list[str]:
    problems = []
    # A budget-truncated trace is no verdict, whatever the exit code says.
    if doc["reached_final"] is not True:
        problems.append("trace did not reach a final state")
    if doc["trace_length"] != call["steps"] + 1:
        problems.append(f"trace length {doc['trace_length']} != {call['steps'] + 1}")
    if doc["pairs_checked"] != _pairs(doc["trace_length"]):
        problems.append(f"pairs checked {doc['pairs_checked']} is not every pair")
    variant = call["variant"]
    if variant == "emitted":
        failures = doc["uncovered_total"] + doc["rank_violation_total"]
        if doc["ok"] is not True or failures:
            problems.append(f"emitted invariant reported {failures} failures")
    elif variant == "dropped" and not doc["uncovered_total"] > 0:
        problems.append("dropped relation left no pair uncovered")
    elif variant == "corrupted" and not doc["rank_violation_total"] > 0:
        problems.append("corrupted rank caused no rank violation")
    return problems


def _bound(call: dict, doc: dict) -> list[str]:
    problems = []
    witness, bound = doc["witness"], doc["bound"]
    if doc["n"] != call["n"]:
        problems.append(f"n {doc['n']} != {call['n']}")
    if witness != call["witness"]:
        problems.append(f"witness {witness} != reference {call['witness']}")
    if not call["n"] <= witness <= bound < MAX_BOUND:
        problems.append(f"not n <= witness <= bound < max: {call['n']}, {witness}, {bound}")
    if doc["value_at_witness"] != call["at"] or doc["value_after_witness"] != call["after"]:
        problems.append("values at the witness differ from the sigma file")
    return problems


CHECKERS = {"pipeline": _pipeline, "check": _check, "bound": _bound}


def check_call(call: dict, rc, out: str) -> list[str]:
    """Problems with one call's outcome; an empty list means it is correct."""
    expected = call.get("exit", 0)
    if rc != expected:
        return [f"exit code {rc} != {expected}"]
    try:
        doc = json.loads(out)
        problems = CHECKERS[call["kind"]](call, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
    if "digest" in call and digest(out) != call["digest"]:
        problems.append("structured output differs from the recorded digest")
    return problems


def sizes(call: dict, out: str) -> dict:
    """Output-size fields of one call, so timing and input changes separate."""
    try:
        doc = json.loads(out)
    except ValueError:
        return {}
    if call["kind"] == "pipeline":
        bound = doc.get("step_bound")
        return {
            "steps": doc.get("steps"),
            "pairs": _pairs(doc.get("trace_length", 0)),
            "k": call["k"],
            "bound_digits": len(str(bound)) if bound is not None else None,
        }
    if call["kind"] == "check":
        return {
            "steps": doc.get("trace_length", 1) - 1,
            "pairs": doc.get("pairs_checked"),
            "k": call["k"],
        }
    return {
        "k": call["k"],
        "sigma_rows": call["rows"],
        "bound_digits": len(str(doc.get("bound"))),
    }
