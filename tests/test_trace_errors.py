"""The trace reader's error texts and line numbers, pinned.

Every expected text here is written out by hand, not derived from the event
table in ``loopsim.trace``: a change to how the reader is built must leave
each one as it is. Each bad event is on line 5 of its trace, after a blank
line, the header, a blank line and one good event.
"""

import json

import pytest

from loopsim.errors import ParseError
from loopsim.trace import parse_trace

HEADER = '{"extra_events":[],"format":"loopsim-trace/1","initial":[],"scenario_hash":"x"}'
GOOD = '{"bound":0,"kind":"tick-end","pending":0,"pods":0,"seq":0,"terminated":0,"tick":0}'

KINDS = [
    "traffic", "taint-applied", "taint-removed", "slice-requested", "exchange-granted",
    "knowledge-absorbed", "exchange-denied", "agent-released", "prediction",
    "intent-submitted", "coherency", "lifecycle", "conflict-detected", "conflict-resolved",
    "intent-dropped", "intent-requeued", "intent-buffered", "intent-applied", "pod-created",
    "pod-terminated", "power-off", "power-on", "pod-evicted", "pod-bound", "pod-pending",
    "tick-end",
]

# Per shape, the keys audit reads besides seq, tick and kind, in the order the
# reader checks them: a well-typed value, a mistyped one, and what the reader
# says of the mistyped one. A shape is its kind, or its kind and a variant;
# pod-bound's optional ``preempted`` has a test of its own.
READ_KEYS = {
    "exchange-denied": [("reason", "untrusted", 7, "must be str")],
    "agent-released": [("acl", "burst", None, "must be str")],
    "prediction": [("acl", "a", 7, "must be str"), ("value", 1.5, "1.0", "must be int or float"),
                   ("truth", 2, None, "must be int or float")],
    "coherency": [("verdict", "ok", 7, "must be str")],
    "lifecycle": [("acl", "a", None, "must be str"), ("after", "Active", 7, "must be str")],
    "conflict-detected": [("conflict", "resource-contention", None, "must be str")],
    "conflict-resolved/arbitrated": [
        ("conflict", "c", 7, "must be str"), ("instance", "i", None, "must be str"),
        ("outcome", "arbitrated", 7, "must be str"), ("winner", "a", None, "must be str")],
    "conflict-resolved/frozen": [
        ("conflict", "c", None, "must be str"), ("instance", "i", 7, "must be str"),
        ("outcome", "frozen", None, "must be str"), ("frozen", "a", 7, "must be str"),
        ("until", 9, 2.5, "must be int")],
    "intent-dropped": [("reason", "lost", 7, "must be str")],
    "pod-created": [("pod", "p", 7, "must be str"), ("cpu", 100, True, "must be int"),
                    ("memory", 200, 1.5, "must be int"), ("priority", 5, "5", "must be int")],
    "pod-terminated": [("pod", "p", None, "must be str")],
    "pod-evicted": [("pod", "p", None, "must be str"), ("cause", "no-execute", 7, "must be str")],
    "pod-bound": [("pod", "p", 7, "must be str"), ("node", "n", None, "must be str")],
    "pod-pending": [("pod", "p", 7, "must be str")],
    "tick-end": [("bound", 1, None, "must be int"), ("pending", 0, 1.0, "must be int"),
                 ("terminated", 0, True, "must be int"), ("pods", 1, "1", "must be int")],
}


def read(*event_lines: str):
    """The ``ParseError`` that reading a trace with *event_lines* after ``GOOD`` gives."""
    with pytest.raises(ParseError) as err:
        parse_trace("\n".join(["", HEADER, "", GOOD, *event_lines])).events
    return str(err.value), err.value.line


def line(event) -> str:
    return json.dumps(event)


def key_cases():
    """Per shape, each key audit reads, missing and then mistyped, with every
    later key of the shape left out: the error names it, so the reader checks
    the keys in the order given. seq and tick come first in every kind."""
    for kind in KINDS:
        yield kind, {"kind": kind}, "seq", True, "must be int"
        yield kind, {"seq": 3, "kind": kind}, "tick", "1", "must be int"
    for shape, keys in READ_KEYS.items():
        kind = shape.split("/")[0]
        event = {"seq": 3, "tick": 1, "kind": kind}
        for key, good, bad, problem in keys:
            yield shape, dict(event), key, bad, problem
            event[key] = good


CASES = list(key_cases())


class TestPinnedErrors:
    @pytest.mark.parametrize("shape, before, key, bad, problem", CASES,
                             ids=[f"{shape}-{key}" for shape, _, key, _, _ in CASES])
    def test_a_key_audit_reads_missing_then_mistyped(self, shape, before, key, bad, problem):
        kind = before["kind"]
        assert read(line(before)) == (f"bad {kind} event: {key!r} is missing (line 5)", 5)
        assert read(line({**before, key: bad})) == \
            (f"bad {kind} event: {key!r} {problem} (line 5)", 5)

    def test_every_shape_with_its_keys_reads(self):
        for shape, keys in READ_KEYS.items():
            event = {"seq": 3, "tick": 1, "kind": shape.split("/")[0],
                     **{key: good for key, good, _, _ in keys}}
            assert parse_trace("\n".join([HEADER, GOOD, line(event)])).events[1] == event

    @pytest.mark.parametrize("event, expected", [
        ({"seq": 3, "tick": 1}, "bad trace event: 'kind' is missing (line 5)"),
        ({"seq": 3, "tick": 1, "kind": 5}, "bad trace event: 'kind' must be str (line 5)"),
        ({"seq": 3, "tick": 1, "kind": ["pod-bound"]},
         "bad trace event: 'kind' must be str (line 5)"),
        ({"kind": 5}, "bad trace event: 'seq' is missing (line 5)"),
        ({"seq": 3, "tick": 1, "kind": "no-such-kind", "pod": 7},
         None),  # an unknown kind passes: check_invariants reports it
        ({"seq": 3, "kind": "no-such-kind"}, "bad no-such-kind event: 'tick' is missing (line 5)"),
    ], ids=["no-kind", "int-kind", "list-kind", "no-kind-no-seq", "unknown-kind",
            "unknown-kind-no-tick"])
    def test_the_kind(self, event, expected):
        if expected is None:
            assert parse_trace("\n".join([HEADER, line(event)])).events == [event]
        else:
            assert read(line(event)) == (expected, 5)

    @pytest.mark.parametrize("outcome, present, expected", [
        ("arbitrated", {"frozen": "a", "until": 9}, "'winner' is missing"),
        ("arbitrated", {"winner": 7, "frozen": "a", "until": 9}, "'winner' must be str"),
        ("frozen", {"winner": "a"}, "'frozen' is missing"),
        ("deferred", {"winner": "a", "losers": ["b"]}, "'frozen' is missing"),
        ("deferred", {"frozen": "a"}, "'until' is missing"),
        ("Arbitrated", {"winner": "a"}, "'frozen' is missing"),
        (None, {"winner": "a"}, "'outcome' must be str"),
    ], ids=["arbitrated-frozen-keys", "arbitrated-int-winner", "frozen-winner-keys",
            "other-outcome", "other-outcome-no-until", "case-matters", "null-outcome"])
    def test_conflict_resolved_is_read_by_its_outcome(self, outcome, present, expected):
        event = {"seq": 3, "tick": 1, "kind": "conflict-resolved", "conflict": "c",
                 "instance": "i", "outcome": outcome, **present}
        assert read(line(event)) == (f"bad conflict-resolved event: {expected} (line 5)", 5)

    @pytest.mark.parametrize("preempted", ["v", None, {"v": 1}, [1], ["v", None], [["v"]]],
                             ids=["str", "null", "object", "int-item", "null-item",
                                  "list-item"])
    def test_preempted_is_a_list_of_str(self, preempted):
        event = {"seq": 3, "tick": 1, "kind": "pod-bound", "pod": "p", "node": "n"}
        good = [event, {**event, "preempted": []}, {**event, "preempted": ["v", "w"]}]
        assert parse_trace("\n".join([HEADER, *map(line, good)])).events == good
        assert read(line({**event, "preempted": preempted})) == \
            ("bad pod-bound event: 'preempted' must be a list of str (line 5)", 5)
        # the keys before it are checked first
        assert read(line({**event, "node": 7, "preempted": preempted})) == \
            ("bad pod-bound event: 'node' must be str (line 5)", 5)

    @pytest.mark.parametrize("text", ["[1]", "7", '"pod-bound"', "null", "[]"])
    def test_an_event_that_is_no_object(self, text):
        assert read(text) == ("bad trace event: not a JSON object (line 5)", 5)

    def test_the_first_bad_line_is_named(self):
        assert read("{}", "[1]") == ("bad trace event: 'seq' is missing (line 5)", 5)

    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n\r"])
    def test_an_empty_trace(self, text):
        with pytest.raises(ParseError) as err:
            parse_trace(text)
        assert (str(err.value), err.value.line) == ("empty trace", None)

    @pytest.mark.parametrize("header, expected", [
        ("[]", "not a loopsim-trace/1 trace (line 2)"),
        ('{"format":"loopsim-trace/2"}', "not a loopsim-trace/1 trace (line 2)"),
        ('{"format":"loopsim-trace/1"}', "bad trace header: 'scenario_hash' is missing (line 2)"),
        ('{"format":"loopsim-trace/1","scenario_hash":1}',
         "bad trace header: 'scenario_hash' must be str (line 2)"),
        ('{"format":"loopsim-trace/1","scenario_hash":"x","initial":{}}',
         "bad trace header: 'initial' must be list (line 2)"),
        ('{"format":"loopsim-trace/1","scenario_hash":"x","initial":[]}',
         "bad trace header: 'extra_events' is missing (line 2)"),
        ('{"format":"loopsim-trace/1","scenario_hash":"x","initial":[],"extra_events":"a"}',
         "bad trace header: 'extra_events' must be list (line 2)"),
        ('{"format":"loopsim-trace/1","scenario_hash":"x","initial":[1],"extra_events":[]}',
         "bad initial placement: not a JSON object (line 2)"),
        ('{"format":"loopsim-trace/1","scenario_hash":"x","initial":[{"pod":"p","node":1}],'
         '"extra_events":[]}', "bad initial placement: 'node' must be str (line 2)"),
    ], ids=["array", "other-format", "no-hash", "int-hash", "object-initial", "no-extra",
            "str-extra", "int-placement", "int-node"])
    def test_the_header(self, header, expected):
        with pytest.raises(ParseError) as err:
            parse_trace("\n" + header + "\n" + GOOD)
        assert (str(err.value), err.value.line) == (expected, 2)
