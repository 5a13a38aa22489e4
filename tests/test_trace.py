"""The trace codec against the json module, and verify's line-by-line compare."""

import ast
import contextlib
import dataclasses
import gc
import importlib.util
import io
import json
import math
import random
import re
import sys
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loopsim import audit, cli, sim as sim_mod, trace as trace_mod
from loopsim.errors import HashMismatch, ParseError, ValidationError
from loopsim.scenario import from_dict, list_scenarios, load_scenario, loads
from loopsim.sim import Report, check_invariants, run, verify_trace
from loopsim.trace import (EVENTS, SHAPES, TRACE_FORMAT, Trace, _check_event, _dump, _load,
                           parse_trace)
from test_acceptance import random_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def reference_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# every code point, lone surrogates included, plus a few picked on purpose
TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", "\ud800", "\udfff", "café", "\U0001f600", "\x00\x1f\"\\/", " "])
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=2 ** 64, max_value=2 ** 400).map(lambda n: -n if n % 2 else n)
           | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")])
           | TEXT)
VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=24)
DOCUMENTS = st.dictionaries(TEXT, VALUES, max_size=6)


class TestDump:
    @settings(max_examples=150, deadline=None)
    @given(DOCUMENTS)
    def test_matches_json_dumps(self, obj):
        assert _dump(obj) == reference_dump(obj)

    @settings(max_examples=50, deadline=None)
    @given(DOCUMENTS)
    def test_without_the_c_accelerator_the_public_encoder_gives_the_same_text(self, obj):
        pure = _pure_trace_module()
        assert "_ENCODE" not in vars(pure)
        assert pure._dump(obj) == reference_dump(obj)

    @pytest.mark.parametrize("copy", ["c", "pure"])
    def test_every_engine_event_is_written_by_its_shapes_writer(self, copy, pinned_runs):
        # with or without the C accelerator; a key at an emit call site that
        # the table of events lacks fails here
        module = COPIES[copy]()
        shapes = set()
        with counted_dumps(module) as handed:
            for scn, trace in pinned_runs:
                for event in trace.events:
                    assert module._line(event) == reference_dump(event), (scn.data["name"], event)
                    shapes.add(shape_of(event))
        assert handed == []
        assert shapes == set(range(len(SHAPES)))  # every shape, and no other


_PURE = []


def _pure_trace_module():
    """A second copy of ``loopsim.trace``, imported as if ``_json`` had no encoder."""
    if not _PURE:
        saved = json.encoder.c_make_encoder
        json.encoder.c_make_encoder = None
        try:
            spec = importlib.util.spec_from_file_location("loopsim._trace_pure", trace_mod.__file__)
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module  # dataclasses look their module up there
            spec.loader.exec_module(module)
        finally:
            json.encoder.c_make_encoder = saved
            sys.modules.pop(spec.name, None)
        _PURE.append(module)
    return _PURE[0]


COPIES = {"c": lambda: trace_mod, "pure": _pure_trace_module}


@contextlib.contextmanager
def counted_dumps(module):
    """The events *module*'s ``_line`` hands to ``_dump`` in the block."""
    handed = []
    dump = module._dump
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_dump", lambda obj: handed.append(obj) or dump(obj))
        yield handed


def written(encode, obj):
    """What *encode* makes of *obj*: its text, or its error's type and text."""
    try:
        return "text", encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def shape_of(event, shapes=SHAPES) -> int | None:
    """The index in *shapes* of *event*'s shape, its kind, its keys and their
    values' types, if it has one."""
    fits = {str: lambda v: type(v) is str, int: lambda v: type(v) is int,
            float: lambda v: type(v) is float and math.isfinite(v),
            list: lambda v: type(v) is list and all(type(x) is str for x in v)}
    for index, (kind, shape) in enumerate(shapes):
        if (set(event) == set(shape) and event["kind"] == kind
                and all(fits[t](event[key]) for key, (t, _) in shape.items())):
            return index
    return None


def slots(shape) -> dict[str, type]:
    """The JSON type of each key of *shape* but kind, the writer's constant text."""
    return {key: t for key, (t, _) in shape.items() if key != "kind"}


GOOD = {str: TEXT, int: st.integers(), float: st.floats(allow_nan=False, allow_infinity=False),
        list: st.lists(TEXT, max_size=3)}
SHAPED = st.sampled_from(SHAPES).flatmap(lambda shape: st.fixed_dictionaries(
    {"kind": st.just(shape[0]), **{key: GOOD[t] for key, t in slots(shape[1]).items()}}))
ESCAPED = ["\ud800", "\udfff", '"', "\\", "{", "}", "{t0}", "%", "%s", "\x00\x1f\x7f", " "]


def slot_of(event, kind_of_slot):
    """The keys of *event*'s slots of one JSON type, the envelope's ints included."""
    shape = next(shape for kind, shape in SHAPES if kind == event["kind"])
    return [key for key, t in slots(shape).items() if t is kind_of_slot]


@st.composite
def bent(draw):
    """An event of a shape, with one value or key that may take it off the shape."""
    event = draw(SHAPED)
    change = draw(st.sampled_from(["none", "bool", "float", "list", "bytes", "escaped",
                                   "missing", "extra", "non-str"]))
    keys = {"bool": slot_of(event, int), "float": slot_of(event, float),
            "list": slot_of(event, list), "escaped": slot_of(event, str)}.get(change, list(event))
    if not keys:
        return event
    key = draw(st.sampled_from(sorted(keys)))
    if change == "bool":
        event[key] = draw(st.booleans())
    elif change == "float":
        event[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 3, 2 ** 70]))
    elif change == "list":
        event[key] = draw(st.sampled_from([("a",), "ab", {"a": "b"}, ["a", 1], ["a", b"b"]]))
    elif change == "bytes":
        event[key] = b"x"
    elif change == "escaped":
        event[key] = draw(st.sampled_from(ESCAPED))
    elif change == "missing":
        del event[key]
    elif change == "extra":
        event["zzz"] = draw(GOOD[int] | TEXT)
    elif change == "non-str":
        event[draw(st.sampled_from([1, None, 2.5]))] = "x"
    return event


class TestWriters:
    """An event's line comes from its shape's writer, byte for byte as ``_dump``
    writes it; any other event goes to ``_dump``."""

    def test_one_writer_per_shape_of_the_table(self):
        assert {kind for kind, _ in SHAPES} == set(EVENTS) and len(EVENTS) == 26
        assert len(SHAPES) == len(trace_mod._WRITERS) == 28
        assert len(set(trace_mod._WRITERS)) == 28
        assert set(trace_mod._FIRST_WRITER.values()) <= set(trace_mod._WRITERS)
        for kind, shape in SHAPES:  # the envelope first, every key of it read
            assert list(shape)[:3] == ["seq", "tick", "kind"], kind
            assert [read for _, read in list(shape.values())[:3]] == [True] * 3, kind

    @settings(max_examples=400, deadline=None)
    @given(event=bent())
    @pytest.mark.parametrize("copy", COPIES)
    def test_an_event_off_its_shape_goes_to_dump(self, copy, event):
        module = COPIES[copy]()
        with counted_dumps(module) as handed:
            assert written(module._line, event) == written(reference_dump, event)
        assert len(handed) == (0 if shape_of(event) is not None else 1)

    @pytest.mark.parametrize("copy", COPIES)
    @pytest.mark.parametrize("event", [
        {"seq": 0, "tick": 0, "kind": "no-such-kind"}, {"seq": 0, "tick": 0},
        {"seq": 0, "tick": 0, "kind": ["pod-bound"], "pod": "p", "node": "n"},
        ["pod-bound"], "pod-bound", None,
        {"seq": 0, "tick": 0, "kind": "pod-bound", "pod": "p", "node": "n", "preempted": [1]},
    ], ids=["unknown-kind", "no-kind", "unhashable-kind", "list", "str", "none", "list-of-int"])
    def test_an_event_no_writer_can_write_goes_to_dump(self, copy, event):
        module = COPIES[copy]()
        with counted_dumps(module) as handed:
            assert written(module._line, event) == written(reference_dump, event)
        assert len(handed) == 1

    @pytest.mark.parametrize("copy", COPIES)
    def test_an_int_too_long_to_write_is_json_s_error(self, copy):
        event = {"seq": 10 ** 5000, "tick": 0, "kind": "pod-bound", "pod": "p", "node": "n"}
        module = COPIES[copy]()
        with counted_dumps(module) as handed:
            assert written(module._line, event) == written(reference_dump, event)
        # since 3.11 (and 3.10.7), int's text is limited to 4300 digits by default
        assert len(handed) == (1 if hasattr(sys, "get_int_max_str_digits") else 0)

    def test_no_input_compiles_or_keeps_a_writer(self, case1, monkeypatch):
        writers, first = trace_mod._WRITERS, dict(trace_mod._FIRST_WRITER)
        monkeypatch.setattr(trace_mod, "_writer", None)  # a call would raise
        scn, text, _ = case1
        parsed = parse_trace(text)
        assert parsed.dumps() == text
        assert verify_trace(parsed, scn).ok
        odd = {"seq": 0, "tick": 0, "kind": "pod-bound", "pod": "p", "node": "n", "x": []}
        assert trace_mod._line(odd) == reference_dump(odd)
        assert trace_mod._WRITERS is writers and trace_mod._FIRST_WRITER == first


FLOAT_SHAPES = [shape for shape in SHAPES if float in slots(shape[1]).values()]
# zero of both signs, the least subnormal and a float near the largest: few
# values, so that they repeat within a line and across lines
POOL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]


class TestFloatText:
    """A float slot's text comes from a bounded memo of the floats written
    lately, and is always ``repr`` of the value."""

    @pytest.mark.parametrize("copy", COPIES)
    def test_zero_of_either_sign_and_an_equal_value_are_written_as_dump_writes_them(self, copy):
        module = COPIES[copy]()
        module._FLOAT_TEXT.clear()
        values = [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.1 + 0.2, 0.30000000000000004]
        for seq, value in enumerate(values):
            event = {"seq": seq, "tick": 1, "kind": "prediction", "acl": "a",
                     "value": value, "truth": value}
            assert module._line(event) == module._dump(event), value
        assert 0.0 not in module._FLOAT_TEXT
        assert module._FLOAT_TEXT == {0.30000000000000004: "0.30000000000000004"}

    @settings(max_examples=100, deadline=None)
    @given(events=st.lists(st.sampled_from(FLOAT_SHAPES).flatmap(
        lambda shape: st.fixed_dictionaries({"kind": st.just(shape[0]), **{
            key: st.sampled_from(POOL) if t is float else GOOD[t]
            for key, t in slots(shape[1]).items()}})), min_size=1, max_size=30))
    @pytest.mark.parametrize("copy", COPIES)
    def test_repeated_floats_are_written_as_dump_writes_them(self, copy, events):
        module = COPIES[copy]()
        for event in events:
            assert module._line(event) == module._dump(event)
        assert 0.0 not in module._FLOAT_TEXT

    def test_the_memo_never_holds_more_than_its_bound(self):
        trace = run(load_scenario("three-acl-conflict", ticks=2000))[0]
        floats = {v for event in trace.events for v in event.values() if type(v) is float}
        assert len(floats) > trace_mod._FLOAT_TEXT_MAX  # the memo is emptied at least once
        trace.dumps()
        assert 0 < len(trace_mod._FLOAT_TEXT) <= trace_mod._FLOAT_TEXT_MAX


class TestOneTable:
    """``trace.EVENTS`` is the one declaration of what an event holds: the
    writers, the reader's checks, audit's ranks and the conformance check above
    all come from it."""

    @pytest.mark.parametrize("mark", ["!", ""], ids=["read", "unread"])
    def test_a_key_added_to_one_shape_is_followed_everywhere(self, monkeypatch, mark):
        # the frozen shape of conflict-resolved gains a key, in a copy of the table
        events = dict(EVENTS)
        arbitrated, frozen = events["conflict-resolved"].shapes
        events["conflict-resolved"] = events["conflict-resolved"]._replace(
            shapes=(arbitrated, f"{frozen} cause:str{mark}"))
        built = trace_mod._build(events)
        for name, value in zip(["SHAPES", "_WRITERS", "_FIRST_WRITER", "_READERS"], built):
            monkeypatch.setattr(trace_mod, name, value)
        event = {"seq": 4, "tick": 1, "kind": "conflict-resolved", "id": "c1", "conflict": "x",
                 "instance": "i", "detected_tick": 1, "outcome": "frozen", "frozen": "a",
                 "until": 3, "cause": "c0"}
        old = {key: value for key, value in event.items() if key != "cause"}
        # the writer of the new shape writes the key; the old shape is gone
        with counted_dumps(trace_mod) as handed:
            assert trace_mod._line(event) == reference_dump(event)
            assert trace_mod._line(old) == reference_dump(old)
        assert handed == [old]
        # the conformance check expects the key
        assert shape_of(event, built[0]) == shape_of(old) and shape_of(old, built[0]) is None
        # the reader checks it only when it is marked as read
        for bad, problem in [(old, "is missing"), ({**event, "cause": 7}, "must be str")]:
            if mark:
                with pytest.raises(ParseError) as err:
                    _check_event(bad, 9)
                assert str(err.value) == f"bad conflict-resolved event: 'cause' {problem} (line 9)"
            else:
                _check_event(bad, 9)
        _check_event(event, 9)
        # and the other shape of the kind is as it was
        arbitrated_event = {**old, "outcome": "arbitrated", "winner": "a", "losers": ["b"]}
        del arbitrated_event["frozen"], arbitrated_event["until"]
        assert shape_of(arbitrated_event, built[0]) == shape_of(arbitrated_event) is not None

    def test_a_key_is_checked_only_in_a_shape_that_marks_it_read(self):
        # pod-bound's preempted is read; on another kind it is an extra key
        # that no reader reads, like any other
        tick_end = {"seq": 0, "tick": 0, "kind": "tick-end", "bound": 0, "pending": 0,
                    "terminated": 0, "pods": 0}
        for extra in [{"preempted": 7}, {"preempted": [1]}, {"winner": 7}, {"until": "x"}]:
            _check_event({**tick_end, **extra}, 1)
        bound = {"seq": 0, "tick": 0, "kind": "pod-bound", "pod": "p", "node": "n"}
        with pytest.raises(ParseError, match="^bad pod-bound event: 'preempted' must be a list"):
            _check_event({**bound, "preempted": 7}, 1)

    def test_audit_ranks_each_kind_by_the_table(self):
        assert audit._RANKS == {name: kind.rank for name, kind in EVENTS.items()}

    def test_readme_lists_each_kind_under_its_phase(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("## Traces"):]
        phases = section[section.index("\n1. ") + 1:section.index("\n\n", section.index("\n1. "))]
        listed = [(name, int(number)) for number, item in
                  re.findall(r"^(\d+)\. (.*(?:\n {3}.*)*)", phases, flags=re.M)
                  for name in re.findall(r"`([^`]+)`", item) if name in EVENTS]
        assert len(listed) == len(dict(listed))  # each kind once
        assert dict(listed) == {name: kind.rank for name, kind in EVENTS.items()}

    def test_no_module_level_name_is_bound_twice(self):
        # the branches of a module-level if are alternatives: each binds once
        def bound(statements) -> list[str]:
            names = []
            for node in statements:
                if isinstance(node, ast.If):
                    names += sorted(set(bound(node.body)) | set(bound(node.orelse)))
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.append(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names += [n.id for t in targets for n in ast.walk(t)
                              if isinstance(n, ast.Name)]
            return names
        names = bound(ast.parse(Path(trace_mod.__file__).read_text(encoding="utf-8")).body)
        assert {"EVENTS", "_TEXT", "_dump"} <= set(names)
        assert sorted(name for name in set(names) if names.count(name) > 1) == []


class TestTraceValue:
    def test_a_trace_equals_only_a_trace(self, case1):
        _, text, _ = case1
        trace = parse_trace(text)
        assert trace.__eq__(text) is NotImplemented
        assert trace != text and trace != None  # noqa: E711 (the comparison under test)
        assert trace == run(load_scenario("case1"))[0]

    def test_repr_shows_events_unread_until_read(self):
        # keys in sorted order, as they are read
        header = {"extra_events": [], "format": TRACE_FORMAT, "initial": [], "scenario_hash": "x"}
        event = {"bound": 0, "kind": "tick-end", "pending": 0, "pods": 0, "seq": 0,
                 "terminated": 0, "tick": 0}
        trace = parse_trace(_dump(header) + "\n" + _dump(event) + "\n")
        assert repr(trace) == f"Trace(header={header!r}, events=<unread>)"
        assert trace.events == [event]
        assert repr(trace) == f"Trace(header={header!r}, events={[event]!r})"
        assert repr(Trace(header, [event])) == repr(trace)


def outcome(load, text):
    """What *load* makes of *text*: the value's repr (so NaN compares) or the error text."""
    try:
        value = load(text)
    except json.JSONDecodeError as exc:
        return "error", str(exc)
    return "value", repr(value)


LOAD_CASES = [
    "", " ", " \t\r\n ", "\ufeff", "\ufeff{}", "\ufeff" + reference_dump({"a": 1}),
    "1 2", '{"a":}', '{"a":1} x', '{"a":1}}', "[1,]", "[1,2", '{"a" 1}', "{'a': 1}",
    "nul", "tru", '"\\ud800"', '"\\x"', '"abc', "01", "-", "1.", ".5", "1e", "1e999",
    "NaN", "-Infinity", "Infinity", " [1, 2.5, -0.0, null, true] ", '{"b":1,"a":[{}]}',
    "{}", "[]", '""', "0", "-0", str(2 ** 200), "  ", " {}", '{"a":1}\n',
    '{"a":1}\x00', "\x00", "\x0c{}", '{"a":1}\x0c', '{"a":1', '{"a":[1,2]',
]


class TestLoad:
    @pytest.mark.parametrize("text", LOAD_CASES)
    def test_matches_json_loads(self, text):
        assert outcome(_load, text) == outcome(json.loads, text)

    def test_a_byte_order_mark_is_named(self):
        with pytest.raises(json.JSONDecodeError) as exc:
            _load("\ufeff{}")
        assert str(exc.value) == \
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"

    @settings(max_examples=75, deadline=None)
    @given(DOCUMENTS)
    def test_reads_back_what_dump_wrote(self, obj):
        line = _dump(obj)
        assert outcome(_load, line) == outcome(json.loads, line)

    @pytest.mark.parametrize("prefix", ["\ufeff", "x", " ["])
    def test_parse_trace_names_the_json_error(self, prefix):
        text = prefix + run(load_scenario("case1"))[0].dumps()
        try:
            json.loads(text.split("\n")[0])
        except json.JSONDecodeError as exc:
            expected = f"bad trace header: {exc} (line 1)"
        with pytest.raises(ParseError) as err:
            parse_trace(text)
        assert str(err.value) == expected


def reference_parse(lines):
    """What ``parse_trace("\\n".join(lines))`` must give, by the plain rule: each
    non-blank line read by ``json.loads``, the first one the header."""
    header, events = None, []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        what = "header" if header is None else "event"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            return "error", f"bad trace {what}: {exc} (line {i})"
        if type(obj) is not dict:
            problem = f"not a {TRACE_FORMAT} trace" if header is None else \
                "bad trace event: not a JSON object"
            return "error", f"{problem} (line {i})"
        if header is None:
            header = obj
        else:
            events.append(obj)
    return "value", repr(events)


def parsed(lines):
    try:
        events = parse_trace("\n".join(lines)).events
    except ParseError as exc:
        return "error", str(exc)
    return "value", repr(events)


# the same event, written otherwise: what json.loads reads as it
SPACING = [lambda line: line, lambda line: json.dumps(json.loads(line), sort_keys=True),
           lambda line: json.dumps(json.loads(line), indent=None, separators=(" ,", " : "))]
PADDING = st.text(st.sampled_from(" \t\r"), max_size=3)  # JSON whitespace
# skipped as blank: str.strip() clears them, JSON whitespace or not
BLANKS = st.lists(st.sampled_from(["", " ", "\t", "\r", " \r ", "\x0c", "\u3000"]), max_size=2)
# one line no run writes: not an object, extra data, a BOM, cut short, a
# character str.strip() takes for space but JSON does not
MALFORMED = [lambda line: "[1,2]", lambda line: "7", lambda line: line + " x",
             lambda line: line + line, lambda line: "\ufeff" + line,
             lambda line: line[:-1], lambda line: "\x0c" + line, lambda line: line + "\x0c"]


class TestParseTrace:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_reads_each_line_as_json_loads(self, case1, data):
        lines = case1[2][:-1]
        bad = data.draw(st.none() | st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(MALFORMED))
        built = []
        for i, line in enumerate(lines):
            built += data.draw(BLANKS)
            line = data.draw(st.sampled_from(SPACING))(line)
            line = data.draw(PADDING) + line + data.draw(PADDING)
            built.append(edit(line) if i == bad else line)
        built += data.draw(BLANKS)
        assert parsed(built) == reference_parse(built)

    @pytest.mark.parametrize("at, what", [(0, "header"), (3, "event")])
    def test_a_line_nested_too_deeply_is_a_parse_error(self, case1, at, what):
        lines = case1[2][:-1]
        lines[at:at] = ["", "[" * 100_000 + "]" * 100_000]  # blank lines count
        with pytest.raises(ParseError) as err:
            parse_trace("\n".join(lines)).events
        assert str(err.value) == f"bad trace {what}: nested too deeply (line {at + 2})"

    def test_reads_back_every_pinned_run(self, pinned_runs):
        for scn, trace in pinned_runs:
            assert parse_trace(trace.dumps()) == trace, scn.data["name"]

    def test_parsed_events_share_their_keys_and_text(self):
        # steady-long (seed 1) at 200 ticks: retained heap, not wall time
        text = run(loads(workloads.generate("steady-long", 1), ticks=200))[0].dumps()
        lines = [line for line in text.split("\n") if line.strip()]
        assert len(lines) == 5607

        def retained(build) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                kept = build()  # noqa: F841 (held while the heap is read)
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        plain = retained(lambda: [json.loads(line) for line in lines])
        shared = retained(lambda: parse_trace(text).events)
        assert shared <= 0.6 * plain, (shared, plain)

        events = parse_trace(text).events
        keys = [key for event in events for key in event]
        assert len({id(key) for key in keys}) == len(set(keys))
        kinds = [event["kind"] for event in events]
        assert len({id(kind) for kind in kinds}) == len(set(kinds))


@pytest.fixture(scope="module")
def pinned_runs():
    """Each built-in, the 20 fuzz scenarios, both benchmark workloads at 150
    ticks (seed 1), and ``RARE_KINDS``, with the trace each one runs to."""
    rng = random.Random(20260814)
    scenarios = [load_scenario(name) for name in list_scenarios()]
    scenarios += [random_scenario(rng, i) for i in range(20)]
    scenarios += [loads(workloads.generate(name, 1), ticks=150)
                  for name in ("steady-long", "contended")]
    scenarios.append(from_dict(RARE_KINDS))
    return [(scn, run(scn)[0]) for scn in scenarios]


# a loop whose demand jumps is suspended (lifecycle) and released
# (agent-released), and a peer it does not trust is denied an exchange
# (exchange-denied): the kinds no other pinned run writes
RARE_KINDS = {
    "name": "rare-kinds", "seed": 3, "ticks": 30,
    "topology": {"nodes": [{"id": "n1", "region": "east", "cpu": 64000, "memory": 64000}]},
    "agents": [{"id": "burst", "scope": ["east"], "alpha": 1.0, "pod_capacity_units": 1.0,
                "hysteresis_ticks": 1, "pod_template": {"cpu": 1, "memory": 1}},
               {"id": "peer", "scope": ["east"], "period": 1000}],
    "traffic": {"east": {"base": 1000.0, "steps": [{"at": 20, "base": 5000.0}]}},
    "injected": [{"tick": 1, "kind": "exchange-request", "source": "peer", "target": "burst",
                  "artifact": "Dataset"},
                 {"tick": 25, "kind": "release", "acl": "burst"}],
}


def same(a, b) -> bool:
    """``a == b`` with the same type at every key and list position (NaN is NaN)."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    return a == b or a != a and b != b


class TestRoundTrip:
    """What lets verify hand its replayed event on for a recorded line equal
    to the replayed one: every event a run writes reads back as itself."""

    def test_same_tells_types_apart(self):
        assert same({"a": [1, 2.5, float("nan")]}, {"a": [1, 2.5, float("nan")]})
        assert not same({"a": True}, {"a": 1})
        assert not same({"a": 1}, {"a": 1.0})
        assert not same({"a": (1,)}, {"a": [1]})
        assert not same([{"a": 1}], [{"a": 1, "b": 2}])

    def test_every_event_reads_back_as_itself_and_passes_the_checks(self, pinned_runs):
        count = 0
        for scn, trace in pinned_runs:
            for event in trace.events:
                assert same(_load(_dump(event)), event), (scn.data["name"], event)
                _check_event(event, 0)
                count += 1
        assert count > 10_000


def checked_keys(event) -> set[str]:
    """The keys of *event* that ``parse_trace`` type-checks."""
    pick, specs = trace_mod._READERS[event["kind"]]
    return {key for key, _ in specs[pick(event)]}


# the modules that make up the engine, which the reader of the events stands apart from
ENGINE = {"agents", "cluster", "conflicts", "scheduler", "scenario", "sim", "traffic"}


def engine_imports(source: str) -> list[str]:
    """The engine modules *source* imports anywhere, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: a module of the package
                module = f"loopsim.{module}".rstrip(".")
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in names):
            if parts[0] == "loopsim" and len(parts) > 1 and parts[1] in ENGINE:
                found.add(parts[1])
    return sorted(found)


class TestAuditReader:
    """``audit`` reads no key of an event that ``parse_trace`` lets go
    unchecked, and imports no module of the engine."""

    def test_a_trace_stripped_to_its_checked_keys_reads_the_same(self, pinned_runs):
        stripped_keys = 0
        for scn, trace in pinned_runs:
            name = scn.data["name"]
            bare = Trace(trace.header, [{k: v for k, v in e.items() if k in checked_keys(e)}
                                        for e in trace.events])
            stripped_keys += sum(map(len, trace.events)) - sum(map(len, bare.events))
            assert audit.summarize(bare) == audit.summarize(trace), name
            assert (audit.check_invariants(scn.data, bare.events)
                    == audit.check_invariants(scn.data, trace.events)), name
            # resolutions hold whole events, stripped or not
            assert (dataclasses.replace(audit.Metrics.from_trace(bare), resolutions=[])
                    == dataclasses.replace(audit.Metrics.from_trace(trace), resolutions=[])), name
        assert stripped_keys > 10_000

    def test_only_the_placement_kinds_move_placements(self, pinned_runs):
        # check_invariants feeds its fold only these kinds; a kind outside
        # them that moved a placement would go unchecked
        assert audit.PLACEMENT_KINDS < set(EVENTS)
        fed = set()
        for scn, trace in pinned_runs:
            fold = audit.Metrics(placements={e["pod"]: e["node"]
                                             for e in trace.header["initial"]})
            for event in trace.events:
                before = (dict(fold.placements), set(fold.pending), set(fold.evicted),
                          set(fold.terminated))
                fold.feed(event)
                if event["kind"] not in audit.PLACEMENT_KINDS:
                    fed.add(event["kind"])
                    assert (fold.placements, fold.pending, fold.evicted,
                            fold.terminated) == before, (scn.data["name"], event)
        assert fed == set(EVENTS) - audit.PLACEMENT_KINDS

    def test_the_scan_finds_an_engine_import_in_every_form(self):
        source = ("from . import trace, sim\nimport loopsim.cluster\nimport collections.abc\n"
                  "from loopsim import agents\nfrom .scheduler import coordinate\n"
                  "from .trace import Trace\nfrom loopsim.trace import parse_trace\n"
                  "def f():\n    from .traffic import TrafficModel\n")
        assert engine_imports(source) == ["agents", "cluster", "scheduler", "sim", "traffic"]

    def test_audit_imports_no_engine_module(self):
        assert engine_imports(Path(audit.__file__).read_text(encoding="utf-8")) == []


@pytest.fixture(scope="module")
def case1():
    scn = load_scenario("case1")
    text = run(scn)[0].dumps()
    lines = text.split("\n")
    assert len(lines) == 39  # header, 37 events, the empty line after the last newline
    return scn, text, lines


def divergences(text, scn):
    return verify_trace(parse_trace(text), scn).divergences


def line_by_line(text, replayed):
    """verify's compare, written plainly: *text* split at every "\\n" against
    the replay's lines (the empty line after the last newline included)."""
    recorded = text.split("\n")
    found = []
    for i in range(max(len(recorded), len(replayed))):
        actual = recorded[i] if i < len(recorded) else "<missing>"
        expected = replayed[i] if i < len(replayed) else "<missing>"
        if actual != expected:
            found.append({"line": i + 1, "actual": actual, "expected": expected})
    return found


def _edited(line):
    return _dump({**json.loads(line), "note": "edited"})


class TestVerifyCompare:
    # case1's tick 1 is lines 18 to 26 (0-based 17 to 25); its last line is 38
    @pytest.mark.parametrize("index, edit", [
        (17, _edited), (22, _edited), (25, _edited), (0, _edited),
        (22, lambda line: line + "\r"), (25, lambda line: line + "\r"),
        (37, lambda line: line + "\r"),
    ], ids=["first-of-tick", "middle-of-tick", "tick-end", "header",
            "cr-mid-tick", "cr-on-tick-end", "cr-on-last-line"])
    def test_reports_as_a_plain_line_compare(self, case1, index, edit):
        scn, _, lines = case1
        assert [json.loads(lines[i])["tick"] for i in (16, 17, 25, 26)] == [0, 1, 1, 2]
        assert json.loads(lines[25])["kind"] == "tick-end"
        tampered = list(lines)
        tampered[index] = edit(lines[index])
        text = "\n".join(tampered)
        assert divergences(text, scn) == line_by_line(text, lines) == [
            {"line": index + 1, "actual": tampered[index], "expected": lines[index]}]

    def test_cr_after_the_last_newline_diverges(self, case1):
        scn, text, lines = case1
        assert divergences(text + "\r", scn) == line_by_line(text + "\r", lines) == [
            {"line": 39, "actual": "\r", "expected": ""}]

    def test_last_two_lines_cut_off(self, case1):
        scn, _, lines = case1
        assert divergences("\n".join(lines[:36]) + "\n", scn) == [
            {"line": 37, "actual": "", "expected": lines[36]},
            {"line": 38, "actual": "<missing>", "expected": lines[37]},
            {"line": 39, "actual": "<missing>", "expected": ""},
        ]

    def test_one_line_appended(self, case1):
        scn, text, lines = case1
        assert divergences(text + lines[37] + "\n", scn) == [
            {"line": 39, "actual": lines[37], "expected": ""},
            {"line": 40, "actual": "", "expected": "<missing>"},
        ]

    def test_blank_line_inserted_mid_file(self, case1):
        scn, _, lines = case1
        tampered = lines[:19] + [""] + lines[19:]
        assert divergences("\n".join(tampered), scn) == [
            {"line": i + 1, "actual": tampered[i], "expected": lines[i]}
            for i in range(19, 39)
        ] + [{"line": 40, "actual": "", "expected": "<missing>"}]

    def test_in_memory_trace_verifies_clean(self, case1):
        scn = case1[0]
        trace, _, _ = run(scn)
        assert trace.text is None
        report = verify_trace(trace, scn)
        assert report.ok and report.divergences == [] and report.violations == []

    def test_divergence_from_tick_0_reports_every_later_line(self, case1):
        # recorded with a taint at tick 0, then the header edited to say there was
        # none: the header matches, and from the taint on every line's seq is off by one
        scn, _, clean = case1
        taint = {"tick": 0, "kind": "taint", "node": "edge-calgary", "key": "m",
                 "effect": "NoSchedule"}
        recorded, _, _ = run(scn, extra_events=[taint])
        recorded.header["extra_events"] = []
        lines = recorded.dumps().split("\n")
        assert lines[0] == clean[0] and len(lines) == len(clean) + 1
        first = next(i for i, (a, b) in enumerate(zip(lines, clean)) if a != b)
        assert json.loads(lines[first])["tick"] == 0
        assert divergences(recorded.dumps(), scn) == [
            {"line": i + 1, "actual": lines[i], "expected": clean[i] if i < 39 else "<missing>"}
            for i in range(first, 40)
        ]


def outcome_of(verify, text, scn):
    """The ``Report`` *verify* gives, or the error it raises, as comparable values."""
    try:
        report = verify(text, scn)
    except Exception as exc:  # noqa: BLE001 (any error must be the same error)
        return "error", type(exc).__name__, str(exc), getattr(exc, "line", None)
    return "report", report.divergences, report.violations


def eager_verify(text, scn, replayed):
    """verify as it was when the whole trace was parsed first, written plainly:
    the header as ``parse_trace`` reads it, every later non-blank line read by
    ``json.loads`` and the trace checks, then *replayed* (the replay's lines)
    compared line by line, then the invariants over the list of events."""
    header = parse_trace(text).header
    lines = text.split("\n")
    header_line = next(i for i, line in enumerate(lines, start=1) if line.strip())
    events = []
    for i, line in enumerate(lines, start=1):
        if i <= header_line or not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad trace event: {exc}", line=i) from None
        _check_event(event, i)
        events.append(event)
    if header["scenario_hash"] != scn.hash:
        raise HashMismatch(scn.hash, header["scenario_hash"])
    return Report(line_by_line(text, replayed), check_invariants(scn.data, events))


@pytest.fixture(scope="module")
def tamper_bases():
    """case1 and 40 ticks of contended (seed 1): scenario, trace text, its lines."""
    bases = []
    for scn in (load_scenario("case1"), loads(workloads.generate("contended", 1), ticks=40)):
        text = run(scn)[0].dumps()
        bases.append((scn, text, text.split("\n")))
    return bases


NEW_VALUES = st.sampled_from([None, True, False, 0, -1, 7, 10 ** 6, 1.5, float("nan"), "x",
                              "edge-calgary", "pod-bound", [], ["x"], {}])


@st.composite
def tampered(draw, lines):
    """*lines* with one to three edits, each a malformed line, a changed
    value, a blank line, a dropped, duplicated or appended line, or a "\\r"."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(
            ["malformed", "value", "blank", "drop", "duplicate", "append", "cr"]))
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "malformed":
            lines[i] = draw(st.sampled_from(MALFORMED))(lines[i])
        elif edit == "value":
            i = draw(st.integers(1, len(lines) - 2))
            try:
                event = json.loads(lines[i])
            except json.JSONDecodeError:
                continue
            if type(event) is dict and event and "format" not in event:  # no header
                key = draw(st.sampled_from(sorted(event)))
                lines[i] = _dump({**event, key: draw(NEW_VALUES)})
        elif edit == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t"])))
        elif edit == "drop" and len(lines) > 2:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "append":
            lines.insert(len(lines) - 1, lines[i])  # before the empty last line
        elif edit == "cr":
            lines[i] += "\r"
    return "\n".join(lines)


class TestVerifyReadsOnlyWhatDiverges:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_a_tampered_trace_verifies_as_when_every_line_was_parsed_first(
            self, tamper_bases, data):
        scn, _, lines = data.draw(st.sampled_from(tamper_bases))
        text = data.draw(tampered(lines))
        assert outcome_of(lambda t, s: verify_trace(parse_trace(t), s), text, scn) == \
            outcome_of(lambda t, s: eager_verify(t, s, lines), text, scn)

    def test_a_clean_trace_reads_its_header_alone(self, monkeypatch):
        scn = loads(workloads.generate("steady-long", 1), ticks=150)
        out = run(scn)[0].dumps()
        read, load = [], trace_mod._load
        monkeypatch.setattr(trace_mod, "_load", lambda line: read.append(line) or load(line))
        assert verify_trace(parse_trace(out), scn).ok
        assert read == [out[:out.index("\n")]]

    def test_a_clean_trace_is_compared_a_tick_at_a_time(self, monkeypatch):
        # each replayed event is encoded once, and the recorded text is never
        # split into lines: a clean tick is one compare against the text
        scn = loads(workloads.generate("steady-long", 1), ticks=150)
        recorded = run(scn)[0]
        parsed = parse_trace(recorded.dumps())
        encoded, split = [], []
        line, lines = trace_mod._line, trace_mod._lines
        for module in (trace_mod, sim_mod):
            monkeypatch.setattr(module, "_line", lambda e: encoded.append(e) or line(e))
        monkeypatch.setattr(trace_mod, "_lines", lambda text: split.append(text) or lines(text))
        assert verify_trace(parsed, scn).ok
        assert len(encoded) == len(recorded.events) > 4000
        assert split == []

    @pytest.mark.parametrize("header_edit, error", [
        ({"scenario_hash": "0" * 64}, HashMismatch),
        ({"scenario_hash": "0" * 64, "seed": "abc"}, ValidationError),
        ({"extra_events": [{"tick": 0, "kind": "nope"}]}, ValidationError),
    ], ids=["hash", "override", "extra-events"])
    def test_a_malformed_line_is_reported_before_any_other_error(self, case1, header_edit,
                                                                 error):
        scn, _, lines = case1
        lines = [_dump({**json.loads(lines[0]), **header_edit})] + lines[1:]
        with pytest.raises(error):
            verify_trace(parse_trace("\n".join(lines)), scn)
        lines[30] = "{"
        with pytest.raises(ParseError) as err:
            verify_trace(parse_trace("\n".join(lines)), scn)
        assert str(err.value) == "bad trace event: Expecting property name enclosed in " \
            "double quotes: line 1 column 2 (char 1) (line 31)"


class TestWrite:
    """``Trace.write`` streams the bytes ``dumps()`` returns, one chunk at a time."""

    @pytest.mark.parametrize("name", list_scenarios())
    def test_file_bytes_equal_dumps(self, tmp_path, name):
        trace = run(load_scenario(name))[0]
        path = tmp_path / "t.jsonl"
        trace.write(str(path))
        assert path.read_bytes() == trace.dumps().encode("utf-8")

    def test_non_ascii_and_an_empty_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for trace in (trace_mod.Trace({"format": TRACE_FORMAT, "name": "café \ud83d"}),
                      trace_mod.Trace({"format": TRACE_FORMAT},
                                      [{"seq": 0, "tick": 0, "kind": "x\n\r "}])):
            trace.write(str(path))
            assert path.read_bytes() == trace.dumps().encode("utf-8")

    def test_the_whole_text_is_never_built(self, tmp_path, monkeypatch):
        trace = run(loads(workloads.generate("steady-long", 1), ticks=100))[0]
        monkeypatch.setattr(trace_mod.Trace, "dumps", None)
        trace.write(str(tmp_path / "t.jsonl"))
        monkeypatch.undo()
        assert (tmp_path / "t.jsonl").read_bytes() == trace.dumps().encode("utf-8")


class TestChunks:
    """``dumps()``, ``write()`` and ``loopsim run`` to stdout share one producer
    of the text, which holds ``CHUNK_LINES`` event lines at a time."""

    def test_dumps_peaks_at_about_twice_the_text(self):
        # the chunks, then the one str they are joined into; a list of every
        # line first would peak at about 2.5 times the text
        trace = run(loads(workloads.generate("steady-long", 1000), ticks=200))[0]
        gc.collect()
        tracemalloc.start()
        try:
            text = trace.dumps()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * len(text), (peak, len(text))

    @pytest.mark.parametrize("count", [0, trace_mod.CHUNK_LINES, trace_mod.CHUNK_LINES + 1])
    def test_every_way_out_gives_the_reference_bytes(self, count, tmp_path, monkeypatch):
        header = {"format": TRACE_FORMAT, "scenario": "café"}
        events = [{"seq": i, "tick": i // 10, "kind": "tick-end", "note": "\u2603" * (i % 3)}
                  for i in range(count)]
        expected = "".join(reference_dump(obj) + "\n" for obj in [header, *events])
        trace = trace_mod.Trace(header, events)
        assert trace.dumps() == expected
        chunks = list(trace.chunks())
        assert len(chunks) == 1 + -(-count // trace_mod.CHUNK_LINES)
        assert all(0 < chunk.count("\n") <= trace_mod.CHUNK_LINES for chunk in chunks)

        monkeypatch.setattr(trace_mod.Trace, "dumps", None)  # neither builds the whole text
        path = tmp_path / "t.jsonl"
        trace.write(str(path))
        assert path.read_bytes() == expected.encode()

        monkeypatch.setattr(sim_mod, "World", lambda scn, extra_events=None: types.SimpleNamespace(
            trace=trace, step=lambda: None))
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8"))
        assert cli.main(["run", "case1"]) == 0
        sys.stdout.flush()
        assert raw.getvalue() == expected.encode()
