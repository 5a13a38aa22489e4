"""The trace codec against the json module, and verify's line-by-line compare."""

import importlib.util
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from loopsim import trace as trace_mod
from loopsim.errors import ParseError
from loopsim.scenario import load_scenario
from loopsim.sim import run, verify_trace
from loopsim.trace import _dump, _load, parse_trace


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
    '{"a":1}\x00', "\x00",
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


@pytest.fixture(scope="module")
def case1():
    scn = load_scenario("case1")
    text = run(scn)[0].dumps()
    lines = text.split("\n")
    assert len(lines) == 39  # header, 37 events, the empty line after the last newline
    return scn, text, lines


def divergences(text, scn):
    return verify_trace(parse_trace(text), scn).divergences


class TestVerifyCompare:
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
