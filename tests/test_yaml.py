"""Scenario YAML under both PyYAML loaders, and the nesting limit.

``scenario.loads`` parses with PyYAML's LibYAML bindings (``CSafeLoader``)
when PyYAML has them, else with its pure-Python ``SafeLoader``.  Both must
give the same scenario for every document the engine is fed, and neither may
be handed a document nested deep enough to crash it.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings

import loopsim
from loopsim import scenario as scenario_mod
from loopsim.errors import ParseError, ValidationError
from loopsim.scenario import BUILTIN_SCENARIOS, MAX_DEPTH, loads
from test_acceptance import random_document
from test_properties import misshapen_documents

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML is built without LibYAML")
LOADERS = [yaml.SafeLoader, pytest.param(getattr(yaml, "CSafeLoader", None), marks=needs_libyaml)]
LOADER_IDS = ["SafeLoader", "CSafeLoader"]

ERRORS = ("ParseError", "ValidationError")

# the head of a valid scenario; a key added after it is unknown to a scenario
HEAD = "name: deep\ntopology: {nodes: [{id: a, region: r, cpu: 1, memory: 1}]}\n"


def unknown(key):
    """The outcome of a text that parses in full and holds no error but the
    top-level *key*, which no scenario has."""
    return "ValidationError", f"scenario: unknown key {key!r}"


def outcome(loader, text):
    """What ``loads(text)`` gives when it parses with *loader*: the parsed
    data and the scenario hash, or the error (a ``ParseError`` by its line)."""
    saved = scenario_mod.YAML_LOADER
    scenario_mod.YAML_LOADER = loader
    try:
        scn = loads(text)
    except ParseError as exc:
        return "ParseError", exc.line
    except ValidationError as exc:
        return "ValidationError", str(exc)
    finally:
        scenario_mod.YAML_LOADER = saved
    return repr(yaml.load(text, Loader=loader)), scn.hash


def both(text):
    return outcome(yaml.SafeLoader, text), outcome(yaml.CSafeLoader, text)


def _corpus() -> dict[str, str]:
    """Every built-in, the 20 fuzz scenarios and both workloads at seeds 1-3."""
    texts = dict(BUILTIN_SCENARIOS)
    rng = random.Random(20260814)
    for i in range(20):
        texts[f"fuzz-{i}"] = yaml.safe_dump(random_document(rng, i))
    for name in ("steady-long", "contended"):
        for seed in (1, 2, 3):
            texts[f"{name}-{seed}"] = workloads.generate(name, seed)
    return texts


CORPUS = _corpus()


@needs_libyaml
class TestLoaderEquivalence:
    def test_loads_parses_with_libyaml(self):
        assert scenario_mod.YAML_LOADER is yaml.CSafeLoader
        with pytest.raises(ParseError):  # libyaml's reading of this escape
            loads(HEAD + 'x: "\\ud800"\n')

    @pytest.mark.parametrize("name", CORPUS)
    def test_every_pinned_scenario_loads_the_same(self, name):
        python, libyaml = both(CORPUS[name])
        assert python == libyaml
        assert python[0] not in ERRORS

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(misshapen_documents())
    def test_a_misshapen_document_loads_the_same(self, doc):
        python, libyaml = both(yaml.safe_dump(doc))
        assert python == libyaml

    # Where the two differ, as found: (text, SafeLoader, CSafeLoader)
    @pytest.mark.parametrize("text, python, libyaml", [
        # an error at the end of the input is marked one line later
        ("name: [unclosed", ("ParseError", 1), ("ParseError", 2)),
        # NEL and U+2028 are line breaks to both; ending the text after one
        # shifts the mark as above, while one mid-document shifts it alike
        ("a: \x85x", ("ParseError", 2), ("ParseError", 3)),
        ("a: \u2028x", ("ParseError", 2), ("ParseError", 3)),
        ("a: x\x85b: ]\nc: 1\n", ("ParseError", 2), ("ParseError", 2)),
        ("a: x\u2028b: ]\nc: 1\n", ("ParseError", 2), ("ParseError", 2)),
        # a lone surrogate escape is text to one and an error to the other
        ('name: "\\ud800"\n', ("ValidationError", "scenario: missing required key 'topology'"),
         ("ParseError", 1)),
    ], ids=["end-of-input", "nel-at-end", "ls-at-end", "nel-mid", "ls-mid", "surrogate-escape"])
    def test_known_differences(self, text, python, libyaml):
        assert both(text) == (python, libyaml)

    def test_a_raw_lone_surrogate_is_a_parse_error(self):
        # a ReaderError to SafeLoader, a UnicodeEncodeError inside CSafeLoader
        assert both(HEAD + "x: '\ud800'\n") == (("ParseError", None), ("ParseError", None))


def nested(depth: int) -> str:
    """A valid scenario whose deepest value is *depth* collections deep,
    the last of them on line 4."""
    return HEAD + "x:\n  " + "[" * (depth - 1) + "]" * (depth - 1) + "\n"


@pytest.mark.parametrize("loader", LOADERS, ids=LOADER_IDS)
class TestDepthGuard:
    def test_the_limit_itself_loads(self, loader):
        assert outcome(loader, nested(MAX_DEPTH)) == unknown("x")

    def test_one_past_the_limit_is_named_by_its_line(self, loader):
        assert outcome(loader, nested(MAX_DEPTH + 1)) == ("ParseError", 4)

    def test_block_nesting_counts_alike(self, loader):
        keys = "".join("  " * i + f"k{i}:\n" for i in range(MAX_DEPTH))
        # the mapping under k{i} (line 3 + i) is i + 2 deep: the one under k63 opens on line 67
        text = HEAD + keys + "  " * MAX_DEPTH + "leaf: 1\n"
        assert outcome(loader, text) == ("ParseError", 3 + MAX_DEPTH)
        assert outcome(loader, HEAD + keys[:keys.rindex("k")] + "k: 1\n") == unknown("k0")

    def test_an_alias_is_as_deep_as_its_anchor(self, loader):
        anchor = "y: &deep " + "[" * (MAX_DEPTH - 1) + "]" * (MAX_DEPTH - 1) + "\n"
        assert outcome(loader, HEAD + anchor + "z: *deep\n") == unknown("y")
        assert outcome(loader, HEAD + anchor + "z: [*deep]\n") == ("ParseError", 4)

    def test_a_chain_of_aliases_counts_every_link(self, loader):
        links = ["a0: &a0 [x]"] + [f"a{i}: &a{i} [*a{i - 1}]" for i in range(1, 5000)]
        text = HEAD + "\n".join(links) + "\n"
        assert outcome(loader, text) == ("ParseError", 2 + MAX_DEPTH)

    @pytest.mark.parametrize("text", ["&a [*a]\n", HEAD + "x: &a {y: [*a]}\n"],
                             ids=["top", "inner"])
    def test_an_alias_inside_its_own_anchor_is_too_deep(self, loader, text):
        assert outcome(loader, text)[0] == "ParseError"

    @pytest.mark.parametrize("body, line", [
        ("x: " + "[" * 100_000 + "]" * 100_000 + "\n", 3),
        ("x:\n" + "- " * 100_000 + "leaf\n", 4),
    ], ids=["flow", "compact-block"])
    def test_a_document_nested_100000_deep_exits_2(self, loader, tmp_path, body, line):
        # in a child process, so a crash inside the parser shows as a signal
        path = tmp_path / "deep.yaml"
        path.write_text(HEAD + body)
        code = ("import sys, yaml; from loopsim import cli, scenario; "
                f"scenario.YAML_LOADER = yaml.{loader.__name__}; "
                "sys.exit(cli.main(sys.argv[1:]))")
        src = str(Path(loopsim.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code, "run", str(path)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: scenario nests deeper than {MAX_DEPTH} levels (line {line})\n"


def aliases(levels: int) -> str:
    """Anchors a0 .. a<levels>: a0 is a list of ten scalars and each further
    one a list of ten aliases of the one before, so a<n> expands to 10**(n+1)
    scalars in about 60 * n bytes."""
    lines = ["a0: &a0 [" + ", ".join(["x"] * 10) + "]"]
    lines += [f"a{i}: &a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]"
              for i in range(1, levels + 1)]
    return "\n".join(lines) + "\n"


# a valid scenario with every text field a document can alias marked: the
# mark is replaced by a huge alias, or by a plain value to check the template
ALIASED = """\
name: {name}
priority_levels: [{{name: {level}, value: 10}}]
topology: {{nodes: [{{id: {node}, region: {region}, cpu: 1000, memory: 1000}}]}}
agents:
  - {{id: {agent}, scope: [{scope}], priority: {priority}, target: {target}}}
  - {{id: b, scope: [r], role: {role}}}
initial_pods: [{{id: {pod}, owner: {owner}, node: n0, cpu: 1, memory: 1}}]
trust: {{s: [{{acl: {acl}, kinds: [Model]}}, {{acl: {dataset_acl}, kinds: [Dataset]}}]}}
traffic: {{{traffic}: {{base: 1}}}}
injected: [{{tick: 1, kind: taint, node: n0, key: {taint_key}, effect: NoSchedule}}]
seed: {seed}
"""
PLAIN = {"name": "t", "level": "gold", "node": "n0", "region": "r", "agent": "s",
         "scope": "r", "priority": "gold", "target": "svc", "role": "scaler", "pod": "p",
         "owner": "s", "acl": "b", "dataset_acl": "b", "traffic": "r", "taint_key": "k", "seed": 1}
# a region is a mapping key, which YAML may not make a list
PARSE_ERRORS = {"traffic"}


class TestAliasExpansion:
    """No value whose aliases expand it past any size gets converted whole:
    a text field refuses a list or a mapping, and an error message names
    one by its type."""

    def test_the_template_is_valid(self):
        assert loads(ALIASED.format(**PLAIN)).name == "t"

    def test_a_name_of_a_million_scalars_is_refused_at_once(self):
        text = aliases(5) + "name: *a5\n"
        assert len(text) < 400
        with pytest.raises(ValidationError, match="^scenario: name: expected text, got list$"):
            loads(text)

    def test_a_1kb_document_in_each_field_is_refused_in_a_child(self, tmp_path):
        # one child process under a memory limit runs every document, so a
        # regression fails here instead of exhausting the host
        texts = {}
        for field in PLAIN:
            text = aliases(15) + ALIASED.format(**{**PLAIN, field: "*a15"})
            assert 1000 < len(text) < 1500
            texts[field] = text
        (tmp_path / "docs.json").write_text(json.dumps(texts))
        code = (
            "import json, resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from loopsim.scenario import loads\n"
            "out = {}\n"
            "for field, text in json.load(open(sys.argv[1])).items():\n"
            "    start = time.perf_counter()\n"
            "    try:\n"
            "        loads(text)\n"
            "        got = 'loaded'\n"
            "    except Exception as exc:\n"
            "        got = type(exc).__name__ + ': ' + str(exc)[:200]\n"
            "    out[field] = (got, time.perf_counter() - start)\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(loopsim.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "docs.json")],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        results = json.loads(done.stdout)
        for field, (got, seconds) in results.items():
            want = "ParseError" if field in PARSE_ERRORS else "ValidationError"
            assert got.startswith(want + ": "), (field, got)
            assert "'x'" not in got, (field, got)  # no element of the list quoted
            assert seconds < 0.5, (field, seconds)
        assert set(results) == set(PLAIN)
