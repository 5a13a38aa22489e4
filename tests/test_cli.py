"""Command line entry points, exercised through main(argv)."""

import io
import json
import sys

import pytest

from loopsim import scenario as scenario_mod, sim as sim_mod
from loopsim.cli import main
from loopsim.scenario import list_scenarios, load_scenario
from loopsim.sim import run, verify_trace
from loopsim.trace import load_trace, parse_trace


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_trace_goes_to_stdout(self, capsys):
        code, out, err = invoke(capsys, "run", "case1")
        assert code == 0
        trace = parse_trace(out)
        assert trace.header["scenario"] == "case1"
        assert err == ""
        expected, _, _ = run(load_scenario("case1"))
        assert out == expected.dumps()

    def test_stdout_trace_is_written_without_newline_translation(self, monkeypatch):
        # a stdout that writes "\r\n" for "\n", as a console's does on Windows
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", newline="\r\n"))
        assert main(["run", "case1"]) == 0
        sys.stdout.flush()
        expected, _, _ = run(load_scenario("case1"))
        assert raw.getvalue() == expected.dumps().encode()

    def test_out_writes_a_file(self, capsys, tmp_path):
        path = tmp_path / "case1.jsonl"
        code, out, _ = invoke(capsys, "run", "case1", "--out", str(path))
        assert code == 0
        assert out == ""
        assert load_trace(str(path)).header["scenario"] == "case1"

    def test_summary_goes_to_stderr(self, capsys):
        code, out, err = invoke(capsys, "run", "case2", "--summary")
        assert code == 0
        assert "scenario case2" in err
        assert parse_trace(out).header["scenario"] == "case2"

    @pytest.mark.parametrize("summary, folds", [([], 0), (["--summary"], 1)])
    def test_metrics_are_folded_only_for_the_summary(self, capsys, monkeypatch, summary, folds):
        calls = []
        from_trace = sim_mod.Metrics.from_trace.__func__
        monkeypatch.setattr(sim_mod.Metrics, "from_trace",
                            classmethod(lambda cls, trace: calls.append(1) or from_trace(cls, trace)))
        code, out, _ = invoke(capsys, "run", "case2", *summary)
        assert code == 0
        assert len(calls) == folds
        assert out == run(load_scenario("case2"))[0].dumps()

    def test_seed_and_tick_overrides(self, capsys):
        _, out, _ = invoke(capsys, "run", "case1", "--seed", "99", "--ticks", "7")
        header = parse_trace(out).header
        assert header["seed"] == 99
        assert header["ticks"] == 7

    def test_scenario_file_path(self, capsys, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(
            "name: tiny\n"
            "ticks: 2\n"
            "topology:\n"
            "  nodes:\n"
            "    - {id: n1, region: east, cpu: 1000, memory: 1000}\n"
        )
        code, out, _ = invoke(capsys, "run", str(path))
        assert code == 0
        assert parse_trace(out).header["scenario"] == "tiny"

    def test_events_file_feeds_extra_events(self, capsys, tmp_path):
        events = tmp_path / "ops.jsonl"
        events.write_text(
            json.dumps({"tick": 1, "kind": "taint", "node": "edge-calgary",
                        "key": "maintenance", "effect": "NoSchedule"}) + "\n"
        )
        code, out, _ = invoke(capsys, "run", "case1", "--events", str(events))
        assert code == 0
        header = parse_trace(out).header
        assert header["extra_events"][0]["key"] == "maintenance"

    def test_release_of_an_unknown_loop_is_an_input_error(self, capsys, tmp_path):
        events = tmp_path / "ops.jsonl"
        events.write_text(json.dumps({"tick": 1, "kind": "release", "acl": "ghost"}) + "\n")
        code, _, err = invoke(capsys, "run", "case1", "--events", str(events))
        assert code == 2
        assert "unknown agent 'ghost'" in err

    def test_events_line_with_an_unknown_key_is_an_input_error(self, capsys, tmp_path):
        events = tmp_path / "ops.jsonl"
        events.write_text(json.dumps({"tick": 1, "kind": "release", "acl": "acl1",
                                      "at": 2}) + "\n")
        code, _, err = invoke(capsys, "run", "case1", "--events", str(events))
        assert (code, err) == (2, "error: events[0]: unknown key 'at'\n")

    def test_events_line_nested_100000_deep_is_an_input_error(self, capsys, tmp_path):
        events = tmp_path / "ops.jsonl"
        events.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        code, _, err = invoke(capsys, "run", "case1", "--events", str(events))
        assert code == 2
        assert err == f"error: {events}:1: bad event line: nested too deeply\n"

    @pytest.mark.parametrize("line, message", [
        ('{"tick": 1, "kind": "release",\n', "Expecting property name enclosed in double "
         "quotes: line 1 column 31 (char 30)"),
        ('{"tick": ' + "9" * 5001 + ', "kind": "release", "acl": "acl1"}\n',
         "an integer too long to read"),
    ], ids=["malformed", "5001-digit-tick"])
    def test_unreadable_events_line_is_an_input_error(self, capsys, tmp_path, line, message):
        events = tmp_path / "ops.jsonl"
        events.write_text(json.dumps({"tick": 1, "kind": "release", "acl": "acl1"}) + "\n" + line)
        code, _, err = invoke(capsys, "run", "case1", "--events", str(events))
        assert (code, err) == (2, f"error: {events}:2: bad event line: {message}\n")

    def test_unknown_scenario_is_an_input_error(self, capsys):
        code, _, err = invoke(capsys, "run", "no-such-scenario")
        assert code == 2
        assert "error:" in err

    def test_malformed_yaml_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("topology: [unclosed\n")
        code, _, err = invoke(capsys, "run", str(path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("body, problem", [
        ("seed: " + "9" * 5001, "Exceeds the limit (4300 digits) for integer string conversion"),
        ("name: 2020-13-45", "month must be in 1..12"),
        ("name: !!timestamp 2020-02-30", "day is out of range for month"),
    ], ids=["5001-digit-seed", "13th-month", "february-30"])
    def test_scalar_yaml_cannot_build_is_an_input_error(self, capsys, tmp_path, body, problem):
        path = tmp_path / "scalar.yaml"
        path.write_text(body + "\n")
        code, _, err = invoke(capsys, "run", str(path))
        assert code == 2
        assert err.startswith(f"error: invalid scenario YAML: {problem}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_zero_agent_period_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "zero-period.yaml"
        path.write_text(
            "name: zero-period\n"
            "topology: {nodes: [{id: n1, region: east, cpu: 1000, memory: 1000}]}\n"
            "agents: [{id: a, scope: [east], period: 0}]\n"
        )
        code, _, err = invoke(capsys, "run", str(path))
        assert code == 2
        assert "period must be >= 1" in err

    @pytest.mark.parametrize("period", ["abc", ".nan"])
    def test_non_numeric_agent_period_is_an_input_error(self, capsys, tmp_path, period):
        path = tmp_path / "bad-period.yaml"
        path.write_text(
            "name: bad-period\n"
            "topology: {nodes: [{id: n1, region: east, cpu: 1000, memory: 1000}]}\n"
            f"agents: [{{id: a, scope: [east], period: {period}}}]\n"
        )
        code, _, err = invoke(capsys, "run", str(path))
        assert code == 2
        assert "agent a: period" in err
        assert "Traceback" not in err


    TWO_REGIONS = (
        "topology: {nodes: [{id: n1, region: east, cpu: 1000, memory: 1000},"
        " {id: n2, region: west, cpu: 1000, memory: 1000}]}\n"
    )

    def run_document(self, capsys, tmp_path, body):
        path = tmp_path / "doc.yaml"
        path.write_text("name: doc\n" + self.TWO_REGIONS + body)
        code, _, err = invoke(capsys, "run", str(path))
        assert "Traceback" not in err
        return code, err

    @pytest.mark.parametrize("body, message", [
        ("topology: {nodes: [5]}\n", "topology.nodes[0]: expected a mapping"),
        ("topology: {nodes: [{id: n3, region: east, cpu: 1, memory: 1, taints: [3]}]}\n",
         "node n3 taint[0]: expected a mapping"),
        ("injected: [7]\n", "injected[0]: expected a mapping"),
        ("agents: [{id: a, scope: 5}]\n", "agent a: scope: expected a list"),
        ("traffic: [1]\n", "traffic: expected a mapping"),
        ("agents: [{id: a, scope: [east]}]\ntrust: [1]\n", "trust: expected a mapping"),
    ], ids=["node-int", "taint-int", "injected-int", "scope-int", "traffic-list",
            "trust-list"])
    def test_misshapen_document_is_an_input_error(self, capsys, tmp_path, body, message):
        code, err = self.run_document(capsys, tmp_path, body)
        assert code == 2
        assert f"error: {message}" in err

    @pytest.mark.parametrize("body, message", [
        ("manager: {e2e_perod: 3}\n", "manager: unknown key 'e2e_perod'"),
        ("agents: [{id: a, scope: [east], watermark_hi: 0.9}]\n",
         "agent a: unknown key 'watermark_hi'"),
        ("topology: {nodes: [{id: n3, region: east, cpu: 1, memory: 1, cpus: 2}]}\n",
         "node n3: unknown key 'cpus'"),
        ("agents: [{id: a, scope: [east]}, {id: b, scope: [west]}]\n"
         "trust: {a: [[b, Model]]}\n", "trust[a]: expected a mapping, got list"),
    ], ids=["manager-key", "agent-key", "node-key", "trust-pair"])
    def test_key_a_scenario_does_not_have_is_an_input_error(self, capsys, tmp_path, body,
                                                            message):
        code, err = self.run_document(capsys, tmp_path, body)
        assert (code, err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("level, message", [
        ('{name: low, value: 1, preemption: "false"}',
         "priority_levels[0]: preemption: expected bool, got 'false'"),
        ("{name: low, value: 1, preemption: 0}",
         "priority_levels[0]: preemption: expected bool, got 0"),
        ("{name: low, value: 1, global_default: 'yes'}",
         "priority_levels[0]: global_default: expected bool, got 'yes'"),
        ("{name: low, value: 1, global_default: null}",
         "priority_levels[0]: global_default: expected bool, got None"),
    ], ids=["preemption-text", "preemption-zero", "default-text", "default-null"])
    def test_bool_field_given_no_bool_is_an_input_error(self, capsys, tmp_path, level,
                                                        message):
        code, err = self.run_document(capsys, tmp_path, f"priority_levels: [{level}]\n")
        assert (code, err) == (2, f"error: {message}\n")

    def test_initial_pod_holding_a_generated_id_is_an_input_error(self, capsys, tmp_path):
        code, err = self.run_document(capsys, tmp_path, (
            "ticks: 10\n"
            "agents: [{id: acl1, scope: [east], pod_template: {cpu: 10, memory: 10}}]\n"
            "traffic: {east: {base: 5000}}\n"
            "initial_pods: [{id: acl1-pod-0, owner: tenant, node: n1, cpu: 10, memory: 10}]\n"
        ))
        assert code == 2
        assert "error: pod acl1-pod-0: id is taken by the pods agent 'acl1' creates" in err

    @pytest.mark.parametrize("scope", ["[e2e, zzz-bogus]", "[aaa-bogus, e2e]"])
    def test_scope_entry_matching_nothing_is_an_input_error(self, capsys, tmp_path, scope):
        code, err = self.run_document(capsys, tmp_path, f"agents: [{{id: a, scope: {scope}}}]\n")
        assert code == 2
        assert "error: agent a: scope entry '" in err
        assert "-bogus' matches no region, node, or container" in err

    def test_traffic_that_would_overflow_is_an_input_error(self, capsys, tmp_path):
        code, err = self.run_document(capsys, tmp_path, (
            "agents: [{id: a, scope: [east, west], pod_template: {cpu: 10, memory: 10}}]\n"
            "traffic: {east: {base: 1.0e308}, west: {base: 1.0e308}}\n"
        ))
        assert code == 2
        assert "error: traffic[east]: base must be in [-1e+15, 1e+15]" in err

    def test_pod_tolerating_powered_off_is_an_input_error(self, capsys, tmp_path):
        """Such a pod would land on a node the energy loop has powered off."""
        code, err = self.run_document(capsys, tmp_path, (
            "ticks: 8\n"
            "traffic: {east: {base: 900}}\n"
            "agents:\n"
            "  - {id: e, role: energy, scope: [east], idle_ticks: 1}\n"
            "  - id: s\n"
            "    scope: [east]\n"
            "    pod_template: {cpu: 100, memory: 100,\n"
            "                   tolerations: [{key: powered-off, effects: [NoSchedule]}]}\n"
        ))
        assert code == 2
        assert ("error: agent s pod_template.tolerations[0]: "
                "the key 'powered-off' is reserved") in err


class TestVerify:
    def test_good_trace_verifies(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        assert invoke(capsys, "run", "case1", "--out", str(path))[0] == 0
        code, out, _ = invoke(capsys, "verify", str(path), "case1")
        assert code == 0
        assert "trace verified" in out

    def test_tampered_trace_fails_with_3(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case1", "--out", str(path))
        lines = path.read_text().splitlines()
        idx, line = next(
            (i, l) for i, l in enumerate(lines) if '"kind":"pod-bound"' in l
        )
        event = json.loads(line)
        event["node"] = "core-toronto" if event["node"] != "core-toronto" else "edge-calgary"
        lines[idx] = json.dumps(event, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = invoke(capsys, "verify", str(path), "case1")
        assert code == 3
        assert "1 diverging line(s)" in out
        assert "line 16" in out  # header is line 1, tampered event is seq 14

    @pytest.mark.parametrize("tamper", [
        lambda lines: lines[:3] + [lines[3].replace(",", ", ", 1)] + lines[4:],
        lambda lines: lines[:3] + [""] + lines[3:],
    ], ids=["space-after-comma", "blank-line"])
    def test_reformatted_trace_fails_with_3(self, capsys, tmp_path, tamper):
        # both tampers parse to the same events; only the bytes differ
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case1", "--out", str(path))
        lines = path.read_text().split("\n")
        path.write_text("\n".join(tamper(lines)))
        assert load_trace(str(path)).events == parse_trace("\n".join(lines)).events
        code, out, _ = invoke(capsys, "verify", str(path), "case1")
        assert code == 3
        assert out.splitlines()[1].startswith("  line 4: expected")

    def test_crlf_trace_fails_with_3(self, capsys, tmp_path):
        # a file is compared as written: CRLF endings are not read back as "\n"
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case1", "--out", str(path))
        lines = path.read_bytes().decode().split("\n")
        path.write_bytes("\r\n".join(lines).encode())
        code, out, _ = invoke(capsys, "verify", str(path), "case1")
        assert code == 3
        assert out.startswith(f"{len(lines) - 1} diverging line(s)")
        report = verify_trace(load_trace(str(path)), load_scenario("case1"))
        assert report.divergences == [
            {"line": i + 1, "actual": line + "\r", "expected": line}
            for i, line in enumerate(lines) if line]

    def test_crlf_trace_still_summarizes(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case1", "--out", str(path))
        _, expected, _ = invoke(capsys, "summarize", str(path))
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        code, out, _ = invoke(capsys, "summarize", str(path))
        assert code == 0
        assert out == expected

    def test_wrong_scenario_fails_with_3(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case2", "--out", str(path))
        code, _, err = invoke(capsys, "verify", str(path), "case1")
        assert code == 3
        assert "error:" in err

    def test_override_verifies_against_the_scenario_without_normalizing(
            self, capsys, tmp_path, monkeypatch):
        # the header's seed and ticks are stamped on the loaded scenario: the
        # scenario document is normalized once, when verify loads it
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "three-acl-conflict", "--seed", "3", "--ticks", "9",
               "--out", str(path))
        scn = load_scenario("three-acl-conflict")
        normalize, calls = scenario_mod.normalize, []
        monkeypatch.setattr(scenario_mod, "normalize",
                            lambda data: calls.append(data) or normalize(data))
        assert verify_trace(load_trace(str(path)), scn).ok
        assert calls == []
        code, out, _ = invoke(capsys, "verify", str(path), "three-acl-conflict")
        assert (code, out) == (0, "trace verified: replay identical, all invariants hold\n")
        assert len(calls) == 1
        # a header seed that is no int is an input error, with the text a
        # scenario's own seed gets
        lines = path.read_text().split("\n")
        header = json.loads(lines[0])
        path.write_text("\n".join([json.dumps({**header, "seed": "abc"})] + lines[1:]))
        code, _, err = invoke(capsys, "verify", str(path), "three-acl-conflict")
        assert (code, err) == (2, "error: scenario: seed: expected int, got 'abc'\n")
        # another scenario's trace still fails to match, whatever the override
        path.write_text("\n".join(lines))
        code, _, err = invoke(capsys, "verify", str(path), "case1")
        assert code == 3
        assert err.startswith("error: trace was recorded from a different scenario (hash ")

    def test_missing_trace_file_is_an_input_error(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "verify", str(tmp_path / "nope.jsonl"), "case1")
        assert code == 2
        assert "error:" in err


def _drop_node_from_first_binding(lines):
    idx = next(i for i, line in enumerate(lines) if '"kind":"pod-bound"' in line)
    event = json.loads(lines[idx])
    del event["node"]
    return lines[:idx] + [json.dumps(event)] + lines[idx + 1:]


class TestMalformedTrace:
    """A trace edited into something no run writes is an input error (exit 2)
    for both readers, never a traceback."""

    @pytest.mark.parametrize("command", ["verify", "summarize"])
    @pytest.mark.parametrize("tamper, message", [
        (lambda lines: lines[:2] + ["[1,2]"] + lines[3:], "not a JSON object (line 3)"),
        (lambda lines: lines[:2] + ["{}"] + lines[3:], "'seq' is missing (line 3)"),
        (_drop_node_from_first_binding, "pod-bound event: 'node' is missing"),
    ], ids=["array", "empty-object", "pod-bound-without-node"])
    def test_malformed_event_is_an_input_error(self, capsys, tmp_path, command,
                                               tamper, message):
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case2", "--out", str(path))
        path.write_text("\n".join(tamper(path.read_text().split("\n"))))
        args = [command, str(path)] + (["case2"] if command == "verify" else [])
        code, _, err = invoke(capsys, *args)
        assert code == 2
        assert err.startswith("error: bad ")
        assert message in err

    @pytest.mark.parametrize("command", ["verify", "summarize"])
    def test_event_nested_100000_deep_is_an_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case2", "--out", str(path))
        lines = path.read_text().split("\n")
        path.write_text("\n".join(lines[:3] + ["[" * 100_000 + "]" * 100_000] + lines[3:]))
        args = [command, str(path)] + (["case2"] if command == "verify" else [])
        code, _, err = invoke(capsys, *args)
        assert code == 2
        assert err == "error: bad trace event: nested too deeply (line 4)\n"

    @pytest.mark.parametrize("scenario, edit", [
        ("case2", lambda event: {**event, "note": "edited"}),
        ("case1", lambda event: event),
        ("no-such-scenario", lambda event: event),
    ], ids=["after-a-divergence", "wrong-scenario", "unknown-scenario"])
    def test_malformed_line_is_named_before_any_other_failure(self, capsys, tmp_path,
                                                              scenario, edit):
        # verify reads only the lines its replay does not reproduce, yet a
        # malformed line anywhere is still the error, as when it parsed them all
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case2", "--out", str(path))
        lines = path.read_text().split("\n")
        lines[2] = json.dumps(edit(json.loads(lines[2])), sort_keys=True, separators=(",", ":"))
        lines[10] = "{"
        path.write_text("\n".join(lines))
        code, _, err = invoke(capsys, "verify", str(path), scenario)
        assert (code, err) == (2, "error: bad trace event: Expecting property name enclosed "
                                  "in double quotes: line 1 column 2 (char 1) (line 11)\n")

    @pytest.mark.parametrize("command", ["verify", "summarize"])
    @pytest.mark.parametrize("line, key, digits, error", [
        (6, "value", 401, "bad prediction event: 'value' does not fit in a float"),
        (6, "value", 5001, "bad trace event: an integer too long to read"),
        (1, "seed", 5001, "bad trace header: an integer too long to read"),
    ], ids=["401-digit-value", "5001-digit-value", "5001-digit-seed"])
    def test_a_number_no_reader_can_use_is_an_input_error(self, capsys, tmp_path, command,
                                                          line, key, digits, error):
        # case2's line 6 is its first prediction; verify of the 401-digit
        # value exits 2 as well, though the line would diverge
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case2", "--out", str(path))
        lines = path.read_text().split("\n")
        event = json.loads(lines[line - 1])
        assert event.get("kind", "prediction") == "prediction"
        lines[line - 1] = json.dumps({**event, key: "@"}).replace('"@"', "9" * digits)
        path.write_text("\n".join(lines))
        args = [command, str(path)] + (["case2"] if command == "verify" else [])
        assert invoke(capsys, *args)[::2] == (2, f"error: {error} (line {line})\n")

    def test_an_int_in_a_float_key_is_summed_as_its_float(self, capsys, tmp_path):
        # each fits a float, and the difference of the two ints does not
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case2", "--out", str(path))
        lines = path.read_text().split("\n")
        lines[5] = json.dumps({**json.loads(lines[5]), "value": 10 ** 308, "truth": -10 ** 308})
        path.write_text("\n".join(lines))
        code, out, _ = invoke(capsys, "summarize", str(path))
        assert code == 0
        assert out.endswith("prediction mae: acl1=inf\n")

    def test_error_names_the_physical_line(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case2", "--out", str(path))
        lines = path.read_text().split("\n")
        path.write_text("\n".join(lines[:3] + ["", "{"] + lines[3:]))
        code, _, err = invoke(capsys, "summarize", str(path))
        assert code == 2
        assert "(line 5)" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "{path}", "case1"], ["summarize", "{path}"], ["run", "{path}"],
        ["run", "case1", "--events", "{path}"],
    ], ids=["verify", "summarize", "run", "events"])
    @pytest.mark.parametrize("make", [
        lambda path: path.write_bytes(b"\xff\xfe{}"), lambda path: path.mkdir(),
    ], ids=["not-utf8", "directory"])
    def test_unreadable_input_file_is_an_input_error(self, capsys, tmp_path, argv, make):
        path = tmp_path / "input"
        make(path)
        code, _, err = invoke(capsys, *(a.format(path=path) for a in argv))
        assert code == 2
        assert err.startswith("error: ")

    def test_binding_to_an_unknown_node_is_a_violation(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case2", "--out", str(path))
        lines = path.read_text().split("\n")
        idx = next(i for i, line in enumerate(lines) if '"kind":"pod-bound"' in line)
        lines[idx] = lines[idx].replace('"node":"', '"node":"nowhere-', 1)
        path.write_text("\n".join(lines))
        code, out, _ = invoke(capsys, "verify", str(path), "case2")
        assert code == 3
        assert "to unknown node 'nowhere-" in out


class TestSummarize:
    def test_digest_of_a_recorded_trace(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        invoke(capsys, "run", "case2", "--out", str(path))
        code, out, _ = invoke(capsys, "summarize", str(path))
        assert code == 0
        assert "scenario case2 (seed 7, 3 ticks)" in out
        assert "edge-calgary: stream-a, tenant-web" in out


class TestListScenarios:
    def test_lists_the_builtin_catalog(self, capsys):
        code, out, _ = invoke(capsys, "list-scenarios")
        assert code == 0
        assert out.splitlines() == list(list_scenarios())
        assert "case1" in out


class TestRelease:
    def test_appends_a_release_event(self, capsys, tmp_path):
        events = tmp_path / "ops.jsonl"
        code, out, _ = invoke(
            capsys, "release", "burst", "--tick", "25", "--events", str(events)
        )
        assert code == 0
        assert "queued release" in out
        assert json.loads(events.read_text()) == {
            "tick": 25, "kind": "release", "acl": "burst",
        }

    def test_appends_rather_than_overwrites(self, capsys, tmp_path):
        events = tmp_path / "ops.jsonl"
        invoke(capsys, "release", "a", "--tick", "1", "--events", str(events))
        invoke(capsys, "release", "b", "--tick", "2", "--events", str(events))
        acls = [json.loads(l)["acl"] for l in events.read_text().splitlines()]
        assert acls == ["a", "b"]

    def test_a_negative_tick_is_refused_and_nothing_is_written(self, capsys, tmp_path):
        events = tmp_path / "ops.jsonl"
        events.write_text("")
        code, _, err = invoke(capsys, "release", "slice", "--tick", "-3", "--events", str(events))
        assert code == 2
        assert "release: tick must be >= 0, got -3" in err
        assert events.read_text() == ""
        code, _, _ = invoke(capsys, "run", "three-acl-conflict", "--events", str(events))
        assert code == 0

    def test_round_trip_through_run(self, capsys, tmp_path):
        scn_path = tmp_path / "hot.yaml"
        scn_path.write_text(
            "name: hot\n"
            "seed: 3\n"
            "ticks: 30\n"
            "topology:\n"
            "  nodes:\n"
            "    - {id: n1, region: east, cpu: 64000, memory: 64000}\n"
            "agents:\n"
            "  - id: burst\n"
            "    scope: [east]\n"
            "    alpha: 1.0\n"
            "    pod_capacity_units: 1.0\n"
            "    hysteresis_ticks: 1\n"
            "    pod_template: {cpu: 1, memory: 1}\n"
            "traffic:\n"
            "  east:\n"
            "    base: 1000.0\n"
            "    steps: [{at: 20, base: 5000.0}]\n"
        )
        events = tmp_path / "ops.jsonl"
        invoke(capsys, "release", "burst", "--tick", "25", "--events", str(events))
        code, out, _ = invoke(
            capsys, "run", str(scn_path), "--events", str(events)
        )
        assert code == 0
        kinds = [e["kind"] for e in parse_trace(out).events]
        assert "agent-released" in kinds


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "case1", "--frobnicate"])
        assert exc.value.code == 1

    def test_release_requires_tick(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["release", "burst", "--events", "x.jsonl"])
        assert exc.value.code == 1
