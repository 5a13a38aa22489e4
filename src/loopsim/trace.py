"""Trace format: one JSON header line, then one JSON line per event.

Events carry a global sequence number and the tick they occurred in. A line is
exactly ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``: sorted
keys, no spaces, non-ASCII text as ``\\u`` escapes, and ``NaN``/``Infinity``
allowed, so identical runs produce identical bytes; ``verify`` compares its
replay with the recorded text one tick at a time. A file is read and written
with no newline translation, so the bytes compared are the bytes on disk.

``parse_trace`` reads each line as ``json.loads`` would, with the same error
messages, and rejects a line nested too deeply to read and an event that
lacks, or mistypes, a key the readers of a trace use. It lets go of each line once read, and its events share one
copy of each key and of each text value, so a parsed trace is about the size
of the engine's own events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ParseError

TRACE_FORMAT = "loopsim-trace/1"


# The encoder and scanner ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
# and ``json.loads`` build or reach on every call, built once. The encoder skips
# only the circular-reference check: an event is a fresh, acyclic dict.
if json.encoder.c_make_encoder is not None:
    _ENCODE = json.encoder.c_make_encoder(  # markers, default, encoder, indent,
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ":", ",", True, False, True)  # key and item separators, sort_keys, skipkeys, allow_nan

    def _dump(obj: dict) -> str:
        return "".join(_ENCODE(obj, 0))  # a list before 3.12, a tuple since
else:  # no _json accelerator
    _dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_SCAN = json.scanner.make_scanner(json.JSONDecoder())
_SPACE = json.decoder.WHITESPACE.match


def _load(line: str):
    """``json.loads(line)``: the same value, or a ``JSONDecodeError`` with the same text."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    try:
        obj, end = _SCAN(line, _SPACE(line, 0).end())
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", line, err.value) from None
    end = _SPACE(line, end).end()
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return obj


@dataclass
class Trace:
    header: dict
    events: list[dict] = field(default_factory=list)
    # the text this trace was parsed from, verbatim; verify compares it
    text: str | None = field(default=None, compare=False, repr=False)

    def lines(self) -> list[str]:
        return [_dump(self.header)] + [_dump(e) for e in self.events]

    def dumps(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def write(self, path: str) -> None:
        """Write ``dumps()``'s bytes line by line, never holding the whole text."""
        with open(path, "w", encoding="utf-8", newline="") as fh:  # "\n", on every OS
            fh.write(_dump(self.header) + "\n")
            for event in self.events:
                fh.write(_dump(event) + "\n")


_INT, _NUMBER, _TEXT = (int,), (int, float), (str,)  # a JSON true is no count
# the types of each key a reader uses, the same in every kind; any other is text
_TYPES = {**dict.fromkeys(("seq", "tick", "cpu", "memory", "priority", "until", "bound",
                           "pending", "terminated", "pods"), _INT),
          "value": _NUMBER, "truth": _NUMBER, "initial": (list,), "extra_events": (list,)}

# Every event kind, once: its tick-phase rank (within one tick the rank never
# goes down) and the keys that ``Metrics.from_trace``, ``check_invariants``
# and ``summarize`` in ``sim`` read of it.
EVENT_KINDS: dict[str, tuple[int, tuple[str, ...]]] = {
    "traffic": (1, ()), "taint-applied": (1, ()), "taint-removed": (1, ()),
    "slice-requested": (1, ()), "exchange-granted": (1, ()), "knowledge-absorbed": (1, ()),
    "exchange-denied": (1, ("reason",)), "agent-released": (1, ("acl",)),
    "prediction": (2, ("acl", "value", "truth")), "intent-submitted": (3, ()),
    "coherency": (4, ("verdict",)), "lifecycle": (4, ("acl", "after")),
    "conflict-detected": (4, ("conflict",)), "intent-dropped": (4, ("reason",)),
    "conflict-resolved": (4, ("conflict", "instance", "outcome")),
    "intent-requeued": (4, ()), "intent-buffered": (4, ()), "intent-applied": (5, ()),
    "pod-created": (5, ("pod", "cpu", "memory", "priority")), "pod-terminated": (5, ("pod",)),
    "power-off": (5, ()), "power-on": (5, ()), "pod-evicted": (6, ("pod", "cause")),
    "pod-bound": (6, ("pod", "node")), "pod-pending": (6, ("pod",)),
    "tick-end": (7, ("bound", "pending", "terminated", "pods")),
}


def _spec(*keys: str) -> tuple[tuple[str, tuple[type, ...]], ...]:
    return tuple((key, _TYPES.get(key, _TEXT)) for key in keys)


_ENVELOPE = _spec("seq", "tick", "kind")
_SPECS = {kind: _ENVELOPE + _spec(*keys) for kind, (_, keys) in EVENT_KINDS.items()}


def _check(obj, spec, what: str, line: int) -> None:
    if type(obj) is not dict:
        raise ParseError(f"bad {what}: not a JSON object", line=line)
    for key, types in spec:
        if type(obj.get(key)) not in types:
            problem = "is missing" if key not in obj else \
                "must be " + " or ".join(t.__name__ for t in types)
            raise ParseError(f"bad {what}: {key!r} {problem}", line=line)


def _check_event(event, line: int) -> None:
    """An unknown kind passes: ``check_invariants`` reports it as a violation."""
    kind = event.get("kind") if type(event) is dict else None
    kind = kind if type(kind) is str else "trace"
    spec = _SPECS.get(kind, _ENVELOPE)
    if kind == "conflict-resolved":  # summarize reads these by outcome
        arbitrated = event.get("outcome") == "arbitrated"
        spec += _spec("winner") if arbitrated else _spec("frozen", "until")
    _check(event, spec, f"{kind} event", line)
    if "preempted" in event:  # only pod-bound carries it: the victims' ids
        victims = event["preempted"]
        if type(victims) is not list or any(type(v) is not str for v in victims):
            raise ParseError(f"bad {kind} event: 'preempted' must be a list of str", line=line)


def parse_trace(text: str) -> Trace:
    """Parse and check a trace; a ``ParseError`` names its line as ``verify`` counts it."""
    header, events = None, []
    share = {}.setdefault  # one copy of each key and text value, for every event
    lines = text.split("\n")
    lines.reverse()  # popped from the end, so each line goes once it is read
    i = 0
    while lines:
        line = lines.pop()
        i += 1
        if not line.strip():
            continue
        try:
            obj = _load(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            what = "header" if header is None else "event"
            problem = exc if isinstance(exc, json.JSONDecodeError) else "nested too deeply"
            raise ParseError(f"bad trace {what}: {problem}", line=i) from None
        if header is not None:
            _check_event(obj, i)
            events.append({share(k, k): share(v, v) if type(v) is str else v
                           for k, v in obj.items()})
            continue
        if type(obj) is not dict or obj.get("format") != TRACE_FORMAT:
            raise ParseError(f"not a {TRACE_FORMAT} trace", line=i)
        _check(obj, _spec("scenario_hash", "initial", "extra_events"), "trace header", i)
        for placement in obj["initial"]:
            _check(placement, _spec("pod", "node"), "initial placement", i)
        header = obj
    if header is None:
        raise ParseError("empty trace")
    return Trace(header, events, text)


def load_trace(path: str) -> Trace:
    with open(path, encoding="utf-8", newline="") as fh:  # no "\r" rewritten: verify sees the bytes
        return parse_trace(fh.read())
