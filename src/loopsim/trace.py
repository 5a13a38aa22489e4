"""Trace format: one JSON header line, then one JSON line per event.

Events carry a global sequence number and the tick they occurred in. A line is
exactly ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``: sorted
keys, no spaces, non-ASCII text as ``\\u`` escapes, and ``NaN``/``Infinity``
allowed, so identical runs produce identical bytes. ``verify`` compares its
replay with the recorded text one tick at a time: a tick's replayed lines,
each followed by ``"\\n"``, are one string, which the text must hold at the
current offset. Only a tick that differs is compared line by line. A file is
read and written with no newline translation, so the bytes compared are the
bytes on disk.

An event's line comes from ``_line``, which hands the event to the writer of
its shape. ``EVENT_SHAPES`` lists every shape the engine writes: a kind, its
keys, and each key's JSON type (str, int, finite float or list of str);
``pod-bound`` with and without ``preempted``, and ``conflict-resolved``
arbitrated or frozen, make 28 shapes of the 26 kinds. At import each shape
gets one writer, an f-string over its sorted keys with ``"kind":"<kind>"`` as
constant text, compiled from the table alone: no input is ever compiled, and
nothing is cached. A writer first checks that the event has exactly its
shape's keys, each str key a str, each int key an int (not a bool), each float
key a finite float and each list key a list of str. An event that fails the
check, or has no shape, goes to ``_dump``, the reference encoder, which also
writes the header: it gives ``json.dumps``'s bytes, or raises its error.
``chunks``, ``dumps``, ``write``, ``lines`` and ``verify``'s replay all write
event lines through ``_line``.

``Trace.chunks`` is the one producer of a trace's text: the header's line,
then the events' lines ``CHUNK_LINES`` at a time, each chunk one ``str``.
``write`` and ``loopsim run`` to stdout write the chunks as they come, so they
hold one chunk of text at a time; ``dumps`` joins them, so it holds the chunks
and the joined text, about twice the text, and never a list of every line.
``Trace.lines`` encodes a run's events into the same lines, one at a time,
each as it is asked for; it never reads a parsed trace's text. ``verify`` of
a trace straight from a run takes the recorded side of each tick from it, so
it holds one tick's lines of its text at a time.

Each line is read as ``json.loads`` would, with the same error messages; a
line nested too deeply to read, and an event that lacks, or mistypes, a key
the readers of a trace use, are rejected too. ``parse_trace`` reads and
checks only the header and keeps the text: a parsed trace's ``events`` are
read on first use, and then share one copy of each key and of each text
value, so they are about the size of the engine's own events. ``verify``
never asks for them, and never splits the text. A line equal to its replayed
line is that event, since ``_load(_dump(e)) == e`` for every event a run
writes, so it reads only the lines that differ.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json

from .errors import ParseError

TRACE_FORMAT = "loopsim-trace/1"
CHUNK_LINES = 1024  # event lines per chunk of text


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


# Every shape of event the engine writes: its kind and the JSON type of each
# key besides seq and tick (int) and kind: str, int, a finite float, or a list
# of str. A key of a kind that the engine does not always write is a second
# shape of that kind.
EVENT_SHAPES: tuple[tuple[str, dict[str, type]], ...] = (
    ("traffic", {"region": str, "value": float}),
    ("taint-applied", {"node": str, "key": str, "effect": str}),
    ("taint-removed", {"node": str, "key": str}),
    ("slice-requested", {"id": str, "agent": str, "links": int}),
    ("exchange-granted", {"artifact": str, "source": str, "target": str, "artifact_kind": str}),
    ("knowledge-absorbed", {"acl": str, "artifact": str, "artifact_kind": str}),
    ("exchange-denied", {"source": str, "target": str, "artifact_kind": str, "reason": str}),
    ("agent-released", {"acl": str}),
    ("prediction", {"acl": str, "value": float, "truth": float}),
    ("intent-submitted", {"id": str, "acl": str, "action": str, "target": str,
                          "magnitude": float, "check_tick": int}),
    ("coherency", {"acl": str, "magnitude": float, "verdict": str}),
    ("lifecycle", {"acl": str, "before": str, "after": str}),
    ("conflict-detected", {"id": str, "conflict": str, "participants": list, "targets": list,
                           "instance": str}),
    ("conflict-resolved", {"id": str, "conflict": str, "instance": str, "detected_tick": int,
                           "outcome": str, "winner": str, "losers": list}),
    ("conflict-resolved", {"id": str, "conflict": str, "instance": str, "detected_tick": int,
                           "outcome": str, "frozen": str, "until": int}),
    ("intent-dropped", {"id": str, "acl": str, "reason": str}),
    ("intent-requeued", {"id": str, "acl": str, "next_tick": int}),
    ("intent-buffered", {"id": str, "acl": str, "until": int}),
    ("intent-applied", {"id": str, "acl": str}),
    ("pod-created", {"pod": str, "acl": str, "cpu": int, "memory": int, "priority": int}),
    ("pod-terminated", {"pod": str, "acl": str}),
    ("power-off", {"node": str, "acl": str}),
    ("power-on", {"node": str, "acl": str}),
    ("pod-evicted", {"pod": str, "node": str, "cause": str}),
    ("pod-bound", {"pod": str, "node": str}),
    ("pod-bound", {"pod": str, "node": str, "preempted": list}),
    ("pod-pending", {"pod": str, "reason": str}),
    ("tick-end", {"bound": int, "pending": int, "terminated": int, "pods": int}),
)

_s = json.encoder.encode_basestring_ascii  # a str's JSON text, quoted, as _dump writes it
_join = ",".join

# The code of a writer, for slots v0, v1, ... of the keys k0, k1, ... with
# the constant text t0, t1, ... before, between and after them. A key of
# another shape, a list item that is no str, an int too long to write: the
# event goes on to the next shape of its kind and size, else to _dump, which
# writes its line or raises json's error.
_WRITER = """\
def make({keys}, {texts}, then):
    def write(e):
        try:
            {loads}
            if {guards}:
                return f'{line}'
        except (KeyError, TypeError, ValueError):
            pass
        return _dump(e) if then is None else then(e)
    return write
"""
# a slot's check, and its text in the line, by the slot's JSON type
_GUARD = {str: "type({v}) is str", int: "type({v}) is int",
          float: "type({v}) is float and {v} - {v} == 0.0", list: "type({v}) is list"}
_TEXT = {str: "{{_s({v})}}", int: "{{{v}}}", float: "{{{v}!r}}", list: "{{_join(map(_s, {v}))}}"}


def _writer(kind: str, slots: dict[str, type], then):
    """The writer of one shape. Only the number of slots and their JSON types
    reach the code compiled; the keys and the text are values it closes over."""
    keys, types, texts, text = [], [], [], "{"
    for i, key in enumerate(sorted([*slots, "seq", "tick", "kind"])):
        text += ("," if i else "") + _s(key) + ":"
        if key == "kind":
            text += _s(kind)
            continue
        keys.append(key)
        types.append(slots.get(key, int))
        texts.append(text + "[" * (types[-1] is list))
        text = "]" * (types[-1] is list)
    texts.append(text + "}")
    names = [f"v{i}" for i in range(len(keys))]
    source = _WRITER.format(
        keys=", ".join(f"k{i}" for i in range(len(keys))),
        texts=", ".join(f"t{i}" for i in range(len(texts))),
        loads="; ".join(f"{v} = e[k{i}]" for i, v in enumerate(names)),
        guards=" and ".join(_GUARD[t].format(v=v) for t, v in zip(types, names)),
        line="".join(f"{{t{i}}}" + _TEXT[t].format(v=v)
                     for i, (t, v) in enumerate(zip(types, names))) + f"{{t{len(names)}}}")
    namespace = {}
    exec(source, globals(), namespace)  # the table's constants only, never an input
    return namespace["make"](*keys, *texts, then)


def _writers():
    """One writer per shape of ``EVENT_SHAPES``, in its order, and the first
    one to try for each kind and number of keys."""
    writers, first = [], {}
    for kind, slots in reversed(EVENT_SHAPES):  # an earlier shape is tried first
        size = (kind, len(slots) + 3)
        first[size] = _writer(kind, slots, first.get(size))
        writers.append(first[size])
    return tuple(reversed(writers)), first


_WRITERS, _FIRST_WRITER = _writers()


def _line(event) -> str:
    """``_dump(event)``, written by the writer of the event's shape when it has one."""
    try:
        write = _FIRST_WRITER[event["kind"], len(event)] if type(event) is dict else _dump
    except (KeyError, TypeError):  # no kind, or one no shape has
        write = _dump
    return write(event)


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


def _lines(text: str):
    """``text.split("\\n")``, one line at a time."""
    pos = 0
    while (end := text.find("\n", pos)) >= 0:
        yield text[pos:end]
        pos = end + 1
    yield text[pos:]


class Trace:
    """A header and its events. One from ``parse_trace`` keeps its ``text``,
    verbatim, and reads its events from it on first use; ``header_line`` is
    the header's line number in that text. ``chunks`` produces the text
    (``dumps`` and ``write`` re-encode the events, never ``text``), and
    holds at most ``CHUNK_LINES`` event lines as separate strings at once."""

    def __init__(self, header: dict, events: list[dict] | None = None,
                 text: str | None = None, header_line: int = 1):
        self.header = header
        self.text = text
        self.header_line = header_line
        if events is not None or text is None:
            self.events = [] if events is None else events

    # a cached_property is stored on the instance: once set, ``events`` reads
    # as a plain attribute, on the path every ``World.emit`` takes
    @functools.cached_property
    def events(self) -> list[dict]:
        """The events after the header, each read and checked on first use."""
        share = {}.setdefault  # one copy of each key and text value, for every event
        return [{share(k, k): share(v, v) if type(v) is str else v
                 for k, v in read_event(line, number).items()}
                for number, line in enumerate(_lines(self.text), 1)
                if number > self.header_line and line.strip()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.header, self.events) == (other.header, other.events)

    def __repr__(self) -> str:
        events = repr(vars(self)["events"]) if "events" in vars(self) else "<unread>"
        return f"Trace(header={self.header!r}, events={events})"

    @contextlib.contextmanager
    def parse_errors_first(self):
        """An error raised in the block gives way to the ``ParseError`` of the
        first malformed line, if any, as if every line had been read first."""
        try:
            yield
        except Exception:
            self.events  # noqa: B018 (read for the error it raises)
            raise

    def _encoded(self):
        """The text's lines, each without its ``"\\n"``: the header's, then each
        event's, encoded as they are asked for."""
        return itertools.chain((_dump(self.header),), map(_line, self.events))

    def chunks(self):
        """The text, in order: the header's line, then the events' lines
        ``CHUNK_LINES`` at a time, each chunk ending in ``"\\n"``."""
        lines = self._encoded()
        yield next(lines) + "\n"
        while chunk := list(itertools.islice(lines, CHUNK_LINES)):
            chunk.append("")  # the last line's "\n"
            yield "\n".join(chunk)

    def lines(self):
        """The lines ``chunks`` joins, as ``split("\\n")`` gives them, one at a
        time: a run's events encoded when asked for, after the header's line,
        and then the empty line after the last ``"\\n"``.  ``text`` is never
        read."""
        return itertools.chain(self._encoded(), ("",))

    def dumps(self) -> str:
        return "".join(self.chunks())

    def write(self, path: str) -> None:
        """Write ``dumps()``'s bytes one chunk at a time."""
        with open(path, "w", encoding="utf-8", newline="") as fh:  # "\n", on every OS
            fh.writelines(self.chunks())


_INT, _NUMBER, _TEXT = (int,), (int, float), (str,)  # a JSON true is no count
# the types of each key a reader uses, the same in every kind; any other is text
_TYPES = {**dict.fromkeys(("seq", "tick", "cpu", "memory", "priority", "until", "bound",
                           "pending", "terminated", "pods"), _INT),
          "value": _NUMBER, "truth": _NUMBER, "initial": (list,), "extra_events": (list,)}

# Every event kind, once: its tick-phase rank (within one tick the rank never
# goes down) and the keys that ``audit``, the one reader of the events
# (``Metrics``, ``check_invariants`` and ``summarize``), reads of it.
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
    """An unknown kind passes: ``audit.check_invariants`` reports it as a violation."""
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


def _read(line: str, number: int, what: str):
    try:
        return _load(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        problem = exc if isinstance(exc, json.JSONDecodeError) else "nested too deeply"
        raise ParseError(f"bad trace {what}: {problem}", line=number) from None


def read_event(line: str, number: int) -> dict:
    """The event on line *number*, read and checked."""
    event = _read(line, number, "event")
    _check_event(event, number)
    return event


def parse_trace(text: str) -> Trace:
    """Read and check the header, the first non-blank line; the events are read
    when first asked for. A ``ParseError`` names its line as ``verify`` counts it."""
    for number, line in enumerate(_lines(text), 1):
        if not line.strip():
            continue
        header = _read(line, number, "header")
        if type(header) is not dict or header.get("format") != TRACE_FORMAT:
            raise ParseError(f"not a {TRACE_FORMAT} trace", line=number)
        _check(header, _spec("scenario_hash", "initial", "extra_events"), "trace header", number)
        for placement in header["initial"]:
            _check(placement, _spec("pod", "node"), "initial placement", number)
        return Trace(header, text=text, header_line=number)
    raise ParseError("empty trace")


def load_trace(path: str) -> Trace:
    with open(path, encoding="utf-8", newline="") as fh:  # no "\r" rewritten: verify sees the bytes
        return parse_trace(fh.read())
