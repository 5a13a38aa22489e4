"""Trace format: one JSON header line, then one JSON line per event.

Events carry a global sequence number and the tick they occurred in. A line is
exactly ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``: sorted
keys, no spaces, non-ASCII text as ``\\u`` escapes, and ``NaN``/``Infinity``
allowed, so identical runs produce identical bytes.

``EVENTS`` is the one declaration of what an event holds: for each kind, its
tick-phase rank and its shapes, 28 of them for the 26 kinds, and for each key
its JSON type (str, int, finite float or list of str) and whether ``audit``
reads it. At import it gives each shape a writer compiled from the table
alone, the reader its checks and ``audit`` its ranks. ``_line`` writes an
event with the writer of its shape; any other event, and the header, goes to
``_dump``, the reference encoder, which gives ``json.dumps``'s bytes or raises
its error. A writer takes a float's text from ``_FLOAT_TEXT``, a bounded memo
of ``repr`` of the nonzero floats written lately, so the memo never changes a
byte.

``Trace.chunks`` is the one producer of a trace's text, ``CHUNK_LINES`` event
lines at a time.

Each line is read as ``json.loads`` would, with the same error messages. A
line nested too deeply, or with an int too long to read, is rejected, and so
is an event that lacks or mistypes a key ``audit`` reads. ``parse_trace``
reads only the header and keeps the text: ``events`` are read on first use.
``verify`` reads only the lines that differ from its replay: a line equal to
its replayed line is that event, since ``_load(_dump(e)) == e`` for every
event a run writes.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
from collections.abc import Callable
from typing import NamedTuple

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


class EventKind(NamedTuple):
    """A kind of event: its tick-phase rank (within one tick the rank never goes down),
    the keys of all its events, each shape's own keys, and ``pick``, the index in
    ``shapes`` of the shape an event is read as. A key is "name:type", of JSON type str,
    int, float (finite) or list (of str); "!" marks a key that ``audit`` reads."""

    rank: int
    keys: str
    shapes: tuple[str, ...] = ("",)
    pick: Callable[[dict], int] = lambda event: 0


_ENVELOPE = "seq:int! tick:int! kind:str!"  # the keys every event holds first
EVENTS: dict[str, EventKind] = {  # every kind of event the engine writes, once
    "traffic": EventKind(1, "region:str value:float"),
    "taint-applied": EventKind(1, "node:str key:str effect:str"),
    "taint-removed": EventKind(1, "node:str key:str"),
    "slice-requested": EventKind(1, "id:str agent:str links:int"),
    "exchange-granted": EventKind(1, "artifact:str source:str target:str artifact_kind:str"),
    "knowledge-absorbed": EventKind(1, "acl:str artifact:str artifact_kind:str"),
    "exchange-denied": EventKind(1, "source:str target:str artifact_kind:str reason:str!"),
    "agent-released": EventKind(1, "acl:str!"),
    "prediction": EventKind(2, "acl:str! value:float! truth:float!"),
    "intent-submitted": EventKind(
        3, "id:str acl:str action:str target:str magnitude:float check_tick:int"),
    "coherency": EventKind(4, "acl:str magnitude:float verdict:str!"),
    "lifecycle": EventKind(4, "acl:str! before:str after:str!"),
    "conflict-detected": EventKind(
        4, "id:str conflict:str! participants:list targets:list instance:str"),
    "conflict-resolved": EventKind(  # arbitrated or frozen, by outcome, as summarize reads it
        4, "id:str conflict:str! instance:str! detected_tick:int outcome:str!",
        ("winner:str! losers:list", "frozen:str! until:int!"),
        lambda event: event.get("outcome") != "arbitrated"),
    "intent-dropped": EventKind(4, "id:str acl:str reason:str!"),
    "intent-requeued": EventKind(4, "id:str acl:str next_tick:int"),
    "intent-buffered": EventKind(4, "id:str acl:str until:int"),
    "intent-applied": EventKind(5, "id:str acl:str"),
    "pod-created": EventKind(5, "pod:str! acl:str cpu:int! memory:int! priority:int!"),
    "pod-terminated": EventKind(5, "pod:str! acl:str"),
    "power-off": EventKind(5, "node:str acl:str"),
    "power-on": EventKind(5, "node:str acl:str"),
    "pod-evicted": EventKind(6, "pod:str! node:str cause:str!"),
    "pod-bound": EventKind(  # with the victims' ids after a preemption
        6, "pod:str! node:str!", ("", "preempted:list!"), lambda event: "preempted" in event),
    "pod-pending": EventKind(6, "pod:str! reason:str"),
    "tick-end": EventKind(7, "bound:int! pending:int! terminated:int! pods:int!"),
}
_JSON = {t.__name__: t for t in (str, int, float, list)}


def _shapes(kind: EventKind) -> list[dict[str, tuple[type, bool]]]:
    """Each shape of *kind*: its keys, the envelope's first, as (JSON type, read)."""
    words = f"{_ENVELOPE} {kind.keys}".split()
    return [{name: (_JSON[json_type.rstrip("!")], json_type.endswith("!"))
             for name, json_type in (word.split(":") for word in words + own.split())}
            for own in kind.shapes]


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
_TEXT = {str: "{{_s({v})}}", int: "{{{v}}}", float: "{{_float_get({v}) or _float_text({v})}}",
         list: "{{_join(map(_s, {v}))}}"}

# A float's text, repr(v), for the floats written lately: a region's truth, a
# loop's level and an intent's magnitude recur within a tick and from one to
# the next. The writers reach the dict through _float_get, bound once, so it
# is emptied in place and never rebound; what it holds never changes a byte.
_FLOAT_TEXT: dict[float, str] = {}
_FLOAT_TEXT_MAX = 256  # entries; a tick writes a few dozen floats
_float_get = _FLOAT_TEXT.get


def _float_text(v: float) -> str:
    """``repr(v)``, kept for the next write of *v*, unless *v* is zero:
    ``0.0 == -0.0`` with one hash, but ``"0.0" != "-0.0"``."""
    text = repr(v)
    if v:
        if len(_FLOAT_TEXT) >= _FLOAT_TEXT_MAX:
            _FLOAT_TEXT.clear()
        _FLOAT_TEXT[v] = text
    return text


def _writer(kind: str, shape: dict[str, tuple[type, bool]], then):
    """The writer of one shape. Only the number of slots and their JSON types
    reach the code compiled; the keys and the text are values it closes over."""
    keys, types, texts, text = [], [], [], "{"
    for i, key in enumerate(sorted(shape)):
        text += ("," if i else "") + _s(key) + ":"
        if key == "kind":
            text += _s(kind)
            continue
        keys.append(key)
        types.append(shape[key][0])
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


def _is(json_type: type):
    """A reader's check: what is wrong with a value, unless it is a *json_type*."""
    problem = f"must be {json_type.__name__}"
    return lambda value: None if type(value) is json_type else problem


def _float(value) -> str | None:
    """An int stands for the float ``audit`` makes of it, so it must fit one."""
    if type(value) is int:
        return "does not fit in a float" if abs(value) >= _OVERFLOW else None
    return None if type(value) is float else "must be int or float"  # a JSON true is no number


def _strs(value) -> str | None:
    ok = type(value) is list and all(type(item) is str for item in value)
    return None if ok else "must be a list of str"


_OVERFLOW = 2 ** 1024 - 2 ** 970  # the least int float() cannot convert: it rounds to 2 ** 1024
_CHECK = {str: _is(str), int: _is(int), float: _float, list: _strs}  # a read key's, by JSON type
_HEADER = (("scenario_hash", _is(str)), ("initial", _is(list)), ("extra_events", _is(list)))
_PLACEMENT = (("pod", _is(str)), ("node", _is(str)))  # of the header's initial pods


def _reader(kind: EventKind):
    """*kind*'s ``pick``, and per shape the keys ``audit`` reads, each with its check."""
    return kind.pick, tuple(tuple((key, _CHECK[json_type]) for key, (json_type, read)
                                  in shape.items() if read) for shape in _shapes(kind))


def _build(events: dict[str, EventKind]):
    """What *events* declares: its shapes, in order, as (kind, keys); a writer
    per shape, and the first to try for each kind and number of keys; and each
    kind's reader."""
    shapes = tuple((name, shape) for name, kind in events.items() for shape in _shapes(kind))
    writers, first = [], {}
    for kind, shape in reversed(shapes):  # an earlier shape is tried first
        size = (kind, len(shape))
        first[size] = _writer(kind, shape, first.get(size))
        writers.append(first[size])
    readers = {name: _reader(kind) for name, kind in events.items()}
    return shapes, tuple(reversed(writers)), first, readers


SHAPES, _WRITERS, _FIRST_WRITER, _READERS = _build(EVENTS)
_UNKNOWN = _reader(EventKind(0, ""))  # an unknown kind's: the envelope's keys alone


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


def _check(obj, spec, what: str, line: int) -> None:
    if type(obj) is not dict:
        raise ParseError(f"bad {what}: not a JSON object", line=line)
    for key, check in spec:
        problem = check(obj[key]) if key in obj else "is missing"
        if problem:
            raise ParseError(f"bad {what}: {key!r} {problem}", line=line)


def _check_event(event, line: int) -> None:
    """An unknown kind passes: ``audit.check_invariants`` reports it as a violation."""
    kind = event.get("kind") if type(event) is dict else None
    kind = kind if type(kind) is str else "trace"
    pick, specs = _READERS.get(kind, _UNKNOWN)
    _check(event, specs[pick(event)], f"{kind} event", line)


def _read(line: str, number: int, what: str):
    try:
        return _load(line)
    except json.JSONDecodeError as exc:
        problem = exc
    except ValueError:  # an int longer than int's text may be: 4300 digits by default
        problem = "an integer too long to read"
    except RecursionError:
        problem = "nested too deeply"
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
        _check(header, _HEADER, "trace header", number)
        for placement in header["initial"]:
            _check(placement, _PLACEMENT, "initial placement", number)
        return Trace(header, text=text, header_line=number)
    raise ParseError("empty trace")


def load_trace(path: str) -> Trace:
    with open(path, encoding="utf-8", newline="") as fh:  # no "\r" rewritten: verify sees the bytes
        return parse_trace(fh.read())
