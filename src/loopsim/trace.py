"""Trace format: one JSON header line, then one JSON line per event.

Events carry a global sequence number and the tick they occurred in; dumps are
canonical (sorted keys, fixed separators) so identical runs produce identical
bytes and replays can be compared line by line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ParseError

TRACE_FORMAT = "loopsim-trace/1"


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())


def parse_trace(text: str) -> Trace:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty trace")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad trace header: {exc}", line=1) from None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ParseError(f"not a {TRACE_FORMAT} trace")
    events = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad trace event: {exc}", line=i) from None
    return Trace(header, events, text)


def load_trace(path: str) -> Trace:
    with open(path, encoding="utf-8") as fh:
        return parse_trace(fh.read())
