"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 scenario/input error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import scenario as scenario_mod
from . import sim
from .errors import HashMismatch, LoopsimError
from .trace import load_trace


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1 for usage
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="loopsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and emit its trace")
    p_run.add_argument("scenario", help="built-in scenario name or YAML file path")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--ticks", type=int, default=None, help="override the tick count")
    p_run.add_argument("--out", default=None, help="write the trace to this file")
    p_run.add_argument("--events", default=None,
                       help="JSON-lines file of extra injected events")
    p_run.add_argument("--summary", action="store_true",
                       help="print a run summary to stderr")

    p_verify = sub.add_parser("verify", help="replay a trace and check invariants")
    p_verify.add_argument("trace", help="trace file to verify")
    p_verify.add_argument("scenario", help="scenario the trace claims to come from")

    p_summarize = sub.add_parser("summarize", help="digest a recorded trace")
    p_summarize.add_argument("trace", help="trace file to summarize")

    sub.add_parser("list-scenarios", help="list built-in scenarios")

    p_release = sub.add_parser(
        "release", help="append an operator release for a suspended loop to an events file"
    )
    p_release.add_argument("acl", help="loop id to release")
    p_release.add_argument("--tick", type=int, required=True,
                           help="tick at which the release takes effect")
    p_release.add_argument("--events", required=True,
                           help="JSON-lines events file to append to (created if missing)")
    return parser


def _cmd_run(args) -> int:
    scn = scenario_mod.load_scenario(args.scenario, seed=args.seed, ticks=args.ticks)
    extra = sim.load_events_file(args.events) if args.events else None
    world = sim.World(scn, extra)  # stepped here: no metrics are folded unless --summary asks
    for _ in range(scn.ticks):
        world.step()
    trace = world.trace
    if args.out:
        trace.write(args.out)
    else:
        sys.stdout.reconfigure(newline="\n")  # no "\r" added on any OS, as --out writes
        sys.stdout.writelines(trace.chunks())
    if args.summary:
        print(sim.summarize(trace), file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    trace = load_trace(args.trace)
    with trace.parse_errors_first():  # a malformed trace is named before a bad scenario
        scn = scenario_mod.load_scenario(args.scenario)
    report = sim.verify_trace(trace, scn)
    print(report.describe())
    return 0 if report.ok else 3


def _cmd_summarize(args) -> int:
    print(sim.summarize(load_trace(args.trace)))
    return 0


def _cmd_release(args) -> int:
    event = {"tick": args.tick, "kind": "release", "acl": args.acl}
    # shaped as ``run --events`` will read it; only the run, which knows the
    # scenario, can tell whether the agent exists
    scenario_mod._fields(event, scenario_mod.EVENTS["release"], "release")
    with open(args.events, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(event, sort_keys=True) + "\n")
    print(f"queued release of {args.acl!r} at tick {args.tick} in {args.events}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        if args.command == "list-scenarios":
            for name in scenario_mod.list_scenarios():
                print(name)
            return 0
        return _cmd_release(args)
    except HashMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LoopsimError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
