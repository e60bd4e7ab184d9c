"""Command-line front end.

Subcommands: replay, graph, check, set-flag, get-flag, trust, pcopy.

Exit codes: 0 success (for replay: no denial), 1 denial or failed check or
missing entity, 2 malformed input (config, trace, policy files).

Every command that boots a world calls load_bundle, and check calls
check_replay, which steps the engine and the oracle's one pass in lockstep;
the tests call the same two functions.

replay, graph and check read the trace one event at a time (engine.iter_trace)
and step the engine over it; they keep no list of events or audit records,
so their memory grows with the world, not with the trace; only graph and
replay --dot record the dependency graph, whose edges do grow with it.  No
output is written until the whole trace has replayed: audit lines wait in a
spool that spills to an anonymous temporary file past SPOOL_CHARS, and a
malformed or inapplicable event, reported with its line, leaves stdout and
every output file as they were.  Trace errors come in trace order: the
first bad line is reported, whether it is malformed or names something the
replay does not have.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
import tempfile

from .engine import DepGraph, Policy, _Replayer, export_graph, iter_trace
# perfbench/layers.py wraps these by name on this module; the commands call none
# of parse_trace, replay, diff_taint, closure_from_replay or check_biba.
from .engine import parse_trace, replay  # noqa: F401
from .guard import (
    format_trust_entry,
    parse_pcopy_map,
    parse_trust_entry,
    parse_trust_list,
    validate_pcopy_against_world,
)
from .model import (
    PROTOCOLS,
    ConfigError,
    StbacError,
    UnknownEntity,
    check_path,
    format_flags,
    parse_flag,
)
from .oracle import OnePass, TaintDiff
from .oracle import check_biba, closure_from_replay, diff_taint  # noqa: F401
from .world import parse_init_config, serialize_config, spawn_boot_world

EXIT_OK = 0
EXIT_DENIED = 1
EXIT_BAD_INPUT = 2

# Characters of audit text an output keeps in memory before it spills to an
# anonymous temporary file, and audit lines joined into one write.
SPOOL_CHARS = 1 << 18
AUDIT_BATCH = 1024
# Divergences check prints; it counts them all.
SHOWN_DIVERGENCES = 20


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownEntity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DENIED
    except (OSError, StbacError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs many
    times a parse, and each parse_args call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="stbac",
        description="Replay OS event traces under suspicious-taint access control.")
    sub = parser.add_subparsers(dest="command", required=True)

    replay_p = sub.add_parser("replay", help="replay a trace and write the audit")
    _bundle_args(replay_p)
    replay_p.add_argument("trace", help="event trace file")
    replay_p.add_argument("--audit", help="write audit lines here (default stdout)")
    replay_p.add_argument("--dot", help="also write the dependency graph here")
    replay_p.set_defaults(func=cmd_replay)

    graph_p = sub.add_parser("graph", help="replay a trace and emit the dependency graph")
    _bundle_args(graph_p)
    graph_p.add_argument("trace")
    graph_p.add_argument("--dot", help="write DOT here (default stdout)")
    graph_p.set_defaults(func=cmd_graph)

    check_p = sub.add_parser("check", help="verify a replay against the independent oracle")
    _bundle_args(check_p)
    check_p.add_argument("trace")
    check_p.set_defaults(func=cmd_check)

    set_p = sub.add_parser("set-flag", help="set or clear a flag in a config snapshot")
    set_p.add_argument("--init", required=True, help="config file, rewritten in place")
    set_p.add_argument("--recursive", action="store_true",
                       help="apply to the whole subtree")
    set_p.add_argument("path", help="absolute path in the configured tree")
    set_p.add_argument("flag", choices=["conf", "inte", "leak"])
    set_p.add_argument("value", choices=["on", "off"])
    set_p.set_defaults(func=cmd_set_flag)

    get_p = sub.add_parser("get-flag", help="print the flags of a configured path")
    get_p.add_argument("--init", required=True)
    get_p.add_argument("--recursive", action="store_true")
    get_p.add_argument("path")
    get_p.set_defaults(func=cmd_get_flag)

    trust_p = sub.add_parser("trust", help="edit or list the trusted-endpoint file")
    trust_p.add_argument("--trust", required=True, help="trust list file")
    trust_sub = trust_p.add_subparsers(dest="action", required=True)
    trust_add = trust_sub.add_parser("add")
    trust_add.add_argument("program")
    trust_add.add_argument("local", help="ip:port, * as wildcard")
    trust_add.add_argument("remote", help="ip:port, * as wildcard")
    trust_add.add_argument("proto", choices=PROTOCOLS)
    trust_add.add_argument("span", help="from..to, to may be inf")
    trust_add.set_defaults(func=cmd_trust_add)
    trust_remove = trust_sub.add_parser("remove")
    trust_remove.add_argument("program")
    trust_remove.set_defaults(func=cmd_trust_remove)
    trust_list = trust_sub.add_parser("list")
    trust_list.set_defaults(func=cmd_trust_list)

    pcopy_p = sub.add_parser("pcopy", help="edit or list the partial-copy map")
    pcopy_p.add_argument("--pcopy", required=True, help="partial-copy map file")
    pcopy_sub = pcopy_p.add_subparsers(dest="action", required=True)
    pcopy_add = pcopy_sub.add_parser("add")
    pcopy_add.add_argument("shared")
    pcopy_add.add_argument("copy")
    pcopy_add.set_defaults(func=cmd_pcopy_add)
    pcopy_remove = pcopy_sub.add_parser("remove")
    pcopy_remove.add_argument("shared")
    pcopy_remove.set_defaults(func=cmd_pcopy_remove)
    pcopy_list = pcopy_sub.add_parser("list")
    pcopy_list.set_defaults(func=cmd_pcopy_list)

    return parser


def _bundle_args(parser):
    parser.add_argument("--init", required=True, help="boot config file")
    parser.add_argument("--trust", help="trusted-endpoint file")
    parser.add_argument("--pcopy", help="partial-copy map file")


def _read(path) -> str:
    """The file as text with universal newlines; bytes that are not UTF-8
    are malformed input, reported with the line they sit on."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count lines as the parsers do (str.splitlines) over the valid prefix.
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(f"{path} line {line}: invalid UTF-8 byte "
                          f"0x{data[exc.start]:02x}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_bundle(init_text: str, trust_text: str, pcopy_text: str) -> tuple:
    """The boot config, the booted world and the policy of one input bundle;
    an absent trust list or copy map is an empty text.  Every copy of the
    map must be a valid copy in the booted tree."""
    config = parse_init_config(init_text)
    trust = parse_trust_list(trust_text)
    pcopy = parse_pcopy_map(pcopy_text)
    world = spawn_boot_world(config)
    validate_pcopy_against_world(pcopy, world)
    return config, world, Policy(trust, pcopy)


def _load(args) -> tuple:
    """load_bundle over the files args names, and the trace's events as an
    iterator: each line is parsed when the replay reaches it."""
    config, world, policy = load_bundle(_read(args.init),
                                        _read(args.trust) if args.trust else "",
                                        _read(args.pcopy) if args.pcopy else "")
    return config, world, policy, iter_trace(_read(args.trace))


def _stream(args, graph, audit=None) -> _Replayer:
    """Step a replayer over the trace, one event at a time, recording its
    edges in graph and writing each audit line to audit (a text file) when
    given, AUDIT_BATCH lines per write.  Returns the replayer: its graph,
    and its count of denials."""
    _, world, policy, events = _load(args)
    replayer = _Replayer(world, policy, graph)
    lines = []
    for event in events:
        record = replayer.step(event)
        if audit is not None:
            lines.append(record.line())
            if len(lines) == AUDIT_BATCH:
                audit.write("\n".join(lines) + "\n")
                lines.clear()
    if lines:
        audit.write("\n".join(lines) + "\n")
    return replayer


def check_replay(config, world, policy, events) -> tuple:
    """Step the engine and the oracle's one pass together, one event at a
    time: the engine's record of an event feeds the oracle's step, and the
    event's flips of the two tainted sets are compared at once, so an event
    costs its flips, not the size of the sets.  Returns the TaintDiff, the
    BibaReport and the replayer."""
    replayer = _Replayer(world, policy, None)     # check exports no graph
    one_pass = OnePass(config, policy.trust)
    diff = TaintDiff(SHOWN_DIVERGENCES, world.tainted)    # the oracle starts empty
    step, compare = replayer.step, diff.add
    for event in events:
        record = step(event)
        compare(event.tick, world.taint_changes, one_pass.step(event, record))
    return diff, one_pass.report, replayer


def _deliver(spool, path):
    """Copy a spool's text to the file at path, or to stdout without one."""
    spool.seek(0)
    if path is None:
        shutil.copyfileobj(spool, sys.stdout)
        return
    with open(path, "w", encoding="utf-8") as handle:
        shutil.copyfileobj(spool, handle)


def cmd_replay(args) -> int:
    # The audit waits for the whole replay: in memory up to SPOOL_CHARS,
    # then in an anonymous temporary file.
    with tempfile.SpooledTemporaryFile(SPOOL_CHARS, mode="w+", encoding="utf-8",
                                       newline="") as audit:
        replayer = _stream(args, DepGraph() if args.dot else None, audit)
        _deliver(audit, args.audit)
    if args.dot:
        _write(args.dot, export_graph(replayer.graph))
    return EXIT_DENIED if replayer.denials else EXIT_OK


def cmd_graph(args) -> int:
    replayer = _stream(args, DepGraph())
    dot = export_graph(replayer.graph)
    if args.dot:
        _write(args.dot, dot)
    else:
        sys.stdout.write(dot)
    return EXIT_DENIED if replayer.denials else EXIT_OK


def cmd_check(args) -> int:
    diff, report, replayer = check_replay(*_load(args))
    failures = 0
    if diff.count:
        failures += 1
        print(f"taint closure: FAIL ({diff.count} diverging events)")
        for div in diff.divergences:
            print(f"  {div.describe()}")
    else:
        print("taint closure: PASS (engine matches oracle on every event)")

    for line in report.summary_lines():
        print(line)
    if not report.all_passed():
        failures += 1

    print(f"replay: {diff.events} events, {replayer.denials} denials")
    return EXIT_OK if failures == 0 else EXIT_DENIED


def cmd_set_flag(args) -> int:
    _, world, _ = load_bundle(_read(args.init), "", "")
    bit = parse_flag(args.flag)
    on = args.value == "on"
    node = world.node_at(check_path(args.path))
    targets = world.subtree(node) if args.recursive else [node]
    for target in targets:
        flags = target.flags | bit if on else target.flags & ~bit
        world.set_flags(("file", target.node_id), flags)
    _write(args.init, serialize_config(world))
    print(f"{args.flag} {'set' if on else 'cleared'} on "
          f"{len(targets)} node(s)")
    return EXIT_OK


def cmd_get_flag(args) -> int:
    _, world, _ = load_bundle(_read(args.init), "", "")
    node = world.node_at(check_path(args.path))
    targets = world.subtree(node) if args.recursive else [node]
    for target in sorted(targets, key=lambda n: n.path):
        print(f"{target.path} {format_flags(target.flags)}")
    return EXIT_OK


def cmd_trust_add(args) -> int:
    line = (f"trust {args.program} {args.local} {args.remote}"
            f" {args.proto} {args.span}")
    entry = parse_trust_entry(line)
    text = _read(args.trust) if os.path.exists(args.trust) else ""
    parse_trust_list(text)     # a malformed list stays as it is
    if text and not text.endswith("\n"):
        text += "\n"
    _write(args.trust, text + format_trust_entry(entry) + "\n")
    return EXIT_OK


def cmd_trust_remove(args) -> int:
    check_path(args.program)
    entries = parse_trust_list(_read(args.trust))
    kept = [e for e in entries if e.program != args.program]
    if len(kept) == len(entries):
        print(f"error: no entry for program {args.program}", file=sys.stderr)
        return EXIT_DENIED
    _write(args.trust, "".join(format_trust_entry(e) + "\n" for e in kept))
    return EXIT_OK


def cmd_trust_list(args) -> int:
    for entry in parse_trust_list(_read(args.trust)):
        print(format_trust_entry(entry))
    return EXIT_OK


def cmd_pcopy_add(args) -> int:
    check_path(args.shared)
    check_path(args.copy)
    text = _read(args.pcopy) if os.path.exists(args.pcopy) else ""
    pcopy = parse_pcopy_map(text)
    if args.shared in pcopy:
        print(f"error: {args.shared} already mapped", file=sys.stderr)
        return EXIT_DENIED
    if text and not text.endswith("\n"):
        text += "\n"
    text += f"pcopy {args.shared} {args.copy}\n"
    parse_pcopy_map(text)   # full-file validation
    _write(args.pcopy, text)
    return EXIT_OK


def cmd_pcopy_remove(args) -> int:
    check_path(args.shared)
    pcopy = parse_pcopy_map(_read(args.pcopy))
    if args.shared not in pcopy:
        print(f"error: {args.shared} is not mapped", file=sys.stderr)
        return EXIT_DENIED
    del pcopy[args.shared]
    _write(args.pcopy, "".join(f"pcopy {shared} {copy}\n"
                               for shared, copy in pcopy.items()))
    return EXIT_OK


def cmd_pcopy_list(args) -> int:
    pcopy = parse_pcopy_map(_read(args.pcopy))
    for shared, copy in sorted(pcopy.items()):
        print(f"pcopy {shared} {copy}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
