"""Command-line front end.

Subcommands: replay, graph, check, set-flag, get-flag, trust, pcopy.

Exit codes: 0 success (for replay: no denial), 1 denial or failed check or
missing entity, 2 malformed input (config, trace, policy files).
"""

from __future__ import annotations

import argparse
import os
import sys

from .engine import Policy, export_graph, parse_trace, replay
from .guard import (
    format_trust_entry,
    parse_pcopy_map,
    parse_trust_entry,
    parse_trust_list,
    validate_pcopy_against_world,
)
from .model import (
    ConfigError,
    StbacError,
    TraceError,
    UnknownEntity,
    format_flags,
    parse_flag,
)
from .oracle import check_biba, closure_from_replay, diff_taint
from .world import parse_init_config, serialize_config, spawn_boot_world

EXIT_OK = 0
EXIT_DENIED = 1
EXIT_BAD_INPUT = 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UnknownEntity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DENIED
    except (OSError, StbacError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def build_parser() -> argparse.ArgumentParser:
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
    trust_add.add_argument("proto", choices=["tcp", "udp"])
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


def _load_bundle(args):
    config = parse_init_config(_read(args.init))
    trust = parse_trust_list(_read(args.trust)) if args.trust else []
    pcopy = parse_pcopy_map(_read(args.pcopy)) if args.pcopy else None
    world = spawn_boot_world(config)
    policy = Policy(trust)
    if pcopy is not None:
        validate_pcopy_against_world(pcopy, world)
        policy.pcopy = pcopy
    events = parse_trace(_read(args.trace))
    return config, world, policy, events


def cmd_replay(args) -> int:
    _, world, policy, events = _load_bundle(args)
    result = replay(world, events, policy)
    audit = result.audit_text()
    if args.audit:
        _write(args.audit, audit)
    else:
        sys.stdout.write(audit)
    if args.dot:
        _write(args.dot, export_graph(result.graph))
    return _exit_code(result)


def cmd_graph(args) -> int:
    _, world, policy, events = _load_bundle(args)
    result = replay(world, events, policy)
    dot = export_graph(result.graph)
    if args.dot:
        _write(args.dot, dot)
    else:
        sys.stdout.write(dot)
    return _exit_code(result)


def _exit_code(result) -> int:
    """EXIT_DENIED when the replay denied some event, EXIT_OK otherwise."""
    return EXIT_DENIED if any(r.denied for r in result.records) else EXIT_OK


def cmd_check(args) -> int:
    config, world, policy, events = _load_bundle(args)
    result = replay(world, events, policy, track_taint=True)
    failures = 0

    oracle_sets = closure_from_replay(config, policy.trust, events, result.records)
    divergences = diff_taint(result.tainted_after, oracle_sets, events)
    if divergences:
        failures += 1
        print(f"taint closure: FAIL ({len(divergences)} diverging events)")
        for div in divergences[:20]:
            print(f"  {div.describe()}")
    else:
        print("taint closure: PASS (engine matches oracle on every event)")

    report = check_biba(config, policy.trust, events, result.records)
    for line in report.summary_lines():
        print(line)
    if not report.all_passed():
        failures += 1

    denials = sum(r.denied for r in result.records)
    print(f"replay: {len(result.records)} events, {denials} denials")
    return EXIT_OK if failures == 0 else EXIT_DENIED


def _snapshot_world(args):
    config = parse_init_config(_read(args.init))
    return spawn_boot_world(config)


def cmd_set_flag(args) -> int:
    world = _snapshot_world(args)
    bit = parse_flag(args.flag)
    on = args.value == "on"
    node = world.node_at(args.path)
    targets = world.subtree(node) if args.recursive else [node]
    for target in targets:
        flags = target.flags | bit if on else target.flags & ~bit
        world.set_flags(("file", target.node_id), flags)
    _write(args.init, serialize_config(world))
    print(f"{args.flag} {'set' if on else 'cleared'} on "
          f"{len(targets)} node(s)")
    return EXIT_OK


def cmd_get_flag(args) -> int:
    world = _snapshot_world(args)
    node = world.node_at(args.path)
    targets = world.subtree(node) if args.recursive else [node]
    for target in sorted(targets, key=lambda n: n.path):
        print(f"{target.path} {format_flags(target.flags)}")
    return EXIT_OK


def cmd_trust_add(args) -> int:
    line = (f"trust {args.program} {args.local} {args.remote}"
            f" {args.proto} {args.span}")
    entry = parse_trust_entry(line)
    text = _read(args.trust) if os.path.exists(args.trust) else ""
    if text and not text.endswith("\n"):
        text += "\n"
    _write(args.trust, text + format_trust_entry(entry) + "\n")
    return EXIT_OK


def cmd_trust_remove(args) -> int:
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
    text = _read(args.pcopy) if os.path.exists(args.pcopy) else ""
    pcopy = parse_pcopy_map(text)
    if args.shared in pcopy.entries:
        print(f"error: {args.shared} already mapped", file=sys.stderr)
        return EXIT_DENIED
    line = f"pcopy {args.shared} {args.copy}"
    parse_pcopy_map(text + line + "\n")   # full-file validation
    if text and not text.endswith("\n"):
        text += "\n"
    _write(args.pcopy, text + line + "\n")
    return EXIT_OK


def cmd_pcopy_remove(args) -> int:
    pcopy = parse_pcopy_map(_read(args.pcopy))
    if args.shared not in pcopy.entries:
        print(f"error: {args.shared} is not mapped", file=sys.stderr)
        return EXIT_DENIED
    del pcopy.entries[args.shared]
    _write(args.pcopy, "".join(f"pcopy {shared} {copy}\n"
                               for shared, copy in sorted(pcopy.entries.items())))
    return EXIT_OK


def cmd_pcopy_list(args) -> int:
    pcopy = parse_pcopy_map(_read(args.pcopy))
    for shared, copy in sorted(pcopy.entries.items()):
        print(f"pcopy {shared} {copy}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
