import ast
import functools
import os
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings

import stbac.taint
from stbac import cli, oracle
from stbac import scenarios
from stbac.cli import check_replay, load_bundle
from stbac.engine import AuditRecord, _Replayer, parse_trace, replay
from stbac.guard import TrustEntry, match_trust, parse_trust_entry, parse_trust_list
from stbac.model import INTE, ConfigError, TraceError
from stbac.oracle import check_biba, closure_from_replay, diff_taint
from stbac.world import InitConfig, parent_of, parse_init_config, spawn_boot_world

from conftest import assert_agrees, generated_bundle, scanned_snapshot
import boot_gen
import trace_gen

BOOT_TEXT = ("node /bin dir 0\nnode /bin/sh file 1\nnode /srv dir 0\n"
             "node /etc dir 0\nnode /etc/passwd file 0\n"
             "node /sbin dir 0\nconf /etc/passwd\ninte /sbin\n")
BOOT = parse_init_config(BOOT_TEXT)

TRUSTED_TEXT = "trust /bin/sh *:* *:* tcp 0..inf\n"
TRUSTED = parse_trust_list(TRUSTED_TEXT)


def run(trace_text, config=BOOT_TEXT):
    """(events, replay result) of a trace over a loaded bundle."""
    _, world, policy = load_bundle(config, TRUSTED_TEXT, "")
    events = parse_trace(trace_text)
    return events, replay(world, events, policy)


def check(trace_text, config=BOOT_TEXT, pcopy=""):
    """What `stbac check` runs on a trace: (TaintDiff, BibaReport, replayer)."""
    return check_replay(*load_bundle(config, TRUSTED_TEXT, pcopy), parse_trace(trace_text))


def allowed(events) -> list:
    """An audit that allows every event, for walking traces the engine
    never replayed."""
    return [AuditRecord(ev.tick, ev.pid, "-", "-", ev.op, "-", "ALLOW") for ev in events]


def closure_of_unreplayed(config, trace_text) -> list:
    """The oracle closure of a trace with every event allowed."""
    events = parse_trace(trace_text)
    return closure_from_replay(config, TRUSTED, events, allowed(events))


class TestClosure:
    def test_all_trusted_sockets_give_empty_closure(self):
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:22,10.0.0.9:50,tcp\n"
                 "3,1,fork,2\n")
        events, result = run(trace)
        sets = closure_from_replay(BOOT, TRUSTED, events, result.records)
        assert sets == [frozenset()] * 3
        assert_agrees(check(trace)[0])

    def test_chain_through_fork_and_exec(self):
        # socket taints p1; p1 forks p2; p2 drops an executable; p3 runs it
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,fork,2\n"
                 "3,2,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "4,2,fork,3\n"
                 "5,3,create,/srv/drop,1\n"
                 "6,1,fork,4\n"
                 "7,4,execve,/srv/drop\n")
        diff, _, replayer = check(trace)
        assert_agrees(diff)
        # hand fixpoint over the five entities:
        # seed proc2 -> fork proc3 -> file /srv/drop -> exec proc4
        assert replayer.tainted() == frozenset({
            ("proc", 2), ("proc", 3), ("proc", 4), ("file", "/srv/drop")})

    def test_empty_trace(self):
        diff, report, _ = check("")
        assert (diff.events, diff.count) == (0, 0)
        assert report.all_passed()

    def test_web_download_closure_names_the_whole_chain(self):
        diff, _, replayer = scenarios.load("web_download").check()
        assert_agrees(diff)
        assert replayer.tainted() == frozenset({
            ("proc", 300), ("proc", 302), ("proc", 303),
            ("file", "/home/user/consume-cpu"),
            ("file", "/home/user/consume-mem")})

    def test_denied_events_contribute_no_edges(self):
        # the tainted write to /sbin is denied, so no executable appears there
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "3,1,create,/sbin/drop,1\n")
        diff, _, replayer = check(trace)
        assert_agrees(diff)
        assert replayer.denials == 1
        assert ("file", "/sbin/drop") not in replayer.tainted()

    def test_rename_tracks_taint_under_new_path(self):
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "3,1,create,/srv/a,1\n"
                 "4,1,rename,/srv/a,/srv/b\n")
        diff, _, replayer = check(trace)
        assert_agrees(diff)
        assert ("file", "/srv/b") in replayer.tainted()
        assert ("file", "/srv/a") not in replayer.tainted()

    @pytest.mark.parametrize("trace", [
        "1,1,fork,١٠",
        "1,1,pipe,١٠",
        "1,1,shmat,١٠",
        "1,1,msgrcv,١٠",
        "1,1,sock_send,1,5,١٠",
        "1,1,set_stbac_attr,pid:١٠,taint,1",
        "1,1,socket_open,1,10.0.0.1:٢٢,10.0.0.9:50,tcp",
        "1,1,socket_open,1,10.0.0.1:22,10.0.0.9:-50,tcp",
    ])
    def test_unreplayed_trace_takes_ascii_integers_only(self, trace):
        with pytest.raises(TraceError, match="^line 1: "):
            closure_of_unreplayed(BOOT, trace)

    @pytest.mark.parametrize("endpoints,message", [
        (":22,10.0.0.9:50", "bad endpoint ':22'"),
        ("10.0.0.1:22,:50", "bad endpoint ':50'"),
        (f"10.0.0.1:{'1' * 5000},10.0.0.9:50", "not an integer"),
    ], ids=["empty local ip", "empty remote ip", "5000-digit port"])
    def test_unreplayed_trace_rejects_bad_endpoints(self, endpoints, message):
        with pytest.raises(TraceError, match=f"^line 1: {message}"):
            closure_of_unreplayed(BOOT, f"1,1,socket_open,1,{endpoints},tcp")


class TestUnreplayedStructure:
    """The oracle stays total on traces the engine never replayed, walked
    with every event allowed: an operand may be missing or the tree may
    break rules the engine enforces."""

    BOOT = parse_init_config("node /a dir 0\nnode /a/x file 1\n")

    @pytest.mark.parametrize("trace", [
        "1,1,rename,/nope,/b\n",
        "1,1,create,/q/r,1\n",
        "1,1,rename,/a,/z/a\n",
        "1,1,rmdir,/a\n2,1,mkdir,/a\n3,1,rename,/a,/c\n",
    ], ids=["missing source", "missing parent", "missing target parent",
            "non-empty rmdir then rename"])
    def test_missing_or_broken_structure_gives_empty_sets(self, trace):
        assert closure_of_unreplayed(self.BOOT, trace) == (
            [frozenset()] * len(parse_trace(trace)))

    def test_rename_into_itself_changes_nothing(self):
        trace = ("1,1,set_stbac_attr,/a/x,taint,1\n"
                 "2,1,rename,/a,/a\n3,1,rename,/a,/a/y\n"
                 "4,1,rename,/,/b\n")
        assert closure_of_unreplayed(self.BOOT, trace) == [
            frozenset({("file", "/a/x")})] * 4

    PATHS = ("/", "/a", "/a/x", "/a/x/z", "/a/y", "/b", "/b/x", "/c", "a", "/a/")
    OPS = ("create", "mkdir", "mkfifo", "unlink", "rmdir", "rename", "rename",
           "set_stbac_attr")

    def test_random_structure_ops_keep_the_index_sound(self):
        """Orphans may appear, but every indexed cell stays live, one level
        below its directory, and no walk raises."""
        for seed in range(300):
            rng = random.Random(seed)
            lines = []
            for tick in range(1, rng.randint(2, 25)):
                op, path = rng.choice(self.OPS), rng.choice(self.PATHS)
                args = {"create": (path, "1"), "rename": (path, rng.choice(self.PATHS)),
                        "set_stbac_attr": (path, "taint", "1")}.get(op, (path,))
                lines.append(",".join((str(tick), "1", op) + args))
            trace = "\n".join(lines) + "\n"
            events = parse_trace(trace)
            struct = oracle._Structure(self.BOOT)
            for ev in events:
                oracle._facts(struct, [], ev, ev.args)
            for directory, kids in struct.kids.items():
                assert struct.cells[directory.path] is directory, seed
                for cell in kids:
                    assert struct.cells[cell.path] is cell, seed
                    assert parent_of(cell.path) == directory.path, seed
            assert len(closure_of_unreplayed(self.BOOT, trace)) == len(events)


def walk_structure(config, trust, events, records):
    """The oracle's structure after stepping a replayed trace, with the
    index checked before every event; also counts renames of a directory
    with children and renames onto an existing file."""
    one_pass = oracle.OnePass(config, trust)
    struct = one_pass.struct
    seen = {"directory with children": 0, "onto a file": 0}
    for ev, record in zip(events, records):
        assert_index_consistent(struct)
        if ev.op == "rename" and not record.denied:
            moved = struct.cells[ev.args[0]]
            seen["directory with children"] += bool(struct.kids.get(moved))
            seen["onto a file"] += ev.args[1] in struct.cells
        one_pass.step(ev, record)
    assert_index_consistent(struct)
    return struct, seen


def assert_index_consistent(struct):
    """kids holds exactly the directories, each mapped to the cells one
    level below its path."""
    dirs = {cell for cell in struct.cells.values() if cell.kind == "dir"}
    assert set(struct.kids) == dirs
    below = {cell: set() for cell in dirs}
    for path, cell in struct.cells.items():
        assert cell.path == path
        if path != "/":
            below[struct.cells[parent_of(path)]].add(cell)
    assert {d: set(kids) for d, kids in struct.kids.items()} == below


def assert_structure_matches(struct, world):
    assert set(struct.cells) == set(world.path_index)
    for path, node_id in world.path_index.items():
        kind = "fifo" if node_id in world.fifo_queues else world.fs[node_id].kind
        assert struct.cells[path].kind == kind, path


def generated_case(seed: int, mode: str) -> tuple:
    """(config, world, policy, events) of a trace_gen trace weighted towards
    mkdir, unlink/rmdir and rename."""
    rng = random.Random(seed)
    intents = [(rng.choice((rng.randrange(trace_gen.N_OPCODES), 23, 24, 25)),
                rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 1),
                rng.randint(0, 2))
               for _ in range(rng.randint(40, 160))]
    return generated_bundle(intents, mode)


class TestChildIndex:
    """The oracle's child index against the world's own paths, differentially."""

    @pytest.mark.parametrize("name", scenarios.NAMES)
    def test_bundled_scenarios(self, name):
        bundle = scenarios.load(name)
        config, _, policy = bundle.load()
        result = bundle.replay()
        struct, _ = walk_structure(config, policy.trust, bundle.events(), result.records)
        assert_structure_matches(struct, result.world)

    @pytest.mark.parametrize("mode", ["full", "benign"])
    def test_generated_traces(self, mode):
        seen = {}
        for seed in range(40):
            config, world, policy, events = generated_case(seed, mode)
            result = replay(world, events, policy)
            struct, counts = walk_structure(config, policy.trust, events, result.records)
            assert_structure_matches(struct, result.world)
            for kind, count in counts.items():
                seen[kind] = seen.get(kind, 0) + count
        # the traces exercise what the index has to get right
        assert seen["directory with children"] >= 10 and seen["onto a file"] >= 10, seen

    def test_tainted_executable_in_a_directory_renamed_twice(self):
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,fork,2\n"
                 "3,2,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "4,2,mkdir,/srv/d\n"
                 "5,2,mkdir,/srv/d/e\n"
                 "6,2,create,/srv/d/e/tool,1\n"
                 "7,1,mkdir,/srv/n\n"
                 "8,1,rename,/srv/d,/srv/n/d2\n"
                 "9,1,rename,/srv/n,/srv/m\n"
                 "10,1,execve,/srv/m/d2/e/tool\n")
        diff, report, replayer = check(trace)
        assert_agrees(diff)
        assert report.all_passed(), report.summary_lines()
        assert replayer.denials == 0
        assert replayer.tainted() == frozenset({
            ("proc", 1), ("proc", 2), ("file", "/srv/m/d2/e/tool")})
        events, result = run(trace)
        struct, _ = walk_structure(BOOT, TRUSTED, events, result.records)
        assert_structure_matches(struct, result.world)


def ungated_closure(config, trust, events, records):
    """Reference closure: OnePass stepped with the closure fold's loop in
    place of the fold, taking a fresh snapshot of the live low entities
    after every event, as the closure was computed before snapshots were
    gated."""
    one_pass = oracle.OnePass(config, trust)
    struct = one_pass.struct
    low_pids, low_cells, fifo_low = set(), set(), {}

    def fresh_snapshot(facts):
        for kind, target, source, detail in facts or ():
            if kind & (oracle._READ | oracle._EXEC | oracle._PRODUCE):
                if source is None or source in low_pids or source in low_cells:
                    (low_cells if kind == oracle._PRODUCE else low_pids).add(target)
            elif kind == oracle._SEND and source in low_pids:
                fifo_low.setdefault(target, []).append(source)
            elif kind == oracle._RECV and fifo_low.pop(source, None):
                low_pids.add(target)
            elif kind == oracle._MARK:
                low = low_pids if isinstance(target, int) else low_cells
                low.add(target) if detail else low.discard(target)
        out = {("proc", pid) for pid in low_pids if pid in struct.exe_paths}
        out |= {("file", cell.path) for cell in low_cells
                if struct.cells.get(cell.path) is cell}
        return frozenset(out)

    one_pass.closure = SimpleNamespace(step=fresh_snapshot)
    return [one_pass.step(ev, record) for ev, record in zip(events, records)]


def uniform_case(seed: int, mode: str) -> tuple:
    """(config, world, policy, events) of a trace_gen trace over every
    opcode alike."""
    rng = random.Random(seed)
    intents = [(rng.randrange(trace_gen.N_OPCODES), rng.randint(0, 7),
                rng.randint(0, 7), rng.randint(0, 1), rng.randint(0, 2))
               for _ in range(rng.randint(40, 160))]
    return generated_bundle(intents, mode)


class TestGatedSnapshots:
    """The closure fold rebuilds its snapshot only where an event can change
    it; per event its sets equal the ungated reference's."""

    def assert_matches_reference(self, config, world, policy, events):
        """The gated and ungated closures of a replayed trace; returns how
        many events reused the previous event's set object."""
        result = replay(world, events, policy)
        gated = closure_from_replay(config, policy.trust, events, result.records)
        assert gated == ungated_closure(config, policy.trust, events, result.records)
        return sum(now is before for before, now in zip(gated, gated[1:]))

    @pytest.mark.parametrize("name", scenarios.NAMES)
    def test_bundled_scenarios(self, name):
        bundle = scenarios.load(name)
        reused = self.assert_matches_reference(*bundle.load(), bundle.events())
        assert reused > 0

    @pytest.mark.parametrize("mode", ["full", "benign"])
    def test_generated_traces(self, mode):
        reused = 0
        for seed in range(60):
            for case in (uniform_case, generated_case):
                reused += self.assert_matches_reference(*case(seed, mode))
        assert reused > 0


class TestExitedPids:
    """The oracle forgets a pid when it exits: its structure and both folds
    hold live pids only, so `check` keeps nothing per exited process."""

    CYCLES = 1000

    def test_fork_exit_cycles_of_a_tainted_parent_leave_live_pids_only(self,
                                                                       monkeypatch):
        passes = []

        def one_pass(config, trust):
            passes.append(oracle.OnePass(config, trust))
            return passes[-1]

        monkeypatch.setattr(cli, "OnePass", one_pass)
        lines = ["1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp"]
        for pid in range(2, self.CYCLES + 2):
            lines += [f"{pid},1,fork,{pid}", f"{pid},{pid},sched_tick", f"{pid},{pid},exit"]
        diff, report, replayer = check("\n".join(lines) + "\n")
        assert diff.count == 0 and report.all_passed()
        assert replayer.tainted() == {("proc", 1)}
        (one,) = passes
        assert one.struct.exe_paths == {1: "-"}
        assert one.closure.low_pids == {1}
        assert one.biba.low_pids == {1}


class TestGatedDiff:
    """diff_taint repeats a comparison where neither set object changed."""

    def test_reused_sets_repeat_the_previous_difference(self):
        a, b = frozenset({("proc", 1)}), frozenset({("proc", 1), ("proc", 2)})
        events = parse_trace("".join(f"{tick},1,sched_tick\n" for tick in range(1, 6)))
        engine_sets = [a, a, a, b, b]
        oracle_sets = [a, b, b, b, frozenset(b)]
        assert [(d.index, d.tick, d.missing, d.extra)
                for d in diff_taint(engine_sets, oracle_sets, events)] == [
            (1, 2, frozenset({("proc", 2)}), frozenset()),
            (2, 3, frozenset({("proc", 2)}), frozenset()),
        ]

    def test_matches_a_comparison_on_every_event(self):
        """Random list pairs with shared objects: the result equals comparing
        contents on every event."""
        pool = [frozenset(), frozenset({("proc", 1)}), frozenset({("file", "/a")}),
                frozenset({("proc", 1), ("file", "/a")})]
        for seed in range(200):
            rng = random.Random(seed)
            sides = []
            for length in (rng.randint(0, 12), rng.randint(0, 12)):
                sets = []
                for _ in range(length):
                    keep = sets and rng.random() < 0.6
                    sets.append(sets[-1] if keep else frozenset(rng.choice(pool)))
                sides.append(sets)
            engine_sets, oracle_sets = sides
            expected = []
            for index in range(max(len(engine_sets), len(oracle_sets))):
                engine = engine_sets[index] if index < len(engine_sets) else frozenset()
                now = oracle_sets[index] if index < len(oracle_sets) else frozenset()
                if engine != now:
                    expected.append((index, now - engine, engine - now))
            assert [(d.index, d.missing, d.extra)
                    for d in diff_taint(engine_sets, oracle_sets)] == expected, seed


def fan_out_trace(children: int) -> str:
    """pid 1 opens an untrusted socket, forks `children` children and pipes
    to each, and the first four children exit: a tainted set that grows to
    `children` + 1 processes."""
    lines = ["1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp"]
    lines += [f"2,1,fork,{pid}" for pid in range(2, children + 2)]
    lines += [f"3,1,pipe,{pid}" for pid in range(2, children + 2)]
    lines += [f"4,{pid},exit" for pid in range(2, 6)]
    return "\n".join(lines) + "\n"


def fan_out_case(children: int) -> tuple:
    """(config, world, policy, events) of fan_out_trace(children)."""
    return (*load_bundle(BOOT_TEXT, TRUSTED_TEXT, ""), parse_trace(fan_out_trace(children)))


class TestCheckWorkPerEvent:
    """check's Python work per event does not grow with the tainted set:
    the lines run inside stbac per event, counted by sys.settrace over
    check_replay, are no more with 400 tainted children than with 100."""

    @staticmethod
    def lines_per_event(children: int) -> float:
        config, world, policy, events = fan_out_case(children)
        package = str(Path(oracle.__file__).parent) + os.sep
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return count_lines

        def on_call(frame, event, arg):
            return count_lines if frame.f_code.co_filename.startswith(package) else None

        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            diff, report, _ = check_replay(config, world, policy, events)
        finally:
            sys.settrace(previous)
        assert diff.count == 0 and report.all_passed()
        return lines / len(events)

    def test_lines_per_event_do_not_grow_with_the_tainted_set(self):
        small, large = self.lines_per_event(100), self.lines_per_event(400)
        assert large <= 1.05 * small, (small, large)


class TestDivergenceBookkeeping:
    """With a taint rule stubbed out the engine falls short of the oracle;
    check_replay's TaintDiff, kept from the two sides' flips, must then
    report what diff_taint reports over two sides computed from scratch
    after every event: a by-path scan of the world, and ungated_closure.
    Each stubbed rule makes some case diverge."""

    STUBS = ("tr_proc_proc", "tr_sock_proc", "tr_exe_proc")

    @staticmethod
    def cases():
        """Makers of (config, world, policy, events): trace_gen traces, the
        fan-out trace and the bundled scenarios, where an exec spreads
        taint that the trace_gen traces seldom spread."""
        for seed in range(20):
            yield functools.partial(uniform_case, seed, "full")
            yield functools.partial(generated_case, seed, "full")
        yield functools.partial(fan_out_case, 60)
        for name in scenarios.NAMES:
            bundle = scenarios.load(name)
            yield lambda bundle=bundle: (*bundle.load(), bundle.events())

    @pytest.mark.parametrize("rule", STUBS)
    def test_divergences_match_a_from_scratch_reference(self, rule, monkeypatch):
        monkeypatch.setattr(stbac.taint, rule, lambda *args: None)
        diverging = 0
        for case in self.cases():
            diff, _, _ = check_replay(*case())
            config, world, policy, events = case()
            step = _Replayer(world, policy, None).step
            records, scanned = [], []
            for event in events:
                records.append(step(event))
                scanned.append(scanned_snapshot(world))
            reference = diff_taint(scanned, ungated_closure(config, policy.trust, events,
                                                            records), events)
            assert diff.count == len(reference)
            assert ([(d.index, d.tick, d.missing, d.extra) for d in diff.divergences]
                    == [(d.index, d.tick, d.missing, d.extra)
                        for d in reference[:cli.SHOWN_DIVERGENCES]])
            diverging += diff.count > 0
        assert diverging > 0


def structure_cell_by_cell(config):
    """Reference _Structure build: every boot cell, and every missing
    directory above it, through add_cell."""
    struct = oracle._Structure(InitConfig())
    for path, kind, exec_bits, _ in config.nodes:
        missing = []
        parent = parent_of(path)
        while parent not in struct.cells:
            missing.append(parent)
            parent = parent_of(parent)
        for dir_path in reversed(missing):
            struct.add_cell(dir_path, "dir", False, struct.cells[parent_of(dir_path)])
        struct.add_cell(path, kind, exec_bits, struct.cells[parent_of(path)])
    for flag, path, _ in config.marks:
        if flag == INTE and path in struct.cells:
            struct.protected.add(struct.cells[path])
    return struct


def structure_shape(struct):
    """Cells, kinds, exec bits, kids order and protection, with each listed
    cell's liveness (whether it is still the cell at its path)."""
    def live(cell):
        return cell.path, struct.cells.get(cell.path) is cell
    return {
        "cells": [(path, cell.path, cell.kind, cell.exec_bits)
                  for path, cell in struct.cells.items()],
        "kids": [(live(d), [live(c) for c in kids]) for d, kids in struct.kids.items()],
        "protected": sorted(live(c) for c in struct.protected),
    }


class TestBootStructure:
    """_Structure(config) against a cell-by-cell reference build, on boot
    configs the world accepts and on those it rejects."""

    @given(boot_gen.boot_configs)
    @example("node /a/b/c file 1\nnode /a dir 0\ninte /a\n")   # directory after its child
    @example("node /a file 0\nnode /a/b/c dir 0\n")              # under a file
    @example("node /a dir 0\nnode /a/b file 1\nnode /a file 1\ninte /a\n")  # replaced
    @example("node / file 1\nnode /a dir 0\n")                   # "/" replaced
    @settings(max_examples=400, deadline=None)
    def test_matches_cell_by_cell_build(self, text):
        config = parse_init_config(text)
        assert (structure_shape(oracle._Structure(config))
                == structure_shape(structure_cell_by_cell(config)))


def world_tree(world):
    """Each live path's kind, exec bits, parent path and children in order."""
    fs = world.fs
    return {node.path: (node.kind, node.exec_bits,
                        None if node.parent is None else fs[node.parent].path,
                        [child.path for child in world.kids.get(node.node_id, {}).values()])
            for node in fs.values()}


def structure_tree(struct):
    """The same, read off the oracle's cells and its own child index."""
    parents = {child: d.path for d, kids in struct.kids.items() for child in kids}
    return {path: (cell.kind, cell.exec_bits, parents.get(cell),
                   [child.path for child in struct.kids.get(cell, ())])
            for path, cell in struct.cells.items()}


class TestBootsAgree:
    """The world and the oracle's structure, each booted its own way from
    the same config, describe the same tree."""

    @given(boot_gen.boot_configs)
    @example("node /a/b/c file 1\nnode /d dir 0\nnode /a/e device 0\ninte /a/b\n")
    @example("inte /\nnode /c file 1\n")
    @settings(max_examples=400, deadline=None)
    def test_world_and_structure_agree(self, text):
        # Drop each line boot refuses (its error names it) until the rest
        # boots, so every generated config gives a tree to compare.
        lines = text.splitlines()
        while True:
            config = parse_init_config("\n".join(lines))
            try:
                world = spawn_boot_world(config)
                break
            except ConfigError as exc:
                del lines[int(str(exc).split(":")[0].removeprefix("boot config line ")) - 1]
        struct = oracle._Structure(config)
        assert structure_tree(struct) == world_tree(world)
        assert ({cell.path for cell in struct.protected}
                == {node.path for node in world.fs.values() if node.flags & INTE})


class TestIndependence:
    FORBIDDEN = {"engine", "taint", "vital", "guard"}

    def test_oracle_imports_nothing_from_the_engine_side(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported.update(alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
        assert "model" in imported                 # the walk sees the imports
        assert imported.isdisjoint(self.FORBIDDEN), imported & self.FORBIDDEN

    ENTRY = "trust /usr/sbin/sshd *:22 10.0.0.9:* tcp 3..7"

    @pytest.mark.parametrize("entry,program,local,remote,proto,tick", [
        (ENTRY, "/usr/sbin/sshd", ("10.0.0.1", 22), ("10.0.0.9", 40), "tcp", 3),
        (ENTRY, "/usr/sbin/sshd", ("10.0.0.1", 22), ("10.0.0.9", 40), "tcp", 7),
        (ENTRY, "/usr/sbin/sshd", ("10.0.0.1", 22), ("10.0.0.9", 40), "tcp", 8),
        (ENTRY, "/usr/sbin/sshd", ("10.0.0.1", 22), ("10.0.0.9", 40), "tcp", 2),
        (ENTRY, "/bin/sh", ("10.0.0.1", 22), ("10.0.0.9", 40), "tcp", 5),
        (ENTRY, "/usr/sbin/sshd", ("10.0.0.1", 22), ("10.0.0.9", 40), "udp", 5),
        (ENTRY, "/usr/sbin/sshd", ("10.0.0.1", 23), ("10.0.0.9", 40), "tcp", 5),
        (ENTRY, "/usr/sbin/sshd", ("10.0.0.1", 22), ("10.0.0.8", 40), "tcp", 5),
        ("trust /p *:* *:022 tcp 0..inf", "/p", ("a", 1), ("b", 22), "tcp", 0),
        ("trust /p *:* *:022 tcp 0..inf", "/p", ("a", 1), ("b", 220), "tcp", 0),
        ("trust /p *:* *:022 tcp 0..inf", "/p", ("a", 1), ("b", 1022), "tcp", 0),
        ("trust /p *:* *:000 tcp 0..inf", "/p", ("a", 1), ("b", 0), "tcp", 0),
        ("trust /p *:* *:2 tcp 0..inf", "/p", ("a", 1), ("b", 22), "tcp", 0),
        ("trust /p 10.0.0.1:* *:* tcp 0..inf", "/p", ("*", 1), ("b", 2), "tcp", 0),
    ])
    def test_own_trust_matcher_agrees_with_the_guard(self, entry, program, local,
                                                     remote, proto, tick):
        entries = [parse_trust_entry(entry)]
        assert (oracle._trusted(entries, program, local, remote, proto, tick)
                == match_trust(entries, program, local, remote, proto, tick))

    def test_own_trust_matcher_reads_the_entry_fields(self):
        entry = TrustEntry("/p", "*", "22", "*", "*", "tcp", 0, float("inf"))
        assert oracle._trusted([entry], "/p", ("a", 22), ("b", 9), "tcp", 10 ** 9)
        assert not oracle._trusted([entry], "/p", ("a", 21), ("b", 9), "tcp", 0)
        assert not oracle._trusted([], "/p", ("a", 22), ("b", 9), "tcp", 0)
        longer = parse_trust_entry(f"trust /p *:* *:{'1' * 5000} tcp 0..inf")
        assert not oracle._trusted([longer], "/p", ("a", 1), ("b", 22), "tcp", 0)


class TestRedirectedAccesses:
    BOOT = ("node /bin dir 0\nnode /bin/sh file 1\nnode /etc dir 0\n"
            "node /etc/passwd file 0\nnode /.stbac dir 0\n"
            "node /.stbac/passwd file 1\n"      # executable copy, worst case
            "conf /etc/passwd\ninte /etc/passwd\n")

    def test_redirected_write_taints_the_copy_on_both_sides(self):
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "3,1,open_write,/etc/passwd\n")
        diff, report, replayer = check(trace, self.BOOT,
                                       "pcopy /etc/passwd /.stbac/passwd\n")
        assert_agrees(diff)
        assert report.all_passed(), report.summary_lines()
        assert replayer.denials == 0
        assert ("file", "/.stbac/passwd") in replayer.tainted()
        assert ("file", "/etc/passwd") not in replayer.tainted()


class TestOrderRobustness:
    def test_independent_clusters_commute(self):
        """Two event groups over disjoint pids and files can be interleaved
        in any order without changing the final closure."""
        clusters = {
            "a": ["2,1,fork,{pid}",
                  "3,{pid},socket_open,{sid},10.0.0.1:23,10.0.0.9:50,udp",
                  "4,{pid},create,/srv/a,1"],
            "b": ["2,1,fork,{pid}",
                  "3,{pid},socket_open,{sid},10.0.0.1:24,10.0.0.9:51,udp",
                  "4,{pid},create,/srv/b,1"],
        }

        def interleave(order):
            # new pids and socket ids are handed out in trace order, so they
            # stay strictly increasing whichever cluster comes first
            fresh = {"pid": iter(range(2, 10)), "sid": iter(range(1, 10))}
            ids = {key: {} for key in clusters}
            steps = {key: iter(lines) for key, lines in clusters.items()}
            lines = ["1,1,execve,/bin/sh"]
            for key in order:
                line = next(steps[key])
                for name in fresh:
                    if "{" + name + "}" in line and name not in ids[key]:
                        ids[key][name] = next(fresh[name])
                lines.append(line.format(**ids[key]))
            # renumber ticks to stay non-decreasing
            out = []
            for i, line in enumerate(lines):
                _, rest = line.split(",", 1)
                out.append(f"{i + 1},{rest}")
            return "\n".join(out) + "\n"

        finals = set()
        for order in ("aaabbb", "bbbaaa", "ababab", "abbaab"):
            diff, _, replayer = check(interleave(order))
            assert_agrees(diff)
            finals.add(replayer.tainted())
        assert len(finals) == 1
        (final,) = finals
        assert ("file", "/srv/a") in final and ("file", "/srv/b") in final


class TestNegativeControls:
    """A deliberately broken engine must produce a visible divergence."""

    TRACE = ("1,1,execve,/bin/sh\n"
             "2,1,fork,2\n"
             "3,2,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
             "4,2,create,/srv/drop,1\n"
             "5,1,fork,3\n"
             "6,3,execve,/srv/drop\n")

    def test_disabled_exec_rule_is_detected(self, monkeypatch):
        import stbac.taint
        monkeypatch.setattr(stbac.taint, "tr_exe_proc", lambda process, node: None)
        diff, _, _ = check(self.TRACE)
        assert diff.count
        assert ("proc", 3) in diff.divergences[-1].missing

    def test_over_tainting_engine_is_detected(self, monkeypatch):
        """An engine that trusts no endpoint taints a process the oracle
        keeps clean: the divergence names it as engine extra."""
        from stbac import engine
        monkeypatch.setattr(engine, "match_trust", lambda *args: False)
        diff, _, _ = check("1,1,execve,/bin/sh\n"
                           "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,tcp\n")
        assert [d.describe() for d in diff.divergences] == [
            "event 1 (tick 2): engine extra proc:1"]

    def test_correct_engine_has_no_divergence(self):
        assert_agrees(check(self.TRACE)[0])


class TestDevices:
    """The engine never gives exec bits meaning on a device node: chmod and
    writes act only on regular files and a device cannot be executed.  The
    oracle must not taint a device a suspect touches."""

    SUSPECT = ("1,1,execve,/bin/sh\n"
               "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n")
    MKNOD_CHMOD = SUSPECT + "3,1,mknod,/srv/x,device\n4,1,chmod,/srv/x,1\n"
    BOOT_DEVICE = ("node /bin dir 0\nnode /bin/sh file 1\nnode /dev dir 0\n"
                   "node /dev/x device 1\n")

    def assert_device_untainted(self, trace, path, config=BOOT_TEXT):
        diff, report, replayer = check(trace, config)
        assert_agrees(diff)
        assert report.all_passed(), report.summary_lines()
        assert ("file", path) not in replayer.tainted()
        assert ("proc", 1) in replayer.tainted()

    def test_chmod_of_created_device(self):
        self.assert_device_untainted(self.MKNOD_CHMOD, "/srv/x")

    def test_write_to_chmodded_device(self):
        self.assert_device_untainted(self.MKNOD_CHMOD + "5,1,open_write,/srv/x\n",
                                     "/srv/x")

    def test_write_to_boot_device_with_exec_bit(self):
        self.assert_device_untainted(self.SUSPECT + "3,1,open_write,/dev/x\n",
                                     "/dev/x", self.BOOT_DEVICE)


class TestBiba:
    def test_vacuous_pass_on_health_only_trace(self):
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,fork,2\n"
                 "3,2,create,/srv/tool,1\n"
                 "4,2,open_read,/etc/passwd\n")
        _, report, _ = check(trace)
        assert report.all_passed()
        assert report.cond_write.exceptions == []

    def test_exec_of_dropped_file_lowers_the_executor(self):
        # a tainted process writes an executable; a health process runs it
        # and must come out low
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,fork,2\n"
                 "3,2,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "4,2,create,/srv/drop,1\n"
                 "5,1,fork,3\n"
                 "6,3,execve,/srv/drop\n")
        _, report, _ = check(trace)
        assert report.all_passed()

    def test_non_executable_drop_is_the_documented_exception(self):
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "3,1,create,/srv/notes,0\n")
        _, report, _ = check(trace)
        assert report.all_passed()
        assert len(report.cond_write.exceptions) == 1

    def test_exception_texts_are_bounded_and_counted(self):
        writes = "".join(f"{3 + i},1,create,/srv/n{i},0\n" for i in range(25))
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n" + writes)
        _, report, _ = check(trace)
        assert report.cond_write.exception_count == 25
        assert len(report.cond_write.exceptions) == oracle.KEPT_EXCEPTIONS == 20
        assert report.cond_write.exceptions[-1] == (
            "event 21 (create, tick 22): non-executable /srv/n19")
        assert "(25 non-executable-write exceptions)" in report.summary_lines()[1]

    def test_broken_taint_rule_fails_the_read_condition(self, monkeypatch):
        import stbac.taint
        monkeypatch.setattr(stbac.taint, "tr_sock_proc", lambda process, socket: None)
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n")
        _, report, _ = check(trace)
        assert not report.cond_read.passed

    def test_broken_integrity_rule_fails_the_write_condition(self, monkeypatch):
        # every write and creation of a suspect is allowed; /sbin/d and
        # /sbin/x inherit the protection of /sbin, and a health process
        # marks /etc/passwd protected before the suspect writes it
        import stbac.engine
        from stbac.model import ALLOW
        monkeypatch.setattr(stbac.engine, "pr_inte", lambda *args, **kwargs: ALLOW)
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,fork,2\n"
                 "3,2,set_stbac_attr,/etc/passwd,inte,1\n"
                 "4,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "5,1,create,/sbin/x,0\n"
                 "6,1,mkdir,/sbin/d\n"
                 "7,1,mknod,/sbin/d/n,file\n"
                 "8,1,open_write,/sbin/x\n"
                 "9,1,truncate,/sbin/x\n"
                 "10,1,chmod,/sbin/x,0\n"
                 "11,1,open_write,/etc/passwd\n")
        _, report, _ = check(trace)
        assert report.cond_read.passed and report.cond_exec.passed
        assert report.cond_write.violations == [
            "event 4 (create, tick 5): allowed creation in protected directory /sbin",
            "event 5 (mkdir, tick 6): allowed creation in protected directory /sbin",
            "event 6 (mknod, tick 7): allowed creation in protected directory /sbin/d",
            "event 7 (open_write, tick 8): allowed write to protected /sbin/x",
            "event 8 (truncate, tick 9): allowed truncate of protected /sbin/x",
            "event 9 (chmod, tick 10): allowed chmod of protected /sbin/x",
            "event 10 (open_write, tick 11): allowed write to protected /etc/passwd",
        ]
        assert report.cond_write.exceptions == [
            "event 4 (create, tick 5): non-executable /sbin/x",
            "event 5 (mkdir, tick 6): directory /sbin/d",
            "event 6 (mknod, tick 7): special file /sbin/d/n",
            "event 7 (open_write, tick 8): non-executable /sbin/x",
            "event 8 (truncate, tick 9): non-executable /sbin/x",
            "event 10 (open_write, tick 11): non-executable /etc/passwd",
        ]

    @pytest.mark.parametrize("entry", [check_biba, closure_from_replay,
                                       oracle.verify_replay],
                             ids=["check_biba", "closure_from_replay", "verify_replay"])
    def test_audit_length_mismatch_rejected(self, entry):
        """A short audit is refused, not walked as if its missing events
        were allowed; so is a long one."""
        events, result = run("1,1,execve,/bin/sh\n2,1,fork,2\n")
        for records in ([], result.records[:1], result.records * 2):
            with pytest.raises(ValueError, match=f"{len(records)} records for 2 events"):
                entry(BOOT, TRUSTED, events, records)

    @pytest.mark.parametrize("entry", [check_biba, closure_from_replay,
                                       oracle.verify_replay],
                             ids=["check_biba", "closure_from_replay", "verify_replay"])
    def test_records_of_other_events_rejected(self, entry):
        """Each record must be its own event's: an audit of as many events
        from another trace is refused, naming the first event whose record
        has another tick, pid or op."""
        _, result = run("1,1,socket_open,1,10.0.0.1:1,10.0.0.2:80,tcp\n"
                        "2,1,open_read,/etc/passwd\n3,1,fork,2\n")
        assert [r.result for r in result.records] == ["ALLOW", "DENY(PR_conf)", "ALLOW"]
        for trace, index in (("1,1,sched_tick\n2,1,sched_tick\n3,1,sched_tick\n", 0),
                             ("1,1,socket_open,1,10.0.0.1:1,10.0.0.2:80,tcp\n"
                              "2,1,open_read,/etc/passwd\n4,1,fork,2\n", 2),
                             ("1,1,socket_open,1,10.0.0.1:1,10.0.0.2:80,tcp\n"
                              "2,2,open_read,/etc/passwd\n3,1,fork,2\n", 1)):
            with pytest.raises(ValueError, match=f"audit record {index} .* event {index} "):
                entry(BOOT, TRUSTED, parse_trace(trace), result.records)


class TestGeneratedEquivalence:
    def test_handful_of_fixed_seeds(self):
        # quick non-hypothesis sanity pass over the generator machinery
        for seed in range(25):
            rng = random.Random(seed)
            intents = [(rng.randint(0, trace_gen.N_OPCODES - 1), rng.randint(0, 7),
                        rng.randint(0, 7), rng.randint(0, 1), rng.randint(0, 2))
                       for _ in range(rng.randint(0, 120))]
            trace_text, trust_text = trace_gen.build_trace(intents)
            diff, _, _ = check_replay(*load_bundle(trace_gen.BOOT_CONFIG, trust_text, ""),
                                      parse_trace(trace_text))
            assert diff.count == 0, (seed, [d.describe() for d in diff.divergences])
