import ast
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from stbac import oracle
from stbac import scenarios
from stbac.engine import Policy, parse_trace, replay
from stbac.guard import (
    TrustEntry,
    match_trust,
    parse_pcopy_map,
    parse_trust_entry,
    parse_trust_list,
)
from stbac.model import INTE, TraceError
from stbac.oracle import check_biba, closure_from_replay, diff_taint, taint_closure
from stbac.world import InitConfig, parent_of, parse_init_config, spawn_boot_world

import boot_gen
import trace_gen

BOOT = parse_init_config(
    "node /bin dir 0\nnode /bin/sh file 1\nnode /srv dir 0\n"
    "node /etc dir 0\nnode /etc/passwd file 0\n"
    "node /sbin dir 0\nconf /etc/passwd\ninte /sbin\n")

TRUSTED = parse_trust_list("trust /bin/sh *:* *:* tcp 0..inf\n")


def run(trace_text, config=BOOT, trust=TRUSTED):
    world = spawn_boot_world(config)
    events = parse_trace(trace_text)
    result = replay(world, events, Policy(list(trust)), track_taint=True)
    return events, result


class TestClosure:
    def test_all_trusted_sockets_give_empty_closure(self):
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:22,10.0.0.9:50,tcp\n"
                 "3,1,fork,2\n")
        events, result = run(trace)
        sets = taint_closure(BOOT, TRUSTED, events)
        assert all(s == frozenset() for s in sets)
        assert diff_taint(result.tainted_after, sets, events) == []

    def test_chain_through_fork_and_exec(self):
        # socket taints p1; p1 forks p2; p2 drops an executable; p3 runs it
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,fork,2\n"
                 "3,2,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "4,2,fork,3\n"
                 "5,3,create,/srv/drop,1\n"
                 "6,1,fork,4\n"
                 "7,4,execve,/srv/drop\n")
        events, result = run(trace)
        sets = taint_closure(BOOT, TRUSTED, events)
        # hand fixpoint over the five entities:
        # seed proc2 -> fork proc3 -> file /srv/drop -> exec proc4
        assert sets[-1] == frozenset({
            ("proc", 2), ("proc", 3), ("proc", 4), ("file", "/srv/drop")})
        assert diff_taint(result.tainted_after, sets, events) == []

    def test_empty_trace(self):
        events, result = run("")
        assert taint_closure(BOOT, TRUSTED, events) == []
        assert diff_taint(result.tainted_after, [], events) == []

    def test_web_download_closure_names_the_whole_chain(self):
        from stbac import scenarios
        bundle = scenarios.load("web_download")
        events = bundle.events()
        sets = taint_closure(bundle.config(), bundle.policy().trust, events)
        assert sets[-1] == frozenset({
            ("proc", 300), ("proc", 302), ("proc", 303),
            ("file", "/home/user/consume-cpu"),
            ("file", "/home/user/consume-mem")})

    def test_denied_events_contribute_no_edges(self):
        # the tainted write to /sbin is denied, so no executable appears there
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "3,1,create,/sbin/drop,1\n")
        events, result = run(trace)
        oracle = closure_from_replay(BOOT, TRUSTED, events, result.records)
        assert ("file", "/sbin/drop") not in oracle[-1]
        assert diff_taint(result.tainted_after, oracle, events) == []

    def test_rename_tracks_taint_under_new_path(self):
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "3,1,create,/srv/a,1\n"
                 "4,1,rename,/srv/a,/srv/b\n")
        events, result = run(trace)
        oracle = closure_from_replay(BOOT, TRUSTED, events, result.records)
        assert ("file", "/srv/b") in oracle[-1]
        assert ("file", "/srv/a") not in oracle[-1]
        assert diff_taint(result.tainted_after, oracle, events) == []

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
            taint_closure(BOOT, TRUSTED, parse_trace(trace))

    @pytest.mark.parametrize("endpoints,message", [
        (":22,10.0.0.9:50", "bad endpoint ':22'"),
        ("10.0.0.1:22,:50", "bad endpoint ':50'"),
        (f"10.0.0.1:{'1' * 5000},10.0.0.9:50", "not an integer"),
    ], ids=["empty local ip", "empty remote ip", "5000-digit port"])
    def test_unreplayed_trace_rejects_bad_endpoints(self, endpoints, message):
        with pytest.raises(TraceError, match=f"^line 1: {message}"):
            taint_closure(BOOT, TRUSTED, parse_trace(f"1,1,socket_open,1,{endpoints},tcp"))


class TestUnreplayedStructure:
    """taint_closure stays total on traces the engine never replayed: an
    operand may be missing or the tree may break rules the engine enforces."""

    BOOT = parse_init_config("node /a dir 0\nnode /a/x file 1\n")

    @pytest.mark.parametrize("trace", [
        "1,1,rename,/nope,/b\n",
        "1,1,create,/q/r,1\n",
        "1,1,rename,/a,/z/a\n",
        "1,1,rmdir,/a\n2,1,mkdir,/a\n3,1,rename,/a,/c\n",
    ], ids=["missing source", "missing parent", "missing target parent",
            "non-empty rmdir then rename"])
    def test_missing_or_broken_structure_gives_empty_sets(self, trace):
        events = parse_trace(trace)
        assert taint_closure(self.BOOT, [], events) == [frozenset()] * len(events)

    def test_rename_into_itself_changes_nothing(self):
        events = parse_trace("1,1,set_stbac_attr,/a/x,taint,1\n"
                             "2,1,rename,/a,/a\n3,1,rename,/a,/a/y\n"
                             "4,1,rename,/,/b\n")
        assert taint_closure(self.BOOT, [], events) == [
            frozenset({("file", "/a/x")})] * len(events)

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
            events = parse_trace("\n".join(lines) + "\n")
            struct = oracle._Structure(self.BOOT)
            for _ in oracle._walk(struct, [], events, set(), {}, set(), set()):
                pass
            for directory, kids in struct.kids.items():
                assert struct.cells[directory.path] is directory, seed
                for cell in kids:
                    assert struct.cells[cell.path] is cell, seed
                    assert parent_of(cell.path) == directory.path, seed
            assert len(taint_closure(self.BOOT, [], events)) == len(events)


def walk_structure(config, trust, events, records):
    """The oracle's structure after walking a replayed trace, with the
    index checked before every event; also counts renames of a directory
    with children and renames onto an existing file."""
    struct = oracle._Structure(config)
    denied, redirects = oracle._access_verdicts(records)
    seen = {"directory with children": 0, "onto a file": 0}
    walk = oracle._walk(struct, trust, events, denied, redirects, set(), set())
    for index, ev in enumerate(events):
        assert_index_consistent(struct)
        if ev.op == "rename" and index not in denied:
            moved = struct.cells[ev.args[0]]
            seen["directory with children"] += bool(struct.kids.get(moved))
            seen["onto a file"] += ev.args[1] in struct.cells
        next(walk)
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
        kind = "fifo" if node_id in world.fifos else world.fs[node_id].kind
        assert struct.cells[path].kind == kind, path


def generated_case(seed: int, mode: str) -> tuple:
    """A trace_gen trace weighted towards mkdir, unlink/rmdir and rename."""
    rng = random.Random(seed)
    intents = [(rng.choice((rng.randrange(trace_gen.N_OPCODES), 23, 24, 25)),
                rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 1),
                rng.randint(0, 2))
               for _ in range(rng.randint(40, 160))]
    trace_text, trust_text = trace_gen.build_trace(intents, mode)
    policy = Policy(parse_trust_list(trust_text), parse_pcopy_map(trace_gen.PCOPY_TEXT))
    return parse_init_config(trace_gen.BOOT_CONFIG), policy, parse_trace(trace_text)


class TestChildIndex:
    """The oracle's child index against the world's own paths, differentially."""

    @pytest.mark.parametrize("name", scenarios.NAMES)
    def test_bundled_scenarios(self, name):
        bundle = scenarios.load(name)
        result = bundle.replay()
        struct, _ = walk_structure(bundle.config(), bundle.policy().trust,
                                   bundle.events(), result.records)
        assert_structure_matches(struct, result.world)

    @pytest.mark.parametrize("mode", ["full", "benign"])
    def test_generated_traces(self, mode):
        seen = {}
        for seed in range(40):
            config, policy, events = generated_case(seed, mode)
            result = replay(spawn_boot_world(config), events, policy)
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
        events, result = run(trace)
        assert not result.denial_records()
        oracle_sets = closure_from_replay(BOOT, TRUSTED, events, result.records)
        assert diff_taint(result.tainted_after, oracle_sets, events) == []
        assert oracle_sets[-1] == frozenset({
            ("proc", 1), ("proc", 2), ("file", "/srv/m/d2/e/tool")})
        report = check_biba(BOOT, TRUSTED, events, result.records)
        assert report.all_passed(), report.summary_lines()
        struct, _ = walk_structure(BOOT, TRUSTED, events, result.records)
        assert_structure_matches(struct, result.world)


def structure_cell_by_cell(config):
    """Reference _Structure build: every boot cell, and every missing
    directory above it, through add_cell."""
    struct = oracle._Structure(InitConfig())
    for path, kind, exec_bits in config.nodes:
        missing = []
        parent = parent_of(path)
        while parent not in struct.cells:
            missing.append(parent)
            parent = parent_of(parent)
        for dir_path in reversed(missing):
            struct.add_cell(dir_path, "dir", False, struct.cells[parent_of(dir_path)])
        struct.add_cell(path, kind, exec_bits, struct.cells[parent_of(path)])
    for flag, path in config.marks:
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
    BOOT = parse_init_config(
        "node /bin dir 0\nnode /bin/sh file 1\nnode /etc dir 0\n"
        "node /etc/passwd file 0\nnode /.stbac dir 0\n"
        "node /.stbac/passwd file 1\n"      # executable copy, worst case
        "conf /etc/passwd\ninte /etc/passwd\n")

    def test_redirected_write_taints_the_copy_on_both_sides(self):
        from stbac.guard import parse_pcopy_map
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "3,1,open_write,/etc/passwd\n")
        world = spawn_boot_world(self.BOOT)
        events = parse_trace(trace)
        policy = Policy(list(TRUSTED), parse_pcopy_map(
            "pcopy /etc/passwd /.stbac/passwd\n"))
        result = replay(world, events, policy, track_taint=True)
        assert result.records[2].result == "ALLOW_REDIR(/.stbac/passwd)"
        oracle = closure_from_replay(self.BOOT, TRUSTED, events, result.records)
        assert ("file", "/.stbac/passwd") in oracle[-1]
        assert ("file", "/etc/passwd") not in oracle[-1]
        assert diff_taint(result.tainted_after, oracle, events) == []
        report = check_biba(self.BOOT, TRUSTED, events, result.records)
        assert report.all_passed(), report.summary_lines()


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
            events, result = run(interleave(order))
            sets = taint_closure(BOOT, TRUSTED, events)
            assert diff_taint(result.tainted_after, sets, events) == [], order
            finals.add(sets[-1])
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
        events, result = run(self.TRACE)
        oracle = closure_from_replay(BOOT, TRUSTED, events, result.records)
        divergences = diff_taint(result.tainted_after, oracle, events)
        assert divergences
        assert ("proc", 3) in divergences[-1].missing

    def test_correct_engine_has_no_divergence(self):
        events, result = run(self.TRACE)
        oracle = closure_from_replay(BOOT, TRUSTED, events, result.records)
        assert diff_taint(result.tainted_after, oracle, events) == []


class TestDevices:
    """The engine never gives exec bits meaning on a device node: chmod and
    writes act only on regular files and a device cannot be executed.  The
    oracle must not taint a device a suspect touches."""

    SUSPECT = ("1,1,execve,/bin/sh\n"
               "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n")
    MKNOD_CHMOD = SUSPECT + "3,1,mknod,/srv/x,device\n4,1,chmod,/srv/x,1\n"
    BOOT_DEVICE = parse_init_config(
        "node /bin dir 0\nnode /bin/sh file 1\nnode /dev dir 0\n"
        "node /dev/x device 1\n")

    def assert_device_untainted(self, trace, path, config=BOOT):
        events, result = run(trace, config)
        oracle = closure_from_replay(config, TRUSTED, events, result.records)
        assert diff_taint(result.tainted_after, oracle, events) == []
        report = check_biba(config, TRUSTED, events, result.records)
        assert report.all_passed(), report.summary_lines()
        assert ("file", path) not in oracle[-1]
        assert ("proc", 1) in oracle[-1]

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
        events, result = run(trace)
        report = check_biba(BOOT, TRUSTED, events, result.records)
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
        events, result = run(trace)
        report = check_biba(BOOT, TRUSTED, events, result.records)
        assert report.all_passed()

    def test_non_executable_drop_is_the_documented_exception(self):
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n"
                 "3,1,create,/srv/notes,0\n")
        events, result = run(trace)
        report = check_biba(BOOT, TRUSTED, events, result.records)
        assert report.all_passed()
        assert len(report.cond_write.exceptions) == 1

    def test_broken_taint_rule_fails_the_read_condition(self, monkeypatch):
        import stbac.taint
        monkeypatch.setattr(stbac.taint, "tr_sock_proc", lambda process, socket: None)
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:50,udp\n")
        events, result = run(trace)
        report = check_biba(BOOT, TRUSTED, events, result.records)
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
        events, result = run(trace)
        report = check_biba(BOOT, TRUSTED, events, result.records)
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

    def test_audit_length_mismatch_rejected(self):
        events, result = run("1,1,execve,/bin/sh\n")
        with pytest.raises(ValueError, match="records"):
            check_biba(BOOT, TRUSTED, events, [])


class TestGeneratedEquivalence:
    def test_handful_of_fixed_seeds(self):
        # quick non-hypothesis sanity pass over the generator machinery
        for seed in range(25):
            rng = random.Random(seed)
            intents = [(rng.randint(0, trace_gen.N_OPCODES - 1), rng.randint(0, 7),
                        rng.randint(0, 7), rng.randint(0, 1), rng.randint(0, 2))
                       for _ in range(rng.randint(0, 120))]
            trace_text, trust_text = trace_gen.build_trace(intents)
            config = parse_init_config(trace_gen.BOOT_CONFIG)
            world = spawn_boot_world(config)
            events = parse_trace(trace_text)
            trust = parse_trust_list(trust_text)
            result = replay(world, events, Policy(trust), track_taint=True)
            oracle = closure_from_replay(config, trust, events, result.records)
            assert diff_taint(result.tainted_after, oracle, events) == [], seed
