import ast
import itertools
import random
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import stbac
from stbac import engine
from stbac.cli import main
from stbac.engine import FlagChange, parse_trace, replay
from stbac.model import (
    ALLOW,
    AVAI,
    CONF,
    FLAG_NAMES,
    INTE,
    LEAK,
    NO_FLAGS,
    TAINT,
    ConfigError,
    StbacError,
    TraceError,
    ascii_int,
    parse_flag,
    parse_resource,
)
from stbac.world import (
    INIT_PID,
    InitConfig,
    World,
    check_path,
    parse_init_config,
    parent_of,
    serialize_config,
    spawn_boot_world,
)

import boot_gen


def boot(text):
    return spawn_boot_world(parse_init_config(text))


class TestBoot:
    def test_empty_config_gives_root_and_init(self):
        world = boot("")
        assert world.lookup("/") is not None
        assert set(world.processes) == {INIT_PID}
        assert world.processes[INIT_PID].flags == NO_FLAGS
        assert all(node.flags == NO_FLAGS for node in world.fs.values())

    def test_conf_mark_applied(self):
        world = boot("node /etc dir 0\nnode /etc/passwd file 0\nconf /etc/passwd\n")
        node = world.node_at("/etc/passwd")
        assert node.flags & CONF
        assert not node.flags & INTE

    def test_parents_created_implicitly(self):
        world = boot("node /a/b/c file 1\n")
        assert world.node_at("/a").kind == "dir"
        assert world.node_at("/a/b").kind == "dir"
        assert world.node_at("/a/b/c").exec_bits

    def test_duplicate_path_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            boot("node /x file 0\nnode /x file 0\n")

    def test_flag_line_may_precede_its_node_line(self):
        """Every node is made before any flag applies, so a flag line may
        come before the node line of its path, or name a directory that a
        later, deeper node line creates implicitly."""
        world = boot("conf /a\ninte /d\nnode /a file 0\nnode /d/f file 0\n")
        assert world.node_at("/a").flags == CONF
        assert world.node_at("/d").flags == INTE

    def test_flag_on_missing_path_rejected(self):
        with pytest.raises(ConfigError, match="nonexistent"):
            boot("conf /nope\n")

    def test_hwm_percent_range_enforced(self):
        with pytest.raises(ConfigError, match=r"outside \(0,100\]"):
            parse_init_config("hwm cpu_ticks 10 101\n")
        with pytest.raises(ConfigError, match=r"outside \(0,100\]"):
            parse_init_config("hwm cpu_ticks 10 0\n")
        parse_init_config("hwm cpu_ticks 10 100\n")

    def test_hwm_and_cap_recorded(self):
        world = boot("hwm memory_bytes 512 75\ncap memory_bytes 4096\n")
        assert world.ledger.hwm_st["memory_bytes"] == 512
        assert world.ledger.hwm_sys["memory_bytes"] == 75
        assert world.ledger.caps["memory_bytes"] == 4096
        assert world.ledger.flags["memory_bytes"] & AVAI

    def test_unknown_directive_rejected(self):
        with pytest.raises(ConfigError, match="unknown directive"):
            parse_init_config("frob /x\n")


def boot_node_by_node(config):
    """Reference boot: every node, and every missing directory above it,
    through World.add_node; marks through World.set_flags."""
    world = spawn_boot_world(InitConfig())
    for path, kind, exec_bits, line_no in config.nodes:
        try:
            if world.lookup(path) is not None:
                raise ConfigError(f"duplicate path in config: {path}")
            missing = []
            parent = parent_of(path)
            while world.lookup(parent) is None:
                missing.append(parent)
                parent = parent_of(parent)
            for dir_path in reversed(missing):
                world.add_node(dir_path, "dir", False, world.lookup(parent_of(dir_path)))
            world.add_node(path, kind, exec_bits, world.lookup(parent_of(path)))
        except StbacError as exc:
            raise ConfigError(f"boot config line {line_no}: {exc}") from None
    for bit, path, line_no in config.marks:
        if world.lookup(path) is None:
            raise ConfigError(f"boot config line {line_no}: flag {FLAG_NAMES[bit]} "
                              f"on nonexistent path {path}")
        node = world.node_at(path)
        world.set_flags(("file", node.node_id), node.flags | bit)
    for kind, (limit, percent) in config.hwms.items():
        world.ledger.hwm_st[kind] = limit
        world.ledger.hwm_sys[kind] = percent
        world.set_flags(("res", kind), AVAI)
    for kind, total in config.caps.items():
        world.ledger.caps[kind] = total
        world.set_flags(("res", kind), AVAI)
        if kind not in config.hwms:
            world.ledger.hwm_st[kind] = total // 2
    return world


def boot_state(world):
    """Everything boot decides, in insertion order where the world keeps one."""
    return {
        "nodes": [(n.node_id, n.path, n.parent, n.kind, n.exec_bits, n.flags)
                  for n in world.fs.values()],
        "kids": [(d, [(c, node is world.fs[c]) for c, node in kids.items()])
                 for d, kids in world.kids.items()],
        "path_index": list(world.path_index.items()),
        "tainted": engine.tainted_snapshot(world),
        "ledger": world.ledger,
        "processes": [(p.pid, p.exe_path, p.flags) for p in world.processes.values()],
        "next_node_id": world.next_node_id,
    }


def boot_outcome(build, config):
    try:
        return boot_state(build(config))
    except ConfigError as exc:
        return str(exc)


class TestBootDifferential:
    """spawn_boot_world against a node-by-node reference build."""

    @given(boot_gen.boot_configs)
    @example("node /a/b/c file 1\nnode /a dir 0\n")       # directory after its child
    @example("node /a file 0\nnode /a/b/c dir 0\n")       # under a file, parents missing
    @example("node /a file 0\nnode /a device 1\n")        # repeated path
    @example("node /a dir 0\nconf /a/b\n")                # mark on a missing path
    @example("node / dir 0\n")
    @example("node /c/b dir 0\nnode /a/b/c file 1\nnode /c/a file 0\ninte /c\n"
             "leak /a/b/c\nhwm cpu_ticks 3 40\ncap net_bytes 9\ncap cpu_ticks 7\n")
    @settings(max_examples=400, deadline=None)
    def test_matches_node_by_node_boot(self, text):
        config = parse_init_config(text)
        assert boot_outcome(spawn_boot_world, config) == boot_outcome(boot_node_by_node,
                                                                     config)

    @given(st.text(alphabet="/a,.", min_size=1, max_size=8))
    @example("/a//b")
    @example("//")
    @example("/")
    @settings(max_examples=300, deadline=None)
    def test_node_lines_check_paths_as_check_path_does(self, path):
        try:
            check_path(path)
            expected = None
        except StbacError as exc:
            expected = f"boot config line 1: {exc}"
        try:
            parse_init_config(f"node {path} file 0\n")
            got = None
        except ConfigError as exc:
            got = str(exc)
        assert got == expected

    @pytest.mark.parametrize("line,message", [
        ("conf /a//b", "line 1: empty path component not allowed: '/a//b'"),
        ("node /a// file 0", "line 1: trailing slash not allowed: '/a//'"),
        ("node a//b sock 0", "line 1: bad node kind 'sock'"),
        ("node a//b file 2", "line 1: path must be absolute: 'a//b'"),
        ("node /a file 2", "line 1: expected 0 or 1, got '2'"),
        ("node /a file", "line 1: malformed directive: node /a file"),
    ])
    def test_node_line_errors_keep_their_order(self, line, message):
        with pytest.raises(ConfigError) as info:
            parse_init_config(line + "\n")
        assert str(info.value) == "boot config " + message


def parse_line_by_line(text):
    """Reference boot parser: strip each line, skip blank and # lines, then
    read one directive, its checks in the order their errors are reported."""
    config = InitConfig()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "node":
                if len(fields) != 4:
                    raise ValueError
                _, path, kind, exec_bit = fields
                if kind not in ("file", "dir", "device"):
                    raise ConfigError(f"bad node kind {kind!r}")
                check_path(path)
                if exec_bit not in ("0", "1"):
                    raise ConfigError(f"expected 0 or 1, got {exec_bit!r}")
                config.nodes.append((path, kind, exec_bit == "1", line_no))
            elif fields[0] in ("conf", "inte", "leak"):
                if len(fields) != 2:
                    raise ValueError
                config.marks.append((parse_flag(fields[0]), check_path(fields[1]),
                                     line_no))
            elif fields[0] == "hwm":
                if len(fields) != 4:
                    raise ValueError
                kind = parse_resource(fields[1])
                limit, percent = ascii_int(fields[2]), ascii_int(fields[3])
                if limit < 0:
                    raise ConfigError("per-taint limit must be >= 0")
                if not 0 < percent <= 100:
                    raise ConfigError(f"system percentage {percent} outside (0,100]")
                config.hwms[kind] = (limit, percent)
            elif fields[0] == "cap":
                if len(fields) != 3:
                    raise ValueError
                kind = parse_resource(fields[1])
                total = ascii_int(fields[2])
                if total <= 0:
                    raise ConfigError("system total must be positive")
                config.caps[kind] = total
            else:
                raise ConfigError(f"unknown directive {fields[0]!r}")
        except ValueError:
            raise ConfigError(f"boot config line {line_no}: malformed directive: "
                              f"{line}") from None
        except StbacError as exc:
            raise ConfigError(f"boot config line {line_no}: {exc}") from None
    return config


def parse_outcome(parse, text):
    try:
        config = parse(text)
    except ConfigError as exc:
        return str(exc)
    return config.nodes, config.marks, config.hwms, config.caps


def assert_untainted(world):
    """No process or node holds TAINT, and nothing logged a taint flip."""
    assert engine.tainted_snapshot(world) == frozenset()
    assert not any(proc.flags & TAINT for proc in world.processes.values())
    assert not any(node.flags & TAINT for node in world.fs.values())
    assert world.taint_changes == []


class TestBootNeverTaints:
    """check's TaintDiff starts both sides empty, since a booted world
    holds no TAINT: the boot config marks only conf, inte and leak, and so
    does a set-flag edit of it."""

    @given(boot_gen.boot_configs, st.sampled_from(("conf", "inte", "leak")),
           st.sampled_from(("on", "off")), st.data())
    @settings(max_examples=200, deadline=None)
    def test_no_config_and_no_recursive_set_flag_edit_taints(self, text, flag, value, data):
        try:
            world = boot(text)
        except ConfigError:
            return
        assert_untainted(world)
        path = data.draw(st.sampled_from(sorted(world.path_index)))
        with tempfile.TemporaryDirectory() as tmp:
            init = Path(tmp) / "init.cfg"
            init.write_text(text, encoding="utf-8")
            assert main(["set-flag", "--init", str(init), "--recursive", path, flag, value]) == 0
            assert_untainted(boot(init.read_text(encoding="utf-8")))


class TestParserDifferential:
    """parse_init_config against a line-at-a-time reference parser, on
    texts with malformed lines, odd whitespace and line breaks."""

    @given(boot_gen.raw_boot_texts)
    @example("  node /a file 0\n\tinte\t/a\n")              # leading whitespace
    @example("node /a\x0cfile 0\n")                           # a break inside a line
    @example("node\x1f/a\xa0file\t0\n\x1c\nconf /a\n")          # spaces, not breaks
    @example("   # node /a file 9\n\t#\nnode /b dir 1\n")      # indented comments
    @example("node a/ sock 2\n")                               # every check fails
    @example("node /a file 0 # trailing comment\n")
    @example("hwm cpu_ticks 3 50\nhwm cpu_ticks 4 60\ncap cpu_ticks ١٢\n")
    @settings(max_examples=500, deadline=None)
    def test_matches_line_by_line_parser(self, text):
        assert parse_outcome(parse_init_config, text) == parse_outcome(parse_line_by_line,
                                                                       text)

    def test_the_texts_reach_every_outcome(self):
        """The generated texts parse, fail on a node line's kind, path or exec
        bit, fail on a field count and carry breaks and odd spaces."""
        seen = set()

        @given(boot_gen.raw_boot_texts)
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        def collect(text):
            outcome = parse_outcome(parse_init_config, text)
            if not isinstance(outcome, str):
                seen.add("parsed")
            else:
                for mark in ("bad node kind", "path must be absolute", "trailing slash",
                             "empty path component", "comma", "expected 0 or 1",
                             "malformed directive", "unknown"):
                    if mark in outcome:
                        seen.add(mark)
            seen.update(c for c in "\x0c\x1c\x1f\xa0\t" if c in text)

        collect()
        assert seen == {"parsed", "bad node kind", "path must be absolute",
                        "trailing slash", "empty path component", "comma",
                        "expected 0 or 1", "malformed directive", "unknown",
                        "\x0c", "\x1c", "\x1f", "\xa0", "\t"}


class TestLookup:
    def test_root(self):
        world = boot("")
        assert world.lookup("/") == world.node_at("/").node_id

    def test_configured_path(self):
        world = boot("node /etc dir 0\nnode /etc/passwd file 0\n")
        assert world.lookup("/etc/passwd") is not None

    def test_missing_path_is_none(self):
        world = boot("")
        assert world.lookup("/no/such") is None


def admin(world, trace_text, tainted=False):
    """Audit records of a flag administration trace; the actor is tainted
    first when asked."""
    if tainted:
        world.set_flags(("proc", INIT_PID), TAINT)
    return replay(world, parse_trace(trace_text)).records


class TestFlagOps:
    def test_flags_of_and_set_flags_switch_on_the_ref_kind(self):
        world = boot("node /d file 0\n")
        node = world.node_at("/d")
        world.open_socket(1, INIT_PID, ("2.2.2.2", 2), False)
        world.set_flags(("proc", INIT_PID), CONF)
        world.set_flags(("file", node.node_id), INTE | LEAK)
        world.set_flags(("res", "disk_blocks"), AVAI | TAINT)
        assert world.processes[INIT_PID].flags == CONF
        assert node.flags == INTE | LEAK
        assert world.ledger.flags["disk_blocks"] == AVAI | TAINT
        assert world.flags_of(("proc", INIT_PID)) == CONF
        assert world.flags_of(("file", node.node_id)) == INTE | LEAK
        assert world.flags_of(("res", "disk_blocks")) == AVAI | TAINT
        assert world.flags_of(("sock", 1)) == NO_FLAGS
        assert engine.tainted_snapshot(world) == frozenset()
        assert world.taint_changes == []        # a resource's TAINT bit is no taint flip

    def test_health_actor_sets_flag(self):
        world = boot("node /sbin dir 0\n")
        (record,) = admin(world, "1,1,set_stbac_attr,/sbin,inte,1\n")
        assert record.result == "ALLOW"
        assert record.param == "inte=1"
        assert record.flag_changes == (
            FlagChange(("file", "/sbin"), INTE, True, "set_stbac_attr"),)
        assert world.node_at("/sbin").flags & INTE

    def test_tainted_actor_denied_set(self):
        world = boot("node /sbin dir 0\n")
        (record,) = admin(world, "1,1,set_stbac_attr,/sbin,inte,1\n", tainted=True)
        assert record.result == "DENY(PR_inte)"
        assert record.flag_changes == ()
        assert not world.node_at("/sbin").flags & INTE

    def test_set_is_idempotent(self):
        world = boot("node /f file 0\n")
        first, second = admin(world, "1,1,set_stbac_attr,/f,conf,1\n"
                                     "2,1,set_stbac_attr,/f,conf,1\n")
        assert [c.flag for c in first.flag_changes] == [CONF]
        assert second.result == "ALLOW"
        assert second.flag_changes == ()
        assert world.node_at("/f").flags == CONF

    def test_clear_taint_explicitly_allowed(self):
        world = boot("node /f file 1\n")
        node = world.node_at("/f")
        world.set_flags(("file", node.node_id), TAINT)
        (record,) = admin(world, "1,1,set_stbac_attr,/f,taint,0\n")
        assert record.result == "ALLOW"
        assert record.flag_changes == (
            FlagChange(("file", "/f"), TAINT, False, "set_stbac_attr"),)
        assert not node.flags & TAINT

    def test_avai_only_on_resources(self):
        world = boot("node /f file 0\n")
        with pytest.raises(TraceError,
                           match="line 1: flag avai only applies to resource kinds"):
            admin(world, "1,1,set_stbac_attr,/f,avai,1\n")
        (record,) = admin(world, "1,1,set_stbac_attr,res:cpu_ticks,avai,1\n")
        assert record.result == "ALLOW"
        (change,) = record.flag_changes
        assert change == FlagChange(("res", "cpu_ticks"), AVAI, True,
                                    "set_stbac_attr")
        assert type(change.entity[1]) is str and type(change.rule) is str
        assert world.ledger.flags["cpu_ticks"] & AVAI
        with pytest.raises(TraceError,
                           match="line 1: flag conf only applies to processes and nodes"):
            admin(world, "1,1,set_stbac_attr,res:cpu_ticks,conf,1\n")

    def test_get_flag_health_actor(self):
        world = boot("node /f file 0\nconf /f\n")
        (record,) = admin(world, "1,1,get_stbac_attr,/f\n")
        assert (record.result, record.param) == ("ALLOW", "flags=conf")

    def test_get_flag_tainted_actor_denied(self):
        world = boot("node /f file 0\nconf /f\n")
        (record,) = admin(world, "1,1,get_stbac_attr,/f\n", tainted=True)
        assert (record.result, record.param) == ("DENY(PR_conf)", "-")

    def test_get_flag_unflagged_is_empty(self):
        world = boot("node /f file 0\n")
        (record,) = admin(world, "1,1,get_stbac_attr,/f\n")
        assert (record.result, record.param) == ("ALLOW", "flags=-")

    def test_unknown_entity(self):
        world = boot("")
        with pytest.raises(TraceError, match="line 1: no such path /nope"):
            admin(world, "1,1,set_stbac_attr,/nope,conf,1\n")
        with pytest.raises(TraceError, match="line 1: no such pid 9"):
            admin(world, "1,1,get_stbac_attr,pid:9\n")

    @pytest.mark.parametrize("event", ["set_stbac_attr,pid:3,taint,1",
                                       "get_stbac_attr,pid:3"])
    def test_exited_pid_rejected(self, event):
        world = boot("")
        with pytest.raises(TraceError, match="^line 3: pid 3 has exited$"):
            admin(world, f"1,1,fork,3\n2,3,exit\n3,1,{event}\n")
        assert engine.tainted_snapshot(world) == frozenset()

    def test_admin_verdicts_come_from_the_guard(self, monkeypatch):
        monkeypatch.setattr(engine, "pr_inte", lambda *args, **kwargs: ALLOW)
        monkeypatch.setattr(engine, "pr_conf", lambda *args, **kwargs: ALLOW)
        world = boot("node /f file 0\n")
        set_record, get_record = admin(world, "1,1,set_stbac_attr,/f,conf,1\n"
                                              "2,1,get_stbac_attr,/f\n", tainted=True)
        assert set_record.result == "ALLOW"
        assert world.node_at("/f").flags & CONF
        assert (get_record.result, get_record.param) == ("ALLOW", "flags=conf")


class TestTaintedSet:
    def scan(self, world):
        """Labels of the live TAINT processes and of the TAINT nodes by
        path, from a full scan of the world."""
        return ({("proc", pid) for pid, p in world.processes.items()
                 if p.alive and p.flags & TAINT}
                | {("file", n.path) for n in world.fs.values() if n.flags & TAINT})

    def test_set_flags_exit_remove_and_repath_keep_it_current(self):
        """Each TAINT bit set or cleared, and each exit, removal and rename
        of an entity holding TAINT, logs its flip; tainted_snapshot scans the
        same labels as the test's own scan."""
        snapshot = engine.tainted_snapshot
        world = boot("node /d/f file 0\nnode /g file 0\n")
        child = world.spawn(world.processes[INIT_PID], 2)
        f = world.node_at("/d/f")
        world.set_flags(("file", f.node_id), TAINT)
        world.set_flags(("proc", 2), TAINT)
        assert snapshot(world) == self.scan(world) == {("file", "/d/f"), ("proc", 2)}
        assert world.taint_changes == [(("file", "/d/f"), True), (("proc", 2), True)]
        world.taint_changes.clear()
        world.set_flags(("file", f.node_id), TAINT | CONF)
        world.repath(world.node_at("/g"), "/h")
        assert world.taint_changes == []        # no TAINT flip, no tainted member moved
        world.repath(world.node_at("/d"), "/e")
        assert world.taint_changes == [(("file", "/d/f"), False), (("file", "/e/f"), True)]
        assert snapshot(world) == self.scan(world) == {("file", "/e/f"), ("proc", 2)}
        world.taint_changes.clear()
        world.exit(child)
        assert snapshot(world) == self.scan(world) == {("file", "/e/f")}
        world.remove_node(f)
        assert snapshot(world) == self.scan(world) == set()
        assert world.taint_changes == [(("proc", 2), False), (("file", "/e/f"), False)]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_changes_log_each_flip_of_the_snapshot(self, seed):
        """After every change tainted_snapshot equals the test's own by-path
        scan, and the change's log of flips, each one a real entry or exit,
        turns the scan before it into the scan after it."""
        rng = random.Random(seed)
        names = itertools.count()
        world = boot("")
        for _ in range(300):
            labels = self.scan(world)
            world.taint_changes.clear()
            roll = rng.random()
            if roll < 0.2:
                node = rng.choice(list(world.fs.values()))
                world.set_flags(("file", node.node_id), node.flags ^ TAINT)
            elif roll < 0.3:
                proc = rng.choice([p for p in world.processes.values() if p.alive])
                if proc.pid == INIT_PID or rng.random() < 0.5:
                    world.set_flags(("proc", proc.pid), proc.flags ^ TAINT)
                else:
                    world.exit(proc)
            elif roll < 0.35:
                world.spawn(world.processes[INIT_PID], world.max_pid_seen + 1)
            else:
                random_step(world, rng, names, defaultdict(int))
            assert engine.tainted_snapshot(world) == self.scan(world)
            for label, entered in world.taint_changes:
                assert (label in labels) != entered, (label, entered)
                labels.add(label) if entered else labels.remove(label)
            assert labels == self.scan(world)

    def test_boot_marks_go_through_set_flags(self, monkeypatch):
        writes = []
        set_flags = World.set_flags
        monkeypatch.setattr(World, "set_flags", lambda world, ref, flags: (
            writes.append((ref[0], flags)), set_flags(world, ref, flags)))
        boot("node /f file 0\nconf /f\nleak /f\nhwm cpu_ticks 5 50\n")
        assert writes == [("file", CONF), ("file", CONF | LEAK), ("res", AVAI)]


class LabelWrites(ast.NodeVisitor):
    """Collects (enclosing class.function, line) of every store into an
    attribute named flags or into an item of one, and of every setattr
    naming "flags"."""

    def __init__(self):
        self.scope = []
        self.found = set()

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_Attribute(self, node):
        if node.attr == "flags" and isinstance(node.ctx, ast.Store):
            self.found.add((".".join(self.scope), node.lineno))
        self.generic_visit(node)

    def visit_Subscript(self, node):
        if (isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "flags"):
            self.found.add((".".join(self.scope), node.lineno))
        self.generic_visit(node)

    def visit_Call(self, node):
        if getattr(node.func, "id", None) == "setattr" and any(
                isinstance(arg, ast.Constant) and arg.value == "flags" for arg in node.args):
            self.found.add((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def test_set_flags_is_the_only_writer_of_label_bits():
    writers = {}
    for path in sorted(Path(stbac.__file__).parent.glob("*.py")):
        visitor = LabelWrites()
        visitor.visit(ast.parse(path.read_text()))
        for scope, line in visitor.found:
            writers.setdefault((path.name, scope), []).append(line)
    assert set(writers) == {("world.py", "World.set_flags")}, writers
    assert len(writers["world.py", "World.set_flags"]) == 2


def config_state(world):
    """What a boot config sets: each node's kind, exec bit and label by path,
    and the ledger."""
    return ({n.path: (n.kind, n.exec_bits, n.flags) for n in world.fs.values()},
            world.ledger)


class TestSerialization:
    def test_round_trip(self):
        text = ("node /bin dir 0\nnode /bin/sh file 1\nnode /etc dir 0\n"
                "node /etc/passwd file 0\nconf /etc/passwd\ninte /bin\n"
                "leak /bin/sh\nhwm cpu_ticks 10 80\ncap cpu_ticks 100\n")
        world = boot(text)
        rendered = serialize_config(world)
        again = boot(rendered)
        assert again.node_at("/etc/passwd").flags & CONF
        assert again.node_at("/bin").flags & INTE
        assert again.node_at("/bin/sh").flags & LEAK
        assert again.node_at("/bin/sh").exec_bits
        assert again.ledger.hwm_st["cpu_ticks"] == 10
        assert again.ledger.caps["cpu_ticks"] == 100

    @given(boot_gen.boot_configs)
    @example("inte /\n")
    @example("node /a dir 0\nconf /\nleak /\nleak /a\nhwm net_bytes 3 40\n")
    @settings(max_examples=300, deadline=None)
    def test_booting_the_rendering_gives_the_same_world(self, text):
        """serialize_config keeps every node, exec bit, label (those of "/"
        too) and ledger entry of any config that boots."""
        try:
            world = boot(text)
        except ConfigError:
            return
        assert config_state(boot(serialize_config(world))) == config_state(world)


class TestIdentifiers:
    def test_pid_freshness_enforced(self):
        world = boot("")
        init = world.processes[INIT_PID]
        world.spawn(init, 5)
        with pytest.raises(StbacError, match="not fresh"):
            world.spawn(init, 5)
        with pytest.raises(StbacError, match="not fresh"):
            world.spawn(init, 3)

    def test_add_node_is_the_only_inserter(self, monkeypatch):
        # boot nodes, implicit boot directories and replayed creations all
        # go through World.add_node, which the benchmark's node counter wraps
        calls = []
        add_node = World.add_node
        monkeypatch.setattr(World, "add_node", lambda world, *args: (
            calls.append(args[0]), add_node(world, *args))[1])
        world = boot("node /a/b/c file 1\nnode /d dir 0\n")
        replay(world, parse_trace("1,1,create,/d/f,0\n2,1,mkdir,/d/e\n"
                                  "3,1,mkfifo,/d/e/p\n4,1,mknod,/d/n,device\n"))
        assert len(calls) == len(world.fs) == 9
        assert sorted(calls) == sorted(n.path for n in world.fs.values())

    def test_node_ids_never_reused(self):
        world = boot("node /a file 0\n")
        seen = {world.lookup("/a")}
        node = world.node_at("/a")
        world.remove_node(node)
        new = world.add_node("/a", "file", False, world.lookup("/"))
        assert new.node_id not in seen


def assert_index_exact(world):
    """children() and path_index agree with brute force over fs."""
    below = defaultdict(set)
    for node in world.fs.values():
        below[node.parent].add(node.node_id)
    for node in world.fs.values():
        if node.kind != "dir":
            continue
        kids = world.children(node)
        assert {k.node_id for k in kids} == below[node.node_id], node.path
        assert all(world.fs[k.node_id] is k for k in kids)
    assert world.path_index == {n.path: i for i, n in world.fs.items()}
    for node in world.fs.values():
        if node.path != "/":
            assert world.lookup(parent_of(node.path)) == node.parent, node.path


def join(directory, name):
    return f"/{name}" if directory.path == "/" else f"{directory.path}/{name}"


def random_step(world, rng, names, counts):
    """One add_node, remove_node or repath, the last the way rename does it:
    an existing file at the destination is removed first."""
    nodes = list(world.fs.values())
    dirs = [n for n in nodes if n.kind == "dir"]
    action = rng.random()
    if action < 0.45 or len(nodes) < 4:
        parent = rng.choice(dirs)
        kind = "dir" if rng.random() < 0.4 else "file"
        world.add_node(join(parent, f"n{next(names)}"), kind, False, parent.node_id)
    elif action < 0.6:
        leaves = [n for n in nodes if n.path != "/" and not world.children(n)]
        world.remove_node(rng.choice(leaves))
    else:
        src = rng.choice([n for n in nodes if n.path != "/"])
        inside = {n.node_id for n in world.subtree(src)}
        dst_dir = rng.choice([d for d in dirs if d.node_id not in inside])
        files = [n for n in world.children(dst_dir)
                 if n.kind == "file" and n.node_id != src.node_id]
        if files and rng.random() < 0.4:
            overwritten = rng.choice(files)
            dst_path = overwritten.path
            world.remove_node(overwritten)
            counts["overwrites"] += 1
        else:
            dst_path = join(dst_dir, f"n{next(names)}")
        if len(inside) > 2 and src.parent != dst_dir.node_id:
            counts["nested_moves"] += 1
        world.repath(src, dst_path)


class TestChildIndex:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_add_remove_repath_keeps_index_exact(self, seed):
        rng = random.Random(seed)
        names = itertools.count()
        counts = defaultdict(int)
        world = boot("")
        for _ in range(250):
            random_step(world, rng, names, counts)
            assert_index_exact(world)
        assert counts["overwrites"] > 0 and counts["nested_moves"] > 0

    def test_subtree_lists_parents_before_children(self):
        world = boot("node /a/b/c/d file 0\nnode /a/e file 0\n")
        order = [n.path for n in world.subtree(world.node_at("/a"))]
        assert sorted(order) == ["/a", "/a/b", "/a/b/c", "/a/b/c/d", "/a/e"]
        for path in order[1:]:
            assert order.index(parent_of(path)) < order.index(path)

    def test_file_renamed_into_directory_makes_it_non_empty(self):
        world = boot("node /d dir 0\nnode /f file 0\n")
        with pytest.raises(TraceError, match="line 2: directory not empty"):
            replay(world, parse_trace("1,1,rename,/f,/d/f\n2,1,rmdir,/d\n"))

    def test_directory_empty_once_its_last_child_is_renamed_away(self):
        world = boot("node /d dir 0\nnode /d/f file 0\n")
        result = replay(world, parse_trace("1,1,rename,/d/f,/f\n2,1,rmdir,/d\n"))
        assert [r.result for r in result.records] == ["ALLOW", "ALLOW"]
        assert world.lookup("/d") is None
        assert_index_exact(world)
