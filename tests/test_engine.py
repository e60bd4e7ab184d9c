import copy

import pytest

from stbac import engine, scenarios
from stbac.engine import (
    OPS,
    DepGraph,
    Policy,
    apply_event,
    export_graph,
    parse_trace,
    replay,
)
from stbac.guard import parse_pcopy_map, parse_trust_list
from stbac.model import CONF, LEAK, TAINT, TraceError
from stbac.world import parse_init_config, spawn_boot_world

BOOT = """
node /bin dir 0
node /bin/sh file 1
node /bin/copy file 1
node /sbin dir 0
node /etc dir 0
node /etc/passwd file 0
node /tmp dir 0
node /.stbac dir 0
node /.stbac/passwd file 0
inte /sbin
conf /etc/passwd
leak /bin/copy
hwm net_bytes 100 90
cap net_bytes 10000
"""


def boot():
    return spawn_boot_world(parse_init_config(BOOT))


def run(trace_text, trust="", pcopy="", track_taint=False):
    world = boot()
    policy = Policy(parse_trust_list(trust), parse_pcopy_map(pcopy))
    events = parse_trace(trace_text)
    return replay(world, events, policy, track_taint=track_taint)


def fingerprint(world):
    """World state modulo the clock."""
    return (
        {pid: (p.parent, p.uid, p.exe, p.flags, p.alive, tuple(sorted(p.usage.items())))
         for pid, p in world.processes.items()},
        {nid: (n.path, n.kind, n.exec_bits, n.flags, n.parent)
         for nid, n in world.fs.items()},
        {sid: (s.owner, s.local, s.remote, s.proto, s.trusted)
         for sid, s in world.sockets.items()},
        tuple(sorted(world.ledger.allocated_sys.items())),
        {nid: tuple(q) for nid, q in world.fifo_queues.items() if q},
    )


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        events = parse_trace("# hi\n\n1,1,sched_tick\n")
        assert len(events) == 1
        assert events[0].line == 3

    def test_unknown_op_reports_line(self):
        with pytest.raises(TraceError, match="line 2.*frobnicate"):
            parse_trace("1,1,sched_tick\n2,1,frobnicate\n")

    def test_decreasing_tick_rejected(self):
        with pytest.raises(TraceError, match="decreases"):
            parse_trace("5,1,sched_tick\n4,1,sched_tick\n")

    def test_arity_checked(self):
        with pytest.raises(TraceError, match="argument"):
            parse_trace("1,1,fork\n")

    def test_bad_pid_reports_line(self):
        with pytest.raises(TraceError, match="line 1"):
            parse_trace("1,x,fork,2\n")


class TestEndpoints:
    def test_non_ascii_digit_port_rejected_with_line(self):
        with pytest.raises(TraceError, match="line 2: bad port '²'"):
            run("1,1,sched_tick\n2,1,socket_open,1,10.0.0.1:²,10.0.0.9:99,tcp\n")

    @pytest.mark.parametrize("local,remote", [(":22", "10.0.0.9:80"),
                                              ("10.0.0.1:22", ":80")])
    def test_empty_ip_rejected_with_line(self, local, remote):
        with pytest.raises(TraceError, match="^line 1: empty IP address in ':"):
            run(f"1,1,socket_open,1,{local},{remote},tcp\n")

    def test_trust_port_with_leading_zero_matches(self):
        trace = ("1,1,execve,/bin/sh\n"
                 "2,1,socket_open,1,10.0.0.1:5000,10.0.0.9:22,tcp\n")
        result = run(trace, trust="trust /bin/sh *:* *:022 tcp 0..inf\n",
                     track_taint=True)
        assert result.world.sockets[1].trusted
        assert result.tainted_after[-1] == frozenset()


class TestApplyBasics:
    def test_fork_evaluates_both_rule_families(self):
        result = run("1,1,execve,/bin/copy\n"
                     "2,1,open_read,/etc/passwd\n"     # init gains conf
                     "3,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"  # taints init
                     "4,1,fork,2\n", track_taint=True)
        rules = [c.rule for c in result.records[3].flag_changes]
        assert "TR_proc_proc" in rules and "VR_proc_proc" in rules
        child = result.world.processes[2]
        assert child.flags & TAINT
        assert child.flags & CONF and child.flags & LEAK

    def test_denied_write_changes_nothing(self):
        world = boot()
        events = parse_trace(
            "1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
            "2,1,create,/sbin/backdoor,1\n")
        policy = Policy()
        from stbac.engine import apply_event
        apply_event(world, events[0], policy)
        before = fingerprint(world)
        record = apply_event(world, events[1], policy)
        assert record.result == "DENY(PR_inte)"
        assert fingerprint(world) == before
        assert world.lookup("/sbin/backdoor") is None

    def test_exit_releases_allocations(self):
        result = run("1,1,fork,2\n"
                     "2,2,socket_open,1,10.0.0.1:5000,10.0.0.9:80,tcp\n"
                     "3,2,sock_send,1,50\n"
                     "4,2,exit\n")
        ledger = result.world.ledger
        assert ledger.allocated_sys["net_bytes"] == 0
        assert not result.world.processes[2].alive

    def test_empty_trace_changes_nothing(self):
        result = run("")
        assert result.records == []
        assert result.audit_text() == ""

    def test_audit_completeness(self):
        trace = "1,1,fork,2\n2,2,sched_tick\n3,2,exit\n"
        result = run(trace)
        assert len(result.records) == len(parse_trace(trace))

    def test_unknown_pid_aborts_with_line(self):
        with pytest.raises(TraceError, match="line 1"):
            run("1,99,sched_tick\n")

    def test_tick_must_not_lag_the_clock(self):
        world = boot()
        world.clock = 10
        from stbac.engine import apply_event
        with pytest.raises(TraceError, match="behind"):
            apply_event(world, parse_trace("1,1,sched_tick\n")[0], Policy())


class TestDeterminism:
    TRACE = ("1,1,execve,/bin/sh\n"
             "2,1,fork,2\n"
             "3,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,udp\n"
             "4,2,create,/tmp/drop,1\n"
             "5,2,fork,3\n"
             "6,3,execve,/tmp/drop\n"
             "7,3,open_read,/etc/passwd\n"
             "8,3,exit\n")

    def test_bit_identical_audit_and_graph(self):
        first = run(self.TRACE, track_taint=True)
        second = run(self.TRACE, track_taint=True)
        assert first.audit_text() == second.audit_text()
        assert export_graph(first.graph) == export_graph(second.graph)
        assert first.tainted_after == second.tainted_after


class TestAuditFormat:
    def test_line_shape(self):
        result = run("1,1,execve,/bin/sh\n2,1,open_read,/etc/passwd\n")
        assert result.records[0].line() == "<4>1,1:/bin/sh,/bin/sh,execve,-,ALLOW"
        assert result.records[1].line() == (
            "<4>2,1:/bin/sh,/etc/passwd,open_read,-,ALLOW")

    def test_denial_line(self):
        result = run("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "2,1,open_read,/etc/passwd\n")
        assert result.records[1].line() == (
            "<4>2,1:-,/etc/passwd,open_read,-,DENY(PR_conf)")

    def test_redirect_line(self):
        result = run("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "2,1,open_read,/etc/passwd\n",
                     pcopy="pcopy /etc/passwd /.stbac/passwd\n")
        assert result.records[1].result == "ALLOW_REDIR(/.stbac/passwd)"


class TestRedirection:
    def test_redirected_read_touches_the_copy(self):
        result = run("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "2,1,open_read,/etc/passwd\n",
                     pcopy="pcopy /etc/passwd /.stbac/passwd\n")
        # the copy carries no secret label, so the reader gains nothing
        assert result.world.processes[1].flags == TAINT
        assert result.records[1].flag_changes == ()

    def test_secrecy_spread_stops_at_copies(self):
        # a leak-capable secret-holding writer does not mark the copy
        result = run("1,1,execve,/bin/copy\n"
                     "2,1,open_read,/etc/passwd\n"
                     "3,1,open_write,/.stbac/passwd\n",
                     pcopy="pcopy /etc/passwd /.stbac/passwd\n")
        assert not result.world.node_at("/.stbac/passwd").flags & CONF

    def test_missing_copy_aborts(self):
        with pytest.raises(TraceError, match="missing"):
            run("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                "2,1,open_read,/etc/passwd\n",
                pcopy="pcopy /etc/passwd /.stbac/gone\n")


class TestFifoMessages:
    def test_tainted_writer_taints_reader_at_read_time(self):
        result = run("1,1,fork,2\n"
                     "2,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "3,2,mkfifo,/tmp/pipe\n"
                     "4,2,open_write,/tmp/pipe\n"
                     "5,2,exit\n"                  # writer is gone
                     "6,1,open_read,/tmp/pipe\n")
        assert result.world.processes[1].flags & TAINT
        assert result.records[5].flag_changes[0].rule == "TR_proc_proc"

    def test_health_message_carries_nothing(self):
        result = run("1,1,fork,2\n"
                     "2,2,mkfifo,/tmp/pipe\n"
                     "3,2,open_write,/tmp/pipe\n"
                     "4,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "5,1,open_read,/tmp/pipe\n")
        # the message predates the writer's taint, so the reader stays clean
        assert not result.world.processes[1].flags & TAINT

    def test_messages_drain_on_read(self):
        result = run("1,1,fork,2\n"
                     "2,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "3,2,mkfifo,/tmp/pipe\n"
                     "4,2,open_write,/tmp/pipe\n"
                     "5,1,open_read,/tmp/pipe\n"
                     "6,1,open_read,/tmp/pipe\n")
        assert result.records[4].flag_changes != ()
        assert result.records[5].flag_changes == ()


class TestLeakChannelSoundness:
    def test_indirect_leak_path_is_cut(self):
        """A secret copied by a leak-capable health process is still secret:
        the copy carries the label before any tainted read can happen."""
        result = run("1,1,fork,2\n"
                     "2,2,execve,/bin/copy\n"
                     "3,2,open_read,/etc/passwd\n"
                     "4,2,create,/tmp/stash,0\n"
                     "5,1,fork,3\n"
                     "6,3,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "7,3,open_read,/tmp/stash\n")
        assert result.world.node_at("/tmp/stash").flags & CONF
        assert result.records[6].result == "DENY(PR_conf)"

    def test_exec_reset_is_order_sensitive(self):
        """Secrecy read before an exec is wiped by the exec; the usual
        copy flow works because the exec comes first."""
        result = run("1,1,fork,2\n"
                     "2,2,open_read,/etc/passwd\n"   # gains conf
                     "3,2,fork,3\n"                  # child inherits conf
                     "4,2,execve,/bin/copy\n"        # reset: conf lost, leak gained
                     "5,2,create,/tmp/out,0\n")
        child = result.world.processes[3]
        assert child.flags & CONF
        writer = result.world.processes[2]
        assert writer.flags & (CONF | LEAK) == LEAK
        assert not result.world.node_at("/tmp/out").flags & CONF


class TestNoTaintFromPlainReads:
    def test_reads_of_tainted_plain_file_spread_nothing(self):
        result = run(
            "1,1,fork,2\n"
            "2,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
            "3,2,create,/tmp/drop,1\n"      # tainted executable
            "4,2,chmod,/tmp/drop,0\n"       # now a plain tainted file
            "5,2,exit\n"
            "6,1,open_read,/tmp/drop\n"
            "7,1,open_read,/tmp/drop\n")
        assert result.world.node_at("/tmp/drop").flags & TAINT
        assert not result.world.processes[1].flags & TAINT


class TestRename:
    def test_rename_moves_subtree_and_keeps_flags(self):
        result = run("1,1,mkdir,/tmp/a\n"
                     "2,1,create,/tmp/a/f,1\n"
                     "3,1,rename,/tmp/a,/tmp/b\n")
        world = result.world
        assert world.lookup("/tmp/a") is None
        assert world.lookup("/tmp/b/f") is not None
        assert world.node_at("/tmp/b/f").exec_bits

    def test_rename_into_protected_dir_denied_for_tainted(self):
        result = run("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "2,1,create,/tmp/mod,0\n"
                     "3,1,rename,/tmp/mod,/sbin/mod\n")
        assert result.records[2].result == "DENY(PR_inte)"
        assert result.world.lookup("/tmp/mod") is not None

    def test_rename_into_own_subtree_rejected(self):
        with pytest.raises(TraceError, match="into itself"):
            run("1,1,mkdir,/tmp/a\n2,1,rename,/tmp/a,/tmp/a/b\n")

    def test_rename_of_root_rejected(self):
        with pytest.raises(TraceError, match="line 1: cannot rename /"):
            run("1,1,rename,/,/x\n")


    @pytest.mark.parametrize("tainted", [False, True])
    def test_rename_onto_a_directory_rejected_whatever_the_verdict(self, tainted):
        # /sbin/d inherits INTE from /sbin, so a tainted renamer would be
        # denied; the bad target is reported before the guard is asked
        taint = "3,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n" if tainted else ""
        with pytest.raises(TraceError) as info:
            run("1,1,mkdir,/sbin/d\n2,1,create,/tmp/f,0\n" + taint
                + "4,1,rename,/tmp/f,/sbin/d\n")
        assert str(info.value) == f"line {3 + tainted}: rename target is a directory: /sbin/d"


class TestRmdir:
    def test_rmdir_of_root_rejected(self):
        world = spawn_boot_world(parse_init_config(""))
        with pytest.raises(TraceError, match="line 1: cannot remove /"):
            replay(world, parse_trace("1,1,rmdir,/\n"))
        assert world.lookup("/") is not None


class TestTraceChecks:
    """The engine checks every trace fact before a guard or rule sees it."""

    @pytest.mark.parametrize("trace,message", [
        ("1,1,execve,/tmp", "cannot exec dir /tmp"),
        ("1,1,execve,/etc/passwd", "/etc/passwd is not executable"),
        ("1,1,open_write,/tmp", "cannot write a directory: /tmp"),
        ("1,1,mmap_exec,/tmp", "/tmp is not a regular file"),
        ("1,1,mknod,/tmp/dev,device\n2,1,mmap_exec,/tmp/dev", "/tmp/dev is not a regular file"),
        ("1,1,brk_alloc,0", "allocation must be positive, got 0"),
        ("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n2,1,sock_send,1,0",
         "byte count must be positive, got 0"),
        ("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n2,1,fork,2\n3,2,sock_send,1,5",
         "socket 1 belongs to pid 1"),
        ("1,1,fork,2\n2,2,exit\n3,1,pipe,2", "pid 2 has exited"),
        ("1,1,create,/etc/passwd,0", "path exists: /etc/passwd"),
        ("1,1,mkdir,/tmp", "path exists: /tmp"),
        ("1,1,create,/none/f,0", "missing parent directory /none"),
        ("1,1,mkdir,/none/d", "missing parent directory /none"),
        ("1,1,create,/etc/passwd/f,0", "parent is not a directory: /etc/passwd"),
        ("1,1,mkdir,/etc/passwd/d", "parent is not a directory: /etc/passwd"),
    ], ids=["execve dir", "execve non-executable", "open_write dir", "mmap_exec dir",
            "mmap_exec device", "brk_alloc 0", "sock_send 0", "sock_send foreign socket",
            "pipe to exited pid", "create over existing", "mkdir over existing",
            "create under missing", "mkdir under missing", "create under file",
            "mkdir under file"])
    def test_bad_trace_input_names_its_line(self, trace, message):
        line = trace.count("\n") + 1
        with pytest.raises(TraceError) as info:
            run(trace + "\n")
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    def test_shmat_spreads_taint_both_ways(self):
        # either side of an attach may be the tainted one
        untrusted = "socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp"
        for trace in (f"1,1,fork,2\n2,1,fork,3\n3,3,{untrusted}\n4,2,shmat,3\n",
                      f"1,1,fork,2\n2,1,fork,3\n3,2,{untrusted}\n4,2,shmat,3\n"):
            result = run(trace)
            assert result.world.processes[2].flags & TAINT
            assert result.world.processes[3].flags & TAINT
            assert len(result.records[3].flag_changes) == 1


def scanned_snapshot(world):
    """Live tainted processes and tainted nodes by path, from a full scan of
    the world that does not read its tainted set."""
    procs = {("proc", pid) for pid, proc in world.processes.items()
             if proc.alive and proc.flags & TAINT}
    files = {("file", node.path) for node in world.fs.values()
             if node.flags & TAINT}
    return frozenset(procs | files)


def rebuilt_snapshots(world, events, policy):
    """A full-scan snapshot after each event, applying one event at a time."""
    out = []
    for event in events:
        apply_event(world, event, policy)
        out.append(scanned_snapshot(world))
    return out


class TestTrackedSnapshots:
    """A tracked replay rebuilds its snapshot from the world's tainted set
    only when the world's taint epoch moved; every snapshot must still
    equal a full scan."""

    TRACE = ("1,1,fork,2\n"
             "2,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
             "3,1,mkdir,/tmp/d\n"
             "4,2,create,/tmp/d/x,1\n"
             "5,2,create,/tmp/y,1\n"
             "6,2,create,/tmp/z,1\n"
             "7,2,fork,3\n"
             "8,1,rename,/tmp/d,/tmp/e\n"          # moves tainted /tmp/d/x
             "9,1,rename,/tmp/y,/tmp/z\n"          # tainted y overwrites tainted z
             "10,2,rename,/tmp/z,/sbin/z\n"        # denied
             "11,1,unlink,/tmp/z\n"
             "12,3,exit\n"                         # a tainted process exits
             "13,1,mkdir,/tmp/t\n"
             "14,1,set_stbac_attr,/tmp/t,taint,1\n"
             "15,1,set_stbac_attr,pid:2,taint,0\n"
             "16,1,rmdir,/tmp/t\n"
             "17,1,fork,4\n"
             "18,4,exit\n"                         # an untainted process exits
             "19,1,set_stbac_attr,pid:2,taint,1\n"
             "20,2,exit\n"
             "21,1,unlink,/tmp/e/x\n")

    def test_hand_written_trace_matches_rebuilds(self):
        events = parse_trace(self.TRACE)
        tracked = run(self.TRACE, track_taint=True).tainted_after
        assert tracked == rebuilt_snapshots(boot(), events, Policy())
        assert tracked[7] == {("file", "/tmp/e/x"), ("file", "/tmp/y"),
                              ("file", "/tmp/z"), ("proc", 2), ("proc", 3)}
        assert tracked[11] == {("file", "/tmp/e/x"), ("proc", 2)}
        assert tracked[13] == tracked[11] | {("file", "/tmp/t")}
        assert tracked[15] == {("file", "/tmp/e/x")}
        assert tracked[20] == frozenset()

    @pytest.mark.parametrize("name", scenarios.NAMES)
    def test_bundled_scenarios_match_rebuilds(self, name):
        bundle = scenarios.load(name)
        tracked = bundle.replay(track_taint=True).tainted_after
        world = spawn_boot_world(bundle.config())
        assert tracked == rebuilt_snapshots(world, bundle.events(), bundle.policy())
        assert any(tracked)

    def test_untainted_structure_changes_do_not_rebuild(self, monkeypatch):
        rebuilds = []
        snapshot = engine.tainted_snapshot
        monkeypatch.setattr(engine, "tainted_snapshot",
                            lambda world: rebuilds.append(world) or snapshot(world))
        result = run("1,1,mkdir,/tmp/d\n"
                     "2,1,create,/tmp/d/f,0\n"
                     "3,1,create,/tmp/g,0\n"
                     "4,1,fork,2\n"
                     "5,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "6,1,unlink,/tmp/g\n"              # untainted file
                     "7,1,rename,/tmp/d,/tmp/e\n",      # untainted directory
                     track_taint=True)
        assert len(rebuilds) == 2   # the initial snapshot, then pid 2's taint
        assert result.tainted_after[-1] == {("proc", 2)}


class TestTableMapping:
    """The op-to-rule-family wiring matches the syscall hook table."""

    EXPECTED = {
        "fork": {"TR_proc_proc", "VR_proc_proc"},
        "vfork": {"TR_proc_proc", "VR_proc_proc"},
        "clone": {"TR_proc_proc", "VR_proc_proc"},
        "pipe": {"TR_proc_proc"},
        "shmat": {"TR_proc_proc"},
        "msgrcv": {"TR_proc_proc"},
        "mkfifo": {"TR_proc_proc"},
        "mknod": {"TR_proc_proc", "VR_dir_dir"},
        "open_read": {"PR_conf"},
        "open_write": {"PR_inte", "TR_proc_exe", "VR_proc_file"},
        "create": {"PR_inte", "TR_proc_exe", "VR_proc_file", "VR_dir_dir"},
        "chmod": {"TR_proc_exe", "PR_inte"},
        "fchmod": {"TR_proc_exe", "PR_inte"},
        "execve": {"TR_exe_proc", "VR_file_proc"},
        "mmap_exec": {"TR_exe_proc"},
        "mkdir": {"VR_dir_dir"},
        "truncate": {"PR_inte"},
        "chown": {"PR_inte"},
        "rmdir": {"PR_inte"},
        "rename": {"PR_inte"},
        "unlink": {"PR_inte"},
        "mount": {"PR_inte"},
        "umount": {"PR_inte"},
        "setrlimit": {"PR_inte"},
        "reboot": {"PR_inte"},
        "swapoff": {"PR_inte"},
        "create_module": {"PR_inte"},
        "delete_module": {"PR_inte"},
        "setuid": {"PR_inte"},
        "setgid": {"PR_inte"},
        "setfsuid": {"PR_inte"},
        "kill": {"PR_inte"},
        "ptrace": {"PR_conf"},
        "socket_open": {"TR_sock_proc"},
        "sock_send": {"PR_avai"},
        "sock_recv": {"PR_avai"},
        "brk_alloc": {"PR_avai"},
        "sched_tick": {"PR_avai"},
        "disk_alloc": {"PR_avai"},
        "set_stbac_attr": {"PR_inte"},
        "get_stbac_attr": {"PR_conf"},
    }

    def test_every_op_carries_its_assigned_families(self):
        for op, families in self.EXPECTED.items():
            assert families <= OPS[op].families, op

    def test_vocabulary_is_complete(self):
        assert set(OPS) == set(self.EXPECTED) | {"exit"}
        assert OPS["exit"].families == frozenset()


class TestDotExport:
    def test_empty_graph(self):
        assert export_graph(DepGraph()) == "digraph replay {\n}\n"

    def test_denial_edges_dashed(self):
        result = run("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "2,1,open_read,/etc/passwd\n")
        dot = export_graph(result.graph)
        assert '[label="PR_conf@2", style=dashed]' in dot
        assert 'taint=1' in dot

    def test_web_download_graph_shows_the_taint_chain(self):
        from stbac import scenarios
        result = scenarios.load("web_download").replay()
        edges = {(cause, effect) for cause, effect, _, _ in result.graph.edges}
        browser = ("proc", 300)
        cpu_burner = result.world.lookup("/home/user/consume-cpu")
        mem_hog = result.world.lookup("/home/user/consume-mem")
        assert (("sock", 1), browser) in edges
        assert (browser, ("file", cpu_burner)) in edges
        assert (browser, ("file", mem_hog)) in edges
        assert (("file", cpu_burner), ("proc", 302)) in edges
        assert (("file", mem_hog), ("proc", 303)) in edges

    def test_remote_user_graph_annotates_the_copier(self):
        from stbac import scenarios
        result = scenarios.load("remote_user").replay()
        dot = export_graph(result.graph)
        (cp_line,) = [l for l in dot.splitlines() if "pid 102" in l]
        assert 'vital="conf"' in cp_line and "leak=1" in cp_line

    def test_privileged_ops_allowed_for_health(self):
        result = run("1,1,setuid,0\n2,1,mount,/tmp\n3,1,setrlimit\n")
        assert all(r.result == "ALLOW" for r in result.records)
        assert result.world.processes[1].uid == 0


class TestApplyEventGraph:
    @pytest.mark.parametrize("name", scenarios.NAMES)
    def test_apply_event_without_a_graph_gives_the_replay_records(self, name):
        bundle = scenarios.load(name)
        world = spawn_boot_world(bundle.config())
        policy = bundle.policy()
        records = [apply_event(world, event, policy) for event in bundle.events()]
        assert records == bundle.replay().records


class TestDenyPurity:
    def test_all_denied_events_leave_state_untouched(self):
        trace = ("1,1,fork,2\n"
                 "2,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                 "3,2,open_read,/etc/passwd\n"
                 "4,2,create,/sbin/x,1\n"
                 "5,2,setuid,0\n"
                 "6,2,create_module,evil\n"
                 "7,2,ptrace,1\n"
                 "8,2,set_stbac_attr,/etc/passwd,conf,0\n"
                 "9,2,get_stbac_attr,/etc/passwd\n")
        world = boot()
        events = parse_trace(trace)
        from stbac.engine import apply_event
        denied = 0
        for event in events:
            before = fingerprint(copy.deepcopy(world))
            record = apply_event(world, event, Policy())
            if record.denied:
                denied += 1
                assert fingerprint(world) == before, event
        assert denied == 7
