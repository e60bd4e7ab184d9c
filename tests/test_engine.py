import ast
import copy
from pathlib import Path

import pytest

from stbac import engine, scenarios
from stbac.cli import check_replay, load_bundle
from stbac.engine import (
    OPS,
    DepGraph,
    Policy,
    _Replayer,
    export_graph,
    parse_trace,
    replay,
)
from stbac.model import CONF, LEAK, TAINT, TraceError
from stbac.oracle import OnePass
from stbac.world import parse_init_config, spawn_boot_world

from conftest import scanned_snapshot
import trace_gen

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


def boot(config=BOOT):
    return spawn_boot_world(parse_init_config(config))


def run(trace_text, trust="", pcopy="", config=BOOT):
    _, world, policy = load_bundle(config, trust, pcopy)
    return replay(world, parse_trace(trace_text), policy)


def fingerprint(world):
    """World state modulo the clock."""
    return (
        {pid: (p.exe_path, p.flags, p.alive, tuple(sorted(p.usage.items())))
         for pid, p in world.processes.items()},
        {nid: (n.path, n.kind, n.exec_bits, n.flags, n.parent)
         for nid, n in world.fs.items()},
        {sid: (s.owner, s.remote, s.trusted)
         for sid, s in world.sockets.items()},
        tuple(sorted(world.ledger.allocated_sys.items())),
        {nid: pid for nid, pid in world.fifo_writers.items() if pid is not None},
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
        result = run(trace, trust="trust /bin/sh *:* *:022 tcp 0..inf\n")
        assert result.world.sockets[1].trusted
        assert engine.tainted_snapshot(result.world) == frozenset()


class TestApplyBasics:
    def test_fork_evaluates_both_rule_families(self):
        result = run("1,1,execve,/bin/copy\n"
                     "2,1,open_read,/etc/passwd\n"     # init gains conf
                     "3,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"  # taints init
                     "4,1,fork,2\n")
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
        step = _Replayer(world, Policy(), DepGraph()).step
        step(events[0])
        before = fingerprint(world)
        record = step(events[1])
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
        with pytest.raises(TraceError, match="behind"):
            _Replayer(world, Policy(), DepGraph()).step(parse_trace("1,1,sched_tick\n")[0])


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
        first = run(self.TRACE)
        second = run(self.TRACE)
        assert first.audit_text() == second.audit_text()
        assert export_graph(first.graph) == export_graph(second.graph)
        events = parse_trace(self.TRACE)
        assert (tracked_snapshots(boot(), events, Policy())
                == tracked_snapshots(boot(), events, Policy()))


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


# BOOT with a second secret and a protected /etc/passwd, for the copy checks.
REDIRECT_BOOT = BOOT + "node /etc/shadow file 0\nconf /etc/shadow\ninte /etc/passwd\n"
PASSWD_COPY = "pcopy /etc/passwd /.stbac/passwd\n"
UNTRUSTED = "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"


class TestRedirection:
    def test_redirected_read_touches_the_copy(self):
        result = run("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "2,1,open_read,/etc/passwd\n",
                     pcopy="pcopy /etc/passwd /.stbac/passwd\n")
        # the copy carries no secret label, so the reader gains nothing
        assert result.world.processes[1].flags == TAINT
        assert result.records[1].flag_changes == ()

    def test_secrecy_spread_marks_copies(self):
        # a leak-capable secret-holding writer marks the copy like any file
        result = run("1,1,execve,/bin/copy\n"
                     "2,1,open_read,/etc/passwd\n"
                     "3,1,open_write,/.stbac/passwd\n",
                     pcopy="pcopy /etc/passwd /.stbac/passwd\n")
        assert result.world.node_at("/.stbac/passwd").flags & CONF
        copy = ("file", result.world.lookup("/.stbac/passwd"))
        assert result.graph.edges[-1] == (("proc", 1), copy, "VR_proc_file", 3)

    def test_secret_written_to_the_copy_is_not_read_through_it(self):
        """A health process that leaks /etc/passwd into its copy spoils the
        copy, so a suspect's later read is denied, not redirected."""
        result = run("1,1,fork,2\n"
                     "2,2,execve,/bin/copy\n"
                     "3,2,open_read,/etc/passwd\n"
                     "4,2,open_write,/.stbac/passwd\n"
                     "5,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "6,1,open_read,/etc/passwd\n",
                     pcopy=PASSWD_COPY)
        assert [r.result for r in result.records] == ["ALLOW"] * 5 + ["DENY(PR_conf)"]
        passwd = result.world.lookup("/etc/passwd")
        assert result.graph.denials == [(("proc", 1), ("file", passwd), "PR_conf", 6)]
        copy = result.world.lookup("/.stbac/passwd")
        dot = export_graph(result.graph)
        assert f'"proc:2" -> "file:{copy}" [label="VR_proc_file@4"];' in dot
        assert f'"proc:1" -> "file:{passwd}" [label="PR_conf@6", style=dashed];' in dot

    @pytest.mark.parametrize("spoil", [
        "1,1,rename,/etc/shadow,/.stbac/passwd",
        "1,1,set_stbac_attr,/.stbac/passwd,conf,1",
        "1,1,unlink,/.stbac/passwd\n1,1,mkdir,/.stbac/passwd",
        "1,1,unlink,/.stbac/passwd\n1,1,mkfifo,/.stbac/passwd",
    ], ids=["secret moved over the copy", "copy marked conf", "copy made a directory",
            "copy made a fifo"])
    def test_spoiled_copy_is_not_read(self, spoil):
        """A health process may spoil the copy after boot; a suspect's read
        is then denied, not redirected to the secret now behind it."""
        result = run(f"{spoil}\n{UNTRUSTED}3,1,open_read,/etc/passwd\n",
                     pcopy=PASSWD_COPY, config=REDIRECT_BOOT)
        assert result.records[-1].result == "DENY(PR_conf)"
        passwd = result.world.lookup("/etc/passwd")
        assert result.graph.denials == [(("proc", 1), ("file", passwd), "PR_conf", 3)]

    @pytest.mark.parametrize("access,rule", [
        ("open_read,/etc/passwd", "PR_conf"),
        ("open_write,/etc/passwd", "PR_inte"),
        ("chmod,/etc/passwd,1", "PR_inte"),
        ("fchmod,/etc/passwd,1", "PR_inte"),
        ("truncate,/etc/passwd", "PR_inte"),
    ])
    def test_missing_copy_denies(self, access, rule):
        result = run(f"1,1,unlink,/.stbac/passwd\n{UNTRUSTED}3,1,{access}\n",
                     pcopy=PASSWD_COPY, config=REDIRECT_BOOT)
        assert result.records[-1].result == f"DENY({rule})"
        passwd = result.world.lookup("/etc/passwd")
        assert result.graph.denials == [(("proc", 1), ("file", passwd), rule, 3)]

    @pytest.mark.parametrize("access,rule,pcopy", [
        ("open_read,/etc/shadow", "PR_conf", PASSWD_COPY),
        ("open_write,/etc/passwd", "PR_inte", "pcopy /etc/shadow /.stbac/passwd\n"),
    ])
    def test_unmapped_target_is_denied_under_a_map(self, access, rule, pcopy):
        """Only a mapped path redirects."""
        result = run(f"{UNTRUSTED}3,1,{access}\n", pcopy=pcopy, config=REDIRECT_BOOT)
        assert result.records[-1].result == f"DENY({rule})"

    def test_a_suspect_is_not_redirected_onto_an_inte_copy(self):
        """/bin/sh moved over the copy keeps its INTE bit: a suspect's
        write, truncate and chmod of the shared path are denied rather than
        redirected onto the protected executable, its read still redirects
        (the copy holds no secret), and check passes."""
        trace = ("1,1,rename,/bin/sh,/data/shared_copy\n"
                 "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                 "3,1,open_write,/data/shared\n"
                 "4,1,truncate,/data/shared\n"
                 "5,1,chmod,/data/shared,0\n"
                 "6,1,open_read,/data/shared\n")
        bundle = load_bundle(trace_gen.BOOT_CONFIG, "", trace_gen.PCOPY_TEXT)
        diff, report, replayer = check_replay(*bundle, parse_trace(trace))
        assert diff.count == 0 and report.all_passed(), report.summary_lines()
        assert replayer.denials == 3
        result = run(trace, pcopy=trace_gen.PCOPY_TEXT, config=trace_gen.BOOT_CONFIG)
        assert [r.result for r in result.records[2:]] == \
            ["DENY(PR_inte)"] * 3 + ["ALLOW_REDIR(/data/shared_copy)"]
        assert result.world.node_at("/data/shared_copy").exec_bits

    def test_restored_copy_redirects_again(self):
        result = run("1,1,unlink,/.stbac/passwd\n1,1,create,/.stbac/passwd,0\n"
                     f"{UNTRUSTED}3,1,open_read,/etc/passwd\n",
                     pcopy=PASSWD_COPY, config=REDIRECT_BOOT)
        assert result.records[-1].result == "ALLOW_REDIR(/.stbac/passwd)"


# The guard table's world: /o holds unlabeled nodes, /l labeled ones (and
# /l itself is inte, so a node made in it is guarded), /o/i is an inte file
# in an unlabeled directory, and /c holds the copies of the labeled nodes.
# Pid 2 is an unlabeled process and pid 3 an inte one.
GUARD_BOOT = """
node /o dir 0
node /o/f file 0
node /o/d dir 0
node /o/i file 0
node /l dir 0
node /l/f file 0
node /l/d dir 0
node /c dir 0
node /c/f file 0
node /c/d file 0
node /c/l file 0
node /c/i file 0
inte /o/i
inte /l
inte /l/f
inte /l/d
conf /l/f
"""
GUARD_PCOPY = ("pcopy /l/f /c/f\npcopy /l/d /c/d\npcopy /l /c/l\n"
               "pcopy /o/i /c/i\n")
GUARD_PRELUDE = "1,1,fork,2\n2,1,fork,3\n3,1,set_stbac_attr,pid:3,inte,1\n"
SUSPECT = "4,1,socket_open,1,10.0.0.1:5000,10.0.0.9:80,tcp\n"

# Ops judged by a target's label: op -> (arguments on an unlabeled target,
# on a labeled one).
KEYED_ROWS = {
    "open_read": ("/o/f", "/l/f"),
    "open_write": ("/o/f", "/l/f"),
    "chmod": ("/o/f,1", "/l/f,1"),
    "fchmod": ("/o/f,1", "/l/f,1"),
    "truncate": ("/o/f", "/l/f"),
    "chown": ("/o/f,0", "/l/f,0"),
    "unlink": ("/o/f", "/l/f"),
    "rmdir": ("/o/d", "/l/d"),
    "create": ("/o/n,0", "/l/n,0"),
    "mkdir": ("/o/n", "/l/n"),
    "mkfifo": ("/o/n", "/l/n"),
    "mknod": ("/o/n,device", "/l/n,device"),
    "rename": ("/o/f,/o/n", "/l/f,/o/n"),
    "kill": ("2", "3"),
}
# The other keys of rename: the node it overwrites and its destination.
RENAME_LABELED = ("/o/f,/o/i", "/o/f,/l/n")
# Ops refused to every suspect, with the same two kinds of target.
UNCONDITIONAL_ROWS = {
    "ptrace": ("2", "3"), "get_stbac_attr": ("/o/f", "/l/f"),
    "set_stbac_attr": ("/o/f,conf,1", "/l/f,conf,0"), "mount": ("/o", "/l"),
    "umount": ("/o", "/l"), "create_module": ("m", "m"),
    "delete_module": ("m", "m"), "setuid": ("0", "0"), "setgid": ("0", "0"),
    "setfsuid": ("0", "0"), "setrlimit": ("", ""), "reboot": ("", ""),
    "swapoff": ("", ""),
}
REDIRECTING = ("open_read", "open_write", "chmod", "fchmod", "truncate")


def guarded_ops() -> set:
    return {op for op, spec in OPS.items() if spec.families & {"PR_conf", "PR_inte"}}


def guard_result(op, args, suspect=True, pcopy="") -> str:
    """The audit result of pid 1 running op with args in the guard world."""
    event = f"5,1,{op}{',' + args if args else ''}\n"
    trace = GUARD_PRELUDE + (SUSPECT if suspect else "") + event
    return run(trace, pcopy=pcopy, config=GUARD_BOOT).records[-1].result


def guard_cases():
    """(op, arguments, whether the target is labeled) for every case."""
    for op, (unlabeled, labeled) in sorted({**KEYED_ROWS, **UNCONDITIONAL_ROWS}.items()):
        yield op, unlabeled, False
        yield op, labeled, True
        if op == "rename":
            for args in RENAME_LABELED:
                yield op, args, True


class TestGuardTable:
    """Per trace op, the verdict a suspect gets from the protection rules,
    with and without a copy map; a health process is always allowed."""

    def test_rows_cover_every_guarded_op(self):
        assert KEYED_ROWS.keys() | UNCONDITIONAL_ROWS.keys() == guarded_ops()
        assert not KEYED_ROWS.keys() & UNCONDITIONAL_ROWS.keys()

    @pytest.mark.parametrize("op,args,labeled", list(guard_cases()))
    def test_verdict(self, op, args, labeled):
        rule = "PR_conf" if "PR_conf" in OPS[op].families else "PR_inte"
        keyed = op in KEYED_ROWS
        expected = f"DENY({rule})" if labeled or not keyed else "ALLOW"
        assert guard_result(op, args) == expected
        mapped = guard_result(op, args, pcopy=GUARD_PCOPY)
        if labeled and op in REDIRECTING:
            assert mapped == "ALLOW_REDIR(/c/f)"
        else:
            assert mapped == expected
        assert guard_result(op, args, suspect=False, pcopy=GUARD_PCOPY) == "ALLOW"


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


class TestFifoQueues:
    """A fifo keeps the pid of the first tainted writer of its unread
    messages, and nothing for a message that carries no taint."""

    def test_a_health_write_queues_nothing(self):
        result = run("1,1,mkfifo,/tmp/pipe\n"
                     "2,1,open_write,/tmp/pipe\n")
        assert result.world.fifo_writers == {result.world.lookup("/tmp/pipe"): None}

    def test_a_tainted_write_queues_its_writer_which_stays_the_cause(self):
        result = run("1,1,fork,2\n"
                     "2,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     "3,2,mkfifo,/tmp/pipe\n"
                     "4,2,open_write,/tmp/pipe\n"
                     "5,2,open_write,/tmp/pipe\n"
                     "6,2,exit\n"
                     "7,1,open_read,/tmp/pipe\n")
        assert result.world.fifo_writers == {result.world.lookup("/tmp/pipe"): None}
        assert [(cause, effect, rule) for cause, effect, rule, tick in result.graph.edges
                if tick == 7] == [(("proc", 2), ("proc", 1), "TR_proc_proc")]

    def test_the_queue_holds_writer_pids(self):
        _, world, policy = load_bundle(BOOT, "", "")
        step = _Replayer(world, policy, None).step
        for event in parse_trace("1,1,mkfifo,/tmp/pipe\n"
                                 "2,1,fork,2\n"
                                 "3,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                                 "4,1,open_write,/tmp/pipe\n"
                                 "5,2,open_write,/tmp/pipe\n"
                                 "6,2,open_write,/tmp/pipe\n"):
            step(event)
        assert world.fifo_writers == {world.lookup("/tmp/pipe"): 2}

    def test_unread_writes_leave_one_writer_in_the_engine_and_both_folds(self):
        """Fifty tainted writes by two pids with no read between them leave
        one pending writer, the first, in the world and in each oracle
        fold; the read drains it from all three."""
        config, world, policy = load_bundle(BOOT, "", "")
        replayer = _Replayer(world, policy, None)
        one_pass = OnePass(config, policy.trust)
        trace = ("1,1,mkfifo,/tmp/pipe\n1,1,fork,2\n1,1,fork,3\n"
                 "2,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                 "2,3,socket_open,2,10.0.0.1:23,10.0.0.9:99,tcp\n"
                 + "".join(f"3,{2 + i % 2},open_write,/tmp/pipe\n" for i in range(50)))
        for event in parse_trace(trace):
            one_pass.step(event, replayer.step(event))
        pipe = one_pass.struct.cells["/tmp/pipe"]
        assert world.fifo_writers == {world.lookup("/tmp/pipe"): 2}
        assert one_pass.closure.fifo_low == {pipe: 2} == one_pass.biba.fifo_low
        (read,) = parse_trace("4,1,open_read,/tmp/pipe\n")
        record = replayer.step(read)
        assert one_pass.step(read, record) == [(("proc", 1), True)]
        assert [(c.entity, c.rule) for c in record.flag_changes if c.flag == TAINT] == \
            [(("proc", 1), "TR_proc_proc")]
        assert world.fifo_writers == {world.lookup("/tmp/pipe"): None}
        assert one_pass.closure.fifo_low == {} == one_pass.biba.fifo_low


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


# A port with more digits than int() converts.
LONG_PORT = "1" * 5000


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
        ("1,1,fork,x", "child pid must be an integer, got 'x'"),
        ("1,1,kill,-", "target pid must be an integer, got '-'"),
        ("1,1,setuid,root", "uid must be an integer, got 'root'"),
        ("1,1,chown,/tmp,1.5", "uid must be an integer, got '1.5'"),
        ("1,1,create,/tmp/f,2", "exec bit must be 0 or 1, got '2'"),
        ("1,1,set_stbac_attr,/tmp,conf,on", "flag value must be 0 or 1, got 'on'"),
        ("1,1,open_read,tmp", "path must be absolute: 'tmp'"),
        ("1,1,mkdir,/tmp/d/", "trailing slash not allowed: '/tmp/d/'"),
        ("1,1,create,//tmp2,0", "empty path component not allowed: '//tmp2'"),
        ("1,1,open_read,/nope", "no such path /nope"),
        ("1,1,set_stbac_attr,/nope,conf,1", "no such path /nope"),
        ("1,99,sched_tick", "no such pid 99"),
        ("1,1,socket_open,1,10.0.0.1,10.0.0.9:99,tcp",
         "endpoint must be ip:port, got '10.0.0.1'"),
        (f"1,1,socket_open,1,10.0.0.1:{LONG_PORT},10.0.0.9:99,tcp",
         f"port must be an integer, got '{LONG_PORT}'"),
        ("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,sctp", "bad protocol 'sctp'"),
        ("1,1,set_stbac_attr,/tmp,bogus,1", "unknown flag 'bogus'"),
        ("1,1,get_stbac_attr,res:gpu", "unknown resource kind 'gpu'"),
        ("1,1,set_stbac_attr,/tmp,avai,1", "flag avai only applies to resource kinds"),
        ("1,1,set_stbac_attr,res:cpu_ticks,conf,1",
         "flag conf only applies to processes and nodes"),
        ("1,1,mknod,/tmp/p,pipe", "mknod kind must be file|device|fifo, got 'pipe'"),
        ("1,1,rmdir,/bin", "directory not empty: /bin"),
        ("1,1,rmdir,/etc/passwd", "rmdir of a non-directory: /etc/passwd"),
        ("1,1,unlink,/tmp", "unlink of a directory: /tmp"),
        ("1,1,truncate,/tmp", "cannot truncate a directory: /tmp"),
        ("1,1,sock_send,7,5", "no such socket 7"),
        ("1,1,fork,1", "pid 1 is not fresh (last seen 1)"),
        ("1,1,socket_open,2,10.0.0.1:23,10.0.0.9:99,udp\n"
         "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,udp",
         "socket id 1 is not fresh (last seen 2)"),
        ("1,1,brk_alloc,1000001",
         "resource exhausted: memory_bytes: 0 + 1000001 exceeds system total 1000000"),
    ], ids=["execve dir", "execve non-executable", "open_write dir", "mmap_exec dir",
            "mmap_exec device", "brk_alloc 0", "sock_send 0", "sock_send foreign socket",
            "pipe to exited pid", "create over existing", "mkdir over existing",
            "create under missing", "mkdir under missing", "create under file",
            "mkdir under file", "non-integer pid", "dash pid", "non-integer setuid",
            "non-integer chown", "exec bit 2", "flag value on", "relative path",
            "trailing slash", "empty component", "no such path", "no such attr path", "no such pid",
            "endpoint without port", "over-long port", "bad protocol", "unknown flag",
            "unknown resource kind", "avai on a node", "conf on a resource",
            "mknod kind", "rmdir non-empty",
            "rmdir of a file", "unlink of a directory", "truncate dir",
            "no such socket", "pid not fresh", "socket id not fresh",
            "resource exhausted"])
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


def _takes_an_event(func) -> bool:
    return any(arg.arg in ("ev", "event")
               or (isinstance(arg.annotation, ast.Name) and arg.annotation.id == "Event")
               for arg in func.args.args)


class TestOneLineStamp:
    """_Replayer.step gives every replay-time TraceError its line, so no
    handler or helper needs the event for that."""

    TREE = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))

    def test_only_step_and_iter_trace_pass_a_line(self):
        stampers = set()
        for func in ast.walk(self.TREE):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "TraceError"
                        and (len(call.args) > 1 or call.keywords)):
                    stampers.add(func.name)
        assert stampers == {"step", "iter_trace"}

    def test_no_helper_takes_an_event(self):
        module_helpers = [node for node in self.TREE.body
                          if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
        (replayer,) = [node for node in self.TREE.body
                       if isinstance(node, ast.ClassDef) and node.name == "_Replayer"]
        method_helpers = [node for node in replayer.body
                          if isinstance(node, ast.FunctionDef)
                          and not node.name.startswith("_ev_") and node.name != "step"]
        assert module_helpers and method_helpers
        assert [f.name for f in module_helpers + method_helpers
                if _takes_an_event(f)] == []


def rebuilt_snapshots(world, events, policy):
    """A full-scan snapshot after each event, stepping one replayer."""
    step = _Replayer(world, policy, DepGraph()).step
    out = []
    for event in events:
        step(event)
        out.append(scanned_snapshot(world))
    return out


def tracked_snapshots(world, events, policy):
    """The tainted set after each event as `stbac check` keeps it: the
    world's log of flips, folded one step at a time over the set the
    replay starts from, stepping one replayer with no graph."""
    replayer = _Replayer(world, policy, None)
    labels = set(engine.tainted_snapshot(world))
    out = []
    for event in events:
        replayer.step(event)
        for label, entered in world.taint_changes:
            labels.add(label) if entered else labels.discard(label)
        out.append(frozenset(labels))
    return out


class TestTrackedSnapshots:
    """The world logs each taint flip of every event from the TAINT bits it
    stores; the log folded over the steps must equal a full scan after each
    one, and each step's log must turn the previous scan into the next."""

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
        tracked = tracked_snapshots(boot(), events, Policy())
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
        _, world, policy = bundle.load()
        tracked = tracked_snapshots(world, bundle.events(), policy)
        _, world, policy = bundle.load()
        assert tracked == rebuilt_snapshots(world, bundle.events(), policy)
        assert any(tracked)

    def test_untainted_structure_changes_log_no_flip(self):
        world = boot()
        replayer = _Replayer(world, Policy(), None)
        logs = []
        for event in parse_trace("1,1,mkdir,/tmp/d\n"
                                 "2,1,create,/tmp/d/f,0\n"
                                 "3,1,create,/tmp/g,0\n"
                                 "4,1,fork,2\n"
                                 "5,2,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                                 "6,1,unlink,/tmp/g\n"             # untainted file
                                 "7,1,rename,/tmp/d,/tmp/e\n"):    # untainted directory
            replayer.step(event)
            logs.append(list(world.taint_changes))
        assert logs == [[], [], [], [], [(("proc", 2), True)], [], []]
        assert engine.tainted_snapshot(world) == {("proc", 2)}

    @pytest.mark.parametrize("trace", ["hand_written", *scenarios.NAMES])
    def test_each_step_logs_the_flips_from_the_previous_scan(self, trace):
        if trace == "hand_written":
            world, policy, events = boot(), Policy(), parse_trace(self.TRACE)
        else:
            bundle = scenarios.load(trace)
            _, world, policy = bundle.load()
            events = bundle.events()
        step = _Replayer(world, policy, None).step
        labels = set(scanned_snapshot(world))
        flips = 0
        for event in events:
            step(event)
            for label, entered in world.taint_changes:
                assert (label in labels) != entered, (event, label, entered)
                labels.add(label) if entered else labels.remove(label)
            flips += len(world.taint_changes)
            assert labels == scanned_snapshot(world), event
        assert flips > 0


class TestFlipLog:
    """The world's log of taint flips holds one event's worth: a replay
    of any length keeps no more than its last step's flips."""

    CYCLES = 1000

    def test_fork_exit_cycles_of_a_tainted_parent_leave_the_last_exit(self):
        lines = ["1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp"]
        for pid in range(2, self.CYCLES + 2):
            lines += [f"{pid},1,fork,{pid}", f"{pid},{pid},sched_tick", f"{pid},{pid},exit"]
        world = boot()
        replay(world, parse_trace("\n".join(lines) + "\n"), Policy())
        assert world.taint_changes == [(("proc", self.CYCLES + 1), False)]
        assert engine.tainted_snapshot(world) == {("proc", 1)}


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

    def test_quotes_and_backslashes_are_escaped(self):
        """The path rule allows " and \\; every quoted DOT string escapes them,
        so each line holds an even number of unescaped quotes."""
        result = run("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                     '2,1,create,/tmp/a"b\\,1\n'
                     '3,1,mount,/x"y\n')
        dot = export_graph(result.graph)
        node = result.world.lookup('/tmp/a"b\\')
        assert f'  "file:{node}" [label="/tmp/a\\"b\\\\", taint=1];' in dot
        assert '  "op:/x\\"y" [label="/x\\"y"];' in dot
        assert f'  "proc:1" -> "file:{node}" [label="TR_proc_exe@2"];' in dot
        assert '  "proc:1" -> "op:/x\\"y" [label="PR_inte@3", style=dashed];' in dot
        for line in dot.splitlines():
            assert line.replace("\\\\", "").replace('\\"', "").count('"') % 2 == 0, line

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
        assert result.records[0].param == "uid=0"


class TestReplayerGraph:
    @pytest.mark.parametrize("name", scenarios.NAMES)
    def test_a_replayer_without_a_graph_gives_the_replay_records(self, name):
        bundle = scenarios.load(name)
        _, world, policy = bundle.load()
        step = _Replayer(world, policy, None).step
        records = [step(event) for event in bundle.events()]
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
        step = _Replayer(world, Policy(), DepGraph()).step
        denied = 0
        for event in events:
            before = fingerprint(copy.deepcopy(world))
            record = step(event)
            if record.denied:
                denied += 1
                assert fingerprint(world) == before, event
        assert denied == 7
