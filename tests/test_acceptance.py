"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measurements (run with -s to see them)."""

import time

import pytest
from hypothesis import given, settings

from stbac import scenarios
from stbac.engine import Policy, parse_trace, replay
from stbac.guard import parse_trust_list
from stbac.model import CONF, INTE, LEAK, TAINT
from stbac.oracle import check_biba, closure_from_replay, diff_taint
from stbac.world import parse_init_config, spawn_boot_world

from conftest import run_generated
import trace_gen


def flag_events(result):
    out = []
    for record in result.records:
        for change in record.flag_changes:
            out.append((change.entity, change.flag, change.rule))
    return out


def denial_summary(result):
    return [(r.op, r.obj, r.result) for r in result.denial_records()]


def test_criterion_1_remote_user_scenario():
    bundle = scenarios.load("remote_user")
    started = time.perf_counter()
    result = bundle.replay()
    elapsed = time.perf_counter() - started

    assert result.audit_text() == bundle.expected_audit
    assert flag_events(result) == [
        (("file", "/sbin/new_command"), INTE, "VR_dir_dir"),
        (("proc", 102), LEAK, "VR_file_proc"),
        (("proc", 102), CONF, "VR_file_proc"),
        (("file", "/tmp/passwd"), CONF, "VR_proc_file"),
        (("proc", 200), TAINT, "TR_sock_proc"),
        (("proc", 201), TAINT, "TR_proc_proc"),
        (("proc", 202), TAINT, "TR_proc_proc"),
    ]
    assert denial_summary(result) == [
        ("open_read", "/tmp/passwd", "DENY(PR_conf)"),
        ("chmod", "/sbin/new_command", "DENY(PR_inte)"),
    ]
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (remote-user): PASS "
          f"(2 denials, 7 flag events, {elapsed * 1000:.1f} ms)")


def test_criterion_2_web_download_scenario():
    bundle = scenarios.load("web_download")
    started = time.perf_counter()
    result = bundle.replay()
    elapsed = time.perf_counter() - started

    assert result.audit_text() == bundle.expected_audit
    assert flag_events(result) == [
        (("proc", 300), TAINT, "TR_sock_proc"),
        (("file", "/home/user/consume-cpu"), TAINT, "TR_proc_exe"),
        (("file", "/home/user/consume-mem"), TAINT, "TR_proc_exe"),
        (("proc", 302), TAINT, "TR_exe_proc"),
        (("proc", 303), TAINT, "TR_exe_proc"),
    ]
    # five ticks land exactly on the mark; the sixth is refused and the
    # burner stays stopped, then the hog's third allocation is refused
    assert denial_summary(result) == [
        ("sched_tick", "cpu_ticks", "DENY(PR_avai)"),
        ("sched_tick", "cpu_ticks", "DENY(PR_avai)"),
        ("brk_alloc", "memory_bytes", "DENY(PR_avai)"),
        ("brk_alloc", "memory_bytes", "DENY(PR_avai)"),
    ]
    cpu_allowed = [r for r in result.records
                   if r.op == "sched_tick" and not r.denied]
    assert len(cpu_allowed) == 5   # the per-process mark
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 (web-downloaded-program): PASS "
          f"(4 denials, {elapsed * 1000:.1f} ms)")


def test_criterion_3_remote_attack_scenario():
    bundle = scenarios.load("remote_attack")
    result = bundle.replay()

    assert result.audit_text() == bundle.expected_audit
    denials = denial_summary(result)
    assert denials == [
        ("kill", "pid:50", "DENY(PR_inte)"),
        ("open_read", "/home/szy/data", "DENY(PR_conf)"),
        ("open_read", "/etc/passwd", "DENY(PR_conf)"),
        ("open_read", "/etc/shadow", "DENY(PR_conf)"),
        ("create", "/lib/sh", "DENY(PR_inte)"),
        ("setuid", "-", "DENY(PR_inte)"),
        ("rename", "/tmp/knark.o", "DENY(PR_inte)"),
        ("create_module", "knark", "DENY(PR_inte)"),
    ]
    assert len(denials) >= 7
    planted = result.world.node_at("/tmp/sh")
    assert planted.flags & TAINT
    print(f"\nACCEPTANCE 3 (remote-attack): PASS "
          f"({len(denials)} denials, planted shell tainted)")


@given(trace_gen.intents_strategy)
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_criterion_4a_closure_equivalence_on_random_traces(intent_list):
    config, events, policy, result = run_generated(intent_list)
    oracle = closure_from_replay(config, policy.trust, events, result.records)
    assert diff_taint(result.tainted_after, oracle, events) == []
    # criterion 5 rides along: the integrity conditions hold on the same corpus
    report = check_biba(config, policy.trust, events, result.records)
    assert report.all_passed(), report.summary_lines()


def test_criterion_4a_report():
    print("\nACCEPTANCE 4a (closure equivalence): PASS "
          "(1000 random traces, exact set equality)")


DISABLED_RULES = [
    ("tr_sock_proc", lambda process, socket: None, "remote_user"),
    ("tr_proc_proc", lambda source, sink: None, "remote_user"),
    ("tr_proc_exe", lambda process, node: None, "web_download"),
    ("tr_exe_proc", lambda process, node: None, "web_download"),
]

# The first entity each rule marks in its scenario.
MARKED_FIRST = {
    "tr_sock_proc": ("proc", 200),
    "tr_proc_proc": ("proc", 201),
    "tr_proc_exe": ("file", "/home/user/consume-cpu"),
    "tr_exe_proc": ("proc", 302),
}


@pytest.mark.parametrize("rule_name,stub,scenario", DISABLED_RULES)
def test_criterion_4b_mutation_controls(rule_name, stub, scenario, monkeypatch):
    import stbac.taint
    monkeypatch.setattr(stbac.taint, rule_name, stub)
    bundle = scenarios.load(scenario)
    result = bundle.replay(track_taint=True)
    oracle = closure_from_replay(bundle.config(), bundle.policy().trust,
                                 bundle.events(), result.records)
    divergences = diff_taint(result.tainted_after, oracle, bundle.events())
    assert divergences, f"disabling {rule_name} went unnoticed on {scenario}"
    # the engine falls short of the oracle and never overshoots it
    assert all(d.missing and not d.extra for d in divergences), \
        [d.describe() for d in divergences]
    assert MARKED_FIRST[rule_name] in divergences[0].missing, divergences[0].describe()
    print(f"\nACCEPTANCE 4b (mutation control {rule_name}): PASS "
          f"({len(divergences)} diverging events on {scenario})")


def test_criterion_5_biba_on_bundled_scenarios():
    for name in scenarios.NAMES:
        bundle = scenarios.load(name)
        result = bundle.replay()
        report = check_biba(bundle.config(), bundle.policy().trust,
                            bundle.events(), result.records)
        assert report.all_passed(), (name, report.summary_lines())
        if name == "remote_user":
            # every protected write was denied, so nothing even reaches
            # the exception list
            assert report.cond_write.exceptions == []
        if name == "remote_attack":
            # exactly one concession: the non-executable module dropped in /tmp
            assert len(report.cond_write.exceptions) == 1
            assert "knark.o" in report.cond_write.exceptions[0]
    print("\nACCEPTANCE 5 (low-water-mark embedding): PASS "
          "(3 scenarios + the criterion-4 random corpus)")


SPREAD_BOOT = parse_init_config(trace_gen.BOOT_CONFIG)


@pytest.mark.parametrize("gain_conf,gain_leak", [
    (False, False), (True, False), (False, True), (True, True)])
def test_criterion_6_selective_spread(gain_conf, gain_leak):
    lines = ["1,2,execve,/bin/copy" if gain_leak else "1,2,execve,/bin/sh"]
    if gain_conf:
        lines.append("2,2,open_read,/data/secret")
    lines.append("3,2,create,/srv/out,0")
    world = spawn_boot_world(SPREAD_BOOT)
    world.spawn(world.processes[1], 2)
    result = replay(world, parse_trace("\n".join(lines) + "\n"), Policy())
    writer = result.world.processes[2]
    assert bool(writer.flags & CONF) == gain_conf
    assert bool(writer.flags & LEAK) == gain_leak
    spread = bool(result.world.node_at("/srv/out").flags & CONF)
    assert spread == (gain_conf and gain_leak)
    if gain_conf and gain_leak:
        print("\nACCEPTANCE 6 (selective spread): PASS "
              "(only the conf+leak writer spreads conf)")


COMPAT_TRACE = """1,1,execve,/bin/sh
2,1,fork,2
3,2,socket_open,1,10.0.0.1:22,10.0.0.9:50,tcp
4,2,sock_send,1,100
5,2,open_read,/data/secret
6,2,open_write,/data/notes
7,2,fork,3
8,3,execve,/bin/tool
9,3,set_stbac_attr,/data/notes,conf,1
10,3,brk_alloc,400
11,3,sched_tick
12,2,exit
"""


@given(trace_gen.intents_strategy)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_criterion_7_compatibility_on_random_benign_traces(intent_list):
    _, _, _, result = run_generated(intent_list, mode="benign")
    assert result.denial_records() == []


def test_criterion_7_compatibility_explicit():
    config = parse_init_config(trace_gen.BOOT_CONFIG)
    world = spawn_boot_world(config)
    policy = Policy(parse_trust_list(trace_gen.TRUST_BENIGN))
    result = replay(world, parse_trace(COMPAT_TRACE), policy)
    assert result.denial_records() == []
    print("\nACCEPTANCE 7 (compatibility): PASS "
          "(zero denials on trusted/local-only activity)")


PERF_BOOT = """
node /bin dir 0
node /bin/sh file 1
node /srv dir 0
node /data dir 0
node /data/secret file 0
conf /data/secret
hwm cpu_ticks 900000000 90
cap cpu_ticks 2000000000
hwm memory_bytes 900000000 90
cap memory_bytes 2000000000
hwm disk_blocks 900000000 90
cap disk_blocks 2000000000
hwm net_bytes 900000000 90
cap net_bytes 2000000000
"""


def synthetic_events(count):
    lines = [
        "1,1,execve,/bin/sh",
        "2,1,fork,2",
        "3,1,fork,3",
        "4,3,socket_open,1,10.0.0.1:9999,10.0.0.9:80,udp",
        "5,2,create,/srv/f0,0",
        "6,2,create,/srv/f1,0",
        "7,2,create,/srv/f2,1",
    ]
    tick = 8
    cycle = [
        lambda i: f"2,open_write,/srv/f{i % 2}",
        lambda i: f"2,open_read,/srv/f{i % 2}",
        lambda i: "2,sched_tick",
        lambda i: "3,sched_tick",
        lambda i: "3,open_read,/data/secret",     # a denial every cycle
        lambda i: f"3,open_write,/srv/f{i % 3}",
        lambda i: "2,brk_alloc,3",
        lambda i: "2,open_read,/data/secret",
        lambda i: "2,disk_alloc,1",
        lambda i: "3,brk_alloc,2",
    ]
    i = 0
    while len(lines) < count:
        lines.append(f"{tick},{cycle[i % len(cycle)](i)}")
        tick += 1
        i += 1
    return parse_trace("\n".join(lines[:count]) + "\n")


def timed_replay(count):
    config = parse_init_config(PERF_BOOT)
    world = spawn_boot_world(config)
    events = synthetic_events(count)
    assert len(events) == count
    started = time.perf_counter()
    result = replay(world, events, Policy())
    elapsed = time.perf_counter() - started
    assert len(result.records) == count
    return elapsed


def test_criterion_8_throughput_and_linear_scaling():
    small = timed_replay(10_000)
    large = timed_replay(100_000)
    assert large < 10.0, f"100k-event replay took {large:.2f}s"
    # amortized O(1) decisions: 10x the events within 2x of 10x the time
    ratio = large / max(small, 1e-3)
    assert ratio <= 20.0, f"scaling ratio {ratio:.1f} exceeds 2x proportional"
    print(f"\nACCEPTANCE 8 (throughput): PASS "
          f"(10k in {small:.3f}s, 100k in {large:.3f}s, ratio {ratio:.1f}x)")
