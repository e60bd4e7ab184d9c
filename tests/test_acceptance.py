"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measurements (run with -s to see them)."""

import time

import pytest
from hypothesis import given, settings

from stbac import scenarios
from stbac.cli import load_bundle
from stbac.engine import DepGraph, Policy, _Replayer, iter_trace, parse_trace, replay
from stbac.model import CONF, INTE, LEAK, TAINT
from stbac.world import parse_init_config, spawn_boot_world

from conftest import assert_agrees, check_generated, run_generated
import trace_gen


def flag_events(result):
    out = []
    for record in result.records:
        for change in record.flag_changes:
            out.append((change.entity, change.flag, change.rule))
    return out


def denial_summary(result):
    return [(r.op, r.obj, r.result) for r in result.denial_records()]


def test_an_unknown_scenario_names_the_bundled_ones():
    with pytest.raises(KeyError) as raised:
        scenarios.load("no_such_scenario")
    assert raised.value.args == ("unknown scenario 'no_such_scenario'; "
                                 "have remote_user, web_download, remote_attack",)


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
    diff, report, _ = check_generated(intent_list)
    assert_agrees(diff)
    # criterion 5 rides along: the integrity conditions hold on the same corpus
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
    diff, _, _ = scenarios.load(scenario).check()
    divergences = diff.divergences
    assert divergences, f"disabling {rule_name} went unnoticed on {scenario}"
    assert len(divergences) == diff.count      # every diverging event is kept
    # the engine falls short of the oracle and never overshoots it
    assert all(d.missing and not d.extra for d in divergences), \
        [d.describe() for d in divergences]
    assert MARKED_FIRST[rule_name] in divergences[0].missing, divergences[0].describe()
    print(f"\nACCEPTANCE 4b (mutation control {rule_name}): PASS "
          f"({diff.count} diverging events on {scenario})")


def test_criterion_5_biba_on_bundled_scenarios():
    for name in scenarios.NAMES:
        diff, report, _ = scenarios.load(name).check()
        assert_agrees(diff)
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
    _, world, policy = load_bundle(trace_gen.BOOT_CONFIG, trace_gen.TRUST_BENIGN, "")
    result = replay(world, parse_trace(COMPAT_TRACE), policy)
    assert result.denial_records() == []
    print("\nACCEPTANCE 7 (compatibility): PASS "
          "(zero denials on trusted/local-only activity)")


def timed_replay(count):
    """Seconds the loop of `stbac replay` takes over a count-event trace:
    parse each line and step it, keeping no event or record."""
    _, world, policy = load_bundle(trace_gen.PERF_BOOT, "", "")
    text = trace_gen.synthetic_trace(count)
    started = time.perf_counter()
    replayer = _Replayer(world, policy, DepGraph())
    for stepped, event in enumerate(iter_trace(text), 1):
        replayer.step(event)
    elapsed = time.perf_counter() - started
    assert stepped == count
    return elapsed


def test_criterion_8_throughput_and_linear_scaling():
    # One timing of a short replay swings with the host's load, so each size
    # is timed as the fastest of three runs; every large run stays bounded.
    small_runs = [timed_replay(10_000) for _ in range(3)]
    large_runs = [timed_replay(100_000) for _ in range(3)]
    for run in large_runs:
        assert run < 10.0, f"100k-event replay took {run:.2f}s"
    small, large = min(small_runs), min(large_runs)
    # amortized O(1) decisions: 10x the events within 2x of 10x the time
    ratio = large / max(small, 1e-3)
    assert ratio <= 20.0, f"scaling ratio {ratio:.1f} exceeds 2x proportional"
    print(f"\nACCEPTANCE 8 (throughput): PASS "
          f"(10k in {small:.3f}s, 100k in {large:.3f}s, ratio {ratio:.1f}x)")
