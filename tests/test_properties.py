"""Invariant checks over randomized traces.

The generator guarantees structural validity, so every failure here is a
genuine semantics bug, not a malformed input.
"""

import copy

from hypothesis import given, settings

from stbac.engine import Policy, apply_event, export_graph, parse_trace, replay
from stbac.guard import parse_trust_list
from stbac.model import CONF, TAINT
from stbac.oracle import check_biba, closure_from_replay, diff_taint
from stbac.world import parse_init_config, spawn_boot_world

from conftest import run_generated
from test_engine import fingerprint, rebuilt_snapshots
import trace_gen

intents = trace_gen.intents_strategy


@given(intents)
@settings(max_examples=150, deadline=None)
def test_engine_matches_oracle(intent_list):
    config, events, policy, result = run_generated(intent_list)
    oracle = closure_from_replay(config, policy.trust, events, result.records)
    assert diff_taint(result.tainted_after, oracle, events) == []


@given(intents)
@settings(max_examples=100, deadline=None)
def test_taint_is_never_cleared_by_rules(intent_list):
    _, events, _, result = run_generated(intent_list)
    for record in result.records:
        for change in record.flag_changes:
            if change.flag == TAINT:
                assert change.on, record.line()
    # snapshot view: a tainted live process stays tainted until it exits
    exited = set()
    tainted_seen = set()
    for event, snapshot in zip(events, result.tainted_after):
        if event.op == "exit":
            exited.add(event.pid)
        now_tainted = {label for label in snapshot if label[0] == "proc"}
        for label in tainted_seen - now_tainted:
            assert label[1] in exited, f"{label} lost taint while alive"
        tainted_seen |= now_tainted


@given(intents)
@settings(max_examples=60, deadline=None)
def test_denied_events_are_pure(intent_list):
    trace_text, trust_text = trace_gen.build_trace(intent_list)
    config = parse_init_config(trace_gen.BOOT_CONFIG)
    world = spawn_boot_world(config)
    events = parse_trace(trace_text)
    policy = Policy(parse_trust_list(trust_text))
    for event in events:
        before = fingerprint(copy.deepcopy(world))
        record = apply_event(world, event, policy)
        if record.denied:
            assert fingerprint(world) == before


@given(intents)
@settings(max_examples=100, deadline=None)
def test_ledger_conservation(intent_list):
    _, _, _, result = run_generated(intent_list)
    world = result.world
    for kind in world.ledger.allocated_sys:
        held = sum(p.usage.get(kind, 0) for p in world.processes.values())
        assert held == world.ledger.allocated_sys[kind]
        assert 0 <= world.ledger.allocated_sys[kind] <= world.ledger.caps[kind]


@given(intents)
@settings(max_examples=60, deadline=None)
def test_replay_is_deterministic(intent_list):
    _, _, _, first = run_generated(intent_list)
    _, _, _, second = run_generated(intent_list)
    assert first.audit_text() == second.audit_text()
    assert export_graph(first.graph) == export_graph(second.graph)


@given(intents)
@settings(max_examples=100, deadline=None)
def test_audit_covers_every_event(intent_list):
    _, events, _, result = run_generated(intent_list)
    assert len(result.records) == len(events)
    for event, record in zip(events, result.records):
        assert event.tick == record.tick
        assert event.op == record.op


@given(intents)
@settings(max_examples=100, deadline=None)
def test_low_water_mark_conditions_hold(intent_list):
    config, events, policy, result = run_generated(intent_list)
    report = check_biba(config, policy.trust, events, result.records)
    assert report.cond_read.passed, report.cond_read.violations
    assert report.cond_exec.passed, report.cond_exec.violations
    assert report.cond_write.passed, report.cond_write.violations


@given(intents)
@settings(max_examples=100, deadline=None)
def test_trusted_and_local_activity_is_never_denied(intent_list):
    _, _, _, result = run_generated(intent_list, mode="benign")
    denials = result.denial_records()
    assert denials == [], denials[0].line() if denials else None


@given(intents)
@settings(max_examples=60, deadline=None)
def test_secret_content_is_never_readable_by_suspects(intent_list):
    """The leak channel is cut: whatever carries the secrecy label at read
    time, including files it spread to, is unreadable for tainted subjects
    (unless a partial copy absorbs the access)."""
    from stbac.guard import parse_pcopy_map
    trace_text, trust_text = trace_gen.build_trace(intent_list)
    config = parse_init_config(trace_gen.BOOT_CONFIG)
    world = spawn_boot_world(config)
    policy = Policy(parse_trust_list(trust_text),
                    parse_pcopy_map(trace_gen.PCOPY_TEXT))
    for event in parse_trace(trace_text):
        expect_deny = False
        if event.op == "open_read":
            reader = world.processes.get(event.pid)
            node_id = world.lookup(event.args[0])
            node = world.fs.get(node_id) if node_id is not None else None
            expect_deny = (reader is not None and reader.flags & TAINT
                           and node is not None and node.flags & CONF
                           and node.path not in policy.pcopy.entries)
        record = apply_event(world, event, policy)
        if expect_deny:
            assert record.result == "DENY(PR_conf)", record.line()


@given(intents)
@settings(max_examples=60, deadline=None)
def test_identifier_freshness(intent_list):
    _, events, _, result = run_generated(intent_list)
    spawned = [int(e.args[0]) for e in events if e.op in ("fork", "vfork", "clone")]
    assert len(spawned) == len(set(spawned))
    assert set(spawned) | {1} == set(result.world.processes)


@given(intents)
@settings(max_examples=60, deadline=None)
def test_tracked_snapshots_match_per_event_rebuilds(intent_list):
    config, events, policy, result = run_generated(intent_list)
    rebuilt = rebuilt_snapshots(spawn_boot_world(config), events, policy)
    assert result.tainted_after == rebuilt
