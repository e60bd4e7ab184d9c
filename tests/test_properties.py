"""Invariant checks over randomized traces.

The generator steps the engine over every line it emits, so a generated
trace is valid by construction and every failure here is a genuine
semantics bug, not a malformed input.  Since the generator follows the
engine's decisions, the engine's denials are checked here on their own:
only tainted subjects are denied, and structure ops outside /srv are both
allowed and denied.
"""

import copy

from hypothesis import given, settings

from stbac.engine import DepGraph, _Replayer, export_graph, tainted_snapshot
from stbac.model import CONF, TAINT

from conftest import assert_agrees, check_generated, generated_bundle, run_generated
from test_engine import fingerprint, rebuilt_snapshots, tracked_snapshots
import trace_gen

intents = trace_gen.intents_strategy


@given(intents)
@settings(max_examples=150, deadline=None)
def test_engine_matches_oracle(intent_list):
    diff, _, _ = check_generated(intent_list)
    assert_agrees(diff)


@given(intents)
@settings(max_examples=100, deadline=None)
def test_taint_is_never_cleared_by_rules(intent_list):
    _, world, policy, events = generated_bundle(intent_list)
    replayer = _Replayer(world, policy, None)
    # snapshot view: a tainted live process stays tainted until it exits or
    # an administrative set_stbac_attr clears its mark
    exited = set()
    cleared = set()
    tainted_seen = set()
    for event in events:
        record = replayer.step(event)
        for change in record.flag_changes:
            if change.flag != TAINT:
                continue
            if change.rule != "set_stbac_attr":
                assert change.on, record.line()
            elif not change.on and change.entity[0] == "proc":
                cleared.add(change.entity[1])
        if event.op == "exit":
            exited.add(event.pid)
        now_tainted = {label for label in tainted_snapshot(replayer.world) if label[0] == "proc"}
        for label in tainted_seen - now_tainted:
            assert label[1] in exited | cleared, f"{label} lost taint while alive"
        tainted_seen |= now_tainted


@given(intents)
@settings(max_examples=100, deadline=None)
def test_only_tainted_subjects_are_denied(intent_list):
    _, world, policy, events = generated_bundle(intent_list)
    step = _Replayer(world, policy, None).step
    for event in events:
        tainted = world.processes[event.pid].flags & TAINT
        record = step(event)
        assert tainted or not record.denied, record.line()


STRUCTURE_OPS = ("create", "mkdir", "unlink", "rename")


def test_structure_ops_outside_srv_are_allowed_and_denied():
    """Over full-mode traces of seeds 0..29, each of create, mkdir, unlink
    and rename is allowed and denied with no path under /srv, and some
    suspect access is redirected to the partial copy."""
    seen, redirects = set(), 0
    for seed in range(30):
        _, world, policy, events = generated_bundle(trace_gen.random_intents(seed))
        step = _Replayer(world, policy, None).step
        for event in events:
            record = step(event)
            redirects += record.result.startswith("ALLOW_REDIR(")
            paths = event.args[:2] if event.op == "rename" else event.args[:1]
            if event.op in STRUCTURE_OPS and not any(
                    path == "/srv" or path.startswith("/srv/") for path in paths):
                seen.add((event.op, record.denied))
    assert seen == {(op, denied) for op in STRUCTURE_OPS for denied in (False, True)}
    assert redirects > 0


@given(intents)
@settings(max_examples=60, deadline=None)
def test_denied_events_are_pure(intent_list):
    _, world, policy, events = generated_bundle(intent_list)
    step = _Replayer(world, policy, DepGraph()).step
    for event in events:
        before = fingerprint(copy.deepcopy(world))
        record = step(event)
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
    _, report, _ = check_generated(intent_list)
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
    _, world, policy, events = generated_bundle(intent_list)
    step = _Replayer(world, policy, DepGraph()).step
    for event in events:
        expect_deny = False
        if event.op == "open_read":
            reader = world.processes.get(event.pid)
            node_id = world.lookup(event.args[0])
            node = world.fs.get(node_id) if node_id is not None else None
            expect_deny = (reader is not None and reader.flags & TAINT
                           and node is not None and node.flags & CONF
                           and node.path not in policy.pcopy)
        record = step(event)
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
    _, world, policy, events = generated_bundle(intent_list)
    tracked = tracked_snapshots(world, events, policy)
    _, world, policy, events = generated_bundle(intent_list)
    assert tracked == rebuilt_snapshots(world, events, policy)
