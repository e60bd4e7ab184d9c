import pytest

from stbac.cli import check_replay, load_bundle
from stbac.engine import parse_trace, replay
from stbac.model import TAINT
from stbac.world import parse_init_config, spawn_boot_world

import trace_gen


@pytest.fixture
def boot_world():
    """A small world: protected /bin, a secret, a leak-capable copier."""
    return spawn_boot_world(parse_init_config(trace_gen.BOOT_CONFIG))


def generated_bundle(intents, mode="full"):
    """(config, booted world, policy, events) of a generated intent list,
    loaded as the CLI loads a bundle."""
    trace_text, trust_text = trace_gen.build_trace(intents, mode)
    config, world, policy = load_bundle(trace_gen.BOOT_CONFIG, trust_text,
                                        trace_gen.PCOPY_TEXT)
    return config, world, policy, parse_trace(trace_text)


def run_generated(intents, mode="full"):
    """Replay a generated intent list; returns (config, events, policy, result)."""
    config, world, policy, events = generated_bundle(intents, mode)
    return config, events, policy, replay(world, events, policy)


def check_generated(intents, mode="full"):
    """`stbac check` of a generated intent list: check_replay's (TaintDiff,
    BibaReport, replayer)."""
    return check_replay(*generated_bundle(intents, mode))


def assert_agrees(diff):
    """The engine's tainted sets equal the oracle's on every event."""
    assert diff.count == 0, [d.describe() for d in diff.divergences]


def scanned_snapshot(world):
    """Live tainted processes and tainted nodes by path, from a full scan of
    the world that does not read its tainted set."""
    procs = {("proc", pid) for pid, proc in world.processes.items()
             if proc.alive and proc.flags & TAINT}
    files = {("file", node.path) for node in world.fs.values()
             if node.flags & TAINT}
    return frozenset(procs | files)
