"""Tests for the benchmark's own generators and tracer.

Run from the root of the repo:  python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from stbac.engine import Policy, parse_trace, replay  # noqa: E402
from stbac.guard import parse_pcopy_map, parse_trust_list  # noqa: E402
from stbac.world import parse_init_config, spawn_boot_world  # noqa: E402

NAMES = sorted(workloads.GENERATORS)


def _files(workload):
    return (workload.init_text, workload.trust_text, workload.pcopy_text,
            workload.trace_text, workload.expected)


def _replay(workload):
    policy = Policy(parse_trust_list(workload.trust_text),
                    parse_pcopy_map(workload.pcopy_text))
    world = spawn_boot_world(parse_init_config(workload.init_text))
    return replay(world, parse_trace(workload.trace_text), policy)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_bytes(name):
    generate = workloads.GENERATORS[name]
    assert _files(generate(7)) == _files(generate(7))


@pytest.mark.parametrize("name", NAMES)
def test_another_seed_gives_another_trace(name):
    generate = workloads.GENERATORS[name]
    first, second = generate(7), generate(8)
    assert first.trace_text != second.trace_text
    assert first.events == second.events


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [1, 2])
def test_trace_replays_with_the_predicted_verdicts(name, seed):
    workload = workloads.GENERATORS[name](seed)
    result = _replay(workload)   # a TraceError here fails the test
    assert len(result.records) == workload.events
    assert tuple(r.result for r in result.records) == workload.expected
    assert workload.predicted_denials() == Counter(
        r.result[5:-1] for r in result.denial_records())


@pytest.mark.parametrize("name", NAMES)
def test_check_window_is_a_prefix_of_the_trace(name):
    workload = workloads.GENERATORS[name](1)
    window = workload.check_trace_text()
    assert 0 < workload.check_events < workload.events
    assert len(window.splitlines()) == workload.check_events
    assert workload.trace_text.startswith(window)


def test_every_workload_has_denials():
    for name in NAMES:
        assert workloads.GENERATORS[name](1).predicted_denials(), name


def test_tracer_counts_layers_and_restores_the_program():
    import stbac.cli as cli
    import stbac.engine as engine
    import stbac.world as world

    originals = (cli.replay, engine.pr_conf, world.World.children)
    workload = workloads.fstree(3)
    tracer = layers.Tracer(Path(engine.__file__).parent)
    with tracer:
        config = cli.parse_init_config(workload.init_text)
        policy = Policy(parse_trust_list(workload.trust_text),
                        parse_pcopy_map(workload.pcopy_text))
        events = cli.parse_trace(workload.trace_text)
        result = tracer.profiled(
            lambda: cli.replay(cli.spawn_boot_world(config), events, policy))
    assert (cli.replay, engine.pr_conf, world.World.children) == originals
    assert tracer.count["engine.events"] == workload.events
    assert tracer.count["engine.denials"] == len(result.denial_records())
    assert tracer.count["guard.calls"] > 0
    assert tracer.count["world.children_calls"] > 0
    assert tracer.time["engine.replay"] > 0
    assert [name for *_, name, _, _ in tracer.spans].count("engine.replay") == 1
    self_s = tracer.self_times()
    assert self_s["engine"] > 0 and self_s["world"] > 0
