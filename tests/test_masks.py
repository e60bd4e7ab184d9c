"""Label bits, rule names and resource kinds are plain values.

A label is an int mask of model's bits, a flag change names one int bit and
its rule by the rule's audit string, and no module of the package imports
enum: an enum operator costs a Python-level call, an int test does not, and
a second spelling of each name would need tables to translate it back.
"""

import ast
from pathlib import Path

import pytest

import stbac
from stbac import scenarios
from stbac.cli import load_bundle
from stbac.engine import parse_trace, replay
from stbac.model import (
    AVAI,
    CONF,
    FLAG_NAMES,
    INTE,
    LEAK,
    RESOURCE_KINDS,
    TAINT,
    ConfigError,
    flag_bits,
    format_flags,
    parse_flag,
    parse_resource,
)

import trace_gen

PACKAGE = Path(stbac.__file__).parent

# Flag administration on each kind of target, so that replayed mutations
# write process, node and ledger masks.
ADMIN_TRACE = ("1,1,set_stbac_attr,/data/notes,conf,1\n"
               "2,1,set_stbac_attr,pid:1,leak,1\n"
               "3,1,set_stbac_attr,res:kernel_objects,avai,1\n"
               "4,1,set_stbac_attr,/data/notes,conf,0\n"
               "5,1,socket_open,1,1.1.1.1:1,2.2.2.2:2,udp\n"
               "6,1,fork,2\n")


def replays():
    for name in scenarios.NAMES:
        yield name, scenarios.load(name).replay()
    for seed in range(30):
        for mode in ("full", "benign"):
            trace_text, trust_text = trace_gen.build_trace(trace_gen.random_intents(seed), mode)
            yield f"gen{seed}{mode}", _replay(trace_text, trust_text)
    yield "admin", _replay(ADMIN_TRACE, "")


def _replay(trace_text, trust_text):
    _, world, policy = load_bundle(trace_gen.BOOT_CONFIG, trust_text, trace_gen.PCOPY_TEXT)
    return replay(world, parse_trace(trace_text), policy)


def test_masks_stay_ints_through_replays():
    """Every entity mask and graph mask is an int after the three scenarios
    and 60 generated traces; each FlagChange names one bit of FLAG_NAMES and
    its rule as a str."""
    replayed = list(replays())
    assert len(replayed) >= 53
    for name, result in replayed:
        world = result.world
        masks = ([p.flags for p in world.processes.values()]
                 + [n.flags for n in world.fs.values()]
                 + list(world.ledger.flags.values())
                 + [n.flags_ever for n in result.graph.nodes.values()])
        assert {type(mask) for mask in masks} == {int}, name
        for record in result.records:
            assert type(record.flag_changes) is tuple, name
            for change in record.flag_changes:
                assert type(change.flag) is int and change.flag in FLAG_NAMES, name
                assert type(change.rule) is str, name
    changed = [c for _, result in replayed for r in result.records for c in r.flag_changes]
    assert {c.flag for c in changed} == set(FLAG_NAMES)


def test_flag_bits_and_format_flags_take_masks():
    mask = 0
    for bit in FLAG_NAMES:
        mask |= bit
    assert flag_bits(mask) == [TAINT, CONF, INTE, AVAI, LEAK]
    assert flag_bits(0) == []
    assert format_flags(CONF | LEAK) == "conf|leak"
    assert format_flags(0) == "-"


def test_parse_flag_returns_the_bit_of_its_audit_name():
    assert [parse_flag(name) for name in FLAG_NAMES.values()] == list(FLAG_NAMES)
    assert all(type(parse_flag(name)) is int for name in FLAG_NAMES.values())
    for name in ("CONF", "Flag.CONF", "1", ""):
        with pytest.raises(ConfigError, match=f"^unknown flag {name!r}$"):
            parse_flag(name)


def test_parse_resource_checks_membership_of_resource_kinds():
    assert [parse_resource(kind) for kind in RESOURCE_KINDS] == list(RESOURCE_KINDS)
    for name in ("cpu", "CPU_TICKS", "ResourceKind.CPU_TICKS", ""):
        with pytest.raises(ConfigError, match=f"^unknown resource kind {name!r}$"):
            parse_resource(name)


def test_no_module_imports_enum():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "enum" for name in names), (path, node.lineno)
