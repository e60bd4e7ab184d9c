"""Label bits are plain int masks inside the engine; Flag is the API-edge type.

An enum.Flag operator costs a Python-level call, an int test does not, so
every mask a replay touches per event must stay an int.  enum.Flag (not
IntFlag) makes a stray member in a mask raise TypeError instead of turning
the mask into an IntFlag.
"""

import ast
import random
from pathlib import Path

import pytest

import stbac
from stbac import scenarios
from stbac.engine import Policy, parse_trace, replay
from stbac.guard import parse_pcopy_map, parse_trust_list
from stbac.model import TAINT, Flag, flag_bits, format_flags
from stbac.world import parse_init_config, spawn_boot_world

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


def generated_intents(seed):
    rng = random.Random(seed)
    return [(rng.randrange(trace_gen.N_OPCODES), rng.randrange(8), rng.randrange(8),
             rng.randrange(2), rng.randrange(3)) for _ in range(rng.randrange(20, 200))]


def replays():
    for name in scenarios.NAMES:
        yield name, scenarios.load(name).replay()
    for seed in range(30):
        for mode in ("full", "benign"):
            trace_text, trust_text = trace_gen.build_trace(generated_intents(seed), mode)
            yield f"gen{seed}{mode}", _replay(trace_text, trust_text)
    yield "admin", _replay(ADMIN_TRACE, "")


def _replay(trace_text, trust_text):
    world = spawn_boot_world(parse_init_config(trace_gen.BOOT_CONFIG))
    policy = Policy(parse_trust_list(trust_text), parse_pcopy_map(trace_gen.PCOPY_TEXT))
    return replay(world, parse_trace(trace_text), policy)


def test_masks_stay_ints_through_replays():
    """Every entity mask and graph mask is an int after the three scenarios
    and 60 generated traces; only FlagChange records carry Flag members."""
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
            assert all(type(c.flag) is Flag for c in record.flag_changes), name
    changed = [c for _, result in replayed for r in result.records for c in r.flag_changes]
    assert {c.flag for c in changed} == set(Flag.__members__.values())


def test_a_flag_member_does_not_mix_into_a_mask():
    with pytest.raises(TypeError):
        TAINT | Flag.CONF
    with pytest.raises(TypeError):
        Flag.TAINT in TAINT


def test_flag_bits_and_format_flags_take_masks():
    mask = 0
    for flag in Flag.__members__.values():
        mask |= flag.value
    assert flag_bits(mask) == [Flag.TAINT, Flag.CONF, Flag.INTE, Flag.AVAI, Flag.LEAK]
    assert flag_bits(0) == []
    assert format_flags(Flag.CONF.value | Flag.LEAK.value) == "conf|leak"
    assert format_flags(0) == "-"


def flag_names(tree) -> list:
    """Line numbers of every `Flag` name, attribute or import in tree."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "Flag":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "Flag":
            lines.append(node.lineno)
        elif isinstance(node, ast.alias) and node.name == "Flag":
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", ["taint.py", "vital.py"])
def test_spread_rules_name_no_flag(module):
    assert flag_names(ast.parse((PACKAGE / module).read_text())) == []


def test_protection_rules_name_no_flag():
    tree = ast.parse((PACKAGE / "guard.py").read_text())
    rules = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name in ("pr_conf", "pr_inte", "pr_avai")}
    assert len(rules) == 3
    for name, rule in rules.items():
        assert flag_names(rule) == [], name
