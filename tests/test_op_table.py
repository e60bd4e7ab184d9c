"""The op table as a checked contract.

Every rule a replay names for an event must be one of the rule families
`OPS` wires the event's op to, a trace with every op must satisfy both
oracle checkers, and a trace or config whose tokens are garbled into
arbitrary Unicode may fail only as a `StbacError` that carries its line.
"""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from stbac import scenarios
from stbac.cli import check_replay, load_bundle
from stbac.engine import OPS, parse_trace, replay
from stbac.guard import parse_pcopy_map, parse_trust_list
from stbac.model import StbacError
from stbac.world import parse_init_config, spawn_boot_world

from conftest import assert_agrees, run_generated
import trace_gen


def named_rules(record) -> set:
    """The DENY rule and the rules of the record's flag changes, except the
    administrative set_stbac_attr, which is not a rule family."""
    rules = {change.rule for change in record.flag_changes
             if change.rule != "set_stbac_attr"}
    if record.denied:
        rules.add(record.result[len("DENY("):-1])
    return rules


def assert_rules_are_wired(records):
    for record in records:
        assert named_rules(record) <= OPS[record.op].families, record.line()


@pytest.mark.parametrize("name", scenarios.NAMES)
def test_bundled_scenarios_name_only_wired_rules(name):
    records = scenarios.load(name).replay().records
    assert any(named_rules(record) for record in records)
    assert_rules_are_wired(records)


@given(trace_gen.intents_strategy)
@settings(max_examples=150, deadline=None)
def test_generated_traces_name_only_wired_rules(intent_list):
    _, _, _, result = run_generated(intent_list)
    assert_rules_are_wired(result.records)


# A valid trace over trace_gen.BOOT_CONFIG with every op of the table.  Pid
# 1 runs the leak-capable copier and reads the secret; pid 4 talks to an
# untrusted endpoint and spreads taint over every IPC channel; both then
# create, write, exec and administer, so that the trace names every rule
# family the table wires, apart from SILENT_HOOKS.
ALL_OPS_TRACE = """\
1,1,execve,/bin/copy
2,1,open_read,/data/secret
3,1,fork,2
4,1,vfork,3
5,1,clone,4
6,3,execve,/bin/sh
7,3,fork,5
8,3,fork,6
9,3,fork,7
10,3,fork,8
11,3,fork,9
12,3,fork,10
13,4,execve,/bin/tool
14,4,socket_open,1,10.0.0.1:5000,10.0.0.9:80,tcp
15,4,fork,11
16,5,msgrcv,4
17,4,pipe,6
18,7,shmat,4
19,1,mkdir,/bin/d
20,4,mkdir,/bin/e
21,1,mkfifo,/bin/d/f
22,4,mkfifo,/bin/g
23,1,mknod,/bin/d/n,device
24,4,mknod,/bin/h,file
25,1,create,/bin/d/c,0
26,4,create,/srv/x,1
27,4,create,/bin/y,1
28,3,create,/srv/w,1
29,3,create,/srv/m,0
30,3,create,/srv/k,0
31,2,open_write,/srv/x
32,11,open_write,/srv/w
33,4,open_write,/bin/sh
34,4,open_write,/data/shared
35,4,open_read,/data/secret
36,4,open_read,/data/shared
37,11,chmod,/srv/m,1
38,4,chmod,/bin/sh,0
39,11,fchmod,/srv/k,1
40,4,fchmod,/bin/tool,1
41,2,execve,/srv/x
42,8,mmap_exec,/srv/w
43,4,truncate,/bin/sh
44,1,truncate,/srv/m
45,4,chown,/bin/sh,0
46,1,chown,/srv/m,0
47,1,mkdir,/bin/d/e
48,4,rmdir,/bin/d/e
49,1,rmdir,/bin/d/e
50,4,rename,/bin/tool,/srv/t
51,1,rename,/srv/m,/srv/m2
52,4,unlink,/bin/copy
53,3,unlink,/srv/k
54,4,mount,/srv
55,1,mount
56,4,umount,/srv
57,4,setrlimit
58,4,reboot
59,4,swapoff
60,4,create_module,m
61,4,delete_module,m
62,4,setuid,0
63,1,setuid,0
64,4,setgid,0
65,4,setfsuid,0
66,1,set_stbac_attr,pid:3,inte,1
67,4,kill,3
68,4,kill,5
69,4,ptrace,1
70,4,sock_send,1,10,9
71,4,sock_send,1,500
72,10,socket_open,2,10.0.0.1:5001,10.0.0.9:22,tcp
73,10,sock_recv,2,10,4
74,4,sock_recv,1,500
75,4,brk_alloc,1000
76,1,brk_alloc,100
77,4,disk_alloc,1000
78,1,disk_alloc,10
79,4,sched_tick
80,4,sched_tick
81,4,sched_tick
82,4,sched_tick
83,4,sched_tick
84,4,sched_tick
85,4,sched_tick
86,4,set_stbac_attr,/srv,inte,1
87,4,get_stbac_attr,/data/secret
88,1,get_stbac_attr,/data/secret
89,3,mkfifo,/srv/q
90,4,open_write,/srv/q
91,3,open_read,/srv/q
92,11,exit
93,4,vfork,12
94,4,clone,13
"""

# Hooks of the kernel design that no handler here fires: mkfifo and mknod
# spread nothing to processes, and a fifo message spreads taint when it is
# read (open_read), not when it is written.
SILENT_HOOKS = {("mkfifo", "TR_proc_proc"), ("mknod", "TR_proc_proc"),
                ("open_write", "TR_proc_proc")}


def generated_boot_bundle() -> tuple:
    """(config, world, policy) of trace_gen's boot config, full trust list
    and copy map."""
    return load_bundle(trace_gen.BOOT_CONFIG, trace_gen.TRUST_FULL, trace_gen.PCOPY_TEXT)


def test_all_ops_trace_names_every_wired_family():
    _, world, policy = generated_boot_bundle()
    records = replay(world, parse_trace(ALL_OPS_TRACE), policy).records
    assert_rules_are_wired(records)
    named = {(record.op, rule) for record in records for rule in named_rules(record)}
    wired = {(op, family) for op, spec in OPS.items() for family in spec.families}
    assert named == wired - SILENT_HOOKS


def test_all_ops_trace_passes_both_checkers():
    diff, report, _ = check_replay(*generated_boot_bundle(), parse_trace(ALL_OPS_TRACE))
    assert_agrees(diff)
    assert report.all_passed(), report.summary_lines()
    assert len(report.cond_write.exceptions) == 2, report.cond_write.exceptions


@st.composite
def garbled_token(draw, token: str) -> str:
    """A token replaced by arbitrary text, or with one character replaced or
    inserted, so that near-valid numbers, ports and paths come up too.
    Number characters are drawn often: many of them pass str.isdigit or
    int() without being ASCII digits."""
    char = draw(st.one_of(st.characters(), st.characters(categories=("Nd", "No"))))
    at = draw(st.integers(0, len(token)))
    return draw(st.sampled_from((
        draw(st.text()),
        token[:at] + char + token[at + 1:],
        token[:at] + char + token[at:],
    )))


@st.composite
def garbled_traces(draw) -> str:
    """ALL_OPS_TRACE or a generated trace, with one to three tokens garbled."""
    generated = trace_gen.intents_strategy.map(lambda i: trace_gen.build_trace(i)[0])
    lines = draw(st.one_of(st.just(ALL_OPS_TRACE), generated)).splitlines()
    for _ in range(draw(st.integers(1, 3)) if lines else 0):
        index = draw(st.integers(0, len(lines) - 1))
        tokens = lines[index].split(",")
        slot = draw(st.integers(0, len(tokens) - 1))
        tokens[slot] = draw(garbled_token(tokens[slot]))
        lines[index] = ",".join(tokens)
    return "\n".join(lines) + "\n"


def assert_fails_only_with_a_line_number(trace_text: str):
    _, world, policy = generated_boot_bundle()
    try:
        replay(world, parse_trace(trace_text), policy)
    except StbacError as exc:
        assert getattr(exc, "line", None) is not None, exc


@given(garbled_traces())
@settings(max_examples=500, deadline=None)
def test_garbled_traces_fail_only_with_a_line_number(trace_text):
    assert_fails_only_with_a_line_number(trace_text)


# str.isdigit accepts all three; int() accepts only the Arabic-Indic three.
DIGIT_LOOKALIKES = ("²", "①", "٣")


def test_digit_lookalikes_fail_only_with_a_line_number():
    """Every digit of every line, in turn, swapped for each lookalike."""
    lines = ALL_OPS_TRACE.splitlines()
    for index, line in enumerate(lines):
        for at, char in enumerate(line):
            if not char.isdigit():
                continue
            for lookalike in DIGIT_LOOKALIKES:
                garbled = line[:at] + lookalike + line[at + 1:]
                assert_fails_only_with_a_line_number(
                    "\n".join(lines[:index] + [garbled]) + "\n")


def boot_world(text: str):
    """Parse a boot config and build the world it describes."""
    return spawn_boot_world(parse_init_config(text))


CONFIG_PARSERS = {
    "boot": (trace_gen.BOOT_CONFIG, boot_world),
    "trust": (trace_gen.TRUST_FULL, parse_trust_list),
    "benign trust": (trace_gen.TRUST_BENIGN, parse_trust_list),
    "copy map": (trace_gen.PCOPY_TEXT, parse_pcopy_map),
}


@st.composite
def garbled_configs(draw) -> tuple:
    """(parser name, text): one of the generator's configs with one to three
    whitespace-separated tokens garbled or replaced by another of its tokens."""
    name = draw(st.sampled_from(sorted(CONFIG_PARSERS)))
    lines = [line.split() for line in CONFIG_PARSERS[name][0].splitlines()]
    slots = [(i, j) for i, tokens in enumerate(lines) for j in range(len(tokens))]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.sampled_from(slots))
        lines[i][j] = draw(st.one_of(garbled_token(lines[i][j]),
                                     st.sampled_from([lines[a][b] for a, b in slots])))
    return name, "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@given(garbled_configs())
@example(("copy map", "pcopy /data/shared /data/shared\n"))
@settings(max_examples=300, deadline=None)
def test_garbled_configs_fail_only_with_a_line_number(case):
    name, text = case
    try:
        CONFIG_PARSERS[name][1](text)
    except StbacError as exc:
        assert re.search(r"\bline \d+", str(exc)), exc
