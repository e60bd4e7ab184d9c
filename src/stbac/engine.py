"""Trace replay: parse events, consult the guard, apply flag spreads, audit.

One event per line, comma-separated: ``tick,pid,op,arg1,...`` with ``#``
comments.  Ticks are abstract and non-decreasing.  Each event produces
exactly one audit record; a denied event changes nothing but the clock and
the audit log.  Replay is a pure function of its inputs: identical trace,
boot config, trust list and copy map give bit-identical audit output.

A replay streams: iter_trace yields one Event per line as the replay asks
for it, and _Replayer.step turns each into its AuditRecord, so a caller
that keeps neither (the CLI) holds memory for the world and the graph, not
for the trace.  cli.load_bundle builds the world and the policy a replay
starts from, and cli.check_replay steps a _Replayer in lockstep with the
oracle.  parse_trace and replay are collectors over the two for callers
that want the lists.

Each handler returns its verdict, a shared constant of model or a redirect,
beside the label changes the event implies.  Every label change is a
FlagMutation: a taint or vital rule's spread, or an administrative
set_stbac_attr that the integrity rule allowed.  A handler asks all its
rules before step applies any mutation; _Replayer._apply_mutation is the one
place a replay applies them, through World.set_flags.  The world, not the
engine, logs each taint flip from the TAINT bits it stores; _Replayer.step
empties the log first, so after a step it holds that event's flips alone.
tainted_snapshot scans the world for the live TAINT entities.

Label bits stay int masks through a replay, and a FlagChange names the one
bit that flipped.  Rule names and resource kinds are plain strings that are
their own audit spelling, so nothing translates a name on the way out.

The engine alone decides how an op is guarded: the target it hands
pr_conf or pr_inte (none when the op is refused to every suspect), and
whether a denial of open_read, open_write, chmod, fchmod or truncate
becomes a redirect to the target's partial copy, which it builds only
while copy_fault accepts the copy and the rule that denied the target
allows the subject on the copy: a suspect's write never lands on a copy
that carries INTE.

The engine checks trace input first: paths, endpoints, kinds, exec bits,
live pids, socket owners and amounts are checked in the handlers, by
model's token rules, before any guard or rule is asked, and the rules and
World.add_node trust their arguments.  Handlers and the token rules raise
their StbacError with the message alone; _Replayer.step is the one place
that gives a trace error its line, as iter_trace does for the lines it
rejects.

Audit line shape (one per event):

    <4>{tick},{pid}:{exe},{object},{op},{param},{RESULT}

where RESULT is ALLOW, ALLOW_REDIR(path) or DENY(rule).  Object is the
primary operand: a path, ``pid:N``, ``sock:N``, a resource kind, or ``-``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import taint, vital
from .guard import copy_fault, match_trust, pr_avai, pr_conf, pr_inte
from .model import (
    ALLOW,
    AVAI,
    CONF,
    FLAG_NAMES,
    INTE,
    LEAK,
    NO_FLAGS,
    PROTOCOLS,
    TAINT,
    FlagMutation,
    StbacError,
    TraceError,
    ascii_int,
    check_path,
    flag_bits,
    format_flags,
    parse_flag,
    parse_resource,
    redirect,
    split_endpoint,
)
from .world import World, parent_of


class Event(NamedTuple):
    tick: int
    pid: int
    op: str
    args: tuple
    line: int = 0


# Characters of trace text split into lines at a time.  A chunk ends just
# after a "\n" (or at the end of the text), which is always a line break of
# str.splitlines, so lines are numbered as splitlines numbers the whole text.
TRACE_CHUNK = 1 << 16

# Event(...) runs the NamedTuple's Python-level __new__; iter_trace builds
# each tuple directly, a tenth of its per-line cost, from fields it checked.
_new_event = tuple.__new__


def iter_trace(text: str):
    """Yield the events of a trace in order, one per line that is neither
    blank nor a # comment.  A malformed line raises TraceError with its
    number when the iteration reaches it; the lines before it are yielded."""
    last_tick = None
    line_no = 0
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + TRACE_CHUNK) + 1 or size
        chunk = text[start:end].splitlines()
        start = end
        for raw in chunk:
            line_no += 1
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            parts = line.split(",")
            if len(parts) < 3:
                raise TraceError(f"expected tick,pid,op[,...], got {line!r}", line_no)
            tick, pid, op = parts[0], parts[1], parts[2]
            try:
                if line.isascii() and tick.isdigit() and pid.isdigit():
                    tick, pid = int(tick), int(pid)
                else:
                    tick, pid = ascii_int(tick), ascii_int(pid)
            except ValueError:
                raise TraceError(f"tick and pid must be integers: {line!r}", line_no) from None
            if tick < 0:
                raise TraceError(f"negative tick {tick}", line_no)
            if last_tick is not None and tick < last_tick:
                raise TraceError(f"tick {tick} decreases (previous {last_tick})", line_no)
            last_tick = tick
            spec = OPS.get(op)
            if spec is None:
                raise TraceError(f"unknown operation {op!r}", line_no)
            args = tuple(parts[3:])
            lo, hi = spec.arity
            if not lo <= len(args) <= hi:
                raise TraceError(
                    f"{op} takes {lo}..{hi} argument(s), got {len(args)}", line_no)
            yield _new_event(Event, (tick, pid, op, args, line_no))


def parse_trace(text: str) -> list[Event]:
    """Parse a whole trace; the first malformed line aborts with its number."""
    return list(iter_trace(text))


@dataclass
class FlagChange:
    """One flag bit flipping on an entity, as caused by one event."""

    entity: tuple        # ("file", path at change time), else the target ref
    flag: int            # the one bit that flipped
    on: bool
    rule: str


@dataclass(slots=True)
class AuditRecord:
    tick: int
    pid: int
    exe: str
    obj: str
    op: str
    param: str
    result: str
    flag_changes: tuple = ()     # FlagChange records, in application order

    def line(self) -> str:
        return (f"<4>{self.tick},{self.pid}:{self.exe},{self.obj},"
                f"{self.op},{self.param},{self.result}")

    @property
    def denied(self) -> bool:
        return self.result.startswith("DENY")


@dataclass
class GraphNode:
    label: str
    flags_ever: int = NO_FLAGS    # union of every mask the entity showed


@dataclass
class DepGraph:
    """Cause/effect record of flag spreads plus denial markers."""

    nodes: dict = field(default_factory=dict)     # key -> GraphNode
    edges: list = field(default_factory=list)     # (cause key, effect key, rule, tick)
    denials: list = field(default_factory=list)   # (subject key, object key, rule, tick)

    def touch(self, key: tuple, label: str) -> GraphNode:
        node = self.nodes.get(key)
        if node is None:
            node = GraphNode(label)
            self.nodes[key] = node
        else:
            node.label = label
        return node


def export_graph(graph: DepGraph) -> str:
    """Deterministic DOT rendering: tainted nodes carry taint=1, vital nodes
    vital="conf"/"inte", leak carriers leak=1; denial edges are dashed.
    Node ids and labels are DOT strings, with \\ and " escaped."""
    out = ["digraph replay {"]
    for key in sorted(graph.nodes, key=_key_order):
        node = graph.nodes[key]
        attrs = [f"label={_quote(node.label)}"]
        if node.flags_ever & TAINT:
            attrs.append("taint=1")
        vital_bits = [FLAG_NAMES[f] for f in flag_bits(node.flags_ever & (CONF | INTE))]
        if vital_bits:
            attrs.append(f'vital="{",".join(vital_bits)}"')
        if node.flags_ever & LEAK:
            attrs.append("leak=1")
        out.append(f'  {_key_id(key)} [{", ".join(attrs)}];')
    for cause, effect, rule, tick in graph.edges:
        out.append(f'  {_key_id(cause)} -> {_key_id(effect)}'
                   f' [label="{rule}@{tick}"];')
    for subject, obj, rule, tick in graph.denials:
        out.append(f'  {_key_id(subject)} -> {_key_id(obj)}'
                   f' [label="{rule}@{tick}", style=dashed];')
    out.append("}")
    return "\n".join(out) + "\n"


def _quote(text: str) -> str:
    """text as a DOT double-quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _key_id(key: tuple) -> str:
    return _quote(f"{key[0]}:{key[1]}")


def _key_order(key: tuple):
    return (key[0], str(key[1]))


@dataclass
class Policy:
    """Replay-scoped configuration: trusted endpoints and partial copies."""

    trust: list = field(default_factory=list)
    pcopy: dict = field(default_factory=dict)    # shared path -> copy path


@dataclass
class ReplayResult:
    world: World
    records: list
    graph: DepGraph

    def audit_text(self) -> str:
        return "\n".join(r.line() for r in self.records) + ("\n" if self.records else "")

    def denial_records(self) -> list:
        return [r for r in self.records if r.denied]


def tainted_snapshot(world: World) -> frozenset:
    """Labels of the live tainted entities, files keyed by their current
    path: a scan of every process and node, in O(world)."""
    return frozenset([("proc", pid) for pid, proc in world.processes.items()
                      if proc.alive and proc.flags & TAINT]
                     + [("file", node.path) for node in world.fs.values()
                        if node.flags & TAINT])


def replay(world: World, events, policy: Policy | None = None) -> ReplayResult:
    """Replay events in order and keep every record: a collector over
    _Replayer.step."""
    replayer = _Replayer(world, policy or Policy(), DepGraph())
    records = [replayer.step(event) for event in events]
    return ReplayResult(world, records, replayer.graph)


class _Replayer:
    """Per-replay dispatch state; the world carries everything durable.
    step is the one way an event is replayed: the CLI steps a replayer over
    a trace one event at a time, and replay collects its records.  With a
    graph of None the replay records no edges, for a caller that never
    exports them.  denials counts the denied events stepped so far.  After
    a step, world.taint_changes holds the taint flips that the event made,
    in order, and nothing older."""

    def __init__(self, world: World, policy: Policy, graph: DepGraph | None):
        self.world = world
        self.policy = policy
        self.graph = graph
        self.denials = 0

    # -- main step ---------------------------------------------------------

    def step(self, ev: Event) -> AuditRecord:
        world = self.world
        world.taint_changes.clear()
        if ev.tick < world.clock:
            raise TraceError(f"tick {ev.tick} is behind the clock {world.clock}", ev.line)
        world.clock = ev.tick
        try:
            proc = world.live_process(ev.pid)
            decision, obj, param, mutations = OPS[ev.op].handler(self, proc, ev)
        except StbacError as exc:
            raise TraceError(str(exc), ev.line) from exc
        changes = ()
        for mutation in mutations:
            if mutation is not None:        # None: the rule did not fire
                changes += self._apply_mutation(mutation, ev.tick)
        record = AuditRecord(ev.tick, ev.pid, proc.exe_path, obj, ev.op, param,
                             decision.result, changes)
        if decision.rule is not None:
            self.denials += 1
            if self.graph is not None:
                self._mark_denial(proc, obj, decision.rule, ev.tick)
        return record

    # -- mutation plumbing ---------------------------------------------------

    def _apply_mutation(self, mutation: FlagMutation, tick: int) -> tuple:
        """The one place a replay changes label bits; the FlagChange records
        of the bits that flipped, or () when none did."""
        world = self.world
        target, rule, cause = mutation.target, mutation.rule, mutation.cause
        before = world.flags_of(target)
        after = before & ~mutation.flags_cleared | mutation.flags_added
        if after == before:
            return ()
        world.set_flags(target, after)
        label = ("file", world.fs[target[1]].path) if target[0] == "file" else target
        changes = tuple(FlagChange(label, bit, after & bit != 0, rule)
                        for bit in flag_bits(before ^ after))
        if target[0] != "res" and self.graph is not None:
            target_node = self.graph.touch(target, self._display_label(target))
            target_node.flags_ever |= after
            if cause is not None:
                cause_node = self.graph.touch(cause, self._display_label(cause))
                cause_node.flags_ever |= world.flags_of(cause)
                self.graph.edges.append((cause, target, rule, tick))
        return changes

    def _display_label(self, ref) -> str:
        kind, ident = ref
        if kind == "proc":
            return f"pid {ident} ({self.world.processes[ident].exe_path})"
        if kind == "file":
            return self.world.fs[ident].path
        sock = self.world.sockets[ident]
        return f"sock {ident} ({sock.remote[0]}:{sock.remote[1]})"

    def _mark_denial(self, proc, obj: str, rule: str, tick: int):
        subject = ("proc", proc.pid)
        self.graph.touch(subject, self._display_label(subject))
        object_key = ("op", obj)
        node_id = self.world.lookup(obj) if obj.startswith("/") else None
        if node_id is not None:
            object_key = ("file", node_id)
        elif obj.startswith("pid:"):
            # A privileged op audits its raw argument: pid:<anything>.
            try:
                pid = ascii_int(obj[4:])
            except ValueError:      # not an integer, or more digits than int() converts
                pid = None
            if pid in self.world.processes:
                object_key = ("proc", pid)
        if object_key not in self.graph.nodes:
            label = obj if object_key[0] == "op" else self._display_label(object_key)
            self.graph.touch(object_key, label)
        self.graph.denials.append((subject, object_key, rule, tick))

    # -- argument helpers ----------------------------------------------------

    def _node_arg(self, token: str):
        return self.world.node_at(check_path(token))

    def _fresh_path(self, token: str) -> str:
        path = check_path(token)
        if self.world.lookup(path) is not None:
            raise TraceError(f"path exists: {path}")
        return path

    def _parent_dir(self, path: str):
        parent_path = parent_of(path)
        parent_id = self.world.lookup(parent_path)
        if parent_id is None:
            raise TraceError(f"missing parent directory {parent_path}")
        parent = self.world.fs[parent_id]
        if parent.kind != "dir":
            raise TraceError(f"parent is not a directory: {parent_path}")
        return parent

    def _redirect(self, denial, rule, proc, node):
        """The redirect to node's mapped copy and the copy's node while
        copy_fault accepts the copy and rule, which denied proc node, allows
        proc the copy; else the denial and node."""
        copy = self.policy.pcopy.get(node.path)
        if copy is None or copy_fault(self.world, copy) is not None:
            return denial, node
        target = self.world.node_at(copy)
        if rule(proc, target).rule is not None:
            return denial, node
        return redirect(copy), target

    # -- process lifecycle ---------------------------------------------------

    def _ev_fork(self, proc, ev):
        child_pid = _int_arg(ev.args[0], "child pid")
        child = self.world.spawn(proc, child_pid)
        return ALLOW, f"pid:{child_pid}", "-", (taint.tr_proc_proc(proc, child),
                                                 vital.vr_proc_proc(proc, child))

    def _ev_exit(self, proc, ev):
        self.world.exit(proc)
        return ALLOW, "-", "-", ()

    # -- IPC -------------------------------------------------------------------

    def _ev_pipe(self, proc, ev):
        reader = self.world.live_process(_int_arg(ev.args[0], "reader pid"))
        return ALLOW, f"pid:{reader.pid}", "-", (taint.tr_proc_proc(proc, reader),)

    def _ev_shmat(self, proc, ev):
        peer = self.world.live_process(_int_arg(ev.args[0], "peer pid"))
        # Shared memory has no direction: each side reads the other.
        return ALLOW, f"pid:{peer.pid}", "-", (taint.tr_proc_proc(proc, peer),
                                               taint.tr_proc_proc(peer, proc))

    def _ev_msgrcv(self, proc, ev):
        sender = self.world.live_process(_int_arg(ev.args[0], "sender pid"))
        return ALLOW, f"pid:{sender.pid}", "-", (taint.tr_proc_proc(sender, proc),)

    # -- filesystem --------------------------------------------------------------

    def _ev_open_read(self, proc, ev):
        node = target = self._node_arg(ev.args[0])
        decision = pr_conf(proc, node)
        if decision.rule is not None:
            decision, target = self._redirect(decision, pr_conf, proc, node)
        mutations = ()
        if decision.allowed and target.kind == "file":
            mutations = (vital.vr_file_proc(proc, target, "read"),
                         *self._drain_fifo(proc, target))
        return decision, node.path, "-", mutations

    def _ev_open_write(self, proc, ev):
        node = target = self._node_arg(ev.args[0])
        if node.kind == "dir":
            raise TraceError(f"cannot write a directory: {node.path}")
        decision = pr_inte(proc, node)
        if decision.rule is not None:
            decision, target = self._redirect(decision, pr_inte, proc, node)
        mutations = ()
        if decision.allowed and target.kind == "file":
            mutations = self._write_mutations(proc, target)
            fifos = self.world.fifo_writers
            if (proc.flags & TAINT and target.node_id in fifos
                    and fifos[target.node_id] is None):
                fifos[target.node_id] = proc.pid
        return decision, node.path, "-", mutations

    def _ev_create(self, proc, ev):
        path = self._fresh_path(ev.args[0])
        exec_bits = _bit_arg(ev.args[1], "exec bit")
        parent = self._parent_dir(path)
        decision = pr_inte(proc, parent)
        mutations = ()
        if decision.allowed:
            node = self.world.add_node(path, "file", exec_bits, parent.node_id)
            mutations = (vital.vr_dir_dir(parent, node),
                         *self._write_mutations(proc, node))
        return decision, path, f"exec={int(exec_bits)}", mutations

    def _ev_make_node(self, proc, ev):
        """mkdir, mkfifo and mknod: a new empty node, audited with its kind."""
        if ev.op == "mknod":
            kind = ev.args[1]
            if kind not in ("file", "device", "fifo"):
                raise TraceError(f"mknod kind must be file|device|fifo, got {kind!r}")
        else:
            kind = "dir" if ev.op == "mkdir" else "fifo"
        path = self._fresh_path(ev.args[0])
        parent = self._parent_dir(path)
        decision = pr_inte(proc, parent)
        mutations = ()
        if decision.allowed:
            node = self.world.add_node(path, "file" if kind == "fifo" else kind,
                                       False, parent.node_id)
            if kind == "fifo":
                self.world.fifo_writers[node.node_id] = None
            mutations = (vital.vr_dir_dir(parent, node),)
        return decision, path, "-" if kind == "dir" else kind, mutations

    def _ev_chmod(self, proc, ev):
        node = target = self._node_arg(ev.args[0])
        exec_bits = _bit_arg(ev.args[1], "exec bit")
        decision = pr_inte(proc, node)
        if decision.rule is not None:
            decision, target = self._redirect(decision, pr_inte, proc, node)
        mutations = ()
        if decision.allowed and target.kind == "file":
            became_set = exec_bits and not target.exec_bits
            target.exec_bits = exec_bits
            if became_set:
                mutations = (taint.tr_proc_exe(proc, target),)
        return decision, node.path, f"exec={int(exec_bits)}", mutations

    def _ev_truncate(self, proc, ev):
        node = self._node_arg(ev.args[0])
        if node.kind == "dir":
            raise TraceError(f"cannot truncate a directory: {node.path}")
        decision = pr_inte(proc, node)
        if decision.rule is not None:
            decision, _ = self._redirect(decision, pr_inte, proc, node)
        return decision, node.path, "-", ()

    def _ev_chown(self, proc, ev):
        node = self._node_arg(ev.args[0])
        uid = _int_arg(ev.args[1], "uid")
        decision = pr_inte(proc, node)
        return decision, node.path, f"uid={uid}", ()

    def _ev_unlink(self, proc, ev):
        node = self._node_arg(ev.args[0])
        if node.kind == "dir":
            raise TraceError(f"unlink of a directory: {node.path}")
        decision = pr_inte(proc, node)
        if decision.allowed:
            self.world.remove_node(node)
        return decision, node.path, "-", ()

    def _ev_rmdir(self, proc, ev):
        node = self._node_arg(ev.args[0])
        if node.kind != "dir":
            raise TraceError(f"rmdir of a non-directory: {node.path}")
        if node.parent is None:
            raise TraceError("cannot remove /")
        if self.world.children(node):
            raise TraceError(f"directory not empty: {node.path}")
        decision = pr_inte(proc, node)
        if decision.allowed:
            self.world.remove_node(node)
        return decision, node.path, "-", ()

    def _ev_rename(self, proc, ev):
        src = self._node_arg(ev.args[0])
        if src.parent is None:
            raise TraceError("cannot rename /")
        dst_path = check_path(ev.args[1])
        if dst_path == src.path or dst_path.startswith(src.path + "/"):
            raise TraceError(f"cannot rename {src.path} into itself")
        dst_parent = self._parent_dir(dst_path)
        dst_id = self.world.lookup(dst_path)
        overwritten = None if dst_id is None else self.world.fs[dst_id]
        if overwritten is not None and overwritten.kind == "dir":
            raise TraceError(f"rename target is a directory: {dst_path}")
        decision = pr_inte(proc, src)
        if decision.allowed and overwritten is not None:
            decision = pr_inte(proc, overwritten)
        if decision.allowed:
            decision = pr_inte(proc, dst_parent)
        if decision.allowed:
            if overwritten is not None:
                self.world.remove_node(overwritten)
            self.world.repath(src, dst_path)
        return decision, ev.args[0], dst_path, ()

    # -- exec and loading ----------------------------------------------------------

    def _ev_execve(self, proc, ev):
        node = self._node_arg(ev.args[0])
        if node.kind != "file":
            raise TraceError(f"cannot exec {node.kind} {node.path}")
        if not node.exec_bits:
            raise TraceError(f"{node.path} is not executable")
        mutations = (taint.tr_exe_proc(proc, node),
                     vital.vr_file_proc(proc, node, "execve"))
        proc.exe_path = node.path
        return ALLOW, node.path, "-", mutations

    def _ev_mmap_exec(self, proc, ev):
        node = self._node_arg(ev.args[0])
        if node.kind != "file":
            raise TraceError(f"{node.path} is not a regular file")
        return ALLOW, node.path, "-", (taint.tr_exe_proc(proc, node),)

    # -- privileged operations --------------------------------------------------

    def _ev_privileged(self, proc, ev):
        """mount, umount, setrlimit, reboot, swapoff, create/delete_module:
        refused to every suspect, so the guard gets no target."""
        decision = pr_inte(proc, None)
        obj = ev.args[0] if ev.args else "-"
        return decision, obj, "-", ()

    def _ev_set_id(self, proc, ev):
        """setuid, setgid, setfsuid; the new id is audited, not modeled."""
        what = "gid" if ev.op == "setgid" else "uid"
        ident = _int_arg(ev.args[0], what)
        decision = pr_inte(proc, None)
        return decision, "-", f"{what}={ident}", ()

    def _ev_kill(self, proc, ev):
        target = self.world.live_process(_int_arg(ev.args[0], "target pid"))
        decision = pr_inte(proc, target)
        # Signal delivery itself is not modeled; a dying target shows up
        # in the trace as its own exit event.
        return decision, f"pid:{target.pid}", "-", ()

    def _ev_ptrace(self, proc, ev):
        target = self.world.live_process(_int_arg(ev.args[0], "target pid"))
        decision = pr_conf(proc, None)
        return decision, f"pid:{target.pid}", "-", ()

    # -- network ---------------------------------------------------------------

    def _ev_socket_open(self, proc, ev):
        sock_id = _int_arg(ev.args[0], "socket id")
        local = _endpoint_arg(ev.args[1])
        remote = _endpoint_arg(ev.args[2])
        proto = ev.args[3]
        if proto not in PROTOCOLS:
            raise TraceError(f"bad protocol {proto!r}")
        trusted = match_trust(self.policy.trust, proc.exe_path, local, remote,
                              proto, ev.tick)
        sock = self.world.open_socket(sock_id, proc.pid, remote, trusted)
        param = (f"{local[0]}:{local[1]}->{remote[0]}:{remote[1]}/{proto}")
        return ALLOW, f"sock:{sock_id}", param, (taint.tr_sock_proc(proc, sock),)

    def _ev_sock_io(self, proc, ev):
        """sock_send and sock_recv; with a peer pid the message carries taint."""
        sending = ev.op == "sock_send"
        sock = self.world.socket(_int_arg(ev.args[0], "socket id"))
        if sock.owner != proc.pid:
            raise TraceError(f"socket {sock.sock_id} belongs to pid {sock.owner}")
        amount = _int_arg(ev.args[1], "byte count")
        if amount <= 0:
            raise TraceError(f"byte count must be positive, got {amount}")
        peer = None
        if len(ev.args) == 3:
            peer = self.world.live_process(_int_arg(ev.args[2], "peer pid"))
        decision = pr_avai(self.world, proc, "net_bytes", amount)
        arrow = "->" if sending else "<-"
        param = str(amount) if peer is None else f"{amount}{arrow}pid:{peer.pid}"
        mutations = ()
        if decision.allowed:
            self.world.ledger.charge(proc, "net_bytes", amount)
            if peer is not None:
                source, sink = (proc, peer) if sending else (peer, proc)
                mutations = (taint.tr_proc_proc(source, sink),)
        return decision, f"sock:{sock.sock_id}", param, mutations

    # -- resource allocation ------------------------------------------------------

    def _ev_brk_alloc(self, proc, ev):
        amount = _int_arg(ev.args[0], "byte count")
        return self._allocate(proc, "memory_bytes", amount)

    def _ev_disk_alloc(self, proc, ev):
        amount = _int_arg(ev.args[0], "block count")
        return self._allocate(proc, "disk_blocks", amount)

    def _ev_sched_tick(self, proc, ev):
        return self._allocate(proc, "cpu_ticks", 1)

    def _allocate(self, proc, kind, amount):
        if amount <= 0:
            raise TraceError(f"allocation must be positive, got {amount}")
        decision = pr_avai(self.world, proc, kind, amount)
        if decision.allowed:
            self.world.ledger.charge(proc, kind, amount)
        return decision, kind, str(amount), ()

    # -- flag administration --------------------------------------------------------

    def _ev_set_stbac_attr(self, proc, ev):
        ref, obj = self._attr_target(ev.args[0])
        bit = parse_flag(ev.args[1])
        on = _bit_arg(ev.args[2], "flag value")
        if (bit == AVAI) != (ref[0] == "res"):
            target = "resource kinds" if bit == AVAI else "processes and nodes"
            raise TraceError(f"flag {FLAG_NAMES[bit]} only applies to {target}")
        decision = pr_inte(proc, None)
        mutations = ()
        if decision.allowed:
            added, cleared = (bit, NO_FLAGS) if on else (NO_FLAGS, bit)
            mutations = (FlagMutation(ref, "set_stbac_attr", None, added, cleared),)
        return decision, obj, f"{FLAG_NAMES[bit]}={int(on)}", mutations

    def _ev_get_stbac_attr(self, proc, ev):
        ref, obj = self._attr_target(ev.args[0])
        decision = pr_conf(proc, None)
        if decision.allowed:
            return decision, obj, f"flags={format_flags(self.world.flags_of(ref))}", ()
        return decision, obj, "-", ()

    def _attr_target(self, token: str):
        if token.startswith("pid:"):
            pid = _int_arg(token[4:], "pid")
            self.world.live_process(pid)
            return ("proc", pid), token
        if token.startswith("res:"):
            return ("res", parse_resource(token[4:])), token
        node = self._node_arg(token)
        return ("file", node.node_id), node.path

    # -- shared pieces -------------------------------------------------------------

    def _write_mutations(self, proc, node) -> tuple:
        # A copy gets the secrecy spread too: once a leak-capable writer
        # marks it conf, copy_fault refuses it at the next redirect.
        return taint.tr_proc_exe(proc, node), vital.vr_proc_file(proc, node)

    def _drain_fifo(self, proc, node) -> tuple:
        fifos = self.world.fifo_writers
        writer_pid = fifos.get(node.node_id)
        if writer_pid is None:
            return ()
        fifos[node.node_id] = None
        # The first tainted message carried its writer's taint at write time;
        # the writer may be gone by now, so the mutation is built directly
        # rather than through the live-process IPC rule.
        return (FlagMutation(("proc", proc.pid), "TR_proc_proc", ("proc", writer_pid), TAINT),)


# -- trace tokens ------------------------------------------------------------------

def _int_arg(token: str, what: str) -> int:
    try:
        return ascii_int(token)
    except ValueError:
        raise TraceError(f"{what} must be an integer, got {token!r}") from None


def _bit_arg(token: str, what: str) -> bool:
    if token not in ("0", "1"):
        raise TraceError(f"{what} must be 0 or 1, got {token!r}")
    return token == "1"


def _endpoint_arg(token: str) -> tuple:
    """(ip, int port); a trace port is never the "*" of a trust entry."""
    ip, port = split_endpoint(token)
    if port == "*":
        raise TraceError(f"bad port {port!r}")
    try:
        return (ip, int(port))
    except ValueError:          # more digits than int() converts
        raise TraceError(f"port must be an integer, got {port!r}") from None


# -- the op table ------------------------------------------------------------------

class OpSpec(NamedTuple):
    arity: tuple          # (min, max) argument count
    handler: Callable     # _Replayer method: (proc, ev) -> (decision, obj, param,
                          # mutations), mutations a tuple of rule results or ()
    families: frozenset   # rule families the op is wired to


def _op(lo, hi, handler, *families) -> OpSpec:
    return OpSpec((lo, hi), handler, frozenset(families))


_R = _Replayer

# One row per trace operation.  Mirrors the syscall hook map of the kernel
# design; the bookkeeping op "exit" hooks nothing.
OPS = {
    "fork": _op(1, 1, _R._ev_fork, "TR_proc_proc", "VR_proc_proc"),
    "vfork": _op(1, 1, _R._ev_fork, "TR_proc_proc", "VR_proc_proc"),
    "clone": _op(1, 1, _R._ev_fork, "TR_proc_proc", "VR_proc_proc"),
    "exit": _op(0, 0, _R._ev_exit),
    "pipe": _op(1, 1, _R._ev_pipe, "TR_proc_proc"),
    "shmat": _op(1, 1, _R._ev_shmat, "TR_proc_proc"),
    "msgrcv": _op(1, 1, _R._ev_msgrcv, "TR_proc_proc"),
    "mkfifo": _op(1, 1, _R._ev_make_node, "TR_proc_proc", "VR_dir_dir", "PR_inte"),
    "mknod": _op(2, 2, _R._ev_make_node, "TR_proc_proc", "VR_dir_dir", "PR_inte"),
    "mkdir": _op(1, 1, _R._ev_make_node, "PR_inte", "VR_dir_dir"),
    "open_read": _op(1, 1, _R._ev_open_read, "PR_conf", "VR_file_proc", "TR_proc_proc"),
    "open_write": _op(1, 1, _R._ev_open_write,
                      "PR_inte", "TR_proc_exe", "VR_proc_file", "TR_proc_proc"),
    "create": _op(2, 2, _R._ev_create, "PR_inte", "TR_proc_exe", "VR_proc_file", "VR_dir_dir"),
    "chmod": _op(2, 2, _R._ev_chmod, "PR_inte", "TR_proc_exe"),
    "fchmod": _op(2, 2, _R._ev_chmod, "PR_inte", "TR_proc_exe"),
    "truncate": _op(1, 1, _R._ev_truncate, "PR_inte"),
    "chown": _op(2, 2, _R._ev_chown, "PR_inte"),
    "unlink": _op(1, 1, _R._ev_unlink, "PR_inte"),
    "rmdir": _op(1, 1, _R._ev_rmdir, "PR_inte"),
    "rename": _op(2, 2, _R._ev_rename, "PR_inte"),
    "execve": _op(1, 1, _R._ev_execve, "TR_exe_proc", "VR_file_proc"),
    "mmap_exec": _op(1, 1, _R._ev_mmap_exec, "TR_exe_proc"),
    "mount": _op(0, 1, _R._ev_privileged, "PR_inte"),
    "umount": _op(0, 1, _R._ev_privileged, "PR_inte"),
    "setrlimit": _op(0, 0, _R._ev_privileged, "PR_inte"),
    "reboot": _op(0, 0, _R._ev_privileged, "PR_inte"),
    "swapoff": _op(0, 0, _R._ev_privileged, "PR_inte"),
    "create_module": _op(0, 1, _R._ev_privileged, "PR_inte"),
    "delete_module": _op(0, 1, _R._ev_privileged, "PR_inte"),
    "setuid": _op(1, 1, _R._ev_set_id, "PR_inte"),
    "setgid": _op(1, 1, _R._ev_set_id, "PR_inte"),
    "setfsuid": _op(1, 1, _R._ev_set_id, "PR_inte"),
    "kill": _op(1, 1, _R._ev_kill, "PR_inte"),
    "ptrace": _op(1, 1, _R._ev_ptrace, "PR_conf"),
    "socket_open": _op(4, 4, _R._ev_socket_open, "TR_sock_proc"),
    "sock_send": _op(2, 3, _R._ev_sock_io, "PR_avai", "TR_proc_proc"),
    "sock_recv": _op(2, 3, _R._ev_sock_io, "PR_avai", "TR_proc_proc"),
    "brk_alloc": _op(1, 1, _R._ev_brk_alloc, "PR_avai"),
    "disk_alloc": _op(1, 1, _R._ev_disk_alloc, "PR_avai"),
    "sched_tick": _op(0, 0, _R._ev_sched_tick, "PR_avai"),
    "set_stbac_attr": _op(3, 3, _R._ev_set_stbac_attr, "PR_inte"),
    "get_stbac_attr": _op(1, 1, _R._ev_get_stbac_attr, "PR_conf"),
}
