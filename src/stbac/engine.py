"""Trace replay: parse events, consult the guard, apply flag spreads, audit.

One event per line, comma-separated: ``tick,pid,op,arg1,...`` with ``#``
comments.  Ticks are abstract and non-decreasing.  Each event produces
exactly one audit record; a denied event changes nothing but the clock and
the audit log.  Replay is a pure function of its inputs: identical trace,
boot config, trust list and copy map give bit-identical audit output.

Audit line shape (one per event):

    <4>{tick},{pid}:{exe},{object},{op},{param},{RESULT}

where RESULT is ALLOW, ALLOW_REDIR(path) or DENY(rule).  Object is the
primary operand: a path, ``pid:N``, ``sock:N``, a resource kind, or ``-``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import taint, vital
from .guard import PartialCopyMap, match_trust, pr_avai, pr_conf, pr_inte
from .model import (
    FLAG_NAMES,
    Flag,
    ResourceExhausted,
    ResourceKind,
    StbacError,
    TaintMutation,
    TaintRule,
    TraceError,
    allow,
    flag_bits,
    format_flags,
    parse_flag,
    proc_ref,
)
from .world import World, parent_of, set_flag as world_set_flag, get_flag as world_get_flag

# Expected argument count per operation (min, max).
ARITY = {
    "fork": (1, 1), "vfork": (1, 1), "clone": (1, 1),
    "pipe": (1, 1), "shmat": (1, 1), "msgrcv": (1, 1),
    "mkfifo": (1, 1), "mknod": (2, 2),
    "open_read": (1, 1), "open_write": (1, 1), "create": (2, 2),
    "chmod": (2, 2), "fchmod": (2, 2),
    "execve": (1, 1), "mmap_exec": (1, 1),
    "mkdir": (1, 1), "truncate": (1, 1), "chown": (2, 2),
    "rmdir": (1, 1), "rename": (2, 2), "unlink": (1, 1),
    "mount": (0, 1), "umount": (0, 1),
    "setrlimit": (0, 0), "reboot": (0, 0), "swapoff": (0, 0),
    "create_module": (0, 1), "delete_module": (0, 1),
    "setuid": (1, 1), "setgid": (1, 1), "setfsuid": (1, 1),
    "kill": (1, 1), "ptrace": (1, 1),
    "socket_open": (4, 4), "sock_send": (2, 3), "sock_recv": (2, 3),
    "brk_alloc": (1, 1), "sched_tick": (0, 0), "disk_alloc": (1, 1),
    "set_stbac_attr": (3, 3), "get_stbac_attr": (1, 1),
    "exit": (0, 0),
}

# Which rule families each operation is wired to.  Mirrors the syscall
# hook map of the kernel design; the bookkeeping op "exit" hooks nothing.
RULE_FAMILIES = {
    "fork": frozenset({"TR_proc_proc", "VR_proc_proc"}),
    "vfork": frozenset({"TR_proc_proc", "VR_proc_proc"}),
    "clone": frozenset({"TR_proc_proc", "VR_proc_proc"}),
    "pipe": frozenset({"TR_proc_proc"}),
    "shmat": frozenset({"TR_proc_proc"}),
    "msgrcv": frozenset({"TR_proc_proc"}),
    "mkfifo": frozenset({"TR_proc_proc", "VR_dir_dir", "PR_inte"}),
    "mknod": frozenset({"TR_proc_proc", "VR_dir_dir", "PR_inte"}),
    "open_read": frozenset({"PR_conf", "VR_file_proc", "TR_proc_proc"}),
    "open_write": frozenset({"PR_inte", "TR_proc_exe", "VR_proc_file", "TR_proc_proc"}),
    "create": frozenset({"PR_inte", "TR_proc_exe", "VR_proc_file", "VR_dir_dir"}),
    "chmod": frozenset({"PR_inte", "TR_proc_exe"}),
    "fchmod": frozenset({"PR_inte", "TR_proc_exe"}),
    "execve": frozenset({"TR_exe_proc", "VR_file_proc"}),
    "mmap_exec": frozenset({"TR_exe_proc"}),
    "mkdir": frozenset({"PR_inte", "VR_dir_dir"}),
    "truncate": frozenset({"PR_inte"}),
    "chown": frozenset({"PR_inte"}),
    "rmdir": frozenset({"PR_inte"}),
    "rename": frozenset({"PR_inte"}),
    "unlink": frozenset({"PR_inte"}),
    "mount": frozenset({"PR_inte"}),
    "umount": frozenset({"PR_inte"}),
    "setrlimit": frozenset({"PR_inte"}),
    "reboot": frozenset({"PR_inte"}),
    "swapoff": frozenset({"PR_inte"}),
    "create_module": frozenset({"PR_inte"}),
    "delete_module": frozenset({"PR_inte"}),
    "setuid": frozenset({"PR_inte"}),
    "setgid": frozenset({"PR_inte"}),
    "setfsuid": frozenset({"PR_inte"}),
    "kill": frozenset({"PR_inte"}),
    "ptrace": frozenset({"PR_conf"}),
    "socket_open": frozenset({"TR_sock_proc"}),
    "sock_send": frozenset({"PR_avai", "TR_proc_proc"}),
    "sock_recv": frozenset({"PR_avai", "TR_proc_proc"}),
    "brk_alloc": frozenset({"PR_avai"}),
    "sched_tick": frozenset({"PR_avai"}),
    "disk_alloc": frozenset({"PR_avai"}),
    "set_stbac_attr": frozenset({"PR_inte"}),
    "get_stbac_attr": frozenset({"PR_conf"}),
    "exit": frozenset(),
}


@dataclass(frozen=True)
class Event:
    tick: int
    pid: int
    op: str
    args: tuple
    line: int = 0


def parse_trace(text: str) -> list[Event]:
    """Parse a trace file; the first malformed line aborts with its number."""
    events = []
    last_tick = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 3:
            raise TraceError(f"expected tick,pid,op[,...], got {line!r}", line_no)
        try:
            tick = int(parts[0])
            pid = int(parts[1])
        except ValueError:
            raise TraceError(f"tick and pid must be integers: {line!r}", line_no) from None
        if tick < 0:
            raise TraceError(f"negative tick {tick}", line_no)
        if last_tick is not None and tick < last_tick:
            raise TraceError(f"tick {tick} decreases (previous {last_tick})", line_no)
        last_tick = tick
        op = parts[2]
        if op not in ARITY:
            raise TraceError(f"unknown operation {op!r}", line_no)
        args = tuple(parts[3:])
        lo, hi = ARITY[op]
        if not lo <= len(args) <= hi:
            raise TraceError(
                f"{op} takes {lo}..{hi} argument(s), got {len(args)}", line_no)
        events.append(Event(tick, pid, op, args, line_no))
    return events


@dataclass
class FlagChange:
    """One flag bit flipping on an entity, as caused by one event."""

    entity: tuple        # ("proc", pid) or ("file", path at change time)
    flag: Flag
    on: bool
    rule: str


@dataclass
class AuditRecord:
    tick: int
    pid: int
    exe: str
    obj: str
    op: str
    param: str
    result: str
    flag_changes: list = field(default_factory=list)

    def line(self) -> str:
        return (f"<4>{self.tick},{self.pid}:{self.exe},{self.obj},"
                f"{self.op},{self.param},{self.result}")

    @property
    def denied(self) -> bool:
        return self.result.startswith("DENY")


@dataclass
class GraphNode:
    key: tuple
    label: str
    flags_ever: Flag = Flag(0)


@dataclass
class DepGraph:
    """Cause/effect record of flag spreads plus denial markers."""

    nodes: dict = field(default_factory=dict)     # key -> GraphNode
    edges: list = field(default_factory=list)     # (cause key, effect key, rule, tick)
    denials: list = field(default_factory=list)   # (subject key, object key, rule, tick)

    def touch(self, key: tuple, label: str) -> GraphNode:
        node = self.nodes.get(key)
        if node is None:
            node = GraphNode(key, label)
            self.nodes[key] = node
        else:
            node.label = label
        return node


def export_graph(graph: DepGraph) -> str:
    """Deterministic DOT rendering: tainted nodes carry taint=1, vital nodes
    vital="conf"/"inte", leak carriers leak=1; denial edges are dashed."""
    out = ["digraph replay {"]
    for key in sorted(graph.nodes, key=_key_order):
        node = graph.nodes[key]
        attrs = [f'label="{node.label}"']
        if Flag.TAINT in node.flags_ever:
            attrs.append("taint=1")
        vital_bits = [FLAG_NAMES[f] for f in (Flag.CONF, Flag.INTE)
                      if f in node.flags_ever]
        if vital_bits:
            attrs.append(f'vital="{",".join(vital_bits)}"')
        if Flag.LEAK in node.flags_ever:
            attrs.append("leak=1")
        out.append(f'  "{_key_id(key)}" [{", ".join(attrs)}];')
    for cause, effect, rule, tick in graph.edges:
        out.append(f'  "{_key_id(cause)}" -> "{_key_id(effect)}"'
                   f' [label="{rule}@{tick}"];')
    for subject, obj, rule, tick in graph.denials:
        out.append(f'  "{_key_id(subject)}" -> "{_key_id(obj)}"'
                   f' [label="{rule}@{tick}", style=dashed];')
    out.append("}")
    return "\n".join(out) + "\n"


def _key_id(key: tuple) -> str:
    return f"{key[0]}:{key[1]}"


def _key_order(key: tuple):
    return (key[0], str(key[1]))


@dataclass
class Policy:
    """Replay-scoped configuration: trusted endpoints and partial copies."""

    trust: list = field(default_factory=list)
    pcopy: PartialCopyMap = field(default_factory=PartialCopyMap)


@dataclass
class ReplayResult:
    world: World
    records: list
    graph: DepGraph
    tainted_after: list | None = None   # per-event frozensets when tracked

    def audit_text(self) -> str:
        return "\n".join(r.line() for r in self.records) + ("\n" if self.records else "")

    def denial_records(self) -> list:
        return [r for r in self.records if r.denied]


def tainted_snapshot(world: World) -> frozenset:
    """Live tainted entities, files keyed by their current path."""
    out = set()
    for pid, proc in world.processes.items():
        if proc.alive and Flag.TAINT in proc.flags:
            out.add(("proc", pid))
    for node in world.fs.values():
        if Flag.TAINT in node.flags:
            out.add(("file", node.path))
    return frozenset(out)


def apply_event(world: World, event: Event, policy: Policy,
                graph: DepGraph | None = None) -> AuditRecord:
    """Run one event through guard and rules; mutate the world on allow."""
    return _Replayer(world, policy, graph).step(event)


def replay(world: World, events, policy: Policy | None = None,
           track_taint: bool = False) -> ReplayResult:
    """Replay events in order.  With track_taint, tainted_after[i] is
    tainted_snapshot(world) after event i; the snapshot is rebuilt only
    after events that can change it; otherwise the previous frozenset
    is reused."""
    policy = policy or Policy()
    graph = DepGraph()
    replayer = _Replayer(world, policy, graph)
    records = []
    tainted_after = [] if track_taint else None
    tainted = tainted_snapshot(world) if track_taint else None
    for event in events:
        record = replayer.step(event)
        records.append(record)
        if track_taint:
            if _may_change_taint(record, tainted):
                tainted = tainted_snapshot(world)
            tainted_after.append(tainted)
    return ReplayResult(world, records, graph, tainted_after)


# Ops that remove or move nodes: allowed, they can drop a tainted file or
# change the path it is keyed by.
_STRUCTURAL_OPS = frozenset({"unlink", "rmdir", "rename"})


def _may_change_taint(record: AuditRecord, tainted: frozenset) -> bool:
    """Whether the event behind record may have changed the tainted
    snapshot, given the snapshot taken before it.  Taint bits flip only
    through FlagChanges; apart from those, a tainted process can exit and
    a tainted file can be removed or moved."""
    if any(change.flag == Flag.TAINT for change in record.flag_changes):
        return True
    if record.op == "exit":
        return ("proc", record.pid) in tainted
    return bool(tainted) and record.op in _STRUCTURAL_OPS and not record.denied


class _Replayer:
    """Per-replay dispatch state; the world carries everything durable."""

    def __init__(self, world: World, policy: Policy, graph: DepGraph | None):
        self.world = world
        self.policy = policy
        self.graph = graph
        self.copy_paths = policy.pcopy.copy_paths()
        self._direct_changes = []

    # -- main step ---------------------------------------------------------

    def step(self, ev: Event) -> AuditRecord:
        world = self.world
        if ev.tick < world.clock:
            raise TraceError(f"tick {ev.tick} is behind the clock {world.clock}", ev.line)
        world.clock = ev.tick
        try:
            proc = world.live_process(ev.pid)
            handler = getattr(self, "_ev_" + ev.op)
            decision, obj, param = handler(proc, ev)
        except TraceError:
            raise
        except ResourceExhausted as exc:
            raise TraceError(f"resource exhausted: {exc}", ev.line) from exc
        except StbacError as exc:
            raise TraceError(str(exc), ev.line) from exc
        changes = []
        for mutation in decision.mutations:
            changes.extend(self._apply_mutation(mutation, ev.tick))
        changes.extend(self._direct_changes)
        self._direct_changes = []
        result = decision.result_text()
        record = AuditRecord(ev.tick, ev.pid, proc.exe_path, obj, ev.op, param,
                             result, changes)
        world.audit.append(record)
        if result.startswith("DENY") and self.graph is not None:
            self._mark_denial(proc, obj, decision.rule.value, ev.tick)
        return record

    # -- mutation plumbing ---------------------------------------------------

    def _apply_mutation(self, mutation, tick: int) -> list:
        world = self.world
        entity = world.resolve(mutation.target)
        before = entity.flags
        if isinstance(mutation, TaintMutation):
            after = before | Flag.TAINT
        else:
            after = (before & ~mutation.flags_cleared) | mutation.flags_added
        if after == before:
            return []
        entity.flags = after
        rule = mutation.rule.value
        label = self._entity_label(mutation.target)
        changes = []
        for flag in flag_bits(before ^ after):
            changes.append(FlagChange(label, flag, flag in after, rule))
        if self.graph is not None:
            target_node = self.graph.touch(mutation.target,
                                           self._display_label(mutation.target))
            target_node.flags_ever |= after
            cause_node = self.graph.touch(mutation.cause,
                                          self._display_label(mutation.cause))
            cause_node.flags_ever |= world.flags_of(mutation.cause)
            self.graph.edges.append((mutation.cause, mutation.target, rule, tick))
        return changes

    def _entity_label(self, ref) -> tuple:
        kind, ident = ref
        if kind == "proc":
            return ("proc", ident)
        if kind == "file":
            return ("file", self.world.fs[ident].path)
        return (kind, ident)

    def _display_label(self, ref) -> str:
        kind, ident = ref
        if kind == "proc":
            return f"pid {ident} ({self.world.processes[ident].exe_path})"
        if kind == "file":
            return self.world.fs[ident].path
        if kind == "sock":
            sock = self.world.sockets[ident]
            return f"sock {ident} ({sock.remote[0]}:{sock.remote[1]})"
        return str(ident)

    def _mark_denial(self, proc, obj: str, rule: str, tick: int):
        subject = proc_ref(proc.pid)
        self.graph.touch(subject, self._display_label(subject))
        object_key = ("op", obj)
        node_id = self.world.lookup(obj) if obj.startswith("/") else None
        if node_id is not None:
            object_key = ("file", node_id)
        elif obj.startswith("pid:"):
            object_key = ("proc", int(obj[4:]))
        if object_key not in self.graph.nodes:
            label = obj if object_key[0] == "op" else self._display_label(object_key)
            self.graph.touch(object_key, label)
        self.graph.denials.append((subject, object_key, rule, tick))

    def _note_direct_change(self, changes):
        self._direct_changes = list(changes)

    # -- argument helpers ----------------------------------------------------

    def _int_arg(self, ev: Event, index: int, what: str) -> int:
        try:
            return int(ev.args[index])
        except ValueError:
            raise TraceError(f"{what} must be an integer, got {ev.args[index]!r}",
                             ev.line) from None

    def _bit_arg(self, ev: Event, index: int, what: str) -> bool:
        token = ev.args[index]
        if token not in ("0", "1"):
            raise TraceError(f"{what} must be 0 or 1, got {token!r}", ev.line)
        return token == "1"

    def _path_arg(self, ev: Event, index: int) -> str:
        path = ev.args[index]
        if not path.startswith("/") or (path != "/" and path.endswith("/")):
            raise TraceError(f"bad path {path!r}", ev.line)
        return path

    def _node_arg(self, ev: Event, index: int):
        path = self._path_arg(ev, index)
        node_id = self.world.lookup(path)
        if node_id is None:
            raise TraceError(f"no such path {path}", ev.line)
        return self.world.fs[node_id]

    def _redirect_target(self, decision, default_node, ev: Event):
        if decision.redirect_path is None:
            return default_node
        node_id = self.world.lookup(decision.redirect_path)
        if node_id is None:
            raise TraceError(f"partial copy {decision.redirect_path} missing", ev.line)
        return self.world.fs[node_id]

    # -- process lifecycle ---------------------------------------------------

    def _ev_fork(self, proc, ev):
        child_pid = self._int_arg(ev, 0, "child pid")
        child = self.world.spawn(proc, child_pid)
        decision = allow(taint.tr_proc_proc(self.world, proc, child, "fork_child"))
        mutation = vital.vr_proc_proc(self.world, proc, child)
        if mutation:
            decision.mutations.append(mutation)
        return decision, f"pid:{child_pid}", "-"

    _ev_vfork = _ev_fork
    _ev_clone = _ev_fork

    def _ev_exit(self, proc, ev):
        self.world.ledger.release_all(proc)
        proc.alive = False
        return allow(), "-", "-"

    # -- IPC -------------------------------------------------------------------

    def _ev_pipe(self, proc, ev):
        reader = self.world.live_process(self._int_arg(ev, 0, "reader pid"))
        decision = allow(taint.tr_proc_proc(self.world, proc, reader, "pipe_msg"))
        return decision, f"pid:{reader.pid}", "-"

    def _ev_shmat(self, proc, ev):
        peer = self.world.live_process(self._int_arg(ev, 0, "peer pid"))
        decision = allow(taint.tr_proc_proc(self.world, proc, peer, "shm_attach"))
        return decision, f"pid:{peer.pid}", "-"

    def _ev_msgrcv(self, proc, ev):
        sender = self.world.live_process(self._int_arg(ev, 0, "sender pid"))
        decision = allow(taint.tr_proc_proc(self.world, sender, proc, "msgq_recv"))
        return decision, f"pid:{sender.pid}", "-"

    # -- filesystem --------------------------------------------------------------

    def _ev_open_read(self, proc, ev):
        node = self._node_arg(ev, 0)
        op_kind = "read_dir" if node.kind == "dir" else "read_file"
        decision = pr_conf(self.world, proc, node, op_kind, self.policy.pcopy)
        if decision.allowed:
            target = self._redirect_target(decision, node, ev)
            if target.kind == "file":
                mutation = vital.vr_file_proc(self.world, proc, target, "read")
                if mutation:
                    decision.mutations.append(mutation)
                decision.mutations.extend(self._drain_fifo(proc, target))
        return decision, node.path, "-"

    def _ev_open_write(self, proc, ev):
        node = self._node_arg(ev, 0)
        if node.kind == "dir":
            raise TraceError(f"cannot write a directory: {node.path}", ev.line)
        decision = pr_inte(self.world, proc, node, "write", self.policy.pcopy)
        if decision.allowed:
            target = self._redirect_target(decision, node, ev)
            if target.kind == "file":
                self._write_mutations(decision, proc, target, "write")
                if target.node_id in self.world.fifos:
                    queue = self.world.fifo_queues.setdefault(target.node_id, [])
                    queue.append((proc.pid, Flag.TAINT in proc.flags))
        return decision, node.path, "-"

    def _ev_create(self, proc, ev):
        path = self._fresh_path(ev, 0)
        exec_bits = self._bit_arg(ev, 1, "exec bit")
        parent = self._parent_dir(path, ev)
        decision = pr_inte(self.world, proc, parent, "create_in_dir")
        if decision.allowed:
            node = self.world.add_node(path, "file", exec_bits)
            self._creation_mutations(decision, proc, parent, node)
            self._write_mutations(decision, proc, node, "create")
        return decision, path, f"exec={int(exec_bits)}"

    def _ev_mkdir(self, proc, ev):
        path = self._fresh_path(ev, 0)
        parent = self._parent_dir(path, ev)
        decision = pr_inte(self.world, proc, parent, "create_in_dir")
        if decision.allowed:
            node = self.world.add_node(path, "dir")
            self._creation_mutations(decision, proc, parent, node)
        return decision, path, "-"

    def _ev_mkfifo(self, proc, ev):
        return self._make_node(proc, ev, self._fresh_path(ev, 0), "fifo")

    def _ev_mknod(self, proc, ev):
        kind = ev.args[1]
        if kind not in ("file", "device", "fifo"):
            raise TraceError(f"mknod kind must be file|device|fifo, got {kind!r}",
                             ev.line)
        return self._make_node(proc, ev, self._fresh_path(ev, 0), kind)

    def _make_node(self, proc, ev, path, kind):
        parent = self._parent_dir(path, ev)
        decision = pr_inte(self.world, proc, parent, "create_in_dir")
        if decision.allowed:
            node = self.world.add_node(path, "file" if kind == "fifo" else kind)
            if kind == "fifo":
                self.world.fifos.add(node.node_id)
            self._creation_mutations(decision, proc, parent, node)
        return decision, path, kind

    def _ev_chmod(self, proc, ev):
        node = self._node_arg(ev, 0)
        exec_bits = self._bit_arg(ev, 1, "exec bit")
        decision = pr_inte(self.world, proc, node, "chmod", self.policy.pcopy)
        if decision.allowed:
            target = self._redirect_target(decision, node, ev)
            if target.kind == "file":
                became_set = exec_bits and not target.exec_bits
                target.exec_bits = exec_bits
                if became_set:
                    mutation = taint.tr_proc_exe(self.world, proc, target,
                                                 "chmod_set_exec")
                    if mutation:
                        decision.mutations.append(mutation)
        return decision, node.path, f"exec={int(exec_bits)}"

    _ev_fchmod = _ev_chmod

    def _ev_truncate(self, proc, ev):
        node = self._node_arg(ev, 0)
        if node.kind == "dir":
            raise TraceError(f"cannot truncate a directory: {node.path}", ev.line)
        decision = pr_inte(self.world, proc, node, "truncate", self.policy.pcopy)
        return decision, node.path, "-"

    def _ev_chown(self, proc, ev):
        node = self._node_arg(ev, 0)
        uid = self._int_arg(ev, 1, "uid")
        decision = pr_inte(self.world, proc, node, "chown")
        return decision, node.path, f"uid={uid}"

    def _ev_unlink(self, proc, ev):
        node = self._node_arg(ev, 0)
        if node.kind == "dir":
            raise TraceError(f"unlink of a directory: {node.path}", ev.line)
        decision = pr_inte(self.world, proc, node, "delete")
        if decision.allowed:
            self.world.remove_node(node)
        return decision, node.path, "-"

    def _ev_rmdir(self, proc, ev):
        node = self._node_arg(ev, 0)
        if node.kind != "dir":
            raise TraceError(f"rmdir of a non-directory: {node.path}", ev.line)
        if node.parent is None:
            raise TraceError("cannot remove /", ev.line)
        if self.world.children(node):
            raise TraceError(f"directory not empty: {node.path}", ev.line)
        decision = pr_inte(self.world, proc, node, "delete")
        if decision.allowed:
            self.world.remove_node(node)
        return decision, node.path, "-"

    def _ev_rename(self, proc, ev):
        src = self._node_arg(ev, 0)
        if src.parent is None:
            raise TraceError("cannot rename /", ev.line)
        dst_path = self._path_arg(ev, 1)
        if dst_path == src.path or dst_path.startswith(src.path + "/"):
            raise TraceError(f"cannot rename {src.path} into itself", ev.line)
        dst_id = self.world.lookup(dst_path)
        dst_parent = self._parent_dir(dst_path, ev)
        decision = pr_inte(self.world, proc, src, "rename")
        if decision.allowed and dst_id is not None:
            decision = pr_inte(self.world, proc, self.world.fs[dst_id], "delete")
        if decision.allowed:
            decision = pr_inte(self.world, proc, dst_parent, "rename_into")
        if decision.allowed:
            if dst_id is not None:
                overwritten = self.world.fs[dst_id]
                if overwritten.kind == "dir":
                    raise TraceError(f"rename target is a directory: {dst_path}",
                                     ev.line)
                self.world.remove_node(overwritten)
            self.world.repath(src, dst_path)
        return decision, ev.args[0], dst_path

    # -- exec and loading ----------------------------------------------------------

    def _ev_execve(self, proc, ev):
        node = self._node_arg(ev, 0)
        if node.kind != "file":
            raise TraceError(f"cannot exec {node.kind} {node.path}", ev.line)
        if not node.exec_bits:
            raise TraceError(f"{node.path} is not executable", ev.line)
        decision = allow()
        mutation = taint.tr_exe_proc(self.world, proc, node, "execve")
        if mutation:
            decision.mutations.append(mutation)
        mutation = vital.vr_file_proc(self.world, proc, node, "execve")
        if mutation:
            decision.mutations.append(mutation)
        proc.exe = node.node_id
        proc.exe_path = node.path
        return decision, node.path, "-"

    def _ev_mmap_exec(self, proc, ev):
        node = self._node_arg(ev, 0)
        decision = allow()
        mutation = taint.tr_exe_proc(self.world, proc, node, "mmap_exec")
        if mutation:
            decision.mutations.append(mutation)
        return decision, node.path, "-"

    # -- privileged operations --------------------------------------------------

    def _ev_mount(self, proc, ev):
        return self._privileged(proc, ev, "mount")

    def _ev_umount(self, proc, ev):
        return self._privileged(proc, ev, "umount")

    def _ev_setrlimit(self, proc, ev):
        return self._privileged(proc, ev, "setrlimit")

    def _ev_reboot(self, proc, ev):
        return self._privileged(proc, ev, "reboot")

    def _ev_swapoff(self, proc, ev):
        return self._privileged(proc, ev, "swapoff")

    def _ev_create_module(self, proc, ev):
        return self._privileged(proc, ev, "create_module")

    def _ev_delete_module(self, proc, ev):
        return self._privileged(proc, ev, "delete_module")

    def _privileged(self, proc, ev, op_kind):
        decision = pr_inte(self.world, proc, None, op_kind)
        obj = ev.args[0] if ev.args else "-"
        return decision, obj, "-"

    def _ev_setuid(self, proc, ev):
        uid = self._int_arg(ev, 0, "uid")
        decision = pr_inte(self.world, proc, None, "setuid_family")
        if decision.allowed:
            proc.uid = uid
        return decision, "-", f"uid={uid}"

    def _ev_setgid(self, proc, ev):
        gid = self._int_arg(ev, 0, "gid")
        decision = pr_inte(self.world, proc, None, "setuid_family")
        return decision, "-", f"gid={gid}"

    def _ev_setfsuid(self, proc, ev):
        uid = self._int_arg(ev, 0, "uid")
        decision = pr_inte(self.world, proc, None, "setuid_family")
        return decision, "-", f"uid={uid}"

    def _ev_kill(self, proc, ev):
        target = self.world.live_process(self._int_arg(ev, 0, "target pid"))
        decision = pr_inte(self.world, proc, target, "kill")
        # Signal delivery itself is not modeled; a dying target shows up
        # in the trace as its own exit event.
        return decision, f"pid:{target.pid}", "-"

    def _ev_ptrace(self, proc, ev):
        target = self.world.live_process(self._int_arg(ev, 0, "target pid"))
        decision = pr_conf(self.world, proc, target, "ptrace")
        return decision, f"pid:{target.pid}", "-"

    # -- network ---------------------------------------------------------------

    def _ev_socket_open(self, proc, ev):
        sock_id = self._int_arg(ev, 0, "socket id")
        local = self._endpoint_arg(ev, 1)
        remote = self._endpoint_arg(ev, 2)
        proto = ev.args[3]
        if proto not in ("tcp", "udp"):
            raise TraceError(f"bad protocol {proto!r}", ev.line)
        trusted = match_trust(self.policy.trust, proc.exe_path, local, remote,
                              proto, ev.tick)
        sock = self.world.open_socket(sock_id, proc.pid, local, remote, proto,
                                      trusted)
        decision = allow()
        mutation = taint.tr_sock_proc(self.world, proc, sock)
        if mutation:
            decision.mutations.append(mutation)
        param = (f"{local[0]}:{local[1]}->{remote[0]}:{remote[1]}/{proto}")
        return decision, f"sock:{sock_id}", param

    def _endpoint_arg(self, ev: Event, index: int) -> tuple:
        token = ev.args[index]
        if ":" not in token:
            raise TraceError(f"endpoint must be ip:port, got {token!r}", ev.line)
        ip, port = token.rsplit(":", 1)
        if not port.isdigit():
            raise TraceError(f"bad port {port!r}", ev.line)
        return (ip, int(port))

    def _ev_sock_send(self, proc, ev):
        return self._sock_io(proc, ev, sending=True)

    def _ev_sock_recv(self, proc, ev):
        return self._sock_io(proc, ev, sending=False)

    def _sock_io(self, proc, ev, sending: bool):
        sock = self.world.socket(self._int_arg(ev, 0, "socket id"))
        if sock.owner != proc.pid:
            raise TraceError(f"socket {sock.sock_id} belongs to pid {sock.owner}",
                             ev.line)
        amount = self._int_arg(ev, 1, "byte count")
        if amount <= 0:
            raise TraceError(f"byte count must be positive, got {amount}", ev.line)
        peer = None
        if len(ev.args) == 3:
            peer = self.world.live_process(self._int_arg(ev, 2, "peer pid"))
        decision = pr_avai(self.world, proc, ResourceKind.NET_BYTES, amount)
        arrow = "->" if sending else "<-"
        param = str(amount) if peer is None else f"{amount}{arrow}pid:{peer.pid}"
        if decision.allowed:
            self.world.ledger.charge(proc, ResourceKind.NET_BYTES, amount)
            if peer is not None:
                source, sink = (proc, peer) if sending else (peer, proc)
                decision.mutations.extend(
                    taint.tr_proc_proc(self.world, source, sink, "local_socket_msg"))
        return decision, f"sock:{sock.sock_id}", param

    # -- resource allocation ------------------------------------------------------

    def _ev_brk_alloc(self, proc, ev):
        amount = self._int_arg(ev, 0, "byte count")
        return self._allocate(proc, ev, ResourceKind.MEMORY_BYTES, amount)

    def _ev_disk_alloc(self, proc, ev):
        amount = self._int_arg(ev, 0, "block count")
        return self._allocate(proc, ev, ResourceKind.DISK_BLOCKS, amount)

    def _ev_sched_tick(self, proc, ev):
        return self._allocate(proc, ev, ResourceKind.CPU_TICKS, 1)

    def _allocate(self, proc, ev, kind, amount):
        if amount <= 0:
            raise TraceError(f"allocation must be positive, got {amount}", ev.line)
        decision = pr_avai(self.world, proc, kind, amount)
        if decision.allowed:
            self.world.ledger.charge(proc, kind, amount)
        return decision, kind.value, str(amount)

    # -- flag administration --------------------------------------------------------

    def _ev_set_stbac_attr(self, proc, ev):
        ref, obj = self._attr_target(ev)
        flag = self._flag_arg(ev, 1)
        on = self._bit_arg(ev, 2, "flag value")
        before = self.world.flags_of(ref)
        decision = world_set_flag(self.world, ref, flag, on, actor=proc.pid)
        after = self.world.flags_of(ref)
        if after != before:
            label = self._entity_label(ref) if ref[0] != "res" else ("res", ref[1].value)
            change = FlagChange(label, flag, on, "set_stbac_attr")
            self._note_direct_change([change])
            if self.graph is not None and ref[0] != "res":
                node = self.graph.touch(ref, self._display_label(ref))
                node.flags_ever |= after
        return decision, obj, f"{FLAG_NAMES[flag]}={int(on)}"

    def _ev_get_stbac_attr(self, proc, ev):
        ref, obj = self._attr_target(ev)
        outcome = world_get_flag(self.world, ref, actor=proc.pid)
        if isinstance(outcome, Flag):
            return allow(), obj, f"flags={format_flags(outcome)}"
        return outcome, obj, "-"

    def _attr_target(self, ev: Event):
        token = ev.args[0]
        if token.startswith("pid:"):
            pid = self._int_arg_from(token[4:], "pid", ev)
            self.world.process(pid)
            return proc_ref(pid), token
        if token.startswith("res:"):
            name = token[4:]
            try:
                kind = ResourceKind(name)
            except ValueError:
                raise TraceError(f"unknown resource kind {name!r}", ev.line) from None
            return ("res", kind), token
        path = self._path_arg_from(token, ev)
        node_id = self.world.lookup(path)
        if node_id is None:
            raise TraceError(f"no such path {path}", ev.line)
        return ("file", node_id), path

    def _flag_arg(self, ev: Event, index: int) -> Flag:
        try:
            return parse_flag(ev.args[index])
        except StbacError as exc:
            raise TraceError(str(exc), ev.line) from None

    def _int_arg_from(self, token: str, what: str, ev: Event) -> int:
        try:
            return int(token)
        except ValueError:
            raise TraceError(f"{what} must be an integer, got {token!r}",
                             ev.line) from None

    def _path_arg_from(self, token: str, ev: Event) -> str:
        if not token.startswith("/") or (token != "/" and token.endswith("/")):
            raise TraceError(f"bad path {token!r}", ev.line)
        return token

    # -- shared pieces -------------------------------------------------------------

    def _fresh_path(self, ev: Event, index: int) -> str:
        path = self._path_arg(ev, index)
        if self.world.lookup(path) is not None:
            raise TraceError(f"path exists: {path}", ev.line)
        return path

    def _parent_dir(self, path: str, ev: Event):
        parent_path = parent_of(path)
        parent_id = self.world.lookup(parent_path)
        if parent_id is None:
            raise TraceError(f"missing parent directory {parent_path}", ev.line)
        parent = self.world.fs[parent_id]
        if parent.kind != "dir":
            raise TraceError(f"parent is not a directory: {parent_path}", ev.line)
        return parent

    def _creation_mutations(self, decision, proc, parent, node):
        mutation = vital.vr_dir_dir(self.world, parent, node)
        if mutation:
            decision.mutations.append(mutation)

    def _write_mutations(self, decision, proc, node, action):
        mutation = taint.tr_proc_exe(self.world, proc, node, action)
        if mutation:
            decision.mutations.append(mutation)
        # Partial copies hold the non-secret subset by construction, so the
        # secrecy spread of a leak-capable writer stops at them.
        if node.path not in self.copy_paths:
            mutation = vital.vr_proc_file(self.world, proc, node, action)
            if mutation:
                decision.mutations.append(mutation)

    def _drain_fifo(self, proc, node) -> list:
        if node.node_id not in self.world.fifos:
            return []
        queue = self.world.fifo_queues.get(node.node_id)
        if not queue:
            return []
        mutations = []
        for writer_pid, tainted in queue:
            # The message carries the writer's taint as of write time; the
            # writer may be gone by now, so the mutation is built directly
            # rather than through the live-process IPC rule.
            if tainted:
                mutations.append(TaintMutation(proc_ref(proc.pid),
                                               TaintRule.PROC_PROC,
                                               proc_ref(writer_pid)))
        queue.clear()
        return mutations
