"""Simulated kernel state: processes, filesystem tree, sockets, resource ledger.

The world is the single mutable value a replay folds over.  Label bits live
inline on the entity records as int masks of model's TAINT, CONF, INTE,
AVAI and LEAK bits, written only by World.set_flags; resources carry theirs
in the ledger, keyed by the resource kind's name.  The TAINT bit is the
one record of taint: a live entity holding it is tainted, under its label
("proc", pid) for a process and ("file", current path) for a node.  Each
flip of that view is logged, in order, as (label, entered) in
taint_changes: a change of a stored TAINT bit, and the exit, removal or
rename of an entity holding TAINT (a rename's old label leaves, its new
one enters).  The log grows until its owner empties it; a replay empties
it at the start of each event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    AVAI,
    CONF,
    FLAG_NAMES,
    INTE,
    LEAK,
    NO_FLAGS,
    RESOURCE_KINDS,
    TAINT,
    ConfigError,
    StbacError,
    UnknownEntity,
    ascii_int,
    check_path,
    flag_bits,
    parse_flag,
    parse_resource,
)

INIT_PID = 1

# Fallbacks when the boot config names no cap / marks for a resource.
DEFAULT_CAP = 1_000_000
DEFAULT_HWM_SYS_PERCENT = 90


@dataclass(slots=True)
class Process:
    pid: int
    exe_path: str = "-"           # path snapshot taken at exec time, for audit
    flags: int = NO_FLAGS         # label mask
    alive: bool = True
    usage: dict = field(default_factory=dict)   # resource kind -> allocated amount


@dataclass(slots=True)
class FsNode:
    node_id: int
    path: str
    kind: str                     # "file" | "dir" | "device"
    exec_bits: bool = False
    flags: int = NO_FLAGS         # label mask
    parent: int | None = None     # None only for "/"


@dataclass
class Socket:
    sock_id: int
    owner: int
    remote: tuple                 # (ip, port), for the graph label
    trusted: bool                 # decided once, at open time


@dataclass
class ResourceLedger:
    """System-wide resource accounting plus the two high-water marks.

    hwm_st bounds what a single tainted process may hold; hwm_sys bounds
    the allocated percentage of the whole system once a tainted process
    asks for more.  Per-process holdings live on Process.usage; their sum
    must always equal allocated_sys.
    """

    caps: dict = field(default_factory=dict)          # kind -> system total
    allocated_sys: dict = field(                      # kind -> currently allocated
        default_factory=lambda: dict.fromkeys(RESOURCE_KINDS, 0))
    hwm_st: dict = field(default_factory=dict)        # kind -> absolute amount
    hwm_sys: dict = field(default_factory=dict)       # kind -> percent in (0, 100]
    flags: dict = field(                              # kind -> mask (AVAI bit only)
        default_factory=lambda: dict.fromkeys(RESOURCE_KINDS, NO_FLAGS))

    def charge(self, process: Process, kind: str, amount: int):
        process.usage[kind] = process.usage.get(kind, 0) + amount
        self.allocated_sys[kind] += amount

    def release_all(self, process: Process):
        for kind, amount in process.usage.items():
            self.allocated_sys[kind] -= amount
        process.usage = {}


@dataclass
class World:
    processes: dict = field(default_factory=dict)   # pid -> Process
    fs: dict = field(default_factory=dict)          # node id -> FsNode
    sockets: dict = field(default_factory=dict)     # sock id -> Socket
    ledger: ResourceLedger = field(default_factory=ResourceLedger)
    clock: int = 0

    taint_changes: list = field(default_factory=list)   # (label, entered) per taint flip
    path_index: dict = field(default_factory=dict)  # live path -> node id
    kids: dict = field(default_factory=dict)        # dir node id -> {child id: FsNode}
    # One entry per live fifo, made by mkfifo or mknod: node id -> the pid of
    # the first tainted writer of its unread messages, or None.  Later
    # writers are not kept: the reader that drains the fifo is tainted by
    # the first, and a second message could change nothing more.
    fifo_writers: dict = field(default_factory=dict)
    next_node_id: int = 1
    max_pid_seen: int = INIT_PID
    max_sock_seen: int = 0

    # -- structure ---------------------------------------------------------

    def lookup(self, path: str) -> int | None:
        """Node id of the live node at an absolute path, or None."""
        return self.path_index.get(path)

    def node_at(self, path: str) -> FsNode:
        node_id = self.lookup(path)
        if node_id is None:
            raise UnknownEntity(f"no such path {path}")
        return self.fs[node_id]

    def live_process(self, pid: int) -> Process:
        proc = self.processes.get(pid)
        if proc is None:
            raise UnknownEntity(f"no such pid {pid}")
        if not proc.alive:
            raise UnknownEntity(f"pid {pid} has exited")
        return proc

    def socket(self, sock_id: int) -> Socket:
        try:
            return self.sockets[sock_id]
        except KeyError:
            raise UnknownEntity(f"no such socket {sock_id}") from None

    def add_node(self, path: str, kind: str, exec_bits: bool,
                 parent_id: int | None) -> FsNode:
        """Insert a node at a free path straight under the node parent_id,
        which must be a directory (None only for "/").  The one inserter:
        callers check that the path is free and is an entry of parent_id."""
        kids = self.kids
        siblings = None
        if parent_id is not None:
            siblings = kids.get(parent_id)
            if siblings is None:
                raise StbacError(
                    f"parent is not a directory: {self.fs[parent_id].path}")
        node_id = self.next_node_id
        self.next_node_id = node_id + 1
        node = FsNode(node_id, path, kind, exec_bits, NO_FLAGS, parent_id)
        self.fs[node_id] = node
        self.path_index[path] = node_id
        if siblings is not None:
            siblings[node_id] = node
        if kind == "dir":
            kids[node_id] = {}
        return node

    def remove_node(self, node: FsNode):
        """Drop a node; directories must be empty, and "/" stays."""
        del self.path_index[node.path]
        del self.fs[node.node_id]
        del self.kids[node.parent][node.node_id]
        self.kids.pop(node.node_id, None)
        self.fifo_writers.pop(node.node_id, None)
        if node.flags & TAINT:
            self.taint_changes.append((("file", node.path), False))

    def children(self, node: FsNode) -> list:
        return list(self.kids.get(node.node_id, {}).values())

    def subtree(self, node: FsNode) -> list:
        """The node and all its descendants, parents before children."""
        out = [node]
        stack = [node]
        while stack:
            current = stack.pop()
            below = self.kids.get(current.node_id)
            if below:
                out.extend(below.values())
                stack.extend(below.values())
        return out

    def repath(self, node: FsNode, new_path: str):
        """Move a node (and its subtree) to a new absolute path, whose
        parent directory must exist outside that subtree."""
        old_prefix = node.path
        log = self.taint_changes
        for member in self.subtree(node):
            old_path = member.path
            del self.path_index[old_path]
            member.path = new_path + old_path[len(old_prefix):]
            self.path_index[member.path] = member.node_id
            if member.flags & TAINT:
                log.append((("file", old_path), False))
                log.append((("file", member.path), True))
        del self.kids[node.parent][node.node_id]
        node.parent = self.lookup(parent_of(new_path))
        self.kids[node.parent][node.node_id] = node

    def spawn(self, parent: Process, child_pid: int) -> Process:
        if child_pid <= self.max_pid_seen:
            raise StbacError(
                f"pid {child_pid} is not fresh (last seen {self.max_pid_seen})")
        self.max_pid_seen = child_pid
        child = Process(child_pid, exe_path=parent.exe_path)
        self.processes[child_pid] = child
        return child

    def exit(self, proc: Process):
        self.ledger.release_all(proc)
        proc.alive = False
        if proc.flags & TAINT:
            self.taint_changes.append((("proc", proc.pid), False))

    def open_socket(self, sock_id: int, owner: int, remote: tuple,
                    trusted: bool) -> Socket:
        if sock_id <= self.max_sock_seen:
            raise StbacError(
                f"socket id {sock_id} is not fresh (last seen {self.max_sock_seen})")
        self.max_sock_seen = sock_id
        sock = Socket(sock_id, owner, remote, trusted)
        self.sockets[sock_id] = sock
        return sock

    # -- label access ------------------------------------------------------

    def flags_of(self, ref: tuple) -> int:
        kind, ident = ref
        if kind == "proc":
            return self.processes[ident].flags
        if kind == "file":
            return self.fs[ident].flags
        if kind == "res":
            return self.ledger.flags[ident]
        return NO_FLAGS               # sockets carry no label

    def set_flags(self, ref: tuple, flags: int):
        """Store an entity's label mask, unguarded: the one writer of label
        bits, for replay mutations, boot marks and config edits alike.  A
        change of a process's or node's TAINT bit is logged as a flip."""
        kind, ident = ref
        if kind == "res":
            self.ledger.flags[ident] = flags
            return
        entity = self.processes[ident] if kind == "proc" else self.fs[ident]
        if (entity.flags ^ flags) & TAINT:
            self.taint_changes.append(
                (ref if kind == "proc" else ("file", entity.path), flags & TAINT != 0))
        entity.flags = flags


def parent_of(path: str) -> str:
    """Parent of an absolute path ('/' is its own parent)."""
    return path.rsplit("/", 1)[0] or "/"


# -- boot config --------------------------------------------------------------

@dataclass
class InitConfig:
    """Parsed boot configuration.

    Node lines apply in file order, and missing parent directories are
    created implicitly.  Flag lines apply after every node, so a flag line
    may come before or after the node line of its path.
    """

    nodes: list = field(default_factory=list)   # (path, kind, exec_bits, line)
    marks: list = field(default_factory=list)   # (flag bit, path, line), as parsed
    hwms: dict = field(default_factory=dict)    # kind -> (per-taint limit, sys percent)
    caps: dict = field(default_factory=dict)    # kind -> system total


def parse_init_config(text: str) -> InitConfig:
    """One pass over the lines.  str.split() alone tells a blank line (no
    fields) and a # comment (a first field starting with #) from a
    directive, so a line is stripped only to quote it in an error."""
    config = InitConfig()
    nodes = config.nodes
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        directive = fields[0]
        try:
            if directive == "node":
                # Fields are checked in the order their errors are reported;
                # check_path runs only to name the rule a bad path breaks.
                _, path, kind, exec_bit = fields
                if kind not in ("file", "dir", "device"):
                    raise ConfigError(f"bad node kind {kind!r}")
                if path != "/" and (path[0] != "/" or path[-1] == "/"
                                    or "," in path or "//" in path):
                    check_path(path)
                if exec_bit != "0" and exec_bit != "1":
                    raise ConfigError(f"expected 0 or 1, got {exec_bit!r}")
                nodes.append((path, kind, exec_bit == "1", line_no))
            elif directive[0] == "#":
                continue
            elif directive in ("conf", "inte", "leak"):
                _, path = fields
                config.marks.append((parse_flag(directive), check_path(path), line_no))
            elif directive == "hwm":
                _, kind_name, limit, percent = fields
                kind = parse_resource(kind_name)
                limit = ascii_int(limit)
                percent = ascii_int(percent)
                if limit < 0:
                    raise ConfigError("per-taint limit must be >= 0")
                if not 0 < percent <= 100:
                    raise ConfigError(f"system percentage {percent} outside (0,100]")
                config.hwms[kind] = (limit, percent)
            elif directive == "cap":
                _, kind_name, total = fields
                kind = parse_resource(kind_name)
                total = ascii_int(total)
                if total <= 0:
                    raise ConfigError("system total must be positive")
                config.caps[kind] = total
            else:
                raise ConfigError(f"unknown directive {directive!r}")
        except ValueError:
            raise ConfigError(f"boot config line {line_no}: malformed directive: "
                              f"{line.strip()}") from None
        except StbacError as exc:
            raise ConfigError(f"boot config line {line_no}: {exc}") from None
    return config


def spawn_boot_world(config: InitConfig) -> World:
    """Build the boot-time world: filesystem tree, labels, ledger, init process.

    One pass over the node lines, in file order: each node's parent path is
    cut off its own path and looked up once, _make_dirs runs only when that
    parent is missing, and every node, implicit directories included, goes
    in through World.add_node.  Boot marks are explicit only; directory
    inheritance applies to nodes created later during replay, not to the
    configured tree.  Every resource kind gets its cap and both marks here,
    from its config lines or the defaults; a kind with a line is marked AVAI.
    """
    world = World()
    add_node, path_index = world.add_node, world.path_index
    add_node("/", "dir", False, None)
    for path, kind, exec_bits, line_no in config.nodes:
        try:
            if path in path_index:
                # A repeated node line, or a directory named after a deeper
                # path created it implicitly: declare directories first.
                raise ConfigError(f"duplicate path in config: {path}")
            parent_path = path.rpartition("/")[0] or "/"
            parent_id = path_index.get(parent_path)
            if parent_id is None:
                parent_id = _make_dirs(world, parent_path)
            add_node(path, kind, exec_bits, parent_id)
        except StbacError as exc:
            raise ConfigError(f"boot config line {line_no}: {exc}") from None
    for bit, path, line_no in config.marks:
        node_id = world.lookup(path)
        if node_id is None:
            raise ConfigError(f"boot config line {line_no}: flag {FLAG_NAMES[bit]} "
                              f"on nonexistent path {path}")
        world.set_flags(("file", node_id), world.fs[node_id].flags | bit)
    ledger = world.ledger
    for kind in RESOURCE_KINDS:
        cap = ledger.caps[kind] = config.caps.get(kind, DEFAULT_CAP)
        ledger.hwm_st[kind], ledger.hwm_sys[kind] = config.hwms.get(
            kind, (cap // 2, DEFAULT_HWM_SYS_PERCENT))
        if kind in config.hwms or kind in config.caps:
            world.set_flags(("res", kind), AVAI)
    world.processes[INIT_PID] = Process(INIT_PID)
    return world


def _make_dirs(world: World, path: str) -> int:
    """Create the missing directory at path and every missing one above it,
    as the boot config allows; the node id of the one at path."""
    missing = []
    parent_id = None
    while parent_id is None:
        missing.append(path)
        path = parent_of(path)
        parent_id = world.lookup(path)
    for dir_path in reversed(missing):
        parent_id = world.add_node(dir_path, "dir", False, parent_id).node_id
    return parent_id


def serialize_config(world: World) -> str:
    """Render the current tree and labels back into config directives.

    Used by the flag administration commands, which treat the config file
    itself as the state snapshot.  Comments are not preserved.  "/" gets
    mark lines but no node line: every boot makes it.
    """
    lines = []
    nodes = sorted(world.fs.values(), key=lambda n: (n.path.count("/"), n.path))
    for node in nodes:
        if node.parent is not None:
            lines.append(f"node {node.path} {node.kind} {int(node.exec_bits)}")
    for node in nodes:
        for bit in flag_bits(node.flags & (CONF | INTE | LEAK)):
            lines.append(f"{FLAG_NAMES[bit]} {node.path}")
    for kind in RESOURCE_KINDS:
        if world.ledger.flags[kind] & AVAI:
            lines.append(f"hwm {kind} {world.ledger.hwm_st[kind]}"
                         f" {world.ledger.hwm_sys[kind]}")
            lines.append(f"cap {kind} {world.ledger.caps[kind]}")
    return "\n".join(lines) + ("\n" if lines else "")
