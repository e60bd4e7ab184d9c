"""Simulated kernel state: processes, filesystem tree, sockets, resource ledger.

The world is the single mutable value a replay folds over.  Label bits live
inline on the entity records as int masks of model's TAINT, CONF, INTE,
AVAI and LEAK bits, written only by World.set_flags; resources carry theirs
in the ledger, keyed by the resource kind's name.  The world owns the
tainted set (refs of the live entities holding TAINT) and an epoch that
moves when that set or the path of a member changes.
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
    Ref,
    StbacError,
    UnknownEntity,
    ascii_int,
    content_lines,
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
    parent: int
    uid: int = 0
    exe: int | None = None        # node id of the last exec'd file, None before any exec
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
    local: tuple                  # (ip, port)
    remote: tuple
    proto: str                    # "tcp" | "udp"
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
    allocated_sys: dict = field(default_factory=dict) # kind -> currently allocated
    hwm_st: dict = field(default_factory=dict)        # kind -> absolute amount
    hwm_sys: dict = field(default_factory=dict)       # kind -> percent in (0, 100]
    flags: dict = field(default_factory=dict)         # kind -> mask (AVAI bit only)

    def __post_init__(self):
        for kind in RESOURCE_KINDS:
            self.caps.setdefault(kind, DEFAULT_CAP)
            self.allocated_sys.setdefault(kind, 0)
            self.hwm_st.setdefault(kind, self.caps[kind] // 2)
            self.hwm_sys.setdefault(kind, DEFAULT_HWM_SYS_PERCENT)
            self.flags.setdefault(kind, NO_FLAGS)

    def charge(self, process: Process, kind: str, amount: int):
        process.usage[kind] = process.usage.get(kind, 0) + amount
        self.allocated_sys[kind] += amount

    def release_all(self, process: Process):
        for kind, amount in process.usage.items():
            self.allocated_sys[kind] -= amount
        process.usage = {}


@dataclass
class Classification:
    """Faithful report of an entity's partition bits.

    Taint and vital are not exclusive; health means neither is set (a LEAK
    bit alone still counts as health).
    """

    tainted: bool
    vital: int       # mask of the CONF/INTE bits present
    leak: bool

    @property
    def health(self) -> bool:
        return not self.tainted and not self.vital


def classify(mask: int) -> Classification:
    return Classification(
        tainted=bool(mask & TAINT),
        vital=mask & (CONF | INTE),
        leak=bool(mask & LEAK),
    )


@dataclass
class World:
    processes: dict = field(default_factory=dict)   # pid -> Process
    fs: dict = field(default_factory=dict)          # node id -> FsNode
    sockets: dict = field(default_factory=dict)     # sock id -> Socket
    ledger: ResourceLedger = field(default_factory=ResourceLedger)
    clock: int = 0

    tainted: set = field(default_factory=set)       # refs of live entities holding TAINT
    taint_epoch: int = 0                            # moves with tainted or a member's path
    path_index: dict = field(default_factory=dict)  # live path -> node id
    kids: dict = field(default_factory=dict)        # dir node id -> {child id: FsNode}
    fifos: set = field(default_factory=set)         # node ids created as fifos
    fifo_queues: dict = field(default_factory=dict) # node id -> [(writer pid, tainted at write)]
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

    def process(self, pid: int) -> Process:
        try:
            proc = self.processes[pid]
        except KeyError:
            raise UnknownEntity(f"no such pid {pid}") from None
        return proc

    def live_process(self, pid: int) -> Process:
        proc = self.process(pid)
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
        siblings = None
        if parent_id is not None:
            siblings = self.kids.get(parent_id)
            if siblings is None:
                raise StbacError(
                    f"parent is not a directory: {self.fs[parent_id].path}")
        node = FsNode(self.next_node_id, path, kind, exec_bits, parent=parent_id)
        self.next_node_id += 1
        self.fs[node.node_id] = node
        self.path_index[path] = node.node_id
        if siblings is not None:
            siblings[node.node_id] = node
        if kind == "dir":
            self.kids[node.node_id] = {}
        return node

    def remove_node(self, node: FsNode):
        """Drop a node; directories must be empty, and "/" stays."""
        del self.path_index[node.path]
        del self.fs[node.node_id]
        del self.kids[node.parent][node.node_id]
        self.kids.pop(node.node_id, None)
        self.fifos.discard(node.node_id)
        self.fifo_queues.pop(node.node_id, None)
        self._track(("file", node.node_id), False)

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
        for member in self.subtree(node):
            del self.path_index[member.path]
            member.path = new_path + member.path[len(old_prefix):]
            self.path_index[member.path] = member.node_id
            if ("file", member.node_id) in self.tainted:
                self.taint_epoch += 1
        del self.kids[node.parent][node.node_id]
        node.parent = self.lookup(parent_of(new_path))
        self.kids[node.parent][node.node_id] = node

    def spawn(self, parent: Process, child_pid: int) -> Process:
        if child_pid <= self.max_pid_seen:
            raise StbacError(
                f"pid {child_pid} is not fresh (last seen {self.max_pid_seen})")
        self.max_pid_seen = child_pid
        child = Process(child_pid, parent.pid, uid=parent.uid,
                        exe=parent.exe, exe_path=parent.exe_path)
        self.processes[child_pid] = child
        return child

    def exit(self, proc: Process):
        self.ledger.release_all(proc)
        proc.alive = False
        self._track(("proc", proc.pid), False)

    def open_socket(self, sock_id: int, owner: int, local, remote, proto,
                    trusted: bool) -> Socket:
        if sock_id <= self.max_sock_seen:
            raise StbacError(
                f"socket id {sock_id} is not fresh (last seen {self.max_sock_seen})")
        self.max_sock_seen = sock_id
        sock = Socket(sock_id, owner, local, remote, proto, trusted)
        self.sockets[sock_id] = sock
        return sock

    # -- label access ------------------------------------------------------

    def flags_of(self, ref: Ref) -> int:
        kind, ident = ref
        if kind == "proc":
            return self.processes[ident].flags
        if kind == "file":
            return self.fs[ident].flags
        if kind == "res":
            return self.ledger.flags[ident]
        return NO_FLAGS               # sockets carry no label

    def set_flags(self, ref: Ref, flags: int):
        """Store an entity's label mask, unguarded: the one writer of label
        bits, for replay mutations, boot marks and config edits alike."""
        kind, ident = ref
        if kind == "res":
            self.ledger.flags[ident] = flags
            return
        entity = self.processes[ident] if kind == "proc" else self.fs[ident]
        entity.flags = flags
        self._track(ref, flags & TAINT != 0)

    def _track(self, ref: Ref, tainted: bool):
        """Make ref's membership of the tainted set match tainted."""
        if (ref in self.tainted) != tainted:
            self.tainted ^= {ref}
            self.taint_epoch += 1


def parent_of(path: str) -> str:
    """Parent of an absolute path ('/' is its own parent)."""
    return path.rsplit("/", 1)[0] or "/"


def check_path(path: str) -> str:
    if not path.startswith("/"):
        raise StbacError(f"path must be absolute: {path!r}")
    if "," in path:
        raise StbacError(f"comma not allowed in paths: {path!r}")
    if path != "/" and path.endswith("/"):
        raise StbacError(f"trailing slash not allowed: {path!r}")
    if "//" in path:
        raise StbacError(f"empty path component not allowed: {path!r}")
    return path


# -- boot config --------------------------------------------------------------

@dataclass
class InitConfig:
    """Parsed boot configuration.

    Directives apply in file order; a node line must precede any flag line
    for that path.  Missing parent directories are created implicitly.
    """

    nodes: list = field(default_factory=list)   # (path, kind, exec_bits)
    marks: list = field(default_factory=list)   # (flag bit, path), as parsed
    node_lines: list = field(default_factory=list)  # line number of each entry of nodes
    mark_lines: list = field(default_factory=list)  # line number of each entry of marks
    hwms: dict = field(default_factory=dict)    # kind -> (per-taint limit, sys percent)
    caps: dict = field(default_factory=dict)    # kind -> system total


def parse_init_config(text: str) -> InitConfig:
    config = InitConfig()
    for line_no, line in content_lines(text):
        fields = line.split()
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
                config.nodes.append((path, kind, exec_bit == "1"))
                config.node_lines.append(line_no)
            elif directive in ("conf", "inte", "leak"):
                _, path = fields
                config.marks.append((parse_flag(directive), check_path(path)))
                config.mark_lines.append(line_no)
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
            raise ConfigError(f"line {line_no}: malformed directive: {line}") from None
        except StbacError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
    return config


def spawn_boot_world(config: InitConfig) -> World:
    """Build the boot-time world: filesystem tree, labels, ledger, init process.

    Boot marks are explicit only; directory inheritance applies to nodes
    created later during replay, not to the configured tree.
    """
    world = World()
    world.add_node("/", "dir", False, None)
    for (path, kind, exec_bits), line_no in zip(config.nodes, config.node_lines,
                                                strict=True):
        try:
            if path in world.path_index:
                # A repeated node line, or a directory named after a deeper
                # path created it implicitly: declare directories first.
                raise ConfigError(f"duplicate path in config: {path}")
            parent_path = parent_of(path)
            parent_id = world.path_index.get(parent_path)
            if parent_id is None:
                parent_id = _make_dirs(world, parent_path)
            world.add_node(path, kind, exec_bits, parent_id)
        except StbacError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
    for (bit, path), line_no in zip(config.marks, config.mark_lines, strict=True):
        node_id = world.lookup(path)
        if node_id is None:
            raise ConfigError(f"line {line_no}: flag {FLAG_NAMES[bit]} "
                              f"on nonexistent path {path}")
        world.set_flags(("file", node_id), world.fs[node_id].flags | bit)
    for kind, (limit, percent) in config.hwms.items():
        world.ledger.hwm_st[kind] = limit
        world.ledger.hwm_sys[kind] = percent
        world.set_flags(("res", kind), AVAI)
    for kind, total in config.caps.items():
        world.ledger.caps[kind] = total
        world.set_flags(("res", kind), AVAI)
        if kind not in config.hwms:
            world.ledger.hwm_st[kind] = total // 2
    world.processes[INIT_PID] = Process(INIT_PID, parent=0)
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


def serialize_config(world: World, ledger_lines: bool = True) -> str:
    """Render the current tree and labels back into config directives.

    Used by the flag administration commands, which treat the config file
    itself as the state snapshot.  Comments are not preserved.
    """
    lines = []
    nodes = sorted((n for n in world.fs.values() if n.path != "/"),
                   key=lambda n: (n.path.count("/"), n.path))
    for node in nodes:
        lines.append(f"node {node.path} {node.kind} {int(node.exec_bits)}")
    for node in nodes:
        for bit in flag_bits(node.flags & (CONF | INTE | LEAK)):
            lines.append(f"{FLAG_NAMES[bit]} {node.path}")
    if ledger_lines:
        for kind in RESOURCE_KINDS:
            if world.ledger.flags[kind] & AVAI:
                lines.append(f"hwm {kind} {world.ledger.hwm_st[kind]}"
                             f" {world.ledger.hwm_sys[kind]}")
                lines.append(f"cap {kind} {world.ledger.caps[kind]}")
    return "\n".join(lines) + ("\n" if lines else "")
