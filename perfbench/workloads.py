"""Seeded workload generators for the stbac benchmark.

Each generator is a pure function of its seed: the same seed gives the same
boot config, trust list, copy map and trace bytes.  The seed picks operands
and orderings only; event counts, world sizes and op proportions are fixed,
so every seed exercises the program the same way.

Alongside the trace, each generator predicts the audit verdict of every
event (ALLOW, ALLOW_REDIR(path) or DENY(rule)) from its own model of which
processes are tainted and which paths carry CONF/INTE.  The model is built
by construction, not by running stbac, so it is an independent check on
the guard.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

# Sizes, chosen so that at the seed commit every `stbac replay` and
# `stbac check` call takes under a second on a 2-core host (see README.md).
# `stbac check` runs on the first *_CHECK_EVENTS events only: its per-event
# cost is many times replay's, and short calls keep its fastest call steady
# on a shared host.
MIX_EVENTS = 5_000
MIX_CHECK_EVENTS = 2_000
FS_USERS, FS_PROJECTS, FS_FILES = 12, 8, 20      # 2028 nodes under /home
FS_EVENTS = 400
FS_CHECK_EVENTS = 60
FS_USER_RENAME_EVERY = 100
FS_PROJECT_RENAME_EVERY = 20
IPC_GROUPS, IPC_GROUP_SIZE = 16, 24             # live processes per group
IPC_EVENTS = 2_500
IPC_CHECK_EVENTS = 600

ALLOW = "ALLOW"
DENY_CONF = "DENY(PR_conf)"
DENY_INTE = "DENY(PR_inte)"

_CONF, _INTE = 1, 2
_TRUST_SH = "trust /bin/sh *:* *:* tcp 0..inf\n"
_UNTRUSTED = "10.0.0.1:9999,10.0.0.9:80,udp"


@dataclass(frozen=True)
class Workload:
    name: str
    init_text: str
    trust_text: str
    pcopy_text: str
    trace_text: str
    expected: tuple          # predicted audit result of each event
    check_events: int        # length of the trace prefix `stbac check` runs on

    @property
    def events(self) -> int:
        return len(self.expected)

    def check_trace_text(self) -> str:
        """The first check_events events of the trace."""
        return "".join(self.trace_text.splitlines(keepends=True)[:self.check_events])

    def predicted_denials(self, events: int | None = None) -> Counter:
        """Denials per protection rule among the first `events` events (all
        by default), as the generator constructed them."""
        return Counter(r[5:-1] for r in self.expected[:events] if r.startswith("DENY("))


class _Trace:
    """Trace lines with one predicted verdict each; one tick per event."""

    def __init__(self):
        self.lines = []
        self.expected = []

    def emit(self, pid: int, op: str, *args, result: str = ALLOW):
        tick = len(self.lines) + 1
        self.lines.append(",".join((str(tick), str(pid), op, *map(str, args))))
        self.expected.append(result)

    def __len__(self):
        return len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Pool:
    """Set with O(1) add, remove and seeded choice, iterated in a fixed order."""

    def __init__(self):
        self.items = []
        self.index = {}

    def add(self, item):
        self.index[item] = len(self.items)
        self.items.append(item)

    def remove(self, item):
        pos = self.index.pop(item)
        last = self.items.pop()
        if pos < len(self.items):
            self.items[pos] = last
            self.index[last] = pos

    def choice(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


# -- mix: the acceptance-criterion-8 cycle, made long -------------------------

MIX_BOOT = """\
node /bin dir 0
node /bin/sh file 1
node /srv dir 0
node /data dir 0
node /data/secret file 0
conf /data/secret
hwm cpu_ticks 900000000 90
cap cpu_ticks 2000000000
hwm memory_bytes 900000000 90
cap memory_bytes 2000000000
hwm disk_blocks 900000000 90
cap disk_blocks 2000000000
hwm net_bytes 900000000 90
cap net_bytes 2000000000
"""


def mix(seed: int) -> Workload:
    """Three processes over about ten nodes; pid 3 is tainted by a UDP socket
    and is refused /data/secret once per ten-op cycle.  The seed shuffles
    each cycle and picks file operands and allocation sizes."""
    rng = random.Random(f"mix/{seed}")
    trace = _Trace()
    trace.emit(1, "execve", "/bin/sh")
    trace.emit(1, "fork", 2)
    trace.emit(1, "fork", 3)
    trace.emit(3, "socket_open", 1, *_UNTRUSTED.split(","))
    for name, exe in (("f0", 0), ("f1", 0), ("f2", 1)):
        trace.emit(2, "create", f"/srv/{name}", exe)
    cycle = [
        lambda: (2, "open_write", f"/srv/f{rng.randrange(2)}"),
        lambda: (2, "open_read", f"/srv/f{rng.randrange(2)}"),
        lambda: (2, "sched_tick"),
        lambda: (3, "sched_tick"),
        lambda: (3, "open_read", "/data/secret"),
        lambda: (3, "open_write", f"/srv/f{rng.randrange(3)}"),
        lambda: (2, "brk_alloc", rng.randint(1, 5)),
        lambda: (2, "open_read", "/data/secret"),
        lambda: (2, "disk_alloc", rng.randint(1, 3)),
        lambda: (3, "brk_alloc", rng.randint(1, 3)),
    ]
    while len(trace) < MIX_EVENTS:
        for make in rng.sample(cycle, len(cycle)):
            if len(trace) == MIX_EVENTS:
                break
            pid, op, *args = make()
            denied = pid == 3 and op == "open_read" and args == ["/data/secret"]
            trace.emit(pid, op, *args, result=DENY_CONF if denied else ALLOW)
    return Workload("mix", MIX_BOOT, "", "", trace.text(), tuple(trace.expected),
                    MIX_CHECK_EVENTS)


# -- fstree: a large boot tree under structural churn ---------------------------

_FS_ANCHORS = """\
node /bin dir 0
node /bin/sh file 1
node /bin/tool file 1
node /etc dir 0
node /etc/passwd file 0
node /etc/shadow file 0
node /etc/shared file 0
node /etc/shared_copy file 0
node /home dir 0
inte /bin
inte /bin/sh
inte /bin/tool
inte /etc
inte /etc/passwd
inte /etc/shadow
inte /etc/shared
conf /etc/shadow
conf /etc/shared
"""
_FS_PCOPY = "pcopy /etc/shared /etc/shared_copy\n"
_FS_SUSPECT = 6


class _FsModel:
    """The generator's view of the tree: kinds, exec bits, CONF/INTE bits.

    Only nodes under /home are churned; the anchors under /bin and /etc
    never move, so the redirect target and the protected paths always exist.
    """

    def __init__(self):
        self.nodes = {}          # path -> [kind, exec, flags]
        self.kids = {}           # dir path -> {name: None}, insertion-ordered
        self.files = _Pool()     # churnable non-directories
        self.dirs = _Pool()      # churnable directories (all below /home)
        self.serial = 0

    def add(self, path: str, kind: str, exe: int = 0, flags: int = 0,
            churn: bool = True):
        self.nodes[path] = [kind, exe, flags]
        if path != "/":
            parent, name = path.rsplit("/", 1)
            self.kids[parent or "/"][name] = None
        if kind == "dir":
            self.kids[path] = {}
        if churn:
            (self.dirs if kind == "dir" else self.files).add(path)

    def create(self, parent: str, kind: str, exe: int = 0) -> str:
        """Add a fresh entry that inherits CONF/INTE from its directory."""
        self.serial += 1
        path = f"{parent}/{'d' if kind == 'dir' else 'n'}{self.serial}"
        self.add(path, kind, exe, self.nodes[parent][2])
        return path

    def remove(self, path: str):
        parent, name = path.rsplit("/", 1)
        del self.kids[parent][name]
        kind = self.nodes.pop(path)[0]
        if kind == "dir":
            del self.kids[path]
            self.dirs.remove(path)
        else:
            self.files.remove(path)

    def subtree(self, path: str) -> list:
        out = [path]
        for name in self.kids.get(path, ()):
            out.extend(self.subtree(f"{path}/{name}"))
        return out

    def rename(self, src: str, dst_parent: str) -> str:
        """Move src (and its subtree) under dst_parent with a fresh name."""
        self.serial += 1
        dst = f"{dst_parent}/m{self.serial}"
        moved = [(p, self.nodes[p]) for p in self.subtree(src)]
        for path, _ in reversed(moved):
            self.remove(path)
        for path, (kind, exe, flags) in moved:
            self.add(dst + path[len(src):], kind, exe, flags)
        return dst

    def empty_dir(self, rng: random.Random):
        for _ in range(8):
            path = self.dirs.choice(rng)
            if not self.kids[path]:
                return path
        return None

    def below_users(self, rng: random.Random):
        """A project directory or one below it, never a user directory, so
        the directories at project depth stay the boot projects and the
        scheduled renames find the same population."""
        for _ in range(8):
            path = self.dirs.choice(rng)
            if path.count("/") > 2:
                return path
        return None

    def user_dir(self, rng: random.Random, path: str) -> str:
        """A directory of the user subtree that holds path.

        Keeping moves inside one user keeps the user subtrees the same size,
        so the scheduled renames cost the same for every seed."""
        user = "/".join(path.split("/")[:3])
        return rng.choice([p for p in self.subtree(user) if self.nodes[p][0] == "dir"])

    def projects(self) -> list:
        return [f"{user}/{name}" for user in (f"/home/{u}" for u in self.kids["/home"])
                for name in self.kids[user] if self.nodes[f"{user}/{name}"][0] == "dir"]


def _fs_boot(rng: random.Random, model: _FsModel) -> str:
    lines = [_FS_ANCHORS]
    model.add("/", "dir", churn=False)
    for line in _FS_ANCHORS.splitlines():
        directive, path, *rest = line.split()
        if directive == "node":
            model.add(path, rest[0], int(rest[1]), churn=False)
        else:
            model.nodes[path][2] |= _CONF if directive == "conf" else _INTE
    for u in range(FS_USERS):
        user = f"/home/u{u}"
        lines.append(f"node {user} dir 0\n")
        model.add(user, "dir")
        for p in range(FS_PROJECTS):
            project = f"{user}/p{p}"
            lines.append(f"node {project} dir 0\n")
            model.add(project, "dir")
            for f in range(FS_FILES):
                exe = int(rng.random() < 0.1)
                lines.append(f"node {project}/f{f} file {exe}\n")
                model.add(f"{project}/f{f}", "file", exe)
        # Each user's first project is protected, so creations in it inherit
        # INTE and the suspect's writes there are refused.
        lines.append(f"inte {user}/p0\n")
        model.nodes[f"{user}/p0"][2] |= _INTE
    return "".join(lines)


def fstree(seed: int) -> Workload:
    """Four untainted workers read, write, create, delete and rename across a
    2k-node tree, renaming whole directories; a tainted suspect probes the
    protected anchors (denials and partial-copy redirects) and writes and
    drops executables in the tree."""
    rng = random.Random(f"fstree/{seed}")
    model = _FsModel()
    init_text = _fs_boot(rng, model)
    trace = _Trace()
    trace.emit(1, "execve", "/bin/sh")
    workers = (2, 3, 4, 5)
    for pid in workers + (_FS_SUSPECT,):
        trace.emit(1, "fork", pid)
    trace.emit(_FS_SUSPECT, "socket_open", 1, *_UNTRUSTED.split(","))
    while len(trace) < FS_EVENTS:
        # Directory renames cost O(subtree x |fs|) at the seed commit and
        # dominate the replay, so they run on a fixed schedule: the same
        # number of whole-user and whole-project moves for every seed.
        if len(trace) % FS_USER_RENAME_EVERY == 0:
            src = f"/home/{rng.choice(list(model.kids['/home']))}"
            trace.emit(rng.choice(workers), "rename", src, model.rename(src, "/home"))
        elif len(trace) % FS_PROJECT_RENAME_EVERY == 0:
            src = rng.choice(model.projects())
            trace.emit(rng.choice(workers), "rename", src,
                       model.rename(src, src.rsplit("/", 1)[0]))
        elif rng.random() < 0.2:
            _fs_suspect_step(rng, model, trace)
        else:
            _fs_worker_step(rng, model, trace, rng.choice(workers))
    return Workload("fstree", init_text, _TRUST_SH, _FS_PCOPY, trace.text(),
                    tuple(trace.expected), FS_CHECK_EVENTS)


def _fs_worker_step(rng, model: _FsModel, trace: _Trace, pid: int):
    roll = rng.random()
    if roll < 0.30:
        pool = model.files if rng.random() < 0.8 else model.dirs
        trace.emit(pid, "open_read", pool.choice(rng))
    elif roll < 0.50:
        trace.emit(pid, "open_write", model.files.choice(rng))
    elif roll < 0.62:
        exe = int(rng.random() < 0.1)
        path = model.create(model.dirs.choice(rng), "file", exe)
        trace.emit(pid, "create", path, exe)
    elif roll < 0.66:
        parent = model.below_users(rng)
        if parent is not None:
            trace.emit(pid, "mkdir", model.create(parent, "dir"))
    elif roll < 0.78:
        path = model.files.choice(rng)
        model.remove(path)
        trace.emit(pid, "unlink", path)
    elif roll < 0.82:
        path = model.empty_dir(rng)
        if path is not None:
            model.remove(path)
            trace.emit(pid, "rmdir", path)
    else:
        src = model.files.choice(rng)
        trace.emit(pid, "rename", src, model.rename(src, model.user_dir(rng, src)))


def _fs_suspect_step(rng, model: _FsModel, trace: _Trace):
    pid = _FS_SUSPECT
    roll = rng.random()
    if roll < 0.08:
        trace.emit(pid, "open_read", "/etc/shadow", result=DENY_CONF)
    elif roll < 0.16:
        trace.emit(pid, "open_read", "/etc/shared",
                   result="ALLOW_REDIR(/etc/shared_copy)")
    elif roll < 0.24:
        trace.emit(pid, "open_write", "/etc/shared",
                   result="ALLOW_REDIR(/etc/shared_copy)")
    elif roll < 0.32:
        trace.emit(pid, "open_write", rng.choice(("/etc/passwd", "/bin/sh")),
                   result=DENY_INTE)
    elif roll < 0.38:
        model.serial += 1
        trace.emit(pid, "create", f"/etc/x{model.serial}", 1, result=DENY_INTE)
    elif roll < 0.42:
        trace.emit(pid, "unlink", "/etc/passwd", result=DENY_INTE)
    elif roll < 0.62:
        trace.emit(pid, "open_read", model.files.choice(rng))
    elif roll < 0.84:
        path = model.files.choice(rng)
        protected = model.nodes[path][2] & _INTE
        trace.emit(pid, "open_write", path, result=DENY_INTE if protected else ALLOW)
    else:
        parent = model.dirs.choice(rng)
        exe = int(rng.random() < 0.3)
        if model.nodes[parent][2] & _INTE:
            model.serial += 1
            trace.emit(pid, "create", f"{parent}/x{model.serial}", exe, result=DENY_INTE)
        else:
            trace.emit(pid, "create", model.create(parent, "file", exe), exe)


# -- ipc: a fan-out process tree talking over IPC ---------------------------------

IPC_BOOT = """\
node /bin dir 0
node /bin/sh file 1
node /data dir 0
node /data/secret file 0
conf /data/secret
inte /bin
hwm net_bytes 900000000 90
cap net_bytes 2000000000
"""


def ipc(seed: int) -> Workload:
    """Sixteen groups of 24, each a master and its forked workers, exchange
    pipe, shared-memory, message-queue and local-socket messages among
    themselves while workers exit and are replaced.  One untrusted socket taints one
    group once every process is forked; at fixed points of the check window a
    tainted process messages another group's master, so taint reaches four
    groups before the window ends.  The filesystem is idle."""
    rng = random.Random(f"ipc/{seed}")
    trace = _Trace()
    tainted = set()
    sockets = {}                     # pid -> socket id
    next_pid = 2
    trace.emit(1, "execve", "/bin/sh")
    groups = []
    for _ in range(IPC_GROUPS):
        master = next_pid
        next_pid += 1
        trace.emit(1, "fork", master)
        groups.append(_Pool())
        groups[-1].add(master)
    for group in groups:
        master = group.items[0]
        for _ in range(IPC_GROUP_SIZE - 1):
            trace.emit(master, "fork", next_pid)
            group.add(next_pid)
            next_pid += 1

    def send(src: int, dst: int):
        trace.emit(src, "pipe", dst)
        if src in tainted:
            tainted.add(dst)

    def broadcast(group: _Pool):
        # The master fans a message out to its workers, so a group is wholly
        # tainted as soon as its master is, and the tainted population
        # follows the schedule below for every seed.
        for worker in group.items[1:]:
            send(group.items[0], worker)

    group = groups[rng.randrange(IPC_GROUPS)]
    master = group.items[0]
    sockets[master] = len(trace) + 1
    trace.emit(master, "socket_open", sockets[master], *_UNTRUSTED.split(","))
    tainted.add(master)
    broadcast(group)
    # The whole taint spread falls inside the check window, so the check
    # path sees the same four tainted groups as the end of the replay.
    bridges = [IPC_CHECK_EVENTS * k // 20 for k in (12, 15, 18)]
    while len(trace) < IPC_EVENTS:
        at = len(trace)
        if bridges and at >= bridges[0]:
            bridges.pop(0)
            clean = [g for g in groups if g.items[0] not in tainted]
            sources = [p for g in groups for p in g.items if p in tainted]
            group = rng.choice(clean)
            send(rng.choice(sources), group.items[0])
            broadcast(group)
            continue
        group = groups[rng.randrange(IPC_GROUPS)]
        master = group.items[0]
        pid = group.choice(rng)
        peer = group.choice(rng)
        roll = rng.random()
        if roll < 0.08 and pid != master and len(trace) + 2 <= IPC_EVENTS:
            # A worker exits and its master forks a replacement, so group
            # sizes, and with them the tainted population, are the same for
            # every seed.
            trace.emit(pid, "exit")
            group.remove(pid)
            tainted.discard(pid)
            sockets.pop(pid, None)
            trace.emit(master, "fork", next_pid)
            group.add(next_pid)
            if master in tainted:
                tainted.add(next_pid)
            next_pid += 1
        elif roll < 0.40:
            send(pid, peer)
        elif roll < 0.52:
            trace.emit(pid, "shmat", peer)
            if pid in tainted or peer in tainted:
                tainted.update((pid, peer))
        elif roll < 0.64:
            trace.emit(pid, "msgrcv", peer)
            if peer in tainted:
                tainted.add(pid)
        elif roll < 0.90:
            if sockets.get(pid, -1) < 0:
                sockets[pid] = len(trace) + 1
                trace.emit(pid, "socket_open", sockets[pid], "10.0.0.1:7000",
                           f"10.0.0.2:{7000 + pid % 100}", "tcp")
                continue
            sending = rng.random() < 0.5
            trace.emit(pid, "sock_send" if sending else "sock_recv",
                       sockets[pid], rng.randint(1, 512), peer)
            source, sink = (pid, peer) if sending else (peer, pid)
            if source in tainted:
                tainted.add(sink)
        else:
            trace.emit(pid, "ptrace", peer,
                       result=DENY_CONF if pid in tainted else ALLOW)
    return Workload("ipc", IPC_BOOT, _TRUST_SH, "", trace.text(), tuple(trace.expected),
                    IPC_CHECK_EVENTS)


GENERATORS = {"mix": mix, "fstree": fstree, "ipc": ipc}
