"""Structured random traces for property tests.

A trace is derived from a list of small integer "intents".  The resolver
boots the bundle below through cli.load_bundle and steps one engine
_Replayer over each line as it emits it, so every operand comes from the
engine's own world: live pids, executable images, files by kind,
directories, empty directories and the sockets of live owners.  Validity
comes from the engine: a line it rejects fails the build, and a denied op
leaves the world as it was, a denied create no node behind.  Structure
ops (create, mkdir, mkfifo, mknod, unlink, rmdir, rename) reach every
directory, "/" and the protected ones included.  Devices stay out of the
write, truncate, chown, chmod and exec pools.

Two modes: "full" includes untrusted endpoints that seed taint and
administrative taint marks; "benign" produces only trusted or local
activity.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from stbac.cli import load_bundle
from stbac.engine import _Replayer, iter_trace

BOOT_CONFIG = """
node /bin dir 0
node /bin/sh file 1
node /bin/tool file 1
node /bin/copy file 1
node /data dir 0
node /data/secret file 0
node /data/notes file 0
node /data/shared file 0
node /data/shared_copy file 0
node /srv dir 0
conf /data/secret
conf /data/shared
inte /bin
inte /bin/sh
inte /bin/tool
inte /bin/copy
inte /data/shared
leak /bin/copy
hwm cpu_ticks 6 90
cap cpu_ticks 1000000
hwm memory_bytes 500 90
cap memory_bytes 1000000
hwm net_bytes 400 90
cap net_bytes 1000000
hwm disk_blocks 300 90
cap disk_blocks 1000000
"""

# Suspect accesses to the shared secret are redirected here instead of denied.
PCOPY_TEXT = "pcopy /data/shared /data/shared_copy\n"

BOOT_BINS = ("/bin/sh", "/bin/tool", "/bin/copy")

TRUST_FULL = "trust /bin/sh *:* *:* tcp 0..inf\n"
TRUST_BENIGN = "".join(f"trust {p} *:* *:* tcp 0..inf\n" for p in BOOT_BINS)

PRIVILEGED_OPS = ("mount", "umount", "setrlimit", "reboot", "swapoff",
                  "setuid", "setgid", "setfsuid")
MKNOD_KINDS = ("file", "device", "fifo")

N_OPCODES = 26

intents_strategy = st.lists(
    st.tuples(
        st.integers(0, N_OPCODES - 1),   # opcode
        st.integers(0, 7),               # operand selector a
        st.integers(0, 7),               # operand selector b
        st.integers(0, 1),               # small flag c
        st.integers(0, 2),               # tick increment
    ),
    max_size=199,
)


def random_intents(seed: int) -> list:
    """20 to 199 intents drawn from random.Random(seed)."""
    rng = random.Random(seed)
    return [(rng.randrange(N_OPCODES), rng.randrange(8), rng.randrange(8),
             rng.randrange(2), rng.randrange(3)) for _ in range(rng.randrange(20, 200))]


def _within(path: str, top: str | None) -> bool:
    return top is not None and (path == top or path.startswith(top + "/"))


class _Resolver:
    def __init__(self, mode: str):
        self.mode = mode
        self.trust = TRUST_BENIGN if mode == "benign" else TRUST_FULL
        _, self.world, policy = load_bundle(BOOT_CONFIG, self.trust, PCOPY_TEXT)
        self.replayer = _Replayer(self.world, policy, None)
        self.lines = []
        self.tick = 1
        self.names = 0       # fresh names made so far
        self.emit(1, "execve", "/bin/sh")

    def emit(self, pid: int, op: str, *args):
        """Append one line and step the replayer over it."""
        line = ",".join([str(self.tick), str(pid), op, *map(str, args)])
        for event in iter_trace(line):
            self.replayer.step(event)
        self.lines.append(line)

    def emit_on(self, pool: list, sel: int, pid: int, op: str, *args):
        """Emit op on the path of the node of pool that sel picks, if any."""
        node = self.pick(pool, sel)
        if node is not None:
            self.emit(pid, op, node.path, *args)

    @staticmethod
    def pick(pool: list, sel: int):
        return pool[sel % len(pool)] if pool else None

    def pids(self) -> list:
        """The live pids, init first: it never exits."""
        return [pid for pid, proc in self.world.processes.items() if proc.alive]

    def nodes(self, keep) -> list:
        return [node for node in self.world.fs.values() if keep(node)]

    def files(self) -> list:
        return self.nodes(lambda node: node.kind != "dir")

    def writable(self) -> list:
        """Regular files and fifos: every non-directory but the devices."""
        return self.nodes(lambda node: node.kind == "file")

    def fresh_path(self, sel: int, prefix: str, outside: str | None = None) -> str:
        """A new name under a directory that sel picks, outside's subtree
        excepted."""
        self.names += 1
        parent = self.pick(self.nodes(lambda node: node.kind == "dir"
                                      and not _within(node.path, outside)), sel)
        return f"{parent.path.rstrip('/')}/{prefix}{self.names}"

    def resolve(self, intent):
        opcode, a, b, c, dt = intent
        self.tick += dt
        world = self.world
        pid = self.pick(self.pids(), a)
        if opcode == 0:      # fork
            self.emit(pid, "fork", world.max_pid_seen + 1)
        elif opcode == 1:    # exit, init never leaves
            victim = self.pick(self.pids()[1:], a)
            if victim is not None:
                self.emit(victim, "exit")
        elif opcode == 2:    # socket_open
            if self.mode == "benign" and world.processes[pid].exe_path not in BOOT_BINS:
                self.emit(pid, "sched_tick")
                return
            proto = "tcp" if (c == 0 or self.mode == "benign") else "udp"
            sock = world.max_sock_seen + 1
            self.emit(pid, "socket_open", sock,
                      f"10.0.0.1:{5000 + sock}", f"10.0.0.9:{80 + b}", proto)
        elif opcode in (3, 4):   # sock_send / sock_recv with a peer
            sock = self.pick([s for s in world.sockets.values()
                              if world.processes[s.owner].alive], a)
            if sock is not None:
                self.emit(sock.owner, "sock_send" if opcode == 3 else "sock_recv",
                          sock.sock_id, 10 + b, self.pick(self.pids(), b))
        elif opcode == 5:    # create a file (sometimes executable)
            self.emit(pid, "create", self.fresh_path(b, "f"), c)
        elif opcode == 6:
            self.emit_on(self.writable(), b, pid, "open_write")
        elif opcode == 7:
            self.emit_on(self.files(), b, pid, "open_read")
        elif opcode == 8:
            self.emit_on(self.writable(), b, pid, "chmod", c)
        elif opcode == 9:    # exec an executable image
            self.emit_on([node for node in self.writable() if node.exec_bits], b,
                         pid, "execve")
        elif opcode == 10:   # pipe message
            self.emit(pid, "pipe", self.pick(self.pids(), b))
        elif opcode == 11:   # shared memory attach
            self.emit(pid, "shmat", self.pick(self.pids(), b))
        elif opcode == 12:   # message-queue receive
            self.emit(pid, "msgrcv", self.pick(self.pids(), b))
        elif opcode == 13:   # named pipe
            self.emit(pid, "mkfifo", self.fresh_path(b, "p"))
        elif opcode == 14:
            self.emit(pid, "brk_alloc", 20 + 10 * b)
        elif opcode == 15:
            self.emit(pid, "sched_tick")
        elif opcode == 16:
            self.emit(pid, "disk_alloc", 5 + b)
        elif opcode == 17:   # label administration; taint marks in full mode only
            flags = ("conf", "leak") + (("taint",) if self.mode == "full" else ())
            flag = flags[(b + c) % len(flags)]
            if flag == "taint" and c == 1:
                self.emit(pid, "set_stbac_attr", f"pid:{self.pick(self.pids(), b)}",
                          flag, a % 2)
            else:
                self.emit_on(self.files(), b, pid, "set_stbac_attr", flag, a % 2)
        elif opcode == 18:   # kill / ptrace, no structural effect
            self.emit(pid, "kill" if c == 0 else "ptrace", self.pick(self.pids(), b))
        elif opcode == 19:   # load a library image
            self.emit_on(self.writable(), b, pid, "mmap_exec")
        elif opcode == 20:   # the other process-creating calls
            self.emit(pid, "vfork" if c == 0 else "clone", world.max_pid_seen + 1)
        elif opcode == 21:   # content and owner changes
            if c == 0:
                self.emit_on(self.writable(), b, pid, "truncate")
            else:
                self.emit_on(self.writable(), b, pid, "chown", b)
        elif opcode == 22:   # privileged calls; denied to suspects
            op = PRIVILEGED_OPS[b % len(PRIVILEGED_OPS)]
            if op in ("setuid", "setgid", "setfsuid"):
                self.emit(pid, op, 1000 * c)
            elif op in ("mount", "umount") and c == 1:
                self.emit(pid, op, "/srv")
            else:
                self.emit(pid, op)
        elif opcode == 23:   # directories and special files
            if c == 0:
                self.emit(pid, "mkdir", self.fresh_path(b, "d"))
            else:
                self.emit(pid, "mknod", self.fresh_path(b, "n"),
                          MKNOD_KINDS[b % len(MKNOD_KINDS)])
        elif opcode == 24:   # unlink a file, remove an empty directory
            if c == 0:
                self.emit_on(self.files(), b, pid, "unlink")
            else:
                self.emit_on(self.nodes(lambda node: node.parent is not None
                                        and world.kids.get(node.node_id) == {}),
                             b, pid, "rmdir")
        elif opcode == 25:   # rename to a fresh name or onto an existing file
            src = self.pick(self.nodes(lambda node: node.parent is not None), b)
            if src is None:
                return
            if c == 0:
                dst = self.fresh_path(a, "r", outside=src.path)
            else:
                target = self.pick(self.nodes(lambda node: node.kind != "dir"
                                              and not _within(node.path, src.path)), a)
                if target is None:
                    return
                dst = target.path
            self.emit(pid, "rename", src.path, dst)


def build_trace(intents, mode: str = "full") -> tuple[str, str]:
    """Resolve intents into (trace text, trust list text)."""
    resolver = _Resolver(mode)
    for intent in intents:
        resolver.resolve(intent)
    return "\n".join(resolver.lines) + "\n", resolver.trust


# -- the criterion-8 synthetic trace ----------------------------------------

PERF_BOOT = """
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


def synthetic_trace(count):
    """The first count lines of the criterion-8 synthetic trace, booted from
    PERF_BOOT: three processes cycling through writes, reads, allocations
    and one PR_conf denial every ten events."""
    lines = [
        "1,1,execve,/bin/sh",
        "2,1,fork,2",
        "3,1,fork,3",
        "4,3,socket_open,1,10.0.0.1:9999,10.0.0.9:80,udp",
        "5,2,create,/srv/f0,0",
        "6,2,create,/srv/f1,0",
        "7,2,create,/srv/f2,1",
    ]
    tick = 8
    cycle = [
        lambda i: f"2,open_write,/srv/f{i % 2}",
        lambda i: f"2,open_read,/srv/f{i % 2}",
        lambda i: "2,sched_tick",
        lambda i: "3,sched_tick",
        lambda i: "3,open_read,/data/secret",     # a denial every cycle
        lambda i: f"3,open_write,/srv/f{i % 3}",
        lambda i: "2,brk_alloc,3",
        lambda i: "2,open_read,/data/secret",
        lambda i: "2,disk_alloc,1",
        lambda i: "3,brk_alloc,2",
    ]
    i = 0
    while len(lines) < count:
        lines.append(f"{tick},{cycle[i % len(cycle)](i)}")
        tick += 1
        i += 1
    return "\n".join(lines[:count]) + "\n"


CHURN_BOOT = "node /srv dir 0\nnode /sbin dir 0\ninte /sbin\n"


def churn_trace(cycles):
    """A trace over CHURN_BOOT that starts and ends files: pid 1 forks the
    clean pid 2 and opens an untrusted socket, then each cycle has the
    tainted pid 1 create and unlink an executable in /srv, pid 2 create and
    unlink a file in the protected /sbin, and pid 1 make a fifo, write to
    it and unlink it with the message pending.  Each cycle leaves the
    world as it found it; 2 + 7 * cycles events."""
    lines = ["1,1,fork,2", "2,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp"]
    for tick in range(3, cycles + 3):
        lines += [f"{tick},1,create,/srv/tool,1", f"{tick},1,unlink,/srv/tool",
                  f"{tick},2,create,/sbin/note,0", f"{tick},2,unlink,/sbin/note",
                  f"{tick},1,mkfifo,/srv/pipe", f"{tick},1,open_write,/srv/pipe",
                  f"{tick},1,unlink,/srv/pipe"]
    return "\n".join(lines) + "\n"
