"""Structured random traces for property tests.

A trace is derived from a list of small integer "intents"; resolution
against a running structural model guarantees the result is always a
valid trace (fresh pids, live operands, existing paths), so every
generated case must replay without errors.  Structure-changing events
(create, mkdir, mkfifo, mknod, unlink, rmdir, rename) are restricted to
/srv, where the guard never denies them, which keeps the generator's view
of the tree exact without simulating decisions.  Device nodes stay out of
the write, chmod and exec pools.

Two modes: "full" includes untrusted endpoints that seed taint; "benign"
produces only trusted or local activity.
"""

from __future__ import annotations

from hypothesis import strategies as st

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
BOOT_FILES = BOOT_BINS + ("/data/secret", "/data/notes", "/data/shared")

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


class _Resolver:
    def __init__(self, mode: str):
        self.mode = mode
        self.lines = ["1,1,execve,/bin/sh"]
        self.tick = 1
        self.live = [1]
        self.next_pid = 2
        self.next_sock = 1
        self.next_file = 0
        self.exes = {1: "/bin/sh"}
        self.nodes = []      # generated nodes under /srv, dicts: path, kind, exec
        self.sockets = []    # (sock id, owner pid)

    def emit(self, pid: int, op: str, *args):
        self.lines.append(",".join([str(self.tick), str(pid), op, *map(str, args)]))

    def pick_pid(self, sel: int) -> int:
        return self.live[sel % len(self.live)]

    def pick_file(self, sel: int, pool=None):
        pool = pool if pool is not None else self.all_files()
        if not pool:
            return None
        return pool[sel % len(pool)]

    def all_files(self):
        """Every non-directory: boot files, then generated ones."""
        return [{"path": p, "kind": "file", "exec": p in BOOT_BINS}
                for p in BOOT_FILES] + [n for n in self.nodes if n["kind"] != "dir"]

    def writable(self):
        return [f for f in self.all_files() if f["kind"] != "device"]

    def regular(self):
        """Generated regular files, the chmod pool."""
        return [n for n in self.nodes if n["kind"] == "file"]

    def dirs(self, outside=None):
        """/srv and the generated directories, except outside's subtree."""
        found = ["/srv"] + [n["path"] for n in self.nodes if n["kind"] == "dir"]
        if outside is not None:
            found = [d for d in found if not self.within(d, outside)]
        return found

    @staticmethod
    def within(path: str, top: str) -> bool:
        return path == top or path.startswith(top + "/")

    def fresh_path(self, sel: int, prefix="f", outside=None) -> str:
        self.next_file += 1
        parent = self.pick_file(sel, self.dirs(outside))
        return f"{parent}/{prefix}{self.next_file}"

    def add_node(self, path: str, kind: str, exec_bit=False):
        self.nodes.append({"path": path, "kind": kind, "exec": exec_bit})

    def spawn(self, pid: int, op: str):
        child = self.next_pid
        self.next_pid += 1
        self.live.append(child)
        self.exes[child] = self.exes[pid]
        self.emit(pid, op, child)

    def resolve(self, intent):
        opcode, a, b, c, dt = intent
        self.tick += dt
        pid = self.pick_pid(a)
        if opcode == 0:      # fork
            self.spawn(pid, "fork")
        elif opcode == 1:    # exit, init never leaves
            candidates = [p for p in self.live if p != 1]
            if candidates:
                victim = candidates[a % len(candidates)]
                self.live.remove(victim)
                self.sockets = [(s, o) for s, o in self.sockets if o != victim]
                self.emit(victim, "exit")
        elif opcode == 2:    # socket_open
            if self.mode == "benign" and self.exes[pid] not in BOOT_BINS:
                self.emit(pid, "sched_tick")
                return
            proto = "tcp" if (c == 0 or self.mode == "benign") else "udp"
            sock = self.next_sock
            self.next_sock += 1
            self.sockets.append((sock, pid))
            self.emit(pid, "socket_open", sock,
                      f"10.0.0.1:{5000 + sock}", f"10.0.0.9:{80 + b}", proto)
        elif opcode == 3:    # sock_send to a peer
            usable = [(s, o) for s, o in self.sockets if o in self.live]
            if usable:
                sock, owner = usable[a % len(usable)]
                peer = self.pick_pid(b)
                self.emit(owner, "sock_send", sock, 10 + b, peer)
        elif opcode == 4:    # sock_recv from a peer
            usable = [(s, o) for s, o in self.sockets if o in self.live]
            if usable:
                sock, owner = usable[a % len(usable)]
                peer = self.pick_pid(b)
                self.emit(owner, "sock_recv", sock, 10 + b, peer)
        elif opcode == 5:    # create a file (sometimes executable)
            path = self.fresh_path(b)
            self.add_node(path, "file", c == 1)
            self.emit(pid, "create", path, c)
        elif opcode == 6:    # write an existing file
            entry = self.pick_file(b, self.writable())
            if entry:
                self.emit(pid, "open_write", entry["path"])
        elif opcode == 7:    # read an existing file
            entry = self.pick_file(b)
            if entry:
                self.emit(pid, "open_read", entry["path"])
        elif opcode == 8:    # chmod a generated file
            entry = self.pick_file(b, self.regular())
            if entry:
                entry["exec"] = c == 1
                self.emit(pid, "chmod", entry["path"], c)
        elif opcode == 9:    # exec a known-executable image
            pool = [{"path": p} for p in BOOT_BINS] + \
                   [f for f in self.regular() if f["exec"]]
            entry = pool[b % len(pool)]
            self.exes[pid] = entry["path"]
            self.emit(pid, "execve", entry["path"])
        elif opcode == 10:   # pipe message
            self.emit(pid, "pipe", self.pick_pid(b))
        elif opcode == 11:   # shared memory attach
            self.emit(pid, "shmat", self.pick_pid(b))
        elif opcode == 12:   # message-queue receive
            self.emit(pid, "msgrcv", self.pick_pid(b))
        elif opcode == 13:   # named pipe
            path = self.fresh_path(b, "p")
            self.add_node(path, "fifo")
            self.emit(pid, "mkfifo", path)
        elif opcode == 14:
            self.emit(pid, "brk_alloc", 20 + 10 * b)
        elif opcode == 15:
            self.emit(pid, "sched_tick")
        elif opcode == 16:
            self.emit(pid, "disk_alloc", 5 + b)
        elif opcode == 17:   # label administration
            entry = self.pick_file(b)
            if entry:
                flag = "conf" if c == 0 else "leak"
                self.emit(pid, "set_stbac_attr", entry["path"], flag, a % 2)
        elif opcode == 18:   # kill / ptrace, no structural effect
            target = self.pick_pid(b)
            self.emit(pid, "kill" if c == 0 else "ptrace", target)
        elif opcode == 19:   # load a library image
            pool = [{"path": p} for p in BOOT_FILES] + self.regular()
            entry = self.pick_file(b, pool)
            if entry:
                self.emit(pid, "mmap_exec", entry["path"])
        elif opcode == 20:   # the other process-creating calls
            self.spawn(pid, "vfork" if c == 0 else "clone")
        elif opcode == 21:   # content and owner changes
            entry = self.pick_file(b, self.writable())
            if entry and c == 0:
                self.emit(pid, "truncate", entry["path"])
            elif entry:
                self.emit(pid, "chown", entry["path"], b)
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
                path = self.fresh_path(b, "d")
                self.add_node(path, "dir")
                self.emit(pid, "mkdir", path)
            else:
                kind = MKNOD_KINDS[b % len(MKNOD_KINDS)]
                path = self.fresh_path(b, "n")
                self.add_node(path, kind)
                self.emit(pid, "mknod", path, kind)
        elif opcode == 24:   # unlink a file, remove an empty directory
            if c == 0:
                pool = [n for n in self.nodes if n["kind"] != "dir"]
            else:
                pool = [n for n in self.nodes if n["kind"] == "dir" and not any(
                    m["path"].startswith(n["path"] + "/") for m in self.nodes)]
            entry = self.pick_file(b, pool)
            if entry:
                self.nodes.remove(entry)
                self.emit(pid, "unlink" if c == 0 else "rmdir", entry["path"])
        elif opcode == 25:   # rename to a fresh name or onto an existing file
            src = self.pick_file(b, self.nodes)
            if src is None:
                return
            if c == 0:
                dst = self.fresh_path(a, "r", outside=src["path"])
            else:
                pool = [n for n in self.nodes if n["kind"] != "dir"
                        and not self.within(n["path"], src["path"])]
                target = self.pick_file(a, pool)
                if target is None:
                    return
                self.nodes.remove(target)
                dst = target["path"]
            old = src["path"]
            for node in self.nodes:
                if self.within(node["path"], old):
                    node["path"] = dst + node["path"][len(old):]
            self.emit(pid, "rename", old, dst)


def build_trace(intents, mode: str = "full") -> tuple[str, str]:
    """Resolve intents into (trace text, trust list text)."""
    resolver = _Resolver(mode)
    for intent in intents:
        resolver.resolve(intent)
    trust = TRUST_BENIGN if mode == "benign" else TRUST_FULL
    return "\n".join(resolver.lines) + "\n", trust


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
