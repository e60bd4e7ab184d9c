"""Independent brute-force verifiers for the rule engine.

One structural walker, _walk, replays the allowed events of a trace over a
_Structure (paths, exec bits, fifos, pids, protected cells) rebuilt from
the boot config and the raw trace alone, and yields for each event the
flow facts it implies, judged against its caller's sets of low (tainted)
pids and cells.  The structure keeps its own child index, so a rename
costs the size of the moved subtree; nothing of it comes from the world.
The facts are:

* _READ: a pid that low input must lower (an untrusted endpoint, an IPC
  message from a low process, executing or loading a low file);
* _EXEC: a pid that must be low because it comes from a low source (a
  child of a low process, an exec of a low file or by a low process);
* _PRODUCE: a cell that a low writer must lower (an executable it
  created, wrote or made executable);
* _EXCEPTION: a low write to a non-executable, carrying its exception
  text and the violation text that applies if the object is protected;
* _MARK: an administrative taint mark.

taint_closure folds the facts into its own low sets: plain forward
reachability that shares no code with the taint rule module, which
diff_taint compares with the engine's tainted sets.  Trusted endpoints are
matched by the oracle's own reading of the trust entries, so nothing here
comes from the engine, the rule modules or the guard.  check_biba checks the
same facts against the engine's audited flag changes, verifying the
low-water-mark integrity conditions (two levels: tainted entities are low,
everything else is high).

Denied events contribute no edges and no structure on either side: the
engine applies nothing on a denial, so equivalence is judged over the
allowed events only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import INTE, TAINT, TraceError, ascii_int, is_ascii_int
from .world import InitConfig, parent_of


_REGULAR = ("file", "fifo")     # the kinds whose exec bits count


class _Cell:
    """One live filesystem object, tracked by identity independently of the
    engine; kind is "dir", "file", "device" or "fifo"."""

    __slots__ = ("path", "kind", "exec_bits")

    def __init__(self, path: str, kind: str, exec_bits: bool):
        self.path = path
        self.kind = kind
        self.exec_bits = exec_bits

    @property
    def executable(self) -> bool:
        """Exec bits count only on regular files (fifos included)."""
        return self.exec_bits and self.kind in _REGULAR


class _Structure:
    """Structural shadow of a replay: paths, exec bits, fifos, pids, protection.

    Rebuilt from the boot config and the raw trace only; never from engine
    state.  kids is the oracle's own child index: each directory cell maps
    to its child cells, so a rename visits the moved subtree only.  A cell
    whose parent path holds no directory (possible only in a trace the
    engine would reject) is in no kids entry and moves with no rename.
    """

    def __init__(self, config: InitConfig):
        self.cells = {}          # path -> _Cell
        self.kids = {}           # directory _Cell -> {child _Cell: None}, in insertion order
        self.live_pids = {1}
        self.exe_paths = {1: "-"}
        self.fifo_msgs = {}      # _Cell -> [(writer pid, low at write)]
        self.protected = set()   # INTE cells
        self.add_cell("/", "dir", False, None)
        for path, kind, exec_bits in config.nodes:
            parent_path = parent_of(path)
            parent = self.cells.get(parent_path)
            if parent is None:
                parent = self._make_dirs(parent_path)
            self.add_cell(path, kind, exec_bits, parent)
        for bit, path in config.marks:
            if bit == INTE and path in self.cells:
                self.protected.add(self.cells[path])

    def _make_dirs(self, path: str) -> _Cell:
        """Create the missing directory cell at a boot path and every missing
        one above it, as the boot config allows; the cell at path."""
        missing = []
        parent = None
        while parent is None:
            missing.append(path)
            path = parent_of(path)
            parent = self.cells.get(path)
        for dir_path in reversed(missing):
            parent = self.add_cell(dir_path, "dir", False, parent)
        return parent

    def add_cell(self, path: str, kind: str, exec_bits: bool,
                 parent: _Cell | None) -> _Cell:
        """Put a cell at path, replacing any there, and list it under parent
        (the cell at its parent path, or None) if that is a directory."""
        cell = _Cell(path, kind, exec_bits)
        if self.cells.setdefault(path, cell) is not cell:
            self.remove(path)
            self.cells[path] = cell
        siblings = self.kids.get(parent)
        if siblings is not None:
            siblings[cell] = None
        if kind == "dir":
            self.kids[cell] = {}
        return cell

    def create(self, path: str, kind: str, exec_bits: bool = False) -> _Cell:
        """The cell an event makes; it inherits protection from its directory."""
        parent = self.cells.get(parent_of(path))
        cell = self.add_cell(path, kind, exec_bits, parent)
        if parent in self.protected:
            self.protected.add(cell)
        return cell

    def chmod(self, cell: _Cell, bit: str) -> bool:
        """Apply a chmod to a regular file; True if it set the exec bits."""
        if cell.kind not in _REGULAR:
            return False
        became_set = bit == "1" and not cell.exec_bits
        cell.exec_bits = bit == "1"
        return became_set

    def remove(self, path: str):
        cell = self.cells.pop(path, None)
        if cell is not None:
            self.fifo_msgs.pop(cell, None)
            self.kids.pop(cell, None)
            siblings = self.kids.get(self.cells.get(parent_of(path)))
            if siblings is not None:
                siblings.pop(cell, None)

    def rename(self, src: str, dst: str):
        """Move the cell at src, and its subtree, to dst, replacing dst.  A
        rename of "/", or onto or into its own subtree, changes nothing."""
        if src == "/" or dst == src or dst.startswith(src + "/"):
            return
        self.remove(dst)
        cell = self.cells.get(src)
        if cell is None:
            return
        siblings = self.kids.get(self.cells.get(parent_of(src)))
        if siblings is not None:
            siblings.pop(cell, None)
        moved = [cell]              # the subtree, parents before children
        for member in moved:
            moved.extend(self.kids.get(member, ()))
        for member in moved:
            del self.cells[member.path]
        siblings = self.kids.get(self.cells.get(parent_of(dst)))
        if siblings is not None:
            siblings[cell] = None
        for member in moved:
            member.path = dst + member.path[len(src):]
            if member.path in self.cells:     # left below dst by a rejected trace
                self.remove(member.path)
            self.cells[member.path] = member


def _int(token: str, ev) -> int:
    """An integer field, ASCII digits only, as the engine reads it."""
    try:
        return ascii_int(token)
    except ValueError:
        raise TraceError(f"not an integer: {token!r}", ev.line) from None


def _endpoint(token: str, ev) -> tuple:
    ip, colon, port = token.rpartition(":")
    if not ip or not colon or not is_ascii_int(port, signed=False):
        raise TraceError(f"bad endpoint {token!r}", ev.line)
    try:
        return (ip, int(port))
    except ValueError:          # more digits than int() converts
        raise TraceError(f"not an integer: {port!r}", ev.line) from None


def _trusted(trust, program: str, local: tuple, remote: tuple, proto: str,
             tick: int) -> bool:
    """Whether a trust entry covers a socket: the oracle's own reading of
    the TrustEntry fields, with "*" matching any IP or port."""
    return any(entry.program == program and entry.proto == proto
               and _covers(entry.local_ip, entry.local_port, local)
               and _covers(entry.remote_ip, entry.remote_port, remote)
               and entry.tick_from <= tick <= entry.tick_to
               for entry in trust)


def _covers(ip_pattern: str, port_pattern: str, endpoint: tuple) -> bool:
    ip, port = endpoint
    # A port pattern is ASCII digits of any length; compare it as a number
    # ("022" is 22) without int(), which refuses very long digit strings.
    return (ip_pattern in ("*", ip)
            and port_pattern in ("*", str(port).zfill(len(port_pattern))))


# Flow facts are (kind, target, detail) triples; see the module docstring.
_READ = 1          # target pid; detail: the reason
_EXEC = 2          # target pid; detail: the reason
_PRODUCE = 4       # target cell; detail: the reason
_EXCEPTION = 8     # target cell; detail: (exception text or None, violation text)
_MARK = 16         # target pid or cell; detail: True to mark, False to clear

_REDIRECTABLE = ("open_read", "open_write", "chmod", "fchmod", "truncate")


def _walk(struct: _Structure, trust, events, denied, redirects, low_pids, low_cells):
    """Apply each allowed event to struct; yield (index, event, facts) for
    every event, with facts None for a denied one.

    Lowness is read from the caller's sets as they stand when the event is
    reached, so a caller that folds an event's facts into them between
    events sees its own levels; a fifo message records whether its writer
    was low when it wrote.
    """
    for index, ev in enumerate(events):
        if index in denied:
            yield index, ev, None
            continue
        op, args, pid = ev.op, ev.args, ev.pid
        if index in redirects and op in _REDIRECTABLE:
            args = (redirects[index],) + args[1:]
        pid_low = pid in low_pids
        facts = []
        if op in ("fork", "vfork", "clone"):
            child = _int(args[0], ev)
            struct.live_pids.add(child)
            struct.exe_paths[child] = struct.exe_paths.get(pid, "-")
            if pid_low:
                facts.append((_READ | _EXEC, child, f"child of low pid {pid}"))
        elif op == "exit":
            struct.live_pids.discard(pid)
        elif op == "pipe":
            reader = _int(args[0], ev)
            if pid_low:
                facts.append((_READ, reader, f"pipe from low pid {pid}"))
        elif op == "shmat":
            peer = _int(args[0], ev)
            if pid_low:
                facts.append((_READ, peer, f"shared memory with low pid {pid}"))
            if peer in low_pids:
                facts.append((_READ, pid, f"shared memory with low pid {peer}"))
        elif op == "msgrcv":
            if _int(args[0], ev) in low_pids:
                facts.append((_READ, pid, f"message from low pid {args[0]}"))
        elif op == "socket_open":
            local, remote = _endpoint(args[1], ev), _endpoint(args[2], ev)
            if not _trusted(trust, struct.exe_paths.get(pid, "-"), local, remote,
                            args[3], ev.tick):
                facts.append((_READ, pid, "untrusted endpoint"))
        elif op in ("sock_send", "sock_recv") and len(args) == 3:
            peer = _int(args[2], ev)
            source, sink = (pid, peer) if op == "sock_send" else (peer, pid)
            if source in low_pids:
                facts.append((_READ, sink, f"local socket from low pid {source}"))
        elif op in ("create", "mkdir", "mkfifo", "mknod"):
            path = args[0]
            if op == "create":
                cell, noun = struct.create(path, "file", args[1] == "1"), "non-executable"
            elif op == "mkdir":
                cell, noun = struct.create(path, "dir"), "directory"
            else:
                kind = "fifo" if op == "mkfifo" else args[1]
                cell = struct.create(path, kind if kind in ("fifo", "device") else "file")
                noun = "special file"
            if pid_low and cell.executable:
                facts.append((_PRODUCE, cell, f"low pid {pid} created executable"))
            elif pid_low:
                facts.append((_EXCEPTION, cell, (
                    f"{noun} {path}",
                    f"allowed creation in protected directory {parent_of(path)}")))
        elif op == "open_write":
            cell = struct.cells.get(args[0])
            if cell is not None and cell.kind != "dir":
                if cell.kind == "fifo":
                    struct.fifo_msgs.setdefault(cell, []).append((pid, pid_low))
                if pid_low and cell.executable:
                    facts.append((_PRODUCE, cell, f"low pid {pid} wrote executable"))
                elif pid_low:
                    facts.append((_EXCEPTION, cell, (
                        f"non-executable {args[0]}", f"allowed write to protected {args[0]}")))
        elif op == "truncate":
            cell = struct.cells.get(args[0])
            if cell is not None and pid_low and not cell.executable:
                facts.append((_EXCEPTION, cell, (
                    f"non-executable {args[0]}", f"allowed truncate of protected {args[0]}")))
        elif op in ("chmod", "fchmod"):
            cell = struct.cells.get(args[0])
            if cell is not None and cell.kind != "dir":
                became_set = struct.chmod(cell, args[1])
                if pid_low and became_set:
                    facts.append((_PRODUCE, cell, f"low pid {pid} made {args[0]} executable"))
                elif pid_low and not cell.executable:
                    facts.append((_EXCEPTION, cell, (
                        None, f"allowed chmod of protected {args[0]}")))
        elif op == "open_read":
            cell = struct.cells.get(args[0])
            if cell is not None and cell.kind == "fifo":
                senders = [w for w, low in struct.fifo_msgs.pop(cell, ()) if low]
                if senders:
                    facts.append((_READ, pid, f"fifo message from low pid {senders[0]}"))
        elif op == "execve":
            struct.exe_paths[pid] = args[0]
            if struct.cells.get(args[0]) in low_cells:
                facts.append((_READ | _EXEC, pid, f"exec of low file {args[0]}"))
            if pid_low:
                facts.append((_EXEC, pid, f"low pid {pid} after exec"))
        elif op == "mmap_exec":
            if struct.cells.get(args[0]) in low_cells:
                facts.append((_READ, pid, f"load of low file {args[0]}"))
        elif op in ("unlink", "rmdir"):
            struct.remove(args[0])
        elif op == "rename":
            struct.rename(args[0], args[1])
        elif op == "set_stbac_attr":
            target, flag_name, value = args
            if target.startswith("pid:"):
                marked = _int(target[4:], ev)
            else:
                marked = struct.cells.get(target)
            if flag_name == "taint" and marked is not None:
                facts.append((_MARK, marked, value == "1"))
        yield index, ev, facts


def _access_verdicts(records) -> tuple:
    """(denied event indexes, event index -> substitute path for accesses the
    guard redirected), from an audit."""
    denied, redirects = set(), {}
    for index, record in enumerate(records):
        if record.denied:
            denied.add(index)
        elif record.result.startswith("ALLOW_REDIR("):
            redirects[index] = record.result[len("ALLOW_REDIR("):-1]
    return denied, redirects


def taint_closure(config: InitConfig, trust, events, denied=frozenset(),
                  redirects=None):
    """Tainted entities after each event, by direct forward reachability.

    Seeds are processes that open endpoints matching no trusted entry
    (plus explicit administrative taint marks); taint then follows process
    creation, IPC message delivery, writes that leave executables behind,
    and execution or loading of tainted files.  Events whose index is in
    ``denied`` contribute nothing; events in ``redirects`` act on the
    substitute path.  Both come from the audit, matching the engine's own
    access verdicts.  Returns one frozenset per event of ("proc", pid) /
    ("file", path) labels for live entities.
    """
    struct = _Structure(config)
    low_pids = set()
    low_cells = set()
    snapshots = []
    for _, _, facts in _walk(struct, trust, events, denied, redirects or {},
                             low_pids, low_cells):
        for kind, target, detail in facts or ():
            if kind & (_READ | _EXEC):
                low_pids.add(target)
            elif kind == _PRODUCE:
                low_cells.add(target)
            elif kind == _MARK:
                low = low_pids if isinstance(target, int) else low_cells
                low.add(target) if detail else low.discard(target)
        snapshots.append(_closure_snapshot(struct, low_pids, low_cells))
    return snapshots


def _closure_snapshot(struct: _Structure, low_pids, low_cells) -> frozenset:
    """Labels of the live low entities; a removed cell stays in low_cells but
    is no longer the cell at its path."""
    out = {("proc", pid) for pid in low_pids if pid in struct.live_pids}
    out |= {("file", cell.path) for cell in low_cells
            if struct.cells.get(cell.path) is cell}
    return frozenset(out)


@dataclass
class Divergence:
    index: int
    tick: int
    missing: frozenset    # oracle has them, engine does not
    extra: frozenset      # engine has them, oracle does not

    def describe(self) -> str:
        parts = [f"event {self.index} (tick {self.tick}):"]
        if self.missing:
            parts.append("engine missing " + _format_labels(self.missing))
        if self.extra:
            parts.append("engine extra " + _format_labels(self.extra))
        return " ".join(parts)


def _format_labels(labels) -> str:
    return ",".join(f"{kind}:{ident}" for kind, ident in sorted(labels))


def diff_taint(engine_sets, oracle_sets, events=None) -> list:
    """Per-event differences between engine and oracle tainted sets; empty
    means full agreement."""
    out = []
    for index in range(max(len(engine_sets), len(oracle_sets))):
        engine = engine_sets[index] if index < len(engine_sets) else frozenset()
        oracle = oracle_sets[index] if index < len(oracle_sets) else frozenset()
        if engine != oracle:
            tick = events[index].tick if events and index < len(events) else -1
            out.append(Divergence(index, tick, oracle - engine, engine - oracle))
    return out


def closure_from_replay(config: InitConfig, trust, events, records):
    """Convenience: the oracle closure with the audit's access verdicts."""
    return taint_closure(config, trust, events, *_access_verdicts(records))


# -- low-water-mark integrity conditions ---------------------------------------

@dataclass
class ConditionReport:
    name: str
    violations: list = field(default_factory=list)
    exceptions: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class BibaReport:
    """Findings for the three two-level low-water-mark conditions.

    Reads/receives of low input must lower the consumer (condition on
    reads), writes must lower what low subjects produce - checked for
    executables, with non-executable writes listed as the documented
    exception and allowed writes to protected non-executables flagged as
    violations (condition on writes) - and processes created or exec'd
    from low sources must be low (condition on invocation).
    """

    cond_read: ConditionReport
    cond_write: ConditionReport
    cond_exec: ConditionReport

    def all_passed(self) -> bool:
        return (self.cond_read.passed and self.cond_write.passed
                and self.cond_exec.passed)

    def summary_lines(self) -> list:
        out = []
        for report in (self.cond_read, self.cond_write, self.cond_exec):
            status = "PASS" if report.passed else "FAIL"
            extra = ""
            if report.exceptions:
                extra = f" ({len(report.exceptions)} non-executable-write exceptions)"
            out.append(f"{report.name}: {status}{extra}")
            out.extend(f"  violation: {v}" for v in report.violations)
        return out


def check_biba(config: InitConfig, trust, events, records) -> BibaReport:
    """Check the three conditions against an engine audit of the same trace.

    The subject/object levels come from the engine's own flag timeline
    (boot marks plus per-event flag changes in the audit); the structure
    (paths, exec bits, fifos) is rebuilt independently from the trace.
    Low input means: an untrusted endpoint, an IPC message from a low
    process, or executing/loading a low file.  Plain data reads are not
    low input; that is exactly the concession the write condition records
    through its exception list.
    """
    if len(events) != len(records):
        raise ValueError(f"audit has {len(records)} records for {len(events)} events")
    struct = _Structure(config)
    low_pids = set()
    low_cells = set()
    cond_read = ConditionReport("low-input consumers become low")
    cond_write = ConditionReport("low writers lower what they produce")
    cond_exec = ConditionReport("processes from low sources are low")

    for index, ev, facts in _walk(struct, trust, events, *_access_verdicts(records),
                                  low_pids, low_cells):
        if facts is None:
            continue
        where = f"event {index} ({ev.op}, tick {ev.tick})" if facts else ""
        # Exceptions and protected-object violations judge the levels before
        # this event's engine-reported flag changes; the demands, after.
        for kind, target, detail in facts:
            if kind == _EXCEPTION:
                exception, violation = detail
                if exception:
                    cond_write.exceptions.append(f"{where}: {exception}")
                if target in struct.protected:
                    cond_write.violations.append(f"{where}: {violation}")
        for change in records[index].flag_changes:
            kind, ident = change.entity
            if change.flag == TAINT and kind == "proc":
                low_pids.add(ident) if change.on else low_pids.discard(ident)
            elif kind == "file" and change.flag in (TAINT, INTE):
                cells = low_cells if change.flag == TAINT else struct.protected
                cell = struct.cells.get(ident)
                if cell is not None:
                    cells.add(cell) if change.on else cells.discard(cell)
        for kind, target, reason in facts:
            if kind & _READ and target not in low_pids:
                cond_read.violations.append(f"{where}: {reason} did not lower the consumer")
            if kind & _EXEC and target not in low_pids:
                cond_exec.violations.append(f"{where}: {reason} is not low")
            if kind == _PRODUCE and target not in low_cells:
                cond_write.violations.append(f"{where}: {reason} but the file is not low")

    return BibaReport(cond_read, cond_write, cond_exec)
