"""Independent brute-force verifiers for the rule engine.

One plain function, _facts, applies an allowed event of a trace to a
_Structure (paths, exec bits, pids, protected cells) rebuilt from the boot
config and the raw trace alone, and returns the flow facts the event
implies.  The structure keeps its own child index, so a rename costs the
size of the moved subtree; nothing of it comes from the world.

A fact is (kind, target, source, detail).  It names its source entity
instead of judging it ("child of pid P", not "child of a low pid"), so one
structure serves any view of which entities are low: a fact holds in a view
where its source is low, and a source of None always holds.  The kinds:

* _READ: a pid that low input must lower (an untrusted endpoint, an IPC
  message from a pid, executing or loading a file);
* _EXEC: a pid that must be low when its source is (a child of a pid, an
  exec of a file, or the pid itself across its exec);
* _PRODUCE: a cell its writer must lower (an executable it created,
  wrote or made executable);
* _EXCEPTION: a write to a non-executable, carrying its exception text
  and the violation text that applies if the object is protected;
* _SEND and _RECV: a message a pid wrote into a fifo, and a read that
  delivers the fifo's messages, which is low input if one was low when
  it was written;
* _MARK: an administrative taint mark;
* _EXIT: a pid exited; each view drops it from its low sets;
* _TREE: a path op ran; it moves the live cells under a view's low sets
  without changing the sets.

The one pass, OnePass, builds one structure and steps one event and its
audit record at a time, as the engine's _Replayer steps one event, handing
the event's facts to two folds; cli.check_replay, which `stbac check` and
the differential tests run, calls the two steps in one loop and keeps no
event or record.  Each fold judges lowness in its own view and keeps its
own record of which fifo messages were low:

* the closure fold: plain forward reachability over the oracle's own low
  sets, sharing no code with the taint rule module.  It keeps the labels
  of the live low cells beside the sets and returns each event's flips of
  the live low labels, (label, entered) in order: a pid's label enters
  when the pid becomes low and leaves when it exits or its mark is
  cleared, a cell's label enters when a live cell becomes low, and a path
  op while some cell is low re-scans the low cells' labels.  So an event
  costs the facts it brings, plus the low cells where a path op ran, not
  the size of the low sets;
* the Biba fold: the low-water-mark integrity conditions (two levels:
  tainted entities are low, everything else is high), judged against the
  levels the engine's audit reports in its flag changes.

TaintDiff compares the closure with the engine's tainted sets one event
at a time through their flips: it keeps the labels only the oracle holds
(missing) and those only the engine holds (extra) current, one flip at a
time, so an event costs the flips the two sides made.  An event diverges
while either is non-empty; TaintDiff counts every diverging event and
keeps the first few.  Trusted endpoints are matched by the oracle's own
reading of the trust entries, so nothing here comes from the engine, the
rule modules or the guard.

OnePass.step reads each event's access verdict off its audit record: a
denied event adds no facts and no structure, since the engine applies
nothing on a denial, and an ALLOW_REDIR(copy) makes the access act on the
copy.  A record whose tick, pid or op is not its event's is refused with
ValueError.  verify_replay and diff_taint collect the pass and the
comparison over whole lists of tainted sets, one frozenset per event, and
closure_from_replay and check_biba are views of verify_replay.
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
    """Structural shadow of a replay: paths, exec bits, pids, protection.

    Rebuilt from the boot config and the raw trace only; never from engine
    state.  kids is the oracle's own child index: each directory cell maps
    to its child cells, so a rename visits the moved subtree only.  A cell
    whose parent path holds no directory (possible only in a trace the
    engine would reject) is in no kids entry and moves with no rename.

    The boot tree is built in one pass over the config's node lines, in
    file order, with add_cell's work done inline: each cell's parent path
    is cut off its own path, missing directories above it are made first,
    and a cell that lands on a taken path replaces the cell there.  Nothing
    of it is shared with the world's boot.
    """

    def __init__(self, config: InitConfig):
        self.cells = {}          # path -> _Cell
        self.kids = {}           # directory _Cell -> {child _Cell: None}, in insertion order
        self.exe_paths = {1: "-"}    # live pid -> its image's path
        self.protected = set()   # INTE cells
        cells, kids = self.cells, self.kids
        self.add_cell("/", "dir", False, None)
        for path, kind, exec_bits, _ in config.nodes:
            parent_path = path.rpartition("/")[0] or "/"
            parent = cells.get(parent_path)
            if parent is None:
                parent = self._make_dirs(parent_path)
            cell = _Cell(path, kind, exec_bits)
            if cells.setdefault(path, cell) is not cell:
                self.remove(path)
                cells[path] = cell
            siblings = kids.get(parent)
            if siblings is not None:
                siblings[cell] = None
            if kind == "dir":
                kids[cell] = {}
        for bit, path, _ in config.marks:
            if bit == INTE and path in cells:
                self.protected.add(cells[path])

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


# Flow facts are (kind, target, source, detail); see the module docstring.
# A reason is a tuple (template, *args), formatted only when a finding
# cites it.
_READ = 1          # target pid; source pid, cell or None; detail: the reason
_EXEC = 2          # target pid; source pid or cell; detail: the reason
_PRODUCE = 4       # target cell; source: the writer pid; detail: the reason
_EXCEPTION = 8     # target cell; source: the writer pid;
                   # detail: (exception reason or None, violation reason)
_SEND = 16         # target: a fifo cell; source: the writer pid
_RECV = 32         # target: the reader pid; source: a fifo cell
_MARK = 64         # target pid or cell; detail: True to mark, False to clear
_EXIT = 128        # target: a pid that exited
_TREE = 256        # a path op ran

_DEMANDS = _READ | _EXEC | _PRODUCE
_TREE_FACT = (_TREE, None, None, None)

_REDIRECTABLE = ("open_read", "open_write", "chmod", "fchmod", "truncate")


def _facts(struct: _Structure, trust, ev, args) -> list:
    """Apply one allowed event to struct, with args for the event's own
    (the copy of a redirected access in place of its first); the flow
    facts it implies."""
    op, pid = ev.op, ev.pid
    facts = []
    if op in ("fork", "vfork", "clone"):
        child = _int(args[0], ev)
        struct.exe_paths[child] = struct.exe_paths.get(pid, "-")
        facts.append((_READ | _EXEC, child, pid, ("child of low pid {}", pid)))
    elif op == "exit":
        struct.exe_paths.pop(pid, None)
        facts.append((_EXIT, pid, None, None))
    elif op == "pipe":
        reader = _int(args[0], ev)
        facts.append((_READ, reader, pid, ("pipe from low pid {}", pid)))
    elif op == "shmat":
        peer = _int(args[0], ev)
        facts.append((_READ, peer, pid, ("shared memory with low pid {}", pid)))
        facts.append((_READ, pid, peer, ("shared memory with low pid {}", peer)))
    elif op == "msgrcv":
        facts.append((_READ, pid, _int(args[0], ev), ("message from low pid {}", args[0])))
    elif op == "socket_open":
        local, remote = _endpoint(args[1], ev), _endpoint(args[2], ev)
        if not _trusted(trust, struct.exe_paths.get(pid, "-"), local, remote,
                        args[3], ev.tick):
            facts.append((_READ, pid, None, ("untrusted endpoint",)))
    elif op in ("sock_send", "sock_recv") and len(args) == 3:
        peer = _int(args[2], ev)
        source, sink = (pid, peer) if op == "sock_send" else (peer, pid)
        facts.append((_READ, sink, source, ("local socket from low pid {}", source)))
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
        if cell.executable:
            facts.append((_PRODUCE, cell, pid, ("low pid {} created executable", pid)))
        else:
            facts.append((_EXCEPTION, cell, pid, (
                ("{} {}", noun, path),
                ("allowed creation in protected directory {}", parent_of(path)))))
        facts.append(_TREE_FACT)
    elif op == "open_write":
        cell = struct.cells.get(args[0])
        if cell is not None and cell.kind != "dir":
            if cell.kind == "fifo":
                facts.append((_SEND, cell, pid, None))
            if cell.executable:
                facts.append((_PRODUCE, cell, pid, ("low pid {} wrote executable", pid)))
            else:
                facts.append((_EXCEPTION, cell, pid, (
                    ("non-executable {}", args[0]),
                    ("allowed write to protected {}", args[0]))))
    elif op == "truncate":
        cell = struct.cells.get(args[0])
        if cell is not None and not cell.executable:
            facts.append((_EXCEPTION, cell, pid, (
                ("non-executable {}", args[0]),
                ("allowed truncate of protected {}", args[0]))))
    elif op in ("chmod", "fchmod"):
        cell = struct.cells.get(args[0])
        if cell is not None and cell.kind != "dir":
            if struct.chmod(cell, args[1]):
                facts.append((_PRODUCE, cell, pid,
                              ("low pid {} made {} executable", pid, args[0])))
            elif not cell.executable:
                facts.append((_EXCEPTION, cell, pid, (
                    None, ("allowed chmod of protected {}", args[0]))))
    elif op == "open_read":
        cell = struct.cells.get(args[0])
        if cell is not None and cell.kind == "fifo":
            facts.append((_RECV, pid, cell, None))
    elif op == "execve":
        struct.exe_paths[pid] = args[0]
        cell = struct.cells.get(args[0])
        if cell is not None:
            facts.append((_READ | _EXEC, pid, cell, ("exec of low file {}", args[0])))
        facts.append((_EXEC, pid, pid, ("low pid {} after exec", pid)))
    elif op == "mmap_exec":
        cell = struct.cells.get(args[0])
        if cell is not None:
            facts.append((_READ, pid, cell, ("load of low file {}", args[0])))
    elif op in ("unlink", "rmdir"):
        struct.remove(args[0])
        facts.append(_TREE_FACT)
    elif op == "rename":
        struct.rename(args[0], args[1])
        facts.append(_TREE_FACT)
    elif op == "set_stbac_attr":
        target, flag_name, value = args
        if target.startswith("pid:"):
            marked = _int(target[4:], ev)
        else:
            marked = struct.cells.get(target)
        if flag_name == "taint" and marked is not None:
            facts.append((_MARK, marked, None, value == "1"))
    return facts


def _text(reason: tuple) -> str:
    template, *args = reason
    return template.format(*args)


def _where(index: int, ev) -> str:
    return f"event {index} ({ev.op}, tick {ev.tick})"


class _ClosureFold:
    """The oracle's own low sets, grown by every flow fact whose source they
    hold, and the labels of the live low cells (a low pid's label is
    ("proc", pid), live while the pid is in low_pids)."""

    def __init__(self, struct: _Structure):
        self.struct = struct
        self.low_pids = set()
        self.low_cells = set()
        self.cell_labels = set()     # ("file", path) of each live low cell
        self.fifo_low = {}           # fifo cell -> low writers of its pending messages

    def step(self, facts) -> list:
        """Fold one event's facts (None for a denied event); the event's
        flips of the live low labels, (label, entered) in order."""
        if not facts:
            return ()
        flips = []
        low_pids, low_cells = self.low_pids, self.low_cells
        cells = self.struct.cells
        moved = False
        for kind, target, source, detail in facts:
            if kind & _DEMANDS:
                if source is None or source in low_pids or source in low_cells:
                    if kind == _PRODUCE:
                        if target not in low_cells:
                            low_cells.add(target)
                            if cells.get(target.path) is target:
                                label = ("file", target.path)
                                self.cell_labels.add(label)
                                flips.append((label, True))
                    elif target not in low_pids:
                        low_pids.add(target)
                        flips.append((("proc", target), True))
            elif kind == _SEND:
                if source in low_pids:
                    self.fifo_low.setdefault(target, []).append(source)
            elif kind == _RECV:
                if self.fifo_low.pop(source, None) and target not in low_pids:
                    low_pids.add(target)
                    flips.append((("proc", target), True))
            elif kind == _MARK:
                if isinstance(target, int):
                    if detail != (target in low_pids):
                        low_pids.add(target) if detail else low_pids.discard(target)
                        flips.append((("proc", target), detail))
                else:
                    low_cells.add(target) if detail else low_cells.discard(target)
                    moved = True
            elif kind == _EXIT:
                if target in low_pids:
                    low_pids.remove(target)
                    flips.append((("proc", target), False))
            elif kind == _TREE:
                moved = moved or bool(low_cells)
        if moved:
            self._rescan_cells(flips)
        return flips

    def _rescan_cells(self, flips: list):
        """Re-label the low cells after a path op or a cell's mark, adding
        the flips to flips; a removed cell stays in low_cells but is no
        longer the cell at its path."""
        cells = self.struct.cells
        now = {("file", cell.path) for cell in self.low_cells
               if cells.get(cell.path) is cell}
        before = self.cell_labels
        flips += [(label, False) for label in before - now]
        flips += [(label, True) for label in now - before]
        self.cell_labels = now


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


class TaintDiff:
    """The comparison of the engine's tainted sets with the oracle's, fed
    one event's flips of each side at a time, each flip a (label, entered)
    pair that changed its side's set.  missing holds the labels only the
    oracle has, extra those only the engine has.  The oracle's closure
    starts empty, so before the first event missing is empty and extra is
    the engine's set then (engine_set); both move with each flip.  count is
    the number of events after which either is non-empty; divergences keeps
    the first `keep` of them (all without keep)."""

    def __init__(self, keep: int | None = None, engine_set=()):
        self.keep = keep
        self.events = 0              # events compared so far
        self.count = 0
        self.divergences = []
        self.missing = set()
        self.extra = set(engine_set)

    def add(self, tick: int, engine_flips, oracle_flips):
        missing, extra = self.missing, self.extra
        for label, entered in engine_flips:
            if entered:
                if label in missing:
                    missing.remove(label)
                else:
                    extra.add(label)
            elif label in extra:
                extra.remove(label)
            else:
                missing.add(label)
        # The oracle gaining a label moves the difference as the engine
        # losing it would, and the other way round.
        for label, entered in oracle_flips:
            if entered:
                if label in extra:
                    extra.remove(label)
                else:
                    missing.add(label)
            elif label in missing:
                missing.remove(label)
            else:
                extra.add(label)
        if missing or extra:
            self.count += 1
            if self.keep is None or len(self.divergences) < self.keep:
                self.divergences.append(Divergence(self.events, tick, frozenset(missing),
                                                   frozenset(extra)))
        self.events += 1


_NO_LABELS = frozenset()


def _flips(before: frozenset, after: frozenset) -> list:
    """The flips that turn the set before into the set after."""
    if after is before:
        return []
    return [(label, False) for label in before - after] + \
        [(label, True) for label in after - before]


def diff_taint(engine_sets, oracle_sets, events=None) -> list:
    """Every per-event difference between two lists of tainted sets, the
    shorter list read as empty sets past its end; empty means full
    agreement.  A collector over TaintDiff, fed the flips between
    consecutive sets of each list."""
    diff = TaintDiff()
    engine_before = oracle_before = _NO_LABELS
    for index in range(max(len(engine_sets), len(oracle_sets))):
        engine_now = engine_sets[index] if index < len(engine_sets) else _NO_LABELS
        oracle_now = oracle_sets[index] if index < len(oracle_sets) else _NO_LABELS
        diff.add(events[index].tick if events and index < len(events) else -1,
                 _flips(engine_before, engine_now), _flips(oracle_before, oracle_now))
        engine_before, oracle_before = engine_now, oracle_now
    return diff.divergences


# -- low-water-mark integrity conditions ---------------------------------------

KEPT_EXCEPTIONS = 20     # exception texts a condition keeps; it counts them all


@dataclass
class ConditionReport:
    name: str
    violations: list = field(default_factory=list)
    exceptions: list = field(default_factory=list)   # the first KEPT_EXCEPTIONS
    exception_count: int = 0

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
            if report.exception_count:
                extra = f" ({report.exception_count} non-executable-write exceptions)"
            out.append(f"{report.name}: {status}{extra}")
            out.extend(f"  violation: {v}" for v in report.violations)
        return out


class _BibaFold:
    """The three conditions, judged against the engine's levels: boot marks
    plus the flag changes its audit reports per event.  Low input means an
    untrusted endpoint, an IPC message from a low process, or
    executing/loading a low file.  Plain data reads are not low input; that
    is exactly the concession the write condition records through its
    exception list."""

    def __init__(self, struct: _Structure):
        self.struct = struct
        self.low_pids = set()
        self.low_cells = set()
        self.fifo_low = {}           # fifo cell -> low writers of its pending messages
        self.report = BibaReport(ConditionReport("low-input consumers become low"),
                                 ConditionReport("low writers lower what they produce"),
                                 ConditionReport("processes from low sources are low"))

    def step(self, index: int, ev, facts, flag_changes):
        """Judge one allowed event's facts.  Exceptions and protected-object
        violations judge the levels before the event's flag changes; the
        demands, after."""
        struct, low_pids, low_cells = self.struct, self.low_pids, self.low_cells
        cond_read, cond_write, cond_exec = (self.report.cond_read, self.report.cond_write,
                                            self.report.cond_exec)
        demands = []
        for kind, target, source, detail in facts:
            if kind & _DEMANDS:
                if source is None or source in low_pids or source in low_cells:
                    demands.append((kind, target, detail))
            elif kind == _EXCEPTION:
                if source in low_pids:
                    exception, violation = detail
                    if exception:
                        cond_write.exception_count += 1
                        if len(cond_write.exceptions) < KEPT_EXCEPTIONS:
                            cond_write.exceptions.append(f"{_where(index, ev)}: "
                                                         f"{_text(exception)}")
                    if target in struct.protected:
                        cond_write.violations.append(f"{_where(index, ev)}: "
                                                     f"{_text(violation)}")
            elif kind == _SEND:
                if source in low_pids:
                    self.fifo_low.setdefault(target, []).append(source)
            elif kind == _RECV:
                senders = self.fifo_low.pop(source, None)
                if senders:
                    demands.append((_READ, target,
                                    ("fifo message from low pid {}", senders[0])))
            elif kind == _EXIT:
                low_pids.discard(target)
        for change in flag_changes:
            kind, ident = change.entity
            if change.flag == TAINT and kind == "proc":
                low_pids.add(ident) if change.on else low_pids.discard(ident)
            elif kind == "file" and change.flag in (TAINT, INTE):
                cells = low_cells if change.flag == TAINT else struct.protected
                cell = struct.cells.get(ident)
                if cell is not None:
                    cells.add(cell) if change.on else cells.discard(cell)
        for kind, target, reason in demands:
            if kind & _READ and target not in low_pids:
                cond_read.violations.append(
                    f"{_where(index, ev)}: {_text(reason)} did not lower the consumer")
            if kind & _EXEC and target not in low_pids:
                cond_exec.violations.append(
                    f"{_where(index, ev)}: {_text(reason)} is not low")
            if kind == _PRODUCE and target not in low_cells:
                cond_write.violations.append(
                    f"{_where(index, ev)}: {_text(reason)} but the file is not low")


# -- the one pass and its views ----------------------------------------------

class OnePass:
    """The one pass: one _Structure feeds each allowed event's facts to the
    closure fold and the Biba fold.  step takes one event and its audit
    record, as _Replayer.step takes one event, so a caller steps the engine
    and the oracle in lockstep and keeps no event or record; report is the
    Biba report of the events stepped so far.

    The closure's sets are the tainted entities after each event, by direct
    forward reachability: seeds are processes that open endpoints matching
    no trusted entry (plus administrative taint marks); taint then follows
    process creation, IPC message delivery, writes that leave executables
    behind, and execution or loading of tainted files.  Each holds
    ("proc", pid) / ("file", path) labels for live entities, and step
    returns the event's flips of it, as the engine's world logs its own.

    The audit supplies the access verdicts, each read as its event is
    stepped, and the subject/object levels of the Biba conditions (boot
    marks plus per-event flag changes); the structure (paths, exec bits,
    fifos) is rebuilt independently from the trace.
    """

    def __init__(self, config: InitConfig, trust):
        self.trust = trust
        self.struct = _Structure(config)
        self.closure = _ClosureFold(self.struct)
        self.biba = _BibaFold(self.struct)
        self.report = self.biba.report
        self.events = 0              # events stepped so far

    def step(self, ev, record) -> list:
        """Step one event with its audit record; the event's flips of the
        closure's set, (label, entered) in order.
        A record whose tick, pid or op is not its event's raises ValueError."""
        index = self.events
        if record.tick != ev.tick or record.pid != ev.pid or record.op != ev.op:
            raise ValueError(f"audit record {index} ({record.op}, tick {record.tick}, "
                             f"pid {record.pid}) is not the record of event {index} "
                             f"({ev.op}, tick {ev.tick}, pid {ev.pid})")
        self.events = index + 1
        facts = None                 # a denied event adds none
        result = record.result
        if not result.startswith("DENY("):
            args = ev.args
            if result != "ALLOW" and ev.op in _REDIRECTABLE:     # ALLOW_REDIR(copy)
                args = (result[len("ALLOW_REDIR("):-1],) + args[1:]
            facts = _facts(self.struct, self.trust, ev, args)
            self.biba.step(index, ev, facts, record.flag_changes)
        return self.closure.step(facts)


def verify_replay(config: InitConfig, trust, events, records) -> tuple:
    """A collector over OnePass: the closure's set after each event, one
    frozenset per event that is the previous event's object when the event
    flipped nothing, and the BibaReport of an audit of the same events."""
    if len(records) != len(events):
        raise ValueError(f"audit has {len(records)} records for {len(events)} events")
    one_pass = OnePass(config, trust)
    live, now, sets = set(), _NO_LABELS, []
    for ev, record in zip(events, records):
        flips = one_pass.step(ev, record)
        if flips:
            for label, entered in flips:
                live.add(label) if entered else live.discard(label)
            now = frozenset(live)
        sets.append(now)
    return sets, one_pass.report


def closure_from_replay(config: InitConfig, trust, events, records) -> list:
    """The oracle closure with the audit's access verdicts."""
    return verify_replay(config, trust, events, records)[0]


def check_biba(config: InitConfig, trust, events, records) -> BibaReport:
    """Check the three conditions against an engine audit of the same trace."""
    return verify_replay(config, trust, events, records)[1]
