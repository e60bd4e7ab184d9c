"""Decision core: the three protection rules plus the two compatibility escapes.

Protection binds tainted subjects only.  Confidentiality denies their reads
of secret objects, integrity denies their writes to protected objects and
their dangerous privileged calls, availability caps their resource intake
against two high-water marks.  Trusted-endpoint matching and the
partial-copy map, parsed and checked here, keep legitimate remote
administration working.

The rules judge labels only, know no trace op and return only the shared
verdicts of model.  The engine decides what each op hands them: the node,
parent directory or process whose CONF or INTE bit it keys on, or no
target for the ops refused to every tainted subject.  The engine alone
redirects a denied access to a partial copy, and only while that copy is
valid (copy_fault) and the rule that denied the access allows it on the
copy: the CLI checks every copy at boot, and the engine checks the copy
of every redirect and asks the rule again on it.  copy_fault does not
refuse an INTE copy, which a read may still be redirected to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    ALLOW,
    CONF,
    DENY_AVAI,
    DENY_CONF,
    DENY_INTE,
    INTE,
    PROTOCOLS,
    TAINT,
    ConfigError,
    Decision,
    StbacError,
    ascii_int,
    check_path,
    content_lines,
    split_endpoint,
)
from .world import Process, World


@dataclass(frozen=True)
class TrustEntry:
    """One trusted-endpoint pattern: program, addresses, protocol, time span."""

    program: str
    local_ip: str = "*"
    local_port: str = "*"
    remote_ip: str = "*"
    remote_port: str = "*"
    proto: str = "tcp"
    tick_from: int = 0
    tick_to: float = float("inf")

    def __post_init__(self):
        if self.tick_from > self.tick_to:
            raise ConfigError(f"empty time span {self.tick_from}..{self.tick_to}")


def pr_conf(process: Process, target) -> Decision:
    """Confidentiality: tainted subjects may not read secret objects.

    Without a target the access is refused to every tainted subject.
    """
    if not process.flags & TAINT:
        return ALLOW
    if target is None or target.flags & CONF:
        return DENY_CONF
    return ALLOW


def pr_inte(process: Process, target) -> Decision:
    """Integrity: tainted subjects may not modify protected objects nor run
    the privileged calls that would subvert them.

    Without a target the access is refused to every tainted subject.
    """
    if not process.flags & TAINT:
        return ALLOW
    if target is None or target.flags & INTE:
        return DENY_INTE
    return ALLOW


def pr_avai(world: World, process: Process, kind: str, amount: int) -> Decision:
    """Availability: judge one allocation request against the water marks.

    The check is predictive (the post-allocation value is compared) and
    strict: landing exactly on a mark is allowed.  The system mark, a
    percentage of the capacity, is compared exactly in integers.  Health
    processes are bounded only by the system capacity, and a request past
    it, by anyone, is a StbacError rather than a denial: denials bind
    tainted processes only.  Pure; the engine checks that amount
    is positive and charges the ledger on allow.
    """
    ledger = world.ledger
    cap = ledger.caps[kind]
    allocated = ledger.allocated_sys[kind]
    if process.flags & TAINT:
        held = process.usage.get(kind, 0)
        if held + amount > ledger.hwm_st[kind]:
            return DENY_AVAI
        if 100 * (allocated + amount) > ledger.hwm_sys[kind] * cap:
            return DENY_AVAI
    if allocated + amount > cap:
        raise StbacError(f"resource exhausted: {kind}: {allocated} + {amount}"
                         f" exceeds system total {cap}")
    return ALLOW


def match_trust(entries, program: str, local: tuple, remote: tuple,
                proto: str, tick: int) -> bool:
    """True when some entry matches every non-wildcard field and the tick
    falls inside its span."""
    for entry in entries:
        if entry.program != program or entry.proto != proto:
            continue
        if not _endpoint_matches(entry.local_ip, entry.local_port, local):
            continue
        if not _endpoint_matches(entry.remote_ip, entry.remote_port, remote):
            continue
        if entry.tick_from <= tick <= entry.tick_to:
            return True
    return False


def _endpoint_matches(ip_pat: str, port_pat: str, endpoint: tuple) -> bool:
    ip, port = endpoint
    if ip_pat != "*" and ip_pat != ip:
        return False
    # Ports compare as numbers ("022" is 22), without int(): a parsed
    # pattern is ASCII digits of any length.
    if port_pat != "*" and (port_pat.lstrip("0") or "0") != str(port):
        return False
    return True


# -- policy file formats -------------------------------------------------------
#
# Trust list, one entry per line:
#   trust <program> <local_ip|*>:<port|*> <remote_ip|*>:<port|*> <tcp|udp> <from>..<to|inf>
# Partial-copy map, one entry per line:
#   pcopy <shared_path> <copy_path>

def parse_trust_list(text: str) -> list[TrustEntry]:
    entries = []
    for line_no, line in content_lines(text):
        try:
            entries.append(parse_trust_entry(line))
        except StbacError as exc:
            raise ConfigError(f"trust list line {line_no}: {exc}") from None
    return entries


def parse_trust_entry(line: str) -> TrustEntry:
    fields = line.split()
    if len(fields) != 6 or fields[0] != "trust":
        raise ConfigError(f"malformed trust entry: {line!r}")
    _, program, local, remote, proto, span = fields
    if proto not in PROTOCOLS:
        raise ConfigError(f"bad protocol {proto!r}")
    local_ip, local_port = split_endpoint(local)
    remote_ip, remote_port = split_endpoint(remote)
    tick_from, tick_to = _parse_span(span)
    return TrustEntry(check_path(program), local_ip, local_port,
                      remote_ip, remote_port, proto, tick_from, tick_to)


def format_trust_entry(entry: TrustEntry) -> str:
    to_part = "inf" if entry.tick_to == float("inf") else str(int(entry.tick_to))
    return (f"trust {entry.program} {entry.local_ip}:{entry.local_port}"
            f" {entry.remote_ip}:{entry.remote_port} {entry.proto}"
            f" {entry.tick_from}..{to_part}")


def _parse_span(token: str):
    if ".." not in token:
        raise ConfigError(f"span must be from..to, got {token!r}")
    lo, hi = token.split("..", 1)
    try:
        tick_from = ascii_int(lo)
    except ValueError:
        raise ConfigError(f"bad span start {lo!r}") from None
    if tick_from < 0:
        raise ConfigError("span start must be >= 0")
    if hi == "inf":
        return tick_from, float("inf")
    try:
        tick_to = ascii_int(hi)
    except ValueError:
        raise ConfigError(f"bad span end {hi!r}") from None
    return tick_from, tick_to


class CopyMap(dict):
    """The copy map as {shared path: copy path}, in file order; lines maps
    each shared path to the line number of its entry."""

    __slots__ = ("lines",)

    def __init__(self):
        super().__init__()
        self.lines = {}


def parse_pcopy_map(text: str) -> CopyMap:
    """The copy map of a file's text; each error names its line."""
    pcopy = CopyMap()
    for line_no, line in content_lines(text):
        fields = line.split()
        if len(fields) != 3 or fields[0] != "pcopy":
            raise ConfigError(f"copy map line {line_no}: malformed entry: {line!r}")
        _, shared, copy = fields
        try:
            shared, copy = check_path(shared), check_path(copy)
        except StbacError as exc:
            raise ConfigError(f"copy map line {line_no}: {exc}") from None
        if shared in pcopy:
            raise ConfigError(f"copy map line {line_no}: duplicate entry for {shared}")
        pcopy[shared] = copy
        pcopy.lines[shared] = line_no
    for shared, copy in pcopy.items():
        if copy in pcopy:
            raise ConfigError(f"copy map line {pcopy.lines[shared]}: "
                              f"copy path {copy} is itself a shared path")
    return pcopy


_MISSING = "missing from the tree"


def copy_fault(world: World, copy: str) -> str | None:
    """Why the node at copy cannot stand in for a shared path, or None when
    it can: a copy must exist, be a regular file (not a directory, device
    or fifo) and not carry CONF."""
    node_id = world.lookup(copy)
    if node_id is None:
        return _MISSING
    node = world.fs[node_id]
    if node.kind != "file" or node_id in world.fifo_writers:
        return "is not a regular file"
    if node.flags & CONF:
        return "must not be marked conf"
    return None


def validate_pcopy_against_world(pcopy: CopyMap, world: World):
    """Every copy of the map must be a valid copy at boot; the first entry
    in file order that is not is reported with its line."""
    for shared, copy in pcopy.items():
        fault = copy_fault(world, copy)
        if fault is not None:
            owner = f" (for {shared})" if fault is _MISSING else ""
            raise ConfigError(f"copy map line {pcopy.lines[shared]}: "
                              f"partial copy {copy}{owner} {fault}")
