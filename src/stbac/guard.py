"""Decision core: the three protection rules plus the two compatibility escapes.

Protection binds tainted subjects only.  Confidentiality denies their reads
of secret objects, integrity denies their writes to protected objects and
their dangerous privileged calls, availability caps their resource intake
against two high-water marks.  Trusted-endpoint matching and partial-copy
redirection keep legitimate remote administration working.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    ALLOW,
    CONF,
    DENY_AVAI,
    DENY_CONF,
    DENY_INTE,
    INTE,
    TAINT,
    ConfigError,
    Decision,
    ResourceExhausted,
    StbacError,
    ascii_int,
    content_lines,
    is_ascii_int,
    redirect,
)
from .world import FsNode, Process, World, check_path

# Operation kinds the confidentiality rule judges.  ptrace and flag reads
# are denied for tainted subjects regardless of the target's labels.
CONF_OPS = frozenset({"read_file", "read_dir", "ptrace", "get_stbac_attr"})
CONF_UNCONDITIONAL = frozenset({"ptrace", "get_stbac_attr"})

# Integrity-rule operation kinds.  The privileged group is denied for every
# tainted subject no matter the target; kill keys on the target process's
# INTE label; the rest key on the target node (or destination directory).
INTE_WRITE_OPS = frozenset({"write", "delete", "rename", "truncate", "chmod", "chown"})
INTE_CREATE_OPS = frozenset({"create_in_dir", "rename_into"})
# Content/attribute modifications may be redirected to a partial copy;
# removing or moving the shared object itself may not.
INTE_REDIRECT_OPS = frozenset({"write", "truncate", "chmod"})
INTE_PRIVILEGED_OPS = frozenset({
    "mount", "umount", "setuid_family", "create_module", "delete_module",
    "reboot", "swapoff", "setrlimit", "set_stbac_attr",
})
INTE_OPS = INTE_WRITE_OPS | INTE_CREATE_OPS | INTE_PRIVILEGED_OPS | {"kill"}


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


@dataclass
class PartialCopyMap:
    """Static map from shared secret paths to their redacted copies."""

    entries: dict = field(default_factory=dict)   # shared path -> copy path

    def copy_paths(self):
        return set(self.entries.values())


def pr_conf(process: Process, target, op_kind: str,
            pcopy: PartialCopyMap | None = None) -> Decision:
    """Confidentiality: tainted subjects may not read secret objects.

    A read that would be denied is redirected instead when the path has a
    registered partial copy.
    """
    if op_kind not in CONF_OPS:
        raise StbacError(f"bad confidentiality op {op_kind!r}")
    if not process.flags & TAINT:
        return ALLOW
    if op_kind in CONF_UNCONDITIONAL:
        return DENY_CONF
    if target is None or not target.flags & CONF:
        return ALLOW
    if pcopy is not None and isinstance(target, FsNode):
        copy_path = pcopy.entries.get(target.path)
        if copy_path is not None:
            return redirect(copy_path)
    return DENY_CONF


def pr_inte(process: Process, target, op_kind: str,
            pcopy: PartialCopyMap | None = None) -> Decision:
    """Integrity: tainted subjects may not modify protected objects nor run
    the privileged calls that would subvert them.

    For create_in_dir / rename_into the target is the destination
    directory.  Like reads, a write denial against a shared secret with a
    partial copy becomes a redirect.
    """
    if op_kind not in INTE_OPS:
        raise StbacError(f"bad integrity op {op_kind!r}")
    if not process.flags & TAINT:
        return ALLOW
    if op_kind in INTE_PRIVILEGED_OPS:
        return DENY_INTE
    if op_kind == "kill":
        if target is not None and target.flags & INTE:
            return DENY_INTE
        return ALLOW
    if target is None or not target.flags & INTE:
        return ALLOW
    if (pcopy is not None and op_kind in INTE_REDIRECT_OPS
            and isinstance(target, FsNode)):
        copy_path = pcopy.entries.get(target.path)
        if copy_path is not None:
            return redirect(copy_path)
    return DENY_INTE


def pr_avai(world: World, process: Process, kind: str, amount: int) -> Decision:
    """Availability: judge one allocation request against the water marks.

    The check is predictive (the post-allocation value is compared) and
    strict: landing exactly on a mark is allowed.  The system mark, a
    percentage of the capacity, is compared exactly in integers.  Health
    processes are bounded only by the system capacity, which is an error
    condition rather than a denial.  Pure; the engine checks that amount
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
        raise ResourceExhausted(
            f"{kind}: {allocated} + {amount} exceeds system total {cap}")
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
    if proto not in ("tcp", "udp"):
        raise ConfigError(f"bad protocol {proto!r}")
    local_ip, local_port = _split_endpoint(local)
    remote_ip, remote_port = _split_endpoint(remote)
    tick_from, tick_to = _parse_span(span)
    return TrustEntry(check_path(program), local_ip, local_port,
                      remote_ip, remote_port, proto, tick_from, tick_to)


def format_trust_entry(entry: TrustEntry) -> str:
    to_part = "inf" if entry.tick_to == float("inf") else str(int(entry.tick_to))
    return (f"trust {entry.program} {entry.local_ip}:{entry.local_port}"
            f" {entry.remote_ip}:{entry.remote_port} {entry.proto}"
            f" {entry.tick_from}..{to_part}")


def _split_endpoint(token: str):
    if ":" not in token:
        raise ConfigError(f"endpoint must be ip:port, got {token!r}")
    ip, port = token.rsplit(":", 1)
    if not ip:
        raise ConfigError(f"empty IP address in {token!r}")
    if port != "*" and not is_ascii_int(port, signed=False):
        raise ConfigError(f"bad port {port!r}")
    return ip, port


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


def parse_pcopy_map(text: str) -> PartialCopyMap:
    pcopy = PartialCopyMap()
    line_of = {}             # shared path -> line number of its entry
    for line_no, line in content_lines(text):
        fields = line.split()
        if len(fields) != 3 or fields[0] != "pcopy":
            raise ConfigError(f"copy map line {line_no}: malformed entry: {line!r}")
        _, shared, copy = fields
        try:
            shared, copy = check_path(shared), check_path(copy)
        except StbacError as exc:
            raise ConfigError(f"copy map line {line_no}: {exc}") from None
        if shared in pcopy.entries:
            raise ConfigError(f"copy map line {line_no}: duplicate entry for {shared}")
        pcopy.entries[shared] = copy
        line_of[shared] = line_no
    for shared, copy in pcopy.entries.items():
        if copy in pcopy.entries:
            raise ConfigError(f"copy map line {line_of[shared]}: "
                              f"copy path {copy} is itself a shared path")
    return pcopy


def validate_pcopy_against_world(pcopy: PartialCopyMap, world: World):
    """Copies must exist, be plain files, and never carry the CONF label."""
    for shared, copy in sorted(pcopy.entries.items()):
        node_id = world.lookup(copy)
        if node_id is None:
            raise ConfigError(f"partial copy {copy} (for {shared}) missing from the tree")
        node = world.fs[node_id]
        if node.kind != "file":
            raise ConfigError(f"partial copy {copy} is not a regular file")
        if node.flags & CONF:
            raise ConfigError(f"partial copy {copy} must not be marked conf")
