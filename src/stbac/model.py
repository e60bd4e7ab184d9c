"""Shared vocabulary of the policy model: flags, rule names, the shared
verdict constants and FlagMutation, the one shape of every label change a
replay applies.

Label bits travel as plain int masks built from TAINT, CONF, INTE, AVAI and
LEAK: an int test costs a fraction of an enum.Flag operator, and a replay
makes several per event.  Flag is the API-edge type, for parsing names
(parse_flag, FLAG_NAMES), for FlagChange records and for classify; flag_bits
turns a mask into Flag members where a label leaves the engine.

Everything here is plain data.  Rule logic lives in taint/vital/guard; state
lives in world; sequencing lives in engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple


class StbacError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(StbacError):
    """Malformed or semantically invalid boot config / trust list / copy map."""


class TraceError(StbacError):
    """Malformed or inapplicable trace event.  Aborts the replay."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownEntity(StbacError):
    """A referenced path, pid, socket or resource does not exist."""


class ResourceExhausted(StbacError):
    """System-wide capacity of a resource is spent.

    Distinct from an availability denial: denials bind tainted processes
    only, exhaustion can hit anyone.
    """


def is_ascii_int(token: str, signed: bool = True) -> bool:
    """True for ASCII digits, after one optional '-' when signed.

    int() alone also accepts '+5', ' 5 ', '1_0' and digits of other scripts
    such as '١٠', which would give one field several spellings.
    """
    if signed and token.startswith("-"):
        token = token[1:]
    return token.isascii() and token.isdigit()


def ascii_int(token: str) -> int:
    """int(token) for a token that is_ascii_int accepts; ValueError otherwise."""
    # Unsigned tokens skip the call: parse_trace converts two per event.
    if (token.isdigit() and token.isascii()) or is_ascii_int(token):
        return int(token)
    raise ValueError(f"not an ASCII integer: {token!r}")


def content_lines(text: str):
    """Yield (line number, stripped line) for every line of a trace or
    config file that is neither blank nor a # comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


class Flag(enum.Flag):
    """Label bits carried by processes, filesystem nodes and resources.

    A plain enum.Flag, not an IntFlag: or-ing an IntFlag into an int mask
    gives an IntFlag back, and every later test on that mask would run enum
    code again.  A Flag mixed into a mask raises TypeError instead.

    TAINT marks entities suspected to be under intruder control.  CONF and
    INTE mark confidentiality/integrity protected objects.  LEAK marks
    executables (and processes derived from them) able to relay secrets,
    e.g. cp or dd.  AVAI only ever attaches to resource kinds, never to
    nodes or processes.
    """

    TAINT = enum.auto()
    CONF = enum.auto()
    INTE = enum.auto()
    AVAI = enum.auto()
    LEAK = enum.auto()


# The int bits of the label masks that entities carry.
TAINT = Flag.TAINT.value
CONF = Flag.CONF.value
INTE = Flag.INTE.value
AVAI = Flag.AVAI.value
LEAK = Flag.LEAK.value
NO_FLAGS = 0

# Canonical short names, also the config / CLI / audit spelling.
FLAG_NAMES = {
    Flag.TAINT: "taint",
    Flag.CONF: "conf",
    Flag.INTE: "inte",
    Flag.AVAI: "avai",
    Flag.LEAK: "leak",
}
FLAGS_BY_NAME = {name: flag for flag, name in FLAG_NAMES.items()}

# (bit, member) pairs in the fixed rendering order of flag sets.
FLAG_ORDER = ((TAINT, Flag.TAINT), (CONF, Flag.CONF), (INTE, Flag.INTE),
              (AVAI, Flag.AVAI), (LEAK, Flag.LEAK))


def flag_bits(mask: int) -> list[Flag]:
    """The Flag members of a mask's set bits, in canonical order."""
    return [flag for bit, flag in FLAG_ORDER if mask & bit]


def format_flags(mask: int) -> str:
    """Render a mask as 'conf|leak', or '-' when empty."""
    names = [FLAG_NAMES[flag] for flag in flag_bits(mask)]
    return "|".join(names) if names else "-"


def parse_flag(name: str) -> Flag:
    try:
        return FLAGS_BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown flag {name!r}") from None


class ResourceKind(str, enum.Enum):
    """The limited resources guarded by the availability rule."""

    CPU_TICKS = "cpu_ticks"
    MEMORY_BYTES = "memory_bytes"
    DISK_BLOCKS = "disk_blocks"
    NET_BYTES = "net_bytes"
    KERNEL_OBJECTS = "kernel_objects"


def parse_resource(name: str) -> ResourceKind:
    try:
        return ResourceKind(name)
    except ValueError:
        raise ConfigError(f"unknown resource kind {name!r}") from None


class TaintRule(str, enum.Enum):
    SOCK_PROC = "TR_sock_proc"
    PROC_PROC = "TR_proc_proc"
    PROC_EXE = "TR_proc_exe"
    EXE_PROC = "TR_exe_proc"


class VitalRule(str, enum.Enum):
    DIR_DIR = "VR_dir_dir"
    PROC_PROC = "VR_proc_proc"
    PROC_FILE = "VR_proc_file"
    FILE_PROC = "VR_file_proc"


class ProtRule(str, enum.Enum):
    CONF = "PR_conf"
    INTE = "PR_inte"
    AVAI = "PR_avai"


# Entity references are (kind, id) pairs: ("proc", pid), ("file", node id),
# ("sock", socket id) or ("res", ResourceKind).  Lightweight on purpose;
# the world resolves them.
Ref = tuple


def proc_ref(pid: int) -> Ref:
    return ("proc", pid)


def file_ref(node_id: int) -> Ref:
    return ("file", node_id)


def sock_ref(sock_id: int) -> Ref:
    return ("sock", sock_id)


class FlagMutation(NamedTuple):
    """Clears, then adds, label bits (int masks) on target.

    rule is the TaintRule or VitalRule that fired, or the op name
    "set_stbac_attr" for administration.  cause is the entity the bits
    flowed from, None for administration.  flags_cleared is nonempty only
    for the exec reset of VR_file_proc and for administrative clears.  A
    NamedTuple builds in about half the time of a frozen dataclass, and a
    replay builds one per rule that fires.
    """

    target: Ref
    rule: str
    cause: Ref | None
    flags_added: int = NO_FLAGS
    flags_cleared: int = NO_FLAGS


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of the protection rules for one access, an immutable value.

    result is the audit spelling: ALLOW, ALLOW_REDIR(path) or DENY(rule).
    rule is the ProtRule that denied, None on allow.  Every outcome is one
    of the shared constants below except a redirect, which names its path.
    The flag mutations of an allowed access travel beside it, not in it.
    """

    result: str
    rule: ProtRule | None = None
    redirect_path: str | None = None

    @property
    def allowed(self) -> bool:
        return self.rule is None


ALLOW = Decision("ALLOW")
DENY_CONF = Decision("DENY(PR_conf)", ProtRule.CONF)
DENY_INTE = Decision("DENY(PR_inte)", ProtRule.INTE)
DENY_AVAI = Decision("DENY(PR_avai)", ProtRule.AVAI)


def redirect(path: str) -> Decision:
    return Decision(f"ALLOW_REDIR({path})", redirect_path=path)
