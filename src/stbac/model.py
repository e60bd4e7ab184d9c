"""Shared vocabulary of the policy model: flags, rule names, the shared
verdict constants and FlagMutation, the one shape of every label change a
replay applies.

Every name is a plain value that is its own audit spelling.  Label bits are
the ints TAINT, CONF, INTE, AVAI and LEAK, and a label is an int mask of
them; FLAG_NAMES spells each bit.  Rule names are the strings the audit and
the DOT graph print ("TR_proc_proc", "VR_dir_dir", "PR_conf", ...), and
resource kinds are the names in RESOURCE_KINDS.  No enum sits between a
name and its spelling, so the per-event path calls no enum code.  An
entity reference is a plain (kind, id) tuple, written out where it is
built.  Every error is a StbacError; a spent system capacity is a plain one.

Everything here is plain data, plus the one input grammar: ASCII integers,
comment and blank-line syntax, paths, endpoints, protocols, flags and
resource kinds, so a token is refused with one message in every input (the
oracle alone reads its own, to stay independent).  Rule logic lives in
taint/vital/guard; state lives in world; sequencing lives in engine.
"""

from __future__ import annotations

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
    # Unsigned tokens skip the call: the engine converts integer arguments
    # per event.
    if (token.isdigit() and token.isascii()) or is_ascii_int(token):
        return int(token)
    raise ValueError(f"not an ASCII integer: {token!r}")


def check_path(path: str) -> str:
    """path itself when it is absolute, with no comma, no trailing slash
    (except "/" itself) and no empty component; StbacError otherwise."""
    if not path.startswith("/"):
        raise StbacError(f"path must be absolute: {path!r}")
    if "," in path:
        raise StbacError(f"comma not allowed in paths: {path!r}")
    if path != "/" and path.endswith("/"):
        raise StbacError(f"trailing slash not allowed: {path!r}")
    if "//" in path:
        raise StbacError(f"empty path component not allowed: {path!r}")
    return path


def split_endpoint(token: str) -> tuple:
    """(ip, port) of an ip:port token, both strings: the ip is not empty and
    the port is ASCII digits or "*"; StbacError otherwise."""
    if ":" not in token:
        raise StbacError(f"endpoint must be ip:port, got {token!r}")
    ip, port = token.rsplit(":", 1)
    if not ip:
        raise StbacError(f"empty IP address in {token!r}")
    if port != "*" and not is_ascii_int(port, signed=False):
        raise StbacError(f"bad port {port!r}")
    return ip, port


# Transport protocols of a socket and of a trust entry.
PROTOCOLS = ("tcp", "udp")


def content_lines(text: str):
    """Yield (line number, stripped line) for every line of a trust list or
    copy map that is neither blank nor a # comment.  The boot config and
    trace parsers apply the same rule inline, in their own one loop."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


# Label bits carried by processes, filesystem nodes and resources, as int
# masks.  TAINT marks entities suspected to be under intruder control.  CONF
# and INTE mark confidentiality/integrity protected objects.  LEAK marks
# executables (and processes derived from them) able to relay secrets, e.g.
# cp or dd.  AVAI only ever attaches to resource kinds, never to nodes or
# processes.
TAINT, CONF, INTE, AVAI, LEAK = 1, 2, 4, 8, 16
NO_FLAGS = 0

# Canonical short names, also the config / CLI / audit spelling, in the
# fixed rendering order of flag sets.
FLAG_NAMES = {TAINT: "taint", CONF: "conf", INTE: "inte", AVAI: "avai", LEAK: "leak"}
FLAGS_BY_NAME = {name: bit for bit, name in FLAG_NAMES.items()}


def flag_bits(mask: int) -> list[int]:
    """The set bits of a mask, in canonical order."""
    return [bit for bit in FLAG_NAMES if mask & bit]


def format_flags(mask: int) -> str:
    """Render a mask as 'conf|leak', or '-' when empty."""
    return "|".join(FLAG_NAMES[bit] for bit in flag_bits(mask)) or "-"


def parse_flag(name: str) -> int:
    try:
        return FLAGS_BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown flag {name!r}") from None


# The limited resources guarded by the availability rule, by audit name.
RESOURCE_KINDS = ("cpu_ticks", "memory_bytes", "disk_blocks", "net_bytes",
                  "kernel_objects")


def parse_resource(name: str) -> str:
    if name not in RESOURCE_KINDS:
        raise ConfigError(f"unknown resource kind {name!r}")
    return name


class FlagMutation(NamedTuple):
    """Clears, then adds, label bits (int masks) on target.

    target and cause are entity references, plain (kind, id) tuples that
    every reader unpacks itself: ("proc", pid), ("file", node id), ("sock",
    socket id) or ("res", resource kind).  rule is the audit name of the
    taint or vital rule that fired ("TR_proc_proc", "VR_dir_dir", ...), or
    the op name "set_stbac_attr" for administration.  cause is the entity
    the bits flowed from, None for administration.  flags_cleared is
    nonempty only for the exec reset of VR_file_proc and for administrative
    clears.  A NamedTuple builds in about half the time of a frozen
    dataclass, and a replay builds one per rule that fires.
    """

    target: tuple
    rule: str
    cause: tuple | None
    flags_added: int = NO_FLAGS
    flags_cleared: int = NO_FLAGS


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of the protection rules for one access, an immutable value.

    result is the audit spelling: ALLOW, ALLOW_REDIR(path) or DENY(rule).
    rule is the audit name of the protection rule that denied ("PR_conf",
    "PR_inte" or "PR_avai"), None on allow.  The guard returns only the
    shared constants below; only the engine builds a redirect, which names
    its copy.  The flag mutations of an allowed access travel beside it.
    """

    result: str
    rule: str | None = None

    @property
    def allowed(self) -> bool:
        return self.rule is None


ALLOW = Decision("ALLOW")
DENY_CONF = Decision("DENY(PR_conf)", "PR_conf")
DENY_INTE = Decision("DENY(PR_inte)", "PR_inte")
DENY_AVAI = Decision("DENY(PR_avai)", "PR_avai")


def redirect(path: str) -> Decision:
    return Decision(f"ALLOW_REDIR({path})")
