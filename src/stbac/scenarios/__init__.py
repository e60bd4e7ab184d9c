"""Bundled protection scenarios: replayable attack stories with frozen audits.

Three bundles ship with the package:

* ``remote_user``   - a remote root session tries to read a copied secret
                      and to re-permission a freshly protected command.
* ``web_download``  - a browser drops two hostile executables whose
                      processes then chew through CPU and memory.
* ``remote_attack`` - a service exploit escalates through log killing,
                      secret reads, SETUID planting and module loading.

Each bundle holds a boot config, trust list, partial-copy map, the event
trace, and the expected audit text.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from ..cli import check_replay, load_bundle
from ..engine import ReplayResult, parse_trace, replay

NAMES = ("remote_user", "web_download", "remote_attack")


@dataclass
class Bundle:
    name: str
    init_text: str
    trust_text: str
    pcopy_text: str
    trace_text: str
    expected_audit: str | None

    def load(self) -> tuple:
        """(config, booted world, policy), loaded as `stbac replay` loads
        them: every copy of the map is checked against the booted tree."""
        return load_bundle(self.init_text, self.trust_text, self.pcopy_text)

    def events(self) -> list:
        return parse_trace(self.trace_text)

    def replay(self) -> ReplayResult:
        _, world, policy = self.load()
        return replay(world, self.events(), policy)

    def check(self) -> tuple:
        """What `stbac check` runs on the bundle: (TaintDiff, BibaReport,
        replayer) of check_replay."""
        return check_replay(*self.load(), self.events())


def load(name: str) -> Bundle:
    if name not in NAMES:
        raise KeyError(f"unknown scenario {name!r}; have {', '.join(NAMES)}")
    root = resources.files(__package__) / name
    expected = root / "expected.audit"

    def text(file):     # UTF-8, as the CLI reads it, whatever the locale
        return file.read_text(encoding="utf-8")

    return Bundle(
        name=name,
        init_text=text(root / "init.cfg"),
        trust_text=text(root / "trust.list"),
        pcopy_text=text(root / "pcopy.list"),
        trace_text=text(root / "scenario.trace"),
        expected_audit=text(expected) if expected.is_file() else None,
    )
