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

from ..engine import Policy, ReplayResult, parse_trace, replay
from ..guard import parse_pcopy_map, parse_trust_list, validate_pcopy_against_world
from ..world import InitConfig, parse_init_config, spawn_boot_world

NAMES = ("remote_user", "web_download", "remote_attack")


@dataclass
class Bundle:
    name: str
    init_text: str
    trust_text: str
    pcopy_text: str
    trace_text: str
    expected_audit: str | None

    def config(self) -> InitConfig:
        return parse_init_config(self.init_text)

    def policy(self) -> Policy:
        return Policy(parse_trust_list(self.trust_text),
                      parse_pcopy_map(self.pcopy_text))

    def events(self) -> list:
        return parse_trace(self.trace_text)

    def replay(self, track_taint: bool = False) -> ReplayResult:
        """Replay the bundle as `stbac replay` does: every copy of the map is
        checked against the booted tree first."""
        world = spawn_boot_world(self.config())
        policy = self.policy()
        validate_pcopy_against_world(policy.pcopy, world)
        return replay(world, self.events(), policy, track_taint=track_taint)


def load(name: str) -> Bundle:
    if name not in NAMES:
        raise KeyError(f"unknown scenario {name!r}; have {', '.join(NAMES)}")
    root = resources.files(__package__) / name
    expected = root / "expected.audit"
    return Bundle(
        name=name,
        init_text=(root / "init.cfg").read_text(),
        trust_text=(root / "trust.list").read_text(),
        pcopy_text=(root / "pcopy.list").read_text(),
        trace_text=(root / "scenario.trace").read_text(),
        expected_audit=expected.read_text() if expected.is_file() else None,
    )
