import ast
import inspect
import re
from pathlib import Path

import pytest

import stbac
from stbac.engine import OPS
from stbac.guard import (
    TrustEntry,
    copy_fault,
    format_trust_entry,
    match_trust,
    parse_pcopy_map,
    parse_trust_entry,
    parse_trust_list,
    pr_avai,
    pr_conf,
    pr_inte,
    validate_pcopy_against_world,
)
from stbac.model import (
    ALLOW,
    CONF,
    DENY_AVAI,
    DENY_CONF,
    DENY_INTE,
    INTE,
    LEAK,
    NO_FLAGS,
    TAINT,
    ConfigError,
    StbacError,
)
from stbac.world import INIT_PID, parse_init_config, spawn_boot_world


@pytest.fixture
def world():
    return spawn_boot_world(parse_init_config(
        "node /etc dir 0\nnode /etc/passwd file 0\nnode /f file 0\n"
        "node /d dir 0\nnode /.stbac dir 0\nnode /.stbac/passwd file 0\n"
        "conf /etc/passwd\n"
        "hwm cpu_ticks 10 90\ncap cpu_ticks 100\n"
        "hwm memory_bytes 100 50\ncap memory_bytes 1000\n"))


def proc(world, flags=NO_FLAGS):
    p = world.processes[INIT_PID]
    p.flags = flags
    return p


def all_flag_subsets():
    bits = [TAINT, CONF, INTE, LEAK]
    for mask in range(16):
        flags = NO_FLAGS
        for i, bit in enumerate(bits):
            if mask >> i & 1:
                flags |= bit
        yield flags


def expected_decision(subject_flags, target, bit, denial):
    """The rule contract, in its order: a health subject is allowed, no
    target is the denial, an unlabeled target is allowed, and a labeled
    one is the denial."""
    if not subject_flags & TAINT:
        return ALLOW
    if target is None or target.flags & bit:
        return denial
    return ALLOW


class TestConfRule:
    def test_exhaustive_truth_table(self, world):
        node = world.node_at("/f")
        for subject_flags in all_flag_subsets():
            p = proc(world, subject_flags)
            for object_flags in all_flag_subsets():
                node.flags = object_flags
                for target in (node, None):
                    expected = expected_decision(subject_flags, target, CONF, DENY_CONF)
                    assert pr_conf(p, target) is expected, (
                        subject_flags, object_flags, target)

    def test_health_read_of_secret_is_allowed(self, world):
        assert pr_conf(proc(world), world.node_at("/etc/passwd")) is ALLOW


class TestInteRule:
    def test_exhaustive_truth_table(self, world):
        node = world.node_at("/f")
        for subject_flags in all_flag_subsets():
            p = proc(world, subject_flags)
            for object_flags in all_flag_subsets():
                node.flags = object_flags
                for target in (node, None):
                    expected = expected_decision(subject_flags, target, INTE, DENY_INTE)
                    assert pr_inte(p, target) is expected, (
                        subject_flags, object_flags, target)

    def test_denials_and_allows_are_the_shared_constants(self, world):
        node = world.node_at("/f")
        node.flags = INTE
        assert pr_inte(proc(world, TAINT), node) is DENY_INTE
        assert pr_inte(proc(world, TAINT), None) is DENY_INTE
        assert pr_inte(proc(world), node) is ALLOW
        node.flags = NO_FLAGS
        assert pr_inte(proc(world, TAINT), node) is ALLOW

    def test_kill_keys_on_target_process_label(self, world):
        attacker = proc(world, TAINT)
        victim = world.spawn(attacker, 2)
        assert pr_inte(attacker, victim) is ALLOW
        victim.flags |= INTE
        assert pr_inte(attacker, victim) is DENY_INTE

    def test_without_the_map_a_shared_secret_is_denied(self, world):
        """The guard knows no copy map: a suspect's access to a protected
        shared file is the denial, and the engine alone may redirect it."""
        p = proc(world, TAINT)
        node = world.node_at("/etc/passwd")
        node.flags |= INTE
        assert pr_inte(p, node) is DENY_INTE


class TestAvaiRule:
    def test_boundary_is_strict(self, world):
        """Landing exactly on the per-process mark allows; one past denies."""
        p = proc(world, TAINT)
        p.usage["cpu_ticks"] = 9
        assert pr_avai(world, p, "cpu_ticks", 1) is ALLOW
        p.usage["cpu_ticks"] = 10
        assert pr_avai(world, p, "cpu_ticks", 1) is DENY_AVAI

    def test_system_percentage_mark(self, world):
        # memory: cap 1000, system mark 50%; a tainted request that would
        # push the system past 500 is refused even under its own mark
        p = proc(world, TAINT)
        world.ledger.allocated_sys["memory_bytes"] = 450
        assert pr_avai(world, p, "memory_bytes", 50) is ALLOW
        world.ledger.allocated_sys["memory_bytes"] = 460
        assert pr_avai(world, p, "memory_bytes", 50) is DENY_AVAI
        # The mark is compared exactly: at this cap, 33% + 1e-18 would
        # round onto the mark as a float, and exactly 33% lands on it.
        world.ledger.allocated_sys["memory_bytes"] = 0
        world.ledger.caps["memory_bytes"] = 1000000000000000003
        world.ledger.hwm_st["memory_bytes"] = 10000000000000000000
        world.ledger.hwm_sys["memory_bytes"] = 33
        assert pr_avai(world, p, "memory_bytes",
                       330000000000000001) is DENY_AVAI
        world.ledger.caps["memory_bytes"] = 1000000000000000000
        assert pr_avai(world, p, "memory_bytes",
                       330000000000000000) is ALLOW

    def test_health_processes_unbounded_until_capacity(self, world):
        p = proc(world)
        assert pr_avai(world, p, "memory_bytes", 999) is ALLOW
        world.ledger.allocated_sys["memory_bytes"] = 999
        message = "resource exhausted: memory_bytes: 999 + 2 exceeds system total 1000"
        with pytest.raises(StbacError, match=f"^{re.escape(message)}$"):
            pr_avai(world, p, "memory_bytes", 2)


class TestTrustMatching:
    ENTRY = TrustEntry("/usr/sbin/sshd", "*", "22", "*", "*", "tcp", 0, float("inf"))

    def test_matching_accept(self):
        assert match_trust([self.ENTRY], "/usr/sbin/sshd", ("192.1.1.1", 22),
                           ("192.1.1.2", 4000), "tcp", tick=5)

    def test_empty_list_matches_nothing(self):
        assert not match_trust([], "/usr/sbin/sshd", ("192.1.1.1", 22),
                               ("192.1.1.2", 4000), "tcp", tick=5)

    def test_span_boundaries(self):
        entry = TrustEntry("/p", tick_from=3, tick_to=7)

        def hit(tick):
            return match_trust([entry], "/p", ("a", 1), ("b", 2), "tcp", tick)

        assert hit(3) and hit(7)
        assert not hit(2) and not hit(8)

    def test_every_field_must_match(self):
        assert not match_trust([self.ENTRY], "/bin/other", ("x", 22), ("y", 1),
                               "tcp", 0)
        assert not match_trust([self.ENTRY], "/usr/sbin/sshd", ("x", 23), ("y", 1),
                               "tcp", 0)
        assert not match_trust([self.ENTRY], "/usr/sbin/sshd", ("x", 22), ("y", 1),
                               "udp", 0)

    def test_entry_round_trip(self):
        line = "trust /usr/sbin/sshd *:22 192.1.1.2:* tcp 3..9"
        assert format_trust_entry(parse_trust_entry(line)) == line

    def test_infinite_span_round_trip(self):
        line = "trust /bin/sh *:* *:* udp 0..inf"
        assert format_trust_entry(parse_trust_entry(line)) == line

    def test_malformed_entries_rejected(self):
        for bad in ("trust /p nocolon *:* tcp 0..inf",
                    "trust /p *:* *:* icmp 0..inf",
                    "trust /p *:* *:* tcp 5",
                    "trust relative *:* *:* tcp 0..inf",
                    "trust /usr//bin/sh *:* *:* tcp 0..inf",
                    "trust /p *:* *:* tcp 9..3"):
            with pytest.raises(ConfigError):
                parse_trust_list(bad + "\n")

    def test_non_ascii_digit_port_rejected_with_line(self):
        for bad in ("trust /p *:* *:² tcp 0..inf", "trust /p *:٢٢ *:* tcp 0..inf"):
            with pytest.raises(ConfigError, match="line 2: bad port"):
                parse_trust_list("# header\n" + bad + "\n")

    def test_empty_ip_rejected_with_line(self):
        for bad in ("trust /bin/sh :22 *:* tcp 0..inf", "trust /bin/sh *:* :80 tcp 0..inf"):
            with pytest.raises(ConfigError, match="line 2: empty IP address in ':"):
                parse_trust_list("# header\n" + bad + "\n")
        (entry,) = parse_trust_list("trust /bin/sh *:22 *:* tcp 0..inf\n")
        assert (entry.local_ip, entry.local_port) == ("*", "22")

    def test_ports_compare_as_integers(self):
        entry = parse_trust_entry("trust /p *:* *:022 tcp 0..inf")
        assert match_trust([entry], "/p", ("a", 1), ("b", 22), "tcp", 0)
        assert not match_trust([entry], "/p", ("a", 1), ("b", 220), "tcp", 0)
        zero = parse_trust_entry("trust /p *:* *:000 tcp 0..inf")
        assert match_trust([zero], "/p", ("a", 1), ("b", 0), "tcp", 0)
        longer = parse_trust_entry(f"trust /p *:* *:{'1' * 5000} tcp 0..inf")
        assert not match_trust([longer], "/p", ("a", 1), ("b", 22), "tcp", 0)

    def test_comments_and_blanks_skipped(self):
        entries = parse_trust_list("# header\n\ntrust /p *:* *:* tcp 0..inf\n")
        assert len(entries) == 1


class TestPartialCopies:
    def test_mapped_path_redirects(self):
        pcopy = parse_pcopy_map("# copies\npcopy /etc/passwd /.stbac/passwd\n"
                                "pcopy /etc/shadow /.stbac/shadow\n")
        assert pcopy == {"/etc/passwd": "/.stbac/passwd",
                         "/etc/shadow": "/.stbac/shadow"}

    def test_empty_map_is_an_empty_dict(self):
        assert parse_pcopy_map("# No partial copies.\n") == {}

    def test_copy_cannot_be_shared(self):
        with pytest.raises(ConfigError,
                           match="line 1: copy path /b is itself a shared path"):
            parse_pcopy_map("pcopy /a /b\npcopy /b /c\n")

    def test_duplicate_shared_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_pcopy_map("pcopy /a /b\npcopy /a /c\n")

    def test_world_validation(self, world):
        pcopy = parse_pcopy_map("pcopy /etc/passwd /.stbac/passwd\n")
        validate_pcopy_against_world(pcopy, world)
        missing = parse_pcopy_map("pcopy /etc/passwd /.stbac/nope\n")
        with pytest.raises(ConfigError, match="missing"):
            validate_pcopy_against_world(missing, world)
        with pytest.raises(ConfigError, match=r"^copy map line 1: partial copy "
                           r"/\.stbac/nope \(for /etc/passwd\) missing from the tree$"):
            validate_pcopy_against_world(missing, world)
        not_file = parse_pcopy_map("pcopy /etc/passwd /d\n")
        with pytest.raises(ConfigError, match="^copy map line 1: "
                           "partial copy /d is not a regular file$"):
            validate_pcopy_against_world(not_file, world)
        world.node_at("/.stbac/passwd").flags |= CONF
        with pytest.raises(ConfigError, match=r"^copy map line 1: partial copy "
                           r"/\.stbac/passwd must not be marked conf$"):
            validate_pcopy_against_world(pcopy, world)

    # A valid entry on line 2, the bad one on line 4 and a second bad one
    # after it: the error names the first bad entry in file order.
    @pytest.mark.parametrize("bad,message", [
        ("pcopy /etc/shadow /nope",
         "copy map line 4: partial copy /nope (for /etc/shadow) missing from the tree"),
        ("pcopy /etc/shadow /d",
         "copy map line 4: partial copy /d is not a regular file"),
        ("pcopy /etc/shadow /etc/passwd",
         "copy map line 4: partial copy /etc/passwd must not be marked conf"),
    ])
    def test_the_first_bad_copy_names_its_line(self, world, bad, message):
        pcopy = parse_pcopy_map(f"# copies\npcopy /f /.stbac/passwd\n\n{bad}\n"
                                "pcopy /a /also-missing\n")
        assert pcopy.lines == {"/f": 2, "/etc/shadow": 4, "/a": 5}
        with pytest.raises(ConfigError) as info:
            validate_pcopy_against_world(pcopy, world)
        assert str(info.value) == message

    def test_copy_fault_names_each_condition(self, world):
        assert copy_fault(world, "/.stbac/passwd") is None
        assert copy_fault(world, "/.stbac/nope") == "missing from the tree"
        assert copy_fault(world, "/d") == "is not a regular file"
        world.node_at("/.stbac/passwd").flags |= LEAK | INTE
        assert copy_fault(world, "/.stbac/passwd") is None
        world.node_at("/.stbac/passwd").flags |= CONF
        assert copy_fault(world, "/.stbac/passwd") == "must not be marked conf"


class TestLedgerConservation:
    def test_charge_and_release(self, world):
        ledger = world.ledger
        p1 = world.processes[INIT_PID]
        p2 = world.spawn(p1, 2)
        ledger.charge(p1, "memory_bytes", 30)
        ledger.charge(p2, "memory_bytes", 50)
        assert ledger.allocated_sys["memory_bytes"] == 80
        ledger.release_all(p1)
        assert ledger.allocated_sys["memory_bytes"] == 50
        assert p1.usage == {}


def test_decisions_are_built_only_in_model():
    """Verdicts are values: model's shared constants and redirect() build
    every Decision in the package, and nothing else makes one per event."""
    builders = set()
    for path in sorted(Path(stbac.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.Assign):
                scope = ",".join(getattr(t, "id", "?") for t in top.targets)
            else:
                scope = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and "Decision" in
                        (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                    builders.add((path.name, scope, node.lineno))
    assert {(name, scope) for name, scope, _ in builders} == {
        ("model.py", "ALLOW"), ("model.py", "DENY_CONF"), ("model.py", "DENY_INTE"),
        ("model.py", "DENY_AVAI"), ("model.py", "redirect")}, builders
    assert len(builders) == 5


def test_only_the_engine_redirects():
    """pr_conf and pr_inte take a process and a target, no copy map, and no
    module but engine.py calls redirect()."""
    for rule in (pr_conf, pr_inte):
        assert list(inspect.signature(rule).parameters) == ["process", "target"]
    callers = set()
    for path in sorted(Path(stbac.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and "redirect" in
                    (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                callers.add(path.name)
    assert callers == {"engine.py"}


def test_guard_names_no_trace_op():
    """The rules judge labels only: no string in guard.py names a trace op."""
    tree = ast.parse(Path(stbac.guard.__file__).read_text())
    named = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not named & set(OPS), sorted(named & set(OPS))
