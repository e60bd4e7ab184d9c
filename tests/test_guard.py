import ast
from pathlib import Path

import pytest

import stbac
from stbac.guard import (
    CONF_OPS,
    INTE_OPS,
    INTE_PRIVILEGED_OPS,
    PartialCopyMap,
    TrustEntry,
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
    ResourceExhausted,
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


class TestConfRule:
    def test_exhaustive_truth_table(self, world):
        """Deny exactly when a tainted subject reads secret content or runs
        the unconditional operations."""
        node = world.node_at("/f")
        for subject_flags in all_flag_subsets():
            p = proc(world, subject_flags)
            for object_flags in all_flag_subsets():
                node.flags = object_flags
                for op in sorted(CONF_OPS):
                    expected_deny = (subject_flags & TAINT and (
                        op in ("ptrace", "get_stbac_attr")
                        or object_flags & CONF))
                    decision = pr_conf(p, node, op)
                    expected = DENY_CONF if expected_deny else ALLOW
                    assert decision is expected, (subject_flags, object_flags, op)

    def test_redirect_replaces_denial(self, world):
        p = proc(world, TAINT)
        pcopy = PartialCopyMap({"/etc/passwd": "/.stbac/passwd"})
        decision = pr_conf(p, world.node_at("/etc/passwd"), "read_file", pcopy)
        assert decision.allowed
        assert decision.redirect_path == "/.stbac/passwd"
        assert decision.result == "ALLOW_REDIR(/.stbac/passwd)"

    def test_health_read_of_secret_is_allowed(self, world):
        decision = pr_conf(proc(world), world.node_at("/etc/passwd"), "read_file")
        assert decision is ALLOW

    def test_unmapped_secret_still_denied(self, world):
        p = proc(world, TAINT)
        pcopy = PartialCopyMap({"/other": "/.stbac/other"})
        assert pr_conf(p, world.node_at("/etc/passwd"), "read_file", pcopy) is DENY_CONF


class TestInteRule:
    def test_truth_table_for_target_ops(self, world):
        node = world.node_at("/f")
        for subject_flags in all_flag_subsets():
            p = proc(world, subject_flags)
            for object_flags in all_flag_subsets():
                node.flags = object_flags
                for op in ("write", "delete", "rename", "truncate", "chmod",
                           "chown", "create_in_dir", "rename_into", "kill"):
                    expected_deny = (subject_flags & TAINT
                                     and object_flags & INTE)
                    decision = pr_inte(p, node, op)
                    assert decision is (DENY_INTE if expected_deny else ALLOW)

    def test_privileged_ops_unconditional_for_tainted(self, world):
        p = proc(world, TAINT)
        for op in sorted(INTE_PRIVILEGED_OPS):
            assert pr_inte(p, None, op) is DENY_INTE
        p = proc(world)
        for op in sorted(INTE_PRIVILEGED_OPS):
            assert pr_inte(p, None, op) is ALLOW

    def test_kill_keys_on_target_process_label(self, world):
        attacker = proc(world, TAINT)
        victim = world.spawn(attacker, 2)
        assert pr_inte(attacker, victim, "kill") is ALLOW
        victim.flags |= INTE
        assert pr_inte(attacker, victim, "kill") is DENY_INTE

    def test_write_redirect_for_shared_secret(self, world):
        p = proc(world, TAINT)
        node = world.node_at("/etc/passwd")
        node.flags |= INTE
        pcopy = PartialCopyMap({"/etc/passwd": "/.stbac/passwd"})
        decision = pr_inte(p, node, "write", pcopy)
        assert decision.allowed
        assert decision.result == "ALLOW_REDIR(/.stbac/passwd)"

    def test_delete_of_shared_secret_is_not_redirected(self, world):
        p = proc(world, TAINT)
        node = world.node_at("/etc/passwd")
        node.flags |= INTE
        pcopy = PartialCopyMap({"/etc/passwd": "/.stbac/passwd"})
        assert not pr_inte(p, node, "delete", pcopy).allowed

    def test_known_ops_only(self, world):
        assert "write" in INTE_OPS
        with pytest.raises(Exception):
            pr_inte(proc(world), None, "fly")


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
        with pytest.raises(ResourceExhausted):
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
        pcopy = parse_pcopy_map("pcopy /etc/passwd /.stbac/passwd\n"
                                "pcopy /etc/shadow /.stbac/shadow\n")
        assert pcopy.entries.get("/etc/passwd") == "/.stbac/passwd"
        assert pcopy.entries.get("/etc/shadow") == "/.stbac/shadow"

    def test_unmapped_path_is_none(self):
        pcopy = parse_pcopy_map("pcopy /etc/passwd /.stbac/passwd\n")
        assert pcopy.entries.get("/etc/hosts") is None

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
        world.node_at("/.stbac/passwd").flags |= CONF
        with pytest.raises(ConfigError, match="must not be marked conf"):
            validate_pcopy_against_world(pcopy, world)


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
