import contextlib
import gc
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from stbac import cli, engine, scenarios
from stbac.cli import main
from stbac.model import ALLOW, CONF, INTE, LEAK, ConfigError

from conftest import suspect
import trace_gen

PINNED = Path(__file__).resolve().parent / "pinned"

BOOT = """node /bin dir 0
node /bin/sh file 1
node /bin/ls file 1
node /etc dir 0
node /etc/passwd file 0
conf /etc/passwd
inte /bin
"""

HEALTH_TRACE = """1,1,execve,/bin/sh
2,1,fork,2
3,2,open_read,/etc/passwd
"""


@pytest.fixture
def bundle_dir(tmp_path):
    (tmp_path / "init.cfg").write_text(BOOT)
    (tmp_path / "trust.list").write_text("trust /bin/sh *:* *:* tcp 0..inf\n")
    (tmp_path / "pcopy.list").write_text("")
    (tmp_path / "trace").write_text(HEALTH_TRACE)
    return tmp_path


def scenario_args(name, tmp_path):
    bundle = scenarios.load(name)
    init = tmp_path / "init.cfg"
    trust = tmp_path / "trust.list"
    pcopy = tmp_path / "pcopy.list"
    trace = tmp_path / "scenario.trace"
    init.write_text(bundle.init_text)
    trust.write_text(bundle.trust_text)
    pcopy.write_text(bundle.pcopy_text)
    trace.write_text(bundle.trace_text)
    return ["--init", str(init), "--trust", str(trust), "--pcopy", str(pcopy),
            str(trace)], bundle


# Spellings of ten that int() alone accepts, and a space inside the field.
# Config and trust fields are split on whitespace, so a space padding a
# field is harmless there; a trace field keeps it (" 10 " below).
LOOKALIKE_INTEGERS = ("١٠", "1_0", "+10", "1 0")

INTEGER_FIELDS = [
    ("trace", "1,1,sched_tick\n{},1,sched_tick\n"),            # tick
    ("trace", "1,1,fork,10\n2,{},sched_tick\n"),               # pid
    ("trace", "1,1,sched_tick\n2,1,fork,{}\n"),                # an integer argument
    ("init.cfg", BOOT + "hwm cpu_ticks {} 90\n"),
    ("init.cfg", BOOT + "hwm cpu_ticks 10 {}\n"),
    ("init.cfg", BOOT + "cap cpu_ticks {}\n"),
    ("trust.list", "# spans\ntrust /bin/sh *:* *:* tcp {}..20\n"),
    ("trust.list", "# spans\ntrust /bin/sh *:* *:* tcp 1..{}\n"),
]


class TestReplayCommand:
    def test_health_only_trace_exits_zero(self, bundle_dir, capsys):
        code = main(["replay", "--init", str(bundle_dir / "init.cfg"),
                     "--trust", str(bundle_dir / "trust.list"),
                     str(bundle_dir / "trace")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 3
        assert "DENY" not in out

    def test_denying_scenario_exits_one_and_matches_audit(self, tmp_path):
        args, bundle = scenario_args("remote_user", tmp_path)
        audit_path = tmp_path / "audit.log"
        code = main(["replay", *args, "--audit", str(audit_path)])
        assert code == 1
        audit = audit_path.read_text()
        assert audit == bundle.expected_audit
        assert audit.count("DENY") == 2

    def test_bad_pid_exits_two_with_line(self, bundle_dir, capsys):
        (bundle_dir / "trace").write_text("1,99,sched_tick\n")
        code = main(["replay", "--init", str(bundle_dir / "init.cfg"),
                     str(bundle_dir / "trace")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("event,message", [("rename,/,/x", "cannot rename /"),
                                               ("rmdir,/", "cannot remove /")])
    def test_root_rename_and_rmdir_exit_two_with_line(self, bundle_dir, capsys,
                                                       event, message):
        (bundle_dir / "trace").write_text(f"1,1,sched_tick\n2,1,{event}\n")
        for command in ("replay", "check"):
            code = main([command, "--init", str(bundle_dir / "init.cfg"),
                         str(bundle_dir / "trace")])
            assert code == 2
            assert f"line 2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("trace,message", [
        ("1,1,socket_open,1,:22,:80,tcp\n", "line 1: empty IP address in ':22'"),
        ("1,1,fork,3\n2,3,exit\n3,1,set_stbac_attr,pid:3,taint,1\n",
         "line 3: pid 3 has exited"),
        ("1,1,fork,3\n2,3,exit\n3,1,get_stbac_attr,pid:3\n", "line 3: pid 3 has exited"),
        ("1,1,mmap_exec,/etc\n", "line 1: /etc is not a regular file"),
        ("-1,1,sched_tick\n", "line 1: negative tick -1"),
    ])
    def test_bad_events_exit_two_with_line(self, bundle_dir, capsys, trace, message):
        (bundle_dir / "trace").write_text(trace)
        for command in ("replay", "check"):
            code = main([command, "--init", str(bundle_dir / "init.cfg"),
                         str(bundle_dir / "trace")])
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_config_exits_two(self, bundle_dir, capsys):
        (bundle_dir / "init.cfg").write_text("node /x file 0\nnode /x file 0\n")
        code = main(["replay", "--init", str(bundle_dir / "init.cfg"),
                     str(bundle_dir / "trace")])
        assert code == 2

    def test_missing_input_file_exits_two(self, bundle_dir, capsys):
        missing = bundle_dir / "missing.cfg"
        assert main(["replay", "--init", str(missing), str(bundle_dir / "trace")]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n")

    @pytest.mark.parametrize("name,text,message", [
        ("init.cfg", BOOT + "hwm cpu_ticks -1 90\n",
         "boot config line 8: per-taint limit must be >= 0"),
        ("init.cfg", BOOT + "cap cpu_ticks 0\n",
         "boot config line 8: system total must be positive"),
        ("trust.list", "trust /bin/sh *:* *:* tcp -1..5\n",
         "trust list line 1: span start must be >= 0"),
    ], ids=["negative hwm limit", "zero cap", "negative span start"])
    def test_out_of_range_config_numbers_exit_two_with_line(self, bundle_dir, capsys,
                                                         name, text, message):
        (bundle_dir / name).write_text(text)
        code = main(["replay", "--init", str(bundle_dir / "init.cfg"),
                     "--trust", str(bundle_dir / "trust.list"), str(bundle_dir / "trace")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("config,message", [
        ("node /x file 0\n# again\nnode /x file 0\n",
         "boot config line 3: duplicate path in config: /x"),
        ("node /d/f file 0\nnode /d dir 0\n",
         "boot config line 2: duplicate path in config: /d"),
        ("node /d dir 0\n\ninte /d\nconf /e\n",
         "boot config line 4: flag conf on nonexistent path /e"),
        ("node /d dir 0\nnode /d//f file 0\n",
         "boot config line 2: empty path component not allowed: '/d//f'"),
        ("node /a file 0\nnode /a/b file 0\n",
         "boot config line 2: parent is not a directory: /a"),
    ], ids=["repeated node", "directory after its implicit creation",
            "mark on a missing path", "empty path component", "entry under a file"])
    def test_boot_tree_errors_name_their_line(self, bundle_dir, capsys, config,
                                              message):
        (bundle_dir / "init.cfg").write_text(config)
        for command in ("replay", "check"):
            code = main([command, "--init", str(bundle_dir / "init.cfg"),
                         str(bundle_dir / "trace")])
            assert code == 2
            assert f"error: {message}\n" == capsys.readouterr().err

    def test_non_ascii_digit_port_exits_two_with_line(self, bundle_dir, capsys):
        (bundle_dir / "trace").write_text(
            "1,1,socket_open,1,10.0.0.1:²,10.0.0.9:99,tcp\n", encoding="utf-8")
        for command in ("replay", "check"):
            code = main([command, "--init", str(bundle_dir / "init.cfg"),
                         str(bundle_dir / "trace")])
            assert code == 2
            assert "line 1: bad port '²'" in capsys.readouterr().err

    @pytest.mark.parametrize("name,template,spelling", [
        (name, template, spelling) for name, template in INTEGER_FIELDS
        for spelling in LOOKALIKE_INTEGERS + ((" 10 ",) if name == "trace" else ())])
    def test_integer_fields_take_ascii_digits_only(self, bundle_dir, capsys,
                                                   name, template, spelling):
        text = template.format(spelling)
        (bundle_dir / name).write_text(text, encoding="utf-8")
        for command in ("replay", "check"):
            code = main([command, "--init", str(bundle_dir / "init.cfg"),
                         "--trust", str(bundle_dir / "trust.list"),
                         str(bundle_dir / "trace")])
            assert code == 2
            assert f"line {text.count(chr(10))}" in capsys.readouterr().err

    @pytest.mark.parametrize("name,content", [
        ("trace", b"1,1,sched_tick\n2,1,\xff\n"),
        ("init.cfg", b"node /bin dir 0\nnode /b\xffn file 1\n"),
    ])
    def test_non_utf8_input_exits_two_naming_file_and_line(self, bundle_dir, capsys,
                                                           name, content):
        (bundle_dir / name).write_bytes(content)
        for command in ("replay", "check"):
            code = main([command, "--init", str(bundle_dir / "init.cfg"),
                         str(bundle_dir / "trace")])
            assert code == 2
            err = capsys.readouterr().err
            assert f"{bundle_dir / name} line 2" in err
            assert "0xff" in err

    def test_dot_output(self, tmp_path):
        args, _ = scenario_args("web_download", tmp_path)
        dot_path = tmp_path / "graph.dot"
        main(["replay", *args, "--audit", str(tmp_path / "a.log"),
              "--dot", str(dot_path)])
        dot = dot_path.read_text()
        assert dot.startswith("digraph replay {")
        assert "TR_sock_proc" in dot

    def test_only_replay_with_dot_records_a_graph(self, tmp_path, monkeypatch):
        graphs = []

        class CountedGraph(engine.DepGraph):
            def __init__(self):
                graphs.append(self)
                super().__init__()

        monkeypatch.setattr(cli, "DepGraph", CountedGraph)
        args, bundle = scenario_args("remote_user", tmp_path)
        plain, dotted = tmp_path / "plain.audit", tmp_path / "dotted.audit"
        assert main(["replay", *args, "--audit", str(plain)]) == 1
        assert graphs == []
        assert main(["replay", *args, "--audit", str(dotted),
                     "--dot", str(tmp_path / "graph.dot")]) == 1
        assert len(graphs) == 1 and graphs[0].denials
        assert plain.read_bytes() == dotted.read_bytes() == bundle.expected_audit.encode()


class TestRedirectBundle:
    BOOT = """node /bin dir 0
node /bin/sh file 1
node /etc dir 0
node /etc/passwd file 0
node /.stbac dir 0
node /.stbac/passwd file 0
conf /etc/passwd
"""
    TRACE = """1,1,execve,/bin/sh
2,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,udp
3,1,open_read,/etc/passwd
"""

    def test_replay_and_check_with_partial_copy(self, tmp_path, capsys):
        (tmp_path / "init.cfg").write_text(self.BOOT)
        (tmp_path / "pcopy.list").write_text("pcopy /etc/passwd /.stbac/passwd\n")
        (tmp_path / "trace").write_text(self.TRACE)
        common = ["--init", str(tmp_path / "init.cfg"),
                  "--pcopy", str(tmp_path / "pcopy.list"), str(tmp_path / "trace")]
        code = main(["replay", *common])
        assert code == 0   # redirected, not denied
        assert "ALLOW_REDIR(/.stbac/passwd)" in capsys.readouterr().out
        assert main(["check", *common]) == 0

    def test_conf_marked_copy_is_rejected(self, tmp_path):
        (tmp_path / "init.cfg").write_text(self.BOOT + "conf /.stbac/passwd\n")
        (tmp_path / "pcopy.list").write_text("pcopy /etc/passwd /.stbac/passwd\n")
        (tmp_path / "trace").write_text(self.TRACE)
        assert main(["replay", "--init", str(tmp_path / "init.cfg"),
                     "--pcopy", str(tmp_path / "pcopy.list"),
                     str(tmp_path / "trace")]) == 2

    def test_copy_holding_a_leaked_secret_is_a_denial(self, tmp_path, capsys):
        """A leak-capable health process that writes /etc/passwd into its
        copy marks the copy conf, so a suspect's later read is denied."""
        (tmp_path / "init.cfg").write_text(
            self.BOOT + "node /bin/copy file 1\nleak /bin/copy\n")
        (tmp_path / "pcopy.list").write_text("pcopy /etc/passwd /.stbac/passwd\n")
        (tmp_path / "trace").write_text("1,1,fork,2\n"
                                        "2,2,execve,/bin/copy\n"
                                        "3,2,open_read,/etc/passwd\n"
                                        "4,2,open_write,/.stbac/passwd\n"
                                        "5,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                                        "6,1,open_read,/etc/passwd\n")
        common = ["--init", str(tmp_path / "init.cfg"),
                  "--pcopy", str(tmp_path / "pcopy.list"), str(tmp_path / "trace")]
        assert main(["replay", *common]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "<4>6,1:-,/etc/passwd,open_read,-,DENY(PR_conf)")
        assert main(["check", *common]) == 0

    def test_copy_removed_by_the_trace_is_a_denial(self, tmp_path, capsys):
        """A copy valid at boot and unlinked later is no input error: the
        suspect's read is denied, and check still passes."""
        (tmp_path / "init.cfg").write_text(self.BOOT)
        (tmp_path / "pcopy.list").write_text("pcopy /etc/passwd /.stbac/passwd\n")
        (tmp_path / "trace").write_text("0,1,unlink,/.stbac/passwd\n" + self.TRACE)
        common = ["--init", str(tmp_path / "init.cfg"),
                  "--pcopy", str(tmp_path / "pcopy.list"), str(tmp_path / "trace")]
        assert main(["replay", *common]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith(",open_read,-,DENY(PR_conf)\n")
        assert captured.err == ""
        assert main(["check", *common]) == 0


    def test_a_bundle_checks_its_copy_map_as_replay_does(self, tmp_path, capsys):
        (tmp_path / "init.cfg").write_text(self.BOOT)
        (tmp_path / "pcopy.list").write_text("pcopy /etc/passwd /nope\n")
        (tmp_path / "trace").write_text(self.TRACE)
        message = "copy map line 1: partial copy /nope (for /etc/passwd) missing from the tree"
        assert main(["replay", "--init", str(tmp_path / "init.cfg"),
                     "--pcopy", str(tmp_path / "pcopy.list"),
                     str(tmp_path / "trace")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        bundle = scenarios.Bundle("copy", self.BOOT, "", "pcopy /etc/passwd /nope\n",
                                  self.TRACE, None)
        with pytest.raises(ConfigError) as info:
            bundle.replay()
        assert str(info.value) == message


class TestGraphCommand:
    def test_graph_to_stdout(self, bundle_dir, capsys):
        code = main(["graph", "--init", str(bundle_dir / "init.cfg"),
                     str(bundle_dir / "trace")])
        assert code == 0
        assert capsys.readouterr().out.startswith("digraph replay {")

    def test_graph_to_file(self, bundle_dir, capsys):
        dot = bundle_dir / "graph.dot"
        code = main(["graph", "--init", str(bundle_dir / "init.cfg"),
                     str(bundle_dir / "trace"), "--dot", str(dot)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert dot.read_text().startswith("digraph replay {")


    @pytest.mark.parametrize("token,node", [
        ("pid:x", None), ("pid:", None), ("pid:" + "9" * 5000, None), ("pid:99", None),
        ("pid:-1", None), ("pid:1", "proc:1")],
        ids=["letter", "empty", "5000 digits", "no such pid", "negative", "live pid"])
    def test_a_denied_op_names_a_process_only_by_a_pid_it_holds(self, bundle_dir,
                                                                capsys, token, node):
        """A privileged op audits its raw argument, which may read like a pid;
        it is a process node only when it names a process of the world, and
        an op: node otherwise."""
        (bundle_dir / "trace").write_text("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                                          f"2,1,create_module,{token}\n")
        args = ["--init", str(bundle_dir / "init.cfg"), str(bundle_dir / "trace")]
        assert main(["replay", *args]) == 1
        assert capsys.readouterr().out == (
            "<4>1,1:-,sock:1,socket_open,10.0.0.1:23->10.0.0.9:99/tcp,ALLOW\n"
            f"<4>2,1:-,{token},create_module,-,DENY(PR_inte)\n")
        assert main(["graph", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        edge = f'"proc:1" -> "{node or "op:" + token}" [label="PR_inte@2", style=dashed];'
        assert f"  {edge}\n" in captured.out


class TestCheckCommand:
    def test_scenarios_pass(self, tmp_path, capsys):
        for name in scenarios.NAMES:
            args, _ = scenario_args(name, tmp_path)
            assert main(["check", *args]) == 0
            out = capsys.readouterr().out
            assert "taint closure: PASS" in out

    def test_broken_engine_reports_divergence(self, tmp_path, capsys, monkeypatch):
        import stbac.taint
        monkeypatch.setattr(stbac.taint, "tr_exe_proc", lambda process, node: None)
        args, _ = scenario_args("web_download", tmp_path)
        assert main(["check", *args]) == 1
        out = capsys.readouterr().out
        assert "taint closure: FAIL" in out
        # the engine falls short: the process running the dropped file
        assert "engine missing proc:302" in out
        assert "engine extra" not in out

    def test_low_writer_leaving_a_clean_executable_fails_biba(self, tmp_path, capsys,
                                                               monkeypatch):
        import stbac.taint
        monkeypatch.setattr(stbac.taint, "tr_proc_exe", lambda process, node: None)
        args, _ = scenario_args("web_download", tmp_path)
        assert main(["check", *args]) == 1
        out = capsys.readouterr().out
        assert "low writers lower what they produce: FAIL\n" in out
        assert [line for line in out.splitlines() if "but the file is not low" in line] == [
            "  violation: event 4 (create, tick 5): low pid 300 created executable"
            " but the file is not low",
            "  violation: event 5 (create, tick 6): low pid 300 created executable"
            " but the file is not low"]

    def test_findings_before_a_trace_error_are_printed(self, tmp_path, capsys,
                                                        monkeypatch):
        """With tr_proc_proc asked as if its source were tainted, the
        administrator of remote_user is tainted and denied a create in /sbin
        that line 25 relies on.  check prints what the 19 events before that
        line showed, keeps the error on stderr and exits 1."""
        import stbac.taint
        original = stbac.taint.tr_proc_proc
        monkeypatch.setattr(stbac.taint, "tr_proc_proc",
                            lambda *args: original(*map(suspect, args)))
        args, bundle = scenario_args("remote_user", tmp_path)
        assert main(["check", *args]) == 1
        out, err = capsys.readouterr()
        assert err == "error: line 25: no such path /sbin/new_command\n"
        assert out.startswith("taint closure: FAIL (18 diverging events)\n"
                              "  event 1 (tick 2): engine extra proc:100\n")
        assert out.endswith("processes from low sources are low: PASS\n"
                            "replay: 19 events, 2 denials\n")
        with pytest.raises(cli.CheckStopped, match="^line 25: no such") as stopped:
            bundle.check()
        diff, report, replayer = stopped.value.findings
        assert (stopped.value.line, diff.count, diff.events, replayer.denials) == (25, 18, 19, 2)
        assert report.all_passed()

    def test_a_failed_condition_before_a_trace_error_is_printed(self, bundle_dir, capsys,
                                                                monkeypatch):
        """A Biba violation alone, with the closure agreeing, is a finding."""
        monkeypatch.setattr(engine, "pr_inte", lambda *args, **kwargs: ALLOW)
        (bundle_dir / "init.cfg").write_text(BOOT + "node /etc/motd file 0\ninte /etc/motd\n")
        (bundle_dir / "trace").write_text("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                                          "2,1,open_write,/etc/motd\n"
                                          "3,1,open_read,/nope\n")
        assert main(["check", "--init", str(bundle_dir / "init.cfg"),
                     str(bundle_dir / "trace")]) == 1
        out, err = capsys.readouterr()
        assert err == "error: line 3: no such path /nope\n"
        assert out.startswith("taint closure: PASS")
        assert "low writers lower what they produce: FAIL" in out
        assert out.endswith("replay: 2 events, 0 denials\n")

    def test_a_trace_error_with_nothing_found_prints_nothing(self, bundle_dir, capsys):
        """Taint the engine and the oracle agree on is no finding: the error
        alone is reported, with exit code 2."""
        (bundle_dir / "trace").write_text("1,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n"
                                          "2,1,fork,2\n"
                                          "3,2,open_read,/nope\n")
        assert main(["check", "--init", str(bundle_dir / "init.cfg"),
                     str(bundle_dir / "trace")]) == 2
        assert capsys.readouterr() == ("", "error: line 3: no such path /nope\n")

    def test_empty_trace_vacuous_pass(self, bundle_dir):
        (bundle_dir / "trace").write_text("")
        assert main(["check", "--init", str(bundle_dir / "init.cfg"),
                     str(bundle_dir / "trace")]) == 0

    def test_one_structure_one_pass_and_one_step_per_event_per_check(self, tmp_path,
                                                                     monkeypatch):
        from stbac import oracle
        counts = {"structures": 0, "passes": 0, "steps": 0}

        class CountedStructure(oracle._Structure):
            def __init__(self, *args):
                counts["structures"] += 1
                super().__init__(*args)

        class CountedPass(oracle.OnePass):
            def __init__(self, *args):
                counts["passes"] += 1
                super().__init__(*args)

            def step(self, *args):
                counts["steps"] += 1
                return super().step(*args)

        monkeypatch.setattr(oracle, "_Structure", CountedStructure)
        monkeypatch.setattr(cli, "OnePass", CountedPass)
        args, bundle = scenario_args("remote_attack", tmp_path)
        assert main(["check", *args]) == 0
        assert counts == {"structures": 1, "passes": 1, "steps": len(bundle.events())}

    @pytest.mark.parametrize("name", ["remote_attack", "trace_gen_seed4"])
    def test_failing_output_is_pinned(self, name, tmp_path, capsys, monkeypatch):
        """With tr_sock_proc stubbed the engine never taints, so a divergence
        persists across events that change neither side's tainted set.  The
        output is pinned byte for byte as a per-event comparison printed it:
        the divergence count, the first 20 divergences and the Biba lines.
        trace_gen_seed4/ is a trace_gen "full" trace, kept as files."""
        import stbac.taint
        monkeypatch.setattr(stbac.taint, "tr_sock_proc", lambda process, socket: None)
        if name == "remote_attack":
            args, _ = scenario_args(name, tmp_path)
        else:
            bundle = PINNED / name
            args = ["--init", str(bundle / "init.cfg"), "--trust", str(bundle / "trust.list"),
                    "--pcopy", str(bundle / "pcopy.list"), str(bundle / "trace")]
        assert main(["check", *args]) == 1
        expected = (PINNED / f"{name}.tr_sock_proc.out").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected


class TestFlagCommands:
    def test_recursive_set_marks_subtree(self, bundle_dir, capsys):
        init = bundle_dir / "init.cfg"
        code = main(["set-flag", "--init", str(init), "--recursive",
                     "/bin", "inte", "on"])
        assert code == 0
        main(["get-flag", "--init", str(init), "--recursive", "/bin"])
        out = capsys.readouterr().out
        assert "/bin/sh inte" in out
        assert "/bin/ls inte" in out

    def test_get_on_unflagged_prints_dash(self, bundle_dir, capsys):
        main(["get-flag", "--init", str(bundle_dir / "init.cfg"), "/bin/ls"])
        assert capsys.readouterr().out == "/bin/ls -\n"

    def test_set_off_clears(self, bundle_dir, capsys):
        init = bundle_dir / "init.cfg"
        main(["set-flag", "--init", str(init), "/etc/passwd", "conf", "off"])
        capsys.readouterr()
        main(["get-flag", "--init", str(init), "/etc/passwd"])
        assert capsys.readouterr().out == "/etc/passwd -\n"

    def test_missing_path_is_nonzero(self, bundle_dir):
        code = main(["set-flag", "--init", str(bundle_dir / "init.cfg"),
                     "/nope", "conf", "on"])
        assert code == 1

    def test_set_flag_round_trip_keeps_implicit_directories(self, bundle_dir, capsys):
        init = bundle_dir / "init.cfg"
        init.write_text("node /a/b file 0\n")
        assert main(["set-flag", "--init", str(init), "/a/b", "conf", "on"]) == 0
        assert init.read_text() == "node /a dir 0\nnode /a/b file 0\nconf /a/b\n"
        capsys.readouterr()
        assert main(["get-flag", "--init", str(init), "--recursive", "/a"]) == 0
        assert capsys.readouterr().out == "/a -\n/a/b conf\n"

    def test_set_flag_refuses_an_empty_path_component(self, bundle_dir, capsys):
        init = bundle_dir / "init.cfg"
        init.write_text("node /a//b file 0\n")
        code = main(["set-flag", "--init", str(init), "/a//b", "conf", "on"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: boot config line 1: empty path component not allowed: '/a//b'\n")
        assert init.read_text() == "node /a//b file 0\n"

    def test_marks_of_the_root_are_kept(self, bundle_dir, capsys):
        """inte / refuses a suspect's top-level creates; no edit drops it."""
        init = bundle_dir / "init.cfg"
        init.write_text("node /etc dir 0\n")
        assert main(["set-flag", "--init", str(init), "/", "inte", "on"]) == 0
        assert init.read_text() == "node /etc dir 0\ninte /\n"
        assert main(["set-flag", "--init", str(init), "/etc", "conf", "on"]) == 0
        assert init.read_text() == "node /etc dir 0\ninte /\nconf /etc\n"
        capsys.readouterr()
        assert main(["get-flag", "--init", str(init), "/"]) == 0
        assert capsys.readouterr().out == "/ inte\n"

    def test_snapshot_still_boots_after_rewrite(self, bundle_dir):
        init = bundle_dir / "init.cfg"
        main(["set-flag", "--init", str(init), "--recursive", "/bin", "inte", "on"])
        assert main(["replay", "--init", str(init),
                     str(bundle_dir / "trace")]) == 0


class TestTrustCommands:
    def test_add_list_remove_round_trip(self, tmp_path, capsys):
        trust = tmp_path / "trust.list"
        code = main(["trust", "--trust", str(trust), "add",
                     "/usr/sbin/sshd", "*:22", "*:*", "tcp", "0..inf"])
        assert code == 0
        assert trust.read_text() == "trust /usr/sbin/sshd *:22 *:* tcp 0..inf\n"
        main(["trust", "--trust", str(trust), "list"])
        assert "sshd" in capsys.readouterr().out
        assert main(["trust", "--trust", str(trust), "remove",
                     "/usr/sbin/sshd"]) == 0
        assert trust.read_text() == ""

    def test_remove_of_an_absent_program_exits_one(self, tmp_path, capsys):
        trust = tmp_path / "trust.list"
        trust.write_text("trust /bin/sh *:* *:* tcp 0..inf\n")
        assert main(["trust", "--trust", str(trust), "remove", "/usr/sbin/sshd"]) == 1
        assert capsys.readouterr().err == "error: no entry for program /usr/sbin/sshd\n"
        assert trust.read_text() == "trust /bin/sh *:* *:* tcp 0..inf\n"

    def test_add_after_a_last_line_without_newline(self, tmp_path):
        trust = tmp_path / "trust.list"
        trust.write_text("trust /bin/sh *:* *:* tcp 0..inf")
        assert main(["trust", "--trust", str(trust), "add",
                     "/usr/sbin/sshd", "*:22", "*:*", "tcp", "0..5"]) == 0
        assert trust.read_text() == ("trust /bin/sh *:* *:* tcp 0..inf\n"
                                     "trust /usr/sbin/sshd *:22 *:* tcp 0..5\n")

    def test_malformed_entry_rejected(self, tmp_path):
        trust = tmp_path / "trust.list"
        code = main(["trust", "--trust", str(trust), "add",
                     "/p", "nonsense", "*:*", "tcp", "0..inf"])
        assert code == 2

    def test_empty_ip_rejected_and_file_unchanged(self, tmp_path, capsys):
        trust = tmp_path / "trust.list"
        before = "trust /usr/sbin/sshd *:22 *:* tcp 0..inf\n"
        trust.write_text(before)
        code = main(["trust", "--trust", str(trust), "add",
                     "/bin/sh", ":22", "*:*", "tcp", "0..inf"])
        assert code == 2
        assert "empty IP address" in capsys.readouterr().err
        assert trust.read_text() == before
        trust.write_text(before + "trust /bin/sh :22 *:* tcp 0..inf\n")
        assert main(["trust", "--trust", str(trust), "list"]) == 2
        assert "trust list line 2: empty IP address" in capsys.readouterr().err

    def test_add_to_a_malformed_list_rejected_and_file_unchanged(self, tmp_path, capsys):
        trust = tmp_path / "trust.list"
        before = "garbage line here\n"
        trust.write_text(before)
        code = main(["trust", "--trust", str(trust), "add",
                     "/usr/sbin/sshd", "*:22", "*:*", "tcp", "0..inf"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: trust list line 1: malformed trust entry: 'garbage line here'\n")
        assert trust.read_text() == before

    def test_list_empty_file(self, tmp_path, capsys):
        trust = tmp_path / "trust.list"
        trust.write_text("")
        assert main(["trust", "--trust", str(trust), "list"]) == 0
        assert capsys.readouterr().out == ""


class TestPcopyCommands:
    def test_add_and_list(self, tmp_path, capsys):
        pcopy = tmp_path / "pcopy.list"
        assert main(["pcopy", "--pcopy", str(pcopy), "add",
                     "/etc/shadow", "/.stbac/shadow"]) == 0
        main(["pcopy", "--pcopy", str(pcopy), "list"])
        assert capsys.readouterr().out == "pcopy /etc/shadow /.stbac/shadow\n"

    def test_add_after_a_last_line_without_newline(self, tmp_path):
        pcopy = tmp_path / "pcopy.list"
        pcopy.write_text("pcopy /etc/shadow /.stbac/shadow")
        assert main(["pcopy", "--pcopy", str(pcopy), "add", "/a", "/b"]) == 0
        assert pcopy.read_text() == "pcopy /etc/shadow /.stbac/shadow\npcopy /a /b\n"

    def test_duplicate_add_rejected(self, tmp_path):
        pcopy = tmp_path / "pcopy.list"
        main(["pcopy", "--pcopy", str(pcopy), "add", "/a", "/b"])
        assert main(["pcopy", "--pcopy", str(pcopy), "add", "/a", "/c"]) == 1

    def test_remove(self, tmp_path):
        pcopy = tmp_path / "pcopy.list"
        main(["pcopy", "--pcopy", str(pcopy), "add", "/a", "/b"])
        assert main(["pcopy", "--pcopy", str(pcopy), "remove", "/a"]) == 0
        assert pcopy.read_text() == ""
        assert main(["pcopy", "--pcopy", str(pcopy), "remove", "/a"]) == 1

    def test_remove_keeps_file_order_and_the_first_bad_copy(self, bundle_dir, capsys):
        """The map is validated in file order, so a remove that reordered the
        rest would change which bad copy a replay reports; list stays sorted."""
        pcopy = bundle_dir / "pcopy.list"
        pcopy.write_text("pcopy /z /zc\npcopy /a /ac\npcopy /m /mc\n")
        replay = ["replay", "--init", str(bundle_dir / "init.cfg"), "--pcopy", str(pcopy),
                  str(bundle_dir / "trace")]
        error = "error: copy map line 1: partial copy /zc (for /z) missing from the tree\n"
        assert main(replay) == 2
        assert capsys.readouterr().err == error
        assert main(["pcopy", "--pcopy", str(pcopy), "remove", "/m"]) == 0
        assert pcopy.read_text() == "pcopy /z /zc\npcopy /a /ac\n"
        assert main(replay) == 2
        assert capsys.readouterr().err == error
        assert main(["pcopy", "--pcopy", str(pcopy), "list"]) == 0
        assert capsys.readouterr().out == "pcopy /a /ac\npcopy /z /zc\n"


# Malformed path and endpoint tokens, each with the one message every input
# that takes such a token gives for it.
BAD_PATHS = [
    ("tmp", "path must be absolute: 'tmp'"),
    ("/tmp/", "trailing slash not allowed: '/tmp/'"),
    ("//tmp", "empty path component not allowed: '//tmp'"),
    ("/a//b", "empty path component not allowed: '/a//b'"),
]
BAD_ENDPOINTS = [
    ("10.0.0.1", "endpoint must be ip:port, got '10.0.0.1'"),
    (":80", "empty IP address in ':80'"),
    ("10.0.0.1:x", "bad port 'x'"),
]

# The inputs that take a path or an endpoint: the file the token goes into,
# its text around the token, and what the error names before the message.
PATH_INPUTS = {
    "trace node": ("trace", "1,1,sched_tick\n2,1,open_read,{}\n", "line 2: "),
    "trace fresh path": ("trace", "1,1,sched_tick\n2,1,create,{},0\n", "line 2: "),
    "boot node": ("init.cfg", BOOT + "node {} file 0\n", "boot config line 8: "),
    "boot conf": ("init.cfg", BOOT + "conf {}\n", "boot config line 8: "),
    "trust program": ("trust.list", "# programs\ntrust {} *:* *:* tcp 0..inf\n",
                      "trust list line 2: "),
    "copy map shared": ("pcopy.list", "# shared\npcopy {} /bin/ls\n", "copy map line 2: "),
    "copy map copy": ("pcopy.list", "# copy\npcopy /etc/passwd {}\n", "copy map line 2: "),
}
ENDPOINT_INPUTS = {
    "trace local": ("trace", "1,1,sched_tick\n2,1,socket_open,1,{},10.0.0.9:99,tcp\n",
                    "line 2: "),
    "trace remote": ("trace", "1,1,sched_tick\n2,1,socket_open,1,10.0.0.1:23,{},tcp\n",
                     "line 2: "),
    "trust local": ("trust.list", "# endpoints\ntrust /bin/sh {} *:* tcp 0..inf\n",
                    "trust list line 2: "),
    "trust remote": ("trust.list", "# endpoints\ntrust /bin/sh *:* {} tcp 0..inf\n",
                     "trust list line 2: "),
}


def readme_boot_config() -> str:
    """The first code block after the README's **Boot config** heading."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("**Boot config**", 1)[1].split("```\n", 2)[1]
    assert block.startswith("# path"), block
    return block


def test_the_readme_boot_config_boots():
    config, world, _ = cli.load_bundle(readme_boot_config(), "", "")
    assert world.node_at("/etc/passwd").flags == CONF
    assert world.node_at("/etc").flags == INTE
    assert world.node_at("/bin/cp").flags == LEAK
    assert (world.ledger.hwm_st["cpu_ticks"], world.ledger.hwm_sys["cpu_ticks"],
            world.ledger.caps["cpu_ticks"]) == (5, 90, 1000)


class TestOneGrammar:
    """A malformed path or endpoint gets one message in every input that
    takes one, with exit 2 and, in a file, the line it sits on."""

    @staticmethod
    def assert_refused(bundle_dir, capsys, name, template, token, expected):
        (bundle_dir / name).write_text(template.format(token))
        for command in ("replay", "check"):
            code = main([command, "--init", str(bundle_dir / "init.cfg"),
                         "--trust", str(bundle_dir / "trust.list"),
                         "--pcopy", str(bundle_dir / "pcopy.list"),
                         str(bundle_dir / "trace")])
            assert code == 2
            assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("token,message", BAD_PATHS, ids=[t for t, _ in BAD_PATHS])
    @pytest.mark.parametrize("where", PATH_INPUTS)
    def test_a_bad_path(self, bundle_dir, capsys, where, token, message):
        name, template, prefix = PATH_INPUTS[where]
        self.assert_refused(bundle_dir, capsys, name, template, token, prefix + message)

    @pytest.mark.parametrize("token,message", BAD_ENDPOINTS,
                             ids=[t for t, _ in BAD_ENDPOINTS])
    @pytest.mark.parametrize("where", ENDPOINT_INPUTS)
    def test_a_bad_endpoint(self, bundle_dir, capsys, where, token, message):
        name, template, prefix = ENDPOINT_INPUTS[where]
        self.assert_refused(bundle_dir, capsys, name, template, token, prefix + message)

    @pytest.mark.parametrize("token,message", BAD_PATHS, ids=[t for t, _ in BAD_PATHS])
    @pytest.mark.parametrize("command", ["set-flag", "get-flag"])
    def test_a_bad_flag_command_path(self, bundle_dir, capsys, command, token, message):
        init = bundle_dir / "init.cfg"
        values = ["conf", "on"] if command == "set-flag" else []
        assert main([command, "--init", str(init), token, *values]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert init.read_text() == BOOT

    @pytest.mark.parametrize("token,message", BAD_PATHS, ids=[t for t, _ in BAD_PATHS])
    @pytest.mark.parametrize("command,entry", [
        ("trust", "trust /bin/sh *:* *:* tcp 0..inf\n"),
        ("pcopy", "pcopy /etc/passwd /.stbac/passwd\n")], ids=["trust", "pcopy"])
    def test_a_bad_remove_path(self, tmp_path, capsys, command, entry, token, message):
        listing = tmp_path / "list"
        listing.write_text(entry)
        assert main([command, f"--{command}", str(listing), "remove", token]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert listing.read_text() == entry

    @pytest.mark.parametrize("token,message", BAD_PATHS, ids=[t for t, _ in BAD_PATHS])
    @pytest.mark.parametrize("where", ["shared", "copy"])
    def test_a_bad_pcopy_add_path(self, tmp_path, capsys, where, token, message):
        """The bad argument is named alone, not as a line of the file, and
        no file is written."""
        listing = tmp_path / "list"
        paths = [token, "/b"] if where == "shared" else ["/a", token]
        assert main(["pcopy", "--pcopy", str(listing), "add", *paths]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not listing.exists()

    def test_a_star_port_is_refused_only_in_a_trace(self, bundle_dir, capsys):
        (bundle_dir / "trust.list").write_text("trust /bin/sh 10.0.0.1:* *:* tcp 0..inf\n")
        self.assert_refused(bundle_dir, capsys, "trace",
                            "1,1,execve,/bin/sh\n2,1,socket_open,1,{},10.0.0.9:99,tcp\n",
                            "10.0.0.1:*", "line 2: bad port '*'")
        (bundle_dir / "trace").write_text(
            "1,1,execve,/bin/sh\n2,1,socket_open,1,10.0.0.1:23,10.0.0.9:99,tcp\n")
        assert main(["replay", "--init", str(bundle_dir / "init.cfg"),
                     "--trust", str(bundle_dir / "trust.list"),
                     str(bundle_dir / "trace")]) == 0
        assert capsys.readouterr().out.endswith(
            ",sock:1,socket_open,10.0.0.1:23->10.0.0.9:99/tcp,ALLOW\n")


class TestParserReuse:
    """main builds its parser once per process; each call parses afresh."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_keep_no_parsed_state(self, bundle_dir, capsys):
        common = ["--init", str(bundle_dir / "init.cfg"), str(bundle_dir / "trace")]
        dot = bundle_dir / "graph.dot"
        assert main(["replay", *common, "--dot", str(dot)]) == 0
        first = dot.read_text()
        dot.write_text("untouched")
        assert main(["replay", *common]) == 0
        assert dot.read_text() == "untouched"
        assert main(["check", *common]) == 0
        assert main(["trust", "--trust", str(bundle_dir / "trust.list"), "list"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("replay: 3 events, 0 denials\n"
                            "trust /bin/sh *:* *:* tcp 0..inf\n")
        assert first.startswith("digraph replay {")


def synthetic_args(tmp_path, count, tail=""):
    """Bundle arguments for the first count events of the criterion-8
    synthetic trace followed by the lines in tail."""
    (tmp_path / "init.cfg").write_text(trace_gen.PERF_BOOT)
    trace = tmp_path / f"synthetic{count}.trace"
    trace.write_text(trace_gen.synthetic_trace(count) + tail)
    return ["--init", str(tmp_path / "init.cfg"), str(trace)]


class TestStreaming:
    """replay, graph and check step over the trace one event at a time and
    write nothing before the whole trace has replayed.  LONG events give a
    trace longer than one engine.TRACE_CHUNK and an audit longer than the
    in-memory part of the spool, cli.SPOOL_CHARS."""

    LONG = 12_000

    @pytest.fixture
    def long_args(self, tmp_path):
        args = synthetic_args(tmp_path, self.LONG)
        assert len(Path(args[-1]).read_text()) > engine.TRACE_CHUNK
        return args

    def test_a_spilled_audit_is_the_whole_audit(self, tmp_path, long_args, capsys):
        audit, dot = tmp_path / "audit", tmp_path / "dot"
        assert main(["replay", *long_args, "--audit", str(audit), "--dot", str(dot)]) == 1
        assert main(["replay", *long_args]) == 1
        assert main(["graph", *long_args]) == 1
        out = capsys.readouterr().out
        events = engine.parse_trace(Path(long_args[-1]).read_text())
        world = cli.spawn_boot_world(cli.parse_init_config(trace_gen.PERF_BOOT))
        result = engine.replay(world, events)
        expected = result.audit_text()
        assert len(expected) > cli.SPOOL_CHARS
        assert audit.read_text() == expected
        assert out == expected + dot.read_text()
        assert dot.read_text() == engine.export_graph(result.graph)

    @pytest.mark.parametrize("command", [["replay", "--audit", "A", "--dot", "D"],
                                         ["replay"], ["graph"], ["check"]],
                             ids=["replay to files", "replay", "graph", "check"])
    def test_an_error_past_the_spool_writes_nothing(self, tmp_path, capsys, command):
        """An inapplicable event after the in-memory chunks exits 2 with its
        line; earlier output files keep their bytes and stdout stays empty."""
        line = self.LONG + 1
        args = synthetic_args(tmp_path, self.LONG, f"{10 ** 9},99,sched_tick\n")
        outputs = {"A": tmp_path / "old.audit", "D": tmp_path / "old.dot"}
        for name, path in outputs.items():
            path.write_text(f"previous {name}\n")
        argv = [str(outputs.get(arg, arg)) for arg in command]
        assert main([*argv, *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line {line}: no such pid 99\n"
        assert captured.out == ""
        for name, path in outputs.items():
            assert path.read_text() == f"previous {name}\n"

    @pytest.mark.parametrize("command", ["replay", "graph", "check"])
    def test_the_first_bad_line_in_trace_order_is_reported(self, bundle_dir, capsys,
                                                           command):
        """An inapplicable event on line 3 is reported before a malformed
        line 10: the trace is parsed as it is replayed."""
        lines = ["1,1,sched_tick", "2,1,sched_tick", "3,99,sched_tick"]
        lines += [f"{tick},1,sched_tick" for tick in range(4, 10)] + ["10,1,no_such_op"]
        (bundle_dir / "trace").write_text("\n".join(lines) + "\n")
        assert main([command, "--init", str(bundle_dir / "init.cfg"),
                     str(bundle_dir / "trace")]) == 2
        assert capsys.readouterr().err == "error: line 3: no such pid 99\n"


class TestProgram:
    """`python -m stbac.cli` as a program, with every read of a text file
    under the locale's default encoding turned into an error."""

    ROOT = Path(__file__).resolve().parent.parent
    SCENARIOS = ROOT / "src" / "stbac" / "scenarios"

    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-B", "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", *args],
            capture_output=True, text=True, encoding="utf-8", timeout=120,
            env={**os.environ, "PYTHONPATH": str(self.ROOT / "src")})

    def bundle_args(self, name):
        root = self.SCENARIOS / name
        return ["--init", str(root / "init.cfg"), "--trust", str(root / "trust.list"),
                "--pcopy", str(root / "pcopy.list"), str(root / "scenario.trace")]

    @pytest.mark.parametrize("name", scenarios.NAMES)
    def test_a_bundle_replays_to_its_audit_and_checks(self, name):
        proc = self.run("-m", "stbac.cli", "replay", *self.bundle_args(name))
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout == (self.SCENARIOS / name / "expected.audit").read_text(
            encoding="utf-8")
        proc = self.run("-m", "stbac.cli", "check", *self.bundle_args(name))
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout

    def test_a_malformed_trace_exits_two_with_its_line(self, tmp_path):
        trace = tmp_path / "trace"
        trace.write_text("1,1,sched_tick\n2,1,frobnicate\n", encoding="utf-8")
        init = self.SCENARIOS / "remote_user" / "init.cfg"
        proc = self.run("-m", "stbac.cli", "replay", "--init", str(init), str(trace))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: line 2: unknown operation 'frobnicate'\n"

    def test_loading_the_bundles_warns_of_no_encoding(self):
        proc = self.run("-c", "from stbac import scenarios\n"
                              "for name in scenarios.NAMES:\n"
                              "    scenarios.load(name)\n")
        assert (proc.returncode, proc.stderr) == (0, "")


class TestMemoryPerEvent:
    """Peak memory of replay and check grows with the world, not with the
    trace: from 10k to 40k criterion-8 events the tracemalloc peak of an
    in-process call grows by at most 64 B per added event.  That leaves
    room for the decoded trace text, which the CLI reads whole, and for the
    DOT graph's denial edges (one per ten events here)."""

    BOUND = 64

    @staticmethod
    def peak(argv) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                main(argv)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("command", ["replay", "check"])
    def test_peak_grows_by_at_most_64_bytes_per_event(self, tmp_path, command):
        outputs = ["--audit", str(tmp_path / "F"), "--dot", str(tmp_path / "G")]
        extra = outputs if command == "replay" else []
        self.peak([command, *synthetic_args(tmp_path, 100), *extra])   # warm-up
        small, large = (self.peak([command, *synthetic_args(tmp_path, count), *extra])
                        for count in (10_000, 40_000))
        per_event = (large - small) / 30_000
        assert per_event <= self.BOUND, f"{command}: {per_event:.0f} B per event"

    @pytest.mark.parametrize("command", ["replay", "check"])
    def test_file_churn_peak_grows_by_at_most_64_bytes_per_event(self, tmp_path, command):
        """The same bound on trace_gen.churn_trace, whose cycles create and
        unlink a tainted executable, a protected file and a fifo with a
        message pending: a removed file leaves nothing behind."""
        (tmp_path / "init.cfg").write_text(trace_gen.CHURN_BOOT)
        extra = ["--audit", str(tmp_path / "F")] if command == "replay" else []

        def churn_peak(cycles):
            trace = tmp_path / f"churn{cycles}.trace"
            trace.write_text(trace_gen.churn_trace(cycles))
            return self.peak([command, "--init", str(tmp_path / "init.cfg"), str(trace),
                              *extra])

        churn_peak(10)       # warm-up
        small, large = churn_peak(1500), churn_peak(6000)
        per_event = (large - small) / (7 * 4500)
        assert per_event <= self.BOUND, f"{command}: {per_event:.0f} B per event"
