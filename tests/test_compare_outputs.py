"""tools/compare_outputs.py: a checkout matches itself, one changed error
message, divergence line or trust listing in a copy of src/ is caught, and
mutants reach the copy map and every file of a bundle."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"

# No workloads, and 20 mutants: several of them hit the absolute-path check.
ARGS = ["--seeds", "0", "--mutants", "20"]


def compare(old, new):
    return subprocess.run([sys.executable, str(TOOL), str(old), str(new), *ARGS],
                          capture_output=True, text=True, timeout=300)


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def copy_src_replacing(tmp_path, module, old, new):
    """A copy of src/ under tmp_path with one text of one module replaced."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "stbac" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")


def test_a_checkout_matches_itself():
    proc = compare(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(": 0 differences\n")


def test_one_altered_error_message_is_a_difference(tmp_path):
    copy_src_replacing(tmp_path, "model.py", 'f"path must be absolute: {path!r}"',
                       'f"path not absolute: {path!r}"')
    proc = compare(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "replay stderr differs" in proc.stdout
    assert "path not absolute: " in proc.stdout


def test_an_altered_divergence_line_is_a_difference(tmp_path):
    """Only a failing check prints divergence lines; the checks with a taint
    rule stubbed reach them."""
    copy_src_replacing(tmp_path, "oracle.py", '"engine missing "', '"engine lacks "')
    proc = compare(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "scenario remote_attack: check with taint.tr_sock_proc stubbed stdout differs" \
        in proc.stdout


def test_differing_calls_are_tallied_by_field_and_command(tmp_path):
    """An altered divergence line changes the stdout of failing checks
    alone: the tally names that field and the stubbed checks, and nothing
    else."""
    copy_src_replacing(tmp_path, "oracle.py", '"engine missing "', '"engine lacks "')
    proc = compare(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    tally = re.search(r"^(\d+) differing calls; by field: stdout (\d+); "
                      r"by command: check \(rule stubbed\) (\d+)$", proc.stdout, re.M)
    assert tally, proc.stdout
    assert len(set(tally.groups())) == 1 and int(tally[1]) > 0, proc.stdout
    assert re.search(rf": {tally[1]} differences\n$", proc.stdout), proc.stdout


def test_a_call_that_raises_past_main_fails_the_run(tmp_path):
    """A traceback on both sides compares equal, yet the run fails: each
    raising call of the new side is listed with its case and counted."""
    copy_src_replacing(tmp_path, "cli.py", "def cmd_check(args) -> int:\n",
                       "def cmd_check(args) -> int:\n"
                       "    raise RuntimeError('boom')\n")
    proc = compare(tmp_path, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "scenario remote_user: check raised RuntimeError: boom\n" in proc.stdout
    # The three scenarios' and twenty mutants' checks, and eight stubbed
    # checks per scenario.
    assert re.search(r"; 47 raised past main\): 0 differences\n$", proc.stdout), \
        proc.stdout


def test_an_altered_trust_listing_is_a_difference(tmp_path):
    """`trust list` runs on the bundles that are not mutants."""
    copy_src_replacing(tmp_path, "guard.py", 'return (f"trust {entry.program}',
                       'return (f"trust  {entry.program}')
    proc = compare(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "scenario remote_user: trust stdout differs" in proc.stdout


def test_some_mutants_mutate_the_copy_map_bundle(tmp_path):
    tool = load_tool()
    assert "/etc/shared_copy" in tool.TOKENS
    cases = tool.build_cases(tmp_path, 0, 20)
    copy_maps = {}
    for name, bundle, _, _ in cases:
        if name.startswith("mutant "):
            source = name.split(" of ", 1)[1].split(" (", 1)[0]
            copy_maps.setdefault(source, set()).add(
                Path(bundle[bundle.index("--pcopy") + 1]).read_text())
    assert set(copy_maps) == {*tool.SCENARIOS, tool.COPY_MAP_SOURCE}
    assert "pcopy /etc/shared /etc/shared_copy\n" in copy_maps[tool.COPY_MAP_SOURCE]


def test_each_mutant_swaps_one_token_of_one_file():
    """A mutant changes at most one line of one file of its bundle (none when
    the token drawn equals the one it replaces); the boot config, trust list,
    copy map and trace are each mutated."""
    tool = load_tool()
    bundles = tool.source_bundles()
    mutated = set()
    for k in range(40):
        name, files, what = tool.mutant(k, bundles)
        assert list(files) == list(tool.PARTS)
        changed = [part for part in tool.PARTS if files[part] != bundles[name][part]]
        assert changed in ([], [what.split()[0]]), (k, what)
        for part in changed:
            before, after = bundles[name][part].splitlines(), files[part].splitlines()
            assert len(before) == len(after)
            assert sum(a != b for a, b in zip(before, after)) == 1, (k, what)
            mutated.add(part)
    assert mutated == set(tool.PARTS)


def test_an_altered_boot_config_error_is_a_difference(tmp_path):
    """A mutant of a boot config reaches the loader's error path."""
    copy_src_replacing(tmp_path, "world.py",
                       'raise ConfigError(f"boot config line {line_no}: {exc}") from None\n'
                       '    return config',
                       'raise ConfigError(f"bad config line {line_no}: {exc}") from None\n'
                       '    return config')
    proc = compare(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert re.search(r"^mutant \d+ of [^(]+\(init\.cfg line .*\): replay stderr differs: "
                     r".error: boot config line \d+: .* -> .error: bad config line \d+: ",
                     proc.stdout, re.M), \
        proc.stdout


def test_the_compared_checkouts_get_no_bytecode(tmp_path):
    """The children run with -B: a comparison leaves both checkouts as it
    found them, so a later benchmark of the two imports no cache."""
    for side in ("old", "new"):
        shutil.copytree(ROOT / "src", tmp_path / side / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = compare(tmp_path / "old", tmp_path / "new")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [str(path) for path in tmp_path.rglob("__pycache__")] == []


def test_every_case_replays_to_stdout_without_a_graph(tmp_path):
    """Beside `replay --audit --dot`, each case runs `replay` with the audit
    on stdout and no --dot, so that path's bytes are compared too."""
    tool = load_tool()
    cases = tool.build_cases(tmp_path, 1, 5)
    jobs, owners = tool.jobs_for(cases, ("A", "D"))
    for name, bundle, trace, _ in cases:
        calls = [argv for (argv, rule), owner in zip(jobs, owners) if owner == name]
        assert ["replay", *bundle, trace] in calls, name
        assert ["replay", *bundle, trace, "--audit", "A", "--dot", "D"] in calls, name
