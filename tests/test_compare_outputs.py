"""tools/compare_outputs.py: a checkout matches itself, one changed error
message, divergence line or trust listing in a copy of src/ is caught, and
some mutants reach the copy map."""

import importlib.util
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


def test_a_checkout_matches_itself():
    proc = compare(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(": 0 differences\n")


def test_one_altered_error_message_is_a_difference(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    model = tmp_path / "src" / "stbac" / "model.py"
    text = model.read_text(encoding="utf-8")
    old, new = 'f"path must be absolute: {path!r}"', 'f"path not absolute: {path!r}"'
    assert text.count(old) == 1
    model.write_text(text.replace(old, new), encoding="utf-8")
    proc = compare(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "replay stderr differs" in proc.stdout
    assert "path not absolute: " in proc.stdout


def test_an_altered_divergence_line_is_a_difference(tmp_path):
    """Only a failing check prints divergence lines; the checks with a taint
    rule stubbed reach them."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    oracle = tmp_path / "src" / "stbac" / "oracle.py"
    text = oracle.read_text(encoding="utf-8")
    assert text.count('"engine missing "') == 1
    oracle.write_text(text.replace('"engine missing "', '"engine lacks "'),
                      encoding="utf-8")
    proc = compare(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "scenario remote_attack: check with taint.tr_sock_proc stubbed stdout differs" \
        in proc.stdout


def test_an_altered_trust_listing_is_a_difference(tmp_path):
    """`trust list` runs on the bundles that are not mutants."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    guard = tmp_path / "src" / "stbac" / "guard.py"
    text = guard.read_text(encoding="utf-8")
    assert text.count('return (f"trust {entry.program}') == 1
    guard.write_text(text.replace('return (f"trust {entry.program}',
                                  'return (f"trust  {entry.program}'), encoding="utf-8")
    proc = compare(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "scenario remote_user: trust stdout differs" in proc.stdout


def test_some_mutants_mutate_the_copy_map_bundle(tmp_path):
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert "/etc/shared_copy" in tool.TOKENS
    cases = tool.build_cases(tmp_path, 0, 20)
    sources = {}
    for name, bundle, _, _ in cases:
        if name.startswith("mutant "):
            source = name.split(" of ", 1)[1].split(" (", 1)[0]
            sources[source] = Path(bundle[bundle.index("--pcopy") + 1]).read_text()
    assert set(sources) == {*tool.SCENARIOS, tool.COPY_MAP_SOURCE}
    assert sources[tool.COPY_MAP_SOURCE] == "pcopy /etc/shared /etc/shared_copy\n"


def test_the_compared_checkouts_get_no_bytecode(tmp_path):
    """The children run with -B: a comparison leaves both checkouts as it
    found them, so a later benchmark of the two imports no cache."""
    for side in ("old", "new"):
        shutil.copytree(ROOT / "src", tmp_path / side / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = compare(tmp_path / "old", tmp_path / "new")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [str(path) for path in tmp_path.rglob("__pycache__")] == []
