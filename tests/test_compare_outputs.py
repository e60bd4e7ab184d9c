"""tools/compare_outputs.py: a checkout matches itself, and one changed
error message in a copy of src/ is caught."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"

# Scenarios only, and 20 mutants: several of them hit the bad-path check.
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
    engine = tmp_path / "src" / "stbac" / "engine.py"
    text = engine.read_text(encoding="utf-8")
    assert text.count('f"bad path {token!r}"') == 1
    engine.write_text(text.replace('f"bad path {token!r}"', 'f"bad path: {token!r}"'),
                      encoding="utf-8")
    proc = compare(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "replay stderr differs" in proc.stdout
    assert "bad path: " in proc.stdout
