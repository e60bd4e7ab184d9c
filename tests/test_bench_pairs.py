"""tools/bench_pairs.py: pair order, summary math and the written file, on
fabricated runs; the benchmark itself never runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = {"replay_eps": {"name": "replay_eps", "better": "higher", "bound": 0.24},
         "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25}}


def run(correct=True, **metrics):
    return {"correct": correct, "attempted": 1, "failed": 0,
            "metrics": {name.replace("__", "."): {"value": value, "unit": "-"}
                        for name, value in metrics.items()}}


def test_pairs_alternate_which_side_goes_first():
    assert [bench_pairs.pair_order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent")] * 2


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_fabricated_runs():
    parent = [run(mix__replay_eps=v, mix__setup_s=s)
              for v, s in ((100, 0.010), (110, 0.010), (90, 0.012), (105, 0.009))]
    change = [run(mix__replay_eps=v, mix__setup_s=s)
              for v, s in ((130, 0.010), (140, 0.009), (95, 0.013), (100, 0.008))]
    summary = bench_pairs.summarize(parent, change, SPECS)
    assert set(summary) == {"mix.replay_eps", "mix.setup_s"}
    eps = summary["mix.replay_eps"]
    assert eps["parent_median"] == 102.5
    assert eps["change_median"] == 115.0
    assert eps["relative_change"] == pytest.approx(12.5 / 102.5)
    assert (eps["parent_q1"], eps["parent_q3"]) == (97.5, 106.25)
    assert eps["parent_iqr"] == pytest.approx(8.75)
    # Higher is better: pairs 0, 1 and 2 won, pair 3 lost.
    assert (eps["change_wins"], eps["pairs"]) == (3, 4)
    assert (eps["better"], eps["bound"]) == ("higher", 0.24)
    setup = summary["mix.setup_s"]
    # Lower is better, and a tie is not a win: pairs 1 and 3 won.
    assert setup["change_wins"] == 2
    assert setup["relative_change"] == pytest.approx((0.0095 - 0.010) / 0.010)


def test_summary_skips_metrics_without_a_spec_or_missing_from_a_run():
    parent = [run(mix__replay_eps=1.0, mix__failed_ratio=0.0, ipc__setup_s=1.0)]
    change = [run(mix__replay_eps=2.0, mix__failed_ratio=0.0)]
    assert set(bench_pairs.summarize(parent, change, SPECS)) == {"mix.replay_eps"}


def test_main_writes_both_sides_in_pair_order(tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, seed, seconds):
        calls.append(checkout.name)
        value = 200.0 if checkout.name == "change" else 100.0
        return run(mix__replay_eps=value + len(calls))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--pairs", "3", "--seed", "2", "--seconds", "1",
                             "--out", str(out)])
    assert code == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    report = json.loads(out.read_text())
    assert (report["seed"], report["seconds"], report["pairs"]) == (2, 1.0, 3)
    assert set(report) == {"command", "seed", "seconds", "pairs", "order", "host",
                           "parent", "change", "summary"}
    assert [len(report[side]["runs"]) for side in ("parent", "change")] == [3, 3]
    assert report["summary"]["mix.replay_eps"]["change_wins"] == 3


def test_main_fails_when_a_run_is_not_correct(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, seed, seconds: run(checkout.name != "change",
                                                            mix__replay_eps=1.0))
    code = bench_pairs.main([str(tmp_path), str(tmp_path / "change"), "--pairs", "1",
                             "--out", str(tmp_path / "out.json")])
    assert code == 1


def test_runs_write_no_bytecode(tmp_path, monkeypatch):
    """Each perfbench run gets PYTHONDONTWRITEBYTECODE=1, which its
    peak-memory children inherit, so neither checkout gains a cache."""
    seen = {}

    def fake_subprocess_run(argv, **kwargs):
        seen.update(kwargs)
        return type("Proc", (), {"returncode": 0, "stderr": "",
                                 "stdout": json.dumps(run(mix__replay_eps=1.0)) + "\n"})

    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs.run_once(tmp_path, 1, 1.0)["correct"] is True
    assert seen["cwd"] == tmp_path
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
