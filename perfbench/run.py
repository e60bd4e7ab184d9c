"""The stbac benchmark: seeded workloads through `stbac replay` and `stbac check`.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mix --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run generates its workload from --seed, checks the program's outputs
(the correctness gate), measures for about --seconds seconds and prints
every metric with its unit.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With --trace 0
the metrics are the end-to-end ones, measured with no tracing installed;
with --trace 1 they are the per-layer ones from a traced run.  See
perfbench/README.md for what each workload and metric is for.

The program is called in-process through `stbac.cli.main`, one call at a
time, with no threads.  Peak memory is measured in a fresh child process
per path.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SCENARIOS = ("remote_user", "web_download", "remote_attack")

# Shares of --seconds given to each timed path.
SETUP_SHARE, REPLAY_SHARE, CHECK_SHARE = 0.1, 0.35, 0.55
MIN_REPS = 3
# setup_s is the median, over this many consecutive slices of the run, of
# the fastest set-up call in each slice.
SETUP_SLICES = 5

END_TO_END = {
    "setup_s": "s",
    "replay_eps": "events/s",
    "check_eps": "events/s",
    "replay_peak_mb": "MB",
    "check_peak_mb": "MB",
}
FAILED_RATIO = ("failed_ratio", "ratio")

# Runs one CLI call in a fresh interpreter and reports its own peak RSS in
# kB.  VmHWM belongs to the process image; ru_maxrss would not do, because
# Linux carries it over from the forking parent.
_PEAK_CHILD = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from stbac.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
with open("/proc/self/status") as status:
    peak = next(l.split()[1] for l in status if l.startswith("VmHWM:"))
print(code, peak)
"""


class GateError(Exception):
    """The program's output is wrong; the run reports correct=false."""


class Bench:
    """One workload's files, CLI argument lists and running tallies."""

    def __init__(self, workload: workloads.Workload, workdir: Path):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        files = {}
        for name, text in (("init.cfg", workload.init_text),
                           ("trust.list", workload.trust_text),
                           ("pcopy.list", workload.pcopy_text),
                           ("events.trace", workload.trace_text),
                           ("check.trace", workload.check_trace_text()),
                           ("empty.trace", "")):
            files[name] = workdir / name
            files[name].write_text(text)
        bundle = ["--init", str(files["init.cfg"]), "--trust", str(files["trust.list"]),
                  "--pcopy", str(files["pcopy.list"])]
        self.audit = workdir / "out.audit"
        outputs = ["--audit", str(self.audit), "--dot", str(workdir / "out.dot")]
        self.setup_argv = ["replay", *bundle, str(files["empty.trace"]), *outputs]
        self.replay_argv = ["replay", *bundle, str(files["events.trace"]), *outputs]
        self.check_argv = ["check", *bundle, str(files["check.trace"])]
        self.first_audit = None
        self.verdict_mismatches = 0
        self.divergent = None

    # -- one CLI call ------------------------------------------------------

    def call(self, argv, expected_codes, run=None, collect=True):
        """Time one in-process CLI call; returns (seconds, stdout text).

        The collector runs first (unless `collect` is false), so no call pays
        for the garbage of the one before.  A call that raises or exits with
        an unexpected code counts as failed and raises GateError."""
        from stbac.cli import main
        out = io.StringIO()
        if collect:
            gc.collect()
        self.attempted += 1
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = run(lambda: main(argv)) if run else main(argv)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise GateError(f"stbac {argv[0]} raised") from None
        elapsed = time.perf_counter() - started
        if code not in expected_codes:
            self.failed += 1
            raise GateError(f"stbac {argv[0]} exited {code}")
        return elapsed, out.getvalue()

    def replay(self, run=None) -> float:
        expected = {1} if self.workload.predicted_denials() else {0}
        elapsed, _ = self.call(self.replay_argv, expected, run)
        self.check_audit(self.audit.read_text())
        return elapsed

    def check(self, run=None) -> float:
        elapsed, text = self.call(self.check_argv, {0, 1}, run)
        self.check_check_output(text)
        return elapsed

    def setup(self) -> float:
        # An empty replay leaves next to no garbage; collecting before each
        # of these millisecond calls would cost more than the calls.
        return self.call(self.setup_argv, {0}, collect=False)[0]

    # -- correctness gate ----------------------------------------------------

    def check_audit(self, audit: str):
        if self.first_audit is not None:
            if audit != self.first_audit:
                raise GateError("replay is not deterministic: audit changed between calls")
            return
        self.first_audit = audit
        lines = audit.splitlines()
        wl = self.workload
        if len(lines) != wl.events:
            raise GateError(f"audit has {len(lines)} lines for {wl.events} events")
        results = [line.rsplit(",", 1)[1] for line in lines]
        self.verdict_mismatches = sum(a != b for a, b in zip(results, wl.expected))
        denials = Counter(r[5:-1] for r in results if r.startswith("DENY("))
        if denials != wl.predicted_denials():
            raise GateError(f"denials per rule {dict(denials)} differ from the "
                            f"prediction {dict(wl.predicted_denials())}")

    def check_check_output(self, text: str):
        lines = text.splitlines()
        closure = next((l for l in lines if l.startswith("taint closure: ")), None)
        summary = next((l for l in lines if l.startswith("replay: ")), None)
        if closure is None or summary is None:
            raise GateError("stbac check printed no closure verdict or summary")
        divergent = 0
        if closure.startswith("taint closure: FAIL ("):
            divergent = int(closure.split("(", 1)[1].split()[0])
        wl = self.workload
        expected_summary = (f"replay: {wl.check_events} events, "
                            f"{sum(wl.predicted_denials(wl.check_events).values())} denials")
        if summary != expected_summary:
            raise GateError(f"check summary {summary!r}, expected {expected_summary!r}")
        if self.divergent is not None and divergent != self.divergent:
            raise GateError("stbac check is not deterministic")
        self.divergent = divergent

    def failed_ratio(self) -> float:
        """Failed events over the events both paths ran; a crashed call
        counts as every event failed."""
        if self.failed:
            return 1.0
        wl = self.workload
        return ((self.verdict_mismatches + (self.divergent or 0))
                / (wl.events + wl.check_events))

    # -- peak memory ---------------------------------------------------------

    def peak_mb(self, argv, expected_codes) -> float:
        self.attempted += 1
        proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, str(SRC), *argv],
                              capture_output=True, text=True, timeout=150)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or int(fields[0]) not in expected_codes:
            self.failed += 1
            sys.stderr.write(proc.stderr)
            raise GateError(f"peak-memory child for stbac {argv[0]} failed")
        return int(fields[1]) / 1024


def check_scenarios(workdir: Path):
    """The bundled scenarios must replay byte-equal to their frozen audits."""
    from stbac.cli import main
    for name in SCENARIOS:
        bundle = SRC / "stbac" / "scenarios" / name
        out = workdir / f"{name}.audit"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["replay", "--init", str(bundle / "init.cfg"),
                  "--trust", str(bundle / "trust.list"),
                  "--pcopy", str(bundle / "pcopy.list"),
                  str(bundle / "scenario.trace"), "--audit", str(out)])
        if out.read_bytes() != (bundle / "expected.audit").read_bytes():
            raise GateError(f"scenario {name} no longer replays to its expected.audit")


def repeat(step, budget_s: float, min_reps: int = MIN_REPS) -> list:
    """Call step() until budget_s has passed and at least min_reps times."""
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < deadline:
        times.append(step())
    return times


# -- end-to-end run -------------------------------------------------------------

def interleave(steps: dict, seconds: float) -> dict:
    """Run steps {name: (step, share of time, least calls)} until `seconds`
    have passed and each has had its least calls; returns their timings.

    Each call goes to the step furthest behind its share, so every step's
    samples spread over the whole run and a slow spell on a shared host
    touches all metrics a little rather than one metric entirely."""
    times = {name: [] for name in steps}
    spent = dict.fromkeys(steps, 0.0)
    deadline = time.perf_counter() + seconds
    while True:
        short = [n for n, (_, _, least) in steps.items() if len(times[n]) < least]
        if not short and time.perf_counter() >= deadline:
            return times
        name = min(short or steps, key=lambda n: spent[n] / steps[n][1])
        elapsed = steps[name][0]()
        times[name].append(elapsed)
        spent[name] += elapsed


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Throughputs come from the fastest call of each path.  On a shared
    host, other tenants only ever add time, so the fastest call is the least
    disturbed; over ten-seed sets it spread less than the median call did.
    Set-up time is the median over SETUP_SLICES slices of the run of each
    slice's fastest set-up call: a median, so that a change cannot hide work
    in set-up behind one lucky call, of fastest calls, because the median
    millisecond call follows the host's noise far more than the run's speed.
    The median call of each path is printed next to it."""
    events, check_events = bench.workload.events, bench.workload.check_events
    times = interleave({"setup": (bench.setup, SETUP_SHARE, SETUP_SLICES),
                        "replay": (bench.replay, REPLAY_SHARE, MIN_REPS),
                        "check": (bench.check, CHECK_SHARE, MIN_REPS)}, seconds)
    setup, replay, check = times["setup"], times["replay"], times["check"]
    n = len(setup)
    slices = [setup[i * n // SETUP_SLICES:(i + 1) * n // SETUP_SLICES]
              for i in range(SETUP_SLICES)]
    expected_replay = {1} if bench.workload.predicted_denials() else {0}
    return {
        "setup_s": (statistics.median(min(s) for s in slices), "s",
                    f"median of {SETUP_SLICES} slices' fastest, {n} calls,"
                    f" median call {statistics.median(setup):.6g}"),
        "replay_eps": (events / min(replay), "events/s",
                       f"fastest of {len(replay)},"
                       f" median {events / statistics.median(replay):.6g}"),
        "check_eps": (check_events / min(check), "events/s",
                      f"fastest of {len(check)},"
                      f" median {check_events / statistics.median(check):.6g}"),
        "replay_peak_mb": (bench.peak_mb(bench.replay_argv, expected_replay), "MB", None),
        "check_peak_mb": (bench.peak_mb(bench.check_argv, {0, 1}), "MB", None),
    }


# -- traced run -----------------------------------------------------------------

PER_LAYER = {
    "engine.parse_s": "s", "engine.replay_s": "s", "engine.audit_render_s": "s",
    "engine.dot_export_s": "s", "engine.snapshot_s": "s", "engine.self_s": "s",
    "engine.gc_pause_s": "s", "engine.gc_collections": "count",
    "engine.retained_bytes_per_event": "B/event",
    "engine.mutation_effective_ratio": "ratio", "engine.graph_edges": "count",
    "engine.events": "count", "engine.denials": "count",
    "guard.calls": "count", "guard.self_s": "s", "guard.deny_ratio": "ratio",
    "model.self_s": "s", "enum.self_s": "s",
    "taint.calls": "count", "taint.self_s": "s",
    "vital.calls": "count", "vital.self_s": "s",
    "world.setup_s": "s", "world.children_calls": "count",
    "world.nodes_scanned": "count", "world.self_s": "s",
    "world.peak_nodes": "count", "world.peak_procs": "count",
    "oracle.closure_s": "s", "oracle.diff_s": "s", "oracle.biba_s": "s",
    "oracle.self_s": "s", "oracle.divergent_events": "count",
    "oracle.biba_violations": "count",
    "cli.io_s": "s", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio", "trace.unattributed_s": "s",
    "failed_ratio": "ratio",
}


def traced(bench: Bench, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics per pass, where one pass is one `stbac replay` plus
    one `stbac check` of the workload."""
    import layers

    # Untraced passes give the baseline for the overhead ratio.  The collector
    # is metered on their replays only, where nothing else perturbs it, and
    # only inside the CLI call, after the benchmark's own gc.collect().
    with layers.GcMeter() as gc_meter:
        def metered(call):
            gc_meter.active = True
            try:
                return call()
            finally:
                gc_meter.active = False
        plain = repeat(lambda: bench.replay(run=metered) + bench.check(), 0.3 * seconds,
                       min_reps=2)

    tracer = layers.Tracer(SRC / "stbac")

    def under(span):
        def run(call):
            with tracer.span(span):
                return tracer.profiled(call)
        return run

    with tracer:
        def traced_pass():
            return (bench.replay(run=under("cli.replay"))
                    + bench.check(run=under("cli.check")))
        passes = repeat(traced_pass, 0.5 * seconds, min_reps=1)
        counts, spent = Counter(tracer.count), Counter(tracer.time)
        tracer.measure_retained(bench.replay)
    tracer.write_spans(spans_path)

    n = len(passes)
    per_pass = {k: v / n for k, v in counts.items()}
    self_s = {layer: t / n for layer, t in tracer.self_times().items()}
    events = bench.workload.events
    mutations = per_pass.get("mutations", 0)
    decisions = per_pass.get("guard.decisions", 0)
    value = {
        "engine.parse_s": spent["engine.parse"] / n,
        "engine.replay_s": spent["engine.replay"] / n,
        "engine.audit_render_s": spent["engine.audit_render"] / n,
        "engine.dot_export_s": spent["engine.dot_export"] / n,
        "engine.snapshot_s": spent["engine.snapshot"] / n,
        "engine.gc_pause_s": gc_meter.pause_s / len(plain),
        "engine.gc_collections": gc_meter.collections / len(plain),
        "engine.retained_bytes_per_event": (tracer.retained_bytes or 0) / events,
        "engine.mutation_effective_ratio":
            per_pass.get("flag_changes", 0) / mutations if mutations else 0.0,
        "guard.deny_ratio": per_pass.get("guard.denials", 0) / decisions if decisions else 0.0,
        "world.setup_s": spent["world.setup"] / n,
        "world.peak_nodes": counts["world.peak_nodes"],
        "world.peak_procs": counts["world.peak_procs"],
        "oracle.closure_s": spent["oracle.closure"] / n,
        "oracle.diff_s": spent["oracle.diff"] / n,
        "oracle.biba_s": spent["oracle.biba"] / n,
        "cli.io_s": spent["cli.io"] / n,
        "trace.overhead_ratio": statistics.median(passes) / statistics.median(plain),
        "trace.unattributed_s": statistics.mean(passes) - sum(self_s.values()),
        "failed_ratio": bench.failed_ratio(),
    }
    for name in ("engine.graph_edges", "engine.events", "engine.denials", "guard.calls",
                 "taint.calls", "vital.calls", "world.children_calls",
                 "world.nodes_scanned", "oracle.divergent_events",
                 "oracle.biba_violations"):
        value[name] = per_pass.get(name, 0)
    for layer, t in self_s.items():
        value[f"{layer}.self_s"] = t
    return {name: (value[name], unit, None) for name, unit in PER_LAYER.items()}


# -- entry point ----------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (metrics, correct, attempted, failed)."""
    workload = workloads.GENERATORS[name](seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    bench = Bench(workload, workdir)
    try:
        check_scenarios(workdir)
        if trace:
            metrics = traced(bench, seconds, WORK / "spans" / f"{name}-seed{seed}.json")
        else:
            metrics = end_to_end(bench, seconds)
            metrics[FAILED_RATIO[0]] = (bench.failed_ratio(), FAILED_RATIO[1], None)
        return metrics, True, bench.attempted, bench.failed
    except GateError as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {FAILED_RATIO[0]: (bench.failed_ratio(), FAILED_RATIO[1], None)}
    return metrics, False, max(bench.attempted, 1), max(bench.failed, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stbac" / "cli.py").is_file():
        print(f"error: no stbac sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stbac
    if Path(stbac.__file__).resolve().parent != (SRC / "stbac").resolve():
        print(f"error: imported stbac from {stbac.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = sorted(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    wanted = PER_LAYER if args.trace else END_TO_END
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, correct, attempted, failed = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        result["correct"] &= correct
        result["attempted"] += attempted
        result["failed"] += failed
        for metric, (value, unit, reps) in metrics.items():
            note = f"  ({reps})" if reps else ""
            print(f"{name:7} {metric:34} {value:14.6g} {unit}{note}")
            if metric in wanted:
                key = metric if len(names) == 1 else f"{name}.{metric}"
                result["metrics"][key] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
