"""Byte-identity check of the CLI outputs of two checkouts.

Usage (from the root of a checkout):

    python3 tools/compare_outputs.py OLD_DIR NEW_DIR --seeds 3 --mutants 200

Each case is one input bundle (boot config, trust list, copy map, trace):

* the three bundled scenarios;
* the `mix`, `fstree` and `ipc` workloads of perfbench/workloads.py at
  seeds 1..--seeds, once over the whole trace and once over the window
  `stbac check` runs on in the benchmark;
* one "full" and one "benign" trace of tests/trace_gen.py at seeds
  1..--seeds, over its boot config and copy map, from the intents
  trace_gen.random_intents draws from random.Random(seed): the cases with
  fifos, devices, structure ops in protected directories and
  administrative taint marks;
* --mutants bundles with one token swapped for a token from TOKENS, to
  reach the error paths: one argument of one event of the trace, or one
  field after the directive of one line of the boot config, trust list or
  copy map.  Each mutates a scenario or the `fstree` seed-1 check window,
  the one input whose copy map is not empty and whose trace redirects.
  Mutant k is drawn from random.Random(k), so a run is repeatable.

The inputs come from this script's own checkout and are written once; both
sides read the same files.  For each side, one fresh interpreter imports
stbac from that checkout's src/ and runs `replay --audit --dot`, `replay`
with the audit on stdout and no graph, `graph` and `check` on every case.
On every case that is not a mutant it also runs the admin listings
`get-flag --recursive /`, `trust list` and `pcopy list` on the bundle's
files, so those subparsers are compared too, and on the scenarios and the
check windows it runs `check` once per rule in RULE_STUBS with that rule
replaced by one that returns None, and once per rule in FIRING_STUBS with
that rule asked as if its source of taint were suspect.  The first kind
leaves the engine short of the oracle and the second puts it past it, so
the divergence lines of a failing check are compared on both sides
("engine missing" and "engine extra"), and so are the violation lines.  All calls of a side go through `main` in one
interpreter, which also covers reusing the CLI parser across calls.
The exit code, stdout, stderr, audit file and DOT file of each call are
compared; an exception that escapes the CLI is compared by its type and
message.  The first 40 differences are listed, and a tally of the
differing calls follows them, by output field and by command (a `check`
with a rule stubbed, one with a rule firing and a plain one each counted
apart), so a change with one intended difference can show that nothing
else differs.
A call of the new side that raises past `main` is listed with its case
and counted, whether or not the old side raised too: the CLI reports
every error with an exit code, never with a traceback.  Exit status: 0
when every call matches and none of the new side raised, 1 on
any difference or raise, 2 when a side could not be run.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("remote_user", "web_download", "remote_attack")
WORKLOADS = ("mix", "fstree", "ipc")
FIELDS = ("code", "stdout", "stderr", "audit", "dot")

# The taint and vital rules a stubbed `check` replaces, as module.name under
# stbac.  A stubbed rule never changes a label, so the engine falls short
# of the oracle and `check` takes its failure paths.
RULE_STUBS = ("taint.tr_sock_proc", "taint.tr_proc_proc", "taint.tr_proc_exe",
              "taint.tr_exe_proc", "vital.vr_dir_dir", "vital.vr_proc_proc",
              "vital.vr_proc_file", "vital.vr_file_proc")

# The taint rules a firing `check` asks as if every entity they read were
# suspect, a process or file tainted and a socket untrusted (suspect in
# CHILD): any executable written is tainted, taint spreads from any
# process, every socket taints its owner and every exec or load taints the
# loader.  The engine then holds labels the oracle lacks.
FIRING_STUBS = ("taint.tr_proc_exe", "taint.tr_proc_proc", "taint.tr_sock_proc",
                "taint.tr_exe_proc")

# The mutated bundle with a partial copy: `fstree` at seed 1, cut to its
# check window.
COPY_MAP_SOURCE = "fstree check window"

# The files of a bundle, in the order of their CLI arguments.
PARTS = ("init.cfg", "trust.list", "pcopy.list", "scenario.trace")

# Replacement arguments: integers out of range or malformed, bad and
# missing paths, the fstree copy, endpoints, protocols, flags, mknod kinds,
# attr targets.  None holds a comma, so a mutant keeps its event's arity.
TOKENS = ("", "x", "-1", "0", "1", "2", "99", "1.5", "+5", "²", "9" * 5000,
          "/", "/nope", "/tmp/", "tmp", "//etc", "/etc//passwd", "/etc",
          "/etc/shared_copy", "10.0.0.1", "10.0.0.1:", ":80",
          "10.0.0.1:x", "*:*", "tcp", "sctp", "file", "dir", "fifo", "pipe",
          "taint", "avai", "leak", "bogus", "pid:1", "pid:99", "pid:x",
          "res:cpu_ticks", "res:gpu")

# Runs in the child interpreter: argv[1] is the checkout's src directory,
# argv[2] the list of jobs (CLI argument list and the rule to change, as
# "<module.name> stubbed" or "<module.name> firing", or null),
# argv[3] where the results go, and argv[4:6] the audit and DOT paths the
# calls write.
CHILD = r"""
import contextlib, dataclasses, hashlib, importlib, io, json, sys
from pathlib import Path
src, jobs_path, results_path, *outputs = map(Path, sys.argv[1:6])
sys.path.insert(0, str(src))
import stbac
from stbac.cli import main
from stbac.model import TAINT
from stbac.world import Socket
if Path(stbac.__file__).resolve().parent != (src / "stbac").resolve():
    sys.exit(f"stbac imported from {stbac.__file__}, not {src}")

def digest(text):
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()

def read(path):
    if not path.exists():
        return None
    text = path.read_bytes().decode("utf-8", "backslashreplace")
    path.unlink()
    return text

def suspect(entity):
    if isinstance(entity, Socket):
        return dataclasses.replace(entity, trusted=False)
    return dataclasses.replace(entity, flags=entity.flags | TAINT)

def stubbed(change):
    rule, how = change.split()
    module_name, name = rule.split(".")
    module = importlib.import_module("stbac." + module_name)
    original = getattr(module, name)
    if how == "firing":
        setattr(module, name, lambda *args: original(*map(suspect, args)))
    else:
        setattr(module, name, lambda *args, **kwargs: None)
    return lambda: setattr(module, name, original)

results = []
for argv, change in json.loads(jobs_path.read_text()):
    for path in outputs:
        path.unlink(missing_ok=True)
    restore = stubbed(change) if change else None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    if restore:
        restore()
    audit, dot = map(read, outputs)
    results.append({
        "code": code,
        "stdout": digest(out.getvalue()), "stderr": digest(err.getvalue()),
        "audit": digest(audit), "dot": digest(dot),
        "stderr_head": err.getvalue()[:300],
    })
results_path.write_text(json.dumps(results))
"""


def _fields(part: str, line: str) -> list:
    """A line's fields: comma-separated in a trace, whitespace-separated in
    the other files."""
    return line.split(",") if part == "scenario.trace" else line.split()


def _slots(part: str, text: str) -> list:
    """(line index, field index) of each token a mutant may swap: the
    arguments of an event in a trace, the fields after the directive in the
    other files."""
    first = 3 if part == "scenario.trace" else 1
    return [(i, j) for i, line in enumerate(text.splitlines())
            if line.strip() and not line.lstrip().startswith("#")
            for j in range(first, len(_fields(part, line)))]


def mutant(k: int, bundles: dict) -> tuple:
    """(source bundle, its files with one token swapped, description) of
    mutant k."""
    rng = random.Random(k)
    name = rng.choice(list(bundles))
    files = dict(bundles[name])
    slots = {part: _slots(part, text) for part, text in files.items()}
    part = rng.choice([part for part in PARTS if slots[part]])
    index, field = rng.choice(slots[part])
    lines = files[part].splitlines()
    fields = _fields(part, lines[index])
    token = rng.choice(TOKENS)
    fields[field] = token
    lines[index] = ("," if part == "scenario.trace" else " ").join(fields)
    files[part] = "\n".join(lines) + "\n"
    shown = token if len(token) <= 20 else f"{token[:8]}...({len(token)} chars)"
    return name, files, f"{part} line {index + 1} field {field} := {shown!r}"


def source_bundles() -> dict:
    """The bundles a mutant is drawn from, each as {file name: text}: the
    scenarios and COPY_MAP_SOURCE."""
    bundles = {}
    for name in SCENARIOS:
        root = ROOT / "src" / "stbac" / "scenarios" / name
        bundles[name] = {part: (root / part).read_text(encoding="utf-8")
                         for part in PARTS}
    w = _workloads().fstree(1)
    bundles[COPY_MAP_SOURCE] = dict(zip(PARTS, (w.init_text, w.trust_text, w.pcopy_text,
                                                w.check_trace_text())))
    return bundles


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return workloads


def _trace_gen():
    """tests/trace_gen.py, stepping the engine of this checkout's src/;
    imported without writing bytecode into the checkout."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import trace_gen
    return trace_gen


def build_cases(workdir: Path, seeds: int, mutants: int) -> list:
    """Write every case's input files under workdir; (name, bundle argv,
    trace path, whether to run the stubbed checks) per case."""
    cases = []

    def add(name, init, trust, pcopy, trace, stubs=False):
        case_dir = workdir / f"case{len(cases)}"
        case_dir.mkdir()
        paths = []
        for file_name, text in (("init.cfg", init), ("trust.list", trust),
                                ("pcopy.list", pcopy), ("events.trace", trace)):
            (case_dir / file_name).write_text(text, encoding="utf-8")
            paths.append(str(case_dir / file_name))
        cases.append((name, ["--init", paths[0], "--trust", paths[1],
                             "--pcopy", paths[2]], paths[3], stubs))

    bundles = source_bundles()
    for name in SCENARIOS:
        add(f"scenario {name}", *bundles[name].values(), stubs=True)

    workloads = _workloads()
    for name in WORKLOADS:
        for seed in range(1, seeds + 1):
            w = getattr(workloads, name)(seed)
            add(f"{name} seed {seed}", w.init_text, w.trust_text, w.pcopy_text,
                w.trace_text)
            add(f"{name} seed {seed} check window", w.init_text, w.trust_text,
                w.pcopy_text, w.check_trace_text(), stubs=True)

    trace_gen = _trace_gen()
    for seed in range(1, seeds + 1):
        for mode in ("full", "benign"):
            trace, trust = trace_gen.build_trace(trace_gen.random_intents(seed), mode)
            add(f"trace_gen seed {seed} {mode}", trace_gen.BOOT_CONFIG, trust,
                trace_gen.PCOPY_TEXT, trace)

    for k in range(mutants):
        name, files, what = mutant(k, bundles)
        add(f"mutant {k} of {name} ({what})", *files.values())
    return cases


def jobs_for(cases: list, outputs: tuple) -> tuple:
    """(jobs, the case name of each job).  A job is a CLI argument list and
    the rule to change for it, or None: `replay` to files and to stdout,
    `graph` and `check` per case, the admin listings per case that is not a
    mutant, and a `check` per rule stubbed and per rule firing where the
    case asks for them.
    Both sides write the same two output paths, so a message that names one
    reads the same."""
    audit, dot = outputs
    jobs, owners = [], []
    for name, bundle, trace, stubs in cases:
        case_jobs = [(["replay", *bundle, trace, "--audit", audit, "--dot", dot], None),
                     (["replay", *bundle, trace], None),
                     (["graph", *bundle, trace], None),
                     (["check", *bundle, trace], None)]
        if not name.startswith("mutant "):
            init, trust, pcopy = bundle[1::2]
            case_jobs += [(["get-flag", "--init", init, "--recursive", "/"], None),
                          (["trust", "--trust", trust, "list"], None),
                          (["pcopy", "--pcopy", pcopy, "list"], None)]
        if stubs:
            case_jobs += [(["check", *bundle, trace], f"{rule} stubbed")
                          for rule in RULE_STUBS]
            case_jobs += [(["check", *bundle, trace], f"{rule} firing")
                          for rule in FIRING_STUBS]
        jobs += case_jobs
        owners += [name] * len(case_jobs)
    return jobs, owners


class SideError(Exception):
    """A checkout's child interpreter failed."""


def run_side(checkout: Path, jobs_path: Path, results_path: Path, outputs: tuple) -> list:
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", CHILD, str(checkout / "src"), str(jobs_path),
         str(results_path), *outputs],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SideError(f"error: {checkout} could not be run "
                        f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(results_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("new", type=Path, help="checkout to compare with it")
    parser.add_argument("--seeds", type=int, default=3,
                        help="workload seeds 1..N (default 3)")
    parser.add_argument("--mutants", type=int, default=200,
                        help="mutated scenario traces (default 200)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare_outputs.") as tmp:
        workdir = Path(tmp)
        cases = build_cases(workdir, args.seeds, args.mutants)
        outputs = (str(workdir / "out.audit"), str(workdir / "out.dot"))
        jobs, owners = jobs_for(cases, outputs)
        jobs_path = workdir / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        try:
            old, new = (run_side(checkout.resolve(), jobs_path,
                                 workdir / "results.json", outputs)
                        for checkout in (args.old, args.new))
        except SideError as exc:
            print(exc, file=sys.stderr)
            return 2

    differences, raised = [], []
    by_field, by_command = Counter(), Counter()
    for owner, (argv, change), before, after in zip(owners, jobs, old, new):
        call = argv[0] + (f" with {change}" if change else "")
        if str(after["code"]).startswith("raised "):
            raised.append(f"{owner}: {call} {after['code']}")
        differing = [name for name in FIELDS if before[name] != after[name]]
        for name in differing:
            detail = ""
            if name in ("code", "stderr"):
                key = "code" if name == "code" else "stderr_head"
                detail = f": {before[key]!r} -> {after[key]!r}"
            differences.append(f"{owner}: {call} {name} differs{detail}")
        if differing:
            by_field.update(differing)
            by_command[argv[0] + (f" (rule {change.split()[1]})" if change else "")] += 1
    for line in differences[:40]:
        print(line)
    if len(differences) > 40:
        print(f"... and {len(differences) - 40} more")
    for line in raised:
        print(line)
    if differences:
        print(f"{sum(by_command.values())} differing calls; by field: "
              + ", ".join(f"{name} {by_field[name]}" for name in FIELDS if by_field[name])
              + "; by command: "
              + ", ".join(f"{command} {count}" for command, count in sorted(by_command.items())))

    on_mutants = [result for owner, result in zip(owners, new)
                  if owner.startswith("mutant ")]
    rejected = sum(result["code"] == 2 for result in on_mutants)
    on_stubs = [result for (_, change), result in zip(jobs, new) if change]
    failed = sum(result["code"] == 1 for result in on_stubs)
    print(f"{len(cases)} cases, {len(jobs)} calls per checkout "
          f"({len(on_stubs)} checks with a rule changed, {failed} of them exit 1; "
          f"{len(on_mutants)} on mutants, {rejected} of them exit 2; "
          f"{len(raised)} raised past main): {len(differences)} differences")
    return 1 if differences or raised else 0

if __name__ == "__main__":
    sys.exit(main())
