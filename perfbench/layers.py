"""Per-layer tracing for the benchmark, installed from outside the program.

`Tracer` swaps the public functions of the stbac modules for thin wrappers,
at the names their callers look them up by, and restores them on exit.
Coarse calls (parse, replay, render, export, oracle stages, file I/O)
become spans; per-event calls (guard, taint and vital rules, tainted
snapshots, World.children) only bump counters, because a span per event
would cost more than the call it measures.  Spans stay in memory and are
written out once, by `write_spans`.

Self time per module comes from cProfile.  Time spent in builtins and in
generated code (dataclass __init__ and the like) is charged to the module
that called it, so `engine.self_s` includes the list appends and string
formatting the engine asks for.
"""

from __future__ import annotations

import cProfile
import gc
import itertools
import json
import pstats
import time
import tracemalloc
from collections import Counter
from pathlib import Path

STBAC_MODULES = ("cli", "engine", "guard", "model", "oracle", "taint", "vital", "world")
SELF_LAYERS = STBAC_MODULES + ("enum",)


class GcMeter:
    """Collector pauses while `active`, through gc.callbacks."""

    def __init__(self):
        self.active = False
        self.pause_s = 0.0
        self.collections = 0
        self._started = None

    def _callback(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            if self.active:
                self.pause_s += time.perf_counter() - self._started
                self.collections += 1
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


class Tracer:
    """Spans and counters around the stbac layers, plus cProfile self time."""

    def __init__(self, stbac_dir: Path):
        self.stbac_dir = stbac_dir.resolve()
        self.spans = []              # (id, parent id, name, start, end)
        self.stack = []
        self.time = Counter()        # span name -> seconds
        self.count = Counter()
        self.retained_bytes = None   # set by a replay under tracemalloc
        self._malloc_base = 0
        self._ids = itertools.count()
        self.profile = cProfile.Profile()
        self._patched = []
        self._origin = time.perf_counter()

    # -- installation ----------------------------------------------------

    def __enter__(self):
        import stbac.cli as cli
        import stbac.engine as engine
        import stbac.taint as taint
        import stbac.vital as vital
        import stbac.world as world

        for name, span in (("parse_trace", "engine.parse"),
                           ("export_graph", "engine.dot_export"),
                           ("parse_init_config", "world.setup"),
                           ("spawn_boot_world", "world.setup"),
                           ("closure_from_replay", "oracle.closure"),
                           ("_read", "cli.io"), ("_write", "cli.io")):
            self._patch(cli, name, self._span(span, getattr(cli, name)))
        self._patch(cli, "replay", self._span("engine.replay", cli.replay, self._on_replay))
        self._patch(cli, "diff_taint", self._span("oracle.diff", cli.diff_taint,
                                                   self._on_diff))
        self._patch(cli, "check_biba", self._span("oracle.biba", cli.check_biba,
                                                   self._on_biba))
        self._patch(engine.ReplayResult, "audit_text",
                    self._span("engine.audit_render", engine.ReplayResult.audit_text))
        self._patch(engine, "tainted_snapshot", self._timed("engine.snapshot",
                                                            engine.tainted_snapshot))
        for name in ("pr_conf", "pr_inte", "pr_avai"):
            self._patch(engine, name, self._decision(getattr(engine, name)))
        self._patch(engine, "match_trust", self._counted("guard", engine.match_trust))
        for module, layer in ((taint, "taint"), (vital, "vital")):
            for name in dir(module):
                if name.startswith(("tr_", "vr_")):
                    self._patch(module, name, self._rule(layer, getattr(module, name)))
        self._patch(world.World, "children", self._children(world.World.children))
        self._patch(world.World, "add_node", self._add_node(world.World.add_node))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span opened from the benchmark itself."""
        return _Span(self, name)

    def _span(self, name, func, on_result=None):
        def wrapper(*args, **kwargs):
            with _Span(self, name):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _timed(self, name, func):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = func(*args, **kwargs)
            self.time[name] += time.perf_counter() - started
            return result
        return wrapper

    def _counted(self, layer, func):
        def wrapper(*args, **kwargs):
            self.count[layer + ".calls"] += 1
            return func(*args, **kwargs)
        return wrapper

    def _decision(self, func):
        def wrapper(*args, **kwargs):
            decision = func(*args, **kwargs)
            self.count["guard.calls"] += 1
            self.count["guard.decisions"] += 1
            if not decision.allowed:
                self.count["guard.denials"] += 1
            return decision
        return wrapper

    def _rule(self, layer, func):
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            self.count[layer + ".calls"] += 1
            if isinstance(result, list):
                self.count["mutations"] += len(result)
            elif result is not None:
                self.count["mutations"] += 1
            return result
        return wrapper

    def _children(self, func):
        def wrapper(world, node):
            self.count["world.children_calls"] += 1
            self.count["world.nodes_scanned"] += len(world.fs)
            return func(world, node)
        return wrapper

    def _add_node(self, func):
        def wrapper(world, *args, **kwargs):
            node = func(world, *args, **kwargs)
            if len(world.fs) > self.count["world.peak_nodes"]:
                self.count["world.peak_nodes"] = len(world.fs)
            return node
        return wrapper

    # -- result hooks --------------------------------------------------------

    def _on_replay(self, result):
        self.count["engine.events"] += len(result.records)
        self.count["engine.denials"] += sum(r.denied for r in result.records)
        self.count["engine.graph_edges"] += len(result.graph.edges)
        self.count["flag_changes"] += sum(len(r.flag_changes) for r in result.records)
        self.count["world.peak_procs"] = max(self.count["world.peak_procs"],
                                             len(result.world.processes))
        if tracemalloc.is_tracing():
            # The result is still referenced here, so this is what one replay
            # keeps alive: records, graph and world.
            self.retained_bytes = tracemalloc.get_traced_memory()[0] - self._malloc_base

    def _on_diff(self, divergences):
        self.count["oracle.divergent_events"] += len(divergences)

    def _on_biba(self, report):
        self.count["oracle.biba_violations"] += sum(
            len(c.violations) for c in (report.cond_read, report.cond_write,
                                        report.cond_exec))

    def measure_retained(self, call):
        """Run `call` under tracemalloc; the replay hook records what its
        result retains."""
        gc.collect()
        tracemalloc.start()
        try:
            self._malloc_base = tracemalloc.get_traced_memory()[0]
            call()
        finally:
            tracemalloc.stop()

    # -- profile ---------------------------------------------------------------

    def profiled(self, call):
        self.profile.enable()
        try:
            return call()
        finally:
            self.profile.disable()

    def self_times(self) -> dict:
        """cProfile self time per module, builtins charged to their caller."""
        stats = pstats.Stats(self.profile).stats
        out = dict.fromkeys(SELF_LAYERS, 0.0)
        for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
            layer = self._layer(filename)
            if layer is not None:
                out[layer] += tottime
            elif filename == "~" or filename.startswith("<"):
                for (caller_file, _, _), caller_stats in callers.items():
                    caller_layer = self._layer(caller_file)
                    if caller_layer is not None:
                        out[caller_layer] += caller_stats[2]
        return out

    def _layer(self, filename: str):
        path = Path(filename)
        if path.name == "enum.py" and path.parent.name.startswith("python"):
            return "enum"
        if path.parent == self.stbac_dir and path.stem in STBAC_MODULES:
            return path.stem
        return None

    def write_spans(self, path: Path):
        records = [{"id": i, "parent": p, "name": n,
                    "start_s": round(s - self._origin, 9),
                    "end_s": round(e - self._origin, 9)}
                   for i, p, n, s, e in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": records}, indent=0) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.id = next(tracer._ids)
        self.parent = tracer.stack[-1].id if tracer.stack else None
        tracer.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.spans.append((self.id, self.parent, self.name, self.start, end))
        tracer.time[self.name] += end - self.start
