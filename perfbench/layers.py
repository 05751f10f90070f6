"""Per-layer host-time attribution for the benchmark's traced run.

The traced run wraps each layer's public entry points from here, outside
the program, before the worker pool forks; nothing inside ``src/`` is
touched.  Accounting model:

* Every wrapped call measures its inclusive time.  Its *self* time is
  that minus the inclusive time of the wrapped calls nested inside it,
  so Domino inside ``sim.engine`` or ``Cache.access`` inside
  ``sim.timing`` is counted once, by the innermost layer.
* The wrapper's own cost is calibrated per call before the run.  The
  part inside a call's measured window is taken off the callee's self
  time, the part outside it is not charged to the caller, and both are
  booked to the ``tracer`` bucket.
* Pool workers are forked after installation, so they run the same
  wrappers.  A fork hook zeroes the child's tallies; each worker dumps
  its tallies after every cell and the parent merges the dumps.
* Worker time is process time on ``jobs`` lanes.  While the parent
  waits inside ``run_cells``, each worker-side layer is charged its
  self time divided by ``jobs`` (capped so the workers never claim more
  than the wait).  The rest of the wait, idle lanes and dispatch, stays
  with ``runner.scheduler``.

Under this model every layer's ``self_s`` plus ``tracer.self_s`` plus
``unattributed.self_s`` equals the traced wall time, so the shares sum
to 1.  Per-event costs (``ns_per_event``, ``ns_per_access``,
``ns_per_step``) use process-side self time, not the lane-divided one.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import sys
from collections.abc import Callable
from pathlib import Path
from time import monotonic
from typing import Any

import repro.core.eit
import repro.core.history
import repro.memory.cache
import repro.memory.dram
import repro.memory.prefetch_buffer
import repro.runner.execute
import repro.runner.scheduler
import repro.runner.shm
import repro.runner.store
import repro.sequitur.analysis
import repro.sim.engine
import repro.sim.fastpath
import repro.sim.multicore
import repro.sim.timing
import repro.workloads.synthetic
from repro.prefetchers.registry import PAPER_PREFETCHERS, PREFETCHERS

#: Tally layout: [calls, raw self seconds, counter a, counter b].
Tally = list

PLAIN, COUNT_LEN, COUNT_TRUE = "plain", "len", "true"

CALLBACKS = ("on_miss", "on_prefetch_hit", "on_buffer_eviction",
             "take_killed_streams")

BUFFER_METHODS = ("lookup", "probe", "insert", "invalidate_stream")

#: The memory layer's parts, each reported on its own.
MEMORY_PARTS: dict[str, tuple[str, ...]] = {
    "prefetch_buffer": tuple(f"memory.prefetch_buffer.{m}" for m in BUFFER_METHODS),
    "cache": ("memory.cache.access", "memory.cache.probe"),
    "dram": ("memory.dram.access",),
}

#: Layer -> the tally keys whose self time it owns.
LAYERS: dict[str, tuple[str, ...]] = {
    "workloads": ("workloads.generate",),
    "runner.scheduler": ("runner.scheduler",),
    "runner.shm": ("runner.shm.publish", "runner.shm.attach"),
    "runner.store": ("runner.store.get", "runner.store.put"),
    "sim.fastpath": ("sim.fastpath.build", "sim.fastpath.encode",
                     "sim.fastpath.decode", "sim.fastpath.prep"),
    "sim.engine": ("sim.engine.replay", "sim.engine.full"),
    "prefetchers": tuple(f"prefetchers.{name}.{cb}"
                         for name in PAPER_PREFETCHERS for cb in CALLBACKS),
    "core": ("core.eit.lookup", "core.eit.update", "core.history.append",
             "core.history.read_forward"),
    "memory": sum(MEMORY_PARTS.values(), ()),
    "sim.timing": ("sim.timing.step",),
    "sim.multicore": ("sim.multicore",),
    "sequitur": ("sequitur.analyze",),
}


# -- wrappers ------------------------------------------------------------
# Each factory closes over the tally list, the shared frame stack and the
# calibrated out-of-window cost, so the hot path is a handful of list
# operations and two clock reads.  A frame is ``[child seconds]``; the
# stack's bottom frame (the root) collects top-level calls.


def _plain(orig: Callable, tally: Tally, stack: list, c_out: float) -> Callable:
    @functools.wraps(orig)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = [0.0]
        stack.append(frame)
        t0 = monotonic()
        try:
            return orig(*args, **kwargs)
        finally:
            incl = monotonic() - t0
            stack.pop()
            tally[0] += 1
            tally[1] += incl - frame[0]
            stack[-1][0] += incl + c_out
    return wrapper


def _counted(count: Callable[[Any], int]) -> Callable:
    """A factory whose wrappers also add ``count(result)`` to the tally:
    ``len`` counts prefetch candidates returned, ``bool`` cache hits."""
    def factory(orig: Callable, tally: Tally, stack: list, c_out: float) -> Callable:
        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            t0 = monotonic()
            try:
                result = orig(*args, **kwargs)
            finally:
                incl = monotonic() - t0
                stack.pop()
                tally[0] += 1
                tally[1] += incl - frame[0]
                stack[-1][0] += incl + c_out
            tally[2] += count(result)
            return result
        return wrapper
    return factory


_FACTORIES = {PLAIN: _plain, COUNT_LEN: _counted(len), COUNT_TRUE: _counted(bool)}


def _hooked(orig: Callable, tally: Tally, stack: list, c_out: float,
            hook: Callable, hook_s: list) -> Callable:
    """For rare calls: runs ``hook`` after the call and books its
    measured cost to the tracer, not to the caller."""
    @functools.wraps(orig)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = [0.0]
        stack.append(frame)
        t0 = monotonic()
        try:
            result = orig(*args, **kwargs)
        finally:
            t1 = monotonic()
            incl = t1 - t0
            stack.pop()
            tally[0] += 1
            tally[1] += incl - frame[0]
            stack[-1][0] += incl + c_out
        hook(tally, t0, t1, result, *args, **kwargs)
        cost = monotonic() - t1
        hook_s[0] += cost
        stack[-1][0] += cost
        return result
    return wrapper


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs the layer wrappers and turns their tallies into metrics.

    Create one per process before any pool forks, call
    :meth:`calibrate`, then :meth:`install`.  Workers dump their tallies
    under ``dump_dir``; :meth:`metrics` merges them.
    """

    def __init__(self, jobs: int, dump_dir: Path) -> None:
        self.jobs = jobs
        self.dump_dir = Path(dump_dir)
        self.root = [0.0]
        self.stack: list[list[float]] = [self.root]
        self.tallies: dict[str, Tally] = {}
        self.variant_of: dict[str, str] = {}
        #: Identities per tally key, for duplicate-work ratios.
        self.idents: dict[str, list[str]] = {"workloads.generate": [],
                                             "sim.fastpath.build": []}
        self.hook_s = [0.0]
        #: (start, end) of every cell this process executed.
        self.cells: list[tuple[float, float]] = []
        #: (start, end) of every ``run_cells`` call in this process.
        self.spans: list[tuple[float, float]] = []
        #: variant -> (in-window cost, out-of-window cost) per call.
        self.cost: dict[str, tuple[float, float]] = {v: (0.0, 0.0) for v in _FACTORIES}
        self.in_worker = False
        #: Entry points :meth:`wrap` could not find.
        self.missing: list[str] = []

    # -- installation --------------------------------------------------------
    def tally(self, key: str, variant: str) -> Tally:
        if key not in self.tallies:
            self.tallies[key] = [0, 0.0, 0, 0]
            self.variant_of[key] = variant
        return self.tallies[key]

    def wrap(self, owner: Any, attr: str, key: str, variant: str = PLAIN,
             hook: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper booked to ``key``.

        For a module function, every loaded ``repro`` module that
        imported the same function object by name is patched too.  An
        entry point the program no longer has is listed in
        ``self.missing`` and its metrics read zero.
        """
        tally = self.tally(key, variant)
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        c_out = self.cost[variant][1]
        if hook is not None:
            wrapper = _hooked(orig, tally, self.stack, c_out, hook, self.hook_s)
        else:
            wrapper = _FACTORIES[variant](orig, tally, self.stack, c_out)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for alias, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, alias, wrapper)

    def install(self) -> None:
        """Wrap every layer's public entry points and hook forks."""
        self.wrap(repro.workloads.synthetic.SyntheticWorkload, "generate",
                  "workloads.generate", hook=self._on_generate)
        self.wrap(repro.runner.scheduler, "run_cells", "runner.scheduler",
                  hook=self._on_run_cells)
        self.wrap(repro.runner.shm, "publish_traces", "runner.shm.publish",
                  hook=self._on_publish)
        self.wrap(repro.runner.shm, "attach_trace", "runner.shm.attach")
        self.wrap(repro.runner.store.ResultStore, "get", "runner.store.get",
                  hook=self._on_store_get)
        self.wrap(repro.runner.store.ResultStore, "put", "runner.store.put",
                  hook=self._on_store_put)
        fastpath = repro.sim.fastpath
        self.wrap(fastpath, "build_l1_filter", "sim.fastpath.build",
                  hook=self._on_build)
        self.wrap(fastpath, "filter_to_binary", "sim.fastpath.encode")
        self.wrap(fastpath, "filter_from_payload", "sim.fastpath.decode")
        self.wrap(fastpath.L1Filter, "replay_rows", "sim.fastpath.prep")
        engine = repro.sim.engine.TraceSimulator
        self.wrap(engine, "run_filtered", "sim.engine.replay", hook=self._on_replay)
        self.wrap(engine, "run", "sim.engine.full", hook=self._on_full)
        for name in PAPER_PREFETCHERS:
            cls = PREFETCHERS[name]
            for cb in CALLBACKS:
                variant = COUNT_LEN if cb in ("on_miss", "on_prefetch_hit") else PLAIN
                self.wrap(cls, cb, f"prefetchers.{name}.{cb}", variant)
        eit = repro.core.eit.EnhancedIndexTable
        self.wrap(eit, "lookup", "core.eit.lookup")
        self.wrap(eit, "update", "core.eit.update")
        history = repro.core.history.HistoryTable
        self.wrap(history, "append", "core.history.append")
        self.wrap(history, "read_forward", "core.history.read_forward")
        buffer = repro.memory.prefetch_buffer.PrefetchBuffer
        for method in BUFFER_METHODS:
            self.wrap(buffer, method, f"memory.prefetch_buffer.{method}")
        cache = repro.memory.cache.Cache
        self.wrap(cache, "access", "memory.cache.access", COUNT_TRUE)
        self.wrap(cache, "probe", "memory.cache.probe")
        self.wrap(repro.memory.dram.DramModel, "access", "memory.dram.access")
        self.wrap(repro.sim.timing.TimingSimulator, "step", "sim.timing.step")
        self.wrap(repro.sim.multicore, "simulate_multicore", "sim.multicore")
        self.wrap(repro.sequitur.analysis, "analyze_sequence", "sequitur.analyze",
                  hook=self._on_sequitur)
        self._wrap_cells()
        os.register_at_fork(after_in_child=self._after_fork)

    def _wrap_cells(self) -> None:
        """Record each cell's interval; workers dump tallies after it.

        The pool pickles ``execute_timed`` by qualified name, so the
        wrapper replaces the module attribute under the same name.
        """
        orig = repro.runner.execute.execute_timed
        tracer = self

        @functools.wraps(orig)
        def execute_timed(item: Any) -> Any:
            start = monotonic()
            try:
                return orig(item)
            finally:
                tracer.cells.append((start, monotonic()))
                if tracer.in_worker:
                    tracer.dump()

        for module in (repro.runner.execute, repro.runner.scheduler):
            module.execute_timed = execute_timed

    # -- hooks (rare calls only) ---------------------------------------------
    def _on_generate(self, tally, t0, t1, result, workload, n_accesses, seed=None):
        eff = workload.seed + 1 if seed is None else seed
        self.idents["workloads.generate"].append(
            f"{workload.config.name}|{workload.seed}|{n_accesses}|{eff}")

    def _on_run_cells(self, tally, t0, t1, result, *args, **kwargs):
        self.spans.append((t0, t1))

    def _on_publish(self, tally, t0, t1, result, traces):
        tally[2] += sum(21 * len(trace) for trace in traces.values())

    def _on_store_get(self, tally, t0, t1, result, *args, **kwargs):
        if result is not None:
            tally[2] += 1

    def _on_store_put(self, tally, t0, t1, result, store, key, *args, **kwargs):
        tally[2] += store.path_for(key).stat().st_size
        sidecar = kwargs.get("sidecar", args[2] if len(args) > 2 else None)
        if sidecar is not None:
            tally[2] += len(sidecar)

    def _on_build(self, tally, t0, t1, result, trace, config):
        content = hashlib.blake2b(trace.blocks.tobytes(), digest_size=16).hexdigest()
        self.idents["sim.fastpath.build"].append(
            f"{trace.name}|{len(trace)}|{content}|{config.l1d}")

    def _on_replay(self, tally, t0, t1, result, sim, *args, **kwargs):
        filt = _arg(args, kwargs, 0, "filt")
        tally[2] += filt.n_misses
        tally[3] += filt.n_accesses

    def _on_full(self, tally, t0, t1, result, sim, *args, **kwargs):
        tally[2] += len(_arg(args, kwargs, 0, "trace"))

    def _on_sequitur(self, tally, t0, t1, result, sequence):
        tally[2] += len(sequence)

    # -- process bookkeeping --------------------------------------------------
    def reset(self) -> None:
        """Zero every tally in place (the wrappers hold references)."""
        for tally in self.tallies.values():
            tally[:] = [0, 0.0, 0, 0]
        for idents in self.idents.values():
            idents.clear()
        self.root[0] = 0.0
        self.stack[:] = [self.root]
        self.hook_s[0] = 0.0
        self.cells.clear()
        self.spans.clear()

    def _after_fork(self) -> None:
        self.reset()
        self.in_worker = True

    def snapshot(self) -> dict[str, Any]:
        return {"tallies": self.tallies, "idents": self.idents,
                "root": self.root[0], "hook_s": self.hook_s[0],
                "cells": self.cells, "spans": self.spans}

    def dump(self) -> None:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(tmp, path)

    def worker_snapshots(self) -> list[dict[str, Any]]:
        if not self.dump_dir.is_dir():
            return []
        return [json.loads(p.read_text(encoding="utf-8"))
                for p in sorted(self.dump_dir.glob("worker-*.json"))]

    # -- calibration ----------------------------------------------------------
    def calibrate(self, calls: int = 20_000, rounds: int = 9) -> None:
        """Measure each wrapper variant's per-call cost on a no-op method.

        ``c_in`` is the wrapper time inside the measured window (the
        measured inclusive time of a no-op minus its unwrapped call
        cost); ``c_out`` is the rest of the wrapper's total cost.  Each
        round times the bare loop, direct calls and wrapped calls back
        to back, and the medians of the per-round differences are
        taken, so that load drifting on a shared host cancels out.
        """
        pair = [(0, 0)]
        bodies = {PLAIN: lambda self, x: x, COUNT_LEN: lambda self, x: pair,
                  COUNT_TRUE: lambda self, x: True}
        for variant, body in bodies.items():
            tally: Tally = [0, 0.0, 0, 0]
            direct = type("Probe", (), {"call": body})()
            wrapped = type("Probe", (), {
                "call": _FACTORIES[variant](body, tally, self.stack, 0.0)})()
            totals, inside = [], []
            for _ in range(rounds):
                loop = _time_loop(None, calls)
                plain = _time_loop(direct, calls)
                tally[1] = 0.0
                totals.append(_time_loop(wrapped, calls) - plain)
                inside.append(tally[1] / calls - (plain - loop))
            total = max(0.0, statistics.median(totals))
            c_in = min(total, max(0.0, statistics.median(inside)))
            self.cost[variant] = (c_in, total - c_in)
        self.root[0] = 0.0

    # -- metrics --------------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer table for one traced iteration of ``wall_s``."""
        return layer_metrics(self.snapshot(), self.worker_snapshots(),
                             wall_s, self.jobs, self.cost, self.variant_of)


def _time_loop(probe: Any, calls: int) -> float:
    """Seconds per iteration of a loop calling ``probe.call`` (or not)."""
    rng = range(calls)
    if probe is None:
        t0 = monotonic()
        for i in rng:
            pass
        return (monotonic() - t0) / calls
    t0 = monotonic()
    for i in rng:
        probe.call(i)
    return (monotonic() - t0) / calls


def _corrected(snap: dict[str, Any], cost: dict[str, tuple[float, float]],
               variant_of: dict[str, str]) -> tuple[dict[str, list], float]:
    """Tallies with calibrated in-window cost removed, and the tracer's
    total cost (every call's in- and out-of-window cost plus hooks)."""
    out, tracer_s = {}, snap["hook_s"]
    for key, (calls, raw, a, b) in snap["tallies"].items():
        c_in, c_out = cost[variant_of[key]]
        out[key] = [calls, raw - calls * c_in, a, b]
        tracer_s += calls * (c_in + c_out)
    return out, tracer_s


def layer_metrics(parent: dict[str, Any], workers: list[dict[str, Any]],
                  wall_s: float, jobs: int, cost: dict[str, tuple[float, float]],
                  variant_of: dict[str, str]) -> dict[str, float]:
    """Merge parent and worker tallies into the per-layer metric table."""
    par, par_tracer = _corrected(parent, cost, variant_of)
    proc = {key: list(t) for key, t in par.items()}   # process-side sums
    wrk = {key: [0, 0.0, 0, 0] for key in par}
    wrk_tracer = busy = wrk_root = 0.0
    cells = list(parent["cells"])
    idents = {k: list(v) for k, v in parent["idents"].items()}
    for snap in workers:
        tallies, tracer_s = _corrected(snap, cost, variant_of)
        for key, t in tallies.items():
            for i in range(4):
                wrk[key][i] += t[i]
                proc[key][i] += t[i]
        wrk_tracer += tracer_s
        wrk_root += snap["root"]
        busy += sum(end - start for start, end in snap["cells"])
        cells.extend(snap["cells"])
        for key, values in snap["idents"].items():
            idents[key].extend(values)

    sched_wait = par["runner.scheduler"][1]
    lane = min(1.0 / jobs, sched_wait / busy) if busy > 0 else 0.0
    wall_self = {key: par[key][1] + lane * wrk[key][1] for key in par}
    wall_self["runner.scheduler"] -= lane * busy
    tracer_s = par_tracer + lane * wrk_tracer
    unattributed = (wall_s - parent["root"]) + lane * (busy - wrk_root)

    def calls(*keys: str) -> int:
        return int(sum(proc[k][0] for k in keys))

    def self_s(*keys: str) -> float:
        return sum(wall_self[k] for k in keys)

    def count(key: str, i: int = 2) -> float:
        return proc[key][i]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def dup(key: str) -> float:
        return ratio(len(idents[key]), len(set(idents[key])))

    m: dict[str, float] = {}
    gen = "workloads.generate"
    m["workloads.calls"] = calls(gen)
    m["workloads.self_s"] = self_s(gen)
    m["workloads.dup_ratio"] = dup(gen)

    spans = parent["spans"]
    m["runner.scheduler.self_s"] = self_s("runner.scheduler")
    m["runner.scheduler.utilization"] = ratio(
        busy, sum(end - start for start, end in spans) * jobs)
    prepool = 0.0
    for start, end in spans:
        starts = [s for s, _ in cells if start <= s <= end]
        if starts:
            prepool += min(starts) - start
    m["runner.scheduler.prepool_s"] = prepool

    shm = ("runner.shm.publish", "runner.shm.attach")
    m["runner.shm.calls"] = calls(*shm)
    m["runner.shm.self_s"] = self_s(*shm)
    m["runner.shm.bytes"] = count("runner.shm.publish")

    get, put = "runner.store.get", "runner.store.put"
    m["runner.store.get.calls"] = calls(get)
    m["runner.store.get.self_s"] = self_s(get)
    m["runner.store.put.calls"] = calls(put)
    m["runner.store.put.self_s"] = self_s(put)
    m["runner.store.hit_ratio"] = ratio(count(get), calls(get))
    m["runner.store.bytes_written"] = count(put)

    build, replay, full = "sim.fastpath.build", "sim.engine.replay", "sim.engine.full"
    m["sim.fastpath.build.calls"] = calls(build)
    m["sim.fastpath.build.self_s"] = self_s(build)
    m["sim.fastpath.build.dup_ratio"] = dup(build)
    m["sim.fastpath.codec.self_s"] = self_s("sim.fastpath.encode", "sim.fastpath.decode")
    m["sim.fastpath.prep.self_s"] = self_s("sim.fastpath.prep")
    m["sim.fastpath.l1_miss_ratio"] = ratio(count(replay), count(replay, 3))

    m["sim.engine.replay.self_s"] = self_s(replay)
    m["sim.engine.replay.ns_per_event"] = 1e9 * ratio(proc[replay][1], count(replay))
    m["sim.engine.full.self_s"] = self_s(full)
    m["sim.engine.full.ns_per_access"] = 1e9 * ratio(proc[full][1], count(full))

    candidates = 0.0
    for name in PAPER_PREFETCHERS:
        keys = [f"prefetchers.{name}.{cb}" for cb in CALLBACKS]
        m[f"prefetchers.{name}.calls"] = calls(*keys)
        m[f"prefetchers.{name}.self_s"] = self_s(*keys)
        candidates += count(keys[0]) + count(keys[1])
    m["prefetchers.issue_ratio"] = ratio(calls("memory.prefetch_buffer.insert"),
                                         candidates)

    eit = ("core.eit.lookup", "core.eit.update")
    history = ("core.history.append", "core.history.read_forward")
    m["core.eit.calls"] = calls(*eit)
    m["core.eit.self_s"] = self_s(*eit)
    m["core.history.calls"] = calls(*history)
    m["core.history.self_s"] = self_s(*history)

    for part, keys in MEMORY_PARTS.items():
        m[f"memory.{part}.calls"] = calls(*keys)
        m[f"memory.{part}.self_s"] = self_s(*keys)
        m[f"memory.{part}.share"] = ratio(self_s(*keys), wall_s)
    m["memory.cache.hit_ratio"] = ratio(count("memory.cache.access"),
                                        calls("memory.cache.access"))

    step = "sim.timing.step"
    m["sim.timing.calls"] = calls(step)
    m["sim.timing.self_s"] = self_s(step)
    m["sim.timing.ns_per_step"] = 1e9 * ratio(proc[step][1], calls(step))
    m["sim.multicore.self_s"] = self_s("sim.multicore")

    m["sequitur.calls"] = calls("sequitur.analyze")
    m["sequitur.self_s"] = self_s("sequitur.analyze")
    m["sequitur.symbols"] = count("sequitur.analyze")

    for layer, keys in LAYERS.items():
        m[f"{layer}.share"] = ratio(self_s(*keys), wall_s)
    m["tracer.self_s"] = tracer_s
    m["tracer.share"] = ratio(tracer_s, wall_s)
    m["unattributed.self_s"] = unattributed
    m["unattributed.share"] = ratio(unattributed, wall_s)
    m["trace.wall_s"] = wall_s
    return m


def conservation_error(m: dict[str, float]) -> float:
    """``|Σ layer self + tracer + unattributed − traced wall|`` in seconds."""
    total = sum(layer_self_s(m).values()) + m["tracer.self_s"] + m["unattributed.self_s"]
    return abs(total - m["trace.wall_s"])


def layer_self_s(m: dict[str, float]) -> dict[str, float]:
    """Each layer's total self seconds, recovered from its share."""
    return {layer: m[f"{layer}.share"] * m["trace.wall_s"] for layer in LAYERS}
