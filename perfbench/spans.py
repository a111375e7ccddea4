"""Spans around calls into the library's layers, recorded from outside it.

``install`` replaces public module attributes of ``rqf`` with wrappers that
open a span on entry and close it on exit.  Spans stay in memory until the
pass ends; ``layer_metrics`` then derives busy times, self times, counts
and ratios from them.  Nothing in ``rqf`` itself is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import threading
import os
import time

# span name -> layer group
GROUPS = {
    "noise.generate_path": "noise",
    "noise.blocks": "noise",
    "noise.scalar_block": "noise",
    "noise.scalar_increments": "noise",
    "noise.symmetrize": "noise",
    "flows.batch_finals": "flows.batch",
    "flows.simulate_rqf": "flows.path",
    "flows.simulate_bias": "flows.path",
    "flows.simulate_coupled": "flows.path",
    "flows.simulate_phase": "flows.path",
    "flows.pullback_run": "flows.path",
    "integrators.heun_step_rqf": "integrators",
    "integrators.heun_step_bias": "integrators",
    "integrators.dqf_exact": "integrators",
    "zprocess.fokker_planck_evolve": "zprocess.fp",
    "zprocess.simulate_z": "zprocess.mc",
    "zprocess.simulate_z_finals": "zprocess.mc",
    "diagnostics.lyapunov_benettin": "diagnostics.benettin",
    "diagnostics.uniformity_check": "diagnostics.uniformity",
    "diagnostics.attractor_detect": "diagnostics.attractor",
    "cli.run": "cli",
    "_svg.line_chart": "svg",
    "_svg.scatter_chart": "svg",
}

# per-layer metric -> (unit, better)
METRICS = {
    "noise.busy_s": ("s", "lower"),
    "noise.increments": ("count", "lower"),
    "noise.bytes_materialized": ("B", "lower"),
    "noise.ns_per_increment": ("ns", "lower"),
    "flows.batch.self_s": ("s", "lower"),
    "flows.batch.ns_per_rstep": ("ns", "lower"),
    "flows.batch.peak_mb": ("MB", "lower"),  # resident-set growth inside batch_finals
    "flows.batch.thread_scaling": ("x", "higher"),
    "flows.path.self_s": ("s", "lower"),
    "flows.path.ns_per_rstep": ("ns", "lower"),
    "integrators.calls": ("count", "lower"),
    "integrators.us_per_call": ("us", "lower"),
    "zprocess.fp.busy_s": ("s", "lower"),
    "zprocess.fp.s_per_unit_T": ("s/T", "lower"),
    "zprocess.mc.self_s": ("s", "lower"),
    "zprocess.mc.ns_per_rstep": ("ns", "lower"),
    "diagnostics.benettin.self_s": ("s", "lower"),
    "diagnostics.uniformity.busy_s": ("s", "lower"),
    "diagnostics.attractor.busy_s": ("s", "lower"),
    "diagnostics.attractor.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "cli.ns_per_byte": ("ns", "lower"),
    "svg.busy_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def _steps(T, dt) -> int:
    return math.ceil(T / dt - 1e-9) if T > 0 else 0


# -- per-call counts, computed from the bound call arguments ------------------


def _generate_path(a, result):
    if not a["materialize"]:
        return {}
    normals = a["steps"] * (a["n"] * a["n"] + (a["n"] if a["with_vector"] else 0))
    return {"increments": normals, "bytes": 8 * normals}


def _scalar_block(a, result):
    return {"increments": result.size, "bytes": result.nbytes}


def _scalar_increments(a, result):
    return {"increments": a["steps"], "bytes": 8 * a["steps"]}


def _symmetrize(a, result):
    return {"increments": 0, "bytes": result.nbytes}


def _batch_finals(a, result):
    members = result.shape[-2]
    return {"rsteps": a["replicates"] * members * _steps(a["T"], a["dt"])}


def _single_path(a, result):
    return {"rsteps": _steps(a["T"], a["dt"])}


def _coupled(a, result):
    return {"rsteps": len(result.members) * _steps(a["T"], a["dt"])}


def _pullback(a, result):
    return {"rsteps": len(result.final_states) * _steps(a["T"], a["dt"])}


def _z_finals(a, result):
    return {"rsteps": a["replicates"] * _steps(a["T"], a["dt"])}


def _fp(a, result):
    return {"T": float(a["T"])}


COUNTERS = {
    "noise.generate_path": _generate_path,
    "noise.scalar_block": _scalar_block,
    "noise.scalar_increments": _scalar_increments,
    "noise.symmetrize": _symmetrize,
    "flows.batch_finals": _batch_finals,
    "flows.simulate_rqf": _single_path,
    "flows.simulate_bias": _single_path,
    "flows.simulate_phase": _single_path,
    "flows.simulate_coupled": _coupled,
    "flows.pullback_run": _pullback,
    "zprocess.simulate_z": _single_path,
    "zprocess.simulate_z_finals": _z_finals,
    "zprocess.fokker_planck_evolve": _fp,
}


class Recorder:
    """In-memory spans: id, name, start, end, parent, thread, run id, counts.

    A span opened on a worker thread with nothing open on that thread hangs
    off the innermost span open on the main thread (the call that started
    the pool).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.run = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[dict] = []

    def _stack(self) -> list[dict]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "thread": threading.get_ident(),
            "run": self.run,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


class RssPeak:
    """Growth of this process's resident set while a call runs, sampled every 2 ms.

    Stands in for tracemalloc, which slows the batched kernel about threefold.
    """

    def __init__(self):
        self.base = self.peak = _rss()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(0.002):
            self.peak = max(self.peak, _rss())

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return max(self.peak, _rss()) - self.base


def _wrap(rec: Recorder, name: str, fn):
    counter = COUNTERS.get(name)
    signature = inspect.signature(fn) if counter else None
    memory = name == "flows.batch_finals"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sampler = RssPeak() if memory else None
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
            if sampler:
                span["peak_bytes"] = sampler.stop()
        if counter:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.update(counter(bound.arguments, result))
        return result

    return wrapper


def _wrap_blocks(rec: Recorder, blocks):
    # time each chunk the generator produces, not the consumer's work between them
    @functools.wraps(blocks)
    def wrapper(self, *args, **kwargs):
        it = blocks(self, *args, **kwargs)
        while True:
            span = rec.open("noise.blocks")
            try:
                db, dw = next(it)
            except StopIteration:
                return
            finally:
                rec.close(span)
            normals = db.size + (dw.size if dw is not None else 0)
            span.update(increments=normals, bytes=8 * normals)
            yield db, dw

    return wrapper


def install(rec: Recorder):
    """Wrap the traced attributes of ``rqf``; returns a function that undoes it."""
    saved = []
    for name in GROUPS:
        if name == "noise.blocks":
            continue
        module_name, attr = name.split(".")
        module = importlib.import_module(f"rqf.{module_name}")
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, _wrap(rec, name, getattr(module, attr)))
    noise_path = importlib.import_module("rqf.noise").NoisePath
    saved.append((noise_path, "blocks", noise_path.blocks))
    noise_path.blocks = _wrap_blocks(rec, noise_path.blocks)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# -- derived metrics ----------------------------------------------------------


def _union(intervals) -> float:
    total, lo, hi = 0.0, None, None
    for s, e in sorted(intervals):
        if hi is None or s > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    return total + (hi - lo if hi is not None else 0.0)


def layer_metrics(spans: list[dict], windows: list[tuple[float, float]], bytes_written: int) -> dict:
    """Per-layer numbers from one traced pass.

    ``windows`` are the (start, end) of every ``cli.main`` call in the pass,
    ``bytes_written`` the size of everything those calls wrote.  Self time
    is a span's duration minus the union of its children's intervals; busy
    time is the union of a group's intervals.  Counts are summed over spans
    with no ancestor in their own group, so nested calls count once.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def self_time(s):
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children.get(s["id"], ())]
        return (s["end"] - s["start"]) - _union((a, b) for a, b in kids if b > a)

    def outermost(s):
        group, p = GROUPS[s["name"]], s["parent"]
        while p is not None:
            if GROUPS[by_id[p]["name"]] == group:
                return False
            p = by_id[p]["parent"]
        return True

    grouped: dict[str, list[dict]] = {g: [] for g in GROUPS.values()}
    for s in spans:
        grouped[GROUPS[s["name"]]].append(s)

    def busy(group):
        return _union((s["start"], s["end"]) for s in grouped[group])

    def own(group):
        return sum(self_time(s) for s in grouped[group])

    def total(group, key):
        return sum(s.get(key, 0) for s in grouped[group] if outermost(s))

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    noise_busy, increments = busy("noise"), total("noise", "increments")
    batch_self, path_self = own("flows.batch"), own("flows.path")
    mc_self, fp_busy = own("zprocess.mc"), busy("zprocess.fp")
    integrator_calls = len(grouped["integrators"])
    cli_self = own("cli")
    wall = sum(e - s for s, e in windows)
    covered = _union(
        (max(s["start"], lo), min(s["end"], hi))
        for s in spans for lo, hi in windows if s["end"] > lo and s["start"] < hi
    )
    return {
        "noise.busy_s": noise_busy,
        "noise.increments": increments,
        "noise.bytes_materialized": total("noise", "bytes"),
        "noise.ns_per_increment": per(noise_busy, increments, 1e9),
        "flows.batch.self_s": batch_self,
        "flows.batch.ns_per_rstep": per(batch_self, total("flows.batch", "rsteps"), 1e9),
        "flows.batch.peak_mb": max((s.get("peak_bytes", 0) for s in grouped["flows.batch"]), default=0) / 2**20,
        "flows.path.self_s": path_self,
        "flows.path.ns_per_rstep": per(path_self, total("flows.path", "rsteps"), 1e9),
        "integrators.calls": integrator_calls,
        "integrators.us_per_call": per(busy("integrators"), integrator_calls, 1e6),
        "zprocess.fp.busy_s": fp_busy,
        "zprocess.fp.s_per_unit_T": per(fp_busy, total("zprocess.fp", "T")),
        "zprocess.mc.self_s": mc_self,
        "zprocess.mc.ns_per_rstep": per(mc_self, total("zprocess.mc", "rsteps"), 1e9),
        "diagnostics.benettin.self_s": own("diagnostics.benettin"),
        "diagnostics.uniformity.busy_s": busy("diagnostics.uniformity"),
        "diagnostics.attractor.busy_s": busy("diagnostics.attractor"),
        "diagnostics.attractor.calls": len(grouped["diagnostics.attractor"]),
        "cli.self_s": cli_self,
        "cli.bytes_written": bytes_written,
        "cli.ns_per_byte": per(cli_self, bytes_written, 1e9),
        "svg.busy_s": busy("svg"),
        "trace.unattributed_s": wall - covered,
    }
