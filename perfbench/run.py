"""rqf benchmark: drive ``rqf.cli.main`` on generated configs and report end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one report

Every workload pass runs in a fresh Python process with BLAS/OpenMP threads
pinned to 1 and ``--threads`` equal to the CPUs this process may use.
``--trace 0`` repeats untraced passes for ``--seconds`` (at least three) and
reports medians of the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half of ``--seconds`` (at least two), then one traced pass and
the thread-scaling probe, and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "rsteps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_PROBES = 2  # set-up-only processes per untraced run, on top of one sample per pass
MIN_PASSES = 3
MIN_TRACE_REFERENCE_PASSES = 2
WORKER_TIMEOUT_S = 150
OUT = os.path.join(HERE, "out")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("RQF_THREADS", None)
    return env


class Workspace:
    """Scratch directory, config files and worker processes of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.docs = workloads.configs(workload, seed)
        self.tmp = os.path.join(OUT, f"tmp-{os.getpid()}-{workload}")
        self.threads = len(os.sched_getaffinity(0))
        self.env = child_env()
        self.errors: list[str] = []
        self._count = 0

    def __enter__(self):
        os.makedirs(self.tmp, exist_ok=True)
        self.configs = {}
        for name, doc in self.docs.items():
            path = os.path.join(self.tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.configs[name] = path
        # the thread-scaling probe always runs the mc_sweep uniformity input
        self.scaling_config = os.path.join(self.tmp, "scaling.json")
        with open(self.scaling_config, "w", encoding="utf-8") as fh:
            json.dump(workloads.configs("mc_sweep", self.seed)["uniformity"], fh)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def spawn(self, mode: str, trace: bool = False, configs: dict | None = None) -> dict | None:
        """Run one worker process to completion; its result, or None if it failed."""
        self._count += 1
        spec_path = os.path.join(self.tmp, f"spec-{self._count}.json")
        result_path = os.path.join(self.tmp, f"result-{self._count}.json")
        spec = {
            "mode": mode,
            "trace": trace,
            "configs": configs or self.configs,
            "threads": self.threads,
            "tmp": self.tmp,
            "spans_out": os.path.join(OUT, f"spans-{self.workload}-seed{self.seed}.jsonl"),
        }
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s")
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            self.errors.append(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)


def _line(name: str, value: float, unit: str, samples: list[float] | None = None) -> str:
    note = ""
    if samples:
        note = f"median of {len(samples)} (min {min(samples):.4g}, max {max(samples):.4g})"
    return f"{name:<32}{value:>14.6g} {unit:<6} {note}".rstrip()


def _baseline_fingerprints(workload: str, seed: int) -> dict:
    try:
        with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
            return json.load(fh)["fingerprints"][workload].get(str(seed), {})
    except (OSError, KeyError, json.JSONDecodeError):
        return {}


def _account(ws: Workspace, passes: list[dict | None]) -> tuple[int, int, dict]:
    """Attempted and failed runs over all passes, and each run's fingerprint."""
    attempted = failed = 0
    first: dict[str, str] = {}
    for result in passes:
        attempted += len(ws.docs)
        if result is None:
            failed += len(ws.docs)
            continue
        for run in result["runs"]:
            fp = run.get("fingerprint")
            first.setdefault(run["name"], fp)
            if fp is not None and fp != first[run["name"]]:
                run["problems"].append(f"fingerprint {fp[:12]} differs from an earlier repeat {first[run['name']][:12]}")
            if run["problems"]:
                failed += 1
                ws.errors.append(f"{run['name']}: {'; '.join(run['problems'])}")
    return attempted, failed, first


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    lines = []
    with Workspace(workload, seed) as ws:
        probes = [ws.spawn("setup") for _ in range(1 if trace else SETUP_PROBES)]
        env = next((p["env"] for p in probes if p), {})
        untraced: list[dict | None] = []
        started = time.perf_counter()
        budget = seconds / 2 if trace else seconds
        minimum = MIN_TRACE_REFERENCE_PASSES if trace else MIN_PASSES
        while len(untraced) < minimum or time.perf_counter() - started < budget:
            untraced.append(ws.spawn("pass"))
        traced = ws.spawn("pass", trace=True) if trace else None
        scaling = ws.spawn("scaling", configs={"uniformity": ws.scaling_config}) if trace else None
        attempted, failed, fingerprints = _account(ws, untraced + ([traced] if trace else []))

    ok = [p for p in untraced if p]
    if not ok:
        raise RuntimeError("no workload pass completed: " + " | ".join(ws.errors))
    walls = [p["wall_s"] for p in ok]
    work = sum(workloads.stated_work(doc) for doc in ws.docs.values())
    lines.append(f"# perfbench workload={workload} seed={seed} trace={int(trace)} "
                 f"passes={len(untraced)} threads={ws.threads} stated_rsteps={work}")
    lines.append("# env " + json.dumps(env, sort_keys=True))

    if trace:
        attempted += 1
        if scaling is None or not scaling["bitwise_equal"]:
            failed += 1
            ws.errors.append("thread-scaling probe failed or its outputs differ between thread counts")
        if traced is None:
            raise RuntimeError("traced pass failed: " + " | ".join(ws.errors))
        metrics = dict(traced["layers"])
        metrics["flows.batch.thread_scaling"] = scaling["thread_scaling"] if scaling else 0.0
        metrics["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        units = spans.METRICS
        lines.extend(_line(name, metrics[name], units[name][0]) for name in units)
    else:
        setup = [p["setup_s"] for p in probes + untraced if p]
        rss = [p["peak_rss_mb"] for p in ok]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "rsteps_per_s": work / statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
        }
        units = END_TO_END
        lines.append(_line("setup_s", metrics["setup_s"], "s", setup))
        lines.append(_line("wall_s", metrics["wall_s"], "s", walls))
        lines.append(_line("rsteps_per_s", metrics["rsteps_per_s"], "1/s"))
        lines.append(_line("peak_rss_mb", metrics["peak_rss_mb"], "MB", rss))
        for name in ws.docs:
            times = [r["wall_s"] for p in ok for r in p["runs"] if r["name"] == name]
            lines.append(_line(f"run.{name}_s", statistics.median(times), "s", times))
    lines.append(f"ops_failed_frac {failed / attempted:.4g} (failed {failed} of {attempted} attempted)")
    baseline = _baseline_fingerprints(workload, seed)
    for name, fp in fingerprints.items():
        known = baseline.get(name)
        verdict = ("no baseline for this seed" if known is None
                   else "same as baseline" if known == fp else "CHANGED from baseline")
        lines.append(f"fingerprint {name:<18} {fp} ({verdict})")
    lines.extend(f"# error: {e}" for e in ws.errors)

    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "env": env,
        "passes": untraced, "traced": traced, "scaling": scaling, "fingerprints": fingerprints,
        "errors": ws.errors,
    }
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": failed == 0 and not ws.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind normally: subprocess.run kills and reaps the worker, Workspace removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join("src", "rqf", "cli.py")):
        print("perfbench: run from the repository root; src/rqf/cli.py not found", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        lines, results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
