"""One fresh benchmark process: a set-up probe, a workload pass, or the thread-scaling probe.

Usage: python3 perfbench/worker.py <spec.json> <result.json>

The spec names the mode, the config files and the scratch directory.  Set-up
time runs from before ``import rqf.cli`` until every config has passed
``cli.validate_document``; a pass then drives ``rqf.cli.main`` once per
config, checks each run's outputs outside the timed call, and removes the
run's output directory.
"""

import time

_STARTED = time.perf_counter()  # before rqf.cli is imported

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import traceback


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = (_read(f"{base}/{f}") for f in ("level", "type", "size"))
        if level:
            caches[f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_pass(cli, spec: dict, docs: dict) -> dict:
    import workloads

    recorder = restore = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        restore = spans.install(recorder)
    runs, windows = [], []
    for index, (name, doc) in enumerate(docs.items()):
        out = os.path.join(spec["tmp"], f"out-{name}")
        argv = [doc["experiment"], "--config", spec["configs"][name], "--out", out,
                "--threads", str(spec["threads"])]
        if recorder:
            recorder.run = index
        stdout, stderr = io.StringIO(), io.StringIO()
        code = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:
            stderr.write(traceback.format_exc())
        ended = time.perf_counter()
        windows.append((started, ended))
        entry = {"name": name, "wall_s": ended - started, "exit_code": code}
        if code == 0:
            try:
                printed = json.loads(stdout.getvalue())
                entry["fingerprint"] = printed["fingerprint"]
                run_dir = printed["run_dir"]
                entry["bytes_written"] = sum(
                    os.path.getsize(os.path.join(run_dir, f)) for f in os.listdir(run_dir)
                )
                entry["problems"] = workloads.check(doc, run_dir)
            except Exception:
                entry["problems"] = ["output check raised: " + traceback.format_exc(limit=3)]
        else:
            entry["problems"] = [f"exit code {code}: {stderr.getvalue().strip()[-2000:]}"]
        shutil.rmtree(out, ignore_errors=True)
        runs.append(entry)
    result = {"runs": runs, "wall_s": sum(e - s for s, e in windows)}
    if recorder:
        restore()
        written = sum(r.get("bytes_written", 0) for r in runs)
        result["layers"] = spans.layer_metrics(recorder.spans, windows, written)
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")
    return result


def thread_scaling(spec: dict, doc: dict) -> dict:
    """batch_finals on the uniformity input at 1 thread and at ``threads``."""
    import numpy as np
    from rqf import flows

    x0 = np.zeros((1, doc["n"]))
    x0[0, 0] = 1.0
    times, outputs = [], []
    for threads in (1, spec["threads"]):
        started = time.perf_counter()
        outputs.append(flows.batch_finals(x0, doc["T"], doc["dt"], doc["seed"], doc["seed_count"],
                                          threads=threads, chunk_bytes=1 << 22))
        times.append(time.perf_counter() - started)
    return {
        "thread_scaling": times[0] / times[1],
        "bitwise_equal": outputs[0].tobytes() == outputs[1].tobytes(),
    }


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import rqf.cli as cli

    docs = {}
    for name, path in spec["configs"].items():
        with open(path, encoding="utf-8") as fh:
            docs[name] = json.load(fh)
        violations = cli.validate_document(docs[name])
        if violations:
            print(f"config {name} is invalid: {violations}", file=sys.stderr)
            return 2
    result = {"setup_s": time.perf_counter() - _STARTED}

    if spec["mode"] == "setup":
        result["env"] = environment()
    elif spec["mode"] == "pass":
        result.update(run_pass(cli, spec, docs))
    else:
        result.update(thread_scaling(spec, next(iter(docs.values()))))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
