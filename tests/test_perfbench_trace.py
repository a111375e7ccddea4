"""Smoke test of the benchmark's traced pass (``perfbench/spans.py``) on tiny configs.

The tracer wraps public ``rqf`` attributes by name and its counters read
call arguments by name, so a renamed attribute or argument shows up here
rather than only in a ``--trace 1`` benchmark run.
"""

import importlib
import importlib.util
import json
import math
import pathlib
import time

from rqf import cli, noise

ROOT = pathlib.Path(__file__).resolve().parents[1]

# one tiny config per experiment (both lyapunov models)
TINY = {
    "simulate": {"experiment": "simulate", "n": 3, "T": 0.05, "dt": 0.01, "seed_count": 2},
    "coupled": {"experiment": "coupled", "n": 3, "T": 0.05, "dt": 0.01, "members": 3},
    "pullback": {"experiment": "pullback", "n": 3, "T": 0.05, "dt": 0.01, "grid_points": 20,
                 "diameter_tol": 4.0},
    "zprocess": {"experiment": "zprocess", "n": 3, "T": 0.05, "dt": 0.01, "seed_count": 20, "z0": 0.3},
    "fokker-planck": {"experiment": "fokker-planck", "n": 3, "T": 0.1, "dt": 0.01, "z0": 0.3,
                      "fp_cells": 41},
    "lyapunov-sphere": {"experiment": "lyapunov", "model": "sphere", "n": 3, "T": 0.4, "dt": 0.01,
                        "renorm_interval": 0.1},
    "lyapunov-phase": {"experiment": "lyapunov", "model": "phase", "n": 2, "T": 0.4, "dt": 0.01,
                       "renorm_interval": 0.1},
    "dqf": {"experiment": "dqf", "n": 3, "T": 0.05, "dt": 0.01},
    "bias-scan": {"experiment": "bias-scan", "n": 3, "T": 0.05, "dt": 0.01, "seed_count": 4,
                  "members": 2, "ratios": [0.0, 1.0]},
    "uniformity": {"experiment": "uniformity", "n": 3, "T": 0.05, "dt": 0.01, "seed_count": 100},
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_runs_every_experiment_and_restores(tmp_path, capsys):
    spans = _load_spans()
    assert {doc["experiment"] for doc in TINY.values()} == set(cli.EXPERIMENTS)
    wrapped = [name.split(".") for name in spans.GROUPS if name != "noise.blocks"]
    originals = [(importlib.import_module(f"rqf.{module}"), attr) for module, attr in wrapped]
    originals = [(module, attr, getattr(module, attr)) for module, attr in originals]
    blocks = noise.NoisePath.blocks

    recorder = spans.Recorder()
    restore = spans.install(recorder)
    windows = []
    try:
        for index, (name, doc) in enumerate(TINY.items()):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({**doc, "seed": 3}))
            recorder.run = index
            started = time.perf_counter()
            code = cli.main([doc["experiment"], "--config", str(config), "--out", str(tmp_path / name)])
            windows.append((started, time.perf_counter()))
            assert code == 0, (name, capsys.readouterr().err)
    finally:
        restore()

    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} was not restored"
    assert noise.NoisePath.blocks is blocks

    seen = {span["name"] for span in recorder.spans}
    assert {"cli.run", "flows.batch_finals", "flows.simulate_coupled",
            "zprocess.simulate_z", "zprocess.simulate_z_finals", "zprocess.fokker_planck_evolve",
            "diagnostics.lyapunov_benettin", "diagnostics.uniformity_check", "noise.blocks",
            "noise.scalar_increments"} <= seen
    metrics = spans.layer_metrics(recorder.spans, windows, 1)
    assert set(metrics) <= set(spans.METRICS)
    assert all(math.isfinite(value) for value in metrics.values())
    for key in ("flows.batch.ns_per_rstep", "flows.path.ns_per_rstep", "zprocess.mc.ns_per_rstep",
                "noise.increments", "integrators.calls"):
        assert metrics[key] > 0, key
