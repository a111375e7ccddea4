"""Workload definitions: generated CLI configs, their stated work, and output checks.

Every config is a plain ``rqf`` JSON document.  Sizes are fixed here; the
benchmark seed only sets each document's ``seed``, so two seeds give the
same amount of work on different noise realizations.
"""

from __future__ import annotations

import csv
import json
import math
import os

# run name -> config document without "seed"
WORKLOADS: dict[str, dict[str, dict]] = {
    "mc_sweep": {
        # short horizon: 300 steps, so one 4 MiB chunk holds ~190 replicates
        "uniformity": {"experiment": "uniformity", "n": 3, "T": 15.0, "dt": 0.05,
                       "seed_count": 2000},
        # long horizon: 2400 steps, so a chunk holds only ~24 replicates
        "uniformity-long": {"experiment": "uniformity", "n": 3, "T": 12.0, "dt": 0.005,
                            "seed_count": 400},
        "bias-scan": {"experiment": "bias-scan", "n": 3, "T": 12.0, "dt": 0.01,
                      "seed_count": 400, "members": 2, "ratios": [0.0, 0.5, 4.0]},
    },
    "trajectory": {
        "simulate": {"experiment": "simulate", "n": 3, "T": 10.0, "dt": 1e-3, "seed_count": 2},
        "coupled": {"experiment": "coupled", "n": 3, "T": 10.0, "dt": 1e-3, "members": 8},
        "pullback": {"experiment": "pullback", "n": 3, "T": 30.0, "dt": 1e-2,
                     "grid_points": 400, "diameter_tol": 0.05},
        "lyapunov-sphere": {"experiment": "lyapunov", "model": "sphere", "n": 3,
                            "T": 100.0, "dt": 1e-2, "renorm_interval": 0.2},
        "lyapunov-phase": {"experiment": "lyapunov", "model": "phase", "n": 2,
                           "T": 2000.0, "dt": 1e-2, "renorm_interval": 0.2},
        "dqf": {"experiment": "dqf", "n": 4, "T": 20.0, "dt": 1e-3},
    },
    "oracle": {
        "zprocess": {"experiment": "zprocess", "n": 3, "T": 8.0, "dt": 1e-2,
                     "seed_count": 2000, "z0": 0.0},
        "fokker-planck": {"experiment": "fokker-planck", "n": 3, "T": 2.5, "dt": 1e-2,
                          "z0": 0.3, "fp_cells": 401},
    },
}

# the z0 table the zprocess experiment always sweeps (plus the config's own z0)
Z_TABLE = (-0.9, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 0.9)


def configs(workload: str, seed: int) -> dict[str, dict]:
    """The workload's config documents with every ``seed`` set to ``seed``."""
    return {name: {**doc, "seed": seed} for name, doc in WORKLOADS[workload].items()}


def steps(doc: dict) -> int:
    return math.ceil(doc["T"] / doc["dt"] - 1e-9) if doc["T"] > 0 else 0


def stated_work(doc: dict) -> int:
    """Replicate-steps the run states in its config.

    Sphere runs count replicates x members x steps, z runs replicates x
    steps.  Fokker-Planck and exact-flow work is not counted.
    """
    exp, k = doc["experiment"], steps(doc)
    if exp in ("uniformity", "simulate"):
        return doc.get("seed_count", 1) * k
    if exp == "bias-scan":
        return len(doc["ratios"]) * doc["seed_count"] * 2 * k
    if exp == "coupled":
        return doc["members"] * k
    if exp == "pullback":
        return doc["grid_points"] * k
    if exp == "lyapunov":
        return 2 * k  # reference and companion trajectory
    if exp == "dqf":
        return k  # the zero-noise Heun cross-check
    if exp == "zprocess":
        z0s = set(Z_TABLE) | {float(doc["z0"])}
        return (len(z0s) * doc["seed_count"] + 1) * k  # table plus one sample path
    return 0


# -- output checks ------------------------------------------------------------
#
# Tolerances are loose on purpose: a valid change of noise stream must pass
# on every seed, so statistical checks sit at about five standard errors.


def _summary(run_dir: str, name: str = "summary.json") -> dict:
    with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _rows(run_dir: str, name: str) -> list[dict]:
    with open(os.path.join(run_dir, name), encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _check_uniformity(doc, run_dir):
    # the report's own ``passed`` flag is a 3-sigma / 1% test that fails on a
    # few percent of seeds; re-test its statistics at 5 sigma and p > 1e-6
    r = _summary(run_dir, "report.json")
    loose = 5.0 / 3.0
    problems = []
    for key in ("mean_norm", "cov_dev_diag", "cov_dev_off"):
        if not r[key] < loose * r[key + "_bound"]:
            problems.append(f"{key}={r[key]:.3g} exceeds 5 sigma ({loose * r[key + '_bound']:.3g})")
    if not min(r["ks_pvalues"]) > 1e-6:
        problems.append(f"KS p-value {min(r['ks_pvalues']):.3g} <= 1e-6")
    return problems


def _check_bias_scan(doc, run_dir):
    rows = _rows(run_dir, "scan.csv")
    ratio = "ratio_sigma_w_over_sigma_q"
    zero = next(r for r in rows if r[ratio] == 0.0)
    top = max(rows, key=lambda r: r[ratio])
    problems = []
    if not zero["polar_fraction"] + zero["antipolar_fraction"] >= 0.9:
        problems.append("polar + anti-polar fraction below 0.9 at ratio 0")
    if not top["polar_fraction"] > top["antipolar_fraction"]:
        problems.append("polar does not exceed anti-polar at the largest ratio")
    return problems


def _check_lyapunov(doc, run_dir):
    s = _summary(run_dir)
    if doc["model"] == "phase":
        if not abs(s["lambda"] + 1.0) <= 5.0 * s["stderr"]:
            return [f"phase lambda {s['lambda']:.4f} not within 5 stderr ({s['stderr']:.3g}) of -1"]
        return []
    return [] if s["lambda"] < 0 else [f"sphere lambda {s['lambda']:.4f} is not negative"]


def _check_dqf(doc, run_dir):
    dev = _summary(run_dir)["heun_vs_exact"]
    return [] if dev < 1e-3 else [f"heun_vs_exact {dev:.3g} >= 1e-3"]


def _check_zprocess(doc, run_dir):
    return [
        f"z0={r['z0']}: |p_mc - p_cf| = {abs(r['p_monte_carlo'] - r['p_closed_form']):.4f} "
        f"> 5 stderr ({5 * r['stderr']:.4f})"
        for r in _rows(run_dir, "hitting.csv")
        if not abs(r["p_monte_carlo"] - r["p_closed_form"]) <= 5.0 * r["stderr"]
    ]


def _check_fokker_planck(doc, run_dir):
    s = _summary(run_dir)
    problems = [] if s["mass_drift"] < 1e-9 else [f"mass_drift {s['mass_drift']:.3g} >= 1e-9"]
    upper = sum(r["mass"] for r in _rows(run_dir, "density.csv") if r["z_center"] > 0)
    z0 = doc["z0"]
    expected = (2.0 + 3.0 * z0 - z0**3) / 4.0  # hit_up_probability(z0)
    if not abs(upper - expected) < 0.02:
        problems.append(f"mass at z > 0 is {upper:.4f}, hit_up_probability is {expected:.4f}")
    return problems


def _check_pullback(doc, run_dir):
    k = _summary(run_dir)["clusters"]["k"]
    return [] if k in (1, 2) else [f"clusters.k = {k}"]


def _check_none(doc, run_dir):
    return []


CHECKS = {
    "uniformity": _check_uniformity,
    "bias-scan": _check_bias_scan,
    "lyapunov": _check_lyapunov,
    "dqf": _check_dqf,
    "zprocess": _check_zprocess,
    "fokker-planck": _check_fokker_planck,
    "pullback": _check_pullback,
    "simulate": _check_none,
    "coupled": _check_none,
}


def check(doc: dict, run_dir: str) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct.

    Every run must also have written each artifact its manifest hashes.
    """
    manifest = _summary(run_dir, "manifest.json")
    missing = [f for f in manifest["outputs"] if not os.path.isfile(os.path.join(run_dir, f))]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    return CHECKS[doc["experiment"]](doc, run_dir)
