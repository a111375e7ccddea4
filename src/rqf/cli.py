"""Command-line orchestration: ``rqf <experiment> --config <path>``.

A run is described by a single JSON document (flags may override the
top-level seed/output scalars), executes one named experiment, and writes
CSV/JSON/SVG artifacts plus a manifest with a content hash per output.
Identical configs reproduce identical content hashes, independent of the
worker count (``RQF_THREADS``).

Exit codes: 0 success, 2 config error, 3 numerical error, 4 resource cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, diagnostics, flows, integrators, noise, zprocess
from .errors import ConfigError, NumericalError, ResourceCapError
from .geometry import unit_vector
from . import _svg

EXPERIMENTS = (
    "simulate",
    "coupled",
    "pullback",
    "zprocess",
    "fokker-planck",
    "lyapunov",
    "dqf",
    "bias-scan",
    "uniformity",
)

_COMMON_KEYS = {
    "experiment", "n", "T", "dt", "seed", "seed_count", "out_dir", "svg",
}
_EXTRA_KEYS = {
    "simulate": {"x0", "sign"},
    "coupled": {"members", "sigma_q", "sigma_w", "sign"},
    "pullback": {"grid_points", "diameter_tol"},
    "zprocess": {"z0"},
    "fokker-planck": {"z0", "fp_cells"},
    "lyapunov": {"model", "sigma_q", "sigma_w", "sign", "renorm_interval", "delta0"},
    "dqf": {"matrix"},
    "bias-scan": {"ratios", "members"},
    "uniformity": {"x0"},
}


@dataclass
class RunConfig:
    """Resolved experiment configuration (defaults applied)."""

    experiment: str
    n: int = 3
    T: float = 1.0
    dt: float = 1e-3
    seed: int = 0
    seed_count: int = 1
    out_dir: str = "runs"
    svg: bool = True
    sigma_q: float = 1.0
    sigma_w: float = 0.0
    sign: float = -1.0
    members: int = 2
    grid_points: int = 100
    diameter_tol: float = 1e-3
    z0: float = 0.0
    fp_cells: int = 401
    model: str = "phase"
    renorm_interval: float = 0.1
    delta0: float = 1e-8
    matrix: list | None = None
    ratios: list = field(default_factory=lambda: [0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    x0: list | None = None


def validate_document(doc: dict) -> list[str]:
    """Schema check; returns a list of human-readable violations."""
    violations: list[str] = []
    if not isinstance(doc, dict):
        return ["config must be a JSON object"]
    exp = doc.get("experiment")
    if exp not in EXPERIMENTS:
        violations.append(f"experiment must be one of {', '.join(EXPERIMENTS)}")
        allowed = _COMMON_KEYS | set().union(*_EXTRA_KEYS.values())
    else:
        allowed = _COMMON_KEYS | _EXTRA_KEYS[exp]
    for key in doc:
        if key not in allowed:
            violations.append(f"unknown key: {key}")

    def check(key, pred, message):
        if key in doc and not pred(doc[key]):
            violations.append(message)

    is_num = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    check("n", lambda v: isinstance(v, int) and v >= 2, "n must be >= 2")
    check("T", lambda v: is_num(v) and v >= 0, "T must be >= 0")
    check("dt", lambda v: is_num(v) and v > 0, "dt must be positive")
    check("seed", lambda v: isinstance(v, int), "seed must be an integer")
    check("seed_count", lambda v: isinstance(v, int) and v >= 1, "seed_count must be >= 1")
    check("out_dir", lambda v: isinstance(v, str) and v, "out_dir must be a non-empty string")
    check("svg", lambda v: isinstance(v, bool), "svg must be a boolean")
    check("sigma_q", lambda v: is_num(v) and v >= 0, "sigma_q must be >= 0")
    check("sigma_w", lambda v: is_num(v) and v >= 0, "sigma_w must be >= 0")
    check("sign", lambda v: v in (-1, 1, -1.0, 1.0), "sign must be +1 or -1")
    check("members", lambda v: isinstance(v, int) and v >= 1, "members must be >= 1")
    check("grid_points", lambda v: isinstance(v, int) and v >= 1, "grid_points must be >= 1")
    check("diameter_tol", lambda v: is_num(v) and v > 0, "diameter_tol must be positive")
    check("z0", lambda v: is_num(v) and -1 <= v <= 1, "z0 must be in [-1, 1]")
    check("fp_cells", lambda v: isinstance(v, int) and v >= 3, "fp_cells must be >= 3")
    check("model", lambda v: v in ("phase", "sphere"), "model must be 'phase' or 'sphere'")
    check("renorm_interval", lambda v: is_num(v) and v > 0, "renorm_interval must be positive")
    check("delta0", lambda v: is_num(v) and v > 0, "delta0 must be positive")
    T, dt = doc.get("T", RunConfig.T), doc.get("dt", RunConfig.dt)
    if exp != "fokker-planck" and is_num(T) and is_num(dt) and 0 < T < dt:
        violations.append("dt must not exceed T")
    check("ratios", lambda v: isinstance(v, list) and v and all(is_num(r) and r >= 0 for r in v),
          "ratios must be a non-empty list of nonnegative numbers")
    if "matrix" in doc:
        m = doc["matrix"]
        ok = isinstance(m, list) and m and all(isinstance(r, list) and len(r) == len(m) for r in m)
        if ok:
            arr = np.asarray(m, dtype=float)
            ok = np.allclose(arr, arr.T)
        if not ok:
            violations.append("matrix must be a square symmetric list of lists")
    if "x0" in doc:
        v = doc["x0"]
        if not (isinstance(v, list) and len(v) >= 2 and all(is_num(c) for c in v)):
            violations.append("x0 must be a list of at least 2 numbers")
    return violations


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if overrides:
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    violations = validate_document(doc)
    if violations:
        raise ConfigError("; ".join(violations))
    return RunConfig(**doc)


# -- deterministic serialization ------------------------------------------------


def _cell(v) -> str:
    if isinstance(v, (bool, int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _default_x0(cfg: RunConfig) -> np.ndarray:
    if cfg.x0 is not None:
        return unit_vector(cfg.x0)
    e1 = np.zeros(cfg.n)
    e1[0] = 1.0
    return unit_vector(e1)


def _threads(explicit: int | None) -> int:
    if explicit is not None:
        return max(1, explicit)
    try:
        return max(1, int(os.environ.get("RQF_THREADS", "1")))
    except ValueError:
        return 1


# -- experiments ----------------------------------------------------------------


def _exp_simulate(cfg: RunConfig, threads: int) -> dict:
    x0 = _default_x0(cfg)
    rows = []
    finals = []
    svg_series = None
    for r in range(cfg.seed_count):
        traj = flows.simulate_rqf(x0, cfg.T, cfg.dt, cfg.seed, sign=cfg.sign, stream=r)
        for t, state in zip(traj.times, traj.states):
            rows.append([t, r, *state])
        finals.append(float(traj.final @ x0))
        if svg_series is None:
            svg_series = [(traj.times, traj.states[:, i]) for i in range(cfg.n)]
    steps = flows._step_count(cfg.T, cfg.dt)
    out = {
        "trajectory.csv": _csv(["t", "member_id", *[f"x_{i}" for i in range(cfg.n)]], rows),
        "summary.json": _json({
            "seed": cfg.seed,
            "replicates": cfg.seed_count,
            "mean_final_inner": float(np.mean(finals)),
            "noise": noise.NoisePath(cfg.seed, cfg.n, cfg.dt, steps).header(),
        }),
    }
    if cfg.svg:
        out["trajectory.svg"] = _svg.line_chart(svg_series, title="state coordinates vs t")
    return out


def _exp_coupled(cfg: RunConfig, threads: int) -> dict:
    initials = flows.sphere_grid(cfg.members, cfg.n, cfg.seed)
    ens = flows.simulate_coupled(initials, cfg.T, cfg.dt, cfg.seed,
                                 sigma_q=cfg.sigma_q, sigma_w=cfg.sigma_w, sign=cfg.sign)
    rows = []
    for mid, member in enumerate(ens.members):
        for t, state in zip(member.times, member.states):
            rows.append([t, mid, *state])
    times = ens.members[0].times
    z = np.einsum("ti,ti->t", ens.members[0].states, ens.members[1].states) if cfg.members >= 2 \
        else np.ones_like(times)
    final_states = ens.final_states
    out = {
        "trajectory.csv": _csv(["t", "member_id", *[f"x_{i}" for i in range(cfg.n)]], rows),
        "z_history.csv": _csv(["t", "z"], zip(times, z)),
        "summary.json": _json({
            "seed": cfg.seed,
            "members": cfg.members,
            "final_z": float(z[-1]),
            "final_sync_metric": float(diagnostics.sync_metric(final_states[0], final_states[1]))
            if cfg.members >= 2 else 0.0,
        }),
    }
    if cfg.svg:
        out["z_history.svg"] = _svg.line_chart([(times, z)], title="inner product of members 0,1")
    return out


def _exp_pullback(cfg: RunConfig, threads: int) -> dict:
    grid = flows.sphere_grid(cfg.grid_points, cfg.n, cfg.seed)
    res = flows.pullback_run(grid, cfg.T, cfg.dt, cfg.seed, diameter_tol=cfg.diameter_tol)

    # contraction history: worst cluster diameter at a handful of times
    # (replicate 0 of batch_finals consumes the same stream-0 noise)
    times = [cfg.T * k / 24.0 for k in range(25)]
    snaps = flows.batch_finals(grid, cfg.T, cfg.dt, cfg.seed, 1, checkpoints=times)
    diam_rows = []
    for t, snap in zip(times, snaps[:, 0]):
        sm = diagnostics.attractor_detect(snap, diameter_tol=4.0)
        diam_rows.append([t, max(sm.diameters)])

    rows = [[i, *state] for i, state in enumerate(res.final_states)]
    out = {
        "final_states.csv": _csv(["member_id", *[f"x_{i}" for i in range(cfg.n)]], rows),
        "diameters.csv": _csv(["t", "max_cluster_diameter"], diam_rows),
        "summary.json": _json({
            "seed": cfg.seed,
            "grid_points": cfg.grid_points,
            "clusters": res.summary.as_dict(),
        }),
    }
    if cfg.svg:
        groups = None
        if res.summary.k == 2:
            pole = res.summary.poles[0]
            groups = (res.final_states @ pole < 0).astype(int)
        out["scatter.svg"] = _svg.scatter_chart(
            res.final_states[:, :2], title="final states (first two coordinates)", groups=groups
        )
        out["diameters.svg"] = _svg.line_chart(
            [([r[0] for r in diam_rows], [r[1] for r in diam_rows])],
            title="worst cluster diameter vs t",
        )
    return out


_Z_TABLE = (-0.9, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 0.9)


def _exp_zprocess(cfg: RunConfig, threads: int) -> dict:
    z0s = sorted(set(_Z_TABLE) | {float(cfg.z0)})
    rows = []
    for z0 in z0s:
        p_cf = zprocess.hit_up_probability(z0)
        finals = zprocess.simulate_z_finals(z0, cfg.T, cfg.dt, cfg.seed, cfg.seed_count)
        p_mc = float(np.mean(finals > 0.999))
        stderr = float(np.sqrt(max(p_mc * (1 - p_mc), 1e-12) / cfg.seed_count))
        rows.append([z0, p_cf, p_mc, stderr])
    sample = zprocess.simulate_z(cfg.z0, cfg.T, cfg.dt, cfg.seed)
    out = {
        "hitting.csv": _csv(["z0", "p_closed_form", "p_monte_carlo", "stderr"], rows),
        "z_path.csv": _csv(["t", "z"], zip(sample.times, sample.values)),
        "summary.json": _json({
            "seed": cfg.seed,
            "z0": cfg.z0,
            "replicates": cfg.seed_count,
            "p_closed_form": zprocess.hit_up_probability(cfg.z0),
        }),
    }
    if cfg.svg:
        zz = [r[0] for r in rows]
        out["hitting.svg"] = _svg.line_chart(
            [(zz, [r[1] for r in rows]), (zz, [r[2] for r in rows])],
            title="boundary hit probability: closed form vs Monte Carlo",
        )
    return out


def _exp_fokker_planck(cfg: RunConfig, threads: int) -> dict:
    p0 = zprocess.DensityGrid.delta(cfg.z0, cfg.fp_cells)
    evolved = zprocess.fokker_planck_evolve(p0, cfg.T)
    out = {
        "density.csv": _csv(["z_center", "mass"], zip(evolved.centers, evolved.masses)),
        "summary.json": _json({
            "seed": cfg.seed,
            "z0": cfg.z0,
            "cells": cfg.fp_cells,
            "T": cfg.T,
            "mass_drift": float(abs(evolved.masses.sum() - 1.0)),
            "max_stable_dt": zprocess.max_stable_dt(cfg.fp_cells),
        }),
    }
    if cfg.svg:
        out["density.svg"] = _svg.line_chart(
            [(evolved.centers, evolved.density())], title="inner-product density"
        )
    return out


def _exp_lyapunov(cfg: RunConfig, threads: int) -> dict:
    params = {"n": cfg.n, "sigma_q": cfg.sigma_q, "sigma_w": cfg.sigma_w, "sign": cfg.sign}
    est = diagnostics.lyapunov_benettin(
        cfg.model, params, cfg.T, cfg.dt, cfg.renorm_interval, cfg.seed, cfg.delta0
    )
    return {
        "summary.json": _json({"seed": cfg.seed, "model": cfg.model, **est.as_dict()}),
    }


def _exp_dqf(cfg: RunConfig, threads: int) -> dict:
    if cfg.matrix is not None:
        m = np.asarray(cfg.matrix, dtype=float)
        if m.shape != (cfg.n, cfg.n):
            raise ConfigError(f"matrix shape {m.shape} does not match n={cfg.n}")
    else:
        rng = np.random.Generator(np.random.Philox(key=int(cfg.seed) & 0xFFFFFFFFFFFFFFFF))
        g = rng.standard_normal((cfg.n, cfg.n))
        m = (g + g.T) / 2.0
    rng2 = np.random.Generator(np.random.Philox(key=(int(cfg.seed) & 0xFFFFFFFFFFFFFFFF) | (1 << 64)))
    from .geometry import random_unit_vector

    x0 = random_unit_vector(cfg.n, rng2)
    sample_times = np.linspace(0.0, cfg.T, 201)
    exact = np.stack([integrators.dqf_exact(m, x0, t) for t in sample_times])

    # zero-noise cross-check: the same Heun stepper fed M dt as increments
    # (ascent orientation, matching the exp(tM) solution)
    steps = flows._step_count(cfg.T, cfg.dt)
    x = x0.copy()
    for _ in range(steps):
        x = integrators.heun_step_rqf(x, m * cfg.dt, 1.0).state
    deviation = float(np.linalg.norm(x - exact[-1]))

    lam1, top, projector = integrators.dominant_eigenspace(m)
    summary = {
        "seed": cfg.seed,
        "T": cfg.T,
        "dt": cfg.dt,
        "heun_vs_exact": deviation,
        "top_eigenvalue": lam1,
        "degenerate_top": bool(top is None),
        "final_residual_off_top_eigenspace": float(np.linalg.norm(exact[-1] - projector @ exact[-1])),
    }
    rows = [[t, *state] for t, state in zip(sample_times, exact)]
    out = {
        "trajectory.csv": _csv(["t", *[f"x_{i}" for i in range(cfg.n)]], rows),
        "summary.json": _json(summary),
    }
    if cfg.svg:
        out["trajectory.svg"] = _svg.line_chart(
            [(sample_times, exact[:, i]) for i in range(cfg.n)], title="exact gradient-flow coordinates"
        )
    return out


def _exp_bias_scan(cfg: RunConfig, threads: int) -> dict:
    initials = flows.sphere_grid(max(2, cfg.members), cfg.n, cfg.seed)[:2]
    rows = []
    for ratio in cfg.ratios:
        finals = flows.batch_finals(
            initials, cfg.T, cfg.dt, cfg.seed, cfg.seed_count,
            sigma_q=1.0, sigma_w=float(ratio), threads=threads, chunk_bytes=1 << 22,
        )
        inner = np.einsum("ri,ri->r", finals[:, 0], finals[:, 1])
        polar = float(np.mean(inner > 0.995))
        antipolar = float(np.mean(inner < -0.995))
        sync = np.minimum(np.arccos(np.clip(inner, -1, 1)), np.pi - np.arccos(np.clip(inner, -1, 1)))
        rows.append([ratio, polar, antipolar, 1.0 - polar - antipolar, float(sync.mean())])
    out = {
        "scan.csv": _csv(
            ["ratio_sigma_w_over_sigma_q", "polar_fraction", "antipolar_fraction",
             "undecided_fraction", "mean_sync_metric"],
            rows,
        ),
        "summary.json": _json({
            "seed": cfg.seed,
            "replicates": cfg.seed_count,
            "ratios": [float(r) for r in cfg.ratios],
        }),
    }
    if cfg.svg:
        rat = [r[0] for r in rows]
        out["scan.svg"] = _svg.line_chart(
            [(rat, [r[1] for r in rows]), (rat, [r[2] for r in rows])],
            title="cluster-count statistics vs bias ratio",
        )
    return out


def _exp_uniformity(cfg: RunConfig, threads: int) -> dict:
    x0 = _default_x0(cfg)
    finals = flows.batch_finals(
        x0[None, :], cfg.T, cfg.dt, cfg.seed, cfg.seed_count, threads=threads, chunk_bytes=1 << 22
    )
    report = diagnostics.uniformity_check(finals[:, 0, :])
    return {
        "report.json": _json({"seed": cfg.seed, "T": cfg.T, **report.as_dict()}),
    }


_RUNNERS = {
    "simulate": _exp_simulate,
    "coupled": _exp_coupled,
    "pullback": _exp_pullback,
    "zprocess": _exp_zprocess,
    "fokker-planck": _exp_fokker_planck,
    "lyapunov": _exp_lyapunov,
    "dqf": _exp_dqf,
    "bias-scan": _exp_bias_scan,
    "uniformity": _exp_uniformity,
}


def run(cfg: RunConfig, threads: int | None = None) -> dict:
    """Execute one experiment; write outputs and the manifest; return the manifest."""
    workers = _threads(threads)
    started = time.perf_counter()
    artifacts = _RUNNERS[cfg.experiment](cfg, workers)
    run_dir = os.path.join(cfg.out_dir, f"{cfg.experiment}-{cfg.seed}")
    os.makedirs(run_dir, exist_ok=True)
    hashes = {}
    for name in sorted(artifacts):
        data = artifacts[name].encode("utf-8") if isinstance(artifacts[name], str) else artifacts[name]
        with open(os.path.join(run_dir, name), "wb") as fh:
            fh.write(data)
        hashes[name] = hashlib.sha256(data).hexdigest()
    fingerprint = hashlib.sha256(
        "\n".join(f"{k}:{v}" for k, v in sorted(hashes.items())).encode()
    ).hexdigest()
    manifest = {
        "experiment": cfg.experiment,
        "config": asdict(cfg),
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "outputs": hashes,
        "fingerprint": fingerprint,
    }
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(_json(manifest))
    return manifest


# -- entry point ------------------------------------------------------------------


def _error_json(kind: str, message: str, **extra) -> str:
    return json.dumps({"error": {"kind": kind, "message": message, **extra}}, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rqf",
        description="sphere-flow experiments: " + ", ".join(EXPERIMENTS) + "; plus 'validate'",
    )
    parser.add_argument("experiment", help="experiment name or 'validate'")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--no-svg", action="store_true", help="skip SVG plot emission")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (RQF_THREADS caps/sets the default)")
    args = parser.parse_args(argv)

    if args.experiment == "validate":
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(_error_json("config", f"cannot read config: {exc}"), file=sys.stderr)
            return 2
        print(_json({"violations": validate_document(doc)}), end="")
        return 0

    if args.experiment not in EXPERIMENTS:
        print(
            _error_json(
                "config",
                f"unknown experiment {args.experiment!r}",
                valid_experiments=list(EXPERIMENTS),
            ),
            file=sys.stderr,
        )
        return 2

    overrides: dict = {"experiment": args.experiment}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.no_svg:
        overrides["svg"] = False

    try:
        cfg = load_config(args.config, overrides)
        manifest = run(cfg, threads=args.threads)
    except ConfigError as exc:
        print(_error_json("config", str(exc)), file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(_error_json("resource", str(exc)), file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(_error_json("numerical", str(exc)), file=sys.stderr)
        return 3
    print(_json({"run_dir": os.path.join(cfg.out_dir, f"{cfg.experiment}-{cfg.seed}"),
                 "fingerprint": manifest["fingerprint"]}), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
