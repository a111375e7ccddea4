"""Command-line orchestration: ``rqf <experiment> --config <path>``.

A run is described by a single JSON document (flags may override the
top-level seed/output scalars), executes one named experiment, and writes
CSV/JSON/SVG artifacts plus a manifest with a content hash per output.
Identical configs reproduce identical content hashes.

Tables are written column by column (``_csv``).  Initial states go to
``rqf.flows`` once and as given (its normalising is idempotent), so one
``batch_finals`` run gives ``simulate`` and ``pullback`` the bytes the
public single-run functions give, and ``dqf`` steps through ``simulate_rqf``.

Exit codes: 0 success, 2 config error, 3 numerical error, 4 resource cap (an
array would exceed ``noise.DEFAULT_MEM_CAP``, or its allocation failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, diagnostics, flows, integrators, noise, zprocess
from .errors import ConfigError, NumericalError, ResourceCapError
from .geometry import MIN_NORM, random_unit_vector, unit_vector
from . import _svg

_COMMON_KEYS = {
    "experiment", "n", "T", "dt", "seed", "seed_count", "out_dir", "svg",
}
# noise budget of the uniformity and bias-scan batches, kept for memory: one
# 128 MiB span reads uniformity's batch as fast, but took the three batched
# runs' peak RSS to 118 MB against 69 MB (fresh processes, 2 vCPUs)
_CHUNK_BYTES = 1 << 22


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
        allowed = _COMMON_KEYS.union(*(keys for _, keys in _EXPERIMENTS.values()))
    else:
        allowed = _COMMON_KEYS | _EXPERIMENTS[exp][1]
    for key in doc:
        if key not in allowed:
            violations.append(f"unknown key: {key}")

    def check(key, pred, message):
        if key in doc and not pred(doc[key]):
            violations.append(message)

    # JSON true and false are ints to Python, and json.load reads Infinity
    # and NaN as floats; none of them is a number here
    is_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
    is_num = lambda v: is_int(v) or isinstance(v, float) and math.isfinite(v)
    check("n", lambda v: is_int(v) and v >= 2, "n must be >= 2")
    check("T", lambda v: is_num(v) and v >= 0, "T must be >= 0")
    check("dt", lambda v: is_num(v) and v > 0, "dt must be positive")
    check("seed", is_int, "seed must be an integer")
    check("seed", lambda v: not is_int(v) or 0 <= v < 1 << 64, "seed must be in [0, 2^64)")
    check("seed_count", lambda v: is_int(v) and v >= 1, "seed_count must be >= 1")
    check("out_dir", lambda v: isinstance(v, str) and v, "out_dir must be a non-empty string")
    check("svg", lambda v: isinstance(v, bool), "svg must be a boolean")
    check("sigma_q", lambda v: is_num(v) and v >= 0, "sigma_q must be >= 0")
    check("sigma_w", lambda v: is_num(v) and v >= 0, "sigma_w must be >= 0")
    check("sign", lambda v: is_num(v) and v in (-1, 1), "sign must be +1 or -1")
    check("members", lambda v: is_int(v) and v >= 1, "members must be >= 1")
    check("grid_points", lambda v: is_int(v) and v >= 1, "grid_points must be >= 1")
    check("diameter_tol", lambda v: is_num(v) and v > 0, "diameter_tol must be positive")
    check("z0", lambda v: is_num(v) and -1 <= v <= 1, "z0 must be in [-1, 1]")
    check("fp_cells", lambda v: is_int(v) and v >= 3, "fp_cells must be >= 3")
    check("model", lambda v: v in ("phase", "sphere"), "model must be 'phase' or 'sphere'")
    check("renorm_interval", lambda v: is_num(v) and v > 0, "renorm_interval must be positive")
    low = diagnostics.MIN_DELTA0
    check("delta0", lambda v: is_num(v) and v >= low, f"delta0 must be >= {low}")
    T, dt = doc.get("T", RunConfig.T), doc.get("dt", RunConfig.dt)
    if exp != "fokker-planck" and is_num(T) and is_num(dt) and 0 < T < dt:
        violations.append("dt must not exceed T")
    ri = doc.get("renorm_interval", RunConfig.renorm_interval)
    if exp == "lyapunov" and doc.get("model", RunConfig.model) == "phase":
        # the circle reduction has no field parameters to set, and n = 2
        violations += [f"{key} does not apply to model 'phase'"
                       for key in ("sigma_q", "sigma_w", "sign") if key in doc]
        check("n", lambda v: v == 2, "model 'phase' is the circle: n must be 2")
    if exp == "lyapunov" and is_num(T) and is_num(dt) and is_num(ri):
        # the constraints lyapunov_benettin enforces
        if ri <= dt:
            violations.append("renorm_interval must exceed dt")
        if T < 2 * ri:
            violations.append("T must be >= 2 * renorm_interval")
    check("ratios", lambda v: isinstance(v, list) and v and all(is_num(r) and r >= 0 for r in v),
          "ratios must be a non-empty list of finite nonnegative numbers")
    if "matrix" in doc:
        m = doc["matrix"]
        ok = isinstance(m, list) and m and all(isinstance(r, list) and len(r) == len(m)
                                               and all(is_num(c) for c in r) for r in m)
        if ok:
            arr = np.asarray(m, dtype=float)
            ok = np.allclose(arr, arr.T)
        if not ok:
            violations.append("matrix must be a square symmetric list of lists of finite numbers")
    if "x0" in doc:
        v, n = doc["x0"], doc.get("n", RunConfig.n)
        if not (isinstance(v, list) and len(v) >= 2 and all(is_num(c) for c in v)):
            violations.append("x0 must be a list of at least 2 numbers")
        elif is_int(n) and len(v) != n:
            violations.append(f"x0 must have n={n} entries")
        else:
            try:  # the library's normalisation rule; every entry passed is_num, so is finite
                unit_vector(v)
            except ValueError:
                violations.append(f"x0 must be finite with norm >= {MIN_NORM:.0e}")
    if exp == "bias-scan" and doc.get("members", RunConfig.members) != 2:
        violations.append("bias-scan steps a pair: members must be 2")
    seed_count = doc.get("seed_count", RunConfig.seed_count)
    if exp == "uniformity" and is_int(seed_count) and seed_count < 100:
        violations.append("uniformity needs seed_count >= 100")
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


def _columns(col) -> list[list[str]]:
    # a numpy column is formatted by dtype (a 2-D block gives one column per
    # block column); any other sequence goes through ``_cell`` value by value
    if not isinstance(col, np.ndarray):
        return [[_cell(v) for v in col]]
    if col.dtype.kind == "b":
        col = col.astype(np.int8)
    fmt = repr if col.dtype.kind == "f" else str
    return [list(map(fmt, c)) for c in (col.T.tolist() if col.ndim == 2 else [col.tolist()])]


_CSV_ROWS = 1024  # rows formatted at a time, which bounds the cells in flight


def _csv(header: list[str], *columns) -> str:
    """CSV text of equal-length ``columns``: floats by ``repr``, ints and bools as integers."""
    parts = [",".join(header)]
    for lo in range(0, len(columns[0]), _CSV_ROWS):
        cells = [c for col in columns for c in _columns(col[lo:lo + _CSV_ROWS])]
        parts.append("\n".join(map(",".join, zip(*cells))))
    parts.append("")  # the closing newline, without copying the text once more
    return "\n".join(parts)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _default_x0(cfg: RunConfig) -> np.ndarray:
    return unit_vector(np.eye(1, cfg.n)[0] if cfg.x0 is None else cfg.x0)  # e1: n floats, not n^2


def _trajectory_csv(times, paths) -> str:
    # ``paths`` (members, len(times), n) as member-major rows t, member_id, x_0..x_{n-1}
    count, rows, n = paths.shape
    return _csv(["t", "member_id", *[f"x_{i}" for i in range(n)]],
                np.tile(times, count), np.repeat(np.arange(count), rows), paths.reshape(-1, n))


# -- experiments ----------------------------------------------------------------


def _exp_simulate(cfg: RunConfig) -> dict:
    x0 = _default_x0(cfg)
    steps = flows._step_count(cfg.T, cfg.dt)
    times = cfg.dt * np.arange(steps + 1)
    # replicate r is simulate_rqf(x0, ..., stream=r)
    paths = flows.batch_finals(x0[None], cfg.T, cfg.dt, cfg.seed, cfg.seed_count,
                               sign=cfg.sign, checkpoints=times)[:, :, 0].transpose(1, 0, 2)
    out = {
        "trajectory.csv": _trajectory_csv(times, paths),
        "summary.json": _json({
            "seed": cfg.seed,
            "replicates": cfg.seed_count,
            "mean_final_inner": float(np.mean([float(path[-1] @ x0) for path in paths])),
            "noise": noise.NoisePath(cfg.seed, cfg.n, cfg.dt, steps).header(),
        }),
    }
    if cfg.svg:
        out["trajectory.svg"] = _svg.line_chart([(times, paths[0, :, i]) for i in range(cfg.n)],
                                                title="state coordinates vs t")
    return out


def _exp_coupled(cfg: RunConfig) -> dict:
    initials = flows.sphere_grid(cfg.members, cfg.n, cfg.seed)
    ens = flows.simulate_coupled(initials, cfg.T, cfg.dt, cfg.seed,
                                 sigma_q=cfg.sigma_q, sigma_w=cfg.sigma_w, sign=cfg.sign)
    times, paths = ens.members[0].times, np.stack([member.states for member in ens.members])
    z = np.einsum("ti,ti->t", paths[0], paths[1]) if cfg.members >= 2 else np.ones_like(times)
    out = {
        "trajectory.csv": _trajectory_csv(times, paths),
        "z_history.csv": _csv(["t", "z"], times, z),
        "summary.json": _json({
            "seed": cfg.seed,
            "members": cfg.members,
            "final_z": float(z[-1]),
            "final_sync_metric": float(diagnostics.sync_metric(paths[0, -1], paths[1, -1]))
            if cfg.members >= 2 else 0.0,
        }),
    }
    if cfg.svg:
        out["z_history.svg"] = _svg.line_chart([(times, z)], title="inner product of members 0,1")
    return out


def _exp_pullback(cfg: RunConfig) -> dict:
    grid = flows.sphere_grid(cfg.grid_points, cfg.n, cfg.seed)
    # one stream-0 run whose last checkpoint is pullback_run's final states
    times = [cfg.T * k / 24.0 for k in range(25)]
    snaps = flows.batch_finals(grid, cfg.T, cfg.dt, cfg.seed, 1, checkpoints=times)[:, 0]
    final = snaps[-1]
    summary = diagnostics.attractor_detect(final, cfg.diameter_tol)
    # contraction history: worst cluster diameter at a handful of times
    diameters = [max(diagnostics.attractor_detect(snap, diameter_tol=4.0).diameters) for snap in snaps]

    out = {
        "final_states.csv": _csv(["member_id", *[f"x_{i}" for i in range(cfg.n)]], np.arange(len(final)), final),
        "diameters.csv": _csv(["t", "max_cluster_diameter"], times, diameters),
        "summary.json": _json({
            "seed": cfg.seed,
            "grid_points": cfg.grid_points,
            "clusters": summary.as_dict(),
        }),
    }
    if cfg.svg:
        groups = (final @ summary.poles[0] < 0).astype(int) if summary.k == 2 else None
        out["scatter.svg"] = _svg.scatter_chart(final[:, :2], title="final states (first two coordinates)",
                                                groups=groups)
        out["diameters.svg"] = _svg.line_chart([(times, diameters)], title="worst cluster diameter vs t")
    return out


_Z_TABLE = (-0.9, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 0.9)


def _exp_zprocess(cfg: RunConfig) -> dict:
    z0s = sorted(set(_Z_TABLE) | {float(cfg.z0)})
    table = zprocess.simulate_z_finals(np.array(z0s), cfg.T, cfg.dt, cfg.seed, cfg.seed_count)
    p_cf = [zprocess.hit_up_probability(z0) for z0 in z0s]
    p_mc = np.mean(table > 0.999, axis=1)
    stderr = np.sqrt(np.maximum(p_mc * (1 - p_mc), 1e-12) / cfg.seed_count)
    sample = zprocess.simulate_z(cfg.z0, cfg.T, cfg.dt, cfg.seed)
    out = {
        "hitting.csv": _csv(["z0", "p_closed_form", "p_monte_carlo", "stderr"], z0s, p_cf, p_mc, stderr),
        "z_path.csv": _csv(["t", "z"], sample.times, sample.values),
        "summary.json": _json({
            "seed": cfg.seed,
            "z0": cfg.z0,
            "replicates": cfg.seed_count,
            "p_closed_form": zprocess.hit_up_probability(cfg.z0),
        }),
    }
    if cfg.svg:
        out["hitting.svg"] = _svg.line_chart(
            [(z0s, p_cf), (z0s, p_mc)],
            title="boundary hit probability: closed form vs Monte Carlo",
        )
    return out


def _exp_fokker_planck(cfg: RunConfig) -> dict:
    p0 = zprocess.DensityGrid.delta(cfg.z0, cfg.fp_cells)
    evolved = zprocess.fokker_planck_evolve(p0, cfg.T)
    out = {
        "density.csv": _csv(["z_center", "mass"], evolved.centers, evolved.masses),
        "summary.json": _json({
            "seed": cfg.seed,
            "z0": cfg.z0,
            "cells": cfg.fp_cells,
            "T": cfg.T,
            "mass_drift": float(abs(evolved.masses.sum() - 1.0)),
            "spectral_gap": zprocess.spectral_gap(cfg.fp_cells),
            "max_stable_dt": zprocess.max_stable_dt(cfg.fp_cells),
        }),
    }
    if cfg.svg:
        out["density.svg"] = _svg.line_chart(
            [(evolved.centers, evolved.density())], title="inner-product density"
        )
    return out


def _exp_lyapunov(cfg: RunConfig) -> dict:
    params = {"n": cfg.n, "sigma_q": cfg.sigma_q, "sigma_w": cfg.sigma_w, "sign": cfg.sign}
    est = diagnostics.lyapunov_benettin(
        cfg.model, params if cfg.model == "sphere" else None, cfg.T, cfg.dt, cfg.renorm_interval, cfg.seed, cfg.delta0
    )
    return {
        "summary.json": _json({"seed": cfg.seed, "model": cfg.model, **est.as_dict()}),
    }


def _exp_dqf(cfg: RunConfig) -> dict:
    if cfg.matrix is not None:
        g = np.asarray(cfg.matrix, dtype=float)
        if g.shape != (cfg.n, cfg.n):
            raise ConfigError(f"matrix shape {g.shape} does not match n={cfg.n}")
    else:
        # dqf steps no keyed noise: the matrix and x0 take the keys of
        # block 0 of streams 0 and 1
        g = noise._block_generator(cfg.seed, 0, 0, noise._MATRIX_DOMAIN).standard_normal((cfg.n, cfg.n))
    m = (g + g.T) / 2.0  # a config matrix is symmetric to allclose only; both flows use this part
    x0 = random_unit_vector(cfg.n, noise._block_generator(cfg.seed, 1, 0, noise._MATRIX_DOMAIN))
    sample_times = np.linspace(0.0, cfg.T, 201)
    exact = integrators.dqf_exact(m, x0, sample_times)

    # zero-noise cross-check: Heun steps fed M dt as every increment (ascent
    # orientation, matching the exp(tM) solution; symmetrising the symmetric
    # M dt is exact)
    steps = flows._step_count(cfg.T, cfg.dt)
    path = noise.ArrayPath(cfg.dt, np.broadcast_to(m * cfg.dt, (steps, cfg.n, cfg.n)))
    heun = flows.simulate_rqf(x0, cfg.T, cfg.dt, cfg.seed, sign=1.0, path=path).final
    deviation = float(np.linalg.norm(heun - exact[-1]))

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
    out = {
        "trajectory.csv": _csv(["t", *[f"x_{i}" for i in range(cfg.n)]], sample_times, exact),
        "summary.json": _json(summary),
    }
    if cfg.svg:
        out["trajectory.svg"] = _svg.line_chart(
            [(sample_times, exact[:, i]) for i in range(cfg.n)], title="exact gradient-flow coordinates"
        )
    return out


def _exp_bias_scan(cfg: RunConfig) -> dict:
    pair = flows.sphere_grid(2, cfg.n, cfg.seed)
    # every ratio's pair rides in one run on one noise read: members 2i, 2i+1
    # get sigma_w = ratios[i] and the bits of a run of that ratio alone
    k = len(cfg.ratios)
    finals = flows.batch_finals(np.tile(pair, (k, 1)), cfg.T, cfg.dt, cfg.seed, cfg.seed_count, sigma_q=1.0,
                                sigma_w=np.repeat(np.asarray(cfg.ratios, dtype=float), 2), chunk_bytes=_CHUNK_BYTES)
    stats = []  # polar, anti-polar, undecided fractions and mean sync metric per ratio
    for i in range(k):
        inner = np.einsum("ri,ri->r", finals[:, 2 * i], finals[:, 2 * i + 1])
        polar = float(np.mean(inner > 0.995))
        antipolar = float(np.mean(inner < -0.995))
        sync = np.minimum(np.arccos(np.clip(inner, -1, 1)), np.pi - np.arccos(np.clip(inner, -1, 1)))
        stats.append([polar, antipolar, 1.0 - polar - antipolar, float(sync.mean())])
    stats = np.array(stats)
    out = {
        "scan.csv": _csv(
            ["ratio_sigma_w_over_sigma_q", "polar_fraction", "antipolar_fraction",
             "undecided_fraction", "mean_sync_metric"],
            cfg.ratios, stats,
        ),
        "summary.json": _json({
            "seed": cfg.seed,
            "replicates": cfg.seed_count,
            "ratios": [float(r) for r in cfg.ratios],
        }),
    }
    if cfg.svg:
        out["scan.svg"] = _svg.line_chart(
            [(cfg.ratios, stats[:, 0]), (cfg.ratios, stats[:, 1])],
            title="cluster-count statistics vs bias ratio",
        )
    return out


def _exp_uniformity(cfg: RunConfig) -> dict:
    x0 = _default_x0(cfg)
    finals = flows.batch_finals(x0[None, :], cfg.T, cfg.dt, cfg.seed, cfg.seed_count, chunk_bytes=_CHUNK_BYTES)
    report = diagnostics.uniformity_check(finals[:, 0, :])
    return {
        "report.json": _json({"seed": cfg.seed, "T": cfg.T, **report.as_dict()}),
    }


# name -> (runner, the config keys it reads besides _COMMON_KEYS), in the
# order the CLI lists them
_EXPERIMENTS = {
    "simulate": (_exp_simulate, {"x0", "sign"}),
    "coupled": (_exp_coupled, {"members", "sigma_q", "sigma_w", "sign"}),
    "pullback": (_exp_pullback, {"grid_points", "diameter_tol"}),
    "zprocess": (_exp_zprocess, {"z0"}),
    "fokker-planck": (_exp_fokker_planck, {"z0", "fp_cells"}),
    "lyapunov": (_exp_lyapunov, {"model", "sigma_q", "sigma_w", "sign", "renorm_interval", "delta0"}),
    "dqf": (_exp_dqf, {"matrix"}),
    "bias-scan": (_exp_bias_scan, {"ratios", "members"}),
    "uniformity": (_exp_uniformity, {"x0"}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _steps(cfg: RunConfig) -> int | None:
    """Steps of size dt the experiment took; None for fokker-planck, which has no dt grid."""
    if cfg.experiment == "fokker-planck":
        return None
    if cfg.experiment == "lyapunov":
        spi, intervals = diagnostics._benettin_grid(cfg.T, cfg.dt, cfg.renorm_interval)
        return spi * intervals
    return flows._step_count(cfg.T, cfg.dt)


def run(cfg: RunConfig, threads: int | None = None) -> dict:
    """Execute one experiment (``threads`` is ignored); write outputs and the manifest; return it.

    Every experiment steps on the calling thread; a sphere or circle
    batch draws its noise half a slice ahead on a helper thread of its
    own, whatever ``threads`` says.

    Next to ``wall_time_s`` the manifest records the dt grid actually
    stepped, ``steps`` and ``T_simulated`` = steps * dt, which can differ
    from T when T is not a multiple of dt.  Neither is hashed.
    """
    started = time.perf_counter()
    artifacts = _EXPERIMENTS[cfg.experiment][0](cfg)
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
    steps = _steps(cfg)
    if steps is not None:
        manifest.update(steps=steps, T_simulated=steps * cfg.dt)
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
                        help="accepted and ignored; every experiment steps on one thread, and "
                             "batched noise reads draw one slice ahead on one helper thread")
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
        manifest = run(cfg)
    except ConfigError as exc:
        print(_error_json("config", str(exc)), file=sys.stderr)
        return 2
    except (ResourceCapError, MemoryError) as exc:
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
