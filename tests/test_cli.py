import errno
import hashlib
import json
import math
import mmap
import os
import subprocess
import sys

import numpy as np
import pytest

import rqf
from rqf import cli, diagnostics, flows, integrators
from rqf.geometry import random_unit_vector


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "experiment": "zprocess",
    "n": 3,
    "T": 2.0,
    "dt": 1e-2,
    "seed": 5,
    "seed_count": 50,
    "z0": 0.5,
}


class TestValidation:
    def test_valid_document_no_violations(self):
        assert cli.validate_document(dict(BASE)) == []

    def test_zero_dt_flagged(self):
        doc = dict(BASE, dt=0)
        assert "dt must be positive" in cli.validate_document(doc)

    def test_small_n_flagged(self):
        doc = dict(BASE, n=1)
        assert "n must be >= 2" in cli.validate_document(doc)

    def test_unknown_key_rejected(self):
        doc = dict(BASE, typo_key=1)
        assert any("unknown key" in v for v in cli.validate_document(doc))

    def test_unknown_experiment_names_enum(self):
        doc = dict(BASE, experiment="nope")
        msgs = cli.validate_document(doc)
        assert any("simulate" in m and "pullback" in m for m in msgs)

    def test_validate_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BASE, dt=0))
        assert cli.main(["validate", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "dt must be positive" in report["violations"]

    def test_validate_unreadable_file(self, tmp_path, capsys):
        assert cli.main(["validate", "--config", str(tmp_path / "missing.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"


class TestMainEntry:
    def test_unknown_experiment_exit_code_and_enum(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BASE))
        rc = cli.main(["frobnicate", "--config", path])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"
        assert err["error"]["valid_experiments"] == list(cli.EXPERIMENTS)

    def test_config_violation_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(BASE, dt=0))
        rc = cli.main(["zprocess", "--config", path])
        assert rc == 2

    def test_step_longer_than_horizon_is_a_config_error(self, tmp_path, capsys):
        doc = {"experiment": "simulate", "n": 3, "T": 0.5, "dt": 1.0, "seed": 1,
               "out_dir": str(tmp_path / "runs")}
        path = write_config(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == 0
        assert "dt must not exceed T" in json.loads(capsys.readouterr().out)["violations"]
        assert cli.main(["simulate", "--config", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"

    def test_resource_cap_exit_code(self, tmp_path, capsys):
        # a valid uniformity run (>= 100 replicates) whose one-step noise
        # slice of one replicate, 2 GiB at n = 16384, is over the cap
        doc = {"experiment": "uniformity", "n": 16384, "T": 0.1, "dt": 1e-2,
               "seed": 1, "seed_count": 100, "out_dir": str(tmp_path / "runs")}
        path = write_config(tmp_path, doc)
        rc = cli.main(["uniformity", "--config", path])
        assert rc == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "resource"
        assert "a noise slice of 1 steps x 1 streams needs 2147483648 bytes" in err["error"]["message"]

    def test_single_path_over_the_cap_exit_code(self, tmp_path, capsys):
        # a single path's one-step dB slice is 1.07 GB at n = 11586, as a
        # batch's is: the one cap check refuses it before it is drawn
        doc = {"experiment": "coupled", "n": 11586, "T": 0.01, "dt": 1e-2, "seed": 1,
               "out_dir": str(tmp_path / "runs")}
        path = write_config(tmp_path, doc)
        assert cli.main(["coupled", "--config", path]) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "resource" and "needs 1073883168 bytes" in err["message"]

    @pytest.mark.parametrize("experiment, extra", [("coupled", {"members": 2}), ("simulate", {})])
    def test_unallocatable_output_exit_code(self, tmp_path, capsys, experiment, extra):
        # 10^12 steps: the states or times to return need terabytes, and
        # numpy refuses the allocation at once
        doc = {"experiment": experiment, "n": 3, "T": 1e9, "dt": 1e-3, "seed": 1,
               "out_dir": str(tmp_path / "runs"), **extra}
        path = write_config(tmp_path, doc)
        assert cli.main([experiment, "--config", path]) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "resource" and "Unable to allocate" in err["message"]

    def test_unmappable_batch_output_exit_code(self, tmp_path, capsys, monkeypatch):
        # 5 * 10^9 replicates need a 120 GB output, whose shared mapping
        # fails with ENOMEM, not MemoryError; the mapping is refused here
        # for any size, so that no machine starts the run
        def refused(*args):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(mmap, "mmap", refused)
        doc = {"experiment": "uniformity", "n": 3, "T": 0.01, "dt": 0.01, "seed": 1, "seed_count": 100,
               "out_dir": str(tmp_path / "runs")}
        assert cli.main(["uniformity", "--config", write_config(tmp_path, doc)]) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": "resource",
                       "message": "Unable to allocate 2400 bytes for a batch output of shape (1, 100, 1, 3)"}

    def test_x0_whose_norm_overflows_runs_from_its_direction(self, tmp_path):
        # validated by the library's rule: such an x0 was once accepted and
        # normalised to the zero vector
        doc = {"experiment": "simulate", "x0": [1e308, 1e308, 0.0], "T": 0.05, "dt": 1e-2, "seed": 2,
               "out_dir": str(tmp_path / "runs")}
        assert cli.validate_document(doc) == []
        assert cli.main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
        first = (tmp_path / "runs" / "simulate-2" / "trajectory.csv").read_text().splitlines()[1]
        assert first == f"0.0,0,{1 / math.sqrt(2)!r},{1 / math.sqrt(2)!r},0.0"

    def test_default_x0_is_e1_without_an_identity_matrix(self):
        # np.eye(100_000) would need 80 GB
        x0 = cli._default_x0(cli.RunConfig("simulate", n=100_000))
        assert x0.shape == (100_000,) and x0[0] == 1.0 and not x0[1:].any()

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # a 40-unit renormalisation interval lets the pair synchronize to
        # rounding; the failure is named by its (seed, stream, step)
        doc = {"experiment": "lyapunov", "model": "phase", "T": 80.0, "dt": 0.01,
               "renorm_interval": 40.0, "seed": 3, "out_dir": str(tmp_path / "runs")}
        path = write_config(tmp_path, doc)
        assert cli.main(["lyapunov", "--config", path]) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "numerical"
        assert "at step 4000 (seed 3, stream 0)" in err["message"]

    def test_fokker_planck_cell_cap_exit_code(self, tmp_path, capsys):
        # 20000 cells need 3.2 GB of eigenvectors, over the 1 GiB cap
        doc = {"experiment": "fokker-planck", "T": 0.1, "seed": 1, "fp_cells": 20_000,
               "out_dir": str(tmp_path / "runs")}
        path = write_config(tmp_path, doc)
        assert cli.main(["fokker-planck", "--config", path]) == 4
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "resource"

    def test_lyapunov_interval_violations_are_config_errors(self, tmp_path, capsys):
        for extra, message in (({"T": 0.15}, "T must be >= 2 * renorm_interval"),
                               ({"dt": 0.1}, "renorm_interval must exceed dt")):
            doc = {"experiment": "lyapunov", "model": "phase", "T": 1.0, "dt": 1e-2,
                   "renorm_interval": 0.1, "seed": 1, "out_dir": str(tmp_path / "runs"), **extra}
            assert message in cli.validate_document(doc)
            path = write_config(tmp_path, doc)
            assert cli.main(["lyapunov", "--config", path]) == 2
            assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"

    @pytest.mark.parametrize("experiment, extra, message", [
        ("simulate", {"x0": [1.0, 0.0]}, "x0 must have n=3 entries"),
        ("uniformity", {"n": 4, "x0": [1.0, 0.0, 0.0], "seed_count": 100}, "x0 must have n=4 entries"),
        ("simulate", {"x0": [1e-9, 0.0, 0.0]}, "x0 must be finite with norm >= 1e-08"),
        ("uniformity", {"seed_count": 99}, "uniformity needs seed_count >= 100"),
        ("bias-scan", {"members": 8}, "bias-scan steps a pair: members must be 2"),
        # the circle reduction has no field parameters (phase is the default model)
        ("lyapunov", {"T": 1.0, "sigma_q": 2.0}, "sigma_q does not apply to model 'phase'"),
        ("lyapunov", {"T": 1.0, "model": "phase", "sigma_w": 0.5}, "sigma_w does not apply to model 'phase'"),
        ("lyapunov", {"T": 1.0, "model": "phase", "sign": 1}, "sign does not apply to model 'phase'"),
        ("lyapunov", {"T": 1.0, "model": "phase", "n": 7}, "model 'phase' is the circle: n must be 2"),
        # json.load reads Infinity, which is no number here
        ("uniformity", {"T": math.inf, "seed_count": 100}, "T must be >= 0"),
        ("bias-scan", {"ratios": [0.0, math.inf]}, "ratios must be a non-empty list of finite nonnegative numbers"),
        ("lyapunov", {"T": 1.0, "delta0": math.inf}, "delta0 must be >= 1e-12"),
        ("dqf", {"matrix": [[1.0, math.inf, 0.0], [math.inf, 1.0, 0.0], [0.0, 0.0, 1.0]]},
         "matrix must be a square symmetric list of lists of finite numbers"),
    ])
    def test_unrunnable_inputs_are_config_errors(self, tmp_path, capsys, experiment, extra, message):
        # each once ran on the wrong sphere, ran other than asked, or ended in a traceback
        doc = {"experiment": experiment, "T": 0.1, "dt": 1e-2, "seed": 1,
               "out_dir": str(tmp_path / "runs"), **extra}
        assert message in cli.validate_document(doc)
        path = write_config(tmp_path, doc)
        assert cli.main([experiment, "--config", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {"kind": "config", "message": message}
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("experiment, extra, messages", [
        ("coupled", {"members": True}, ["members must be >= 1"]),
        ("coupled", {"sign": True}, ["sign must be +1 or -1"]),
        ("zprocess", {"seed": True, "seed_count": True}, ["seed must be an integer", "seed_count must be >= 1"]),
        ("pullback", {"grid_points": True, "n": True}, ["n must be >= 2", "grid_points must be >= 1"]),
    ])
    def test_json_booleans_are_not_integers(self, tmp_path, capsys, experiment, extra, messages):
        # Python counts True as the int 1; these once ran 1 member or wrote zprocess-True/
        doc = {"experiment": experiment, "T": 0.1, "dt": 1e-2, "seed": 1,
               "out_dir": str(tmp_path / "runs"), **extra}
        assert cli.validate_document(doc) == messages
        path = write_config(tmp_path, doc)
        assert cli.main([experiment, "--config", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {"kind": "config", "message": "; ".join(messages)}
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_a_config_error(self, tmp_path, capsys, seed):
        doc = dict(BASE, seed=seed, out_dir=str(tmp_path / "runs"))
        assert cli.validate_document(doc) == ["seed must be in [0, 2^64)"]
        path = write_config(tmp_path, doc)
        assert cli.main(["zprocess", "--config", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {"kind": "config", "message": "seed must be in [0, 2^64)"}
        path = write_config(tmp_path, dict(BASE, out_dir=str(tmp_path / "runs")), "in_range.json")
        assert cli.main(["zprocess", "--config", path, "--seed", str(seed)]) == 2
        assert not (tmp_path / "runs").exists()

    def test_phase_config_without_n_or_at_n_2_is_valid(self):
        doc = {"experiment": "lyapunov", "model": "phase", "T": 1.0, "dt": 1e-2}
        assert cli.validate_document(doc) == []
        assert cli.validate_document(dict(doc, n=2)) == []

    @pytest.mark.parametrize("delta0", [0, 1e-17])
    def test_unresolvable_delta0_is_a_config_error(self, delta0):
        doc = {"experiment": "lyapunov", "T": 1.0, "dt": 1e-2, "delta0": delta0}
        assert cli.validate_document(doc) == ["delta0 must be >= 1e-12"]

    def test_successful_run_writes_outputs(self, tmp_path, capsys):
        doc = dict(BASE, seed_count=20, out_dir=str(tmp_path / "runs"))
        path = write_config(tmp_path, doc)
        rc = cli.main(["zprocess", "--config", path])
        assert rc == 0
        run_dir = tmp_path / "runs" / "zprocess-5"
        assert (run_dir / "manifest.json").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            data = (run_dir / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_seed_and_out_overrides(self, tmp_path):
        doc = dict(BASE, seed_count=10)
        path = write_config(tmp_path, doc)
        rc = cli.main(["zprocess", "--config", path, "--seed", "9",
                       "--out", str(tmp_path / "alt"), "--no-svg"])
        assert rc == 0
        run_dir = tmp_path / "alt" / "zprocess-9"
        assert run_dir.exists()
        names = json.loads((run_dir / "manifest.json").read_text())["outputs"]
        assert not any(n.endswith(".svg") for n in names)


class TestDeterminism:
    def test_same_config_same_fingerprint(self, tmp_path):
        doc = dict(BASE, seed_count=30, out_dir=str(tmp_path / "a"))
        m1 = cli.run(cli.RunConfig(**doc))
        doc2 = dict(doc, out_dir=str(tmp_path / "b"))
        m2 = cli.run(cli.RunConfig(**doc2))
        assert m1["outputs"] == m2["outputs"]
        assert m1["fingerprint"] == m2["fingerprint"]


class TestExperimentOutputs:
    def test_zprocess_closed_form_column(self, tmp_path):
        doc = dict(BASE, seed_count=20, out_dir=str(tmp_path / "runs"))
        cli.run(cli.RunConfig(**doc))
        table = (tmp_path / "runs" / "zprocess-5" / "hitting.csv").read_text()
        header = table.splitlines()[0]
        assert header == "z0,p_closed_form,p_monte_carlo,stderr"
        assert "0.84375" in table

    def test_trajectory_csv_schema(self, tmp_path):
        doc = {"experiment": "simulate", "n": 3, "T": 0.05, "dt": 1e-2,
               "seed": 2, "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        lines = (tmp_path / "runs" / "simulate-2" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,member_id,x_0,x_1,x_2"
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_coupled_outputs(self, tmp_path):
        doc = {"experiment": "coupled", "n": 3, "T": 0.05, "dt": 1e-2,
               "seed": 3, "members": 2, "out_dir": str(tmp_path / "runs")}
        manifest = cli.run(cli.RunConfig(**doc))
        assert "z_history.csv" in manifest["outputs"]
        lines = (tmp_path / "runs" / "coupled-3" / "z_history.csv").read_text().splitlines()
        assert lines[0] == "t,z"

    def test_pullback_summary(self, tmp_path):
        doc = {"experiment": "pullback", "n": 3, "T": 0.2, "dt": 1e-2, "seed": 4,
               "grid_points": 12, "diameter_tol": 10.0, "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        summary = json.loads((tmp_path / "runs" / "pullback-4" / "summary.json").read_text())
        assert "clusters" in summary and summary["clusters"]["k"] in (0, 1, 2)

    def test_fokker_planck_outputs(self, tmp_path):
        doc = {"experiment": "fokker-planck", "T": 0.02, "seed": 6, "fp_cells": 101,
               "z0": 0.0, "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        run_dir = tmp_path / "runs" / "fokker-planck-6"
        lines = (run_dir / "density.csv").read_text().splitlines()
        assert lines[0] == "z_center,mass"
        assert len(lines) == 102
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["mass_drift"] < 1e-9

    def test_fokker_planck_reports_spectral_gap(self, tmp_path):
        doc = {"experiment": "fokker-planck", "T": 2.5, "seed": 6, "fp_cells": 401,
               "z0": 0.3, "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        summary = json.loads((tmp_path / "runs" / "fokker-planck-6" / "summary.json").read_text())
        assert abs(summary["spectral_gap"] - 2.966) < 1e-3
        assert summary["mass_drift"] < 1e-9

    def test_manifest_records_the_horizon_stepped(self, tmp_path):
        # T = 0.105 is not a multiple of dt: ceil(T / dt) = 11 steps reach t = 0.11
        doc = {"experiment": "simulate", "n": 3, "T": 0.105, "dt": 1e-2, "seed": 2, "svg": False,
               "out_dir": str(tmp_path / "runs")}
        manifest = cli.run(cli.RunConfig(**doc))
        assert manifest["steps"] == 11 and manifest["T_simulated"] == 11 * 1e-2
        run_dir = tmp_path / "runs" / "simulate-2"
        last_t = (run_dir / "trajectory.csv").read_text().splitlines()[-1].split(",")[0]
        assert float(last_t) == manifest["T_simulated"]
        assert json.loads((run_dir / "manifest.json").read_text())["T_simulated"] == manifest["T_simulated"]
        # neither is hashed
        assert manifest["fingerprint"] == hashlib.sha256(
            "\n".join(f"{k}:{v}" for k, v in sorted(manifest["outputs"].items())).encode()).hexdigest()

        # lyapunov steps whole renormalisation intervals: 10 of 0.1 fit in T = 1.05
        doc = {"experiment": "lyapunov", "model": "phase", "T": 1.05, "dt": 1e-2, "renorm_interval": 0.1,
               "seed": 7, "out_dir": str(tmp_path / "runs")}
        manifest = cli.run(cli.RunConfig(**doc))
        summary = json.loads((tmp_path / "runs" / "lyapunov-7" / "summary.json").read_text())
        assert manifest["steps"] == 100 and manifest["T_simulated"] == summary["t_total"]

        # fokker-planck has no dt grid
        doc = {"experiment": "fokker-planck", "T": 0.02, "seed": 6, "fp_cells": 101, "svg": False,
               "out_dir": str(tmp_path / "runs")}
        manifest = cli.run(cli.RunConfig(**doc))
        assert "steps" not in manifest and "T_simulated" not in manifest

    def test_lyapunov_output(self, tmp_path):
        doc = {"experiment": "lyapunov", "model": "phase", "T": 20.0, "dt": 1e-3,
               "seed": 7, "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        summary = json.loads((tmp_path / "runs" / "lyapunov-7" / "summary.json").read_text())
        assert "lambda" in summary and "stderr" in summary

    def test_dqf_output(self, tmp_path):
        doc = {"experiment": "dqf", "n": 4, "T": 2.0, "dt": 1e-3, "seed": 8,
               "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        summary = json.loads((tmp_path / "runs" / "dqf-8" / "summary.json").read_text())
        assert summary["heun_vs_exact"] < 1e-5

    def test_bias_scan_output(self, tmp_path):
        doc = {"experiment": "bias-scan", "n": 3, "T": 0.5, "dt": 1e-2, "seed": 9,
               "seed_count": 10, "ratios": [0.0, 1.0], "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        lines = (tmp_path / "runs" / "bias-scan-9" / "scan.csv").read_text().splitlines()
        assert lines[0].startswith("ratio_sigma_w_over_sigma_q,polar_fraction,antipolar_fraction")
        assert len(lines) == 3

    def test_uniformity_report(self, tmp_path):
        doc = {"experiment": "uniformity", "n": 3, "T": 2.0, "dt": 1e-2, "seed": 10,
               "seed_count": 300, "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        report = json.loads((tmp_path / "runs" / "uniformity-10" / "report.json").read_text())
        assert "ks_pvalues" in report and len(report["ks_pvalues"]) == 3


def _row(*cells):
    # reference formatting, written out independently of cli._csv
    return ",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in cells)


class TestCsvWriter:
    def test_float_columns_use_repr(self):
        col = np.array([-0.0, 5e-324, math.inf, -math.inf, math.nan, 0.1, 1e300])
        text = cli._csv(["x"], col)
        assert text == "x\n-0.0\n5e-324\ninf\n-inf\nnan\n0.1\n1e+300\n"

    def test_int_and_bool_columns_print_integers(self):
        text = cli._csv(["i", "u", "b"], np.array([-3, 0, 7]), np.array([1, 2, 3], dtype=np.uint8),
                        np.array([True, False, True]))
        assert text == "i,u,b\n-3,1,1\n0,2,0\n7,3,1\n"

    def test_block_next_to_columns(self):
        block = np.array([[0.5, -1.0], [2.0, 0.25]])
        text = cli._csv(["t", "id", "x_0", "x_1", "z"], np.array([0.0, 0.1]), np.arange(2), block,
                        [1.5, 2.5])
        assert text == "t,id,x_0,x_1,z\n0.0,0,0.5,-1.0,1.5\n0.1,1,2.0,0.25,2.5\n"

    def test_list_column_keeps_ints(self):
        assert cli._csv(["r", "p"], [0, 1.0, 2], np.array([0.5, 1.0, 0.0])) == "r,p\n0,0.5\n1.0,1.0\n2,0.0\n"
        assert cli._csv(["r"], [True, np.int64(4), np.float64(0.5)]) == "r\n1\n4\n0.5\n"

    def test_no_rows(self):
        assert cli._csv(["t", "x_0"], np.empty(0), np.empty((0, 1))) == "t,x_0\n"

    def test_bias_scan_int_ratios_print_as_ints(self, tmp_path):
        doc = {"experiment": "bias-scan", "n": 3, "T": 0.1, "dt": 1e-2, "seed": 9,
               "seed_count": 4, "ratios": [0, 1], "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        lines = (tmp_path / "runs" / "bias-scan-9" / "scan.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]


class TestRoutedArtifacts:
    """The CLI's batched runs write the bytes the public single-run functions give."""

    def test_simulate_matches_single_runs(self, tmp_path):
        # 1100 steps cross the 1024-step noise block; x0 off the sphere is
        # normalised by the config, and simulate_rqf leaves it as given
        doc = {"experiment": "simulate", "n": 3, "T": 1.1, "dt": 1e-3, "seed": 12,
               "seed_count": 3, "x0": [1.0, 0.3, -1.0], "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        run_dir = tmp_path / "runs" / "simulate-12"
        x0 = cli._default_x0(cli.RunConfig(**doc))
        lines, finals = ["t,member_id,x_0,x_1,x_2"], []
        for r in range(3):
            traj = flows.simulate_rqf(x0, 1.1, 1e-3, 12, stream=r)
            lines += [_row(float(t), r, *state.tolist()) for t, state in zip(traj.times, traj.states)]
            finals.append(float(traj.final @ x0))
        assert (run_dir / "trajectory.csv").read_text() == "\n".join(lines) + "\n"
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["mean_final_inner"] == float(np.mean(finals))

    def test_pullback_matches_pullback_run(self, tmp_path):
        # final states, clusters and the diameter history all come from the
        # one run of the grid that pullback_run makes (n = 4: a seeded grid)
        doc = {"experiment": "pullback", "n": 4, "T": 0.5, "dt": 1e-2, "seed": 13,
               "grid_points": 30, "diameter_tol": 0.5, "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        run_dir = tmp_path / "runs" / "pullback-13"
        grid = flows.sphere_grid(30, 4, 13)
        res = flows.pullback_run(grid, 0.5, 1e-2, 13, diameter_tol=0.5)
        lines = ["member_id,x_0,x_1,x_2,x_3"] + [_row(i, *s.tolist()) for i, s in enumerate(res.final_states)]
        assert (run_dir / "final_states.csv").read_text() == "\n".join(lines) + "\n"
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["clusters"] == json.loads(json.dumps(res.summary.as_dict()))
        times = [0.5 * k / 24.0 for k in range(25)]
        snaps = flows.batch_finals(grid, 0.5, 1e-2, 13, 1, checkpoints=times)[:, 0]
        diam = [max(diagnostics.attractor_detect(s, diameter_tol=4.0).diameters) for s in snaps]
        lines = ["t,max_cluster_diameter"] + [_row(t, float(d)) for t, d in zip(times, diam)]
        assert (run_dir / "diameters.csv").read_text() == "\n".join(lines) + "\n"

    def test_dqf_cross_check_is_the_single_step_loop(self, tmp_path):
        # seed 10 draws an x0 whose computed norm is not exactly 1; the
        # cross-check must step it as drawn
        doc = {"experiment": "dqf", "n": 4, "T": 0.05, "dt": 1e-3, "seed": 10, "svg": False,
               "out_dir": str(tmp_path / "runs")}
        cli.run(cli.RunConfig(**doc))
        rng = np.random.Generator(np.random.Philox(key=10 | (1 << 64)))
        g = np.random.Generator(np.random.Philox(key=10)).standard_normal((4, 4))
        m = (g + g.T) / 2.0
        x0 = random_unit_vector(4, rng)
        x = x0.copy()
        for _ in range(50):
            x = integrators.heun_step_rqf(x, m * 1e-3, 1.0).state
        expected = float(np.linalg.norm(x - integrators.dqf_exact(m, x0, 0.05)))
        summary = json.loads((tmp_path / "runs" / "dqf-10" / "summary.json").read_text())
        assert summary["heun_vs_exact"] == expected

    def test_dqf_near_symmetric_matrix_runs_its_symmetric_part(self, tmp_path):
        # validation accepts symmetry to allclose; the exact flow and the Heun
        # cross-check must then describe the same (symmetric) matrix
        near = [[1.0, 0.5, 0.0], [0.5 + 1e-9, 2.0, 0.1], [0.0, 0.1, -1.0]]
        sym = (np.array(near) + np.array(near).T) / 2.0
        outputs = []
        for name, matrix in (("near", near), ("sym", sym.tolist())):
            doc = {"experiment": "dqf", "n": 3, "T": 0.5, "dt": 1e-3, "seed": 3, "matrix": matrix,
                   "out_dir": str(tmp_path / name)}
            assert cli.validate_document(doc) == []
            outputs.append(cli.run(cli.RunConfig(**doc))["outputs"])
        assert outputs[0] == outputs[1]


_IMPORT_GUARD = """
import json, os, sys
import rqf.cli as cli

def check(where):
    assert "scipy.stats" not in sys.modules, f"scipy.stats imported by {where}"

check("import rqf.cli")
out = sys.argv[1]
docs = {
    "bias-scan": {"experiment": "bias-scan", "n": 3, "T": 0.05, "dt": 0.01, "seed_count": 4,
                  "members": 2, "ratios": [0.0, 1.0], "out_dir": out},
    "uniformity": {"experiment": "uniformity", "n": 3, "T": 0.05, "dt": 0.01, "seed_count": 100,
                   "out_dir": out},
}
for name, doc in docs.items():
    assert cli.validate_document(doc) == []
    check("validate_document")
    path = os.path.join(out, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert cli.main([name, "--config", path]) == 0
    check("rqf " + name)
"""


def test_cli_paths_do_not_import_scipy_stats(tmp_path):
    # scipy.stats costs every rqf process about 0.3 s before it reads its
    # config; the import graph must not regain it
    src = os.path.dirname(os.path.dirname(rqf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
