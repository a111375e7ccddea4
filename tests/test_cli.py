import hashlib
import json

from rqf import cli


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
        doc = {"experiment": "uniformity", "n": 3, "T": 10_000.0, "dt": 1e-4,
               "seed": 1, "seed_count": 4, "out_dir": str(tmp_path / "runs")}
        path = write_config(tmp_path, doc)
        rc = cli.main(["uniformity", "--config", path])
        assert rc == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "resource"

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
