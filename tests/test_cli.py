"""Command-line interface: schemas, determinism, exit codes."""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

import dimerfield.cli as cli


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


class TestCriticalCommand:
    def test_json_payload(self):
        code, out = run_cli(["critical", "--alpha", "1e-3"])
        assert code == 0
        data = json.loads(out)
        assert data["config"]["command"] == "critical"
        assert data["summary"]["h_c"] == pytest.approx(-1.518788, abs=5e-3)
        row = data["rows"][0]
        assert abs(row["res_d_c"]) <= 5e-9
        assert abs(row["res_h_c"]) <= 5e-3


class TestExactCommand:
    def test_n4_log_z(self):
        code, out = run_cli(["exact", "--alpha", "0.5", "--N", "4"])
        assert code == 0
        data = json.loads(out)
        assert data["rows"][0]["log_z"] == pytest.approx(np.log(2.6875), abs=1e-13)

    def test_csv_header_and_roundtrip(self):
        code, out = run_cli(["exact", "--alpha", "0.5", "--n", "2,4", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n [sites],log_z [nats],pressure_density [nats/site]")
        log_z = float(lines[1].split(",")[1])
        assert log_z == np.log(1.5)  # 17 significant digits round-trip exactly


class TestExponentCommand:
    def test_default_offsets_fit(self):
        code, out = run_cli(["exponent", "--alpha", "1e-3"])
        assert code == 0
        data = json.loads(out)
        assert 0.48 <= data["summary"]["exponent"] <= 0.52


class TestPressureCommand:
    def test_summary(self):
        code, out = run_cli(["pressure", "--alpha", "0.5"])
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["p"] == pytest.approx(0.29022881943455, rel=1e-10)
        assert data["summary"]["n_maximizers"] == 1


class TestGaussCommand:
    def test_checks_hold(self):
        code, out = run_cli(
            ["gauss", "--alpha", "0.5", "--h", "0,0,-1", "--n", "2,8", "--trials", "3"]
        )
        assert code == 0
        data = json.loads(out)
        kinds = {r["check"] for r in data["rows"]}
        assert kinds == {"wick", "ratio", "superadd"}
        assert all(r["holds"] for r in data["rows"] if r["check"] != "ratio")


class TestConvergenceCommand:
    def test_envelope_columns(self):
        code, out = run_cli(
            ["convergence", "--alpha", "0.5", "--n", "50,100,200", "--grid-res", "48"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["c_fit"] > 0.0
        errs = [r["abs_error"] for r in data["rows"]]
        assert errs == sorted(errs, reverse=True)
        for row in data["rows"]:
            assert 0 < row["classes_visited"] <= row["classes_total"]
            assert row["log_tail_bound"] <= np.log(1e-15)
        # the pruning diagnostics are data: a rerun prints the same bytes
        assert run_cli(["convergence", "--alpha", "0.5", "--n", "50,100,200", "--grid-res", "48"])[1] == out


class TestBranchesCommand:
    def test_scan_rows(self):
        code, out = run_cli(
            [
                "branches",
                "--alpha",
                "1e-2",
                "--j-abab-grid",
                "200,420",
                "--h-ab-grid=-2.0,-1.6,-1.2",
            ]
        )
        assert code == 0
        data = json.loads(out)
        assert all(r["stability"] in ("global-max", "local-max", "unstable") for r in data["rows"])
        assert len(data["rows"]) >= 6


class TestDeterminism:
    def test_byte_identical_reruns(self):
        args = ["gauss", "--alpha", "0.5", "--h", "0,0,-1", "--n", "2,4", "--trials", "2", "--seed", "9"]
        _, first = run_cli(args)
        _, second = run_cli(args)
        assert first == second

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.json"
        code, out = run_cli(["exact", "--alpha", "0.5", "--n", "4", "--output", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["rows"][0]["n"] == 4


class TestConfigFile:
    def test_file_overrides_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.25\nn_grid = 2,4\n# comment line\n")
        code, out = run_cli(
            ["exact", "--alpha", "0.5", "--n", "8", "--config", str(cfg)]
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"]["alpha"] == 0.25
        assert [r["n"] for r in data["rows"]] == [2, 4]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _ = run_cli(["exact", "--alpha", "0.5", "--config", str(cfg)])
        assert code == 2


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli(["not-a-command"])[0] == 2

    def test_threads_flag_rejected(self):
        # evaluation is serial, so there is no thread count to set
        assert run_cli(["critical", "--alpha", "0.1", "--threads", "2"])[0] == 2

    def test_validation_error(self):
        code, _ = run_cli(["gauss", "--alpha", "0.5", "--h", "0,0,0"])
        assert code == 2

    def test_cap_violation(self):
        code, _ = run_cli(["exact", "--alpha", "0.5", "--n", "4", "--cap", "2"])
        assert code == 2

    def test_numerical_failure(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("forced numerical failure")

        monkeypatch.setattr(cli.crit, "critical_point", boom)
        code, _ = run_cli(["critical", "--alpha", "0.1"])
        assert code == 3

    def test_alphas_below_critical(self):
        code, _ = run_cli(["scaled", "--jprime", "160000", "--alphas", "0.001,0.002"])
        assert code == 2

    def test_coexistence_beyond_reach(self, capsys):
        # J = 95 J_c at alpha = 0.05: the low-density phase at the tie lies
        # below 1e-12 of the interval, so the scan fails as numerical
        code, _ = run_cli(["scaled", "--jprime", "160000", "--alphas", "0.05"])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["category"] == "numerical"

    def test_missing_jprime(self):
        code, _ = run_cli(["scaled"])
        assert code == 2
