"""Command-line interface: schemas, determinism, exit codes."""

import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import dimerfield.cli as cli
from dimerfield import DEFAULT_ENUMERATION_CAP

ROOT = Path(__file__).resolve().parents[1]


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
        code, out = run_cli(["exact", "--alpha", "0.5", "--n", "4"])
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
        # every column of these commands has its unit; the gauss header is
        # also the order of the runner's column tuple
        headers = {
            ("pressure", "--alpha", "0.4", "--h=0.2,-0.5,-0.3"): (
                "index [pure],d_a [dimers/site],d_b [dimers/site],d_ab [dimers/site],"
                "psi [nats/site],grad_norm [pure],fp_residual [dimers/site],p [nats/site]"
            ),
            ("critical", "--alpha", "0.3"): (
                "alpha [fraction],d_c [dimers/site],h_c [field],j_c [coupling],res_f2 [pure],"
                "res_f1 [coupling],res_f0 [field],res_d_c [dimers/site],res_j_c [coupling],"
                "res_h_c [field]"
            ),
            ("gauss", "--alpha", "0.4", "--n", "4", "--trials", "1"): (
                "check [label],n1 [sites],n2 [sites],lhs [nats],rhs [nats],delta [nats],holds [bool]"
            ),
        }
        for args, header in headers.items():
            code, out = run_cli([*args, "--format", "csv"])
            assert code == 0
            assert out.splitlines()[0] == header


class TestExponentCommand:
    def test_default_offsets_fit(self):
        code, out = run_cli(["exponent", "--alpha", "1e-3"])
        assert code == 0
        data = json.loads(out)
        assert 0.48 <= data["summary"]["exponent"] <= 0.52

    def test_lower_root_global(self):
        # the pivot line's lower root is the global maximum at alpha = 0.1
        code, out = run_cli(["exponent", "--alpha", "0.1"])
        assert code == 0
        assert 0.48 <= json.loads(out)["summary"]["exponent"] <= 0.52

    @pytest.mark.parametrize("alpha", ["0.1", "0.3"])
    def test_default_offsets_near_half(self, alpha):
        # offsets of 1e-4 to 1e-2 J_c keep the fit on the square-root law
        code, out = run_cli(["exponent", "--alpha", alpha])
        assert code == 0
        assert abs(json.loads(out)["summary"]["exponent"] - 0.5) <= 0.01


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

    def test_csv_booleans(self):
        code, out = run_cli(["gauss", "--n", "2", "--trials", "1", "--format", "csv"])
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows and all(row.endswith(",true") for row in rows)

    def test_bare_command_runs(self):
        # the shared default h = (0, 0, 0) is not positive definite
        code, out = run_cli(["gauss"])
        assert code == 0
        assert json.loads(out)["config"]["h"] == [0.0, 0.0, -1.0]


class TestConvergenceCommand:
    def test_envelope_columns(self):
        code, out = run_cli(["convergence", "--alpha", "0.5", "--n", "50,100,200"])
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["c_fit"] > 0.0
        errs = [r["abs_error"] for r in data["rows"]]
        assert errs == sorted(errs, reverse=True)
        for row in data["rows"]:
            assert 0 < row["classes_visited"] <= row["classes_total"]
            if row["classes_visited"] == row["classes_total"]:
                # nothing skipped: the bound's log is -inf, which JSON writes as null
                assert row["log_tail_bound"] is None
            else:
                assert row["log_tail_bound"] <= np.log(1e-15)
        # the pruning diagnostics are data: a rerun prints the same bytes
        assert run_cli(["convergence", "--alpha", "0.5", "--n", "50,100,200"])[1] == out


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


class TestStrictJson:
    # RFC 8259 JSON has no NaN: a value with none to report is written as null
    @pytest.mark.parametrize(
        "args, fields",
        [
            # a one-point scan has no exponent to fit
            (
                ["scaled", "--jprime", "160000", "--alphas", "0.0105"],
                [("summary", "exponent"), ("rows", "exponent")],
            ),
            # d_B is frozen at 0, so grad_psi refuses the point
            (["pressure", "--alpha", "0.4", "--h=0.2,-720,-0.3"], [("rows", "grad_norm")]),
        ],
    )
    def test_no_nan_in_json(self, args, fields):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code, out = run_cli(args)
        assert code == 0
        data = json.loads(out, parse_constant=reject)
        for block, key in fields:
            assert (data[block][0] if block == "rows" else data[block])[key] is None

    def test_csv_keeps_nan(self):
        code, out = run_cli(["pressure", "--alpha", "0.4", "--h=0.2,-720,-0.3", "--format", "csv"])
        assert code == 0
        header, row = out.splitlines()[:2]
        assert dict(zip(header.split(","), row.split(",")))["grad_norm [pure]"] == "nan"


class TestOverflowError:
    # the overflow check's JSON record is the only line on stderr: no numpy
    # warning comes first
    @pytest.mark.parametrize(
        "args, code, category",
        [(["pressure", "--h", "800,0,0"], 3, "numerical"), (["gauss", "--h", "800,800,0"], 2, "validation")],
    )
    def test_one_json_line_on_stderr(self, args, code, category):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "dimerfield.cli", *args], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == code
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"]["category"] == category


class TestGridSpecs:
    @pytest.mark.parametrize(
        "ranged, listed",
        [
            (["exact", "--n", "4:16:3g"], ["exact", "--n", "4,8,16"]),
            (
                ["exponent", "--alpha", "1e-3", "--offsets", "10:40:4"],
                ["exponent", "--alpha", "1e-3", "--offsets", "10,20,30,40"],
            ),
        ],
    )
    def test_range_matches_list(self, ranged, listed):
        out = run_cli(ranged)
        assert out[0] == 0 and out == run_cli(listed)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["exact", "--n", "4:8"], "range spec must be lo:hi:n"),
            (["exact", "--n", "1:2:0"], "needs at least one point"),
            (["exact", "--n", "2.5"], "must contain integers"),
            (["scaled", "--jprime", "160000", "--alphas", "nan"], "produced no finite values"),
            (["pressure", "--h", "1,2"], "expected 3 comma-separated values"),
            (["pressure", "--j", "1,2,3"], "expected 9 comma-separated values"),
        ],
    )
    def test_bad_value_exits_2(self, args, message, capsys):
        assert run_cli(args)[0] == 2
        assert message in capsys.readouterr().err


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

    def test_negative_trials(self, capsys):
        code, _ = run_cli(["gauss", "--trials", "-2", "--n", "4"])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["category"] == "validation"

    def test_cap_violation(self):
        code, _ = run_cli(["exact", "--alpha", "0.5", "--n", str(DEFAULT_ENUMERATION_CAP + 1)])
        assert code == 2

    def test_numerical_failure(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("forced numerical failure")

        monkeypatch.setattr(cli.crit, "critical_point", boom)
        code, _ = run_cli(["critical", "--alpha", "0.1"])
        assert code == 3

    def test_unresolved_quadrature(self, monkeypatch, capsys):
        # one trapezoid step per standard deviation cannot resolve z_star
        monkeypatch.setattr(cli.gauss, "_STEPS_PER_SIGMA", 1)
        code, _ = run_cli(["gauss"])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["category"] == "numerical"

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

    def test_output_directory_missing(self, tmp_path, monkeypatch, capsys):
        # rejected before any enumeration runs
        def boom(*args, **kwargs):
            raise AssertionError("computed before checking --output")

        monkeypatch.setattr(cli.model, "_ensemble_sums", boom)
        target = tmp_path / "missing" / "out.json"
        code, _ = run_cli(["exact", "--n", "4", "--output", str(target)])
        assert code == 2
        assert not target.parent.exists()
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["category"] == "validation"

    def test_output_not_writable(self, tmp_path, capsys):
        # a directory passes the up-front check and fails at the write
        code, _ = run_cli(["exact", "--n", "4", "--output", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["category"] == "validation"


# The options each command's runner reads, by config-file key.  Every other
# option must be rejected: a flag the command would ignore is an error.
READS = {
    "exact": {"alpha", "h", "j", "n_grid"},
    "pressure": {"alpha", "h", "j"},
    "critical": {"alpha"},
    "branches": {"alpha", "h_ab_grid", "j_abab_grid"},
    "exponent": {"alpha", "offsets"},
    "scaled": {"jprime", "alphas"},
    "gauss": {"alpha", "h", "n_grid", "seed", "trials"},
    "convergence": {"alpha", "h", "j", "n_grid"},
}
# config key -> (flag, a valid value)
OPTIONS = {
    "alpha": ("--alpha", "0.02"),
    "h": ("--h", "0,0,-1"),
    "j": ("--j", "1,0,0,0,1,0,0,0,1"),
    "n_grid": ("--n", "100"),
    "seed": ("--seed", "1"),
    "trials": ("--trials", "1"),
    "h_ab_grid": ("--h-ab-grid", "5"),
    "j_abab_grid": ("--j-abab-grid", "500"),
    "offsets": ("--offsets", "2,4"),
    "jprime": ("--jprime", "160000"),
    "alphas": ("--alphas", "0.0105"),
}
# a fast run of each command, reading only its own options
BASE = {
    "exact": ["exact", "--n", "4"],
    "pressure": ["pressure"],
    "critical": ["critical", "--alpha", "0.1"],
    "branches": ["branches", "--alpha", "0.1", "--h-ab-grid", "-0.5", "--j-abab-grid", "60"],
    "exponent": ["exponent", "--alpha", "1e-3", "--offsets", "10,20,40"],
    "scaled": ["scaled", "--jprime", "160000", "--alphas", "0.0105"],
    "gauss": ["gauss", "--h", "0,0,-1", "--n", "2", "--trials", "1"],
    "convergence": ["convergence", "--n", "50"],
}
# removed options, by their old config key: every command rejects them
REMOVED = {
    "h_ab": ("--h-ab", "-2"),
    "j_abab": ("--j-abab", "5"),
    "grid_resolution": ("--grid-res", "16"),
    "quad_nodes": ("--quad-nodes", "100"),
    "cap": ("--cap", "100"),
}
ANY_OPTION = {**OPTIONS, **REMOVED}
UNREAD = [(cmd, key) for cmd in READS for key in ANY_OPTION if key not in READS[cmd]]


class TestOptions:
    @pytest.mark.parametrize("command,key", UNREAD)
    def test_unread_flag_rejected(self, command, key):
        flag, value = ANY_OPTION[key]
        assert run_cli([*BASE[command], f"{flag}={value}"])[0] == 2

    @pytest.mark.parametrize("command,key", UNREAD)
    def test_unread_config_key_rejected(self, command, key, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {ANY_OPTION[key][1]}\n")
        assert run_cli([*BASE[command], "--config", str(cfg)])[0] == 2

    @pytest.mark.parametrize("command", sorted(READS))
    @pytest.mark.parametrize("flag", ["--J", "--N", "--n-grid"])
    def test_alternate_spellings_rejected(self, command, flag):
        # --j and --n are the only spellings; n_grid stays the config key of --n
        value = OPTIONS["j" if flag == "--J" else "n_grid"][1]
        assert run_cli([*BASE[command], f"{flag}={value}"])[0] == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["scaled", "--jprime", "160000", "--alpha", "0.9"],  # not --alphas
            ["branches", "--alpha", "0.1", "--h-ab", "5"],  # not --h-ab-grid
            ["exact", "--n", "4", "--see", "1"],
            ["gauss", "--h", "0,0,-1", "--J", "1,0,0,0,1,0,0,0,1"],
        ],
    )
    def test_abbreviations_and_aliases_rejected(self, args):
        assert run_cli(args)[0] == 2

    @pytest.mark.parametrize("command", ["critical", "branches", "exponent"])
    def test_alpha_required(self, command, tmp_path):
        args = BASE[command][:1] + BASE[command][3:]  # without --alpha and its value
        assert run_cli(args)[0] == 2
        # a config file may supply it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1e-3\n")
        assert run_cli([*args, "--config", str(cfg)])[0] == 0

    @pytest.mark.parametrize("command", sorted(READS))
    def test_config_keys_are_own_options(self, command):
        code, out = run_cli(BASE[command])
        assert code == 0
        assert set(json.loads(out)["config"]) == READS[command] | {"command", "output", "format"}

    @pytest.mark.parametrize("command", sorted(READS))
    def test_config_file_matches_flags(self, command, tmp_path):
        # every option a command reads, given as a config key, parses as the flag would
        own = [key for key in OPTIONS if key in READS[command]]
        flags = [f"{OPTIONS[key][0]}={OPTIONS[key][1]}" for key in own]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {OPTIONS[key][1]}\n" for key in own))
        by_flags = run_cli([*BASE[command], *flags])
        by_file = run_cli([*BASE[command], "--config", str(cfg)])
        assert by_flags[0] == 0
        assert by_file == by_flags


def readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("dimerfield ")
    ]


def readme_python_block():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("## Python API", 1)[1].split("```python", 1)[1].split("```", 1)[0]


class TestReadme:
    def test_python_api_block_runs(self):
        with redirect_stdout(io.StringIO()) as out:
            exec(compile(readme_python_block(), "README.md", "exec"), {})
        assert out.getvalue()

    @pytest.mark.parametrize("args", readme_commands(), ids=lambda args: " ".join(args))
    def test_documented_command_runs(self, args):
        assert run_cli(args)[0] == 0

    def test_every_command_documented(self):
        assert {args[0] for args in readme_commands()} == set(READS)
