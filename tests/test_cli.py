import csv
import io
import json
import math

import pytest

from aftermarkets.cli import COMMANDS, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "seed=" in lines[0] and "grid=" in lines[0]
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def test_lower_bound_sweep_stdout(capsys):
    code, out, _ = run_cli(["lower-bound-sweep"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r["m"] for r in rows] == ["10", "100", "10000"]
    assert float(rows[-1]["ratio"]) == pytest.approx(1.774, abs=5e-3)


def test_out_file_and_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[lower-bound-sweep]\nms = 10,20\n")
    out_path = tmp_path / "res.csv"
    code, _, _ = run_cli(["lower-bound-sweep", "--config", str(cfg),
                          "--out", str(out_path)], capsys)
    assert code == 0
    rows = parse_csv(out_path.read_text())
    assert [r["m"] for r in rows] == ["10", "20"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[lower-bound-sweep]\nbogus = 1\n")
    code, out, err = run_cli(["lower-bound-sweep", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "bad config",
        "detail": "unknown config key 'bogus' in section [lower-bound-sweep]"}


@pytest.mark.parametrize("command, line, detail", [
    ("verify-eq", "m = abc", "invalid literal for int() with base 10: 'abc'"),
    ("verify-eq", "m = 3", "requires m > 3"),
    ("lower-bound-sweep", "ms =", "empty list ''"),
    ("smooth-audit", "values = inf,0.5",
     "need a finite value above 5e-324 and a resolution >= 1, not inf and 2000"),
    ("smooth-audit", "resolution = 0",
     "need a finite value above 5e-324 and a resolution >= 1, not 1.0 and 0"),
    ("grouped-sweep", "gammas = 0", "gamma must be positive and finite, not 0.0"),
    ("grouped-sweep", "gammas = inf", "gamma must be positive and finite, not inf"),
    ("grouped-sweep", "gammas = -0.5", "gamma must be positive and finite, not -0.5"),
    ("verify-eq", "reserve = -1", "reserve must be nonnegative, not -1.0"),
    ("posted-fails", "h = inf", "H must be finite and exceed 1, not inf"),
    ("posted-fails", "h = nan", "H must be finite and exceed 1, not nan"),
    ("smooth-audit", "mu = -1",
     "requires 0 < lambda < inf and 0 <= mu < inf, not 0.6321205588285577 and -1.0"),
    ("smooth-audit", "lam = inf",
     "requires 0 < lambda < inf and 0 <= mu < inf, not inf and 1.0"),
])
def test_bad_config_value_exits_2(tmp_path, capsys, command, line, detail):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{command}]\n{line}\n")
    out_path = tmp_path / "res.csv"
    code, out, err = run_cli([command, "--config", str(cfg),
                              "--out", str(out_path)], capsys)
    assert code == 2
    assert out == "" and not out_path.exists()
    assert json.loads(err) == {"error": "bad config", "detail": detail}


def test_malformed_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("m = 10\n")  # no section header
    code, out, err = run_cli(["verify-eq", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "bad config"


def test_grouped_sweep(capsys):
    code, out, _ = run_cli(["grouped-sweep"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    assert all(float(r["ratio"]) > 1.0 for r in rows)


def test_posted_fails(capsys):
    code, out, _ = run_cli(["posted-fails"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["scripted_welfare"]) == pytest.approx(1.5, abs=0.05)
    assert float(row["opt_welfare"]) == pytest.approx(8.40, abs=0.05)


def test_balanced_fix(capsys):
    code, out, _ = run_cli(["balanced-fix"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["ok"] == "True"
    assert float(row["reserve"]) == pytest.approx(0.0391690, abs=1e-6)


def test_smooth_audit_pass_and_fail(capsys):
    code, out, _ = run_cli(["smooth-audit", "--tol", "1e-3"], capsys)
    assert code == 0
    assert parse_csv(out)[0]["ok"] == "True"


def test_smooth_audit_reports_discretization_bound(capsys):
    # at the defaults the slack sits just below 0, within the bound
    code, out, _ = run_cli(["smooth-audit", "--tol", "1e-3"], capsys)
    row = parse_csv(out)[0]
    bound = float(row["discretization_bound"])
    assert bound == pytest.approx((1.0 - math.exp(-1.0)) / 2000, rel=1e-12)
    assert -bound <= float(row["min_slack"]) < 0.0


def test_smooth_audit_violation_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[smooth-audit]\nlam = 0.99\nvalues = 1.0,0.1\nbids = 0.6\n")
    code, out, err = run_cli(["smooth-audit", "--config", str(cfg),
                              "--tol", "1e-3"], capsys)
    assert code == 2
    record = json.loads(err.strip().splitlines()[-1])
    assert "error" in record and record["min_slack"] < -0.3


def test_verify_eq(capsys):
    code, out, _ = run_cli(["verify-eq"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    assert all(float(r["gap"]) <= 1e-6 for r in rows)
    assert all(int(r["deviations"]) >= 1000 for r in rows)


def test_verify_eq_zero_tolerance_is_zero(tmp_path, capsys):
    """--tol 0 means eps = 0, as in every other subcommand."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[verify-eq]\nreserve = 1.0\n")
    code, _, err = run_cli(["verify-eq", "--config", str(cfg), "--tol", "0"], capsys)
    assert code == 2
    record = json.loads(err.strip().splitlines()[-1])
    assert record["eps"] == 0.0 and record["max_gap"] > 0.0


def test_symmetric_fpa(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[symmetric-fpa]\nsamples = 2000\n")
    code, out, _ = run_cli(["symmetric-fpa", "--config", str(cfg),
                            "--seed", "5"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["gap"]) <= 1e-6
    assert float(row["efficiency"]) >= 0.999
    assert float(row["bid_table_error"]) <= 1e-6


def test_seed_changes_hash_only(capsys):
    _, out1, _ = run_cli(["posted-fails", "--seed", "1"], capsys)
    _, out2, _ = run_cli(["posted-fails", "--seed", "2"], capsys)
    assert out1.splitlines()[0] != out2.splitlines()[0]
    assert out1.splitlines()[1:] == out2.splitlines()[1:]


@pytest.mark.parametrize("tol", ["-5", "nan", "abc"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_bad_tolerance_exits_2(capsys, command, tol):
    """A negative, NaN or non-numeric --tol is a usage error of every
    subcommand: argparse exits 2 before the command runs."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--tol", tol])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "--tol" in captured.err


def test_zero_tolerance_is_accepted(capsys):
    code, out, _ = run_cli(["balanced-fix", "--tol", "0"], capsys)
    assert code == 0
    assert parse_csv(out)[0]["ok"] == "True"
