import csv
import io

import numpy as np
import pytest

from supportsize.cli import main
from supportsize.distributions import make_distribution


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_dist_dump(capsys):
    code, out = run_cli(capsys, "dist", "dump", "--family", "zipf", "--k", "10")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["symbol_index", "probability"]
    probs = [float(r[1]) for r in rows[1:]]
    np.testing.assert_allclose(probs, make_distribution("zipf", 10).probs,
                               rtol=1e-15)


def test_dist_dump_to_file(tmp_path, capsys):
    out_path = tmp_path / "dist.csv"
    code, _ = run_cli(capsys, "dist", "dump", "--family", "uniform",
                      "--k", "4", "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "symbol_index,probability"
    assert len(lines) == 5


def test_bounds_text_and_csv(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "200", "--k", "100")
    assert code == 0
    assert "plugin_upper" in out and "bias_lower" in out

    code, out = run_cli(capsys, "bounds", "--n", "200", "--k", "100", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["n", "k"]
    assert len(rows) == 2
    header = dict(zip(rows[0], rows[1]))
    assert float(header["plugin_lower"]) <= float(header["plugin_upper"])


def test_bounds_with_family(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "200", "--k", "100",
                        "--family", "uniform", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = dict(zip(rows[0], rows[1]))
    assert header["low_collision"] != ""


def test_estimate(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    path.write_text("symbol,count\na,1\nb,1\nc,2\n")
    code, out = run_cli(capsys, "estimate", "--counts", str(path))
    assert code == 0
    values = dict(line.split() for line in out.splitlines())
    assert float(values["plugin"]) == 3
    assert float(values["chao"]) == 5
    assert float(values["modified_chao"]) == 4


def test_estimate_undefined_chao(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    path.write_text("symbol,count\na,1\n")
    code, out = run_cli(capsys, "estimate", "--counts", str(path))
    assert code == 0
    assert "undefined" in out


def test_sweep_with_config_and_flags(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "families = uniform\nk = 30\nn_grid = 60\nestimators = plugin\n"
        f"trials = 40\noutput_path = {out_csv}\n"
    )
    code, out = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert "wrote 1 rows" in out
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 2

    # flags override the file
    code, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                      "--estimators", "plugin,modified_chao", "--workers", "2")
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 3


def test_verify_passes(capsys):
    code, out = run_cli(capsys, "verify", "--seed", "5",
                        "--campaign-size", "10")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["dist", "dump", "--family", "zipf"])
    assert err.value.code == 1


@pytest.mark.parametrize("argv", [
    ("bounds", "--n", "-5", "--k", "10"),
    ("bounds", "--n", "nan", "--k", "10"),
    ("bounds", "--n", "200", "--k", "1"),
    ("sweep", "--trials", "0"),
    ("sweep", "--workers", "0", "--k", "30", "--trials", "5"),
    ("sweep", "--n-grid", "-3", "--trials", "5"),
    ("dist", "dump", "--family", "uniform", "--k", "1"),
    ("dist", "dump", "--family", "two_mixture", "--k", "7"),
    ("estimate", "--counts", "missing-counts.csv"),
    ("verify", "--campaign-size", "-1"),
    ("verify", "--campaign-size", "0"),
], ids=lambda argv: " ".join(argv))
def test_bad_input_is_one_error_line(argv, tmp_path, monkeypatch, capsys):
    # bad input exits 1 with a single "error:" line, never a traceback;
    # exit 2 stays reserved for falsified certificates
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not any(tmp_path.iterdir())
