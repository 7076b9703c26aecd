import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from supportsize import bench
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


@pytest.mark.parametrize("key, flag, text", [
    ("families", "--families", "uniform,"),
    ("families", "--families", " zipf , geometric "),
    ("k", "--k", " 30"),
    ("n_grid", "--n-grid", "60, 120,"),
    ("estimators", "--estimators", "plugin,,chao"),
    ("trials", "--trials", "40"),
    ("master_seed", "--master-seed", "7"),
    ("output_path", "--output", "out.csv"),
])
def test_sweep_flag_and_config_file_parse_alike(key, flag, text, tmp_path,
                                                monkeypatch, capsys):
    # one parser: the same text gives the same SweepConfig either way
    seen = []
    monkeypatch.setattr(bench, "run_sweep",
                        lambda cfg, workers: seen.append(cfg) or [])
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(f"{key} = {text}\n")
    assert run_cli(capsys, "sweep", flag, text)[0] == 0
    assert run_cli(capsys, "sweep", "--config", str(cfg_path))[0] == 0
    assert seen[0] == seen[1] == bench.load_config(cfg_path)


def test_verify_passes(capsys):
    code, out = run_cli(capsys, "verify", "--seed", "5",
                        "--campaign-size", "10")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)
    # three significant digits: one decimal read 0.0s on a campaign this small
    runtime = out.splitlines()[-1]
    assert runtime.startswith("total runtime: ") and runtime.endswith("s")
    value = runtime[len("total runtime: "):-1]
    assert float(value) > 0
    assert len(value.lstrip("0.").replace(".", "")) <= 3


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["dist", "dump", "--family", "zipf"])
    assert err.value.code == 1


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A directory of input files, outside the working directory."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "counts.csv").write_text("symbol,count\na,1\nb,1\nc,2\n")
    # a symbol one character longer than csv's field limit
    (root / "long-field.csv").write_text(
        "symbol,count\n" + "x" * (csv.field_size_limit() + 1) + ",1\n")
    return root


# finite input past float range: (1 + n/k)^4 overflows, n^2 underflows to
# 0, and k^4 overflows, as does k itself
BOUNDS_PAST_FLOAT_RANGE = [
    ("bounds", "--n", "1e80", "--k", "1000"),
    ("bounds", "--n", "1e-170", "--k", "1000"),
    ("bounds", "--n", "2000", "--k", str(10**90)),
    ("bounds", "--n", "2000", "--k", str(10**399)),
]


@pytest.mark.parametrize("argv", [
    ("bounds", "--n", "-5", "--k", "10"),
    ("bounds", "--n", "nan", "--k", "10"),
    ("bounds", "--n", "200", "--k", "1"),
    *BOUNDS_PAST_FLOAT_RANGE,
    # the allocator refuses a 10^11-symbol zoo
    ("dist", "dump", "--family", "uniform", "--k", "100000000000"),
    ("sweep", "--trials", "0"),
    ("sweep", "--workers", "0", "--k", "30", "--trials", "5"),
    ("sweep", "--n-grid", "-3", "--trials", "5"),
    ("sweep", "--families", "bogus"),
    ("sweep", "--families", ","),
    ("sweep", "--estimators", ","),
    ("sweep", "--k", "thirty"),
    # phi_2 = 0 on every trial of a cell with n far above k
    ("sweep", "--k", "60", "--estimators", "chao", "--trials", "50"),
    ("dist", "dump", "--family", "uniform", "--k", "1"),
    ("dist", "dump", "--family", "two_mixture", "--k", "7"),
    ("estimate", "--counts", "missing-counts.csv"),
    ("estimate", "--counts", "{inputs}/long-field.csv"),
    # k and n are checked whenever given, not only for chebyshev
    ("estimate", "--counts", "{inputs}/counts.csv", "--k", "1", "--n", "-5"),
    ("estimate", "--counts", "{inputs}/counts.csv", "--n", "nan"),
    ("estimate", "--counts", "{inputs}/counts.csv", "--k", "1"),
    ("verify", "--campaign-size", "-1"),
    ("verify", "--campaign-size", "0"),
    ("sweep", "--master-seed", "-1"),
    ("verify", "--seed", "-1"),
], ids=lambda argv: " ".join(argv))
def test_bad_input_is_one_error_line(argv, bad_inputs, tmp_path, monkeypatch,
                                     capsys):
    # bad input exits 1 with a single "error:" line, never a traceback;
    # exit 2 stays reserved for falsified certificates
    monkeypatch.chdir(tmp_path)
    code = main([a.format(inputs=bad_inputs) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, text", [
    # n as the report prints it, k in full
    *((argv, f"n={float(argv[2]):g}, k={argv[4]} ")
      for argv in BOUNDS_PAST_FLOAT_RANGE),
    (("sweep", "--master-seed", "-1"), "master_seed must be >= 0, got -1"),
    (("verify", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("sweep", "--k", "60", "--estimators", "chao", "--trials", "50"),
     "chao is undefined on every trial of uniform at k=60, n=1104"),
    # numpy refuses a zoo of 10^30 symbols before allocating anything
    (("bounds", "--n", "2000", "--k", str(10**30), "--family", "zipf"),
     f"zipf zoo at k={10**30}:"),
    (("dist", "dump", "--family", "zipf", "--k", str(10**30)),
     f"zipf zoo at k={10**30}:"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else "")
def test_error_names_the_input(argv, text, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert text in line


@pytest.mark.parametrize("flags", [
    ("--estimators", "chebyshev", "--k", "1000", "--n", "inf"),
    ("--estimators", ","),
], ids=lambda flags: " ".join(flags))
def test_estimate_rejects_bad_input(flags, tmp_path, capsys):
    # the Chebyshev estimator takes n through check_n, which refuses n = inf,
    # and an empty estimator list is refused rather than printing nothing
    path = tmp_path / "counts.csv"
    path.write_text("symbol,count\na,1\nb,1\nc,1\nd,2\n")
    code = main(["estimate", "--counts", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_python_m_runs_the_cli(capsys):
    # a checkout without pip install: the package comes from src/ alone
    src = Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = ["bounds", "--n", "2000", "--k", "1000"]
    proc = subprocess.run([sys.executable, "-m", "supportsize", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli(capsys, *argv)[1]
