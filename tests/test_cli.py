"""CLI: config-file merging, subcommands, exit codes, and output files."""

import numpy as np
import pytest

from tvprox.cli import _read_config_file, build_parser, main
from tvprox.experiments import TABLE_HEADER


def test_read_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# sweep setup\n"
        "lambda = 0.5,1.0\n"
        "gamma=1e-1,1e-2  # grid\n"
        "size = 16\n"
        "\n"
        "solver=apgm\n"
    )
    values = _read_config_file(path)
    assert values == {"lambda": "0.5,1.0", "gamma": "1e-1,1e-2", "size": "16",
                      "solver": "apgm"}


def test_read_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("just some words\n")
    with pytest.raises(ValueError):
        _read_config_file(path)


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["denoise", "--lambda", "0.5", "--gamma", "1e-1,1e-2"])
    assert args.command == "denoise"
    assert args.lambda_grid == (0.5,)
    assert args.gamma_grid == (0.1, 0.01)
    args = parser.parse_args(["prox-check", "--size", "8", "--mode", "iso"])
    assert args.command == "prox-check"


def test_unknown_config_key_exits_2(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("stepsize=0.1\n")
    assert main(["denoise", "--config", str(path)]) == 2


def test_denoise_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["denoise", "--size", "16", "--phantoms", "1", "--seed", "0",
                 "--lambda", "0.5", "--gamma", "1e-1,1e-2", "--out", str(out)])
    assert code == 0
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == TABLE_HEADER
    assert len(table) == 3
    captured = capsys.readouterr()
    assert "cost_acc" in captured.out


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("size=16\nphantoms=1\nlambda=0.5\ngamma=1e-1\nseed=0\n")
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["denoise", "--config", str(cfg), "--out", str(out1)]) == 0
    # flag overrides the file's gamma
    assert main(["denoise", "--config", str(cfg), "--gamma", "1e-2",
                 "--out", str(out2)]) == 0
    g1 = (out1 / "table.csv").read_text().splitlines()[1].split(",")[1]
    g2 = (out2 / "table.csv").read_text().splitlines()[1].split(",")[1]
    assert g1 == "0.1" and g2 == "0.01"


def test_prox_check_reports(capsys):
    code = main(["prox-check", "--size", "8", "--seed", "1", "--tau", "1e-2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "descent:" in out and "[pass]" in out
    assert "nonexpansive:" in out
    assert "error bound:" in out
    assert "FAIL" not in out


def test_byte_identical_tables(tmp_path):
    args = ["denoise", "--size", "16", "--phantoms", "1", "--seed", "4",
            "--lambda", "0.5", "--gamma", "1e-1"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "table.csv").read_bytes()
    b2 = (tmp_path / "r2" / "table.csv").read_bytes()
    assert b1 == b2


@pytest.mark.parametrize("argv", [
    ["denoise", "--gamma", "-1"],
    ["denoise", "--gamma", "nan"],
    ["denoise", "--lambda", "-0.5"],
    ["denoise", "--size", "8"],
    ["denoise", "--phantoms", "0"],
    ["denoise", "--sigma", "-0.1"],
    ["ct", "--angles", "0"],
    ["prox-check", "--tau", "0"],
    ["prox-check", "--tau", "-1"],
    ["prox-check", "--size", "1"],
])
def test_bad_sweep_input_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["prox=exatc", "paper_scale=on", "size=x"])
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, line):
    path = tmp_path / "cfg.txt"
    path.write_text(f"size=16\nphantoms=1\n{line}\n")
    assert main(["denoise", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert line.split("=")[0] + ":" in err  # the message names the key
    assert not (tmp_path / "o").exists()
