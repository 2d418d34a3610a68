"""CLI: config-file merging, subcommands, exit codes, and output files."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvprox
from sweep_files import sweep_digests
from tvprox.cli import _build_config, _merged_options, _read_config_file, build_parser, main
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
    assert _error_bound_line(out).endswith("[pass]")
    assert "FAIL" not in out


def _error_bound_line(out):
    (line,) = [s for s in out.splitlines() if s.startswith("error bound:")]
    return line


@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_prox_check_finishes_at_huge_tau(mode, capsys):
    # the threshold overflows to inf; the error bound is then vacuous, neither pass nor FAIL
    assert main(["prox-check", "--size", "8", "--tau", "1e308", "--mode", mode]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert _error_bound_line(out).endswith("[vacuous]")


def _certified_line(out):
    (line,) = [s for s in out.splitlines() if s.startswith("certified:")]
    return line


@pytest.mark.parametrize("mode", ["aniso", "iso"])
@pytest.mark.parametrize("tau", [1e-3, 1e-2, 0.5])
def test_prox_check_certifies_s_without_an_exact_solve(mode, tau, capsys):
    # the certificate sqrt(2*duality_gap(z, S, p1, tau)) bounds ||S - prox||, so it is at
    # least what the certified FPG solve leaves of ||fpg - S|| once its own gap is taken off
    assert main(["prox-check", "--size", "12", "--seed", "3", "--tau", str(tau), "--mode", mode]) == 0
    line = _certified_line(capsys.readouterr().out)
    certificate, floor = (float(part.split("=")[-1].split()[0]) for part in line.split(">="))
    assert line.endswith("[pass]")
    assert 0.0 < floor <= certificate


@pytest.mark.parametrize("mode", ["aniso", "iso"])
def test_prox_check_certificate_is_vacuous_at_huge_tau(mode, capsys):
    assert main(["prox-check", "--size", "8", "--tau", "1e308", "--mode", mode]) == 0
    assert _certified_line(capsys.readouterr().out).endswith("[vacuous]")


def test_byte_identical_tables(tmp_path):
    args = ["denoise", "--size", "16", "--phantoms", "1", "--seed", "4",
            "--lambda", "0.5", "--gamma", "1e-1"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "table.csv").read_bytes()
    b2 = (tmp_path / "r2" / "table.csv").read_bytes()
    assert b1 == b2



def test_exact_prox_sweep_tables_are_pinned(tmp_path):
    # both tables as text, recorded before the sweep driver kept one record per cell,
    # and every other file by digest, recorded while the writers formatted one value per call
    digests = sweep_digests(["denoise", "--size", "16", "--phantoms", "2", "--lambda", "0.5",
                             "--gamma", "1e-1,1e-2", "--prox", "exact"], tmp_path)
    assert (tmp_path / "table.csv").read_text() == (
        TABLE_HEADER + "\n"
        "0.5,0.1,3.046690e-01,18.55,10.64,68.5,0.000\n"
        "0.5,0.01,5.346207e-02,29.37,9.64,272.5,0.000\n")
    assert (tmp_path / "table_fpg50.csv").read_text() == (
        TABLE_HEADER + "\n"
        "0.5,0.1,2.937608e-01,18.55,10.64,68.5,0.000\n"
        "0.5,0.01,4.464609e-02,29.37,9.64,272.5,0.000\n")
    del digests["table.csv"], digests["table_fpg50.csv"]
    assert digests == {
        "diff_denoise_apgm_lam0.5_gam0.01_ph0.pgm": "e57d7947d69c0a77760690c7e6f95cfb9f1d5c4364cc5490eba901104c09b406",
        "diff_denoise_apgm_lam0.5_gam0.01_ph1.pgm": "e63381bb14608e15614cb3679e3247bfbd0709b51cbe7fcfc2f382f7e82c7c19",
        "diff_denoise_apgm_lam0.5_gam0.1_ph0.pgm": "0ed939c232f1baa7e159bc284dcb27b53bb848fa4b7d636c61c407f551cfd82b",
        "diff_denoise_apgm_lam0.5_gam0.1_ph1.pgm": "5cf8a674ed9b535ca6830873c246364d59286b3cee4ad0cc5d5853b96cc8a559",
        "recon_denoise_apgm_lam0.5_gam0.01_ph0.csv": "85c576a597f0627ed694e7ac07a1e6f11d8b73175174c6d4b4573f89dc89a072",
        "recon_denoise_apgm_lam0.5_gam0.01_ph0.pgm": "b39ba2ad0e4e9293bbf0127cf2ee2212f98bd2504bbe1cae285ac7bd32bdfba1",
        "recon_denoise_apgm_lam0.5_gam0.01_ph1.csv": "459e17b2b47a653f6bc25624f1f508c301f569bc190e8d2cbf6a0a1864d7ba3a",
        "recon_denoise_apgm_lam0.5_gam0.01_ph1.pgm": "e8981a82d4e400b88507b6f2e937779acdd8ef0943b8f75b258e19ea5a3ac6e8",
        "recon_denoise_apgm_lam0.5_gam0.1_ph0.csv": "78e562a90ca676d66b173463887dadc3c5c347bac1affe4e42b5a38356af527a",
        "recon_denoise_apgm_lam0.5_gam0.1_ph0.pgm": "0e57ca61a3ba22af5a78bdb2e1bdd15758a35b4fa23f88665812da35f99b5144",
        "recon_denoise_apgm_lam0.5_gam0.1_ph1.csv": "6e0aa013fc203d0601d40080379cac31db062573ba2559900b99309cdd853f62",
        "recon_denoise_apgm_lam0.5_gam0.1_ph1.pgm": "823276713b70253904662947c6101cbd7dde1f5e5fb8b2e44250ce436fce2d21",
        "trace_denoise_apgm_lam0.5_gam0.01_ph0.csv": "9947de34210cb7cef0ce53b516a25a07149f912f8ccd128e7b01c6245f847efc",
        "trace_denoise_apgm_lam0.5_gam0.01_ph1.csv": "36d8c1c5f828fa5437cb2c9bda52171fa91415690ed69055fd9e4d3d764d4bb8",
        "trace_denoise_apgm_lam0.5_gam0.1_ph0.csv": "dcbe4de90eac760cd0f56c48ce1f6100d3a18afad47219d82948764f5fdf004c",
        "trace_denoise_apgm_lam0.5_gam0.1_ph1.csv": "4979793f4cb38eb5f0b86f29d82d6901d5834649bf5c45f436d84daf751ddd1c",
    }


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
    ["denoise", "--seed", "-1"],
    ["ct", "--seed", "-1"],
    ["prox-check", "--seed", "-1"],
    ["denoise", "--out", __file__],  # an existing file, not a directory
])
def test_bad_sweep_input_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["denoise", "ct"])
def test_noise_that_overflows_the_data_exits_2(task, tmp_path, capsys):
    # the sweep's data generation is configuration: no traceback, no output directory
    out = tmp_path / "o"
    assert main([task, "--size", "16", "--phantoms", "1", "--sigma", "1e308", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "sigma 1e+308" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, phantoms, angles", [
    (["ct", "--paper-scale"], 10, 45),
    (["ct", "--angles", "30", "--phantoms", "2", "--paper-scale"], 2, 30),
    (["denoise", "--paper-scale", "--phantoms", "1"], 1, 45),
    (["ct"], 3, 15),
])
def test_paper_scale_presets_yield_to_explicit_flags(argv, phantoms, angles):
    cfg = _build_config(argv[0], _merged_options(build_parser().parse_args(argv)))
    assert (cfg.n_phantoms, cfg.n_angles) == (phantoms, angles)


def test_paper_scale_in_config_file_yields_to_its_other_keys(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("paper_scale=yes\nangles=30\n")
    cfg = _build_config("ct", _merged_options(build_parser().parse_args(["ct", "--config", str(path)])))
    assert (cfg.n_phantoms, cfg.n_angles) == (10, 30)


@pytest.mark.parametrize("line", ["prox=exatc", "paper_scale=on", "size=x"])
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, line):
    path = tmp_path / "cfg.txt"
    path.write_text(f"size=16\nphantoms=1\n{line}\n")
    assert main(["denoise", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert line.split("=")[0] + ":" in err  # the message names the key
    assert not (tmp_path / "o").exists()


def test_python_dash_m_runs_the_cli():
    src = str(Path(tvprox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "tvprox", "prox-check", "--size", "8"],
                          env=env, timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "error bound:" in proc.stdout
