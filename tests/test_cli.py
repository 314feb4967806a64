import math
import subprocess
import sys

import pytest

from oscpair import cli
from oscpair.cli import main
from oscpair.figures import parse_figure_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith("#"):
            key, value = line.split("=", 1)
            fields[key] = value
    return fields


def test_classify_decay_record(capsys):
    code, out, _ = run_cli(capsys, "classify", "--epsilon", "0.5", "--b", "0.75")
    assert code == 0
    rec = record(out)
    assert rec["kind"] == "ExpDecay"
    assert float(rec["omega_star"]) == -0.125
    assert rec["defect"] == "1"
    assert float(rec["sqrt_epsilon"]) == pytest.approx(math.sqrt(0.5))
    assert float(rec["eta"]) == 0.75


def test_classify_polynomial_blowup_record(capsys):
    code, out, _ = run_cli(capsys, "classify", "--epsilon", "1", "--b", "1")
    assert code == 0
    rec = record(out)
    assert rec["kind"] == "PolyBlowup"
    assert rec["degree"] == "1"
    assert float(rec["omega_star"]) == 0.0
    assert rec["defects"] == "1,1,1,1"


def test_classify_blowup_reports_stable_subspace(capsys):
    code, out, _ = run_cli(capsys, "classify", "--epsilon", "2", "--b", "7")
    assert code == 0
    rec = record(out)
    assert rec["kind"] == "ExpBlowup"
    assert float(rec["omega_star"]) > 0
    # beyond the optimal coupling all four modes grow
    assert rec["stable_subspace_dim"] == "0"
    # at weak coupling a two-dimensional decaying subspace coexists
    code, out, _ = run_cli(capsys, "classify", "--epsilon", "2", "--b", "1")
    assert code == 0
    assert record(out)["stable_subspace_dim"] == "2"


def test_classify_rejects_invalid_parameters(capsys):
    code, _, err = run_cli(capsys, "classify", "--epsilon", "-1", "--b", "2")
    assert code == 1
    assert "error" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "explode")
    assert code == 1


def test_sweep_finds_optimal_coupling(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--epsilon", "0.5", "--b-min", "0.71", "--b-max", "0.79", "--n", "81"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,omega_star,defect"
    argmin = next(l for l in lines if l.startswith("# argmin"))
    assert "b=0.75" in argmin
    assert "omega_star=-0.125" in argmin


def test_sweep_at_zero_antidamping(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--epsilon", "0", "--b-min", "0.4", "--b-max", "0.6", "--n", "201"
    )
    assert code == 0
    argmin = next(l for l in out.splitlines() if l.startswith("# argmin"))
    assert "b=0.5" in argmin and "omega_star=-0.25" in argmin


def test_sweep_no_decay_at_critical_antidamping(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--epsilon", "1", "--b-min", "0.2", "--b-max", "4", "--n", "39"
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("b,", "#"))]
    assert all(float(r.split(",")[1]) >= 0.0 for r in rows)


def test_sweep_writes_file(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--epsilon", "0.5", "--b-min", "0.7", "--b-max", "0.8",
        "--n", "11", "--out", str(out_file),
    )
    assert code == 0
    assert out_file.exists()
    assert out_file.read_text().startswith("b,omega_star,defect")


def test_sweep_usage_errors(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--epsilon", "0.5", "--b-min", "1", "--b-max", "2", "--n", "1"
    )
    assert code == 1 and "n must be" in err
    code, _, err = run_cli(
        capsys, "sweep", "--epsilon", "0.5", "--b-min", "3", "--b-max", "2", "--n", "5"
    )
    assert code == 1


def test_figure_command_writes_outputs(tmp_path, capsys):
    stem = tmp_path / "f9"
    code, out, _ = run_cli(capsys, "figure", "fig9", "--out", str(stem))
    assert code == 0
    assert (tmp_path / "f9.csv").exists()
    assert (tmp_path / "f9.plot").exists()


def test_fig2_window_is_the_period_at_large_q(tmp_path, capsys):
    stem = tmp_path / "f2"
    code, _, _ = run_cli(capsys, "figure", "fig2", "--q", "10000", "--out", str(stem))
    assert code == 0
    block = parse_figure_csv(tmp_path / "f2.csv")[0]
    assert block["t"][-1] == pytest.approx(200.0 * math.pi, rel=1e-12)


def test_figure_rejects_unknown_id(capsys):
    code, _, _ = run_cli(capsys, "figure", "fig42")
    assert code == 1


def test_figure_rejects_degenerate_q(capsys):
    code, _, err = run_cli(capsys, "figure", "fig2", "--q", "1")
    assert code == 1 and "q must be" in err


def test_modes_command(tmp_path, capsys):
    modes = tmp_path / "modes.txt"
    modes.write_text("# first four Dirichlet eigenvalues on (0, 1)\n" + "\n".join(
        str((k * math.pi) ** 2) for k in range(1, 5)
    ))
    code, out, _ = run_cli(
        capsys, "modes", "--modes-file", str(modes), "--epsilon", "0.5", "--b", "0.75"
    )
    assert code == 0
    rec = record(out)
    assert rec["modes"] == "4"
    assert float(rec["family_growth_bound"]) == pytest.approx(-0.125, abs=1e-9)
    assert rec["attained_mode_index"] == "0"
    assert rec["threshold_ok"] == "True"


def test_modes_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "modes", "--modes-file", str(tmp_path / "nope.txt"),
        "--epsilon", "0.5", "--b", "0.75",
    )
    assert code == 1


def test_modes_unstable_tail_is_numerical_failure(tmp_path, capsys):
    modes = tmp_path / "bad.txt"
    modes.write_text("\n".join(str(m) for m in (1.0, 1.1, 1.2, 0.012, 0.005, 0.001)))
    code, _, err = run_cli(
        capsys, "modes", "--modes-file", str(modes),
        "--epsilon", "0.5", "--b", "0.75", "--tail-check", "6",
    )
    assert code == 2
    assert "not stabilizing" in err


def test_accept_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "accept", "--only", "2,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(l.startswith("PASS criterion") for l in lines)


def test_accept_rejects_bad_selection(capsys):
    code, _, err = run_cli(capsys, "accept", "--only", "two")
    assert code == 1


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "oscpair.cli", "classify", "--epsilon", "0.5", "--b", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "kind=ExpDecay" in out.stdout


def test_classify_quadruple_root(capsys):
    code, out, _ = run_cli(capsys, "classify", "--epsilon", "5", "--b", "3")
    assert code == 0
    rec = record(out)
    assert rec["kind"] == "ExpBlowup"
    assert float(rec["omega_star"]) == 1.0
    assert rec["defect"] == "3"
    assert rec["defects"] == "3,3,3,3"


def test_repeated_calls_in_one_process_match_fresh_parsers(capsys):
    # the parser is built once per process; reusing it must not change results
    calls = [
        ("classify", "--epsilon", "0.5", "--b", "0.75"),
        ("sweep", "--epsilon", "0.5", "--b-min", "0.7", "--b-max", "0.8", "--n", "11"),
        ("classify", "--epsilon", "-1", "--b", "2"),  # usage error
        ("accept", "--only", "3"),
        ("sweep", "--epsilon", "0", "--b-min", "0.4", "--b-max", "0.6", "--n", "5"),
        ("classify", "--epsilon", "1", "--b", "1"),
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert [r[:2] for r in reused] == [f[:2] for f in fresh]
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 0, 0]
