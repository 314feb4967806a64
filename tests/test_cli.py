import math
import subprocess
import sys

import numpy as np
import pytest

from oscpair import cli, figures, sim, spectrum
from oscpair.cli import main
from oscpair.core import Params
from oscpair.figures import parse_figure_csv
from oscpair.spectrum import RegimeKind, classify, closed_form_eigenvalues


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


@pytest.mark.parametrize("verb, option, value", [
    (["classify", "--b", "1"], "--epsilon", "-5e-324"),
    (["classify", "--epsilon", "0.5"], "--b", "-inf"),
    (["figure", "fig1"], "--t-end", "-1e-300"),
    (["figure", "fig1"], "--z0", "-1,0,0,0"),
])
def test_negative_option_value_acts_as_its_joined_form(tmp_path, capsys, verb, option, value):
    # argparse alone reads each value as an option string: "expected one argument"
    out = ["--out", str(tmp_path / "f")] if verb[0] == "figure" else []
    joined = run_cli(capsys, *verb, f"{option}={value}", *out)
    assert run_cli(capsys, *verb, option, value, *out) == joined
    if option == "--z0":
        assert joined[0] == 0
    else:
        assert joined[0] == 1 and joined[2].startswith("error: ") and value in joined[2]


def test_option_without_its_value_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--b", "1", "--epsilon")
    assert code == 1
    assert err == "usage error: argument --epsilon: expected one argument\n"


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


def test_sweep_usage_errors(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--epsilon", "0.5", "--b-min", "1", "--b-max", "2", "--n", "1"
    )
    assert code == 1 and "n must be" in err
    code, _, err = run_cli(
        capsys, "sweep", "--epsilon", "0.5", "--b-min", "3", "--b-max", "2", "--n", "5"
    )
    assert code == 1


def test_sweep_has_no_out_option(tmp_path, capsys):
    # the CSV goes to stdout; `> file` is the one way to a file
    argv = ["--epsilon", "0.5", "--b-min", "0.7", "--b-max", "0.8", "--n", "11"]
    code, _, err = run_cli(capsys, "sweep", *argv, "--out", str(tmp_path / "s.csv"))
    assert code == 1 and "unrecognized arguments: --out" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_grid_too_large_to_allocate_is_an_error(capsys):
    # 10**15 floats are 7.1 PiB, more than a 48-bit (128 TiB) user address
    # space: numpy's MemoryError comes at once and nothing is allocated
    argv = ["--epsilon", "0.5", "--b-min", "0.7", "--b-max", "0.8", "--n", str(10**15)]
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_figure_command_writes_outputs(tmp_path, capsys):
    stem = tmp_path / "f9"
    code, out, _ = run_cli(capsys, "figure", "fig9", "--out", str(stem))
    assert code == 0
    assert (tmp_path / "f9.csv").exists()
    assert (tmp_path / "f9.plot").exists()


def test_figure_creates_the_missing_directories_of_its_stem(tmp_path, capsys):
    stem = tmp_path / "new" / "sub" / "f8"
    code, out, err = run_cli(capsys, "figure", "fig8", "--out", str(stem))
    assert code == 0, err
    assert out == f"wrote {stem}.csv\nwrote {stem}.plot\n"
    assert parse_figure_csv(f"{stem}.csv")[0]["t"].size == 1201
    assert (tmp_path / "new" / "sub" / "f8.plot").read_text().startswith("# plot script for f8.csv")


def test_figure_stem_naming_a_directory_is_a_usage_error(tmp_path, capsys):
    # a stem ending in "/" names no file: it would write runs/.csv and runs/.plot
    stem = f"{tmp_path}/runs/"
    code, out, err = run_cli(capsys, "figure", "fig8", "--out", stem)
    assert code == 1
    assert out == "" and err == f"error: output stem must end in a file name, got {stem!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("z0", ["1,2,3", "1,2,x,4"])
def test_figure_rejects_a_malformed_start(tmp_path, capsys, z0):
    code, _, err = run_cli(capsys, "figure", "fig8", f"--z0={z0}", "--out", str(tmp_path / "f8"))
    assert code == 1 and err.startswith("usage error")
    assert list(tmp_path.iterdir()) == []


def test_fig2_window_is_the_period_at_large_q(tmp_path, capsys):
    stem = tmp_path / "f2"
    code, _, _ = run_cli(capsys, "figure", "fig2", "--q", "10000", "--out", str(stem))
    assert code == 0
    block = parse_figure_csv(tmp_path / "f2.csv")[0]
    assert block["t"][-1] == pytest.approx(200.0 * math.pi, rel=1e-12)


def test_fig2_window_is_the_period_near_q_1(tmp_path, capsys):
    # q = 1.001: frequencies 1.0005 and 0.9995 close after 1,000 turns, and
    # S(T) recurs to within 1e-6 at T = 6286.33
    code, _, err = run_cli(capsys, "figure", "fig2", "--q", "1.001", "--out", str(tmp_path / "f2"))
    assert (code, err) == (0, "")
    block = parse_figure_csv(tmp_path / "f2.csv")[0]
    assert block["t"][-1] == pytest.approx(6286.326114827869, rel=1e-12)


@pytest.mark.parametrize("fig", ["fig1", "fig7"])
def test_figure_start_past_the_energy_cap_writes_empty_blocks(tmp_path, capsys, fig):
    # E0 = 5e119: every block, blow-up ones included, is cut at t = 0
    code, _, err = run_cli(capsys, "figure", fig, "--z0=1e60,0,0,0", "--out", str(tmp_path / fig))
    assert code == 0, err
    csv_path = tmp_path / f"{fig}.csv"
    assert csv_path.read_text().count("# truncated: E > 1e+100 beyond this point") == 3
    assert parse_figure_csv(csv_path) == []


def test_figure_start_whose_energy_overflows_is_a_numerical_failure(tmp_path, capsys):
    argv = ["figure", "fig1", "--z0=1e200,0,0,0", "--out", str(tmp_path / "f1")]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == "numerical failure: state norm exceeds overflow guard at t=0\n"


def test_figure_on_an_unresolved_exponential_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sim, "_coefficients", lambda p, t, structure: (math.nan,) * 4)
    code, _, err = run_cli(capsys, "figure", "fig1", "--out", str(tmp_path / "f1"))
    assert code == 2
    assert err.startswith("numerical failure:") and "cannot be resolved at double precision" in err


def test_figure_lapack_failure_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, which maps to exit 1
    def failing(spec):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "write_figure", failing)
    code, _, err = run_cli(capsys, "figure", "fig1", "--out", str(tmp_path / "f1"))
    assert (code, err) == (2, "numerical failure: SVD did not converge\n")


def test_fig8_decays_over_a_long_window(tmp_path, capsys):
    # dt = 1e6/1200: the step decays to about 1e-31, and the states with it
    argv = ["figure", "fig8", "--t-end", "1e6", "--out", str(tmp_path / "f8")]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    block = parse_figure_csv(tmp_path / "f8.csv")[0]
    assert block["t"][-1] == 1e6
    assert block["E"].max() == block["E"][0] and block["E"][-1] < 1e-300


def test_fig8_decays_to_zero_when_the_step_corner_would_overflow(tmp_path, capsys):
    # dt = 83,333: exp(-dt A^T) would overflow, and the step exp(dt A)
    # underflows to zero, as does every later state
    argv = ["figure", "fig8", "--t-end", "1e8", "--out", str(tmp_path / "f8")]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    block = parse_figure_csv(tmp_path / "f8.csv")[0]
    assert block["t"][-1] == 1e8
    assert all(block[c][-1] == 0.0 for c in ("u", "x", "v", "y", "E"))


def test_figure_step_too_long_to_resolve_is_a_numerical_failure(tmp_path, capsys):
    argv = ["figure", "fig6", "--t-end", "1e17", "--out", str(tmp_path / "f6")]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("numerical failure: step too long to resolve at dt=8.33333e+13")


@pytest.mark.parametrize("b", ["1e-170", "5e-324"])
def test_classify_tiny_coupling_reports_negative_zero_rate(capsys, b):
    code, out, _ = run_cli(capsys, "classify", "--epsilon", "0", "--b", b)
    fields = record(out)
    assert code == 0
    assert fields["kind"] == "ExpDecay" and fields["omega_star"] == "-0.0"


def test_figure_has_no_tol_option(tmp_path, capsys):
    code, _, err = run_cli(capsys, "figure", "fig1", "--tol", "1e-8", "--out", str(tmp_path / "f1"))
    assert code == 1 and "--tol" in err


@pytest.mark.parametrize("q", ["inf", "nan"])
def test_figure_rejects_non_finite_q(tmp_path, capsys, q):
    code, _, err = run_cli(capsys, "figure", "fig2", "--q", q, "--out", str(tmp_path / "f2"))
    assert code == 1, err


@pytest.mark.parametrize("fig", [f"fig{k}" for k in range(1, 10) if k != 2])
def test_figure_other_than_fig2_rejects_q(tmp_path, capsys, fig):
    code, _, err = run_cli(capsys, "figure", fig, "--q", "4", "--out", str(tmp_path / "f"))
    assert code == 1 and err == f"error: q sets fig2's coupling; {fig} takes none\n"
    assert list(tmp_path.iterdir()) == []


def test_fig2_without_q_is_fig2_at_q_4(tmp_path, capsys, monkeypatch):
    specs = []
    monkeypatch.setattr(cli, "write_figure", lambda spec: specs.append(spec) or ("a", "b"))
    assert run_cli(capsys, "figure", "fig2")[0] == 0
    assert run_cli(capsys, "figure", "fig2", "--q", "4")[0] == 0
    assert specs[0] == specs[1] and specs[0].params[0].b == math.sqrt(4.0 + 0.25 - 1.0)


def test_figure_rejects_unknown_id(capsys):
    code, _, _ = run_cli(capsys, "figure", "fig42")
    assert code == 1


def test_figure_rejects_degenerate_q(capsys):
    code, _, err = run_cli(capsys, "figure", "fig2", "--q", "1")
    assert code == 1 and "q must be" in err


def test_fig2_with_its_own_window_asks_for_no_period(tmp_path, capsys, monkeypatch):
    # at q = 1.001 the period fails its recurrence check; --t-end does not need it
    monkeypatch.setattr(figures, "periodic_portrait_check", None)
    argv = ["figure", "fig2", "--q", "1.001", "--t-end", "10", "--out", str(tmp_path / "f2")]
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    block = parse_figure_csv(tmp_path / "f2.csv")[0]
    assert block["t"][-1] == 10.0


@pytest.mark.parametrize("window", [[], ["--t-end", "10"]])
def test_fig2_rejects_a_q_whose_coupling_rounds_to_one(tmp_path, capsys, window):
    argv = ["figure", "fig2", "--q", "1.0000000001", *window, "--out", str(tmp_path / "f2")]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == "error: q = 1.0000000001 is too close to 1: b = sqrt(q + 1/q - 1) rounds to 1\n"
    assert list(tmp_path.iterdir()) == []


def test_fig2_period_failing_its_recurrence_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sim, "propagator", lambda p, t: sim.PropagatorSample(t=t, matrix=-np.eye(4)))
    code, out, err = run_cli(capsys, "figure", "fig2", "--out", str(tmp_path / "f2"))
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: predicted period") and err.count("\n") == 1
    assert "fails recurrence: gap 2.000e+00" in err


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


def test_modes_bound_is_the_first_mode_bound_whatever_the_tail(tmp_path, capsys):
    modes = tmp_path / "tail.txt"
    modes.write_text("\n".join(str(m) for m in (1.0, 1.1, 1.2, 0.012, 0.005, 0.001)))
    code, out, _ = run_cli(
        capsys, "modes", "--modes-file", str(modes), "--epsilon", "0.5", "--b", "0.75"
    )
    assert code == 0
    assert out == (
        "modes=6\n"
        "mu_first=0.001\n"
        "family_growth_bound=-0.004066133775521755\n"
        "attained_mode_index=0\n"
        "attained_mu=0.001\n"
        "threshold=0.015625\n"
        "threshold_ok=False\n"
    )


def test_modes_string_of_length_ten(tmp_path, capsys):
    # first 8 Dirichlet modes (k pi / 10)^2: the bounds of the later modes
    # change by growing steps, which says nothing about the supremum
    modes = tmp_path / "string.txt"
    modes.write_text("\n".join(repr((k * math.pi / 10.0) ** 2) for k in range(1, 9)))
    code, out, err = run_cli(
        capsys, "modes", "--modes-file", str(modes), "--epsilon", "0.5", "--b", "2"
    )
    assert (code, err) == (0, "")
    assert out == (
        "modes=8\n"
        "mu_first=0.09869604401089357\n"
        "family_growth_bound=-0.0065152755248875285\n"
        "attained_mode_index=0\n"
        "attained_mu=0.09869604401089357\n"
        "threshold=0.015625\n"
        "threshold_ok=True\n"
    )


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


def test_classify_evaluates_the_palindromic_core_once(monkeypatch, capsys):
    calls = {"palindromic_roots": 0, "root_defects": 0}

    def counting(name):
        original = getattr(spectrum, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(spectrum, name, counting(name))
    code, _, _ = run_cli(capsys, "classify", "--epsilon", "0.5", "--b", "0.75")
    assert code == 0
    assert calls == {"palindromic_roots": 1, "root_defects": 1}


def test_sweep_evaluates_the_palindromic_core_once(monkeypatch, capsys):
    calls = {"palindromic_roots": 0, "root_defects": 0}

    def counting(name):
        original = getattr(spectrum, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapper = counting(name)
        for module in (spectrum, cli):  # cli binds the names it imports
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    argv = ("sweep", "--epsilon", "0.5", "--b-min", "0.7", "--b-max", "0.8", "--n", "11")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == {"palindromic_roots": 1, "root_defects": 1}


def boundary_sweep_windows() -> list[tuple[float, float, float, int]]:
    """(eps, b_min, b_max, n) with b_min exactly on a regime boundary: half
    on b = sqrt(eps), a quarter on eps = 1 from b = 1, the rest at eps = 0
    from b = 1e-170, where the decay rate underflows."""
    rng = np.random.default_rng(16)
    windows = [(0.9, math.sqrt(0.9), 1.0, 2)]
    for eps, width in zip(rng.uniform(0.0, 1.0, 3).tolist(), rng.uniform(0.01, 1.0, 3).tolist()):
        windows.append((eps, math.sqrt(eps), math.sqrt(eps) + width, 40))
    windows += [(1.0, 1.0, hi, 40) for hi in rng.uniform(1.01, 4.0, 2).tolist()]
    windows.append((0.0, 1e-170, float(10.0 ** rng.uniform(-169.0, -150.0)), 40))
    return windows + [(0.0, 1e-170, 1e-160, 2)]


@pytest.mark.parametrize("eps, b_min, b_max, n", boundary_sweep_windows())
def test_sweep_rows_are_the_classify_records(capsys, eps, b_min, b_max, n):
    argv = ("--epsilon", repr(eps), "--b-min", repr(b_min), "--b-max", repr(b_max), "--n", str(n))
    code, out, _ = run_cli(capsys, "sweep", *argv)
    assert code == 0
    want = []
    for b in np.linspace(b_min, b_max, n).tolist():
        regime = classify(Params(eps, b))
        want.append(f"{b!r},{regime.omega_star!r},{regime.defect_penalty}")
    assert out.splitlines()[1:-1] == want


@pytest.mark.parametrize("argv, first_row", [
    (("--epsilon", "0.9", "--b-min", "0.9486832980505138", "--b-max", "1", "--n", "2"),
     "0.9486832980505138,0.0,0"),
    (("--epsilon", "0", "--b-min", "1e-170", "--b-max", "1e-160", "--n", "2"), "1e-170,-0.0,0"),
])
def test_sweep_boundary_row_reads_the_classify_rate(capsys, argv, first_row):
    code, out, _ = run_cli(capsys, "sweep", *argv)
    assert code == 0
    assert out.splitlines()[1] == first_row


def reference_classify_output(eps: float, b: float) -> tuple[int, str, str]:
    """The classify record, line by line from the public functions."""
    try:
        p = Params(eps, b)
    except ValueError as exc:
        return 1, "", f"error: {exc}\n"
    regime, spec = classify(p), closed_form_eigenvalues(p)
    lines = [
        f"epsilon={p.epsilon!r}",
        f"b={p.b!r}",
        f"kind={regime.kind.value}",
        f"omega_star={regime.omega_star!r}",
        f"defect={regime.defect_penalty}",
    ]
    if regime.kind is RegimeKind.POLY_BLOWUP:
        lines.append(f"degree={regime.defect_penalty}")
    for i, lam in enumerate(spec.eigenvalues, start=1):
        lines.append(f"lambda{i}_re={lam.real!r}")
        lines.append(f"lambda{i}_im={lam.imag!r}")
    lines.append("defects=" + ",".join(str(d) for d in spec.defects))
    if p.epsilon < 1.0:
        lines.append(f"sqrt_epsilon={math.sqrt(p.epsilon)!r}")
        lines.append(f"eta={(1.0 + p.epsilon) / 2.0!r}")
    if p.epsilon > 1.0:
        lines.append(f"stable_subspace_dim={sum(lam.real < 0.0 for lam in spec.eigenvalues)}")
    return 0, "".join(line + "\n" for line in lines), ""


def classify_points() -> list[tuple[float, float]]:
    rng = np.random.default_rng(17)
    points = list(zip(rng.uniform(0, 3, 30).tolist(), (10.0 ** rng.uniform(-3, 3, 30)).tolist()))
    for eps in (0.0, 0.25, 0.5, 0.81, 1.0, 2.0):
        points += [(eps, math.sqrt(eps) or 1e-3), (eps, (1.0 + eps) / 2.0)]
    points += [(1.0, 1.0), (5.0, 3.0), (3.0, math.sqrt(3.0)), (0.5, 1e100), (1e155, 1.0)]
    points += [(0.0, 1e-170), (0.0, 5e-324), (0.9, math.sqrt(0.9))]
    return points + [(-1.0, 1.0)]  # rejected: usage error


@pytest.mark.parametrize("eps, b", classify_points())
def test_classify_record_matches_the_public_functions_byte_for_byte(capsys, eps, b):
    assert run_cli(capsys, "classify", "--epsilon", repr(eps), "--b", repr(b)) == (
        reference_classify_output(eps, b)
    )


@pytest.mark.parametrize("only, unknown", [("11", "[11]"), ("2,42", "[42]"), ("0,3,-1", "[-1, 0]")])
def test_accept_rejects_unknown_criterion_numbers(capsys, only, unknown):
    code, out, err = run_cli(capsys, "accept", "--only", only)
    assert (code, out) == (1, "")
    assert f"unknown criteria {unknown}" in err and "1..10" in err


def test_modes_tail_check_is_a_usage_error(tmp_path, capsys):
    modes = tmp_path / "modes.txt"
    mu = 10.0 ** np.random.default_rng(1).uniform(-3.0, 4.0, 200)
    modes.write_text("\n".join(map(repr, mu.tolist())))
    argv = ("modes", "--modes-file", str(modes), "--epsilon", "0.5", "--b", "0.75")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (
        "modes=200\n"
        "mu_first=0.0010984294436732626\n"
        "family_growth_bound=-0.004473776478615504\n"
        "attained_mode_index=0\n"
        "attained_mu=0.0010984294436732626\n"
        "threshold=0.015625\n"
        "threshold_ok=False\n"
    )
    for value in ("0", "8", "-1"):
        code, out, err = run_cli(capsys, *argv, "--tail-check", value)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --tail-check" in err


# extreme numbers for the fuzz: zero, subnormal, tiny, one ulp either side of
# 1, huge, the largest decade of floats, non-finite, negative
EXTREMES = [
    "0", "5e-324", "1e-300", repr(math.nextafter(1.0, 0.0)), repr(math.nextafter(1.0, 2.0)),
    "1e150", "1e300", "1.7e308", "inf", "nan", "-1", "-5e-324", "-inf",
]


def fuzz_argvs(tmp_path) -> list[list[str]]:
    """A seeded list of argv over all five verbs, built from EXTREMES."""
    rng = np.random.default_rng(20)

    def pick(k=1):
        return [str(v) for v in rng.choice(EXTREMES, k)]

    mode_files = []
    for name, text in [("hex", "0x10\n"), ("nan", "1\nnan\n"), ("empty", ""), ("ok", "1\n4\n9\n")]:
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        mode_files.append(str(path))
    argvs = []
    for k in range(40):
        eps, b = pick(2)
        argvs.append(["classify", "--epsilon", eps, "--b", b])
        eps, lo, hi = pick(1) + sorted(pick(2), key=float)
        n = str(rng.choice(["-1", "0", "2", "3", "17", str(10**15)]))
        argvs.append(["sweep", "--epsilon", eps, "--b-min", lo, "--b-max", hi, "--n", n])
        eps, b = pick(2)
        argvs.append(["modes", "--modes-file", mode_files[k % 4], "--epsilon", eps, "--b", b])
        fig = f"fig{k % 9 + 1}"
        q, t_end, u = pick(3)
        out = str(tmp_path / f"fig{k}")
        q_opt = ["--q", q] if fig == "fig2" else []  # q is fig2's alone
        argvs.append(["figure", fig, *q_opt, "--t-end", t_end, f"--z0={u},0,0,1", "--out", out])
    argvs += [["figure", "fig2", "--q", q, "--out", str(tmp_path / "q")] for q in EXTREMES]
    argvs += [["accept", "--only", only] for only in ("0", "11", "-1", "nan", "", "2,x", "3")]
    argvs.append(["sweep", "--epsilon", "0.5", "--b-min", "0.7", "--b-max", "0.8", "--n", str(10**15)])
    return argvs


def test_cli_fuzz_exits_with_a_documented_code_and_message(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    prefixes = {1: ("usage error: ", "error: "), 2: ("numerical failure: ",)}
    bad = []
    for argv in fuzz_argvs(tmp_path):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # an escape is the failure looked for
            bad.append((argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2, 3) or not err.startswith(prefixes.get(code, ("",))):
            bad.append((argv, code, err))
    assert bad == []
