import dataclasses
import math
import re

import numpy as np
import pytest

from oscpair.core import Params, State
from oscpair.figures import (
    _SAMPLES,
    FIGURE_IDS,
    FigureSpec,
    _block_trajectory,
    default_figure_spec,
    parse_figure_csv,
    write_figure,
)
from oscpair.sim import asymptotic_propagator
from oscpair.spectrum import Regime, RegimeKind, classify


def test_all_default_specs_build():
    for fig in FIGURE_IDS:
        spec = default_figure_spec(fig)
        assert spec.figure_id == fig
        assert len(spec.labels) == len(spec.params)


def test_spec_without_labels_gets_the_default_labels(tmp_path):
    spec = default_figure_spec("fig7")
    bare = FigureSpec(spec.figure_id, spec.params, spec.z0, spec.t_end, str(tmp_path / "bare"))
    assert bare.labels == spec.labels == (
        "epsilon=0.5 b=0.35", "epsilon=0.5 b=0.707107", "epsilon=0.5 b=1.5"
    )
    csv_path, plot_path = write_figure(bare)
    assert "# block 1: epsilon=0.5 b=0.707107\n" in csv_path.read_text()
    assert 'label="epsilon=0.5 b=1.5"' in plot_path.read_text()


def test_default_initial_states():
    assert default_figure_spec("fig1").z0 == State(1, 0, 0, 0)
    assert default_figure_spec("fig4").z0 == State(1, 0.5, 0, 0)
    assert default_figure_spec("fig5").z0 == State(1, 0.1, 0, 0)
    assert default_figure_spec("fig8").z0 == State(1, 1, 1, 1)
    assert default_figure_spec("fig8").params[0].epsilon == 0.5


def test_fig1_spans_the_three_regimes():
    spec = default_figure_spec("fig1")
    bs = [p.b for p in spec.params]
    assert bs[0] < 1.0 and bs[1] == 1.0 and bs[2] > 1.0
    assert all(p.epsilon == 1.0 for p in spec.params)


def test_fig7_brackets_the_sqrt_eps_threshold():
    spec = default_figure_spec("fig7")
    eps = spec.params[0].epsilon
    root = math.sqrt(eps)
    bs = [p.b for p in spec.params]
    assert bs[0] < root and bs[1] == pytest.approx(root) and bs[2] > root


def test_fig2_period_sets_time_window():
    spec = default_figure_spec("fig2", q=4.0)
    assert spec.params[0].b == pytest.approx(math.sqrt(3.25))
    assert spec.t_end == pytest.approx(4 * math.pi, rel=1e-12)


# epsilon, couplings, initial state, window, portrait, with_asymptotic (fig2 at q = 4)
DEFAULT_SPECS = {
    "fig1": (1.0, (0.5, 1.0, 2.0), State(1, 0, 0, 0), 30.0, False, False),
    "fig2": (1.0, (math.sqrt(3.25),), State(1, 0, 0, 0), 4.0 * math.pi, True, False),
    "fig3": (1.0, (1.5, 3.0, 10.0), State(1, 0, 0, 0), 70.0, False, False),
    "fig4": (1.0, (1.5, 3.0, 10.0), State(1, 0.5, 0, 0), 70.0, False, False),
    "fig5": (1.0, (5.0,), State(1, 0.1, 0, 0), 20.0, False, True),
    "fig6": (1.0, (20.0,), State(1, 0.1, 0, 0), 20.0, False, True),
    "fig7": (0.5, (0.35, math.sqrt(0.5), 1.5), State(1, 0, 0, 0), 40.0, False, False),
    "fig8": (0.5, (1.0,), State(1, 1, 1, 1), 60.0, True, False),
    "fig9": (0.5, (2.0,), State(1, 1, 1, 1), 60.0, True, False),
}


@pytest.mark.parametrize("fig", DEFAULT_SPECS)
def test_default_spec_catalogue(fig):
    eps, bs, z0, t_end, portrait, asymptotic = DEFAULT_SPECS[fig]
    spec = default_figure_spec(fig)
    assert spec.params == tuple(Params(eps, b) for b in bs)
    assert spec.labels == tuple(f"epsilon={eps:g} b={b:g}" for b in bs)
    assert spec.z0 == z0 and spec.output_stem == fig
    assert spec.t_end == pytest.approx(t_end, rel=1e-12)
    assert (spec.portrait, spec.with_asymptotic) == (portrait, asymptotic)
    extra = spec.params + spec.params[:1]
    want = rf"^{fig} requires {len(bs)} parameter set\(s\), got {len(bs) + 1}$"
    with pytest.raises(ValueError, match=want):
        FigureSpec(fig, extra, z0, t_end, fig)


def test_catalogue_lists_every_figure_in_order():
    assert FIGURE_IDS == tuple(DEFAULT_SPECS) == tuple(f"fig{k}" for k in range(1, 10))


@pytest.mark.parametrize(
    "q, b, t_end",
    [
        (1e4, math.sqrt(1e4 + 1e-4 - 1.0), 200.0 * math.pi),
        (math.sqrt(2.0), math.sqrt(math.sqrt(2.0) + 1.0 / math.sqrt(2.0) - 1.0), 40.0),
    ],
    ids=["q=1e4", "aperiodic"],
)
def test_fig2_coupling_and_window_come_from_q(q, b, t_end):
    spec = default_figure_spec("fig2", q=q)
    assert spec.params == (Params(1.0, b),)
    assert spec.t_end == pytest.approx(t_end, rel=1e-12)
    assert spec.z0 == State(1, 0, 0, 0) and spec.portrait


def test_spec_validation():
    with pytest.raises(ValueError):
        default_figure_spec("fig10")
    with pytest.raises(ValueError, match="3 parameter"):
        FigureSpec("fig1", (Params(1.0, 2.0),), State(1, 0, 0, 0), 1.0, "x")
    with pytest.raises(ValueError):
        default_figure_spec("fig2", q=1.0)


FIG8 = default_figure_spec("fig8")


def test_spec_rejects_an_unknown_figure_id():
    with pytest.raises(ValueError, match="unknown figure id 'fig10'"):
        FigureSpec("fig10", FIG8.params, FIG8.z0, 1.0, "x")


def test_q_is_fig2s_alone_and_defaults_to_4():
    with pytest.raises(ValueError, match="q sets fig2's coupling; fig1 takes none"):
        default_figure_spec("fig1", q=4.0)
    assert default_figure_spec("fig2") == default_figure_spec("fig2", q=4.0)


@pytest.mark.parametrize("t_end", [0.0, math.inf, math.nan])
def test_spec_rejects_a_window_that_is_not_finite_and_positive(t_end):
    with pytest.raises(ValueError, match="t_end must be finite and > 0"):
        FigureSpec("fig8", FIG8.params, FIG8.z0, t_end, "x")


@pytest.mark.parametrize("stem", ["", "runs/", "a/b/", "runs/.", "..", "a/.."])
def test_spec_rejects_a_stem_without_a_file_name(stem):
    message = f"output stem must end in a file name, got '{stem}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        FigureSpec("fig8", FIG8.params, FIG8.z0, 1.0, stem)


def test_figure_output_is_deterministic(tmp_path):
    spec = default_figure_spec("fig8", output_stem=str(tmp_path / "first"))
    csv1, plot1 = write_figure(spec)
    again = default_figure_spec("fig8", output_stem=str(tmp_path / "second"))
    csv2, plot2 = write_figure(again)
    assert csv1.read_bytes() == csv2.read_bytes()
    assert plot1.read_text() == plot2.read_text().replace("second.csv", "first.csv")


def test_figure_csv_round_trips_exactly(tmp_path):
    spec = default_figure_spec("fig7", output_stem=str(tmp_path / "f7"))
    csv_path, _ = write_figure(spec)
    blocks = parse_figure_csv(csv_path)
    assert len(blocks) == 3
    from oscpair.sim import integrate

    for block, p in zip(blocks, spec.params):
        traj = integrate(p, spec.z0, spec.t_end, samples=_SAMPLES)
        # shortest round-trip floats reparse bit-exactly
        assert np.array_equal(block["t"], traj.times)
        assert np.array_equal(block["u"], traj.states[:, 0])
        assert np.array_equal(block["E"], traj.energies)


def test_figure_energy_matches_state_columns(tmp_path):
    csv_path, _ = write_figure(default_figure_spec("fig1", output_stem=str(tmp_path / "f1")))
    for block in parse_figure_csv(csv_path):
        e = 0.5 * (block["u"] ** 2 + block["x"] ** 2 + block["v"] ** 2 + block["y"] ** 2)
        np.testing.assert_array_equal(e, block["E"])


def test_fig1_blocks_show_the_three_energy_behaviors(tmp_path):
    csv_path, _ = write_figure(default_figure_spec("fig1", output_stem=str(tmp_path / "f1q")))
    growing, critical, bounded = parse_figure_csv(csv_path)
    # b < 1: exponential growth
    assert growing["E"][-1] > 1e6
    # b = 1: energy grows like t^2 (norm rate t, squared)
    late = critical["t"] >= 10.0
    slope = np.polyfit(np.log(critical["t"][late]), np.log(critical["E"][late]), 1)[0]
    assert abs(slope - 2.0) <= 0.25
    # b > 1: bounded oscillation
    assert bounded["E"].max() < 10.0


def test_asymptotic_columns_present_and_accurate(tmp_path):
    spec = default_figure_spec("fig6", output_stem=str(tmp_path / "f6"))
    csv_path, plot_path = write_figure(spec)
    block = parse_figure_csv(csv_path)[0]
    assert "u_asym" in block and "v_asym" in block
    # at b = 20 the asymptotic displacement tracks the true one closely
    assert np.max(np.abs(block["u"] - block["u_asym"])) < 0.1
    assert "y=u_asym" in plot_path.read_text()


def test_blowup_series_truncated_with_note(tmp_path):
    spec = FigureSpec(
        figure_id="fig9",
        params=(Params(2.0, 1.0),),
        z0=State(1, 0, 0, 0),
        t_end=300.0,
        output_stem=str(tmp_path / "boom"),
    )
    csv_path, _ = write_figure(spec)
    text = csv_path.read_text()
    assert "# truncated: E > 1e+100" in text
    block = parse_figure_csv(csv_path)[0]
    assert block["E"].max() <= 1e100
    assert block["t"].max() < 300.0


@pytest.mark.parametrize(
    "p",
    # growth_bound reads 0 or a few ulps of either sign on the boundaries, and
    # 5e-7 at (1, 1 - 5e-13), which classify puts on the (1, 1) boundary;
    # (0.5, 0.75) is b = (1+eps)/2
    [Params(1.0, 1.0), Params(1.0, 1.0 - 5e-13), Params(1.0, 2.0),
     Params(0.7, math.sqrt(0.7)), Params(0.9, math.sqrt(0.9)), Params(0.5, 0.75)],
    ids=repr,
)
def test_only_exp_blowup_blocks_are_truncated(tmp_path, p):
    blowup = Params(1.5, 1.25)  # b = (1+eps)/2 with eps > 1: omega* = 1/8
    spec = FigureSpec("fig1", (p, blowup, p), State(1, 0, 0, 0), 1000.0, str(tmp_path / "mixed"))
    csv_path, _ = write_figure(spec)
    lines = csv_path.read_text().splitlines()
    notes = [k for k, line in enumerate(lines) if line.startswith("# truncated")]
    assert len(notes) == 1
    assert lines.index("# block 1: epsilon=1.5 b=1.25") < notes[0] < lines.index(
        f"# block 2: {spec.labels[2]}"
    )
    assert [_block_trajectory(q, spec)[1] for q in spec.params] == [False, True, False]


def test_blowup_rate_underflowing_to_zero_is_not_truncated():
    # b = sqrt(eps) (1 - 1e-11) at a subnormal eps: ExpBlowup, at a rate of 0.0
    p = Params(1e-320, 9.99994433565849e-161)
    assert classify(p) == Regime(RegimeKind.EXP_BLOWUP, 0.0, 0)
    spec = FigureSpec("fig9", (p,), State(1, 0, 0, 0), 50.0, "tiny")
    traj, truncated = _block_trajectory(p, spec)
    assert not truncated and traj.times[-1] == 50.0


def test_portrait_block_closes_for_periodic_coupling(tmp_path):
    csv_path, plot_path = write_figure(
        default_figure_spec("fig2", q=4.0, output_stem=str(tmp_path / "f2"))
    )
    block = parse_figure_csv(csv_path)[0]
    gap = math.hypot(
        block["u"][-1] - block["u"][0],
        block["x"][-1] - block["x"][0],
    )
    assert gap <= 1e-6
    assert "x=u y=x" in plot_path.read_text()


def row_by_row_csv(spec):
    """The figure CSV built one sample at a time, with scalar calls only."""
    header = "t,u,x,v,y,E" + (",u_asym,v_asym" if spec.with_asymptotic else "")
    lines = [header]
    z0 = spec.z0.as_array()
    for k, p in enumerate(spec.params):
        if k > 0:
            lines.append("")
        lines.append(f"# block {k}: epsilon={p.epsilon:g} b={p.b:g}")
        traj, truncated = _block_trajectory(p, spec)
        for t, state, e in zip(traj.times, traj.states, traj.energies):
            if e > 1e100:
                truncated = True
                break
            row = [t, *state, e]
            if spec.with_asymptotic:
                za = asymptotic_propagator(p.b, float(t)) @ z0
                row += [za[0], za[2]]
            lines.append(",".join(repr(float(v)) for v in row))
        if truncated:
            lines.append("# truncated: E > 1e+100 beyond this point")
    return "\n".join(lines) + "\n"


MORE_DEFAULTS = ("fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9")


@pytest.mark.parametrize(
    "spec",
    [
        default_figure_spec("fig5"),
        default_figure_spec("fig5", z0=State(0.5, -0.3, 0.2, 0.7)),
        default_figure_spec("fig1"),
        FigureSpec("fig9", (Params(2.0, 1.0),), State(1, 0, 0, 0), 300.0, "boom"),
        *(default_figure_spec(fig) for fig in MORE_DEFAULTS),
    ],
    ids=["fig5", "fig5-z0", "fig1", "truncated", *MORE_DEFAULTS],
)
def test_csv_equals_row_by_row_reference(tmp_path, spec):
    stem = str(tmp_path / spec.output_stem)
    csv_path, _ = write_figure(dataclasses.replace(spec, output_stem=stem))
    assert csv_path.read_text() == row_by_row_csv(spec)
