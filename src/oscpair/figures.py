"""Figure reproduction: trajectory CSV files plus declarative plot scripts.

Each figure is a FigureSpec: one initial state, a time window, and one
or more parameter sets.  Rendering is out of scope; the writer emits a
CSV with header ``t,u,x,v,y,E`` (one block per parameter set, separated
by a blank line, 17-digit shortest round-trip floats) and a small
renderer-agnostic ``.plot`` script that references the CSV columns by
name only.  Both files go where the spec's output stem says, in
directories created as needed.

The built-in specs fig1..fig9 cover: the three energy regimes at
eps = 1 (fig1), the periodic phase portrait at b = sqrt(q + 1/q - 1)
(fig2), energies for growing b > 1 with zero and nonzero initial
velocity (fig3, fig4), numerical versus asymptotic solutions (fig5,
fig6), the three energy regimes at eps = 1/2 (fig7), and decaying
phase portraits at eps = 1/2 (fig8, fig9).  Each figure fixes its
initial state; coupling values and time windows are chosen to make the
qualitative behavior visible.  One table, ``_CATALOGUE`` below, holds
every figure's plot kind, epsilon, couplings, initial state and window,
and everything else about a figure id is read from it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Params, State, energy
from .sim import Trajectory, asymptotic_propagator, integrate, periodic_portrait_check
from .spectrum import RegimeKind, classify

__all__ = [
    "ENERGY_OVERFLOW",
    "FIGURE_IDS",
    "FigureSpec",
    "default_figure_spec",
    "parse_figure_csv",
    "write_figure",
]

ENERGY_OVERFLOW = 1e100
_SAMPLES = 1200  # equal steps per block

# figure id: (plot kind, epsilon, couplings b, initial state, time window).
# Plot kinds are "energy", "portrait" and "asymptotic".  fig2's coupling
# comes from q and its default window is the portrait's period, or 40 when
# the portrait does not close (see default_figure_spec).
_CATALOGUE = {
    "fig1": ("energy", 1.0, (0.5, 1.0, 2.0), State(1, 0, 0, 0), 30.0),
    "fig2": ("portrait", 1.0, (math.nan,), State(1, 0, 0, 0), 40.0),
    "fig3": ("energy", 1.0, (1.5, 3.0, 10.0), State(1, 0, 0, 0), 70.0),
    "fig4": ("energy", 1.0, (1.5, 3.0, 10.0), State(1, 0.5, 0, 0), 70.0),
    "fig5": ("asymptotic", 1.0, (5.0,), State(1, 0.1, 0, 0), 20.0),
    "fig6": ("asymptotic", 1.0, (20.0,), State(1, 0.1, 0, 0), 20.0),
    "fig7": ("energy", 0.5, (0.35, math.sqrt(0.5), 1.5), State(1, 0, 0, 0), 40.0),
    "fig8": ("portrait", 0.5, (1.0,), State(1, 1, 1, 1), 60.0),
    "fig9": ("portrait", 0.5, (2.0,), State(1, 1, 1, 1), 60.0),
}

FIGURE_IDS = tuple(_CATALOGUE)


@dataclass(frozen=True)
class FigureSpec:
    """One figure: parameter sets, shared initial state, time window, and
    the output stem, a path without suffix (``<stem>.csv``, ``<stem>.plot``)
    whose last component names the files: a stem that is empty, ends in a
    path separator or ends in "." or ".." is rejected."""

    figure_id: str
    params: tuple[Params, ...]
    z0: State
    t_end: float
    output_stem: str

    def __post_init__(self) -> None:
        if self.figure_id not in FIGURE_IDS:
            raise ValueError(f"unknown figure id {self.figure_id!r}")
        want = len(_CATALOGUE[self.figure_id][2])
        if len(self.params) != want:
            raise ValueError(
                f"{self.figure_id} requires {want} parameter set(s), got {len(self.params)}"
            )
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        if os.path.basename(self.output_stem) in ("", ".", ".."):
            raise ValueError(f"output stem must end in a file name, got {self.output_stem!r}")

    @property
    def labels(self) -> tuple[str, ...]:
        """``epsilon=<eps> b=<b>`` for each parameter set."""
        return tuple(f"epsilon={p.epsilon:g} b={p.b:g}" for p in self.params)

    @property
    def portrait(self) -> bool:
        return _CATALOGUE[self.figure_id][0] == "portrait"

    @property
    def with_asymptotic(self) -> bool:
        return _CATALOGUE[self.figure_id][0] == "asymptotic"


def _b_from_q(q: float) -> float:
    if not 1.0 < q < math.inf:
        raise ValueError(f"q must be finite and > 1 (q = 1 is the defective b = 1), got {q}")
    b = math.sqrt(q + 1.0 / q - 1.0)
    if not b > 1.0:  # q - 1 below about 1.6e-8
        raise ValueError(f"q = {q!r} is too close to 1: b = sqrt(q + 1/q - 1) rounds to 1")
    return b


def default_figure_spec(
    figure_id: str,
    output_stem: str | None = None,
    q: float | None = None,
    t_end: float | None = None,
    z0: State | None = None,
) -> FigureSpec:
    """Built-in spec for fig1..fig9, with optional overrides.

    ``q`` is fig2's coupling (default 4); any other figure refuses it.
    """
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}")
    if q is not None and figure_id != "fig2":
        raise ValueError(f"q sets fig2's coupling; {figure_id} takes none")
    _, eps, bs, z, t = _CATALOGUE[figure_id]
    if figure_id == "fig2":
        b = _b_from_q(4.0 if q is None else q)
        bs = (b,)
        if t_end is None:  # the period is asked for only when it sets the window
            periodic, period = periodic_portrait_check(b)
            t = period if periodic else t
    return FigureSpec(
        figure_id=figure_id,
        params=tuple(Params(eps, b) for b in bs),
        z0=z0 if z0 is not None else z,
        t_end=t_end if t_end is not None else t,
        output_stem=output_stem if output_stem is not None else figure_id,
    )


def _block_trajectory(p: Params, spec: FigureSpec) -> tuple[Trajectory, bool]:
    """Integrate one block, an ExpBlowup one only until its energy would
    overflow at the rate omega* (never if that rate underflows to 0)."""
    regime = classify(p)
    t_end, truncated = spec.t_end, False
    if regime.kind is RegimeKind.EXP_BLOWUP and regime.omega_star > 0.0:
        growth = math.log(ENERGY_OVERFLOW) - math.log(2.0 * max(energy(spec.z0), 1e-12))
        # zero when the start is already past the cap, so a one-unit window is left
        t_over = max(0.0, growth / (2.0 * regime.omega_star))
        truncated = t_over < t_end
        t_end = min(t_end, 1.02 * t_over + 1.0)
    return integrate(p, spec.z0, t_end, samples=_SAMPLES), truncated


def write_figure(spec: FigureSpec) -> tuple[Path, Path]:
    """Write ``<stem>.csv`` and ``<stem>.plot`` for a figure spec.

    The stem's parent directory is created if it is missing.  Each block
    is sampled on ``_SAMPLES`` = 1200 equal steps.  Deterministic: the
    same spec produces byte-identical files.  Floats are printed with
    shortest round-trip precision, so re-parsing the CSV reproduces the
    computed trajectory exactly.  A block is truncated where E passes
    1e100 and a note row is inserted; an ExpBlowup block
    (:func:`classify`) is integrated only to about that point.
    """
    csv_path = Path(f"{spec.output_stem}.csv")
    plot_path = Path(f"{spec.output_stem}.plot")
    csv_path.parent.mkdir(parents=True, exist_ok=True)

    header = "t,u,x,v,y,E"
    if spec.with_asymptotic:
        header += ",u_asym,v_asym"

    lines = [header]
    z0 = spec.z0.as_array()
    for k, (p, label) in enumerate(zip(spec.params, spec.labels)):
        if k > 0:
            lines.append("")
        lines.append(f"# block {k}: {label}")
        traj, truncated = _block_trajectory(p, spec)
        over = np.flatnonzero(traj.energies > ENERGY_OVERFLOW)
        n = over[0] if over.size else traj.times.size
        truncated |= over.size > 0
        columns = [traj.times[:n, None], traj.states[:n], traj.energies[:n, None]]
        if spec.with_asymptotic:
            za = asymptotic_propagator(p.b, traj.times[:n]) @ z0
            columns.append(za[:, [0, 2]])
        lines.extend(",".join(map(repr, row)) for row in np.hstack(columns).tolist())
        if truncated:
            lines.append(f"# truncated: E > {ENERGY_OVERFLOW:g} beyond this point")
    csv_path.write_text("\n".join(lines) + "\n")

    plot_path.write_text(_plot_script(spec, csv_path.name))
    return csv_path, plot_path


def _plot_script(spec: FigureSpec, csv_name: str) -> str:
    """Declarative plot description referencing CSV columns by name."""
    out = [
        f"# plot script for {csv_name}",
        "# blocks are blank-line separated; '#' lines are comments",
        f"data {csv_name}",
    ]
    labels = spec.labels
    if spec.portrait:
        out += ["xlabel u", "ylabel du/dt", "aspect equal"]
        out += [f'curve block={k} x=u y=x label="{label}"' for k, label in enumerate(labels)]
    elif spec.with_asymptotic:
        out += ["xlabel t", "ylabel u, v"]
        for name in ("u", "u_asym", "v", "v_asym"):
            out.append(f'curve block=0 x=t y={name} label="{name} ({labels[0]})"')
    else:
        out += ["xlabel t", "ylabel E"]
        out += [f'curve block={k} x=t y=E label="{label}"' for k, label in enumerate(labels)]
    return "\n".join(out) + "\n"


def parse_figure_csv(path: str | Path) -> list[dict[str, np.ndarray]]:
    """Read back a figure CSV into one column dict per block."""
    text = Path(path).read_text().splitlines()
    header = text[0].split(",")
    blocks: list[list[list[float]]] = [[]]
    for line in text[1:]:
        if not line.strip():
            if blocks[-1]:
                blocks.append([])
            continue
        if line.startswith("#"):
            continue
        blocks[-1].append([float(tok) for tok in line.split(",")])
    return [
        {name: np.array([row[j] for row in block]) for j, name in enumerate(header)}
        for block in blocks
        if block
    ]
