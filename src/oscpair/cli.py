"""Command-line front end.

Verbs:
    classify  regime report for one (epsilon, b) as key=value lines
    figure    write a figure's CSV and plot script
    sweep     growth bound and defect over a coupling range, as CSV
    modes     family growth bound for a mode file
    accept    run the acceptance suite

Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 acceptance failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import acceptance
from .core import Params, State
from .figures import FIGURE_IDS, default_figure_spec, write_figure
from .modal import family_growth_bound, load_mode_family, threshold_check
from .sim import FitError, IntegrationError
from .spectrum import RegimeKind, _regime, _regimes, closed_form_eigenvalues
from .spectrum import palindromic_roots, root_defects

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_ACCEPTANCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits with 2
        raise _UsageError(message)


def _parse_state(text: str) -> State:
    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError(f"--z0 expects 'u,x,v,y', got {text!r}")
    try:
        return State(*(float(tok) for tok in parts))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="oscpair", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="regime report for one parameter pair")
    p_cls.add_argument("--epsilon", type=float, required=True)
    p_cls.add_argument("--b", type=float, required=True)

    p_fig = sub.add_parser("figure", help="write a figure CSV and plot script")
    p_fig.add_argument("figure_id", choices=FIGURE_IDS)
    p_fig.add_argument("--out", default=None, help="output stem (default: figure id)")
    p_fig.add_argument("--q", type=float, default=None, help="fig2 only, default 4")
    p_fig.add_argument("--t-end", type=float, default=None)
    p_fig.add_argument("--z0", type=_parse_state, default=None)

    p_swp = sub.add_parser("sweep", help="growth bound over a coupling range")
    p_swp.add_argument("--epsilon", type=float, required=True)
    p_swp.add_argument("--b-min", type=float, required=True)
    p_swp.add_argument("--b-max", type=float, required=True)
    p_swp.add_argument("--n", type=int, required=True)

    p_mod = sub.add_parser("modes", help="family growth bound for a mode file")
    p_mod.add_argument("--modes-file", required=True)
    p_mod.add_argument("--epsilon", type=float, required=True)
    p_mod.add_argument("--b", type=float, required=True)

    p_acc = sub.add_parser("accept", help="run the acceptance suite")
    p_acc.add_argument("--only", default=None, help="comma-separated criterion numbers")

    return parser


def _cmd_classify(args: argparse.Namespace) -> int:
    p = Params(args.epsilon, args.b)
    spectrum = closed_form_eigenvalues(p)
    regime = _regime(p, spectrum)

    lines = [
        f"epsilon={p.epsilon!r}",
        f"b={p.b!r}",
        f"kind={regime.kind.value}",
        f"omega_star={regime.omega_star!r}",
        f"defect={regime.defect_penalty}",
    ]
    if regime.kind is RegimeKind.POLY_BLOWUP:
        lines.append(f"degree={regime.defect_penalty}")
    for i, lam in enumerate(spectrum.eigenvalues, start=1):
        lines += [f"lambda{i}_re={lam.real!r}", f"lambda{i}_im={lam.imag!r}"]
    lines.append("defects=" + ",".join(str(d) for d in spectrum.defects))
    if p.epsilon < 1.0:
        lines += [f"sqrt_epsilon={math.sqrt(p.epsilon)!r}", f"eta={(1.0 + p.epsilon) / 2.0!r}"]
    if p.epsilon > 1.0:
        # a strictly stable subspace can coexist with blow-up; report only
        dim = sum(1 for lam in spectrum.eigenvalues if lam.real < 0.0)
        lines.append(f"stable_subspace_dim={dim}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    spec = default_figure_spec(
        args.figure_id,
        output_stem=args.out,
        q=args.q,
        t_end=args.t_end,
        z0=args.z0,
    )
    csv_path, plot_path = write_figure(spec)
    print(f"wrote {csv_path}")
    print(f"wrote {plot_path}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise _UsageError("--n must be >= 2")
    if not (0 < args.b_min < args.b_max):
        raise _UsageError("need 0 < b-min < b-max")
    Params(args.epsilon, args.b_max)  # validates epsilon and the range end
    grid = np.linspace(args.b_min, args.b_max, args.n)
    roots, defects = palindromic_roots(args.epsilon, grid), root_defects(args.epsilon, grid)
    _, omega, defect = _regimes(args.epsilon, grid, roots, defects)
    rows = list(zip(grid.tolist(), omega.tolist(), defect.tolist()))
    best = rows[int(np.argmin(omega))]
    lines = ["b,omega_star,defect"]
    lines += [f"{b!r},{w!r},{d}" for b, w, d in rows]
    lines.append(f"# argmin b={best[0]!r} omega_star={best[1]!r} defect={best[2]}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_modes(args: argparse.Namespace) -> int:
    family = load_mode_family(args.modes_file)
    p = Params(args.epsilon, args.b)
    bound = family_growth_bound(family, p)
    print(f"modes={len(family)}")
    print(f"mu_first={family.mu[0]!r}")
    print(f"family_growth_bound={bound.value!r}")
    print(f"attained_mode_index={bound.index}")
    print(f"attained_mu={bound.mu!r}")
    if p.epsilon < 1.0:
        print(f"threshold={(1.0 - p.epsilon) ** 2 / 16.0!r}")
        print(f"threshold_ok={threshold_check(family, p.epsilon)}")
    return EXIT_OK


def _cmd_accept(args: argparse.Namespace) -> int:
    numbers = None
    if args.only is not None:
        try:
            numbers = {int(tok) for tok in args.only.split(",")}
        except ValueError as exc:
            raise _UsageError(f"--only expects numbers, got {args.only!r}") from exc
    try:
        ok = acceptance.run_all(numbers)
    except ValueError as exc:  # the selection; a criterion's own errors are caught inside
        raise _UsageError(f"--only: {exc}") from exc
    return EXIT_OK if ok else EXIT_ACCEPTANCE


def _join_option_values(argv: list[str]) -> list[str]:
    """Each ``--opt value`` as ``--opt=value``, since argparse reads a value such
    as -5e-324 or -1,0,0,0 as an option; every long option but --help takes one."""
    out, rest = [], iter(argv)
    for tok in rest:
        takes_value = tok.startswith("--") and "=" not in tok and tok not in ("--", "--help")
        value = next(rest, None) if takes_value else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_option_values(sys.argv[1:] if argv is None else argv))
        handler = {
            "classify": _cmd_classify,
            "figure": _cmd_figure,
            "sweep": _cmd_sweep,
            "modes": _cmd_modes,
            "accept": _cmd_accept,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IntegrationError, FitError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
