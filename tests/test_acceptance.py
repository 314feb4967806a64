"""Acceptance gate: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or
on failure); the same checks back the ``oscpair accept`` CLI verb.
"""

import re

import pytest

from oscpair import acceptance, cli, core, sim
from oscpair.acceptance import CRITERIA, run_all

# details that are part of the output contract, quoted as fixed figures
PINNED_DETAILS = {7: "sup differences 1.0638 > 0.2232 > 0.0558"}


@pytest.mark.parametrize("criterion", CRITERIA, ids=[f"criterion_{c.number}" for c in CRITERIA])
def test_acceptance_criterion(criterion):
    ok, detail = criterion.run()
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion.number}: {criterion.title} [{detail}]")
    assert ok, f"criterion {criterion.number} ({criterion.title}): {detail}"
    assert detail == PINNED_DETAILS.get(criterion.number, detail)


def test_criterion_6_makes_no_scalar_oracle_call(monkeypatch):
    calls = []
    for module in (sim, acceptance):
        monkeypatch.setattr(module, "explicit_solution_eps1_b1", lambda *a: calls.append(a), raising=False)
    ok, detail = next(c for c in CRITERIA if c.number == 6).run()
    assert ok, detail
    assert calls == []


def test_criterion_1_builds_no_params_or_single_matrix(monkeypatch):
    calls = []
    inner = core.Params.__post_init__
    monkeypatch.setattr(core.Params, "__post_init__", lambda self: calls.append(self) or inner(self))
    for module in (core, acceptance):
        monkeypatch.setattr(module, "assemble_matrix", lambda p: calls.append(p), raising=False)
    ok, detail = next(c for c in CRITERIA if c.number == 1).run()
    assert ok, detail
    assert calls == []


@pytest.mark.parametrize("numbers, named", [(set(), "no criteria"), ({11}, "[11]"), ({2, 42}, "[42]")])
def test_run_all_rejects_an_empty_or_unknown_selection(capsys, numbers, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        run_all(numbers)
    assert capsys.readouterr().out == ""


def test_run_all_runs_exactly_the_selection(capsys):
    assert run_all({2})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("PASS criterion 2:")


def test_a_criterion_that_raises_fails_the_accept_verb(monkeypatch, capsys):
    def crash():
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.Criterion(4, "crashes", crash)])
    assert cli.main(["accept", "--only", "4"]) == 3
    assert capsys.readouterr().out == "FAIL criterion 4: crashes [raised RuntimeError: boom]\n"
