"""Acceptance gate: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or
on failure); the same checks back the ``oscpair accept`` CLI verb.
"""

import re

import pytest

from oscpair.acceptance import CRITERIA, run_all


@pytest.mark.parametrize("criterion", CRITERIA, ids=[f"criterion_{c.number}" for c in CRITERIA])
def test_acceptance_criterion(criterion):
    ok, detail = criterion.run()
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion.number}: {criterion.title} [{detail}]")
    assert ok, f"criterion {criterion.number} ({criterion.title}): {detail}"


@pytest.mark.parametrize("numbers, named", [(set(), "no criteria"), ({11}, "[11]"), ({2, 42}, "[42]")])
def test_run_all_rejects_an_empty_or_unknown_selection(numbers, named):
    lines = []
    with pytest.raises(ValueError, match=re.escape(named)):
        run_all(numbers, emit=lines.append)
    assert lines == []


def test_run_all_runs_exactly_the_selection():
    lines = []
    assert run_all({2}, emit=lines.append)
    assert len(lines) == 1 and lines[0].startswith("PASS criterion 2:")
