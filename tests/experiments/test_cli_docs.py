"""Docs/CLI agreement: EXPERIMENTS.md's embedded ``--help`` blocks are
verbatim copies of what the live parser prints.

The docs promise these blocks are exact; this test is what makes that
promise survive flag edits.  After changing a flag, re-capture with::

    COLUMNS=80 PYTHONPATH=src python -m repro trace --help

and paste the output into the matching fenced block.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import main

EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def _doc_block(marker: str) -> str:
    """The fenced ``text`` block following *marker* in EXPERIMENTS.md."""
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert marker in text, f"EXPERIMENTS.md lost its {marker} section"
    tail = text[text.index(marker):]
    fence = "```text\n"
    start = tail.index(fence) + len(fence)
    return tail[start:tail.index("```", start)]


@pytest.mark.parametrize("sub", ["trace", "sweep"])
def test_help_text_matches_experiments_md(sub, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    printed = capsys.readouterr().out
    documented = _doc_block(f"`sais-repro {sub} --help`")
    assert printed.strip() == documented.strip(), (
        f"EXPERIMENTS.md's `{sub} --help` block is stale — re-capture it "
        "with COLUMNS=80 and paste verbatim"
    )
