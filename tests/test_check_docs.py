"""The docs hygiene checker itself: clean on this tree, and actually
able to detect each problem class (a checker that can't fail is
decoration)."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1] / "scripts" / "check_docs.py"
)


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_docs_are_clean(check_docs, capsys):
    assert check_docs.main() == 0
    assert "OK" in capsys.readouterr().out


def test_flag_regex_finds_flags_not_dashes(check_docs):
    found = check_docs.FLAG_RE.findall(
        "run with `--shards 2` — not --made-up; em—dash and c2c-rate stay out"
    )
    assert found == ["--shards", "--made-up"]


def test_every_doc_flag_check_detects_unknowns(check_docs, tmp_path, monkeypatch):
    rogue = tmp_path / "ROGUE.md"
    rogue.write_text("pass `--definitely-not-a-flag` here\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ["ROGUE.md"])
    problems: list[str] = []
    check_docs.check_flags(problems)
    assert problems and "--definitely-not-a-flag" in problems[0]


def test_flag_check_detects_environment_variables_nothing_reads(
    check_docs, tmp_path, monkeypatch
):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "cache.py").write_text(
        '"""Mentions REPRO_MENTIONED, which is not read."""\n'
        'CACHE_DIR_ENV = "REPRO_CACHE_DIR"\n',
        encoding="utf-8",
    )
    rogue = tmp_path / "ROGUE.md"
    rogue.write_text(
        "set `$REPRO_CACHE_DIR`\n`REPRO_GONE=1` and REPRO_MENTIONED\n",
        encoding="utf-8",
    )
    # ROADMAP.md may name variables that deleted code read.
    (tmp_path / "ROADMAP.md").write_text("`REPRO_GONE=1`\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ["ROGUE.md", "ROADMAP.md"])
    problems: list[str] = []
    check_docs.check_flags(problems)
    assert problems == [
        "ROGUE.md:2: documents environment variable REPRO_GONE, which "
        "nothing under src/repro reads",
        "ROGUE.md:2: documents environment variable REPRO_MENTIONED, which "
        "nothing under src/repro reads",
    ]


def test_link_check_detects_missing_targets(check_docs, tmp_path, monkeypatch):
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "[ok](DOC.md) [gone](missing/file.md) [web](https://x.y/)\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ["DOC.md"])
    problems: list[str] = []
    check_docs.check_links(problems)
    assert problems == ["DOC.md: broken link -> missing/file.md"]


def test_api_coverage_detects_an_undocumented_subsystem(
    check_docs, tmp_path, monkeypatch
):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "API.md").write_text(
        "only repro.des here\n", encoding="utf-8"
    )
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "des").mkdir()
    (pkg / "newthing").mkdir()
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    problems: list[str] = []
    check_docs.check_api_coverage(problems)
    assert problems == ["docs/API.md: subsystem repro.newthing not mentioned"]


def test_dotted_name_check_detects_stale_names(check_docs, tmp_path, monkeypatch):
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "`repro.des.Environment` and `repro.pfs.server.IoServer.accept` "
        "exist;\n`repro.pfs.IoServer` and `repro.nosuchmodule.thing` do not\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ["DOC.md"])
    problems: list[str] = []
    check_docs.check_dotted_names(problems)
    assert problems == [
        "DOC.md:2: names repro.pfs.IoServer, which does not exist",
        "DOC.md:2: names repro.nosuchmodule.thing, which does not exist",
    ]


def test_class_attribute_check_detects_stale_names(
    check_docs, tmp_path, monkeypatch
):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "model.py").write_text(
        "import dataclasses\n"
        "class Base:\n"
        "    def inherited(self): ...\n"
        "@dataclasses.dataclass\n"
        "class Thing(Base):\n"
        "    field: int = 0\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "    @property\n"
        "    def busy(self): ...\n",
        encoding="utf-8",
    )
    # `Other` is no repro class, so it is not checked; ROADMAP.md may
    # name deleted code.
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "`Thing.field`, `Thing.count`, `Thing.busy`, `Thing.inherited(x)`\n"
        "`Thing.gone`, `Other.gone`, `Thing.busy` `Base.missing`\n",
        encoding="utf-8",
    )
    (tmp_path / "ROADMAP.md").write_text("`Thing.deleted`\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ["DOC.md", "ROADMAP.md"])
    problems: list[str] = []
    check_docs.check_class_attributes(problems)
    assert problems == [
        "DOC.md:2: names Thing.gone, which Thing does not have",
        "DOC.md:2: names Base.missing, which Base does not have",
    ]


def test_call_check_detects_functions_that_do_not_exist(
    check_docs, tmp_path, monkeypatch
):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "model.py").write_text(
        "import dataclasses, typing as t\n"
        "def run(x): ...\n"
        "alias = run\n"
        "@dataclasses.dataclass\n"
        "class Experiment:\n"
        "    run_point: t.Callable\n"
        "    def assemble(self): ...\n",
        encoding="utf-8",
    )
    # ROADMAP.md may name deleted code; `Other.gone(x)` is check 5's.
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "`run(x)`, `alias()`, `Experiment(run_point=f)`, `run_point(spec)`,\n"
        "`assemble()`, `len(rows)`, `Other.gone(x)`, `0 task(s)`\n"
        "`gone(x) -> Path` and `missing()`\n",
        encoding="utf-8",
    )
    (tmp_path / "ROADMAP.md").write_text("`deleted(x)`\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ["DOC.md", "ROADMAP.md"])
    problems: list[str] = []
    check_docs.check_calls(problems)
    assert problems == [
        "DOC.md:3: calls gone, which is no builtin and is not defined "
        "under src/repro",
        "DOC.md:3: calls missing, which is no builtin and is not defined "
        "under src/repro",
    ]


def test_name_check_detects_names_that_do_not_exist(
    check_docs, tmp_path, monkeypatch
):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "model.py").write_text(
        "Gbit = 1000\n"
        "class IoApic:\n"
        "    def raise_interrupt(self): ...\n",
        encoding="utf-8",
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_model.py").write_text(
        "class TestMatrix:\n    pass\n", encoding="utf-8"
    )
    # Builtins, src/repro names and test classes pass; lower-case names,
    # all-caps symbols and longer spans are not bare CamelCase names.
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "`IoApic`, `Gbit`, `TestMatrix`, `ValueError`, `TR`, `napi`\n"
        "`IoApic.raise_interrupt`, `Gb/s`, `CpuScheduler` and `Gb`\n",
        encoding="utf-8",
    )
    (tmp_path / "ROADMAP.md").write_text("`CpuScheduler`\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ["DOC.md", "ROADMAP.md"])
    problems: list[str] = []
    check_docs.check_names(problems)
    assert problems == [
        "DOC.md:2: names CpuScheduler, which is no builtin and is not defined "
        "under src/repro or tests/",
        "DOC.md:2: names Gb, which is no builtin and is not defined under "
        "src/repro or tests/",
    ]
