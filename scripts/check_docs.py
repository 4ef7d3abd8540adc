#!/usr/bin/env python
"""Docs hygiene checker: broken links, stale CLI flags and environment
variables, API coverage, stale dotted names, stale class attributes,
calls of functions that do not exist, names that do not exist.

Seven fast, dependency-free checks over the user-facing markdown
(README.md, DESIGN.md, EXPERIMENTS.md, CONTRIBUTING.md, ROADMAP.md,
docs/*.md):

1. **Links** — every relative markdown link/image target must exist in
   the repository (anchors are stripped; external schemes are skipped).
2. **Flags** — every ``--flag`` token the docs mention must be defined
   by the ``sais-repro`` argument parser (or be a known external tool's
   flag, e.g. pytest's ``--update-goldens``), so renamed or removed
   options can't linger in prose.  Likewise every ``REPRO_*``
   environment variable must be read by the code: some module under
   ``src/repro`` must hold its name as a whole string literal (a
   docstring that mentions it does not count).  ROADMAP.md is exempt
   from the variable check, as from check 5.
3. **API coverage** — ``docs/API.md`` must mention every ``src/repro``
   subsystem as ``repro.<name>``.
4. **Dotted names** — every backticked dotted name that starts with
   ``repro.`` must resolve: the longest importable module prefix is
   imported and the rest looked up with ``getattr``, so deleted or moved
   code can't linger in prose.
5. **Class attributes** — a backticked ``Name.attr``, where ``Name`` is
   a class defined under ``src/repro``, must name something the class
   has: a class attribute, method, property or dataclass field, a
   ``self.attr`` assignment in its source, or the same in a base class.
   ROADMAP.md is exempt: its "Recent" section names deleted code on
   purpose.
6. **Calls** — a backticked call ``name(...)`` must name a builtin, or
   a function, class, module-level name or annotated class field (such
   as ``GridExperiment.run_point``) defined under ``src/repro``.
   ROADMAP.md is exempt, as from check 5.
7. **Names** — a backticked bare CamelCase name (``IoApic``, ``Gbit``)
   must name a builtin, a class, function or module-level name defined
   under ``src/repro``, or a class defined under ``tests/`` (DESIGN.md
   cites test classes).  ROADMAP.md is exempt, as from check 5.

Run from the repository root::

    PYTHONPATH=src python scripts/check_docs.py

Exits non-zero listing every problem; CI runs this as a fast job.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

DOC_FILES = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CONTRIBUTING.md",
    "ROADMAP.md",
    *sorted(str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md")),
]

#: Flags the docs legitimately mention that belong to other tools.
EXTERNAL_FLAGS = {
    "--update-goldens",   # our pytest conftest option
    "--cov",              # pytest-cov (CONTRIBUTING)
}

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"(?<![\w/-])--[a-z][a-z0-9-]+")
ENV_VAR_RE = re.compile(r"\bREPRO_[A-Z_]+")
DOTTED_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
CLASS_ATTR_RE = re.compile(r"([A-Z]\w*)\.([A-Za-z_]\w*)")
CALL_RE = re.compile(r"([A-Za-z_]\w*)\(")
CAMEL_RE = re.compile(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*")

#: Docs allowed to name class attributes, calls and environment variables
#: that no longer exist.
HISTORY_FILES = {"ROADMAP.md"}


def parser_flags() -> set[str]:
    """Every ``--option`` the sais-repro CLI defines, plus pytest's own."""
    from repro.cli import _build_parser

    flags: set[str] = set()

    def walk(parser: argparse.ArgumentParser) -> None:
        for action in parser._actions:
            flags.update(
                opt for opt in action.option_strings if opt.startswith("--")
            )
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)

    walk(_build_parser())
    return flags


def check_links(problems: list[str]) -> None:
    for rel in DOC_FILES:
        path = ROOT / rel
        if not path.exists():
            problems.append(f"{rel}: listed in DOC_FILES but missing")
            continue
        for target in LINK_RE.findall(path.read_text(encoding="utf-8")):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue  # pure in-page anchor
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                problems.append(f"{rel}: broken link -> {target}")


def env_vars_read() -> set[str]:
    """Every ``REPRO_*`` name some module under ``src/repro`` holds as a
    whole string literal: the environment variables the code can read."""
    names: set[str] = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ENV_VAR_RE.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def check_flags(problems: list[str]) -> None:
    known = parser_flags() | EXTERNAL_FLAGS
    read = env_vars_read()
    for rel in DOC_FILES:
        path = ROOT / rel
        if not path.exists():
            continue
        for line_no, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for flag in FLAG_RE.findall(line):
                if flag not in known:
                    problems.append(
                        f"{rel}:{line_no}: documents unknown flag {flag}"
                    )
            if rel in HISTORY_FILES:
                continue
            for name in ENV_VAR_RE.findall(line):
                if name not in read:
                    problems.append(
                        f"{rel}:{line_no}: documents environment variable "
                        f"{name}, which nothing under src/repro reads"
                    )


def check_api_coverage(problems: list[str]) -> None:
    api = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    src = ROOT / "src" / "repro"
    subsystems = sorted(
        entry.stem
        for entry in src.iterdir()
        if not entry.name.startswith("_")
        and (entry.is_dir() or entry.suffix == ".py")
    )
    for name in subsystems:
        if f"repro.{name}" not in api:
            problems.append(f"docs/API.md: subsystem repro.{name} not mentioned")


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute reached from the
    longest importable module prefix by ``getattr``."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            missing = exc.name or ""
            if module_name == missing or module_name.startswith(missing + "."):
                continue  # no such module: try a shorter prefix
            raise  # a real module failed to import
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_dotted_names(problems: list[str]) -> None:
    seen: dict[str, bool] = {}
    for rel in DOC_FILES:
        path = ROOT / rel
        if not path.exists():
            continue
        for line_no, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for name in DOTTED_RE.findall(line):
                if name not in seen:
                    seen[name] = resolves(name)
                if not seen[name]:
                    problems.append(
                        f"{rel}:{line_no}: names {name}, which does not exist"
                    )


def _class_index() -> dict[str, list[tuple[str, set[str], list[str]]]]:
    """Every class defined under ``src/repro``: its name -> a list of
    (module, member names from its source, base-class names)."""
    src = ROOT / "src"
    index: dict[str, list[tuple[str, set[str], list[str]]]] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            members: set[str] = set()
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    members.add(item.name)
                elif isinstance(item, ast.Assign):
                    members.update(
                        t.id for t in item.targets if isinstance(t, ast.Name)
                    )
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    members.add(item.target.id)
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    members.add(sub.attr)
            bases = [
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            ]
            index.setdefault(node.name, []).append((module, members, bases))
    return index


def has_member(
    index: dict[str, list[tuple[str, set[str], list[str]]]],
    name: str,
    attr: str,
    seen: frozenset[str] = frozenset(),
) -> bool:
    """Whether some repro class called ``name`` (or a base) has ``attr``."""
    for module, members, bases in index[name]:
        if attr in members:
            return True
        for base in bases:
            if base in index:
                if base not in seen and has_member(
                    index, base, attr, seen | {name}
                ):
                    return True
            else:
                # A base from outside repro (Enum, Exception, ...): ask
                # the class itself.
                cls = getattr(importlib.import_module(module), name, None)
                if hasattr(cls, attr):
                    return True
    return False


def check_class_attributes(problems: list[str]) -> None:
    index = _class_index()
    seen: dict[tuple[str, str], bool] = {}
    for rel in DOC_FILES:
        path = ROOT / rel
        if rel in HISTORY_FILES or not path.exists():
            continue
        for line_no, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for span in CODE_SPAN_RE.findall(line):
                match = CLASS_ATTR_RE.match(span)
                if match is None or match.group(1) not in index:
                    continue
                key = (match.group(1), match.group(2))
                if key not in seen:
                    seen[key] = has_member(index, *key)
                if not seen[key]:
                    problems.append(
                        f"{rel}:{line_no}: names {key[0]}.{key[1]}, which "
                        f"{key[0]} does not have"
                    )


def callable_names() -> set[str]:
    """Builtins, plus every function, class, module-level name and
    annotated class field defined under ``src/repro``."""
    names = set(dir(builtins))
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            # Module-level assignments, such as an alias of a function.
            if isinstance(node, ast.Assign):
                names.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                )
    return names


def check_calls(problems: list[str]) -> None:
    known = callable_names()
    for rel in DOC_FILES:
        path = ROOT / rel
        if rel in HISTORY_FILES or not path.exists():
            continue
        for line_no, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for span in CODE_SPAN_RE.findall(line):
                match = CALL_RE.match(span)
                if match is not None and match.group(1) not in known:
                    problems.append(
                        f"{rel}:{line_no}: calls {match.group(1)}, which is "
                        "no builtin and is not defined under src/repro"
                    )


def classes_under_tests() -> set[str]:
    """Every class defined under ``tests/``."""
    names: set[str] = set()
    for path in sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(
            node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        )
    return names


def check_names(problems: list[str]) -> None:
    known = callable_names() | classes_under_tests()
    for rel in DOC_FILES:
        path = ROOT / rel
        if rel in HISTORY_FILES or not path.exists():
            continue
        for line_no, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for span in CODE_SPAN_RE.findall(line):
                if CAMEL_RE.fullmatch(span) and span not in known:
                    problems.append(
                        f"{rel}:{line_no}: names {span}, which is no builtin "
                        "and is not defined under src/repro or tests/"
                    )


def main() -> int:
    problems: list[str] = []
    check_links(problems)
    check_flags(problems)
    check_api_coverage(problems)
    check_dotted_names(problems)
    check_class_attributes(problems)
    check_calls(problems)
    check_names(problems)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({len(DOC_FILES)} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
