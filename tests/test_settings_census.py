"""A census of the model's settings: every default must be overridden.

A setting earns its place (CONTRIBUTING.md, invariant 6): a parameter
with a default exists because some caller passes another value.  This
census parses the model packages and lists every defaulted parameter —
function and method parameters, and the fields of frozen (config-style)
dataclasses — that no call under ``src/`` passes, by keyword or by
position.  Calls are matched by the callee's name: ``Foo(...)`` and
``x.Foo(...)`` both count for class ``Foo``'s ``__init__`` (or fields),
``x.run(...)`` for every function named ``run``, and a keyword given to a
``replace(...)`` call for every field of that name.  A call that spreads
``*args`` or ``**kwargs`` counts as passing every positional or keyword
parameter of its callee.

A parameter no call varies must either become a named constant or appear
in :data:`ALLOWED` with the reason it stays.  Mutable dataclasses are
records, not settings: their defaults are initial state.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: The model: what a run is built from.  Infrastructure outside it
#: (``repro.des``, ``repro.obs``, the runner, the plot renderers) is not
#: counted.
MODEL = (
    "config.py",
    "presets.py",
    "hw",
    "kernel",
    "net",
    "pfs",
    "core",
    "cluster",
    "workloads",
    "memsim",
    "faults",
)

_CALIBRATION = (
    "calibration table (DESIGN.md §5); tests vary it to check mechanisms"
)

#: Defaulted settings no ``src/`` call varies, kept on purpose.  Keys are
#: ``Class.field``, ``owner.function(param)`` as :func:`census` names
#: them, or a bare class name for every field of that class.
ALLOWED = {
    "CostModel.rps_dispatch_cost": _CALIBRATION,
    "CacheAccessModel": _CALIBRATION,
    "CacheSystem.__init__(model)": _CALIBRATION,
    "MemsimConfig": _CALIBRATION,
    "ClientConfig.napi_budget": (
        "the only way a test reaches Nic.napi_reschedule; whether that "
        "branch stays is a model question"
    ),
    "AnalysisParams.n_programs": (
        "the paper's Sec. III symbol NP: eq. (8) and Sec. III-D.2 are "
        "checked across it"
    ),
}


def _model_files(root: pathlib.Path) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for entry in MODEL:
        path = root / entry
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _frozen_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        if _decorator_name(decorator) != "dataclass":
            continue
        if isinstance(decorator, ast.Call):
            return any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in decorator.keywords
            )
    return False


def defaulted_settings(
    sources: dict[str, str],
) -> list[tuple[str, str, str, int | None]]:
    """Every defaulted setting in ``sources`` (file name -> source text).

    Returns ``(name, callee, param, position)`` tuples: ``callee`` is the
    name a call uses to reach the setting and ``position`` its index
    among the call's positional arguments (None when keyword-only).
    """
    found: list[tuple[str, str, str, int | None]] = []

    def visit(node: ast.AST, owner: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _frozen_dataclass(child):
                    position = 0
                    for stmt in child.body:
                        if not (
                            isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)
                        ) or "ClassVar" in ast.unparse(stmt.annotation):
                            continue
                        if stmt.value is not None:
                            found.append(
                                (
                                    f"{child.name}.{stmt.target.id}",
                                    child.name,
                                    stmt.target.id,
                                    position,
                                )
                            )
                        position += 1
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = int(
                    owner is not None
                    and bool(positional)
                    and positional[0].arg in ("self", "cls")
                )
                callee = child.name
                if owner is not None and child.name == "__init__":
                    callee = owner.name
                prefix = f"{owner.name}." if owner is not None else ""
                name = f"{prefix}{child.name}"
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], first):
                    found.append(
                        (f"{name}({arg.arg})", callee, arg.arg, index - bound)
                    )
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((f"{name}({arg.arg})", callee, arg.arg, None))
                visit(child, None)
            else:
                visit(child, owner)

    for text in sources.values():
        visit(ast.parse(text), None)
    return found


def passed_arguments(sources: dict[str, str]) -> set[tuple[str, object]]:
    """``(callee, keyword or position)`` for every call in ``sources``.

    A spread ``*args`` adds ``(callee, "*")`` and ``**kwargs`` adds
    ``(callee, "**")``; a keyword of a ``replace(...)`` call also adds
    ``("replace", keyword)``.
    """
    passed: set[tuple[str, object]] = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            for index, arg in enumerate(node.args):
                passed.add((name, "*" if isinstance(arg, ast.Starred) else index))
            for keyword in node.keywords:
                passed.add((name, "**" if keyword.arg is None else keyword.arg))
    return passed


def census(model: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Names of the defaulted settings in ``model`` no call in
    ``callers`` passes."""
    passed = passed_arguments(callers)
    unvaried = []
    for name, callee, param, position in defaulted_settings(model):
        if (
            (callee, param) in passed
            or (callee, "**") in passed
            or ("replace", param) in passed
            or (
                position is not None
                and ((callee, position) in passed or (callee, "*") in passed)
            )
        ):
            continue
        unvaried.append(name)
    return unvaried


def _read(files: list[pathlib.Path]) -> dict[str, str]:
    return {str(path): path.read_text(encoding="utf-8") for path in files}


def _allowed(name: str) -> bool:
    return name in ALLOWED or name.split(".", 1)[0] in ALLOWED


def test_every_model_default_is_varied_or_allowed():
    model = _read(_model_files(SRC))
    callers = _read(sorted(SRC.rglob("*.py")))
    unvaried = [name for name in census(model, callers) if not _allowed(name)]
    assert not unvaried, (
        "defaulted settings no src/ call varies; make each a named "
        f"constant or list it in ALLOWED with its reason: {unvaried}"
    )


def test_every_allowed_entry_is_still_needed():
    model = _read(_model_files(SRC))
    callers = _read(sorted(SRC.rglob("*.py")))
    unvaried = census(model, callers)
    stale = [
        key
        for key in ALLOWED
        if not any(name == key or name.startswith(f"{key}.") for name in unvaried)
    ]
    assert not stale, f"ALLOWED entries no longer unvaried: {stale}"


def test_a_planted_unused_parameter_is_caught():
    model = _read(_model_files(SRC))
    callers = _read(sorted(SRC.rglob("*.py")))
    planted = (
        "class Planted:\n"
        "    def __init__(self, env, depth=4):\n"
        "        self.depth = depth\n"
        "\n"
        "def build(env):\n"
        "    return Planted(env)\n"
    )
    model["planted.py"] = planted
    callers["planted.py"] = planted
    assert "Planted.__init__(depth)" in census(model, callers)
    # Passing it, by keyword or by position, is what earns it its place.
    for call in ("Planted(env, depth=2)", "Planted(env, 2)"):
        varied = planted.replace("Planted(env)", call)
        callers["planted.py"] = varied
        assert "Planted.__init__(depth)" not in census(model, callers)
