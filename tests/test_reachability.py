"""Every module under ``src/repro`` is reached from a program entry point.

The entry points are the ``ddoscovery`` console script (``repro.cli``)
and every ``.py`` file under ``benchmarks/``, ``examples/``, ``scripts/``
and ``perfbench/``, except perfbench's own suite in ``perfbench/tests/``.
The guard walks import edges with :mod:`ast` alone, so it never imports
``repro`` and it sees imports inside functions too:

* every ``import`` and ``from ... import`` in a reached module is an
  edge, and so is an attribute access ``repro.<name>``;
* a name imported through a package ``__init__`` resolves to the module
  that defines it, through nested packages and the ``_LAZY_EXPORTS``
  table of ``repro/__init__.py``;
* a package ``__init__`` adds no edges of its own, so a re-export alone
  keeps no module alive.

A module that only tests import is not part of the program: delete it
together with its tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: ``[project.scripts]`` in pyproject.toml: ``ddoscovery = "repro.cli:main"``.
ENTRY_MODULES = ("repro.cli",)
ENTRY_DIRS = ("benchmarks", "examples", "scripts", "perfbench")
PERFBENCH_TESTS = ROOT / "perfbench" / "tests"


def _module_files() -> dict[str, Path]:
    """Dotted name -> source file, for every module and package of repro."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


FILES = _module_files()


def _is_package(name: str) -> bool:
    return name in FILES and FILES[name].name == "__init__.py"


def _exports(package: str) -> dict[str, tuple[str, str]]:
    """Names a package ``__init__`` re-exports -> (module, attribute)."""
    exports = {}
    for node in ast.walk(ast.parse(FILES[package].read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                exports[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_LAZY_EXPORTS"
            for target in node.targets
        ):
            exports.update(ast.literal_eval(node.value))
    return exports


EXPORTS = {name: _exports(name) for name in FILES if _is_package(name)}


def _resolve(module: str, name: str | None = None) -> set[str]:
    """The non-package modules that ``from module import name`` reaches
    (``import module`` when ``name`` is None)."""
    if name is not None and f"{module}.{name}" in FILES:
        return _resolve(f"{module}.{name}")
    if module not in FILES:
        return set()  # outside repro
    if not _is_package(module):
        return {module}
    if name not in EXPORTS[module]:
        return set()
    return _resolve(*EXPORTS[module][name])


def _edges(path: Path, package: str | None) -> set[str]:
    """Modules one file's imports reach; ``package`` anchors relative ones."""
    reached = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                reached |= _resolve(alias.name)
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                if package is None:
                    continue  # relative to a package outside repro
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{module}" if module else base
            for alias in node.names:
                reached |= _resolve(module, alias.name)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "repro"
        ):
            reached |= _resolve("repro", node.attr)
    return reached


def _entry_files() -> list[Path]:
    files = []
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if PERFBENCH_TESTS not in path.parents:
                files.append(path)
    return files


def _reached() -> set[str]:
    reached: set[str] = set()
    frontier = {module for name in ENTRY_MODULES for module in _resolve(name)}
    for path in _entry_files():
        frontier |= _edges(path, None)
    while frontier:
        module = frontier.pop()
        reached.add(module)
        package = module.rsplit(".", 1)[0]
        frontier |= _edges(FILES[module], package) - reached
    return reached


def test_every_module_is_reached_from_an_entry_point():
    assert set(ENTRY_MODULES) <= set(FILES), "src/repro not found"
    reached = _reached()
    unreached = sorted(
        name for name in FILES if not _is_package(name) and name not in reached
    )
    assert not unreached, (
        "modules no program entry point imports (only tests do?):\n  "
        + "\n  ".join(unreached)
    )
